"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _units(workload, seed, k):
    return list(itertools.islice(run.workload_units(workload, seed), k))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_argvs(workload):
    first = _units(workload, 7, 40)
    assert first == _units(workload, 7, 40)
    assert first != _units(workload, 8, 40)


def test_argv_shapes():
    blocks = list(itertools.islice(run.workload_blocks("series", 3), 5))
    lo, hi = run.SERIES_PRECISION
    width = (hi - lo + 1) / run.SERIES_STRATA
    for block in blocks:  # one precision from each stratum
        strata = sorted(int((int(a[-1]) - lo) // width) for a in block)
        assert strata == list(range(run.SERIES_STRATA))
    formats = [u[0][-1] for u in _units("gauntlet", 3, 8)]
    assert sorted(formats) == ["json"] * 4 + ["text"] * 4
    for unit in _units("commands", 3, 2):
        assert sorted(map(tuple, unit)) == sorted(run.COMMAND_SHAPES)
    assert len(_units("commands", 3, 10)) == run.COMMANDS_PASSES


def test_paced_runs_whole_units():
    passes = _units("commands", 1, 2)
    assert list(run.paced(passes, 0)) == passes[0]
    series = _units("series", 1, 5)
    assert list(run.paced(series, 0)) == series[0]
    assert list(run.paced(series, 60)) == [u[0] for u in series]


def test_paced_lets_the_last_unit_end_up_to_half_a_unit_late():
    # units of 0.2 s in 0.55 s: the third is predicted to end at 0.6 s, less
    # than half a unit after the end; the fourth, at 0.8 s, is not
    done = [run.time.sleep(0.2) for _ in run.paced([[["x"]]] * 10, 0.55)]
    assert len(done) == 3


def test_self_times_on_a_synthetic_tree():
    # cli root 0..10; weil child 1..6 with 1 s of OmegaMat leaf directly
    # under it; fqm grandchild 2..4; a second fqm child of the root 7..8
    # with 0.5 s of b leaf.
    spans = [
        [0, None, "cli.cmd_verify_all", 0.0, 10.0, 0.0],
        [1, 0, "weil.build_weil", 1.0, 6.0, 1.0],
        [2, 1, "fqm.orthogonal_group", 2.0, 4.0, 0.0],
        [3, 0, "fqm.pairing_table", 7.0, 8.0, 0.5],
    ]
    leaves = {"weil.omegamat_matmul": [3, 1.0], "fqm.b": [10, 0.5]}
    got = run.layer_self_times(spans, leaves)
    assert got["cli"] == pytest.approx(10 - 5 - 1)
    assert got["weil"] == pytest.approx((5 - 2 - 1) + 1)
    assert got["fqm"] == pytest.approx(2 + (1 - 0.5) + 0.5)
    assert got["exact"] == 0
    assert sum(got.values()) == pytest.approx(10)
    assert run.uncovered(12.5, spans) == pytest.approx(2.5)


def test_overlapping_children_are_covered_once():
    spans = [[0, None, "weil.cayley_check", 0.0, 4.0, 0.0],
             [1, 0, "exact.mat_mul", 1.0, 3.0, 0.0],
             [2, 0, "exact.mat_mul", 2.0, 5.0, 0.0]]
    got = run.layer_self_times(spans, {})
    assert got["weil"] == pytest.approx(4 - 3)


def test_tail_rank():
    assert run.tail(list(range(100))) == 89  # ten samples above it
    assert run.tail(list(range(20))) == pytest.approx(14.25)  # upper quartile
    assert run.tail([1.0, 2.0, 3.0]) == pytest.approx(2.5)
    assert run.tail([5.0]) == 5.0


def test_import_times_subtract_nested_layers():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:      1000 |       1000 |     triform.exact",
        "import time:       500 |       1500 |   triform.qseries",
        "import time:        50 |       1850 | triform.cli",
    ])
    got = run.import_times(text)
    assert got["exact"] == pytest.approx(0.001)
    assert got["qseries"] == pytest.approx(0.0005)
    assert got["cli"] == pytest.approx((1850 - 1500) / 1e6)  # own 50 + numpy 300


def _components(precision, f1_lead="135", f0_q2="2430", f2_q4="570"):
    comps = {"00": {"0": "-1/2", "3": "15"},
             "0": {"3": "270", "6": f0_q2},
             "1": {"2": f1_lead}, "2": {"1": "15", "4": "120", "7": f2_q4}}
    return {label: {n: c for n, c in terms.items() if int(n) <= precision}
            for label, terms in comps.items()}


def _series_output(precision, **terms):
    return json.dumps({"combination": {"a": "-3/2", "b": "1/6"}, "precision": precision,
                       "components": _components(precision, **terms)})


def _series_argv(p):
    return ["eisenstein", "--format", "json", "--precision", str(p)]


def _series_checker():
    return run.Checker({}, {"precision": 9, "components": _components(9)})


def test_series_checks():
    checker = _series_checker()
    assert checker.check(_series_argv(6), 0, _series_output(6)) is None
    assert checker.check(_series_argv(6), 0, _series_output(6, f1_lead="136"))
    assert checker.check(_series_argv(7), 0, _series_output(6))  # precision
    assert checker.check(_series_argv(9), 0, _series_output(9)) is None
    assert checker.check(_series_argv(10), 0, _series_output(10))  # past the reference
    assert _series_checker().check(_series_argv(6), 0, "not json")


def test_series_term_wrong_at_every_precision_is_caught():
    # f_2 at q^(7/3), past the frozen leading terms, wrong in the same way at
    # every precision: the runs agree with each other but not with the reference
    checker = _series_checker()
    assert checker.check(_series_argv(8), 0, _series_output(8, f2_q4="571"))
    assert checker.check(_series_argv(9), 0, _series_output(9, f2_q4="571"))


def test_series_reference_matches_a_fresh_run():
    argv = _series_argv(151)
    sample = run.invoke(argv, run.new_checker())
    assert sample.error is None, sample.error
    assert run.new_checker().check(argv, 0, sample.proc.stdout.replace('"7":"5160"', '"7":"5161"'))


def test_negative_control_makes_error_rate_nonzero():
    argv = ["classify"]
    golden, series = run.load_golden(), run.load_series_golden()
    good = run.invoke(argv, run.Checker(golden, series))
    assert good.error is None, good.error
    assert run.Checker(golden, series).check(argv, 0, good.proc.stdout + " ")
    assert run.Checker(golden, series).check(argv, 1, good.proc.stdout)
    tampered = dict(golden, classify="0" * 64)
    bad = run.invoke(argv, run.Checker(tampered, series))
    assert bad.error is not None
    res = run.Result()
    res.add_samples([good, bad])
    assert (res.attempted, res.failed) == (2, 1)


def test_traced_output_matches_golden_and_has_spans():
    sample = run.invoke_traced(["pairing-table"], run.new_checker(), "t")
    assert sample.error is None, sample.error
    names = {s[2] for s in sample.trace["spans"]}
    assert {"cli.cmd_pairing_table", "fqm.paper_module", "fqm.pairing_table"} <= names
    assert sample.trace["leaves"]["fqm.b"][0] > 0
    for sid, parent, *_ in sample.trace["spans"]:
        assert parent is None or parent < sid


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
