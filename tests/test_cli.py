"""Subcommand smoke tests, byte stability, JSON schemas, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triform import borcherds, cli, exact, fqm, lattice, vvmf, weil
from triform.cli import main, run_checks
from triform.fqm import DualMismatchError
from triform.qseries import QSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text_and_byte_stability(capsys):
    code, out1, _ = run(capsys, "classify")
    assert code == 0
    assert "counts: 00=1 0=20 1=30 2=30" in out1
    assert "q histogram: 0->21 2/3->30 4/3->30" in out1
    code, out2, _ = run(capsys, "classify")
    assert out1 == out2


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"00": 1, "0": 20, "1": 30, "2": 30}
    assert sorted(len(v) for v in data["elements"].values()) == [1, 20, 30, 30]
    assert data["q_histogram"] == {"0": 21, "2/3": 30, "4/3": 30}


def test_classify_alt_preset(capsys):
    code, out, _ = run(capsys, "classify", "--preset", "alt-decomposition")
    assert code == 0
    assert "preset: alt-decomposition" in out
    assert "q histogram: 0->21 2/3->30 4/3->30" in out


def test_pairing_table_text(capsys):
    code, out, _ = run(capsys, "pairing-table")
    assert code == 0
    assert "( 1, 2)  6         12        12" in out
    assert "( 0, 0)  2         9         9" in out


def test_pairing_table_json(capsys):
    code, out, _ = run(capsys, "pairing-table", "--format", "json")
    data = json.loads(out)
    assert data["rows"]["1,2"] == [6, 12, 12]
    assert data["rows"]["00,00"] == [1, 0, 0]
    assert data["columns"] == ["0", "2/3", "1/3"]


def test_weil_text(capsys):
    code, out, _ = run(capsys, "weil")
    assert code == 0
    assert "cayley products verified: 576" in out
    assert "traces: E=81 -E=1 S=1 ST2=-9 -ST2=1 ST=1 -ST=-9" in out
    assert "aggregated dual T: diag(1, 1, -1 - w, w)" in out


def test_character_multiplicities_line(capsys):
    code, out, _ = run(capsys, "character")
    assert code == 0
    assert "multiplicities: 1 10 5 5 5 10 5" in out


def test_dimension_report(capsys):
    code, out, _ = run(capsys, "dimension", "--weight", "4")
    assert code == 0
    assert "dim modular: 2" in out
    assert "dim eisenstein: 2" in out
    assert "dim cusp: 0" in out
    code, out, _ = run(capsys, "dimension", "--weight", "4", "--format", "json")
    data = json.loads(out)
    assert data["dim_cusp"] == 0
    assert data["alpha_st"] == "4/3"


def test_record_json_renames_two_fields_keeps_ints_and_writes_the_rest_by_str():
    class Record(NamedTuple):
        n_bases: int
        dim_plus: int
        weight: Fraction
        whole: Fraction
        flag: bool
        cusps: int

    data = cli._record_json(Record(15, 4, Fraction(4, 3), Fraction(90), True, 10))
    assert list(data.items()) == [("bases", 15), ("eigenspace_dimension", 4), ("weight", "4/3"),
                                  ("whole", "90"), ("flag", "True"), ("cusps", 10)]


def test_dimension_rejects_low_weight(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dimension", "--weight", "2"])
    assert info.value.code == 2
    assert "--weight must be at least 3" in capsys.readouterr().err
    code, out, _ = run(capsys, "dimension", "--weight", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["weight"] == 3


def test_eisenstein_output_and_stability(capsys):
    code, out1, _ = run(capsys, "eisenstein", "--precision", "9")
    assert code == 0
    assert "f_00: -1/2 + 15 q" in out1
    assert "f_0: 270 q" in out1
    assert "f_1: 135 q^(2/3)" in out1
    assert "f_2: 15 q^(1/3)" in out1
    code, out2, _ = run(capsys, "eisenstein", "--precision", "9")
    assert out1 == out2


def test_borcherds_json_schema(capsys):
    code, out, _ = run(capsys, "borcherds", "--divisor", "long", "--format", "json")
    assert code == 0
    assert out == '{"weight_on_D":"135","weight_on_ball":"45","obstruction_ok":true}\n'
    code, out, _ = run(capsys, "borcherds", "--divisor", "short", "--format", "json")
    assert out == '{"weight_on_D":"15","weight_on_ball":"5","obstruction_ok":true}\n'


def test_special_vectors_text(capsys):
    code, out, _ = run(capsys, "special-vectors")
    assert code == 0
    assert "count: 15" in out
    assert "rank: 5" in out
    assert "basis 1000 | support 16 | witness 1111 -> -1 | checks ok" in out
    assert out.count("checks ok") == 15


def test_accounting_text_and_stability(capsys):
    code, out1, _ = run(capsys, "accounting")
    assert code == 0
    assert "per-basis weight: 45 + 9 * 5 = 90 = 6 * 15" in out1
    assert "cusps: 10" in out1
    code, out2, _ = run(capsys, "accounting")
    assert out1 == out2


def test_run_checks_all_pass():
    checks = run_checks()
    assert len(checks) == 14
    assert [c.status for c in checks] == ["pass"] * 14
    names = [c.name for c in checks]
    assert names[0] == "type-census"
    assert names[-1] == "accounting"
    for c in checks:
        assert c.expected == c.actual


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == 14
    assert data["failed"] == 0
    assert len(data["checks"]) == 14
    assert all(set(c) == {"name", "status", "expected", "actual", "source"}
               for c in data["checks"])


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["borcherds"])  # missing --divisor
    assert info.value.code == 2
    for argv in (["eisenstein", "--precision", "0"],
                 ["eisenstein", "--precision", "1"],
                 ["eisenstein", "--precision", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()
    # each subcommand takes only its own options
    for argv in (["weil", "--preset", "alt-decomposition"],
                 ["weil", "--preset", "paper"],
                 ["verify-all", "--precision", "600"],
                 ["classify", "--precision", "2"],
                 ["borcherds", "--divisor", "long", "--precision", "2"],
                 ["accounting", "--precision", "2"],
                 ["eisenstein", "--weight", "4"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_precision_three_is_the_floor(capsys):
    code, out, _ = run(capsys, "eisenstein", "--precision", "3")
    assert code == 0
    assert "f_00: -1/2 + 15 q" in out


def test_the_precision_ceiling_is_a_usage_error_past_it(monkeypatch, capsys):
    monkeypatch.setitem(cli._HANDLERS, "eisenstein", lambda args: 0)  # the bound, not the series
    assert main(["eisenstein", "--precision", str(cli.MAX_PRECISION)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["eisenstein", "--precision", str(cli.MAX_PRECISION + 1)])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: --precision must be at most {cli.MAX_PRECISION}\n")
    with pytest.raises(SystemExit) as info:
        main(["eisenstein", "--help"])
    assert info.value.code == 0
    assert f"(3 to {cli.MAX_PRECISION}, default 30)" in capsys.readouterr().out


_CMD_EISENSTEIN = cli.cmd_eisenstein


def _small_eisenstein(args):
    """cmd_eisenstein up to precision 60; past it only the bound in `main` is under test."""
    return _CMD_EISENSTEIN(args) if args.precision <= 60 else 0


# argv draws: a subcommand (or none known), then flags and tokens in any order
# and number: negative, zero, huge and non-numeric values, unknown and repeated
# flags.  Numbers stay small; the huge one lies past every bound.
_TOKENS = st.one_of(
    st.sampled_from(("--format", "--preset", "--precision", "--weight", "--divisor",
                     "--bogus", "-h")),
    st.integers(-3, 60).map(str),
    st.sampled_from(("text", "json", "paper", "alt-decomposition", "long", "short",
                     str(10 ** 21), "1e3", "x", "")))
_ARGV = st.builds(lambda command, rest: [command, *rest],
                  st.sampled_from((*cli._HANDLERS, "nope")), st.lists(_TOKENS, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ARGV)
@example(["eisenstein", "--precision", str(cli.MAX_PRECISION)])
@example(["eisenstein", "--precision", str(cli.MAX_PRECISION + 1)])
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(cli._HANDLERS, eisenstein=_small_eisenstein):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("usage: triform")


SHARED_STAGES = [
    (weil, "build_weil", 1), (weil, "special_vectors", 1), (weil, "isotypic_subspace", 1),
    (fqm, "paper_module", 1), (vvmf, "dimension_report", 1),
    (borcherds, "accounting_report", 1), (cli, "obstruction_eisenstein", 1),
    (cli, "eta_power_8", 1), (lattice, "discriminant_form", 2),
]


def _stage_id(module, name):
    return f"{module.__name__.rpartition('.')[2]}.{name}"


@pytest.mark.parametrize("module,name,runs", SHARED_STAGES,
                         ids=[_stage_id(m, name) for m, name, _ in SHARED_STAGES])
def test_gauntlet_builds_the_weil_representation_once(monkeypatch, module, name, runs):
    # the stages that several checks read run once per gauntlet; the lattice
    # line builds the discriminant forms of the two presets
    calls = []
    stage = getattr(module, name)

    def counting_stage(*args):
        calls.append(args)
        return stage(*args)

    monkeypatch.setattr(module, name, counting_stage)
    assert all(c.status == "pass" for c in run_checks())
    assert len(calls) == runs


def test_failed_aggregated_dual_fails_the_obstruction_field(monkeypatch):
    def broken_dual(rep):
        raise DualMismatchError("injected mismatch")

    monkeypatch.setattr(weil, "aggregated_dual", broken_dual)
    checks = {c.name: c for c in run_checks()}
    assert len(checks) == 14
    failed = {name for name, c in checks.items() if c.status == "fail"}
    assert failed == {"aggregated-dual", "dimension-report", "borcherds-weights"}
    assert checks["aggregated-dual"].actual == "injected mismatch"
    assert checks["borcherds-weights"].actual == "skipped: aggregated_dual failed"


def test_a_failing_cayley_check_fails_only_the_weil_traces_line(monkeypatch, capsys):
    def failing_cayley_check(rep):
        raise weil.RelationError("rho(S) rho(T) disagrees with the product element")

    monkeypatch.setattr(weil, "cayley_check", failing_cayley_check)
    checks = run_checks()
    assert len(checks) == 14
    assert [c.name for c in checks if c.status == "fail"] == ["weil-traces"]
    assert next(c for c in checks if c.name == "weil-traces").actual == (
        "rho(S) rho(T) disagrees with the product element")
    code, out, err = run(capsys, "verify-all")
    assert code == 1
    assert out.endswith("14 checks: 13 passed, 1 failed\n") and err == ""


ALL_CHECKS = {"type-census", "pairing-table", "weil-traces", "aggregated-dual",
              "dimension-report", "eisenstein-normalization", "borcherds-weights",
              "orthogonal-group", "orthogonal-bases", "special-vectors", "lift-witness",
              "lattice-layer", "numeric-transform", "accounting"}
WEIL_READERS = {"weil-traces", "special-vectors", "numeric-transform"}
MODULE_READERS = {"type-census", "pairing-table", "orthogonal-group", "lattice-layer"}

# (module, stage, error, the lines that read the stage, the lines built on it)
FAILED_STAGES = [
    (fqm, "paper_module", ZeroDivisionError("injected division by zero"), MODULE_READERS,
     ALL_CHECKS - MODULE_READERS - {"eisenstein-normalization"}),
    (weil, "build_weil", weil.RelationError("injected relation failure"), WEIL_READERS,
     {"aggregated-dual", "dimension-report", "borcherds-weights", "lift-witness"}),
    (weil, "cayley_check", weil.RelationError("injected product failure"), {"weil-traces"},
     set()),
    (weil, "aggregated_dual", DualMismatchError("injected mismatch"), {"aggregated-dual"},
     {"dimension-report", "borcherds-weights"}),
    (vvmf, "dimension_report", vvmf.DimensionError("injected dimension failure"),
     {"dimension-report", "borcherds-weights"}, set()),
    (cli, "obstruction_eisenstein", OverflowError("injected overflow"),
     {"eisenstein-normalization", "borcherds-weights"}, {"orthogonal-bases", "accounting"}),
    (borcherds, "accounting_report", borcherds.AccountingError("injected accounting", {}),
     {"orthogonal-bases", "accounting"}, set()),
    (fqm, "orthogonal_group", ValueError("injected group failure"), {"orthogonal-group"},
     set()),
    (weil, "isotypic_subspace", weil.RankError("injected rank failure"), {"special-vectors"},
     {"lift-witness"}),
    (weil, "special_vectors", fqm.BasisError("injected basis failure"),
     {"special-vectors", "lift-witness", "numeric-transform"}, set()),
    (lattice, "discriminant_form", lattice.LatticeError("injected lattice failure"),
     {"lattice-layer"}, set()),
    (cli, "eta_power_8", ArithmeticError("injected eta failure"), {"numeric-transform"},
     set()),
]


@pytest.mark.parametrize("module,name,error,readers,built_on", FAILED_STAGES,
                         ids=[_stage_id(m, name) for m, name, *_ in FAILED_STAGES])
def test_a_failed_stage_fails_its_readers_and_skips_what_is_built_on_it(
        monkeypatch, capsys, module, name, error, readers, built_on):
    def failing_stage(*args):
        raise error

    monkeypatch.setattr(module, name, failing_stage)
    code, out, err = run(capsys, "verify-all", "--format", "json")
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert set(checks) == ALL_CHECKS
    assert {n for n, c in checks.items() if c["actual"] == str(error)} == readers
    assert {n for n, c in checks.items()
            if c["actual"] == f"skipped: {name} failed"} == built_on
    assert {n for n, c in checks.items() if c["status"] == "pass"} == (
        ALL_CHECKS - readers - built_on)
    code, out, err = run(capsys, "verify-all")
    failed = len(readers | built_on)
    assert code == 1 and err == "" and "Traceback" not in out
    assert out.endswith(f"14 checks: {14 - failed} passed, {failed} failed\n")


@pytest.mark.parametrize("error", [
    OverflowError("injected overflow"),
    borcherds.AccountingError("injected accounting failure", {}),
    weil.RelationError("injected relation failure"),
])
def test_arithmetic_errors_exit_1_without_a_traceback(monkeypatch, capsys, error):
    def failing_stage(rep):
        raise error

    monkeypatch.setattr(weil, "cayley_check", failing_stage)
    code, out, err = run(capsys, "weil")
    assert code == 1
    assert out == ""
    assert err == f"error: {error}\n"


def _corrupt_output(monkeypatch, module, name, corrupt):
    """Make the stage `module.<name>` return a corrupted copy of its result.

    `run_checks` imports each stage when it runs, so a patch where the stage
    is defined reaches it; the qseries stages are `cli` globals.
    """
    stage = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: corrupt(stage(*args, **kwargs)))


def _corrupt_borcherds_weight(monkeypatch, corrupt):
    """`_corrupt_output` for `borcherds.borcherds_weight`, which
    `accounting_report` reads through the same module global and would raise
    on: the report keeps the true weights, so only the line that reads the
    weights directly sees the corruption."""
    weight, report = borcherds.borcherds_weight, borcherds.accounting_report
    _corrupt_output(monkeypatch, borcherds, "borcherds_weight", corrupt)
    corrupted = borcherds.borcherds_weight

    def report_on_true_weights(*args):
        borcherds.borcherds_weight = weight
        try:
            return report(*args)
        finally:
            borcherds.borcherds_weight = corrupted

    monkeypatch.setattr(borcherds, "accounting_report", report_on_true_weights)


@pytest.mark.parametrize("module,stage,corrupt,check,actual", [
    (fqm, "expand_patterns", lambda elements: elements - {(1, 0, 0, 0)},
     "type-census", "00=1 0=20 1=30 2=30 patterns=differ"),
    (fqm, "pairing_table", lambda table: {**table, ("1", "2"): (6, 13, 11)},
     "pairing-table", "1 triples differ"),
    (fqm, "orthogonal_group", lambda group: group._replace(perm=group.perm[:-1]),
     "orthogonal-group", "order=1439 orbits=(20, 30, 30) central=-1 reflections=30"),
    (borcherds, "accounting_report",
     lambda report: report._replace(short_incidence=2),
     "orthogonal-bases", "bases=15 incidence=2 isotropic=covered cusps=10"),
    (weil, "character_decompose", lambda dec: dec._replace(
        multiplicities=dec.multiplicities[:-1] + (4,)),
     "weil-traces", "traces=(81, 1, 1, -9, 1, 1, -9) mult=(1, 10, 5, 5, 5, 10, 4) closed=576"),
    (vvmf, "dimension_report",
     lambda report: report._replace(alpha_t=report.alpha_t + 1),
     "dimension-report", "d=4 alpha=(1, 4/3, 2) dim=2 eis=2 cusp=0"),
    (cli, "eta_power_8", lambda eta8: QSeries(
        {**eta8.coeffs, 7: eta8.coeff_at(7) + 1}, eta8.precision),
     "numeric-transform", "max deviation 3.946e-06"),
    (borcherds, "borcherds_weight", lambda weight: weight + 1,
     "borcherds-weights", "long=136 ball=136/3 short=16 ball=16/3 obstruction=ok"),
    (weil, "special_vector_rank", lambda rank: rank - 1,
     "special-vectors", "count=15 checks=ok rank=4 norm=1"),
    (borcherds, "lift_witness", lambda witness: (witness[0], 0),
     "lift-witness", "all=broken standard=1111->0"),
    (lattice, "milgram_signature", lambda signature: (signature + 1) % 8, "lattice-layer",
     "trireflection=identity reflection=F3-reflection histograms=equal milgram=(5, 5)"),
    (borcherds, "accounting_report",
     lambda report: report._replace(short_multiplicity=8),
     "accounting", "45 + 8 * 5 = 90 = 6 * 15 multiplicity=broken"),
], ids=["type-census", "pairing-table", "orthogonal-group", "orthogonal-bases",
        "weil-traces", "dimension-report", "numeric-transform", "borcherds-weights",
        "special-vectors", "lift-witness", "lattice-layer", "accounting"])
def test_one_perturbation_fails_exactly_one_module_check(monkeypatch, module, stage,
                                                         corrupt, check, actual):
    if stage == "borcherds_weight":
        _corrupt_borcherds_weight(monkeypatch, corrupt)
    else:
        _corrupt_output(monkeypatch, module, stage, corrupt)
    checks = run_checks()
    assert [c.name for c in checks if c.status == "fail"] == [check]
    assert next(c for c in checks if c.name == check).actual == actual


def test_a_failing_accounting_report_fails_its_two_lines(monkeypatch, capsys):
    # unlike _corrupt_borcherds_weight, accounting_report reads the wrong
    # weights too and raises AccountingError; the other twelve lines still run
    weight = borcherds.borcherds_weight
    monkeypatch.setattr(borcherds, "borcherds_weight", lambda *args: weight(*args) + 1)
    checks = run_checks()
    assert len(checks) == 14
    assert [c.name for c in checks if c.status == "fail"] == [
        "borcherds-weights", "orthogonal-bases", "accounting"]
    error = "per-basis weight 280/3 is not 6 x 15"
    assert next(c for c in checks if c.name == "orthogonal-bases").actual == error
    assert next(c for c in checks if c.name == "accounting").actual == error
    code, out, err = run(capsys, "verify-all")
    assert code == 1
    assert out.endswith("14 checks: 11 passed, 3 failed\n") and err == ""


def _bump_f00_at_q2(form):
    f00 = form.component("00")
    bumped = QSeries({**f00.coeffs, 6: f00.coeff_at(6) + 1}, f00.precision)
    return form._replace(components={**form.components, "00": bumped})


def test_a_perturbed_f00_coefficient_fails_the_lattice_sum_oracle(monkeypatch):
    # +1 at q^(6/3) moves f_00(1.3i) by a relative 1.6e-7: within the former
    # 1e-6 threshold, far outside the 1e-10 one; no other line reads f_00
    _corrupt_output(monkeypatch, cli, "obstruction_eisenstein", _bump_f00_at_q2)
    checks = run_checks()
    assert [c.name for c in checks if c.status == "fail"] == ["eisenstein-normalization"]
    assert next(c for c in checks if c.name == "eisenstein-normalization").actual == (
        "const=-1/2 f_0=270 q f_1=135 q^(2/3) f_2=15 q^(1/3) f_00_q=15 "
        "oracle=relative deviation 1.622e-07")


def _verify_all_fails(capsys, failed):
    """verify-all prints its 14 lines and the summary, exits 1 and writes no
    stderr, with exactly the checks `failed` failing; returns the lines by name."""
    code, out, err = run(capsys, "verify-all")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == 15 and lines[-1] == f"14 checks: {14 - len(failed)} passed, " \
        f"{len(failed)} failed"
    assert [line[7:].partition(":")[0] for line in lines if line.startswith("[FAIL]")] == failed
    return {line[7:].partition(":")[0]: line for line in lines[:-1]}


def test_an_empty_f_1_reads_0_and_fails_four_lines_without_a_traceback(monkeypatch, capsys):
    _corrupt_output(monkeypatch, cli, "obstruction_eisenstein", lambda form: form._replace(
        components={**form.components, "1": QSeries({}, 60)}))
    lines = _verify_all_fails(capsys, ["eisenstein-normalization", "borcherds-weights",
                                       "orthogonal-bases", "accounting"])
    assert "got const=-1/2 f_0=270 q f_1=0 f_2=15 q^(1/3) f_00_q=15 oracle=ok (" \
        in lines["eisenstein-normalization"]


def test_no_sign_vector_on_the_basis_1000_fails_three_lines_without_a_traceback(
        monkeypatch, capsys):
    _corrupt_output(monkeypatch, weil, "special_vectors", lambda svs: tuple(
        sv for sv in svs if sv.basis.alpha0 != (1, 0, 0, 0)))
    lines = _verify_all_fails(capsys, ["special-vectors", "lift-witness", "numeric-transform"])
    for name in ("lift-witness", "numeric-transform"):
        assert "got no sign vector on the basis 1000 (" in lines[name]


def _wrong_class_sizes(monkeypatch):
    monkeypatch.setattr(weil, "CLASS_SIZES", (2, 2, 6, 4, 4, 4, 2))


def _wrong_character(monkeypatch):
    monkeypatch.setitem(weil.CHARACTER_TABLE, 2, weil.CHARACTER_TABLE[1])


@pytest.mark.parametrize("perturb,message", [
    (_wrong_class_sizes, "error: class E has size 1, expected 2\n"),
    (_wrong_character, "error: row orthogonality fails for (1, 2)\n"),
], ids=["build_sl2f3", "validate_character_table"])
def test_group_table_failures_exit_1_without_a_traceback(monkeypatch, capsys,
                                                          perturb, message):
    perturb(monkeypatch)
    code, out, err = run(capsys, "character")
    assert code == 1
    assert out == ""
    assert err == message


def test_a_cyclotomic_failure_exits_1_without_a_traceback(monkeypatch, capsys):
    def clear_caches():
        exact.cyclotomic_poly.cache_clear()
        exact._reduction_rows.cache_clear()

    monkeypatch.setattr(exact, "_poly_divmod_monic", lambda num, den: ([0], [1]))
    clear_caches()
    try:
        code, out, err = run(capsys, "eisenstein", "--precision", "3")
    finally:
        monkeypatch.undo()
        clear_caches()
    assert code == 1
    assert out == ""
    assert err.startswith("error: Phi_1 does not divide x^")


def test_module_entry_point_subprocess():
    # run from the directory holding the package under test, so `-m` finds
    # it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "triform.cli", "borcherds", "--divisor", "long",
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(cli.__file__).resolve().parent.parent)
    assert proc.returncode == 0
    assert proc.stdout == '{"weight_on_D":"135","weight_on_ball":"45","obstruction_ok":true}\n'


@pytest.mark.parametrize("argv,unloaded", [
    (["eisenstein", "--format", "json", "--precision", "30"],
     {"triform.fqm", "triform.lattice", "triform.weil", "triform.vvmf",
      "triform.borcherds", "inspect"}),
    (["weil"], {"triform.lattice", "triform.vvmf", "triform.borcherds"}),
    (["character"], {"triform.lattice", "triform.vvmf", "triform.borcherds"}),
    (["accounting"], {"triform.lattice", "triform.weil", "triform.vvmf"}),
    (["special-vectors"], {"triform.lattice", "triform.vvmf"}),
    (["dimension"], {"triform.lattice", "triform.weil", "triform.borcherds"}),
    (["verify-all"], {"json"}),
    (["classify"], {"triform.lattice", "triform.weil", "triform.vvmf", "triform.borcherds"}),
    (["classify", "--preset", "alt-decomposition"],
     {"triform.weil", "triform.vvmf", "triform.borcherds"}),
    (["pairing-table"], {"triform.lattice", "triform.weil", "triform.vvmf",
                         "triform.borcherds"}),
    (["pairing-table", "--preset", "alt-decomposition"],
     {"triform.weil", "triform.vvmf", "triform.borcherds"}),
    (["borcherds", "--divisor", "long"], {"triform.lattice", "triform.weil"}),
    (["borcherds", "--divisor", "short"], {"triform.lattice", "triform.weil"}),
], ids=["eisenstein", "weil", "character", "accounting", "special-vectors", "dimension",
        "verify-all", "classify", "classify-alt", "pairing-table", "pairing-table-alt",
        "borcherds-long", "borcherds-short"])
def test_a_command_imports_only_the_layers_it_reads(argv, unloaded):
    # -X importtime names on stderr every module the fresh process imports
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "triform.cli", *argv],
        capture_output=True, text=True, timeout=120,
        cwd=Path(cli.__file__).resolve().parent.parent)
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "triform.qseries" in imported
    # no command loads numpy or the dataclass machinery
    assert not imported & (unloaded | {"numpy", "dataclasses"})


GOLDEN = Path(__file__).resolve().parent / "golden"


def _entry(*argv, stdout=subprocess.PIPE, unbuffered=False):
    """A fresh `python -m triform.cli ARGV`, the path of the `triform` command.

    Its stdout is block-buffered, as by default, unless `unbuffered` is set.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "triform.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120, env=env,
                          cwd=Path(cli.__file__).resolve().parent.parent)


@pytest.mark.parametrize("fmt,golden", [("text", "verify-all.txt"), ("json", "verify-all.json")])
def test_the_entry_point_prints_the_golden_gauntlet(fmt, golden):
    proc = _entry("verify-all", "--format", fmt)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / golden).read_bytes()
    assert proc.stderr == b""


def test_the_entry_point_freezes_the_heap_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 3
    assert calls == ["main", "freeze"]


def test_the_entry_point_keeps_usage_errors_at_exit_2():
    proc = _entry("verify-all", "--precision", "600")
    assert proc.returncode == 2
    assert b"unrecognized arguments" in proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv,unbuffered", [
    (["verify-all"], False), (["verify-all"], True), (["eisenstein"], False),
], ids=["verify-all", "verify-all-unbuffered", "eisenstein"])
def test_a_full_stdout_exits_1_without_a_traceback(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _entry(*argv, stdout=full, unbuffered=unbuffered)
    assert proc.returncode == 1
    assert proc.stderr == (b"error: cannot write the output: "
                           b"[Errno 28] No space left on device\n")


def test_a_closed_stdout_pipe_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _entry("verify-all", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write the output: [Errno 32] Broken pipe\n"
