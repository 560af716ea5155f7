"""Benchmark of the triform CLI, measured from outside the package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gauntlet|series|commands|all \
        --seed N --seconds S --trace 0|1

Load is one client in a closed loop: one fresh ``python -m triform.cli``
process at a time, each started after the previous one exits, because users
pay import, O(q) enumeration and cyclotomic set-up on every call.  The seed
picks the argv sequence; the CLI only sees the argv.  A run lasts about S
seconds: it starts whole units of the sequence (see workload_units) while the
next one, predicted to take as long as the last, would end no more than half
a unit after S, so a faster commit holds more samples.  Set-up samples are
spread over the same S seconds.  Every output is checked (see Checker).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs each argv once traced (perfbench/tracer.py) and once untraced and
reports the per-layer metrics.  Human-readable lines come first, the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SERIES_GOLDEN = HERE / "series_golden.json"  # eisenstein json at precision 600
TRACER = HERE / "tracer.py"

LAYERS = ("exact", "lattice", "fqm", "weil", "vvmf", "qseries", "borcherds", "cli")

WORKLOADS = ("gauntlet", "series", "commands")

COMMAND_SHAPES = (
    ("classify",),
    ("pairing-table",),
    ("weil",),
    ("character",),
    ("dimension",),
    ("eisenstein",),
    ("borcherds", "--divisor", "long"),
    ("borcherds", "--divisor", "short"),
    ("special-vectors",),
    ("accounting",),
    ("verify-all",),
    ("classify", "--preset", "alt-decomposition"),
    ("pairing-table", "--preset", "alt-decomposition"),
)
SERIES_PRECISION = (150, 600)  # thirds, inclusive
SERIES_STRATA = 8  # precisions per block, one from each equal stratum
COMMANDS_PASSES = 3  # at most, per run; see workload_units
SETUP_SPAWNS = 12  # per run at most, one due every S / SETUP_SPAWNS seconds
IMPORT_SPAWNS = 5
SPAWN_TIMEOUT_S = 120  # keeps a run of a hung commit under 180 s

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("latency_s_p50", "s"),
    ("latency_s_tail", "s"),
    ("cpu_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)
SPAN_METRICS = (  # reported as "<span>_s"; inclusive seconds per invocation
    "lattice.discriminant_form", "lattice.milgram_signature",
    "fqm.orthogonal_group", "fqm.orthogonal_group_memo", "fqm.pairing_table",
    "fqm.orthogonal_bases",
    "weil.build_weil", "weil.cayley_check", "weil.character_decompose",
    "weil.isotypic_subspace", "weil.special_vectors",
    "vvmf.dimension_report",
    "qseries.obstruction_eisenstein", "qseries.eta_power_8",
    "qseries.numeric_transform_check",
    "borcherds.obstruction_check", "borcherds.accounting_report",
    "cli.lattice_sum",
)
COUNT_METRICS = {  # metric -> leaf or span whose calls it counts
    "exact.cycq_ops": "exact.cycq_op",
    "fqm.b_calls": "fqm.b",
    "weil.omegamat_matmuls": "weil.omegamat_matmul",
    "weil.build_weil_calls": "weil.build_weil",
}
PER_LAYER = (
    [(f"{s}_s", "s") for s in SPAN_METRICS]
    + [(c, "count") for c in COUNT_METRICS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.import_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s"), ("trace.uncovered_s", "s")]
)

# Frozen leading terms of `eisenstein --format json`: label -> (thirds, coeff).
SERIES_LEADING = {"00": ("0", "-1/2"), "0": ("3", "270"), "1": ("2", "135"),
                  "2": ("1", "15")}
SERIES_F00_Q = "15"
SERIES_COMBINATION = {"a": "-3/2", "b": "1/6"}
GAUNTLET_TAIL = "14 checks: 14 passed, 0 failed"


# ---------------------------------------------------------------------------
# inputs


def workload_blocks(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """The endless argv sequence of a run, in shuffled blocks that each hold
    the workload's whole mix; the same seed gives the same sequence."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "gauntlet":
            block = [["verify-all", "--format", f] for f in ("text", "json")]
        elif workload == "series":
            # one precision from each equal stratum, so every run spans the
            # whole range and its median barely depends on the seed
            lo, hi = SERIES_PRECISION
            width = (hi - lo + 1) / SERIES_STRATA
            block = [["eisenstein", "--format", "json", "--precision",
                      str(lo + int((k + rng.random()) * width))]
                     for k in range(SERIES_STRATA)]
        else:
            block = [list(s) for s in COMMAND_SHAPES]
        rng.shuffle(block)
        yield block


def workload_units(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """The units a run starts whole: a `commands` unit is one pass over all
    shapes, so a run never holds a partial mix; elsewhere one invocation.

    A `commands` run holds at most COMMANDS_PASSES passes (39 samples), so its
    tail is always the upper quartile (see tail) and falls among the same
    shapes; at four passes it would jump to a slower cluster of shapes."""
    blocks = workload_blocks(workload, seed)
    if workload == "commands":
        yield from itertools.islice(blocks, COMMANDS_PASSES)
        return
    for block in blocks:
        yield from ([argv] for argv in block)


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Checks each CLI output; one instance per run, since series outputs are
    also checked against each other."""

    def __init__(self, golden: dict[str, str], series_golden: dict):
        self.golden = golden
        self.series_golden = series_golden  # a high-precision seed-commit output
        self.series_ref: tuple[int, dict] | None = None  # highest precision seen

    def check(self, argv: list[str], rc: int, stdout: str) -> str | None:
        """None if the output is right, else why it is wrong."""
        if rc != 0:
            return f"exit code {rc}"
        if argv[0] == "eisenstein" and "--precision" in argv:
            return self._series(int(argv[argv.index("--precision") + 1]), stdout)
        if argv[0] == "verify-all" and not _gauntlet_passed(argv, stdout):
            return "verify-all did not pass all 14 checks"
        want = self.golden.get(" ".join(argv))
        if want is None:
            return "no golden digest for this argv"
        if hashlib.sha256(stdout.encode()).hexdigest() != want:
            return "output differs from its golden digest"
        return None

    def _series(self, precision: int, stdout: str) -> str | None:
        try:
            data = json.loads(stdout)
            comps = data["components"]
            if data["precision"] != precision:
                return f"precision {data['precision']}, asked {precision}"
            if data["combination"] != SERIES_COMBINATION:
                return f"combination {data['combination']}"
            for label, (n, coeff) in SERIES_LEADING.items():
                first = min(comps[label], key=int)
                if (first, comps[label][first]) != (n, coeff):
                    return f"f_{label} leads with {comps[label][first]} at {first}"
            if comps["00"].get("3") != SERIES_F00_Q:
                return f"f_00 q-coefficient {comps['00'].get('3')}"
            if set(comps) != set(SERIES_LEADING):
                return f"components {sorted(comps)}"
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed series output: {e!r}"
        gold_p, gold = self.series_golden["precision"], self.series_golden["components"]
        if precision > gold_p:
            return f"no reference beyond precision {gold_p}"
        for label in SERIES_LEADING:
            if comps[label] != {n: c for n, c in gold[label].items() if int(n) <= precision}:
                return f"f_{label} at precision {precision} differs from the reference"
        if self.series_ref is not None:
            ref_p, ref = self.series_ref
            upto = min(precision, ref_p)
            for label in SERIES_LEADING:
                mine = {n: c for n, c in comps[label].items() if int(n) <= upto}
                theirs = {n: c for n, c in ref[label].items() if int(n) <= upto}
                if mine != theirs:
                    return (f"f_{label} at precision {precision} disagrees with "
                            f"precision {ref_p}")
        if self.series_ref is None or precision > self.series_ref[0]:
            self.series_ref = (precision, comps)
        return None


def _gauntlet_passed(argv: list[str], stdout: str) -> bool:
    if "json" in argv:
        try:
            data = json.loads(stdout)
        except ValueError:
            return False
        return data.get("passed") == 14 and data.get("failed") == 0
    lines = stdout.rstrip("\n").splitlines()
    return bool(lines) and lines[-1] == GAUNTLET_TAIL


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def load_series_golden() -> dict:
    return json.loads(SERIES_GOLDEN.read_text())


def new_checker() -> Checker:
    return Checker(load_golden(), load_series_golden())


# ---------------------------------------------------------------------------
# spawning


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def spawn(args: list[str]) -> Proc:
    """Run `python3 args...` to exit; wall time from spawn to exit, CPU and
    max RSS from the child's own rusage."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        killer = threading.Timer(SPAWN_TIMEOUT_S, p.kill)  # a hung child fails
        killer.start()
        try:
            err: list[bytes] = []
            reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
            reader.start()
            out = p.stdout.read()
            reader.join()
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, out.decode(), b"".join(err).decode(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


@dataclass
class Sample:
    argv: list[str]
    proc: Proc
    error: str | None
    trace: dict | None = None


def invoke(argv: list[str], checker: Checker) -> Sample:
    proc = spawn(["-m", "triform.cli", *argv])
    return Sample(argv, proc, checker.check(argv, proc.rc, proc.stdout))


def invoke_traced(argv: list[str], checker: Checker, run_id: str) -> Sample:
    proc = spawn([str(TRACER), run_id, "--", *argv])
    try:
        trace = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return Sample(argv, proc, f"tracer failed (exit {proc.rc}): "
                                  f"{proc.stderr.strip()[-300:]}")
    return Sample(argv, proc, checker.check(argv, trace["rc"], trace["stdout"]), trace)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> float:
    """The highest sample with at least ten samples above it, but never below
    the upper quartile, interpolated between samples (runs with fewer than 41
    samples report that quartile, which steadies a run of a few samples)."""
    s = sorted(values)
    n = len(s)
    pos = max(n - 11, 0.75 * (n - 1))
    lo = int(pos)
    return s[lo] + (pos - lo) * (s[min(lo + 1, n - 1)] - s[lo])


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_self_times(spans: list[list], leaves: dict[str, list]) -> dict[str, float]:
    """Per layer: each span's duration minus what its child spans and the
    leaves directly under it cover, plus the layer's own leaf time."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _, name, start, end, leaf_s in spans:
        inside = [(max(a, start), min(b, end)) for a, b in children[sid]]
        out[name.split(".")[0]] += end - start - _covered(inside) - leaf_s
    for name, (_, seconds) in leaves.items():
        out[name.split(".")[0]] += seconds
    return out


def uncovered(wall_s: float, spans: list[list]) -> float:
    """Wall time of a traced process that no root span covers."""
    return wall_s - _covered([(s[3], s[4]) for s in spans if s[1] is None])


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Per layer, from `-X importtime`: the module's cumulative import time
    minus that of the triform modules it imported, so third-party imports
    (numpy) count for the layer that first pulls them in."""
    nodes = []  # post-order: (depth, name, cumulative_us, children)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        kids = []
        while nodes and nodes[-1][0] > depth:
            kids.append(nodes.pop())
        nodes.append((depth, name.strip(), int(cum), kids))

    out = dict.fromkeys(LAYERS, 0.0)

    def nested_triform_us(kids) -> int:
        return sum(k[2] if k[1].startswith("triform.") else nested_triform_us(k[3])
                   for k in kids)

    def walk(node):
        _, name, cum, kids = node
        layer = name.removeprefix("triform.")
        if layer in out:
            out[layer] = (cum - nested_triform_us(kids)) / 1e6
        for k in kids:
            walk(k)

    for node in nodes:
        walk(node)
    return out


# ---------------------------------------------------------------------------
# runs


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)  # sample counts
    spans: list[tuple[float, str]] = field(default_factory=list)  # traced only

    def add_samples(self, samples: list[Sample]) -> None:
        self.attempted += len(samples)
        self.failed += sum(s.error is not None for s in samples)


def paced(units: Iterable[list[list[str]]], seconds: float) -> Iterator[list[str]]:
    """Yields the argvs of whole units, at least one unit, until the next
    unit, predicted to take as long as the last, would end more than half a
    unit after `seconds`; so a run lasts `seconds` on average, and a run of
    long units (a `commands` pass) does not stop well short of it."""
    end = time.perf_counter() + seconds
    last = 0.0
    for k, unit in enumerate(units):
        start = time.perf_counter()
        if k and start + last / 2 > end:
            return
        yield from unit
        last = time.perf_counter() - start


def import_spawns(k: int, *flags: str) -> list[Proc]:
    """k fresh interpreters that import triform.cli and exit."""
    procs = [spawn([*flags, "-c", "import triform.cli"]) for _ in range(k)]
    for p in procs:
        if p.rc != 0:
            raise RuntimeError(f"importing triform.cli failed: {p.stderr.strip()}")
    return procs


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple[Result, list[Sample]]:
    """Set-up samples are taken between invocations, up to SETUP_SPAWNS of
    them, one due every seconds / SETUP_SPAWNS, so they see the same host as
    the latencies."""
    res = Result()
    checker = new_checker()
    setups, samples = [], []
    start = time.perf_counter()
    for argv in paced(workload_units(workload, seed), seconds):
        elapsed = time.perf_counter() - start
        due = min(SETUP_SPAWNS, 1 + int(elapsed / seconds * SETUP_SPAWNS))
        setups.extend(p.wall_s for p in import_spawns(due - len(setups)))
        samples.append(invoke(argv, checker))
    res.add_samples(samples)
    walls = [s.proc.wall_s for s in samples]
    res.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_s_p50": (statistics.median(walls), "s"),
        "latency_s_tail": (tail(walls), "s"),
        "cpu_s_p50": (statistics.median(s.proc.cpu_s for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s.proc.rss_mb for s in samples), "MB"),
        "success_rate": (1 - res.failed / res.attempted, "ratio"),
    }
    res.counts = {"setup": len(setups), "invocations": len(samples)}
    if workload == "commands":
        res.counts["passes"] = len(samples) // len(COMMAND_SHAPES)
    return res, samples


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Result, list[Sample]]:
    res = Result()
    imports = [import_times(p.stderr)
               for p in import_spawns(IMPORT_SPAWNS, "-X", "importtime")]
    checker = new_checker()
    traced, plain = [], []
    for i, argv in enumerate(paced(workload_units(workload, seed), seconds)):
        traced.append(invoke_traced(argv, checker, f"{workload}-{seed}-{i}"))
        plain.append(invoke(argv, checker))
    res.add_samples(traced + plain)

    good = [s for s in traced if s.trace is not None]
    n = max(1, len(good))
    span_s, calls = defaultdict(float), defaultdict(int)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in good:
        for _, _, name, start, end, _ in s.trace["spans"]:
            span_s[name] += end - start
            calls[name] += 1
        for name, (count, _) in s.trace["leaves"].items():
            calls[name] += count
        for layer, v in layer_self_times(s.trace["spans"], s.trace["leaves"]).items():
            self_s[layer] += v

    m = {f"{name}_s": (span_s[name] / n, "s") for name in SPAN_METRICS}
    m.update({metric: (calls[src] / n, "count") for metric, src in COUNT_METRICS.items()})
    m.update({f"{layer}.self_s": (self_s[layer] / n, "s") for layer in LAYERS})
    m.update({f"{layer}.import_s": (statistics.median(t[layer] for t in imports), "s")
              for layer in LAYERS})
    m["trace.overhead_s"] = (statistics.median(
        t.proc.wall_s - p.proc.wall_s for t, p in zip(traced, plain)), "s")
    m["trace.uncovered_s"] = (statistics.fmean(
        uncovered(s.proc.wall_s, s.trace["spans"]) for s in good) if good else 0.0, "s")
    res.metrics = m
    res.counts = {"import": len(imports), "traced": len(traced),
                  "untraced": len(plain)}
    res.spans = sorted(((v / n, k) for k, v in span_s.items()), reverse=True)
    return res, traced + plain


# ---------------------------------------------------------------------------
# reporting


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commit = None  # a checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sources = sorted((SRC / "triform").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in blas},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    print("context " + json.dumps(context(workload, seed, seconds, trace)), flush=True)
    res, samples = (run_traced if trace else run_end_to_end)(workload, seed, seconds)
    for s in samples:
        status = "ok" if s.error is None else f"FAIL {s.error}"
        print(f"{workload} invocation wall={s.proc.wall_s:.4f}s cpu={s.proc.cpu_s:.4f}s "
              f"rss={s.proc.rss_mb:.1f}MB {'traced ' if s.trace else ''}"
              f"[{' '.join(s.argv)}] {status}")
    print(f"{workload} samples " + json.dumps(res.counts))
    print(f"{workload} error_rate = {res.failed / res.attempted:.6g} "
          f"({res.failed} of {res.attempted})")
    if trace:
        print(f"{workload} largest spans (inclusive s per invocation):")
        for seconds_, name in [sp for sp in res.spans if sp[0] > 0][:12]:
            print(f"  {name:36s} {seconds_:.4f}")
    for name, (value, unit) in res.metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}", flush=True)
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "triform" / "cli.py").is_file():
        print(f"error: no triform sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Result()
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace))
        total.attempted += res.attempted
        total.failed += res.failed
        prefix = f"{w}." if args.workload == "all" else ""
        total.metrics.update({prefix + k: v for k, v in res.metrics.items()})
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in total.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
