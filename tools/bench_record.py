"""Record BENCH_<n>.json files: benchmark results of one or more checkouts.

Usage (from the root of a checkout):

    python3 tools/bench_record.py \
        --side PARENT_DIR:BENCH_0.json:"parent" --side .:BENCH_6.json:"change"

Each --side names a checkout, the file to write and a label.  The workload
timings come from that checkout's own perfbench/run.py at its default run
length: for each workload, run i (of RUNS) of every side uses seed i, and
the sides alternate which goes first, so they are measured in pairs under
the same host load.  A precision sweep follows, in the same alternating
pairs: SWEEP_RUNS (9) fresh `triform eisenstein --format json --precision P`
per P in SWEEP_PRECISIONS, and as many fresh runs of each argv in the
COMMAND_SHAPES of the checkout's own perfbench/run.py, enough for the
per-shape medians to resolve a change to one command.  Then each side gets
one traced gauntlet run, one timed tier-1 test run, and one count of the
Python calls of `verify-all` run in-process in a fresh interpreter
(PYTHONHASHSEED=1, `sys.setprofile`): all of them, those into
fractions.py, those of weil._fourier and those of the CycQ arithmetic
methods, counts that host load does not move.  A file holds the
context line run.py prints (commit, source digest and line count, Python
and numpy versions, CPU count), per workload the median and quartiles of
each end-to-end metric with every run's values, per sweep precision and per
command shape the median wall time with every run's and the sha256 of the
output, the traced per-layer metrics, the tier-1 wall time and summary, and
the four call counts.
Its `checkout` field is `git describe --always --dirty` of the side's
directory, or null outside git: the context line's `commit` is HEAD, which a
side recorded before its own commit shares with its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import runpy
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("gauntlet", "series", "commands")
RUNS = 10  # alternating pairs per workload
SWEEP_PRECISIONS = (30, 300, 3000)  # thirds
SWEEP_RUNS = 9  # alternating pairs per precision and per command shape
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
COUNT_CALLS = """
import contextlib, io, sys
from triform import cli
counts = [0, 0, 0, 0]
# the CycQ arithmetic of the tracer's exact.cycq_op leaf (__radd__ and __rmul__
# run the code of __add__ and __mul__)
cycq_ops = {"__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "invert"}
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        counts[0] += 1
        counts[1] += code.co_filename.endswith("fractions.py")
        counts[2] += code.co_name == "_fourier" and code.co_filename.endswith("weil.py")
        counts[3] += code.co_name in cycq_ops and code.co_filename.endswith("exact.py")
with contextlib.redirect_stdout(io.StringIO()):
    sys.setprofile(profile)
    rc = cli.main(["verify-all"])
    sys.setprofile(None)
print(*counts)
sys.exit(rc)
"""


def bench(checkout: Path, *args: str) -> tuple[dict, dict]:
    """One perfbench/run.py run: its context line and its last (JSON) line."""
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                         text=True, capture_output=True, check=True).stdout.splitlines()
    context = next(json.loads(line.removeprefix("context "))
                   for line in out if line.startswith("context "))
    return context, json.loads(out[-1])


def describe(checkout: Path) -> str | None:
    """`git describe --always --dirty` of a checkout, None outside git."""
    try:
        return subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              text=True, capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cli_run(checkout: Path, argv: list[str]) -> tuple[float, str]:
    """Wall time and stdout sha256 of one fresh `triform ARGV` run."""
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "triform.cli", *argv], cwd=checkout, env=env,
                         capture_output=True, check=True).stdout
    return time.perf_counter() - start, hashlib.sha256(out).hexdigest()


def timed(side: dict, section: str, key: str, argv: list[str]) -> None:
    """One cli_run of `argv` on `side`, added to record[section][key].

    Every run's output must have the sha256 of the first run of that key;
    a difference stops the recording with both digests.
    """
    wall, digest = cli_run(side["checkout"], argv)
    entry = side["record"].setdefault(section, {}).setdefault(
        key, {"runs_s": [], "output_sha256": digest})
    if digest != entry["output_sha256"]:
        raise SystemExit(f"triform {' '.join(argv)} on {side['record']['label']}: output "
                         f"sha256 {digest} differs from the first run's {entry['output_sha256']}")
    entry["runs_s"].append(round(wall, 4))
    entry["median_s"] = round(statistics.median(entry["runs_s"]), 4)
    print(f"{key} {side['record']['label']}: {wall:.4f} s", file=sys.stderr, flush=True)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, text=True, capture_output=True)
    wall = time.perf_counter() - start
    return {"wall_s": round(wall, 2), "summary": proc.stdout.strip().splitlines()[-1]}


def call_counts(checkout: Path) -> dict:
    """Python calls of one in-process `verify-all` in a fresh interpreter:
    all of them, those into fractions.py, those of the Weil layer's
    Fourier transform, weil._fourier, and those of CycQ arithmetic."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": "1"}
    out = subprocess.run([sys.executable, "-c", COUNT_CALLS], cwd=checkout, env=env,
                         text=True, capture_output=True, check=True).stdout.split()
    return {"python_calls": int(out[0]), "fractions_calls": int(out[1]),
            "fourier_calls": int(out[2]), "cycq_calls": int(out[3])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="CHECKOUT:OUTPUT.json:LABEL")
    args = parser.parse_args(argv)
    sides = []
    for spec in args.side:
        checkout, out, label = spec.split(":", 2)
        path = Path(checkout).resolve()
        sides.append({"checkout": path, "out": Path(out),
                      "record": {"label": label, "checkout": describe(path), "workloads": {}}})

    for workload in WORKLOADS:
        for i in range(RUNS):
            for side in sides if i % 2 == 0 else sides[::-1]:
                context, result = bench(side["checkout"], "--workload", workload,
                                        "--seed", str(i), "--trace", "0")
                runs = side["record"]["workloads"].setdefault(workload, {"runs": []})["runs"]
                runs.append({"seed": i, "attempted": result["attempted"],
                             "failed": result["failed"],
                             **{k: v["value"] for k, v in result["metrics"].items()}})
                side["record"]["context"] = {k: context[k] for k in (
                    "commit", "src_sha256", "src_lines", "python", "numpy", "nproc",
                    "cpu_count")}
                print(f"{workload} seed {i} {side['record']['label']}: latency_s_p50 "
                      f"{runs[-1]['latency_s_p50']:.4f}", file=sys.stderr, flush=True)

    for precision in SWEEP_PRECISIONS:
        for i in range(SWEEP_RUNS):
            for side in sides if i % 2 == 0 else sides[::-1]:
                timed(side, "precision_sweep", str(precision),
                      ["eisenstein", "--format", "json", "--precision", str(precision)])

    for side in sides:
        run_py = runpy.run_path(str(side["checkout"] / "perfbench" / "run.py"))
        side["shapes"] = [list(shape) for shape in run_py["COMMAND_SHAPES"]]
    for k in range(max(len(side["shapes"]) for side in sides)):
        for i in range(SWEEP_RUNS):
            for side in sides if i % 2 == 0 else sides[::-1]:
                if k < len(side["shapes"]):
                    timed(side, "command_shapes", " ".join(side["shapes"][k]),
                          side["shapes"][k])

    for side in sides:
        record = side["record"]
        for entry in record["workloads"].values():
            metrics = [k for k in entry["runs"][0] if k not in ("seed", "attempted", "failed")]
            entry["end_to_end"] = {k: summary([r[k] for r in entry["runs"]]) for k in metrics}
        _, traced = bench(side["checkout"], "--workload", "gauntlet", "--seed", "0",
                          "--trace", "1")
        record["traced_gauntlet"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["tier1"] = tier1(side["checkout"])
        record["verify_all_calls"] = call_counts(side["checkout"])
        side["out"].write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
