"""Record BENCH_<n>.json files: benchmark results of one or more checkouts.

Usage (from the root of a checkout):

    python3 tools/bench_record.py \
        --side PARENT_DIR:BENCH_0.json:"parent" --side .:BENCH_6.json:"change"

Each --side names a checkout, the file to write and a label.  The workload
timings come from that checkout's own perfbench/run.py at its default run
length: for each workload, run i (of RUNS) of every side uses seed i, and
the sides alternate which goes first, so they are measured in pairs under
the same host load.  A precision sweep follows, in the same alternating
pairs: SWEEP_RUNS fresh `triform eisenstein --format json --precision P`
per P in SWEEP_PRECISIONS.  Then each side gets one traced gauntlet run and
one timed tier-1 test run.  A file holds the context line run.py prints
(commit, source digest and line count, Python and numpy versions, CPU
count), per workload the median and quartiles of each end-to-end metric
with every run's values, per sweep precision the median wall time with
every run's and the sha256 of the output, the traced per-layer metrics,
and the tier-1 wall time and summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("gauntlet", "series", "commands")
RUNS = 10  # alternating pairs per workload
SWEEP_PRECISIONS = (30, 300, 3000)  # thirds
SWEEP_RUNS = 3  # alternating pairs per precision
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def bench(checkout: Path, *args: str) -> tuple[dict, dict]:
    """One perfbench/run.py run: its context line and its last (JSON) line."""
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                         text=True, capture_output=True, check=True).stdout.splitlines()
    context = next(json.loads(line.removeprefix("context "))
                   for line in out if line.startswith("context "))
    return context, json.loads(out[-1])


def eisenstein_run(checkout: Path, precision: int) -> tuple[float, str]:
    """Wall time and output sha256 of one fresh `eisenstein` JSON run."""
    argv = [sys.executable, "-m", "triform.cli", "eisenstein", "--format", "json",
            "--precision", str(precision)]
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, check=True).stdout
    return time.perf_counter() - start, hashlib.sha256(out).hexdigest()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, text=True, capture_output=True)
    wall = time.perf_counter() - start
    return {"wall_s": round(wall, 2), "summary": proc.stdout.strip().splitlines()[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        help="CHECKOUT:OUTPUT.json:LABEL")
    args = parser.parse_args(argv)
    sides = []
    for spec in args.side:
        checkout, out, label = spec.split(":", 2)
        sides.append({"checkout": Path(checkout).resolve(), "out": Path(out),
                      "record": {"label": label, "workloads": {}}})

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
                wall, digest = eisenstein_run(side["checkout"], precision)
                entry = side["record"].setdefault("precision_sweep", {}).setdefault(
                    str(precision), {"runs_s": [], "output_sha256": digest})
                entry["runs_s"].append(round(wall, 4))
                entry["median_s"] = round(statistics.median(entry["runs_s"]), 4)
                print(f"eisenstein --precision {precision} {side['record']['label']}: "
                      f"{wall:.4f} s", file=sys.stderr, flush=True)

    for side in sides:
        record = side["record"]
        for entry in record["workloads"].values():
            metrics = [k for k in entry["runs"][0] if k not in ("seed", "attempted", "failed")]
            entry["end_to_end"] = {k: summary([r[k] for r in entry["runs"]]) for k in metrics}
        _, traced = bench(side["checkout"], "--workload", "gauntlet", "--seed", "0",
                          "--trace", "1")
        record["traced_gauntlet"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["tier1"] = tier1(side["checkout"])
        side["out"].write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
