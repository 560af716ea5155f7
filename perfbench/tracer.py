"""Run one `triform` CLI invocation in this process with every layer traced.

Usage: python3 perfbench/tracer.py RUN_ID -- CLI_ARGV...

The package is imported from ../src, then each stage function in STAGES is
wrapped where it is defined and wherever another triform module bound it by
name (``from .weil import build_weil`` makes a second reference that a
patch of ``weil.build_weil`` alone would miss).  Hot methods in LEAVES are
counted, and their time is summed rather than kept span by span.  Spans stay
in memory; when ``cli.main`` returns, one JSON object goes to stdout:

    {"run_id", "rc", "stdout", "stderr", "spans", "leaves"}

with each span as [id, parent_id, name, start_s, end_s, leaf_s], where
leaf_s is the leaf time spent directly under that span, and each leaf as
name -> [calls, seconds].  ``stdout`` is what the CLI printed, so the
caller can check it against the same goldens as an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Stage functions per layer.  Each becomes a span named "<layer>.<function>".
STAGES = {
    "exact": ("mat_mul", "mat_pow", "mat_rank", "mat_nullspace", "mat_solve",
              "mat_inverse", "phase_multiplicities"),
    "lattice": ("discriminant_form", "milgram_signature", "trireflection",
                "reflection_minus_one"),
    "fqm": ("paper_module", "classify", "pairing_table", "orthogonal_group",
            "orthogonal_bases", "involutive_reflections", "isotropic_incidence",
            "reflect"),
    "weil": ("build_weil", "cayley_check", "character_decompose",
             "aggregated_dual", "isotypic_subspace", "special_vectors",
             "verify_special", "special_vector_rank", "o_q_character_norm"),
    "vvmf": ("dimension_report",),
    "qseries": ("obstruction_eisenstein", "eisenstein_g4", "eta_power_8",
                "numeric_transform_check", "evaluate"),
    "borcherds": ("borcherds_weight", "ball_weight", "obstruction_check",
                  "accounting_report", "lift_witness"),
    "cli": ("run_checks", "_lattice_sum"),
}

# Methods too hot for a span each: (layer, class, leaf name, method names).
# A leaf called inside another leaf is counted but not timed again, so
# CycQ subtraction (sub -> neg + add) counts three operations and its time once.
LEAVES = (
    ("exact", "CycQ", "exact.cycq_op",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
      "__neg__", "invert")),
    ("fqm", "QuadraticModule", "fqm.b", ("b",)),
    ("weil", "OmegaMat", "weil.omegamat_matmul", ("__matmul__",)),
)


class Tracer:
    """Span stack and leaf totals of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaves: dict[str, list] = {}
        self.in_leaf = False

    def span(self, name, fn, name_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            record = [len(self.spans), parent,
                      name_of(*args) if name_of else name, time.perf_counter(), None, 0.0]
            self.spans.append(record)
            self.stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def leaf(self, name, fn):
        totals = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[0] += 1
            if self.in_leaf:
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self.in_leaf = False
                totals[1] += spent
                if self.stack:
                    self.stack[-1][5] += spent
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap STAGES and LEAVES in every loaded triform module."""
    modules = {layer: importlib.import_module(f"triform.{layer}") for layer in STAGES}
    fqm = modules["fqm"]

    def orthogonal_group_name(module, *_):
        hit = module in fqm._GROUP_MEMO
        return "fqm.orthogonal_group_memo" if hit else "fqm.orthogonal_group"

    wrapped = {}  # id(original) -> wrapper
    for layer, names in STAGES.items():
        for fname in names:
            orig = getattr(modules[layer], fname)
            name_of = orthogonal_group_name if orig is fqm.orthogonal_group else None
            wrapped[id(orig)] = tracer.span(f"{layer}.{fname.lstrip('_')}", orig, name_of)
    cli = modules["cli"]
    for command, handler in cli._HANDLERS.items():
        wrapped[id(handler)] = cli._HANDLERS[command] = tracer.span(
            f"cli.{handler.__name__}", handler)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])

    for layer, cls_name, leaf_name, methods in LEAVES:
        cls = getattr(modules[layer], cls_name)
        for method in methods:
            setattr(cls, method, tracer.leaf(leaf_name, vars(cls)[method]))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py RUN_ID -- CLI_ARGV...", file=sys.stderr)
        return 2
    run_id, cli_argv = argv[0], argv[2:]
    sys.path.insert(0, str(SRC))
    import triform.cli

    if Path(triform.cli.__file__).resolve().parent != SRC / "triform":
        print(f"triform imported from {triform.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = triform.cli.main(cli_argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 1
    json.dump({"run_id": run_id, "rc": rc, "stdout": out.getvalue(),
               "stderr": err.getvalue(), "spans": tracer.spans,
               "leaves": tracer.leaves}, sys.stdout, separators=(",", ":"))
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
