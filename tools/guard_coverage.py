"""List the `raise` sites in src/triform that no test under tests/ runs.

Usage (from the root of a checkout):

    python3 tools/guard_coverage.py

It runs pytest on tests/ in this process under a `sys.settrace` line
tracer that traces only frames whose code lives in src/triform, then prints `N of M raise sites never run` and one
`module:line ExceptionName` per such site, in module and line order.  A
site counts as run when any line of its `raise` statement ran.  A full run
takes about 70 s on 2 cores (Python 3.11), so tier-1 tests only the AST
side and the tracer on a small package (tests/test_guard_coverage.py).
Exit code: pytest's, or 1 if the tests passed but no line of the package
was traced.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triform"


def _name(exc: ast.expr | None) -> str:
    """The exception a `raise` names: the called or named class, `raise` alone for a re-raise."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return "raise" if exc is None else ast.unparse(exc)


def raise_sites(package: Path) -> list[tuple[str, int, int, str]]:
    """(module, first line, last line, exception name) per `raise` in the package's modules."""
    return sorted((path.stem, node.lineno, node.end_lineno, _name(node.exc))
                  for path in package.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Raise))


def never_run(package: Path, hits: set[tuple[str, int]]) -> list[tuple[str, int, str]]:
    """(module, line, exception name) of each site with no line in `hits`."""
    return [(module, first, name) for module, first, last, name in raise_sites(package)
            if not any((module, line) in hits for line in range(first, last + 1))]


def report(package: Path, hits: set[tuple[str, int]]) -> str:
    missed = never_run(package, hits)
    return "\n".join([f"{len(missed)} of {len(raise_sites(package))} raise sites never run",
                      *(f"{module}:{line} {name}" for module, line, name in missed)])


def traced_lines(package: Path, run) -> set[tuple[str, int]]:
    """(module, line) of every line of the package that runs while `run()` does."""
    prefix, lines, inside = os.path.realpath(package) + os.sep, set(), {}

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename  # relative if its sys.path entry was
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None

    previous = sys.gettrace()  # a traced run of tests/ traces this tool's own tests
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(Path(name).stem, line) for name, line in lines}


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    code = []
    hits = traced_lines(PACKAGE, lambda: code.append(pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])))
    print(report(PACKAGE, hits))
    return int(code[0]) or int(not hits)


if __name__ == "__main__":
    sys.exit(main())
