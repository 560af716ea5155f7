"""tools/guard_coverage.py: the raise sites of a package and those no hit line reaches.

The full traced run of tests/ takes minutes, so only the AST side and the
line tracer on a call run here, on a package written to tmp_path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "guard_coverage.py"

MODULE_A = '''\
def f(x):
    if x < 0:
        raise ValueError("negative")
    if x > 9:
        raise OverflowError(
            f"too large: {x}")
    return x


def g():
    try:
        f(-1)
    except ValueError:
        raise
'''

MODULE_B = '''\
import errors


def h():
    raise errors.Custom
'''


def _load():
    spec = importlib.util.spec_from_file_location("guard_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(MODULE_A)
    (package / "b.py").write_text(MODULE_B)
    return package


def test_every_raise_is_a_site_with_its_lines_and_name(tmp_path):
    sites = _load().raise_sites(_package(tmp_path))
    assert sites == [("a", 3, 3, "ValueError"), ("a", 5, 6, "OverflowError"),
                     ("a", 14, 14, "raise"), ("b", 5, 5, "Custom")]


def test_a_site_counts_as_run_when_any_of_its_lines_ran(tmp_path):
    tool, package = _load(), _package(tmp_path)
    hits = {("a", 3), ("a", 6), ("b", 4)}  # b:4 is not a raise line
    assert tool.report(package, hits) == "2 of 4 raise sites never run\na:14 raise\nb:5 Custom"
    assert tool.report(package, set()).splitlines()[0] == "4 of 4 raise sites never run"


def test_the_tracer_records_only_lines_of_the_package(tmp_path):
    tool, package = _load(), _package(tmp_path)
    spec = importlib.util.spec_from_file_location("pkg_a", package / "a.py")
    a = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(a)
    hits = tool.traced_lines(package, lambda: pytest.raises(ValueError, a.g))
    assert ("a", 3) in hits and ("a", 14) in hits and ("a", 5) not in hits
    assert {module for module, _ in hits} == {"a"}
    assert tool.never_run(package, hits) == [("a", 5, "OverflowError"), ("b", 5, "Custom")]


def test_the_tracer_restores_the_trace_function_it_found():
    tool, outer = _load(), lambda frame, event, arg: None
    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        tool.traced_lines(Path(__file__).parent, lambda: None)
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
