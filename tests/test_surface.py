"""Every function, method and dataclass field in src/triform is reached from src/triform.

A module-level function must be referenced in the package outside its own
body; a method other than a dunder must be reached there as an attribute
`.name`, and a dataclass field must be read there as `.name`.  The only
exceptions are the names the benchmark's tracer wraps (STAGES and LEAVES
of perfbench/tracer.py) and the names the frozen acceptance test imports.
Code and data that only tests read belong in the tests.  Every name a
module imports (`from __future__` aside) must also be read in that module.
"""

import ast
import runpy
from collections import Counter
from pathlib import Path

import triform

SRC = Path(triform.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def _allowlist() -> set:
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    names = {name for layer in tracer["STAGES"].values() for name in layer}
    names |= {name for *_, methods in tracer["LEAVES"] for name in methods}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return names | {alias.name for node in ast.walk(acceptance)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}


def _uses(tree) -> Counter:
    """How often each name is read, imported or accessed as an attribute."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def unreached(src: Path = SRC) -> list[str]:
    """`module.function`, `module.Class.method` and `module.Class.field` that
    nothing in `src` reaches."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    attrs = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    allowed = _allowlist()
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in allowed \
                    and uses[node.name] <= _uses(node)[node.name]:
                out.append(f"{module}.{node.name}")
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__") \
                        and item.name not in allowed and not attrs[item.name]:
                    out.append(f"{module}.{node.name}.{item.name}")
                if isinstance(item, ast.AnnAssign) and _is_dataclass(node) \
                        and item.target.id not in allowed and not reads[item.target.id]:
                    out.append(f"{module}.{node.name}.{item.target.id}")
    return out


def unused_imports(src: Path = SRC) -> list[str]:
    """`module.name` for every name a module imports and never reads."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                out += [f"{path.stem}.{name}" for alias in node.names
                        if (name := alias.asname or alias.name.split(".")[0]) not in read]
    return out


def test_every_function_and_method_is_reached_from_src():
    assert unreached() == []


def test_the_guard_sees_an_unreached_function_and_method(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "def lonely():\n    return lonely()\n\n\n"
        "@dataclass(frozen=True)\nclass Box:\n    kept: int\n    unread: int\n\n"
        "    def used(self):\n        return self.kept\n\n"
        "    def unused(self):\n        return 0\n\n\nBox(1, 2).used()\n")
    assert unreached(tmp_path) == ["extra.lonely", "extra.Box.unread", "extra.Box.unused"]


def test_every_imported_name_is_read():
    assert unused_imports() == []


def test_the_guard_sees_an_unread_import(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n\n\n"
        "def area(r) -> float:\n    if False:\n        from .exact import mat_det\n"
        "    return pi * r * r\n")
    assert unused_imports(tmp_path) == ["extra.os", "extra.np", "extra.tau", "extra.mat_det"]
