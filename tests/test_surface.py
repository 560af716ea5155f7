"""Every function, method and record field in src/triform is reached from src/triform.

A module-level function must be referenced in the package outside its own
body; a method other than a dunder must be reached there as an attribute
`.name`, and a record field (an annotated field of a NamedTuple class, a
name in the `__slots__` of a plain class, or else an attribute its
`__init__` sets on self) must be read there as `.name`.  The only
exceptions are the names the benchmark's tracer wraps (STAGES and LEAVES
of perfbench/tracer.py) and the names the frozen acceptance test imports.
Code and data that only tests read belong in the tests.  Every name a
module imports (`from __future__` aside) must also be read in that module.
A method name that another definition in src shares is pinned, with its
readers, in SHARED_NAMES.
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


def _fields(node: ast.ClassDef) -> list[str]:
    """The annotated fields of a NamedTuple class, the names in `__slots__`,
    or else the attributes `self.name = ...` that `__init__` sets."""
    if any(getattr(base, "id", None) == "NamedTuple" for base in node.bases):
        return [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
    slots = [item.value for item in node.body if isinstance(item, ast.Assign)
             and any(getattr(target, "id", None) == "__slots__" for target in item.targets)]
    if slots:
        return [elt.value for elt in slots[0].elts]
    inits = [item for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
    return [target.attr for init in inits for target in ast.walk(init)
            if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
            and getattr(target.value, "id", None) == "self"]


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
            if not isinstance(node, ast.ClassDef):
                continue
            out += [f"{module}.{node.name}.{name}" for name in _fields(node)
                    if name not in allowed and not reads[name]]
            out += [f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                    and item.name not in allowed and not attrs[item.name]]
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
        "from typing import NamedTuple\n\n\n"
        "def lonely():\n    return lonely()\n\n\n"
        "class Box(NamedTuple):\n    kept: int\n    unread: int\n\n"
        "    def used(self):\n        return self.kept\n\n"
        "    def unused(self):\n        return 0\n\n\n"
        "class Slots:\n    __slots__ = ('held', 'idle')\n\n"
        "    def __init__(self, held):\n        self.held, self.idle = held, 0\n\n\n"
        "Box(1, 2).used()\nprint(Slots(1).held)\n")
    assert unreached(tmp_path) == ["extra.lonely", "extra.Box.unread", "extra.Box.unused",
                                   "extra.Slots.idle"]


def test_the_guard_sees_an_unread_instance_attribute(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        "class Failure(ValueError):\n"
        "    def __init__(self, text, kept, extra):\n"
        "        super().__init__(text)\n"
        "        self.kept, self.extra = kept, extra\n\n\n"
        "print(Failure('x', 1, 2).kept)\n")
    assert unreached(tmp_path) == ["extra.Failure.extra"]


# The guard matches a method by its name alone, so a method whose name also
# names another method, a function or a record field in src counts as reached
# when any namesake is read.  Each such name is pinned here with where its
# methods are read, so that a new collision fails until it is checked by hand.
SHARED_NAMES = {
    "b": "QuadraticModule.b, the Fraction pairing, read by fqm.gram3 and a tracer leaf; "
         "fields ModuleTable.b (the B table) and OmegaMat.b (the w rows)",
    "elements": "QuadraticModule.elements(), read by q_histogram and module_table; fields "
                "ModuleTable.elements and SL2F3.elements",
    "neg": "QuadraticModule.neg, read by fqm.canonical_sign; field ModuleTable.neg",
    "ok": "ObstructionReport.ok, read by cli.cmd_borcherds, and SpecialChecks.ok, read by "
          "cli.sign_vector_rows",
    "order": "QuadraticModule.order(), read by milgram_signature and build_weil; "
             "OrthogonalGroup.order, read by cli and o_q_character_norm; SL2F3.order, read "
             "by isotypic_subspace",
    "q": "QuadraticModule.q, read by gram3; field ModuleTable.q",
}


def shared_method_names(src: Path = SRC) -> list[str]:
    """Method names (dunders aside) that also name another method, a
    module-level function or a record field in `src`."""
    names, methods = Counter(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names[node.name] += 1
            elif isinstance(node, ast.ClassDef):
                own = [item.name for item in node.body if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("__")]
                names.update(own + _fields(node))
                methods.update(own)
    return sorted(name for name in methods if names[name] > 1)


def test_every_shared_method_name_is_pinned_with_its_reason():
    assert shared_method_names() == sorted(SHARED_NAMES)


def test_a_new_namesake_of_a_method_is_seen(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        "from typing import NamedTuple\n\n\n"
        "def trace():\n    return 0\n\n\n"
        "class Box(NamedTuple):\n    transpose: int\n")
    assert shared_method_names(tmp_path) == sorted([*SHARED_NAMES, "trace", "transpose"])


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


def numpy_imports(src: Path = SRC) -> list[str]:
    """`module:line` for every `import numpy...` or `from numpy... import` in src."""
    out = []
    for path in sorted(src.glob("*.py")):
        lines = []
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                lines.append(node.lineno)
        out += [f"{path.stem}:{line}" for line in sorted(lines)]
    return out


def test_no_module_imports_numpy():
    assert numpy_imports() == []


def test_the_numpy_guard_sees_an_import(tmp_path):
    (tmp_path / "extra.py").write_text(
        "def f():\n    import numpy.linalg as la\n    return la\n\n\n"
        "from numpy import array\n")
    assert numpy_imports(tmp_path) == ["extra:2", "extra:6"]
