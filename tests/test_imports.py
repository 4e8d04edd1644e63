"""Imports and callers: every imported name is used, every package name is
imported from the module that defines it, every function, class and method
of the package has a caller in it, and every module imports on its own. A
stdlib-only scan of the package and its tests, and one fresh interpreter
per module."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that never appear as an ``ast.Name``;
    ``__future__`` imports are skipped."""
    tree = ast.parse(source)
    bound: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in bound if name not in used]


def top_level_names(source: str) -> set[str]:
    """The names a module defines at top level by a def, a class or an assignment."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def package_modules() -> dict[str, set[str]]:
    """Each module under ``src`` by dotted name, with its top-level names."""
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[name] = top_level_names(path.read_text(encoding="utf-8"))
    return modules


def uncalled_definitions(sources: Iterable[str]) -> list[str]:
    """The functions, classes and methods defined in ``sources`` whose name
    appears as no ``ast.Name`` or ``ast.Attribute`` outside a definition of
    that name, so a recursive call does not count; dunders are skipped.

    Names are matched, not bindings: a method counts as called when any
    attribute of its name is read, on whatever object, and a function when
    any variable of its name is.
    """
    defined: set[str] = set()
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            enclosing |= {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return sorted(name for name in defined - used if not (name.startswith("__") and name.endswith("__")))


# package names with no caller in the package, each with the file that still binds it
KEPT = {
    "robustness_check": "bench/run.py",
    "cosine_similarity": "bench/spans.py",
    "from_text": "bench/spans.py",
    "node_edit_distance": "tests/test_acceptance.py",
}


def indirect_imports(package: str, source: str, modules: dict[str, set[str]]) -> list[str]:
    """``module.name`` for each ``from module import name`` in ``source`` (a
    file of ``package``, or ``""`` outside one) where ``module`` is one of
    ``modules`` and ``name`` is neither defined at its top level nor a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = package.split(".")[: package.count(".") + 2 - node.level] if node.level else []
        module = ".".join(base + [node.module] * bool(node.module))
        if module in modules:
            found += [f"{module}.{a.name}" for a in node.names
                      if a.name not in modules[module] and f"{module}.{a.name}" not in modules]
    return found


def test_rule_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from json import dumps, loads as parse\n"
        "from typing import Any\n"
        "__all__ = ['Any']\n"
        "print(os.path.sep, parse)\n"
    )
    assert unused_imports(source) == ["sys", "dumps", "Any"]


def test_rule_flags_only_names_imported_through_another_module():
    modules = {"pkg": set(), "pkg.a": {"f", "X"}, "pkg.b": {"g"}, "pkg.sub": set(), "pkg.sub.c": {"h"}}
    source = (
        "from json import dumps\n"
        "from . import a\n"
        "from .a import f, g\n"
        "from pkg.b import g\n"
        "from pkg.b import X as Y\n"
        "def later():\n"
        "    from .a import X\n"
        "    from .sub import h\n"
    )
    assert indirect_imports("pkg", source, modules) == ["pkg.a.g", "pkg.b.X", "pkg.sub.h"]
    assert indirect_imports("pkg.sub", "from ..a import X, h\nfrom . import c\n", modules) == ["pkg.a.h"]
    assert indirect_imports("", "from pkg.sub import c, h\n", modules) == ["pkg.sub.h"]


def test_rule_flags_only_definitions_without_a_caller():
    source = (
        "class A:\n"
        "    def __init__(self): self.m()\n"
        "    def m(self): return helper()\n"
        "    def unused(self): pass\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def outer():\n"
        "    def inner(): pass\n"
        "    return inner() or A\n"
    )
    assert uncalled_definitions([source]) == ["outer", "recursive", "unused"]
    assert uncalled_definitions([source, "outer()\nx.unused\n"]) == ["recursive"]


def test_every_package_definition_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in sorted((SRC / "solidql").rglob("*.py"))]
    uncalled = uncalled_definitions(sources)
    assert [name for name in uncalled if name not in KEPT] == []
    assert set(KEPT) <= set(uncalled)  # a name the package calls again leaves KEPT
    for name, where in KEPT.items():
        assert re.search(rf"\b{name}\b", (ROOT / where).read_text(encoding="utf-8")), (name, where)


def test_no_unused_imports_in_src_or_tests():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_every_package_name_is_imported_from_its_module():
    modules = package_modules()
    found = []
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        package = ".".join(path.parent.relative_to(SRC).parts) if path.is_relative_to(SRC) else ""
        found += [f"{path.relative_to(ROOT)}: {name}"
                  for name in indirect_imports(package, path.read_text(encoding="utf-8"), modules)]
    assert found == []


def _import_in_fresh_interpreter(statement: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith('solidql.')))"
    completed = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_the_package_import_loads_no_submodule():
    assert _import_in_fresh_interpreter("import solidql") == "[]\n"


@pytest.mark.parametrize("module", sorted(package_modules()))
def test_each_module_imports_on_its_own(module):
    _import_in_fresh_interpreter(f"import {module}")
