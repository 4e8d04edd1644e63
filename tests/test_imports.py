"""Every imported name is used: a stdlib-only scan of the package and its tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that never appear as an ``ast.Name`` and
    are not listed in a literal ``__all__``; ``__future__`` imports are skipped."""
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
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_rule_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from json import dumps, loads as parse\n"
        "from typing import Any\n"
        "__all__ = ['Any']\n"
        "print(os.path.sep, parse)\n"
    )
    assert unused_imports(source) == ["sys", "dumps"]


def test_no_unused_imports_in_src_or_tests():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
