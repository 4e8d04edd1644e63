"""Every file open and JSON decode of the package is in ``solidql.jsonl``: a stdlib-only scan."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solidql"
# the one decode outside jsonl.py: the JSON body of a provider's HTTP reply
ALLOWED = {("gateway.py", "HttpClient.post", "json.loads")}


def reads(source: str) -> list[tuple[str, str]]:
    """(qualified name of the enclosing function, callee) of each call to
    ``open``, to a method named ``open``, to ``json.load`` or to ``json.loads``."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee in ("open", "json.load", "json.loads") or callee.endswith(".open"):
                    found.append((scope, callee))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_rule_finds_opens_and_decodes():
    source = (
        "import json\n"
        "def a(p):\n"
        "    with open(p) as f, Path(p).open() as g:\n"
        "        return json.loads(f.read()), json.load(g)\n"
        "class B:\n"
        "    def c(self):\n"
        "        return urllib.request.urlopen(self.url), json.dumps(1), self.path.open('ab')\n"
    )
    assert reads(source) == [
        ("a", "open"), ("a", "Path(p).open"), ("a", "json.loads"), ("a", "json.load"),
        ("B.c", "self.path.open"),
    ]


def test_files_are_opened_and_decoded_only_in_jsonl():
    found = {
        (path.name, scope, callee)
        for path in sorted(PACKAGE.rglob("*.py")) if path.name != "jsonl.py"
        for scope, callee in reads(path.read_text(encoding="utf-8"))
    }
    assert found == ALLOWED
