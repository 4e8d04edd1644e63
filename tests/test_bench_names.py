"""The ``solidql`` names that the benchmark binds by name still resolve.

``bench/spans.py`` wraps the functions in ``FUNCTIONS`` and the methods in
``METHODS``; ``bench/worker.py`` replaces ``cli.parse_sql``, ``cli.evaluate``
and ``pipeline.run_item``; ``bench/prep.py`` swaps ``cli.HttpChatProvider``.
A rename would otherwise show only in a traced benchmark run. The two
tables are read from the source with ``ast.literal_eval``; no bench code
is imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
HOOKED = [
    ("solidql.cli", "parse_sql"),
    ("solidql.cli", "evaluate"),
    ("solidql.pipeline", "run_item"),
    ("solidql.cli", "HttpChatProvider"),
]


def span_table(name: str) -> dict:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {name}")


def test_traced_functions_resolve():
    functions = span_table("FUNCTIONS")
    assert functions
    for span, (module, attribute) in functions.items():
        assert callable(getattr(importlib.import_module(module), attribute, None)), span


def test_traced_methods_resolve():
    methods = span_table("METHODS")
    assert methods
    for span, (module, class_name, method) in methods.items():
        owner = getattr(importlib.import_module(module), class_name, None)
        assert callable(getattr(owner, method, None)), span


@pytest.mark.parametrize(("module", "attribute"), HOOKED)
def test_hooked_names_resolve(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
