"""The ``solidql`` names that the benchmark binds by name still resolve.

``bench/spans.py`` wraps the functions in ``FUNCTIONS`` and the methods in
``METHODS``; ``bench/worker.py`` replaces ``cli.parse_sql``, ``cli.evaluate``
and ``pipeline.run_item``; ``bench/prep.py`` swaps ``cli.HttpChatProvider``.
Its observers also read attributes of what a traced call takes and
returns: ``RetrievalResult.fallback``, ``PromptBundle.system`` and
``.user``, ``ChatRequest.messages`` and ``EvalRecord.error``.
A rename would otherwise show only in a traced benchmark run. The two
tables are read from the source with ``ast.literal_eval``, and the
attributes are checked on objects the traced functions make; no bench
code is imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from solidql.embeddings import HashedBagOfTokens
from solidql.evaluation import evaluate
from solidql.gateway import LlmGateway
from solidql.prompting import build_prompt
from solidql.retrieval import build_index, retrieve_by_sql_skeleton
from solidql.schema import SchemaSubset, load_tables_json

from conftest import FIXTURES
from support import pool_items

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


def test_observed_attributes_exist():
    index = build_index(pool_items([("How many shops?", "SELECT count(*) FROM shop")]),
                        HashedBagOfTokens())
    assert retrieve_by_sql_skeleton("SELECT name FROM shop", index, 1).fallback is None
    assert retrieve_by_sql_skeleton("SELECT FROM", index, 1).fallback == "question"

    schema = load_tables_json(FIXTURES / "tables.json")["shop"]
    prompt = build_prompt("How many shops?", schema, SchemaSubset(), index.pool)
    assert prompt.system and prompt.user

    requests = []
    gateway = LlmGateway("live", provider=lambda request: requests.append(request) or "SELECT 1")
    gateway.ask("model", "the prompt", 16)
    assert requests[0].messages[-1][1] == "the prompt"


def test_observed_eval_attributes_exist(databases_root):
    dataset = [{"question": "q", "db_id": "shop", "query": "SELECT name FROM employee"}] * 2
    report = evaluate(dataset, ["SELECT name FROM employee", "SELECT nope FROM employee"],
                      databases_root)
    assert [record.error is not None for record in report.records] == [False, True]
