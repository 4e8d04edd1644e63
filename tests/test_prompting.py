"""Prompt assembly contract and completion extraction."""

from __future__ import annotations

import pytest

from solidql.errors import ExtractError
from solidql.prompting import (
    FOCUS_MARKER,
    build_prompt,
    parse_sql_from_completion,
    serialize_focus,
)
from solidql.retrieval import build_index
from solidql.embeddings import HashedBagOfTokens
from solidql.schema import SchemaSubset


@pytest.fixture()
def shop_schema(schemas):
    return schemas["shop"]


@pytest.fixture()
def example_pairs():
    index = build_index(
        [
            ("how many employees are there", "SELECT count(*) FROM employee"),
            ("names of all shops", "SELECT name FROM shop"),
        ],
        HashedBagOfTokens(),
    )
    return index.pool


def test_focus_line_contains_marker_then_subset(shop_schema):
    linked = SchemaSubset.build(["employee"], ["employee.name"])
    bundle = build_prompt("q", shop_schema, linked, [], focus_enabled=True)
    assert FOCUS_MARKER in bundle.user
    after = bundle.user.split(FOCUS_MARKER, 1)[1]
    assert serialize_focus(linked) in after


def test_serialize_focus_groups_columns_by_table():
    linked = SchemaSubset.build(["singer", "concert"], ["singer.name", "singer.age"])
    assert serialize_focus(linked) == "concert, singer (singer.age, singer.name)"


def test_disabling_focus_removes_exactly_the_focus_line(shop_schema, example_pairs):
    linked = SchemaSubset.build(["employee"], ["employee.name"])
    on = build_prompt("q", shop_schema, linked, example_pairs, focus_enabled=True)
    off = build_prompt("q", shop_schema, linked, example_pairs, focus_enabled=False)
    on_lines = on.user.splitlines(keepends=True)
    off_lines = off.user.splitlines(keepends=True)
    removed = [line for line in on_lines if line not in off_lines]
    assert len(removed) == 1
    assert FOCUS_MARKER in removed[0]
    assert "".join(line for line in on_lines if line not in removed) == off.user


def test_empty_subset_suppresses_focus_line(shop_schema):
    on = build_prompt("q", shop_schema, SchemaSubset(), [], focus_enabled=True)
    assert FOCUS_MARKER not in on.user


def test_full_ddl_always_present(shop_schema, example_pairs):
    for focus in (True, False):
        bundle = build_prompt(
            "q", shop_schema, SchemaSubset.build(["shop"], []), example_pairs,
            focus_enabled=focus,
        )
        assert "CREATE TABLE employee" in bundle.user
        assert "CREATE TABLE shop" in bundle.user
        assert "CREATE TABLE hiring" in bundle.user


def test_zero_examples_omits_example_section(shop_schema):
    bundle = build_prompt("q", shop_schema, SchemaSubset(), [])
    assert "Examples:" not in bundle.user
    assert bundle.user.startswith("Database schema:")


def test_examples_rendered_in_given_order(shop_schema, example_pairs):
    bundle = build_prompt("q", shop_schema, SchemaSubset(), example_pairs)
    first = bundle.user.index(example_pairs[0].question)
    second = bundle.user.index(example_pairs[1].question)
    assert first < second
    assert bundle.user.index("Q: ") < bundle.user.index("SQL: ")


def test_prompt_is_deterministic_and_monotone_in_examples(shop_schema, example_pairs):
    a = build_prompt("q", shop_schema, SchemaSubset(), example_pairs)
    b = build_prompt("q", shop_schema, SchemaSubset(), example_pairs)
    assert a.user == b.user and a.system == b.system
    shorter = build_prompt("q", shop_schema, SchemaSubset(), example_pairs[:1])
    assert len(a.user) > len(shorter.user)


def test_prompt_ends_with_output_directive(shop_schema):
    bundle = build_prompt("q", shop_schema, SchemaSubset(), [])
    assert bundle.user.rstrip().endswith("Return a single SQL statement and nothing else.")


@pytest.mark.parametrize(
    ("completion", "expected"),
    [
        ("```sql\nSELECT 1\n```", "SELECT 1"),
        ("```\nSELECT 2\n```", "SELECT 2"),
        ("The answer is: SELECT a FROM t;", "SELECT a FROM t;"),
        ("SELECT a\nFROM t\n\nExplanation: joins nothing", "SELECT a\nFROM t"),
        ("Sure! ```sql\nselect x from y where z = 1;\n``` hope that helps",
         "select x from y where z = 1;"),
    ],
)
def test_parse_sql_from_completion(completion, expected):
    assert parse_sql_from_completion(completion) == expected


def test_parse_sql_from_completion_no_statement():
    with pytest.raises(ExtractError):
        parse_sql_from_completion("I cannot answer.")
