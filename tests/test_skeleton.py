"""Skeleton extraction: placeholder masking, idempotence, invariance."""

from __future__ import annotations

import random

import pytest

from solidql.skeleton import SqlSkeleton, tree_edit_distance
from solidql.sql.nodes import COLUMN_REF, LITERAL, TABLE_REF

from support import random_statement_pair

PLACEHOLDERS = {"_T_", "_C_", "_V_"}


@pytest.mark.parametrize(
    ("sql", "expected"),
    [
        ("SELECT name FROM singer WHERE age > 30", "SELECT _C_ FROM _T_ WHERE _C_ > _V_"),
        ("SELECT title FROM album WHERE year > 2000", "SELECT _C_ FROM _T_ WHERE _C_ > _V_"),
        (
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)",
            "SELECT _C_ FROM _T_ WHERE _C_ IN (SELECT _C_ FROM _T_)",
        ),
        ("SELECT count(*) FROM t LIMIT 3", "SELECT count(*) FROM _T_ LIMIT _V_"),
    ],
)
def test_skeleton_text(sql, expected):
    assert SqlSkeleton.from_sql(sql).text == expected


def test_no_original_identifiers_survive(parser_corpus):
    for item in parser_corpus:
        skeleton = SqlSkeleton.from_sql(item["query"])
        for label in skeleton.compiled.preorder:
            kind, _, text = label.partition(":")
            if kind in (TABLE_REF, COLUMN_REF, LITERAL, "table-alias", "column-alias"):
                assert text in PLACEHOLDERS, (item["query"], label)


def test_function_names_not_masked():
    skeleton = SqlSkeleton.from_sql("SELECT count(name), max(age) FROM singer")
    assert "count" in skeleton.text
    assert "max" in skeleton.text


def test_skeleton_text_reparses_to_equal_tree(parser_corpus):
    for item in parser_corpus:
        skeleton = SqlSkeleton.from_sql(item["query"])
        assert SqlSkeleton.from_text(skeleton.text) == skeleton  # text and compiled tree


def test_skeletonization_idempotent(parser_corpus):
    rng = random.Random(17)
    generated = [sql for _ in range(100) for sql in random_statement_pair(rng)]
    for sql in [item["query"] for item in parser_corpus] + generated:
        skeleton = SqlSkeleton.from_sql(sql)
        again = SqlSkeleton.from_sql(skeleton.text)
        assert again == skeleton, sql
        assert again == SqlSkeleton.from_text(skeleton.text)


def test_identifier_invariance_on_generated_pairs():
    rng = random.Random(11)
    for _ in range(200):
        left, right = random_statement_pair(rng)
        a = SqlSkeleton.from_sql(left)
        b = SqlSkeleton.from_sql(right)
        assert tree_edit_distance(a, b) == 0, (left, right)
