"""Skeleton extraction: placeholder masking, idempotence, invariance."""

from __future__ import annotations

import random

import pytest

from solidql.skeleton import (
    SqlSkeleton,
    extract_sql_skeleton,
    skeleton_similarity,
    tree_edit_distance,
)
from solidql.sql import parse_sql
from solidql.sql.nodes import COLUMN_REF, LITERAL, TABLE_REF

from support import random_statement, random_statement_pair

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
        again = extract_sql_skeleton(parse_sql(skeleton.text))
        assert again == skeleton, sql
        assert again == SqlSkeleton.from_text(skeleton.text)
        assert SqlSkeleton.from_sql(skeleton.text).text == skeleton.text


def test_identifier_invariance_on_generated_pairs():
    rng = random.Random(11)
    for _ in range(200):
        left, right = random_statement_pair(rng)
        a = SqlSkeleton.from_sql(left)
        b = SqlSkeleton.from_sql(right)
        assert tree_edit_distance(a, b) == 0, (left, right)


def test_similarity_identity_and_bounds():
    rng = random.Random(13)
    statements = [random_statement(rng) for _ in range(40)]
    skeletons = [SqlSkeleton.from_sql(s) for s in statements]
    for skeleton in skeletons:
        assert skeleton_similarity(skeleton, skeleton) == 1.0
    for a, b in zip(skeletons, skeletons[1:]):
        score = skeleton_similarity(a, b)
        assert 0.0 <= score <= 1.0
        if a.compiled != b.compiled:
            assert score < 1.0


def test_similarity_single_node_relabel():
    from solidql.sql.nodes import Node

    a = SqlSkeleton.from_tree(Node("n", "x"))
    b = SqlSkeleton.from_tree(Node("n", "y"))
    assert skeleton_similarity(a, b) == 0.5  # one relabel over 1+1 nodes


def test_similarity_order_inverts_distance_order_at_equal_node_counts():
    rng = random.Random(15)
    skeletons = [SqlSkeleton.from_sql(random_statement(rng)) for _ in range(60)]
    by_count: dict[int, list[SqlSkeleton]] = {}
    for skeleton in skeletons:
        by_count.setdefault(skeleton.node_count, []).append(skeleton)
    group = max(by_count.values(), key=len)
    assert len(group) >= 3
    target = group[0]
    ranked_by_distance = sorted(
        group[1:], key=lambda s: tree_edit_distance(target, s)
    )
    ranked_by_similarity = sorted(
        group[1:], key=lambda s: -skeleton_similarity(target, s)
    )
    assert [tree_edit_distance(target, s) for s in ranked_by_distance] == [
        tree_edit_distance(target, s) for s in ranked_by_similarity
    ]
