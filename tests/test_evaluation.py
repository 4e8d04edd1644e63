"""Execution accuracy, exact match, robustness, and aggregate reports."""

from __future__ import annotations

import random
import threading

import pytest

from solidql.errors import ExecError, ExecTimeout
from solidql.evaluation import (
    evaluate,
    exact_match,
    execute_sql,
    has_top_level_order_by,
    robustness_check,
    tables_match,
    write_report,
)
from solidql.sql.nodes import OPERATOR
from solidql.sql.parser import parse_sql

from support import random_statement


def test_execute_select_one(concert_db):
    table = execute_sql(concert_db, "SELECT 1")
    assert table.rows == ((1,),)
    assert table.ordered is False


def test_execute_missing_table(concert_db):
    with pytest.raises(ExecError):
        execute_sql(concert_db, "SELECT x FROM nonexistent")


def test_execute_missing_database(tmp_path):
    with pytest.raises(ExecError):
        execute_sql(tmp_path / "nope.sqlite", "SELECT 1")


def test_fixture_filter(concert_db):
    table = execute_sql(concert_db, "SELECT age FROM singer WHERE age > 30")
    assert sorted(table.rows) == [(33,), (40,)]


def test_timeout_interrupts(concert_db):
    # cross join explosion; 1e10 rows would take far longer than 0.2 s
    slow = (
        "SELECT count(*) FROM singer a, singer b, singer c, singer d, singer e, "
        "singer f, singer g, singer h, singer i, singer j, singer k, singer l"
    )
    with pytest.raises(ExecTimeout):
        execute_sql(concert_db, slow, timeout=0.2)


def test_execute_sql_starts_no_thread(concert_db, monkeypatch):
    def refuse(self):
        raise RuntimeError("execute_sql started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert execute_sql(concert_db, "SELECT count(*) FROM singer").rows == ((5,),)
    with pytest.raises(ExecError):
        execute_sql(concert_db, "SELECT zzz FROM singer")
    slow = (
        "SELECT count(*) FROM singer a, singer b, singer c, singer d, singer e, "
        "singer f, singer g, singer h, singer i, singer j, singer k, singer l"
    )
    with pytest.raises(ExecTimeout):
        execute_sql(concert_db, slow, timeout=0.2)


def test_order_by_detection():
    assert has_top_level_order_by("SELECT a FROM t ORDER BY a")
    assert has_top_level_order_by("select a from t order\n  by a")
    assert not has_top_level_order_by("SELECT a FROM t")
    assert not has_top_level_order_by(
        "SELECT a FROM t WHERE b IN (SELECT c FROM u ORDER BY c)"
    )
    assert has_top_level_order_by("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1")
    # text the parser rejects is scanned all the same
    assert has_top_level_order_by("SELECT weird !! FROM t ORDER BY x")
    assert has_top_level_order_by("SELECT a || b FROM t WHERE c = ? ORDER BY a")
    # quoted spans and comments hide what they hold
    assert not has_top_level_order_by("SELECT 'order by' FROM t")
    assert not has_top_level_order_by('SELECT "order by" FROM t')
    assert not has_top_level_order_by("SELECT a AS `order by` FROM t")
    assert not has_top_level_order_by("SELECT a AS [order by] FROM t")
    assert not has_top_level_order_by("SELECT a FROM t -- ORDER BY a")
    assert not has_top_level_order_by("SELECT a FROM t /* ORDER BY a */")
    assert not has_top_level_order_by("SELECT a FROM t WHERE b = 'order by")
    assert has_top_level_order_by("SELECT a FROM t -- (\nORDER BY a")
    assert has_top_level_order_by("SELECT a FROM t ORDER /* ( */ BY a")
    assert has_top_level_order_by("SELECT a FROM t WHERE b = 'it''s (' ORDER BY a")
    assert not has_top_level_order_by("SELECT a FROM t WHERE b = 'it''s order by'")
    assert has_top_level_order_by('SELECT "a)" FROM t ORDER BY 1')
    assert has_top_level_order_by("SELECT [a(] FROM t ORDER BY 1")
    assert not has_top_level_order_by("SELECT (a) order, by FROM t")


def _parse_tree_order_by(sql: str) -> bool:
    """Reference: the outermost query, or a compound's last operand, has ORDER BY."""
    node = parse_sql(sql)
    while node.kind == OPERATOR:  # a trailing ORDER BY parses into the last operand
        node = node.children[-1]
    return node.clause("order_by") is not None


def test_order_by_scan_agrees_with_the_parse_tree(parser_corpus):
    rng = random.Random(2018)
    statements = [item["query"] for item in parser_corpus]
    statements += [random_statement(rng) for _ in range(2000)]
    assert any(_parse_tree_order_by(sql) for sql in statements)
    assert not all(_parse_tree_order_by(sql) for sql in statements)
    for sql in statements:
        assert has_top_level_order_by(sql) == _parse_tree_order_by(sql), sql


def test_execute_sql_never_parses(concert_db, monkeypatch):
    def refuse(sql):
        raise RuntimeError("execute_sql parsed a statement")

    monkeypatch.setattr("solidql.evaluation.parse_sql", refuse)
    table = execute_sql(concert_db, "SELECT name FROM singer ORDER BY age")
    assert len(table.rows) == 5 and table.ordered
    table = execute_sql(
        concert_db, "SELECT name FROM singer WHERE age IN (SELECT age FROM singer ORDER BY age)"
    )
    assert len(table.rows) == 5 and not table.ordered


def ex_verdicts(pairs, databases_root):
    """The EX verdict ``evaluate`` gives each (pred, gold) pair on concert_singer."""
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold}
               for i, (_, gold) in enumerate(pairs)]
    report = evaluate(dataset, [pred for pred, _ in pairs], databases_root)
    return [record.ex for record in report.records]


def test_ex_identity(databases_root):
    assert ex_verdicts([("SELECT name FROM singer", "SELECT name FROM singer")], databases_root) == [True]


def test_column_order_insensitive(databases_root):
    pairs = [("SELECT name, age FROM singer", "SELECT age, name FROM singer")]
    assert ex_verdicts(pairs, databases_root) == [True]


def test_row_order_enforced_only_under_gold_order_by(databases_root):
    pairs = [
        ("SELECT name FROM singer ORDER BY age DESC", "SELECT name FROM singer ORDER BY age ASC"),
        ("SELECT name FROM singer ORDER BY age DESC", "SELECT name FROM singer"),
    ]
    assert ex_verdicts(pairs, databases_root) == [False, True]


def test_pred_failure_scores_false(databases_root):
    pairs = [("SELECT zzz FROM singer", "SELECT name FROM singer")]
    assert ex_verdicts(pairs, databases_root) == [False]


def test_ex_reflexive_and_symmetric(databases_root):
    statements = [
        "SELECT name FROM singer",
        "SELECT count(*) FROM concert",
        "SELECT name, age FROM singer WHERE age > 30",
    ]
    pairs = [(a, b) for a in statements for b in statements]
    verdicts = dict(zip(pairs, ex_verdicts(pairs, databases_root)))
    for a in statements:
        assert verdicts[a, a]
        for b in statements:
            assert verdicts[a, b] == verdicts[b, a]


def test_null_and_float_conventions(concert_db):
    from solidql.evaluation import ResultTable

    assert not tables_match(
        ResultTable(((None,),), False), ResultTable((("",),), False)
    )
    assert tables_match(
        ResultTable(((0.30000000004,),), False), ResultTable(((0.3,),), False)
    )
    assert not tables_match(
        ResultTable(((0.31,),), False), ResultTable(((0.3,),), False)
    )


def test_arity_mismatch_is_false():
    from solidql.evaluation import ResultTable

    assert not tables_match(
        ResultTable(((1, 2),), False), ResultTable(((1,),), False)
    )


def test_exact_match_normalization():
    assert exact_match("select Name from Singer", "SELECT name FROM singer")
    assert exact_match("SELECT a FROM t;", "select a from t")
    assert not exact_match(
        "SELECT name FROM singer WHERE age > 30", "SELECT name FROM singer WHERE age > 31"
    )
    assert exact_match("SELECT a FROM t", "SELECT a FROM t")
    # unparseable inputs degrade to normalized string comparison
    assert exact_match("@@ weird", "@@  WEIRD")
    assert not exact_match("@@ weird", "@@ other")


def test_exact_match_implies_ex(databases_root, parser_corpus):
    queries = [item["query"] for item in parser_corpus if item["db_id"] == "concert_singer"]
    for query in queries:
        assert exact_match(query, query)
    assert all(ex_verdicts([(query, query) for query in queries], databases_root))


def test_robustness_check(concert_db):
    assert robustness_check(
        "SELECT name FROM singer WHERE age > 30",
        "SELECT name FROM singer WHERE age >= 31",
        concert_db,
    ).passed
    verdict = robustness_check(
        "SELECT name FROM singer", "SELECT zzz FROM singer", concert_db
    )
    assert not verdict
    assert "perturbed" in verdict.reason
    verdict = robustness_check(
        "SELECT name FROM singer", "SELECT location FROM stadium", concert_db
    )
    assert not verdict.passed


def test_evaluate_aggregates(databases_root):
    dataset = [
        {"question": "q1", "db_id": "concert_singer", "query": "SELECT name FROM singer"},
        {"question": "q2", "db_id": "concert_singer", "query": "SELECT count(*) FROM concert"},
    ]
    report = evaluate(dataset, ["SELECT name FROM singer", "SELECT count(*) FROM concert"], databases_root)
    assert report.ex_pct == 100.0
    assert report.em_pct == 100.0

    report = evaluate(dataset, ["SELECT name FROM singer", "SELECT count(*) FROM singer"], databases_root)
    assert report.ex_pct == 50.0
    assert report.scored == 2


def test_evaluate_excludes_bad_gold(databases_root):
    dataset = [
        {"question": "q1", "db_id": "concert_singer", "query": "SELECT broken FROM nowhere"},
        {"question": "q2", "db_id": "concert_singer", "query": "SELECT name FROM singer"},
    ]
    report = evaluate(dataset, ["SELECT 1", "SELECT name FROM singer"], databases_root)
    assert report.excluded == 1
    assert report.scored == 1
    assert report.ex_pct == 100.0
    assert report.records[0].excluded


def test_evaluate_length_mismatch_fatal(databases_root):
    with pytest.raises(ValueError):
        evaluate([{"question": "q", "db_id": "shop", "query": "SELECT 1"}], [], databases_root)
    with pytest.raises(ValueError):
        evaluate([{"question": "q", "db_id": "shop", "query": "SELECT 1"}], ["SELECT 1"],
                 databases_root, perturbed=[])


def test_evaluate_robustness_matches_robustness_check(databases_root, concert_db):
    # (gold, clean prediction, perturbed prediction)
    triples = [
        ("SELECT name FROM singer", "SELECT name FROM singer", "select  name from singer ;"),
        ("SELECT name FROM singer", "SELECT zzz FROM singer", "SELECT name FROM singer"),
        ("SELECT broken FROM nowhere", "SELECT name FROM singer", "SELECT name FROM singer"),
        ("SELECT count(*) FROM concert", "SELECT count(*) FROM concert", "SELECT count(*) FROM singer"),
        ("SELECT age FROM singer", "SELECT age FROM singer ORDER BY age", "SELECT age FROM singer ORDER BY age DESC"),
        ("SELECT age FROM singer", "SELECT age FROM singer", "SELECT zzz FROM singer"),
        ("SELECT broken FROM nowhere", "SELECT zzz FROM singer", "SELECT name FROM singer"),
    ]
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold}
               for i, (gold, _, _) in enumerate(triples)]
    clean = [c for _, c, _ in triples]
    perturbed = [p for _, _, p in triples]
    report = evaluate(dataset, clean, databases_root, perturbed=perturbed)
    assert report.robustness == [robustness_check(c, p, concert_db) for c, p in zip(clean, perturbed)]
    assert [bool(v) for v in report.robustness] == [True, False, True, False, False, False, False]
    assert report.table().splitlines()[-1] == "robustness  28.6"
    assert report.to_dict() == evaluate(dataset, clean, databases_root).to_dict()


def test_report_totals_equal_verdict_sums(databases_root):
    dataset = [
        {"question": "q1", "db_id": "concert_singer", "query": "SELECT name FROM singer"},
        {"question": "q2", "db_id": "concert_singer", "query": "SELECT age FROM singer"},
        {"question": "q3", "db_id": "concert_singer", "query": "SELECT theme FROM concert"},
    ]
    preds = ["SELECT name FROM singer", "SELECT age FROM stadium", "SELECT theme FROM concert"]
    report = evaluate(dataset, preds, databases_root)
    assert sum(r.ex for r in report.records) == round(report.ex_pct * report.scored / 100)
    assert len(report.records) == report.scored + report.excluded


def test_write_report_is_deterministic(databases_root, tmp_path):
    dataset = [{"question": "q", "db_id": "shop", "query": "SELECT name FROM employee"}]
    report = evaluate(dataset, ["SELECT name FROM employee"], databases_root,
                      flags=[("round2_retrieval_fallback",)])
    assert report.flag_counts == {"round2_retrieval_fallback": 1}
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, first)
    write_report(report, second)
    assert first.read_bytes() == second.read_bytes()
