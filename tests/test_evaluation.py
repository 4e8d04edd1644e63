"""Execution accuracy, exact match, robustness, and aggregate reports."""

from __future__ import annotations

import random
import sqlite3
import threading
from contextlib import closing

import pytest

from solidql import evaluation
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
from solidql.sql.tokens import IDENT, SKIP, TOKEN

from support import random_statement


@pytest.fixture
def pool():
    with evaluation.Connections() as connections:
        yield connections


def test_execute_select_one(concert_db, pool):
    assert execute_sql(concert_db, "SELECT 1", 30.0, pool) == [(1,)]
    assert not has_top_level_order_by("SELECT 1")


def test_execute_missing_table(concert_db, pool):
    with pytest.raises(ExecError):
        execute_sql(concert_db, "SELECT x FROM nonexistent", 30.0, pool)


def test_a_lone_surrogate_is_an_execution_error(concert_db, pool):
    # valid in a JSON string, so a results file can carry it, but not encodable as UTF-8
    with pytest.raises(ExecError, match="surrogates not allowed"):
        execute_sql(concert_db, "SELECT name FROM singer WHERE name = '\ud83d'", 30.0, pool)
    assert execute_sql(concert_db, "SELECT 1", 30.0, pool) == [(1,)]


def test_execute_missing_database(tmp_path, pool):
    with pytest.raises(ExecError):
        execute_sql(tmp_path / "nope.sqlite", "SELECT 1", 30.0, pool)


def test_fixture_filter(concert_db, pool):
    rows = execute_sql(concert_db, "SELECT age FROM singer WHERE age > 30", 30.0, pool)
    assert sorted(rows) == [(33,), (40,)]


# cross join explosion; 5^12 rows would take far longer than 0.2 s
SLOW = (
    "SELECT count(*) FROM singer a, singer b, singer c, singer d, singer e, "
    "singer f, singer g, singer h, singer i, singer j, singer k, singer l"
)
# 5^4 rows: done well within 0.2 s, in more than PROGRESS_STEPS VM steps
FAST = "SELECT count(*) FROM singer a, singer b, singer c, singer d"


def test_timeout_interrupts(concert_db, pool):
    with pytest.raises(ExecTimeout, match=r"^query exceeded 0\.2s$"):
        execute_sql(concert_db, SLOW, 0.2, pool)


def test_execute_sql_starts_no_thread(concert_db, pool, monkeypatch):
    def refuse(self):
        raise RuntimeError("execute_sql started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert execute_sql(concert_db, "SELECT count(*) FROM singer", 30.0, pool) == [(5,)]
    with pytest.raises(ExecError):
        execute_sql(concert_db, "SELECT zzz FROM singer", 30.0, pool)
    slow = (
        "SELECT count(*) FROM singer a, singer b, singer c, singer d, singer e, "
        "singer f, singer g, singer h, singer i, singer j, singer k, singer l"
    )
    with pytest.raises(ExecTimeout):
        execute_sql(concert_db, slow, 0.2, pool)


def record_connections(monkeypatch) -> list[sqlite3.Connection]:
    """Every connection ``sqlite3.connect`` opens from now on, in order."""
    opened: list[sqlite3.Connection] = []
    connect = sqlite3.connect

    def recording(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", recording)
    return opened


def assert_closed(connection: sqlite3.Connection) -> None:
    with pytest.raises(sqlite3.ProgrammingError):
        connection.execute("SELECT 1")


def test_evaluate_opens_one_connection_per_database(databases_root, monkeypatch):
    opened = record_connections(monkeypatch)
    dataset = [
        {"question": f"q{i}", "db_id": db_id, "query": query}
        for i, (db_id, query) in enumerate(
            [("concert_singer", "SELECT name FROM singer"), ("shop", "SELECT name FROM employee")] * 10
        )
    ]
    report = evaluate(dataset, [item["query"] for item in dataset], databases_root,
                      perturbed=[item["query"] for item in dataset])
    assert report.ex_pct == 100.0 and all(report.robustness)
    assert len(opened) == 2
    for connection in opened:
        assert_closed(connection)


def test_evaluate_closes_its_connections_when_an_item_raises(databases_root, monkeypatch):
    opened = record_connections(monkeypatch)
    dataset = [
        {"question": "q0", "db_id": "concert_singer", "query": "SELECT name FROM singer"},
        {"question": "q1", "db_id": "shop", "query": "SELECT name FROM employee"},
        {"db_id": "shop", "query": "SELECT name FROM employee"},  # no question: KeyError
    ]
    with pytest.raises(KeyError):
        evaluate(dataset, [item["query"] for item in dataset], databases_root)
    assert len(opened) == 2
    for connection in opened:
        assert_closed(connection)


def test_timeout_on_a_reused_connection(databases_root, monkeypatch):
    opened = record_connections(monkeypatch)
    dataset = [
        {"question": "q0", "db_id": "concert_singer", "query": "SELECT name FROM singer"},
        {"question": "q1", "db_id": "concert_singer", "query": FAST},
    ]
    report = evaluate(dataset, [SLOW, FAST], databases_root, timeout=0.2)
    assert len(opened) == 1
    first, second = report.records
    assert not first.ex and "query exceeded" in first.error
    assert second.ex and second.error is None


def test_execute_sql_runs_each_statement_under_its_own_deadline(concert_db, pool):
    with pytest.raises(ExecTimeout):
        execute_sql(concert_db, SLOW, 0.2, pool)
    assert execute_sql(concert_db, FAST, 0.2, pool) == [(625,)]


NON_READS = ["CREATE TEMP TABLE x(a)", "PRAGMA case_sensitive_like=1", "BEGIN", "ATTACH ':memory:' AS m"]


def test_non_read_predictions_are_execution_errors(databases_root):
    gold = "SELECT name FROM singer WHERE age > 100"  # an empty result
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold} for i in range(4)]
    report = evaluate(dataset, NON_READS, databases_root)
    for record in report.records:
        assert not record.ex and "not authorized" in record.error, record.pred_sql


EMPTY_RESULT = "SELECT name FROM singer WHERE age > 100"


@pytest.mark.parametrize("pred_sql", ["", "-- c", ";"])
def test_a_statement_that_runs_nothing_misses_an_empty_gold_result(databases_root, pred_sql):
    dataset = [{"question": "q", "db_id": "concert_singer", "query": EMPTY_RESULT}]
    [record] = evaluate(dataset, [pred_sql], databases_root).records
    assert not record.ex
    assert record.error == "statement returns no result table"


def test_zero_row_reads_still_return_no_rows(concert_db, pool):
    assert execute_sql(concert_db, EMPTY_RESULT, 30.0, pool) == []
    assert execute_sql(concert_db, f"WITH old AS ({EMPTY_RESULT}) SELECT * FROM old", 30.0, pool) == []


def test_an_empty_perturbed_statement_fails_robustness(databases_root, concert_db):
    dataset = [{"question": "q", "db_id": "concert_singer", "query": EMPTY_RESULT}]
    report = evaluate(dataset, [EMPTY_RESULT], databases_root, perturbed=[""])
    verdict = robustness_check(EMPTY_RESULT, "", concert_db)
    assert report.robustness == [verdict]
    assert verdict.reason == "perturbed SQL failed: statement returns no result table"


def test_an_empty_gold_statement_is_excluded(databases_root):
    dataset = [{"question": "q", "db_id": "concert_singer", "query": ""}]
    report = evaluate(dataset, [""], databases_root)
    assert (report.excluded, report.scored) == (1, 0)
    assert report.records[0].error == "gold execution failed: statement returns no result table"


def test_a_denied_statement_leaves_nothing_for_the_next(databases_root, concert_db, pool):
    with pytest.raises(ExecError) as fresh:
        execute_sql(concert_db, "SELECT * FROM x", 30.0, pool)
    gold = "SELECT name FROM singer"
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold} for i in range(2)]
    report = evaluate(dataset, ["CREATE TEMP TABLE x(a)", "SELECT * FROM x"], databases_root)
    assert "not authorized" in report.records[0].error
    assert report.records[1].error == str(fresh.value)


def test_cell_cap(concert_db, pool):
    assert evaluation.MAX_CELL_BYTES == 1_000_000
    with pytest.raises(ExecError, match="string or blob too big"):
        execute_sql(concert_db, "SELECT hex(zeroblob(600000))", 30.0, pool)  # 1,200,000 bytes
    assert execute_sql(concert_db, "SELECT length(hex(zeroblob(400000)))", 30.0, pool) == [(800000,)]


def test_row_cap(databases_root, concert_db, pool, monkeypatch):
    monkeypatch.setattr(evaluation, "MAX_ROWS", 5)
    assert len(execute_sql(concert_db, "SELECT name FROM singer", 30.0, pool)) == 5
    monkeypatch.setattr(evaluation, "MAX_ROWS", 4)
    with pytest.raises(ExecError, match="cap of 4 rows"):
        execute_sql(concert_db, "SELECT name FROM singer", 30.0, pool)
    dataset = [{"question": "q", "db_id": "concert_singer", "query": "SELECT name FROM singer"}]
    report = evaluate(dataset, ["SELECT name FROM singer WHERE age > 30"], databases_root)
    assert report.records[0].excluded
    assert "cap of 4 rows" in report.records[0].error


def test_result_byte_cap(concert_db, pool, monkeypatch):
    assert evaluation.MAX_RESULT_BYTES == 100_000_000
    # 300 rows of a 10,000-byte blob and a 1-character string: 3,000,300 in all
    many = ("WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 300) "
            "SELECT zeroblob(10000), 'x' FROM r")
    assert len(execute_sql(concert_db, many, 30.0, pool)) == 300
    monkeypatch.setattr(evaluation, "MAX_RESULT_BYTES", 3_000_300)
    assert len(execute_sql(concert_db, many, 30.0, pool)) == 300
    monkeypatch.setattr(evaluation, "MAX_RESULT_BYTES", 3_000_299)
    with pytest.raises(ExecError, match="cap of 3000299 bytes"):
        execute_sql(concert_db, many, 30.0, pool)
    # a result of one batch cannot reach the cap, and is not counted
    monkeypatch.setattr(evaluation, "MAX_RESULT_BYTES", 100_000_000)
    monkeypatch.setattr(evaluation, "_result_bytes", None)
    assert len(execute_sql(concert_db, "SELECT name, country FROM singer", 30.0, pool)) == 5


def test_result_byte_cap_counts_numbers_and_nulls(concert_db, pool, monkeypatch):
    cell = evaluation.NUMBER_CELL_BYTES
    assert cell < evaluation.MAX_CELL_BYTES  # so one batch still cannot pass the cap
    # 300 rows of an integer, a real, a NULL, a 2-character string and a 1-byte blob
    mixed = ("WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 300) "
             "SELECT i, i * 1.5, NULL, 'ab', x'00' FROM r")
    size = 300 * (3 * cell + 3)
    monkeypatch.setattr(evaluation, "MAX_RESULT_BYTES", size)
    assert len(execute_sql(concert_db, mixed, 30.0, pool)) == 300
    monkeypatch.setattr(evaluation, "MAX_RESULT_BYTES", size - 1)
    with pytest.raises(ExecError, match=f"cap of {size - 1} bytes"):
        execute_sql(concert_db, mixed, 30.0, pool)
    # 2,000 rows of 200 integers hold about 16 MB, and no string or blob
    wide = ("WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 2000) SELECT "
            + ", ".join(f"i * 1000 + {k}" for k in range(200)) + " FROM r")
    monkeypatch.setattr(evaluation, "MAX_RESULT_BYTES", 1_000_000)
    with pytest.raises(ExecError, match="cap of 1000000 bytes"):
        execute_sql(concert_db, wide, 30.0, pool)


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


def test_execute_sql_never_parses(databases_root, concert_db, pool, monkeypatch):
    def refuse(sql):
        raise RuntimeError("execute_sql parsed a statement")

    monkeypatch.setattr("solidql.evaluation.parse_sql", refuse)
    ordered = "SELECT name FROM singer ORDER BY age"
    assert len(execute_sql(concert_db, ordered, 30.0, pool)) == 5 and has_top_level_order_by(ordered)
    nested = "SELECT name FROM singer WHERE age IN (SELECT age FROM singer ORDER BY age)"
    assert len(execute_sql(concert_db, nested, 30.0, pool)) == 5 and not has_top_level_order_by(nested)
    dataset = [{"question": "q", "db_id": "concert_singer", "query": ordered}]
    report = evaluate(dataset, [ordered], databases_root, perturbed=[ordered])
    assert report.records[0].ex and all(report.robustness)


def count_order_by_scans(monkeypatch) -> list[str]:
    """Every statement ``evaluation`` scans for a top-level ORDER BY from now on."""
    scanned: list[str] = []
    scan = evaluation.has_top_level_order_by

    def counting(sql):
        scanned.append(sql)
        return scan(sql)

    monkeypatch.setattr(evaluation, "has_top_level_order_by", counting)
    return scanned


def test_evaluate_scans_only_reference_statements_for_order_by(databases_root, monkeypatch):
    # (gold, clean prediction, perturbed prediction)
    triples = [
        ("SELECT name FROM singer ORDER BY age", "SELECT name FROM singer ORDER BY age",
         "SELECT name FROM singer ORDER BY age DESC"),
        ("SELECT age FROM singer", "SELECT age FROM singer ORDER BY age",
         "SELECT age FROM singer ORDER BY age ASC"),
        ("SELECT broken FROM nowhere", "SELECT name FROM singer", "SELECT name FROM singer"),
        ("SELECT name FROM singer", "SELECT zzz FROM singer", "SELECT name FROM singer"),
        ("SELECT name FROM singer", "SELECT name FROM singer", "SELECT zzz FROM singer"),
    ]
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold}
               for i, (gold, _, _) in enumerate(triples)]
    clean = [c for _, c, _ in triples]
    perturbed = [p for _, _, p in triples]
    scanned = count_order_by_scans(monkeypatch)
    report = evaluate(dataset, clean, databases_root)
    assert [record.ex for record in report.records] == [True, True, False, False, True]
    # gold statements, and only those that are compared: not an excluded item's, a failed
    # prediction's or one whose prediction is the same text
    assert scanned == [triples[1][0]]
    assert len(scanned) <= len(dataset)
    scanned.clear()
    report = evaluate(dataset, clean, databases_root, perturbed=perturbed)
    assert [bool(verdict) for verdict in report.robustness] == [False, True, True, False, False]
    # each clean prediction whose rows meet a perturbed statement of other text, then the gold
    # statement when it differs from the prediction
    assert scanned == [clean[0], clean[1], triples[1][0]]
    assert len(scanned) <= 2 * len(dataset)


def count_executions(monkeypatch) -> list[str]:
    """Every statement ``evaluation`` executes from now on, in order."""
    executed: list[str] = []

    def counting(db_path, sql, timeout, connections):
        executed.append(sql)
        return execute_sql(db_path, sql, timeout, connections)

    monkeypatch.setattr(evaluation, "execute_sql", counting)
    return executed


def run_alone(db, sql, timeout=30.0):
    """One statement's rows, or None and its error, on a fresh connection."""
    with evaluation.Connections() as connections:
        try:
            return execute_sql(db, sql, timeout, connections), None
        except ExecError as exc:
            return None, str(exc)


def oracle(item, clean, perturbed, db):
    """The record and verdict of one item, each statement run alone, nothing reused."""
    gold, gold_error = run_alone(db, item["query"])
    pred, error = run_alone(db, clean)
    scored = gold is not None
    record = evaluation.EvalRecord(
        question=item["question"], db_id=item["db_id"], gold_sql=item["query"], pred_sql=clean,
        ex=scored and pred is not None and tables_match(pred, gold, has_top_level_order_by(item["query"])),
        em=scored and exact_match(clean, item["query"]),
        error=error if scored else f"gold execution failed: {gold_error}",
        excluded=not scored,
    )
    if pred is None:
        return record, evaluation.RobustnessVerdict(False, f"clean SQL failed: {error}")
    rows, error = run_alone(db, perturbed)
    if rows is None:
        return record, evaluation.RobustnessVerdict(False, f"perturbed SQL failed: {error}")
    if tables_match(rows, pred, has_top_level_order_by(clean)):
        return record, evaluation.RobustnessVerdict(True)
    return record, evaluation.RobustnessVerdict(False, "result tables differ")


OVER_30 = "SELECT name FROM singer WHERE age > 30"
FROM_31 = "SELECT name FROM singer WHERE age >= 31"
BY_AGE = "SELECT name FROM singer ORDER BY age"
FAILS = "SELECT zzz FROM singer"


@pytest.mark.parametrize("gold, clean, perturbed, executions", [
    (OVER_30, OVER_30, OVER_30, 1),
    (OVER_30, OVER_30, FROM_31, 2),
    (OVER_30, FROM_31, FROM_31, 2),
    (OVER_30, FROM_31, OVER_30, 2),
    (OVER_30, FROM_31, BY_AGE, 3),
    (FAILS, FAILS, OVER_30, 1),  # a failed clean statement leaves the perturbed one unrun
    (OVER_30, FAILS, FAILS, 2),
])
def test_evaluate_runs_each_distinct_statement_once(databases_root, concert_db, monkeypatch,
                                                     gold, clean, perturbed, executions):
    dataset = [{"question": "q", "db_id": "concert_singer", "query": gold}]
    record, verdict = oracle(dataset[0], clean, perturbed, concert_db)
    executed = count_executions(monkeypatch)
    report = evaluate(dataset, [clean], databases_root, perturbed=[perturbed])
    assert len(executed) == executions
    assert report.records == [record] and report.robustness == [verdict]


def test_one_text_runs_once_and_shares_its_outcome(databases_root, concert_db, monkeypatch):
    executed = count_executions(monkeypatch)
    assert robustness_check(OVER_30, OVER_30, concert_db) and executed == [OVER_30]
    # one run per text: a nondeterministic statement matches itself
    executed.clear()
    random_row = "SELECT random()"
    dataset = [{"question": "q", "db_id": "concert_singer", "query": random_row}]
    [record] = evaluate(dataset, [random_row], databases_root).records
    assert record.ex and executed == [random_row]
    # a timed-out text is not run again, under a second deadline, for the equal prediction
    executed.clear()
    dataset = [{"question": "q", "db_id": "concert_singer", "query": SLOW}]
    report = evaluate(dataset, [SLOW], databases_root, timeout=0.2, perturbed=[SLOW])
    assert executed == [SLOW]
    [record], [verdict] = report.records, report.robustness
    assert record.excluded and "query exceeded" in record.error
    assert not verdict and "query exceeded" in verdict.reason


def ex_verdicts(pairs, databases_root):
    """The EX verdict ``evaluate`` gives each (pred, gold) pair on concert_singer."""
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold}
               for i, (_, gold) in enumerate(pairs)]
    report = evaluate(dataset, [pred for pred, _ in pairs], databases_root)
    return [record.ex for record in report.records]


@pytest.mark.parametrize("root_name", ["uri#test", "uri%41test", "uri?test"])
def test_a_databases_root_of_uri_characters_opens_read_only(tmp_path, root_name):
    root = tmp_path / root_name
    database = root / "db" / "db.sqlite"
    database.parent.mkdir(parents=True)
    with closing(sqlite3.connect(database)) as connection:
        connection.executescript("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
    dataset = [{"question": "q", "db_id": "db", "query": "SELECT a FROM t"}]
    [record] = evaluate(dataset, ["SELECT a FROM t ORDER BY a DESC"], root).records
    assert (record.ex, record.error, record.excluded) == (True, None, False)
    assert sorted(tmp_path.rglob("*")) == [root, root / "db", database]  # nothing opened elsewhere
    with evaluation.Connections() as connections:
        connection = connections.get(database)
        connection.set_authorizer(None)  # below the authorizer, the file itself is opened read-only
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            connection.execute("INSERT INTO t VALUES (3)")


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
    assert not tables_match([(None,)], [("",)], False)
    assert tables_match([(0.30000000004,)], [(0.3,)], False)
    assert not tables_match([(0.31,)], [(0.3,)], False)


def test_blob_cells_compare_by_their_bytes():
    assert tables_match([(b"\x00\x01",), (None,)], [(None,), (b"\x00\x01",)], False)
    assert not tables_match([(b"\x00\x01",)], [(b"\x00\x02",)], False)
    # a BLOB equals no text or number, its hex digits and its value included
    assert not tables_match([(b"\x00\x01",)], [("0001",)], False)
    assert not tables_match([(b"a",)], [("a",)], False)
    assert not tables_match([(b"\x01",)], [(1,)], False)


def test_arity_mismatch_is_false():
    assert not tables_match([(1, 2)], [(1,)], False)
    assert not tables_match([(1, 2)], [(1,)], True)


def test_tables_match_takes_row_order_from_its_argument():
    assert tables_match([(1,), (2,)], [(2,), (1,)], False)
    assert not tables_match([(1,), (2,)], [(2,), (1,)], True)
    assert tables_match([(1, "a"), (2, "b")], [("a", 1), ("b", 2)], True)
    assert not tables_match([(1,), (1,), (2,)], [(1,), (2,), (2,)], False)


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


def test_exact_match_keeps_the_case_of_a_double_quoted_value(tmp_path):
    # SQLite reads a double-quoted name that matches no column as a string
    db = tmp_path / "cities.sqlite"
    with closing(sqlite3.connect(db)) as connection:
        connection.execute("CREATE TABLE t (a TEXT, b TEXT)")
        connection.execute("INSERT INTO t VALUES ('x', 'Paris')")
        connection.commit()
    upper, lower = 'SELECT a FROM t WHERE b = "Paris"', 'SELECT a FROM t WHERE b = "paris"'
    with evaluation.Connections() as pool:
        assert execute_sql(db, upper, 30.0, pool) == [("x",)]
        assert execute_sql(db, lower, 30.0, pool) == []
    assert not exact_match(upper, lower)
    assert exact_match(upper, 'select A from "T" where B = "Paris"')


def test_exact_match_of_equal_texts_never_parses(monkeypatch):
    def refuse(sql):
        raise RuntimeError("exact_match parsed a statement")

    monkeypatch.setattr("solidql.evaluation.parse_sql", refuse)
    sql = "SELECT name FROM singer WHERE age > 30"
    assert exact_match(sql, sql)


_PREDICATE_ENDS = {"group", "order", "limit", "union", "intersect", "except"}


def _restyled(sql: str) -> str:
    """``sql`` with every whitespace run changed, the case of every keyword
    and identifier swapped, each WHERE predicate put in parentheses and a
    trailing ``;``; quoted spans and comments are left alone."""
    parts = []
    depth = 0
    where_depths = []  # the parenthesis depth of each WHERE whose predicate is open
    for match in TOKEN.finditer(sql):
        text = match.group()
        if where_depths and where_depths[-1] == depth and (
            text == ")" or match.lastgroup == IDENT and text.lower() in _PREDICATE_ENDS
        ):
            parts.append(") ")
            where_depths.pop()
        if match.lastgroup == SKIP and text.isspace():
            text = " \n\t "
        elif match.lastgroup == IDENT:
            text = text.swapcase()
        parts.append(text)
        depth += (text == "(") - (text == ")")
        if text.lower() == "where":
            parts.append(" (")
            where_depths.append(depth)
    return "".join(parts) + ")" * len(where_depths) + " ;"


def test_exact_match_implies_ex(databases_root, parser_corpus):
    # each corpus query against a different text of the same canonical form
    dataset = [{"question": f"q{i}", "db_id": item["db_id"], "query": item["query"]}
               for i, item in enumerate(parser_corpus) if (databases_root / item["db_id"]).is_dir()]
    assert {item["db_id"] for item in dataset} == {"concert_singer", "shop"}
    preds = [_restyled(item["query"]) for item in dataset]
    assert sum("where (" in pred for pred in preds) >= 15
    for pred, item in zip(preds, dataset):
        assert pred != item["query"] and exact_match(pred, item["query"]), pred
    report = evaluate(dataset, preds, databases_root)
    assert [record.ex for record in report.records] == [True] * len(dataset)


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
    # row order counts only under the clean statement's ORDER BY
    assert robustness_check(
        "SELECT age FROM singer", "SELECT age FROM singer ORDER BY age DESC", concert_db
    )
    assert not robustness_check(
        "SELECT age FROM singer ORDER BY age", "SELECT age FROM singer ORDER BY age DESC", concert_db
    )


def test_robustness_check_runs_both_statements_on_one_connection(concert_db, monkeypatch):
    opened = record_connections(monkeypatch)
    assert robustness_check("SELECT name FROM singer", "SELECT name FROM singer", concert_db)
    assert len(opened) == 1
    assert_closed(opened[0])
    verdict = robustness_check("SELECT zzz FROM singer", "SELECT name FROM singer", concert_db)
    assert not verdict and "clean" in verdict.reason
    assert len(opened) == 2
    assert_closed(opened[1])


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


def test_report_table_prints_a_line_per_flag(databases_root):
    dataset = [{"question": f"q{i}", "db_id": "shop", "query": "SELECT name FROM employee"}
               for i in range(3)]
    flags = [("skeleton_rule_fallback", "round2_retrieval_fallback"), (), ("skeleton_rule_fallback",)]
    report = evaluate(dataset, ["SELECT name FROM employee"] * 3, databases_root, flags=flags)
    assert report.table().splitlines()[5:] == [
        "round2_retrieval_fallback  1",
        "  skeleton_rule_fallback  2",
    ]


def test_write_report_is_deterministic(databases_root, tmp_path):
    dataset = [{"question": "q", "db_id": "shop", "query": "SELECT name FROM employee"}]
    report = evaluate(dataset, ["SELECT name FROM employee"], databases_root,
                      flags=[("round2_retrieval_fallback",)])
    assert report.flag_counts == {"round2_retrieval_fallback": 1}
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, first)
    write_report(report, second)
    assert first.read_bytes() == second.read_bytes()
