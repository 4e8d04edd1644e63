"""Execution-accuracy (EX) and exact-match (EM) scoring plus robustness.

EX compares the rows of predicted and gold SQL on the target SQLite
database: as a multiset, each row canonicalized by sorting its values so
column order never matters, and in order only when the reference
statement (gold for EX, the clean prediction for robustness) has a
top-level ORDER BY. One scan of its text per comparison decides that, so
no statement is parsed to run it. EM is whole-statement equality after
canonical re-rendering (lowercase identifiers/keywords, collapsed
whitespace, no trailing semicolon).

Queries run on a ``Connections`` pool, which ``evaluate`` and
``robustness_check`` each keep for the length of the call, of read-only
connections where only read statements are authorized, under a
per-query deadline, a row cap, a cap on the bytes of one string or blob
and one on those of all a result's strings and blobs; LLM output can be
pathological.

Within one item of ``evaluate``, or one ``robustness_check``, each
distinct statement text runs once: gold, prediction and perturbed
statement of equal text share one outcome, so a nondeterministic
statement gets one result per item and a timed-out one is not run again.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Sequence

from .errors import ExecError, ExecTimeout, ParseError
from .jsonl import write_lines
from .sql.parser import parse_sql
from .sql.render import render_sql
from .sql.tokens import SKIP, TOKEN

logger = logging.getLogger(__name__)

FLOAT_DECIMALS = 6  # comparison tolerance convention
PROGRESS_STEPS = 1000  # SQLite VM steps between deadline checks
MAX_ROWS = 100_000  # a larger result table is an execution error
# a longer string or blob is an execution error
MAX_CELL_BYTES = 1_000_000
# a result whose cells count more bytes in all is an execution error
MAX_RESULT_BYTES = 100_000_000
# what a cell that is not a string or blob (a number or NULL) counts: as
# much as an int cell holds in memory, its object and its slot in the row
NUMBER_CELL_BYTES = 40


@dataclass(frozen=True)
class EvalRecord:
    question: str
    db_id: str
    gold_sql: str
    pred_sql: str
    ex: bool
    em: bool
    error: str | None = None
    excluded: bool = False
    flags: tuple[str, ...] = ()


def database_path(databases_root: str | Path, db_id: str) -> Path:
    return Path(databases_root) / db_id / f"{db_id}.sqlite"


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)


def _authorize_reads(action: int, *_) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ACTIONS else sqlite3.SQLITE_DENY


class Connections:
    """Read-only connections, one per database path, each opened on first use.

    Only read actions are authorized on them, so no statement can leave a
    temp table, a PRAGMA setting, an ATTACH or an open transaction for a
    later statement on the same connection to see.
    """

    def __init__(self) -> None:
        self._open: dict[str | Path, sqlite3.Connection] = {}

    def get(self, db_path: str | Path) -> sqlite3.Connection:
        connection = self._open.get(db_path)
        if connection is None:
            path = Path(db_path)
            if not path.exists():
                raise ExecError(f"database not found: {path}")
            try:
                # as_uri percent-encodes the path, so a '#', '%' or '?' in it stays in the path
                connection = sqlite3.connect(path.resolve().as_uri() + "?mode=ro", uri=True, cached_statements=0)
            except sqlite3.Error as exc:
                raise ExecError(f"cannot open database {path}: {exc}") from exc
            connection.set_authorizer(_authorize_reads)
            connection.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_CELL_BYTES)
            self._open[db_path] = connection
        return connection

    def close(self) -> None:
        for connection in self._open.values():
            connection.close()
        self._open.clear()

    def __enter__(self) -> Connections:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def execute_sql(db_path: str | Path, sql: str, timeout: float,
                connections: Connections) -> list[tuple]:
    """The rows of one read statement, run on the database's connection
    in ``connections``.

    Raises:
        ExecError: missing database, a statement that is not a read or
            returns no result table, a result of more than ``MAX_ROWS``
            rows, a string or blob of more than ``MAX_CELL_BYTES`` bytes,
            cells of more than ``MAX_RESULT_BYTES`` bytes in all, each
            string and blob counted at its length and every other cell at
            ``NUMBER_CELL_BYTES``,
            text that is not encodable as UTF-8 (a lone surrogate),
            syntax or runtime failure.
        ExecTimeout: the query exceeded ``timeout`` seconds.
    """
    connection = connections.get(db_path)
    deadline = time.monotonic() + timeout
    timed_out = False

    def past_deadline() -> bool:
        nonlocal timed_out
        timed_out = time.monotonic() > deadline
        return timed_out

    connection.set_progress_handler(past_deadline, PROGRESS_STEPS)
    cursor = connection.cursor()
    size = 0  # the bytes of the cells fetched (``_result_bytes``), once a second batch is due
    try:
        description = cursor.execute(sql).description
        if description is None:  # empty or comment-only: nothing ran
            raise ExecError("statement returns no result table")
        # no cell counts more than MAX_CELL_BYTES (NUMBER_CELL_BYTES is below
        # it), so one batch cannot pass the byte cap and is not counted alone
        batch = max(1, MAX_RESULT_BYTES // (MAX_CELL_BYTES * len(description)))
        rows = cursor.fetchmany(batch)
        if len(rows) == batch:
            size = _result_bytes(rows)
            while size <= MAX_RESULT_BYTES and len(rows) <= MAX_ROWS:
                fetched = cursor.fetchmany(batch)
                rows += fetched
                size += _result_bytes(fetched)
                if len(fetched) < batch:
                    break
    except (sqlite3.Error, UnicodeEncodeError) as exc:  # the text is encoded as UTF-8 first
        if timed_out:
            raise ExecTimeout(f"query exceeded {timeout:g}s") from exc
        raise ExecError(str(exc)) from exc
    finally:
        cursor.close()
    if len(rows) > MAX_ROWS:
        raise ExecError(f"result exceeds the cap of {MAX_ROWS} rows")
    if size > MAX_RESULT_BYTES:
        raise ExecError(f"result exceeds the cap of {MAX_RESULT_BYTES} bytes")
    return rows


def _result_bytes(rows: list[tuple]) -> int:
    """The summed lengths of the strings and blobs in ``rows``, plus
    ``NUMBER_CELL_BYTES`` for each other cell."""
    cells = list(chain.from_iterable(rows))
    texts = list(compress(cells, map(isinstance, cells, repeat((str, bytes)))))
    return sum(map(len, texts)) + (len(cells) - len(texts)) * NUMBER_CELL_BYTES


def has_top_level_order_by(sql: str) -> bool:
    """True when the statement's outermost query carries ORDER BY.

    One scan of the text with the parser's token pattern, building no
    tokens and never raising: quoted spans and comments are single
    matches, an unterminated one runs to the end of the text, and the
    first ``order`` ``by`` word pair outside all parentheses decides.
    Any text is accepted, including statements the parser rejects.
    """
    depth = 0
    previous = ""
    for match in TOKEN.finditer(sql):
        if match.lastgroup == SKIP:
            continue
        token = match.group().lower()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        elif depth == 0 and previous == "order" and token == "by":
            return True
        previous = token if depth == 0 else ""
    return False


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


def _canonical_value(value) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, round(float(value), FLOAT_DECIMALS))
    if isinstance(value, bytes):
        return (3, value.hex())
    return (2, str(value))


def _canonical_row(row: tuple) -> tuple:
    return tuple(sorted(_canonical_value(v) for v in row))


def tables_match(pred_rows: Sequence[tuple], gold_rows: Sequence[tuple], ordered: bool) -> bool:
    """Compare result rows in order when ``ordered`` (the reference statement
    has a top-level ORDER BY), else as multisets."""
    if pred_rows and gold_rows and len(pred_rows[0]) != len(gold_rows[0]):
        return False
    pred = [_canonical_row(row) for row in pred_rows]
    gold = [_canonical_row(row) for row in gold_rows]
    if ordered:
        return pred == gold
    return sorted(pred) == sorted(gold)


Outcome = tuple[list[tuple] | None, str | None]


def _run(db_path: str | Path, sql: str, timeout: float, connections: Connections,
         outcomes: dict[str, Outcome]) -> Outcome:
    """The statement's rows, or None and the execution error, kept in
    ``outcomes`` so that each text executes once."""
    outcome = outcomes.get(sql)
    if outcome is None:
        try:
            outcome = execute_sql(db_path, sql, timeout, connections), None
        except ExecError as exc:
            outcome = None, str(exc)
        outcomes[sql] = outcome
    return outcome


def _rows_match(rows: list[tuple], reference: list[tuple], reference_sql: str) -> bool:
    """``tables_match`` under the reference statement's ORDER BY; one run's rows match unscanned."""
    return rows is reference or tables_match(rows, reference, has_top_level_order_by(reference_sql))


def canonical_sql(sql: str) -> str:
    """Canonical whole-statement form; string-normalized when unparseable."""
    stripped = sql.strip().rstrip(";").strip()
    try:
        return render_sql(parse_sql(stripped), canonical=True)
    except ParseError:
        return " ".join(stripped.lower().split())


def exact_match(pred_sql: str, gold_sql: str) -> bool:
    # canonical_sql is a pure function: equal texts need no parse
    return pred_sql == gold_sql or canonical_sql(pred_sql) == canonical_sql(gold_sql)


# ----------------------------------------------------------------------
# robustness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessVerdict:
    passed: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.passed


def robustness_check(final_sql_clean: str, final_sql_perturbed: str,
                     db_path: str | Path, timeout: float = 30.0) -> RobustnessVerdict:
    """True iff the clean and perturbed runs, on one connection, access the
    database identically: in order if the clean statement has a top-level ORDER BY."""
    with Connections() as connections:
        return _robustness_verdict(final_sql_clean, final_sql_perturbed, db_path, timeout, connections, {})


def _robustness_verdict(final_sql_clean: str, final_sql_perturbed: str, db_path: str | Path,
                        timeout: float, connections: Connections,
                        outcomes: dict[str, Outcome]) -> RobustnessVerdict:
    """Verdict for a perturbed statement against the clean one."""
    clean, error = _run(db_path, final_sql_clean, timeout, connections, outcomes)
    if clean is None:
        return RobustnessVerdict(False, f"clean SQL failed: {error}")
    perturbed, error = _run(db_path, final_sql_perturbed, timeout, connections, outcomes)
    if perturbed is None:
        return RobustnessVerdict(False, f"perturbed SQL failed: {error}")
    if _rows_match(perturbed, clean, final_sql_clean):
        return RobustnessVerdict(True)
    return RobustnessVerdict(False, "result tables differ")


# ----------------------------------------------------------------------
# aggregate evaluation
# ----------------------------------------------------------------------


@dataclass
class EvalReport:
    """Per-item records; every total is computed from them."""

    records: list[EvalRecord]
    robustness: list[RobustnessVerdict] | None = None  # printed, not written

    @property
    def scored(self) -> int:
        return sum(not record.excluded for record in self.records)

    @property
    def excluded(self) -> int:
        return len(self.records) - self.scored

    # An excluded record has ex = em = False, so these sums count scored items only.
    @property
    def ex_pct(self) -> float:
        scored = self.scored
        return 100.0 * sum(record.ex for record in self.records) / scored if scored else 0.0

    @property
    def em_pct(self) -> float:
        scored = self.scored
        return 100.0 * sum(record.em for record in self.records) / scored if scored else 0.0

    @property
    def flag_counts(self) -> dict[str, int]:
        """Items carrying each flag, by flag name."""
        return dict(sorted(Counter(f for record in self.records for f in record.flags).items()))

    @property
    def failed(self) -> bool:
        """True when any item is excluded, misses EX or EM, or fails robustness."""
        missed = any(r.excluded or not (r.ex and r.em) for r in self.records)
        return missed or not all(self.robustness or ())

    def to_dict(self) -> dict:
        return {
            "n": len(self.records),
            "scored": self.scored,
            "excluded": self.excluded,
            "ex_pct": self.ex_pct,
            "em_pct": self.em_pct,
            "flag_counts": self.flag_counts,
        }

    def table(self) -> str:
        lines = [
            f"{'items':>10}  {len(self.records)}",
            f"{'scored':>10}  {self.scored}",
            f"{'excluded':>10}  {self.excluded}",
            f"{'EX':>10}  {self.ex_pct:.1f}",
            f"{'EM':>10}  {self.em_pct:.1f}",
        ]
        for flag, count in self.flag_counts.items():
            lines.append(f"{flag:>24}  {count}")
        if self.robustness is not None:
            passed = sum(map(bool, self.robustness))
            rate = 100.0 * passed / len(self.robustness) if self.robustness else 0.0
            lines.append(f"{'robustness':>10}  {rate:.1f}")
        return "\n".join(lines)


def evaluate(
    dataset: Sequence[dict],
    predictions: Sequence[str],
    databases_root: str | Path,
    *,
    flags: Sequence[Sequence[str]] | None = None,
    timeout: float = 30.0,
    perturbed: Sequence[str] | None = None,
) -> EvalReport:
    """Score aligned (dataset, predictions); length mismatch is fatal.

    Each item runs each distinct text among its gold statement, its
    prediction and its perturbed statement once, so equal texts share
    one outcome (one result, or one timeout) and match uncompared. Items
    whose gold SQL fails to execute are excluded from the percentages
    and counted separately. With ``perturbed`` (the final SQL of a
    paired run on perturbed questions), each item also gets the
    :func:`robustness_check` verdict, computed against the prediction's
    rows; excluded items count toward robustness too. Only those reference
    statements whose rows are compared are scanned for ORDER BY.
    """
    if len(dataset) != len(predictions):
        raise ValueError(f"{len(dataset)} dataset items vs {len(predictions)} predictions")
    if perturbed is not None and len(perturbed) != len(predictions):
        raise ValueError(f"{len(predictions)} predictions vs {len(perturbed)} perturbed")
    robustness: list[RobustnessVerdict] | None = [] if perturbed is not None else None
    records: list[EvalRecord] = []
    db_paths: dict[str, Path] = {}
    with Connections() as connections:
        for i, (item, pred_sql) in enumerate(zip(dataset, predictions)):
            db_path = db_paths.get(item["db_id"])
            if db_path is None:
                db_path = db_paths[item["db_id"]] = database_path(databases_root, item["db_id"])
            outcomes: dict[str, Outcome] = {}
            gold_rows, gold_error = _run(db_path, item["query"], timeout, connections, outcomes)
            pred_rows, error = _run(db_path, pred_sql, timeout, connections, outcomes)
            if robustness is not None:
                robustness.append(_robustness_verdict(pred_sql, perturbed[i], db_path, timeout,
                                                      connections, outcomes))
            excluded = gold_rows is None
            if excluded:
                logger.warning("excluding item %d (gold SQL failed): %s", i, gold_error)
                ex = em = False
                error = f"gold execution failed: {gold_error}"
            else:
                ex = pred_rows is not None and _rows_match(pred_rows, gold_rows, item["query"])
                em = exact_match(pred_sql, item["query"])
            records.append(
                EvalRecord(
                    question=item["question"],
                    db_id=item["db_id"],
                    gold_sql=item["query"],
                    pred_sql=pred_sql,
                    ex=ex,
                    em=em,
                    error=error,
                    excluded=excluded,
                    flags=tuple(flags[i]) if flags is not None else (),
                )
            )
    return EvalReport(records=records, robustness=robustness)


def write_report(report: EvalReport, path: str | Path) -> None:
    """JSON summary plus aligned per-item verdict lines."""
    verdicts = (
        {
            "db_id": record.db_id,
            "em": record.em,
            "error": record.error,
            "ex": record.ex,
            "excluded": record.excluded,
            "flags": list(record.flags),
            "question": record.question,
        }
        for record in report.records
    )
    write_lines(path, (json.dumps(d, sort_keys=True) for d in chain([report.to_dict()], verdicts)))
