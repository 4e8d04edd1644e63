"""Execution-accuracy (EX) and exact-match (EM) scoring plus robustness.

EX compares the result tables of predicted and gold SQL on the target
SQLite database: rows as a multiset, each row canonicalized by sorting
its values so column order never matters, and row order enforced only
when the gold statement has a top-level ORDER BY. That is decided by a
scan of the statement's text, so executing a statement never parses it.
EM is whole-statement equality after canonical re-rendering (lowercase
identifiers/keywords, collapsed whitespace, no trailing semicolon).

Queries run on read-only connections with a per-query timeout; LLM
output can be pathological.
"""

from __future__ import annotations

import json
import logging
import re
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

from .errors import ExecError, ExecTimeout, ParseError
from .jsonl import write_lines
from .sql.parser import parse_sql
from .sql.render import render_sql

logger = logging.getLogger(__name__)

FLOAT_DECIMALS = 6  # comparison tolerance convention
PROGRESS_STEPS = 1000  # SQLite VM steps between deadline checks


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[tuple, ...]
    ordered: bool


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


def execute_sql(db_path: str | Path, sql: str, timeout: float = 30.0) -> ResultTable:
    """Run one statement read-only and capture its result table.

    Raises:
        ExecError: missing database, syntax or runtime failure.
        ExecTimeout: the query exceeded ``timeout`` seconds.
    """
    path = Path(db_path)
    if not path.exists():
        raise ExecError(f"database not found: {path}")
    try:
        connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise ExecError(f"cannot open database {path}: {exc}") from exc
    deadline = time.monotonic() + timeout
    timed_out = False

    def past_deadline() -> bool:
        nonlocal timed_out
        timed_out = time.monotonic() > deadline
        return timed_out

    connection.set_progress_handler(past_deadline, PROGRESS_STEPS)
    try:
        cursor = connection.execute(sql)
        rows = tuple(tuple(row) for row in cursor.fetchall())
    except sqlite3.Error as exc:
        if timed_out:
            raise ExecTimeout(f"query exceeded {timeout:.0f}s") from exc
        raise ExecError(str(exc)) from exc
    finally:
        connection.close()
    return ResultTable(rows=rows, ordered=has_top_level_order_by(sql))


# One token per match: a quoted span ('…', "…", `…` or […], possibly
# unterminated), a comment, a word, or any other single character.
_TOKEN = re.compile(
    r"""'[^']*'?|"[^"]*"?|`[^`]*`?|\[[^\]]*\]?|--[^\n]*|/\*.*?(?:\*/|\Z)|\w+|\S""",
    re.DOTALL,
)


def has_top_level_order_by(sql: str) -> bool:
    """True when the statement's outermost query carries ORDER BY.

    One scan of the text: quoted spans and comments are skipped, and the
    first ``order`` ``by`` word pair outside all parentheses decides.
    Any text is accepted, including statements the parser rejects.
    """
    depth = 0
    previous = ""
    for match in _TOKEN.finditer(sql):
        token = match.group().lower()
        if token.startswith(("--", "/*")):
            continue
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


def tables_match(pred: ResultTable, gold: ResultTable) -> bool:
    """Compare result tables under the gold statement's order semantics."""
    if pred.rows and gold.rows and len(pred.rows[0]) != len(gold.rows[0]):
        return False
    pred_rows = [_canonical_row(row) for row in pred.rows]
    gold_rows = [_canonical_row(row) for row in gold.rows]
    if gold.ordered:
        return pred_rows == gold_rows
    return sorted(pred_rows) == sorted(gold_rows)


def _run(db_path: str | Path, sql: str, timeout: float) -> tuple[ResultTable | None, str | None]:
    """The statement's result table, or None and the execution error."""
    try:
        return execute_sql(db_path, sql, timeout), None
    except ExecError as exc:
        return None, str(exc)


def canonical_sql(sql: str) -> str:
    """Canonical whole-statement form; string-normalized when unparseable."""
    stripped = sql.strip().rstrip(";").strip()
    try:
        return render_sql(parse_sql(stripped), canonical=True)
    except ParseError:
        return " ".join(stripped.lower().split())


def exact_match(pred_sql: str, gold_sql: str) -> bool:
    return canonical_sql(pred_sql) == canonical_sql(gold_sql)


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
    """True iff the clean and perturbed runs access the database identically."""
    clean, error = _run(db_path, final_sql_clean, timeout)
    return _robustness_verdict(clean, error, final_sql_perturbed, db_path, timeout)


def _robustness_verdict(clean: ResultTable | None, clean_error: str | None,
                        final_sql_perturbed: str, db_path: str | Path,
                        timeout: float) -> RobustnessVerdict:
    """Verdict for a perturbed statement against the clean run's outcome."""
    if clean is None:
        return RobustnessVerdict(False, f"clean SQL failed: {clean_error}")
    perturbed, error = _run(db_path, final_sql_perturbed, timeout)
    if perturbed is None:
        return RobustnessVerdict(False, f"perturbed SQL failed: {error}")
    if tables_match(perturbed, clean):
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

    Each item runs its gold statement and its prediction once. Items
    whose gold SQL fails to execute are excluded from the percentages
    and counted separately. With ``perturbed`` (the final SQL of a
    paired run on perturbed questions), each item also gets the
    :func:`robustness_check` verdict, computed against the prediction's
    result table; excluded items count toward robustness too.
    """
    if len(dataset) != len(predictions):
        raise ValueError(f"{len(dataset)} dataset items vs {len(predictions)} predictions")
    if perturbed is not None and len(perturbed) != len(predictions):
        raise ValueError(f"{len(predictions)} predictions vs {len(perturbed)} perturbed")
    robustness: list[RobustnessVerdict] | None = [] if perturbed is not None else None
    records: list[EvalRecord] = []
    for i, (item, pred_sql) in enumerate(zip(dataset, predictions)):
        db_path = database_path(databases_root, item["db_id"])
        gold_table, gold_error = _run(db_path, item["query"], timeout)
        pred_table, error = _run(db_path, pred_sql, timeout)
        if robustness is not None:
            robustness.append(_robustness_verdict(pred_table, error, perturbed[i], db_path, timeout))
        excluded = gold_table is None
        if excluded:
            logger.warning("excluding item %d (gold SQL failed): %s", i, gold_error)
            ex = em = False
            error = f"gold execution failed: {gold_error}"
        else:
            ex = pred_table is not None and tables_match(pred_table, gold_table)
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
