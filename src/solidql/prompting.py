"""Prompt assembly for SQL generation and completion post-parsing.

The generation prompt always carries the full schema DDL; when focus is
enabled and the linked subset is non-empty, one extra line marks the
subset with the literal ``focus on`` so the model sees priorities
without losing the rest of the schema. Templates live as versioned
files under ``templates/``; everything substituted into them is
deterministic, so identical inputs produce byte-identical prompts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from string import Template
from typing import TYPE_CHECKING

from .errors import ExtractError
from .schema import DatabaseSchema, SchemaSubset, render_ddl
from .sql.tokens import SKIP, TOKEN

if TYPE_CHECKING:
    from .retrieval import ExamplePair

FOCUS_MARKER = "focus on"


@lru_cache(maxsize=None)
def load_template(name: str) -> Template:
    text = resources.files("solidql").joinpath(f"templates/{name}.txt").read_text("utf-8")
    return Template(text)


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


def serialize_focus(subset: SchemaSubset) -> str:
    """Render a subset as ``table (table.col, ...)`` groups, sorted."""
    parts: list[str] = []
    for table in sorted(subset.tables):
        columns = sorted(c for c in subset.columns if c.startswith(f"{table}."))
        if columns:
            parts.append(f"{table} ({', '.join(columns)})")
        else:
            parts.append(table)
    return ", ".join(parts)


def render_examples(examples: list[ExamplePair] | tuple[ExamplePair, ...]) -> str:
    lines = ["Examples:"]
    for pair in examples:
        lines.append(f"Q: {pair.question}")
        lines.append(f"SQL: {pair.sql}")
    lines.append("")
    return "\n".join(lines) + "\n"


def build_prompt(
    question: str,
    schema: DatabaseSchema,
    linked: SchemaSubset,
    examples: list[ExamplePair] | tuple[ExamplePair, ...],
    *,
    focus_enabled: bool = True,
) -> PromptBundle:
    """Assemble the SQL-generation prompt.

    Examples must already be in retrieval rank order; they are rendered
    most-similar-first. Disabling focus removes exactly the focus line
    and changes nothing else.
    """
    examples_section = render_examples(examples) if examples else ""
    focus_section = ""
    if focus_enabled and not linked.is_empty:
        focus_section = (
            f"When writing the SQL, {FOCUS_MARKER} these schema elements: "
            f"{serialize_focus(linked)}.\n"
        )
    user = load_template("sql_user_v1").substitute(
        examples_section=examples_section,
        schema_ddl=render_ddl(schema),
        focus_section=focus_section,
        question=question,
    )
    system = load_template("sql_system_v1").template
    return PromptBundle(system=system, user=user)


_FENCE_RE = re.compile(r"```(?:sql)?\s*\n?(.*?)```", re.IGNORECASE | re.DOTALL)
# a statement's first word: ``select``, or a ``with`` that opens a common
# table expression, ``WITH [RECURSIVE] name [(columns)] AS (``
_STATEMENT_RE = re.compile(
    r'\bselect\b|\bwith\s+(?:recursive\s+)?(?:\w+|"[^"]*")\s*(?:\([^)]*\)\s*)?as\s*\(',
    re.IGNORECASE,
)


def parse_sql_from_completion(completion: str) -> str:
    """Extract the first SQL statement from an LLM completion.

    Strips code fences and leading prose. The statement starts at the
    first ``select`` word or ``with`` that heads a common table expression
    (a ``with`` in prose does not), and ends after its first ``;``
    (kept) or before its first blank line, both found with the SQL lexer,
    so that a ``;`` or a blank line inside a string, a quoted identifier
    or a comment does not end it. The returned text is not guaranteed to
    parse.

    Raises:
        ExtractError: when no statement-like span is present.
    """
    candidates = [m.group(1) for m in _FENCE_RE.finditer(completion)]
    candidates.append(completion)
    for text in candidates:
        match = _STATEMENT_RE.search(text)
        if match is None:
            continue
        span = text[match.start() :]
        for token in TOKEN.finditer(span):
            if token.lastgroup == SKIP and "\n\n" in token.group():
                span = span[: token.start()]
                break
            if token.group() == ";":
                span = span[: token.end()]
                break
        span = span.strip().strip("`").strip()
        if span:
            return span
    raise ExtractError("no SQL statement found in completion")
