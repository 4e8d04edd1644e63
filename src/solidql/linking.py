"""Schema-linking data tooling and predictors.

``triplets_from_dataset`` reads training triplets from dataset items;
``augment_dataset`` expands each with two LLM rewrites of its question
(structure change + synonym substitution), leaving the schema and SQL
untouched, and ``write_augmented_dataset`` writes them in the dataset
format; ``build_sft_dataset`` turns triplets into instruction-tuning
records whose labels come from parsing the gold SQL, and
``write_sft_records`` writes those as JSON lines.
Predictors are pluggable; the trained model itself lives outside this
package, behind the gateway.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .errors import ParseError, PredictorError, ProviderError, ResolutionError, RewriteError
from .gateway import LlmGateway
from .jsonl import write_lines
from .prompting import load_template
from .schema import DatabaseSchema, SchemaSubset, format_subset, item_schemas, parse_subset, render_ddl
from .sql.parser import parse_sql
from .sql.refs import extract_schema_refs

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Triplet:
    """One training item: question, its schema, and the gold SQL."""

    question: str
    schema: DatabaseSchema
    gold_sql: str
    origin: str = "original"


@dataclass(frozen=True)
class SftRecord:
    instruction: str
    input: str
    output: str


class LinkingPredictor(Protocol):
    def predict(self, question: str, schema: DatabaseSchema) -> SchemaSubset: ...


def triplets_from_dataset(
    dataset: Sequence[dict], schemas: dict[str, DatabaseSchema]
) -> list[Triplet]:
    return [
        Triplet(
            question=record["question"],
            schema=schema,
            gold_sql=record["query"],
            origin=record.get("origin", "original"),
        )
        for record, schema in zip(dataset, item_schemas(dataset, schemas))
    ]


# ----------------------------------------------------------------------
# data augmentation
# ----------------------------------------------------------------------


class QuestionRewriter:
    """Gateway-backed paraphraser producing exactly two rewrites."""

    def __init__(self, gateway: LlmGateway, model_id: str) -> None:
        self.gateway = gateway
        self.model_id = model_id

    def rewrite(self, question: str) -> tuple[str, str]:
        prompt = load_template("rewrite_v1").substitute(question=question)
        try:
            completion = self.gateway.ask(self.model_id, prompt, 256)
        except ProviderError as exc:
            raise RewriteError(f"rewriter gateway failed: {exc}") from exc
        rewrites: list[str] = []
        for line in completion.splitlines():
            line = line.strip()
            if line[:2] in ("1.", "2."):
                rewrites.append(line[2:].strip())
        if len(rewrites) < 2 or not rewrites[0] or not rewrites[1]:
            raise RewriteError(f"unparseable rewrite output: {completion[:120]!r}")
        return rewrites[0], rewrites[1]


class Rewriter(Protocol):
    def rewrite(self, question: str) -> tuple[str, str]: ...


def augment_dataset(triplets: Sequence[Triplet], rewriter: Rewriter) -> list[Triplet]:
    """Emit original plus two rewrites per triplet, schema and SQL unchanged.

    A failed rewrite degrades that item to the original alone (logged);
    when every rewrite succeeds the output has exactly 3x the input size.
    """
    out: list[Triplet] = []
    failures = 0
    for triplet in triplets:
        out.append(replace(triplet, origin="original"))
        try:
            first, second = rewriter.rewrite(triplet.question)
        except RewriteError as exc:
            failures += 1
            logger.warning("rewrite failed for %r: %s", triplet.question[:60], exc)
            continue
        out.append(replace(triplet, question=first, origin="rewrite1"))
        out.append(replace(triplet, question=second, origin="rewrite2"))
    if failures:
        logger.info("augmentation done: %d items, %d rewrite failures", len(triplets), failures)
    return out


def write_augmented_dataset(triplets: Sequence[Triplet], path: str | Path) -> None:
    """Benchmark dataset format plus the augmentation origin field."""
    records = [
        {
            "question": t.question,
            "db_id": t.schema.db_id,
            "query": t.gold_sql,
            "origin": t.origin,
        }
        for t in triplets
    ]
    write_lines(path, [json.dumps(records, indent=1)])


# ----------------------------------------------------------------------
# SFT dataset
# ----------------------------------------------------------------------


def sft_input(question: str, schema: DatabaseSchema) -> str:
    return load_template("linking_input_v1").substitute(
        schema_ddl=render_ddl(schema), question=question
    )


def sft_instruction() -> str:
    return load_template("linking_instruction_v1").template.strip()


def build_sft_dataset(triplets: Sequence[Triplet]) -> list[SftRecord]:
    """Render triplets into (instruction, DDL+question, subset) records.

    Labels are extracted from the gold SQL; items whose SQL fails to
    parse or resolve are skipped and logged, never fatal.
    """
    instruction = sft_instruction()
    records: list[SftRecord] = []
    skipped = 0
    for triplet in triplets:
        try:
            subset = extract_schema_refs(parse_sql(triplet.gold_sql), triplet.schema)
        except (ParseError, ResolutionError) as exc:
            skipped += 1
            logger.warning("skipping dirty gold SQL %r: %s", triplet.gold_sql[:80], exc)
            continue
        records.append(
            SftRecord(
                instruction=instruction,
                input=sft_input(triplet.question, triplet.schema),
                output=format_subset(subset),
            )
        )
    if skipped:
        logger.info("sft build: %d records, %d skipped", len(records), skipped)
    return records


def write_sft_records(records: Sequence[SftRecord], path: str | Path) -> None:
    """One JSON object per line: instruction, input, output."""
    write_lines(path, (json.dumps(asdict(record)) for record in records))


# ----------------------------------------------------------------------
# predictors
# ----------------------------------------------------------------------


class OracleLinkingPredictor:
    """Upper-bound predictor: parses the known gold SQL of each question."""

    def __init__(self, gold: dict[tuple[str, str], str]) -> None:
        self._gold = gold

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "OracleLinkingPredictor":
        return cls({(r["db_id"], r["question"]): r["query"] for r in records})

    def predict(self, question: str, schema: DatabaseSchema) -> SchemaSubset:
        gold_sql = self._gold.get((schema.db_id, question))
        if gold_sql is None:
            return SchemaSubset()
        try:
            return extract_schema_refs(parse_sql(gold_sql), schema)
        except (ParseError, ResolutionError):
            return SchemaSubset()


class GatewayLinkingPredictor:
    """Predictor backed by a (fine-tuned) model behind the LLM gateway."""

    def __init__(self, gateway: LlmGateway, model_id: str) -> None:
        self.gateway = gateway
        self.model_id = model_id

    def predict(self, question: str, schema: DatabaseSchema) -> SchemaSubset:
        prompt = sft_instruction() + "\n\n" + sft_input(question, schema)
        completion = self.gateway.ask(self.model_id, prompt, 256)
        try:
            return parse_subset(completion.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise PredictorError(f"unparseable linking output: {completion[:120]!r}") from exc


def predict_linking(
    question: str, schema: DatabaseSchema, predictor: LinkingPredictor
) -> SchemaSubset:
    """Run a predictor and repair its output against the schema.

    Hallucinated tables/columns are dropped, tables implied by surviving
    columns are added, and an unparseable prediction degrades to the
    empty subset with a warning, so the result always satisfies the
    subset invariants.
    """
    try:
        raw = predictor.predict(question, schema)
    except PredictorError as exc:
        logger.warning("linking predictor failed for %r: %s", question[:60], exc)
        return SchemaSubset()
    tables = [t for t in raw.tables if schema.has_table(t)]
    columns = [c for c in raw.columns if schema.has_column(c)]
    return SchemaSubset.build(tables, columns)
