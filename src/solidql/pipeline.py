"""Two-round generation pipeline: link, retrieve, prompt, complete.

Round 1 retrieves examples by question-skeleton similarity; round 2
re-retrieves by structural similarity to the round-1 SQL and generates
again with the same linked subset and focus setting. Every degraded path
(rule-based skeleton, unparseable round-1 SQL, extraction failure) is
recorded as a flag instead of aborting the item.
"""

from __future__ import annotations

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import RunConfig
from .errors import ExtractError, ReplayMiss
from .gateway import ChatRequest, LlmGateway
from .linking import LinkingPredictor, predict_linking
from .prompting import build_prompt, parse_sql_from_completion
from .retrieval import (
    EmbeddingProvider,
    RetrievalIndex,
    extract_question_skeleton,
    retrieve_by_question_skeleton,
    retrieve_by_sql_skeleton,
)
from .schema import DatabaseSchema, SchemaSubset, format_subset, parse_subset

logger = logging.getLogger(__name__)

FLAG_SKELETON_FALLBACK = "skeleton_rule_fallback"
FLAG_ROUND1_EXTRACT = "round1_extract_error"
FLAG_ROUND2_EXTRACT = "round2_extract_error"
FLAG_ROUND2_RETRIEVAL_FALLBACK = "round2_retrieval_fallback"
FLAG_ROUND1_ERROR = "round1_error"
FLAG_ROUND2_ERROR = "round2_error"


@dataclass
class RoundContext:
    """State carried from round 1 into round 2."""

    question: str
    schema: DatabaseSchema
    linked: SchemaSubset
    q_skeleton: str
    flags: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class PipelineResult:
    question: str
    db_id: str
    linked: SchemaSubset
    q_skeleton: str
    round1_sql: str
    round2_sql: str
    final_sql: str
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "db_id": self.db_id,
            "linked": format_subset(self.linked),
            "q_skeleton": self.q_skeleton,
            "round1_sql": self.round1_sql,
            "round2_sql": self.round2_sql,
            "final_sql": self.final_sql,
            "flags": sorted(self.flags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineResult":
        return cls(
            question=data["question"],
            db_id=data["db_id"],
            linked=parse_subset(data["linked"]),
            q_skeleton=data["q_skeleton"],
            round1_sql=data["round1_sql"],
            round2_sql=data["round2_sql"],
            final_sql=data["final_sql"],
            flags=tuple(data["flags"]),
        )


def _generate(prompt_system: str, prompt_user: str, gateway: LlmGateway, config: RunConfig) -> str:
    request = ChatRequest(
        model_id=config.model_id,
        messages=(("system", prompt_system), ("user", prompt_user)),
        temperature=0.0,
        max_tokens=config.max_tokens,
    )
    return gateway.complete(request)


def run_round1(
    question: str,
    schema: DatabaseSchema,
    predictor: LinkingPredictor,
    index: RetrievalIndex,
    gateway: LlmGateway,
    embedder: EmbeddingProvider,
    config: RunConfig,
) -> tuple[str, RoundContext]:
    """Link the schema, mask the question, retrieve, and generate once.

    Returns the candidate SQL (empty on extraction failure, flagged) and
    the context reused by round 2.
    """
    linked = predict_linking(question, schema, predictor)
    skeleton = extract_question_skeleton(question, linked, gateway, config.linking_model)
    context = RoundContext(question=question, schema=schema, linked=linked, q_skeleton=skeleton.text)
    if skeleton.used_fallback:
        context.flags.add(FLAG_SKELETON_FALLBACK)
    examples = retrieve_by_question_skeleton(
        skeleton.text, index, config.n_examples, embedder, exclude_question=question
    )
    prompt = build_prompt(
        question,
        schema,
        linked,
        examples.pairs,
        focus_enabled=config.focus_enabled,
        round_no=1,
    )
    completion = _generate(prompt.system, prompt.user, gateway, config)
    try:
        sql = parse_sql_from_completion(completion)
    except ExtractError:
        context.flags.add(FLAG_ROUND1_EXTRACT)
        return "", context
    return sql, context


def run_round2(
    round1_sql: str,
    context: RoundContext,
    index: RetrievalIndex,
    gateway: LlmGateway,
    embedder: EmbeddingProvider,
    config: RunConfig,
) -> str:
    """Re-retrieve by SQL-skeleton distance and generate the final SQL.

    An empty or unparseable round-1 statement degrades retrieval to the
    question skeleton; an extraction failure falls back to the round-1
    SQL. Both paths set flags on the context.
    """
    examples = retrieve_by_sql_skeleton(
        round1_sql,
        index,
        config.n_examples,
        embedder=embedder,
        fallback_skeleton=context.q_skeleton,
        exclude_question=context.question,
    )
    if examples.fallback is not None:
        context.flags.add(FLAG_ROUND2_RETRIEVAL_FALLBACK)
    prompt = build_prompt(
        context.question,
        context.schema,
        context.linked,
        examples.pairs,
        focus_enabled=config.focus_enabled,
        round_no=2,
    )
    completion = _generate(prompt.system, prompt.user, gateway, config)
    try:
        return parse_sql_from_completion(completion)
    except ExtractError:
        context.flags.add(FLAG_ROUND2_EXTRACT)
        return round1_sql


def run_item(
    question: str,
    schema: DatabaseSchema,
    predictor: LinkingPredictor,
    index: RetrievalIndex,
    gateway: LlmGateway,
    embedder: EmbeddingProvider,
    config: RunConfig,
) -> PipelineResult:
    """Run one question through the configured number of rounds.

    A hard round-2 failure (provider down after retries) falls back to
    the round-1 SQL with a flag; a replay miss propagates, since a
    replayed run is expected to be hermetic.
    """
    round1_sql, context = run_round1(question, schema, predictor, index, gateway, embedder, config)
    round2_sql = ""
    final_sql = round1_sql
    if config.rounds == 2:
        try:
            round2_sql = run_round2(round1_sql, context, index, gateway, embedder, config)
            final_sql = round2_sql
        except ReplayMiss:
            raise
        except Exception as exc:
            logger.warning("round 2 failed for %r: %s", question[:60], exc)
            context.flags.add(FLAG_ROUND2_ERROR)
    return PipelineResult(
        question=question,
        db_id=schema.db_id,
        linked=context.linked,
        q_skeleton=context.q_skeleton,
        round1_sql=round1_sql,
        round2_sql=round2_sql,
        final_sql=final_sql,
        flags=tuple(sorted(context.flags)),
    )


# ----------------------------------------------------------------------
# batch driver
# ----------------------------------------------------------------------


class ProgressLedger:
    """Append-only record of completed items, used to resume a batch."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def load(self) -> dict[int, PipelineResult]:
        done: dict[int, PipelineResult] = {}
        if not self.path.exists():
            return done
        with self.path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                done[entry["index"]] = PipelineResult.from_dict(entry["result"])
        return done

    def append(self, index: int, result: PipelineResult) -> None:
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"index": index, "result": result.to_dict()}) + "\n")

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()


def run_batch(
    dataset: Sequence[dict],
    schemas: dict[str, DatabaseSchema],
    predictor: LinkingPredictor,
    index: RetrievalIndex,
    gateway: LlmGateway,
    embedder: EmbeddingProvider,
    config: RunConfig,
    ledger: ProgressLedger | None = None,
) -> list[PipelineResult]:
    """Process items independently; output order equals input order.

    Per-item failures are recorded as flags and never abort the batch;
    a :class:`ReplayMiss` does abort, because a replay run is expected
    to be hermetic. Completed items found in the ledger are not re-run.
    """
    done = ledger.load() if ledger is not None else {}
    if done:
        logger.info("resuming: %d of %d items already complete", len(done), len(dataset))
    results: dict[int, PipelineResult] = dict(done)

    def work(i: int) -> None:
        item = dataset[i]
        schema = schemas[item["db_id"]]
        try:
            result = run_item(
                item["question"], schema, predictor, index, gateway, embedder, config
            )
        except ReplayMiss:
            raise
        except Exception as exc:
            logger.warning("item %d failed: %s", i, exc)
            result = PipelineResult(
                question=item["question"],
                db_id=item["db_id"],
                linked=SchemaSubset(),
                q_skeleton="",
                round1_sql="",
                round2_sql="",
                final_sql="",
                flags=(FLAG_ROUND1_ERROR,),
            )
        results[i] = result
        if ledger is not None:
            ledger.append(i, result)

    pending = [i for i in range(len(dataset)) if i not in results]
    if config.workers == 1 or len(pending) <= 1:
        for i in pending:
            work(i)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(work, i) for i in pending]
            for future in futures:
                future.result()

    ordered = [results[i] for i in range(len(dataset))]
    flag_totals: dict[str, int] = {}
    for result in ordered:
        for flag in result.flags:
            flag_totals[flag] = flag_totals.get(flag, 0) + 1
    if flag_totals:
        logger.info("batch flags: %s", dict(sorted(flag_totals.items())))
    return ordered


def write_results(results: Sequence[PipelineResult], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")


def read_results(path: str | Path) -> list[PipelineResult]:
    results: list[PipelineResult] = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                results.append(PipelineResult.from_dict(json.loads(line)))
    return results
