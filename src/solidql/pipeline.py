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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .config import RunConfig
from .errors import ExtractError, ReplayMiss
from .gateway import ChatRequest, LlmGateway
from .jsonl import JsonLines, write_lines
from .linking import LinkingPredictor, predict_linking
from .prompting import build_prompt, parse_sql_from_completion
from .retrieval import (
    EmbeddingProvider,
    ExamplePair,
    RetrievalIndex,
    extract_question_skeleton,
    retrieve_by_question_skeleton,
    retrieve_by_sql_skeleton,
)
from .schema import DatabaseSchema, SchemaSubset, format_subset, item_schemas, parse_subset

logger = logging.getLogger(__name__)

FLAG_SKELETON_FALLBACK = "skeleton_rule_fallback"
FLAG_ROUND1_EXTRACT = "round1_extract_error"
FLAG_ROUND2_EXTRACT = "round2_extract_error"
FLAG_ROUND2_RETRIEVAL_FALLBACK = "round2_retrieval_fallback"
FLAG_ROUND1_ERROR = "round1_error"
FLAG_ROUND2_ERROR = "round2_error"

_TEXT_FIELDS = (
    "question", "db_id", "linked", "q_skeleton", "round1_sql", "round2_sql", "final_sql"
)


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
        """Inverse of ``to_dict``. Raises ``KeyError`` for a missing field,
        ``TypeError`` for a field of the wrong type and ``ValueError`` for
        a ``linked`` text that is not a schema subset."""
        for key in _TEXT_FIELDS:
            if not isinstance(data[key], str):
                raise TypeError(f"{key!r} is {type(data[key]).__name__}, not a string")
        flags = data["flags"]
        if not isinstance(flags, list) or not all(isinstance(flag, str) for flag in flags):
            raise TypeError(f"'flags' is not a list of strings: {flags!r}")
        return cls(
            question=data["question"],
            db_id=data["db_id"],
            linked=parse_subset(data["linked"]),
            q_skeleton=data["q_skeleton"],
            round1_sql=data["round1_sql"],
            round2_sql=data["round2_sql"],
            final_sql=data["final_sql"],
            flags=tuple(flags),
        )


def _generate(
    question: str,
    schema: DatabaseSchema,
    linked: SchemaSubset,
    examples: list[ExamplePair],
    gateway: LlmGateway,
    config: RunConfig,
) -> str | None:
    """Prompt with ``examples``, complete once, and extract the SQL.

    Returns None when the completion holds no statement.
    """
    prompt = build_prompt(question, schema, linked, examples, focus_enabled=config.focus_enabled)
    request = ChatRequest(
        model_id=config.model_id,
        messages=(("system", prompt.system), ("user", prompt.user)),
        temperature=0.0,
        max_tokens=config.max_tokens,
    )
    completion = gateway.complete(request)
    try:
        return parse_sql_from_completion(completion)
    except ExtractError:
        return None


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

    Round 1 links the schema, masks the question and retrieves by
    question skeleton; round 2 re-retrieves by SQL-skeleton distance to
    the round-1 SQL, or reuses round 1's examples when that SQL does not
    parse. A round-1 extraction failure leaves empty SQL; a round-2
    extraction failure or a hard round-2 failure (provider down after
    retries) keeps the round-1 SQL. Each of these sets a flag. A replay
    miss on the question-skeleton call gives the rule-based skeleton and
    the skeleton flag; any other replay miss propagates, since a replayed
    run is expected to be hermetic.
    """
    flags: set[str] = set()
    linked = predict_linking(question, schema, predictor)
    skeleton = extract_question_skeleton(question, linked, gateway, config.linking_model)
    if skeleton.used_fallback:
        flags.add(FLAG_SKELETON_FALLBACK)
    examples = retrieve_by_question_skeleton(
        skeleton.text, index, config.n_examples, embedder, exclude_question=question
    )
    round1_sql = _generate(question, schema, linked, examples.pairs, gateway, config)
    if round1_sql is None:
        flags.add(FLAG_ROUND1_EXTRACT)
        round1_sql = ""
    round2_sql = ""
    if config.rounds == 2:
        try:
            examples = retrieve_by_sql_skeleton(
                round1_sql,
                index,
                config.n_examples,
                fallback_examples=examples.pairs,
                exclude_question=question,
            )
            if examples.fallback is not None:
                flags.add(FLAG_ROUND2_RETRIEVAL_FALLBACK)
            round2_sql = _generate(question, schema, linked, examples.pairs, gateway, config)
            if round2_sql is None:
                flags.add(FLAG_ROUND2_EXTRACT)
                round2_sql = round1_sql
        except ReplayMiss:
            raise
        except Exception as exc:
            logger.warning("round 2 failed for %r: %s", question[:60], exc)
            flags.add(FLAG_ROUND2_ERROR)
    return PipelineResult(
        question=question,
        db_id=schema.db_id,
        linked=linked,
        q_skeleton=skeleton.text,
        round1_sql=round1_sql,
        round2_sql=round2_sql,
        final_sql=round2_sql or round1_sql,
        flags=tuple(sorted(flags)),
    )


# ----------------------------------------------------------------------
# batch driver
# ----------------------------------------------------------------------


class ProgressLedger:
    """Append-only record of completed items, used to resume a batch."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = JsonLines(self.path)

    def load(self) -> dict[int, PipelineResult]:
        """Completed items by index; a torn final line is dropped (see ``JsonLines``)."""
        return dict(
            self._file.records(
                lambda entry: (entry["index"], PipelineResult.from_dict(entry["result"]))
            )
        )

    def append(self, index: int, result: PipelineResult) -> None:
        with self._lock:
            self._file.append(json.dumps({"index": index, "result": result.to_dict()}))

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()
        self._file = JsonLines(self.path)


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

    Items run on ``config.workers`` threads. Per-item failures are
    recorded as flags and never abort the batch; a :class:`ReplayMiss`
    (a replay run is expected to be hermetic) or an interrupt does
    abort, and items not yet started then never start.
    Completed items found in the ledger are not re-run. A dataset with
    a ``db_id`` missing from ``schemas`` is refused before any item runs.
    """
    item_schema = item_schemas(dataset, schemas)
    done = ledger.load() if ledger is not None else {}
    if done:
        logger.info("resuming: %d of %d items already complete", len(done), len(dataset))
    results: dict[int, PipelineResult] = dict(done)

    # Each worker takes the next pending index until none is left, so a batch
    # holds one future per worker, not one per item. Under the GIL, a list
    # iterator hands each index to one thread.
    pending = iter([i for i in range(len(dataset)) if i not in results])
    # Set once the batch is aborting; later items never start. A worker sets
    # it for what it lets escape, because the waiting thread may be waiting
    # on another worker's future.
    stop = threading.Event()

    def run_one(i: int) -> PipelineResult:
        item = dataset[i]
        try:
            return run_item(
                item["question"], item_schema[i], predictor, index, gateway, embedder, config
            )
        except ReplayMiss:
            raise
        except Exception as exc:
            logger.warning("item %d failed: %s", i, exc)
            return PipelineResult(
                question=item["question"],
                db_id=item["db_id"],
                linked=SchemaSubset(),
                q_skeleton="",
                round1_sql="",
                round2_sql="",
                final_sql="",
                flags=(FLAG_ROUND1_ERROR,),
            )

    def work() -> None:
        try:
            for i in pending:
                if stop.is_set():
                    return
                result = results[i] = run_one(i)
                if ledger is not None:
                    ledger.append(i, result)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        futures = [pool.submit(work) for _ in range(config.workers)]
        try:
            for future in futures:
                future.result()
        except BaseException:
            stop.set()
            raise

    ordered = [results[i] for i in range(len(dataset))]
    flag_totals: dict[str, int] = {}
    for result in ordered:
        for flag in result.flags:
            flag_totals[flag] = flag_totals.get(flag, 0) + 1
    if flag_totals:
        logger.info("batch flags: %s", dict(sorted(flag_totals.items())))
    return ordered


def write_results(results: Sequence[PipelineResult], path: str | Path) -> None:
    write_lines(path, (json.dumps(r.to_dict(), sort_keys=True) for r in results))


def read_results(path: str | Path) -> list[PipelineResult]:
    """The results in ``path``; a malformed line raises ``CorruptFileError`` (see ``JsonLines``)."""
    return list(JsonLines(path).records(PipelineResult.from_dict))
