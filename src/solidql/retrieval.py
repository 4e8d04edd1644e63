"""Example retrieval over a precomputed question/SQL pool.

Round 1 ranks candidates by cosine similarity between question-skeleton
embeddings; round 2 re-ranks by edit distance between SQL skeleton
parse trees. Both rankings are exact and break ties by pool index, so
they are total orders and stable across runs.

Round 1 scans the whole pool, but takes each dot product over the
target's non-zero buckets only. Round 2 is a multi-step k-nearest-
neighbour search (Seidl & Kriegel, SIGMOD 1998) over the distinct
skeletons. A min-heap holds them keyed by (lower bound on the distance,
first pool index). Skeletons enter it in size rings outward from the
target's node count, ring r holding those with r more or fewer nodes:
the label-multiset bound is at least r there, so ring r is pushed only
once the head's key reaches r. A skeleton's first pop replaces its
label bound by its traversal-string bound; if that is larger, it goes
back into the heap under the larger key, and otherwise, as on its
second pop, it is scored with the exact tree edit distance. Once n
candidates are held, the search stops at the first key that exceeds the
n-th best (distance, pool index): every later member is farther away,
or as far and later in the pool, so none can rank ahead of it. A first
pop then also drops the skeleton if its traversal bound exceeds the
cutoff it has to beat: the n-th best distance, or one less when all its
members come after the n-th best in the pool.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

from .embeddings import EmbeddingProvider
from .errors import ConfigError, ParseError
from .gateway import LlmGateway
from .jsonl import malformed, write_lines
from .prompting import load_template
from .schema import SchemaSubset
from .skeleton import (
    LabelBag,
    LabelBags,
    SqlSkeleton,
    compile_postorder,
    label_lower_bound,
    traversal_lower_bound,
    tree_edit_distance,
)

logger = logging.getLogger(__name__)

# 2: each record carries its SQL skeleton compiled (s_postorder, s_leftmost)
INDEX_FORMAT = 2


@dataclass(frozen=True)
class ExamplePair:
    """One candidate of the retrieval pool with its precomputed views."""

    question: str
    sql: str
    q_skeleton: str
    q_embedding: tuple[float, ...]
    s_skeleton: SqlSkeleton
    pool_index: int


@dataclass(frozen=True)
class SkeletonGroup:
    """Pool entries that share one SQL skeleton text, in pool order."""

    skeleton: SqlSkeleton
    labels: LabelBag
    members: tuple[ExamplePair, ...]


@dataclass
class RetrievalIndex:
    """The pool plus search data that the first retrieval builds from it.

    Each cached view is a function of the pool alone, so threads racing
    to build one build equal copies. The pool must not change once a
    retrieval has run on the index.
    """

    pool: list[ExamplePair]
    provider_id: str
    dimension: int

    def __len__(self) -> int:
        return len(self.pool)

    @cached_property
    def label_bags(self) -> LabelBags:
        """Bit numbering of the label occurrences in the pool's skeletons."""
        return LabelBags(pair.s_skeleton.compiled.postorder for pair in self.pool)

    @cached_property
    def skeleton_groups(self) -> dict[int, list[SkeletonGroup]]:
        """The pool grouped by SQL skeleton text, keyed by the skeleton's
        node count; each size's groups are in order of first member."""
        groups: dict[str, list[ExamplePair]] = {}
        for pair in self.pool:
            groups.setdefault(pair.s_skeleton.text, []).append(pair)
        bag = self.label_bags.bag
        by_size: dict[int, list[SkeletonGroup]] = {}
        for members in groups.values():
            skeleton = members[0].s_skeleton
            labels = bag(skeleton.compiled.postorder)
            group = SkeletonGroup(skeleton, labels, tuple(members))
            by_size.setdefault(labels.size, []).append(group)
        return by_size

    @cached_property
    def squared_norms(self) -> list[float]:
        """‖v‖² of each pool embedding, summed as ``cosine_similarity`` sums it."""
        return [_squared_norm(pair.q_embedding) for pair in self.pool]


def _squared_norm(vector: Sequence[float]) -> float:
    total = 0.0
    for value in vector:
        total += value * value
    return total


@dataclass
class RetrievalResult(Sequence):
    """Ranked examples plus how they were obtained."""

    pairs: list[ExamplePair]
    fallback: str | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, item):
        return self.pairs[item]

    def __iter__(self) -> Iterator[ExamplePair]:
        return iter(self.pairs)


# ----------------------------------------------------------------------
# question skeletons
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuestionSkeleton:
    text: str
    used_fallback: bool = False


_WORD_RE = re.compile(r"'[^']*'|\"[^\"]*\"|\w+|[^\w\s]")
_NUMBER_RE = re.compile(r"\d[\d.,]*$")


def _mask_vocabulary(linked: SchemaSubset) -> set[str]:
    vocab: set[str] = set(linked.tables)
    for column in linked.columns:
        _, _, name = column.partition(".")
        if name and name != "*":
            vocab.add(name)
    expanded = set(vocab)
    for word in vocab:
        expanded.add(word + "s")
        expanded.add(word + "es")
        if word.endswith("es"):
            expanded.add(word[:-2])
        if word.endswith("s"):
            expanded.add(word[:-1])
    return expanded


def rule_based_question_skeleton(question: str, linked: SchemaSubset) -> str:
    """Deterministic masker used when no gateway is available.

    Masks tokens matching linked table/column names (plus naive
    plural/singular forms) and all numeric or quoted tokens.
    """
    vocab = _mask_vocabulary(linked)
    out: list[str] = []
    for token in _WORD_RE.findall(question):
        if token.lower() in vocab or token[0] in "'\"" or _NUMBER_RE.match(token):
            if out and out[-1] == "_":
                continue  # collapse adjacent masks
            out.append("_")
        else:
            out.append(token)
    text = ""
    for token in out:
        if not text:
            text = token
        elif re.match(r"[^\w\s]", token):
            text += token
        else:
            text += " " + token
    return text


def extract_question_skeleton(
    question: str,
    linked: SchemaSubset,
    gateway: LlmGateway | None,
    model_id: str = "",
) -> QuestionSkeleton:
    """Mask domain terms and values out of a question.

    Uses the LLM gateway with the linked subset as context. Without a
    gateway, on any gateway failure (a replay miss included) and on an
    empty completion, the rule-based masker answers and the result is
    tagged as a fallback.
    """
    if not question:
        return QuestionSkeleton("")
    text = ""
    if gateway is not None:
        linked_text = ", ".join(sorted(linked.tables | set(linked.columns))) or "(none)"
        prompt = load_template("question_skeleton_v1").substitute(
            question=question, linked=linked_text
        )
        try:
            text = gateway.ask(model_id, prompt, 128).strip()
        except Exception as exc:  # any gateway failure: fallback is mandatory
            logger.warning("skeleton gateway failed (%s); using rule-based masker", exc)
    if text:
        return QuestionSkeleton(text.splitlines()[0].strip())
    return QuestionSkeleton(rule_based_question_skeleton(question, linked), used_fallback=True)


# ----------------------------------------------------------------------
# retrieval
# ----------------------------------------------------------------------


def retrieve_by_question_skeleton(
    target_skeleton: str,
    index: RetrievalIndex,
    n: int,
    embedder: EmbeddingProvider,
    *,
    exclude_question: str | None = None,
) -> RetrievalResult:
    """Top-n pool entries by cosine similarity of skeleton embeddings.

    Ties break toward the lower pool index; candidates whose similarity
    is undefined (zero-norm embedding) are skipped; the pool entry whose
    question equals ``exclude_question`` is never returned. A target
    embedding whose length is not the index's dimension raises
    ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = embedder.embed([target_skeleton])[0]
    if len(target) != index.dimension:
        raise ValueError(f"dimension mismatch: {len(target)} vs index {index.dimension}")
    target_norm = _squared_norm(target)
    if target_norm == 0.0:
        return RetrievalResult([])
    # For finite vectors the skipped terms are ±0.0 and leave the dot
    # product bit-identical to cosine_similarity's full sum.
    terms = [(bucket, value) for bucket, value in enumerate(target) if value != 0.0]
    scored: list[tuple[float, int, ExamplePair]] = []
    for pair, norm in zip(index.pool, index.squared_norms):
        if pair.question == exclude_question or norm == 0.0:
            continue
        vector = pair.q_embedding
        dot = 0.0
        for bucket, value in terms:
            dot += value * vector[bucket]
        scored.append((-(dot / math.sqrt(target_norm * norm)), pair.pool_index, pair))
    return RetrievalResult([pair for _, _, pair in heapq.nsmallest(n, scored)])


def retrieve_by_sql_skeleton(
    round1_sql: str,
    index: RetrievalIndex,
    n: int,
    *,
    fallback_examples: Sequence[ExamplePair] = (),
    exclude_question: str | None = None,
) -> RetrievalResult:
    """Top-n pool entries by ascending parse-tree edit distance.

    If the round-1 SQL does not parse, returns ``fallback_examples``
    (the caller's question-skeleton retrieval) tagged with
    ``fallback="question"``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        target = SqlSkeleton.from_sql(round1_sql)
    except ParseError:
        return RetrievalResult(list(fallback_examples), fallback="question")
    by_size = index.skeleton_groups
    target_labels = index.label_bags.bag(target.compiled.postorder)
    size = target_labels.size
    last_ring = max((abs(other - size) for other in by_size), default=-1)
    ring = 0
    # (lower bound, first pool index, refined, group); the first two are unique
    heap: list[tuple[int, int, bool, SkeletonGroup]] = []
    best: list[tuple[int, int, ExamplePair]] = []
    while True:
        # A group of ring r has r more or fewer nodes than the target, so
        # its label bound is at least r. Ring r is pushed once the head's
        # key reaches r, and never when r exceeds the n-th best distance.
        while ring <= last_ring and (not heap or ring <= heap[0][0]):
            if len(best) == n and ring > best[-1][0]:
                break
            for ring_size in (size - ring, size + ring) if ring else (size,):
                for group in by_size.get(ring_size, ()):
                    first = group.members[0]
                    if first.question == exclude_question:
                        kept = [p for p in group.members if p.question != exclude_question]
                        if not kept:
                            continue
                        first = kept[0]
                    key = label_lower_bound(target_labels, group.labels)
                    heapq.heappush(heap, (key, first.pool_index, False, group))
            ring += 1
        if not heap:
            break
        key, first_index, refined, group = heapq.heappop(heap)
        if len(best) == n and (key, first_index) > best[-1][:2]:
            break  # every later member is farther, or as far and later in the pool
        if not refined:
            if len(best) == n:
                # a member ranks ahead of the n-th best only within this distance
                limit = best[-1][0] - (first_index > best[-1][1])
            else:
                limit = key + 2  # min(limit + 1, distance) is still a lower bound
            bound = traversal_lower_bound(target.compiled, group.skeleton.compiled, limit)
            if len(best) == n and bound > limit:
                continue
            if bound > key:
                heapq.heappush(heap, (bound, first_index, True, group))
                continue
        distance = tree_edit_distance(target, group.skeleton)
        best.extend(
            (distance, pair.pool_index, pair)
            for pair in group.members
            if pair.question != exclude_question
        )
        best.sort()
        del best[n:]
    return RetrievalResult([pair for _, _, pair in best])


# ----------------------------------------------------------------------
# index construction and persistence
# ----------------------------------------------------------------------


def build_index(
    pairs: Sequence[tuple[str, str]],
    embedder: EmbeddingProvider,
    *,
    gateway: LlmGateway | None = None,
    model_id: str = "",
    linked: Sequence[SchemaSubset | None] | None = None,
) -> RetrievalIndex:
    """Precompute skeletons and embeddings for a (question, sql) pool.

    ``linked`` optionally supplies the linked subset per item as masking
    context. Items whose SQL does not parse are skipped and logged.
    Embeddings of mixed lengths raise ``ValueError``. Rebuilding from
    identical inputs yields an identical index.
    """
    kept: list[tuple[str, str, str, SqlSkeleton]] = []
    skipped = 0
    for i, (question, sql) in enumerate(pairs):
        try:
            s_skeleton = SqlSkeleton.from_sql(sql)
        except ParseError as exc:
            skipped += 1
            logger.warning("skipping pool item %d (unparseable SQL): %s", i, exc)
            continue
        subset = (linked[i] if linked is not None else None) or SchemaSubset()
        q_skeleton = extract_question_skeleton(question, subset, gateway, model_id).text
        kept.append((question, sql, q_skeleton, s_skeleton))

    embeddings = embedder.embed([item[2] for item in kept]) if kept else []
    dimension = embedder.dimension or (len(embeddings[0]) if embeddings else 0)
    if any(len(vector) != dimension for vector in embeddings):
        raise ValueError(f"embeddings of mixed lengths; expected {dimension}")
    pool = [
        ExamplePair(
            question=question,
            sql=sql,
            q_skeleton=q_skeleton,
            q_embedding=tuple(vector),
            s_skeleton=s_skeleton,
            pool_index=index,
        )
        for index, ((question, sql, q_skeleton, s_skeleton), vector) in enumerate(
            zip(kept, embeddings)
        )
    ]
    if skipped:
        logger.info("index built with %d items, %d skipped", len(pool), skipped)
    return RetrievalIndex(pool=pool, provider_id=embedder.provider_id, dimension=dimension)


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """Write the index: one header line, then one JSON record per example.

    A record stores its SQL skeleton as text and compiled: the postorder
    labels and each node's leftmost leaf, so loading needs no parse.
    """
    header = dict(provider_id=index.provider_id, dimension=index.dimension, format=INDEX_FORMAT)
    records = (
        {
            "question": pair.question,
            "sql": pair.sql,
            "q_skeleton": pair.q_skeleton,
            "q_embedding": list(pair.q_embedding),
            "s_skeleton": pair.s_skeleton.text,
            "s_postorder": pair.s_skeleton.compiled.postorder,
            "s_leftmost": pair.s_skeleton.compiled.leftmost,
            "pool_index": pair.pool_index,
        }
        for pair in index.pool
    )
    write_lines(path, (json.dumps(d, sort_keys=True) for d in chain([header], records)))


def read_index_header(path: str | Path) -> dict:
    """The header line of a saved index: ``provider_id``, ``dimension`` and ``format``.

    Raises ``CorruptFileError``, naming the file and line 1, unless it is
    a JSON object with a string ``provider_id`` and an integer ``dimension``.
    """
    try:
        with Path(path).open("rb") as handle:
            header = json.loads(handle.readline())
        if not isinstance(header, dict) or not isinstance(header.get("provider_id"), str) or (
            type(header.get("dimension")) is not int
        ):
            raise ValueError("not an object with a string provider_id and an integer dimension")
    except ValueError as exc:
        raise malformed(path, 1, exc, "index record") from None
    return header


def load_index(path: str | Path) -> RetrievalIndex:
    """Read an index that ``save_index`` wrote.

    Records with equal skeleton texts share one ``SqlSkeleton``, built
    from the stored arrays without parsing SQL. An index of another
    format raises ``ConfigError``. ``CorruptFileError``, naming the file
    and the line, is raised for a header that ``read_index_header``
    refuses, a line that does not decode, a record missing a field or out
    of pool order, a ``q_embedding`` that is not ``dimension`` numbers,
    and skeleton arrays that do not describe a tree or differ between
    records of one text.
    """
    path = Path(path)
    skeletons: dict[str, SqlSkeleton] = {}
    pool: list[ExamplePair] = []
    header = read_index_header(path)
    if header.get("format") != INDEX_FORMAT:
        raise ConfigError(
            f"{path} is a retrieval index of format {header.get('format', 1)}, "
            f"not {INDEX_FORMAT}; rebuild with `solidql index`"
        )
    provider_id, dimension = header["provider_id"], header["dimension"]
    with path.open("rb") as handle:
        handle.readline()  # the header
        try:
            for number, line in enumerate(handle, 2):
                if not line.strip():
                    continue
                record = json.loads(line)
                text = record["s_skeleton"]
                postorder, leftmost = record["s_postorder"], record["s_leftmost"]
                skeleton = skeletons.get(text)
                if skeleton is None:
                    skeleton = SqlSkeleton(text, compile_postorder(postorder, leftmost))
                    skeletons[text] = skeleton
                elif (postorder, leftmost) != (
                    skeleton.compiled.postorder, skeleton.compiled.leftmost
                ):
                    raise ValueError(f"skeleton {text!r} is stored with two different trees")
                if record["pool_index"] != len(pool):
                    raise ValueError(f"pool_index {record['pool_index']!r} at row {len(pool)}")
                embedding = record["q_embedding"]
                if len(embedding) != dimension:
                    raise ValueError(f"q_embedding has {len(embedding)} values, not {dimension}")
                sum(embedding)  # TypeError unless every value is a number
                pool.append(
                    ExamplePair(
                        question=record["question"],
                        sql=record["sql"],
                        q_skeleton=record["q_skeleton"],
                        q_embedding=tuple(embedding),
                        s_skeleton=skeleton,
                        pool_index=len(pool),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise malformed(path, number, exc, "index record") from None
    return RetrievalIndex(pool=pool, provider_id=provider_id, dimension=dimension)
