"""Example retrieval over a precomputed question/SQL pool.

Round 1 ranks candidates by cosine similarity between question-skeleton
embeddings; round 2 re-ranks by edit distance between SQL skeleton
parse trees. Both rankings break ties by pool index, so they are total
orders and stable across runs; round 1's ties are those of equal float
scores, which exactly equal cosines can miss (see
``retrieve_by_question_skeleton``).

Both rounds rank by one best-first rule. Pool entries are grouped, and
the groups are taken in order of (key, first pool index), the key being
a lower bound on every member's ranking key. A group's members, less
the excluded question, join the n best, and the search stops at the
first group whose (key, first pool index) is beyond the n-th best (key,
pool index): every later member ranks behind it. Round 1 sorts only the
groups at or above a threshold score, which falls while they hold fewer
than n members that count. Round 2 takes its groups from a min-heap.

Round 1 scores each distinct pool embedding once: the pool's entries
are grouped by question skeleton text and equal embedding row, and a
group's key is its negated cosine, which holds for every member. One
range rule keeps every cosine in float range (``_scaled``): a vector
that is not all zeros and whose squared norm is outside [2**-511,
2**511] is first scaled by a power of two, so that the product of any
two squared norms is a normal, finite float and no partial dot product
leaves float range.

Round 1 ranks by norm class, the norm bucketing of LEMP (Teflioudi,
Gemulla & Mykytiuk, SIGMOD 2015) stopped at a threshold in the manner
of Fagin, Lotem & Naor (PODS 2001). The groups are numbered by (squared
norm, first pool index), and the groups of one squared norm form a class
(``norm_classes``), whose cosines with a target share one denominator,
its root sqrt(‖target‖² · ‖row‖²). Division by one positive float is
monotone, so a class's key, its largest dot product over its root,
negated, is exactly the key of its best group. The threshold T is the
k-th smallest class key, k = n at first, and infinity once k reaches the
number of classes. Only the classes keyed at or below T have their
groups scored one by one, and their groups keyed at or below T are
sorted; while those hold fewer than n members that count, k doubles.
Every class keyed at or below T holds a group keyed at or below T, so a
group left out ranks behind k groups that were taken.

Round 1 takes each group's dot product with the target by one loop,
``value * row[bucket]`` summed in bucket order from 0.0 over the full
row (``_dot``). Squared norms are summed the same way over the non-zero
values only (``_squared_norm``), which keeps the bits. Round 1 has
a faster path for integer counts, which every hashed embedding's rows
are. When every ``_scaled`` row value is a non-negative integer below
2**W (W = ``_FIELD_BITS``, 32), the first round-1 retrieval packs each
bucket's column of the group rows into one Python int, group g's value
at bits g·W and up (``question_columns``). A target whose non-zero
values are positive integers t_b, with Σ t_b · max_b below 2**W over its
buckets b (max_b: the bucket's largest value), is scored by summing
t_b · column_b in integers: about one C-level multiply-add per non-zero
target bucket, in place of one Python step per bucket and group. Every
group's dot product is then below 2**W, so no field carries into the
next, and the sum's fields are the groups' integer dot products. They
equal the loop's sums bit for bit: every product and partial sum there
is an integer below 2**W < 2**53, so every float operation is exact; a
zero product, of either sign, adds nothing, and a sum that starts at
+0.0 stays +0.0 until a non-zero term arrives, since only -0.0 + -0.0 is
-0.0; so a dot product of 0 is +0.0 either way. Any other target or pool
takes the loop.

Round 2 is a multi-step k-nearest-neighbour search (Seidl & Kriegel,
SIGMOD 1998) over the distinct skeletons, run as one best-first queue of
lower bounds (Hjaltason & Samet, TODS 1999). Each node count of the pool
enters the heap once, as its bucket's release (``SizeBucket.release``),
created but not yet started, keyed by its ring distance, the difference
from the target's node count, which bounds the label-multiset bound of
all its skeletons, and by index ``-1 - size``, so that it opens before
any skeleton of equal key. A release hands the bucket's skeletons out
one at a time, in order of (label bound, first pool index), and its
first step takes the label bounds of all of them at once, in one sum of
packed label columns, so a bucket never popped is never summed. Every
entry popped advances its release by one, pushing the bucket's next
skeleton, so skeletons leave the heap as they would if all were pushed
on opening; the bucket's own entry holds no skeleton and is then
skipped. A first member that is the
excluded question still comes before the others in the pool, so the pair
stays a lower bound on the members that count. A popped skeleton whose
members are all excluded is dropped. One of the target's shape whose
relabel cost, an upper bound on its distance, equals the popped key, a
lower bound, is at exactly that distance, and joins without a bound or a
score. Otherwise a skeleton's first pop replaces its label bound by its
traversal-string bound, read against label masks of the target built
once per query; if that is larger, it goes back into the heap under the
larger key, and otherwise, as on a later pop, it is scored with the tree
edit distance bounded by a limit.

Both the traversal bound and the score take the same limit. Once n
candidates are held, it is the cutoff a skeleton has to beat: the n-th
best distance, or one less when all its members come after the n-th
best in the pool; a skeleton whose bound or score exceeds it is dropped.
Before that, it is the key plus 2, and a score above it re-queues the
skeleton under limit + 1, a lower bound on its distance. The bounded
score is exact whenever it is within the limit, and skips most of the
dynamic program otherwise (see ``skeleton``), so the ranking is the one
exact distances give.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import re
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, mul, neg, truediv
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .embeddings import EmbeddingProvider
from .errors import ConfigError, CorruptFileError, ParseError
from .gateway import LlmGateway
from .jsonl import read_records, write_lines
from .prompting import load_template
from .schema import SchemaSubset
from .skeleton import (
    LabelBag,
    LabelBags,
    SqlSkeleton,
    compile_postorder,
    relabel_upper_bound,
    traversal_lower_bound,
    traversal_patterns,
    tree_edit_distance,
)
from .sql.nodes import Node

logger = logging.getLogger(__name__)

# 2: each record carries its SQL skeleton compiled (s_postorder, s_leftmost)
INDEX_FORMAT = 2
# an index's header line and later lines (``save_index``); ``load_index`` checks list values
INDEX_HEADER = {"provider_id": str, "dimension": int}
INDEX_RECORD = {"question": str, "sql": str, "q_skeleton": str, "q_embedding": list,
                "s_skeleton": str, "s_postorder": list, "s_leftmost": list, "pool_index": int}
# packed integer fields: round 1's are W bits each, W <= 53 so that their sums are exact in
# floats; round 2's label counts take 8 bits in a bucket of fewer than 256 nodes, and W otherwise
_FIELD, _FIELD_BITS, _NARROW_FIELD = "I", 32, "B"
if array(_FIELD).itemsize * 8 != _FIELD_BITS or array(_NARROW_FIELD).itemsize != 1:
    raise ImportError(f"array items {_FIELD!r} and {_NARROW_FIELD!r} are not {_FIELD_BITS} and 8 bits wide")


def _unpacked(fields: str, count: int, total: int) -> array:
    """The ``count`` fields packed in ``total``, field g at bits g·W and
    up, as an array of typecode ``fields``, whose items are W bits wide."""
    return array(fields, total.to_bytes(count * array(fields).itemsize, sys.byteorder))


@dataclass(frozen=True)
class ExamplePair:
    """One candidate of the retrieval pool with its precomputed views."""

    question: str
    sql: str
    q_skeleton: str
    q_embedding: array = field(hash=False)  # array('d') of the index's dimension
    s_skeleton: SqlSkeleton
    pool_index: int


class EmbeddingGroup(NamedTuple):
    """Pool entries that share one question skeleton text and one embedding row."""

    row: array  # the first member's q_embedding, ``_scaled``
    squared_norm: float  # of ``row``; in [2**-511, 2**511]
    members: tuple[ExamplePair, ...]  # in pool order


@dataclass(frozen=True)
class SkeletonGroup:
    """Pool entries that share one SQL skeleton text, in pool order."""

    skeleton: SqlSkeleton
    members: tuple[ExamplePair, ...]


class QuestionColumns(NamedTuple):
    """The ``embedding_groups``' integer rows, packed column by column in
    group order, so that each norm class's dot products are one slice of
    those that ``dots`` unpacks."""

    columns: list[int]  # per bucket: group g's value at bits g * _FIELD_BITS and up
    maxima: list[int]  # per bucket: the largest value
    count: int  # of groups

    def dots(self, target: array) -> array | None:
        """Each group's dot product with ``target``, as an array of
        ``_FIELD`` integers in group order; ``None`` unless every non-zero
        target value is a positive integer and the sum over the target's
        buckets of value times the bucket's largest value is below
        2**_FIELD_BITS, so that no field can carry into the next."""
        total = bound = 0
        for bucket, value in compress(enumerate(target), target):
            if value < 0.0 or not value.is_integer():
                return None
            weight = int(value)
            bound += weight * self.maxima[bucket]
            column = self.columns[bucket]
            total += column if weight == 1 else weight * column  # most counts are 1
        if bound >> _FIELD_BITS:
            return None
        return _unpacked(_FIELD, self.count, total)


class NormClasses(NamedTuple):
    """The ``embedding_groups`` cut into runs of one squared norm, whose
    groups share the denominator of their cosines with any target."""

    norms: list[float]  # per class: its groups' squared norm, ascending
    spans: list[slice]  # per class: its groups' numbers


class SizeBucket(NamedTuple):
    """The skeleton groups of one node count, in order of first member,
    and their label bags packed into columns, one per label-occurrence bit
    of the pool's ``LabelBags``: an int holding one field per group, group
    g's at bits g·W and up, 1 if the group's bag holds the bit and 0
    otherwise. W is 8 when the node count is below 256, and 32 otherwise
    (no tree that fits in memory has 2**32 nodes). A bit that no group
    holds has no column. A group's first pool index is that of its first
    member.
    """

    size: int  # the node count
    groups: list[SkeletonGroup]
    fields: str  # the array typecode of W-bit fields
    columns: dict[int, int]  # by label-occurrence bit

    def release(self, target: LabelBag) -> Iterator[tuple[int, int, SkeletonGroup]]:
        """The groups under their label bounds against ``target`` and
        their first pool indices, in order of (bound, first pool index),
        one at a time. Nothing is computed before the first is asked for.

        The sum of the columns of the target's bits holds in group g's
        field |A ∩ B|, the bits the target's bag A shares with the group's
        bag B: at most the node count, so no field carries into the next.
        The bound is max(|A|, |B|) − |A ∩ B|; |B| is the node count, so the
        groups come in order of shared bits, most first, and of position.
        """
        total = sum(map(self.columns.get, target.bits, repeat(0)))
        shared = _unpacked(self.fields, len(self.groups), total)
        top = max(target.size, self.size)
        for common in sorted(set(shared), reverse=True):
            position = -1
            for _ in range(shared.count(common)):
                position = shared.index(common, position + 1)
                group = self.groups[position]
                yield top - common, group.members[0].pool_index, group


def _size_bucket(size: int, groups: list[SkeletonGroup], label_bags: LabelBags) -> SizeBucket:
    """The bucket of these groups of ``size`` nodes, their label
    occurrences numbered in ``label_bags`` and packed into columns as they
    are numbered."""
    fields = _NARROW_FIELD if size < 256 else _FIELD
    empty = bytes(len(groups) * array(fields).itemsize)
    columns: dict[int, array] = {}
    for position, group in enumerate(groups):
        for bit in label_bags.number(group.skeleton.compiled.postorder).bits:
            column = columns.get(bit)
            if column is None:
                column = columns[bit] = array(fields, empty)
            column[position] = 1
    return SizeBucket(size, groups, fields,
                      {bit: int.from_bytes(column, sys.byteorder) for bit, column in columns.items()})


@dataclass
class RetrievalIndex:
    """The pool plus search data that the first retrieval builds from it.

    Each cached view is a function of the pool alone, so threads racing
    to build one build equal copies. The pool must not change once a
    retrieval has run on the index. The first round-1 retrieval builds
    ``embedding_groups``, numbered by (squared norm, first pool index);
    then ``question_columns``: per bucket, the groups' values packed into
    one int in that order, W = 32 bits a field, or ``None`` unless every
    row value is a non-negative integer below 2**W; and ``norm_classes``,
    the runs of groups of one squared norm. A round-1 retrieval that the
    columns cannot score (see ``QuestionColumns.dots``) takes each group's
    dot product by one loop over its row, and builds nothing more; both
    ways rank through the norm classes. The first round-2 retrieval builds
    ``skeleton_groups``: the numbering of the skeletons' label
    occurrences, and the distinct skeletons by node count, each bucket
    with its label bags packed into columns, one field of 8 bits or more
    per skeleton and bit. A query makes each bucket's release
    (``SizeBucket.release``), which on its first step takes the label
    bounds of the whole bucket from one sum of columns, and then hands the
    skeletons out one at a time, in bound order. ``load_index`` builds
    none of them.
    """

    pool: list[ExamplePair]
    provider_id: str
    dimension: int

    def __len__(self) -> int:
        return len(self.pool)

    @cached_property
    def skeleton_groups(self) -> tuple[LabelBags, dict[int, SizeBucket]]:
        """The numbering of the label occurrences of the pool's SQL
        skeletons, and the pool grouped by skeleton text and bucketed by
        the skeleton's node count, the buckets' columns packed from the
        numbering as it is made."""
        groups: dict[str, list[ExamplePair]] = {}
        for pair in self.pool:
            groups.setdefault(pair.s_skeleton.text, []).append(pair)
        by_size: dict[int, list[SkeletonGroup]] = {}
        for members in groups.values():
            skeleton = members[0].s_skeleton
            by_size.setdefault(len(skeleton.compiled.postorder), []).append(SkeletonGroup(skeleton, tuple(members)))
        label_bags = LabelBags()
        buckets = {size: _size_bucket(size, same_size, label_bags) for size, same_size in by_size.items()}
        return label_bags, buckets

    @cached_property
    def embedding_groups(self) -> list[EmbeddingGroup]:
        """The pool's distinct question embeddings, in order of (squared
        norm, first member), so that each of the ``norm_classes`` is one
        run of this list.

        Entries are grouped by question skeleton text, and within one text
        by equal rows, so that equal texts whose rows differ stay apart.
        A group's row and squared norm are ``_scaled`` of the first
        member's row. Groups of norm 0 are left out, their cosine being
        undefined. A group's number is its place in this list, and its
        field in each of the ``question_columns``.
        """
        by_text: dict[str, list[list[ExamplePair]]] = {}
        groups: list[list[ExamplePair]] = []
        for pair in self.pool:
            same_text = by_text.setdefault(pair.q_skeleton, [])
            for members in same_text:
                if members[0].q_embedding == pair.q_embedding:
                    members.append(pair)
                    break
            else:
                same_text.append([pair])
                groups.append(same_text[-1])
        scaled = (EmbeddingGroup(*_scaled(group[0].q_embedding), tuple(group)) for group in groups)
        return sorted((group for group in scaled if group.squared_norm), key=attrgetter("squared_norm"))

    @cached_property
    def norm_classes(self) -> NormClasses:
        """The ``embedding_groups``' runs of one squared norm, in group order."""
        squared_norms = [group.squared_norm for group in self.embedding_groups]
        norms = sorted(set(squared_norms))
        starts = [*map(bisect_left, repeat(squared_norms), norms), len(squared_norms)]
        return NormClasses(norms, list(map(slice, starts, starts[1:])))

    @cached_property
    def question_columns(self) -> QuestionColumns | None:
        """Per bucket, the ``embedding_groups``' values packed into one
        int, group g's at bits g * ``_FIELD_BITS`` and up, and the largest
        value; ``None`` unless every row value is a non-negative integer
        below 2**_FIELD_BITS. A field costs 4 bytes, less the zero fields
        above a column's last non-zero one.
        """
        groups = self.embedding_groups
        columns: list[int] = []
        maxima: list[int] = []
        for column in zip(*(group.row for group in groups)):
            values = array("d", filter(None, column))  # a stored zero of either sign is 0
            try:
                fields = array(_FIELD, map(int, column) if values else ())
            except OverflowError:  # a value below 0, or of 2**_FIELD_BITS or more
                return None
            if array("d", filter(None, fields)) != values:  # int() dropped a fraction
                return None
            columns.append(int.from_bytes(fields, sys.byteorder))
            maxima.append(max(fields, default=0))
        return QuestionColumns(columns, maxima, len(groups))


def _dot(left: Sequence[float], right: Sequence[float]) -> float:
    """``a * b`` summed over the two vectors' values in order, starting
    from 0.0; ``_dot(v, v)`` is ‖v‖²."""
    total = 0.0
    for a, b in zip(left, right):
        total += a * b
    return total


def _scaled(vector: array) -> tuple[array, float]:
    """``vector`` and its squared norm ``_dot(vector, vector)``, or, if
    that is outside [2**-511, 2**511] though ``vector`` is not all zeros,
    a copy scaled by a power of two so that its largest magnitude is in
    [0.5, 1), and that copy's squared norm, which is then at least 0.25
    and at most the vector's length. The product of two squared norms in
    that range is a normal, finite float (an overflow-free rescale after
    Blue, ACM TOMS 4(1), 1978). Cosines are scale-free; the scale is
    exact, and only values far below the largest can lose digits to it."""
    norm = _squared_norm(vector)
    if not 2.0**-511 <= norm <= 2.0**511 and any(vector):
        _, exponent = math.frexp(max(map(abs, vector)))
        vector = array("d", [math.ldexp(value, -exponent) for value in vector])
        norm = _squared_norm(vector)
    return vector, norm


def _squared_norm(vector: array) -> float:
    """``_dot(vector, vector)``, bit for bit, summed over the non-zero
    values only: every other square is +0.0, which adds nothing to a sum
    of squares that starts at +0.0."""
    total = 0.0
    for value in filter(None, vector):
        total += value * value
    return total


@dataclass
class RetrievalResult(Sequence):
    """Round 2's ranked examples; ``fallback="question"``, with no
    examples, when the round-1 SQL it ranks by does not parse."""

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


# a quoted value (a quote opens one only where no word character comes
# before it, so an apostrophe does not), a number with its separators, a
# word, or one punctuation character, a lone quote included
_WORD_RE = re.compile(r"(?<!\w)'[^']*'|(?<!\w)\"[^\"]*\"|\d+(?:[.,]\d+)*(?!\w)|\w+|[^\w\s]")
_VALUE_RE = re.compile(r"['\"].|\d[\d.,]*$")  # a quoted value or a number, not a lone quote
_PUNCTUATION_RE = re.compile(r"[^\w\s]")  # joined to the token before it


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
    plural/singular forms) and all numeric or quoted tokens. A number
    such as ``3.5`` or ``1,000`` is one token; an apostrophe inside a
    word is punctuation, not the start of a quoted value.
    """
    vocab = _mask_vocabulary(linked)
    out: list[str] = []
    for token in _WORD_RE.findall(question):
        if token.lower() in vocab or _VALUE_RE.match(token):
            if out and out[-1] == "_":
                continue  # collapse adjacent masks
            out.append("_")
        else:
            out.append(token)
    text = ""
    for token in out:
        if not text:
            text = token
        elif _PUNCTUATION_RE.match(token):
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
) -> list[ExamplePair]:
    """Top-n pool entries by cosine similarity of skeleton embeddings.

    Equal float scores rank by pool index; candidates whose similarity
    is undefined (zero-norm embedding) are skipped; the pool entry whose
    question equals ``exclude_question`` is never returned. A target
    embedding that ``_embedding_row`` refuses raises ``ValueError``.
    Exactly equal cosines can still round to different floats, such as
    those of a row and of its double, and then rank by their rounding,
    not by pool index (ROADMAP item 5).

    A candidate's similarity is dot / sqrt(‖target‖² · ‖row‖²), both
    vectors taken ``_scaled``, so that the product is a normal, finite
    float. The dot product is a ``_dot`` sum, ``value * row[bucket]``
    summed in bucket order from 0.0, and each squared norm has the bits
    of one (``_squared_norm``).
    When the index has ``question_columns`` and every non-zero target
    value is a positive integer t_b with Σ t_b · max_b below 2**32, the
    dot products are taken from the packed columns instead, in integers;
    every float product and partial sum would then be an integer below
    2**32, so exact, and the integer dot product has the same bits (see
    the module docstring). Each of the index's ``embedding_groups`` is
    scored once, and its score holds for all its members. Either way the
    groups are ranked by norm class, as the module docstring sets out.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        target = _embedding_row(embedder.embed([target_skeleton])[0], index.dimension)
    except ValueError as exc:
        raise ValueError(f"target embedding {exc}") from None
    target, target_norm = _scaled(target)
    groups = index.embedding_groups
    if target_norm == 0.0 or not groups:
        return []
    columns = index.question_columns
    dots = None if columns is None else columns.dots(target)
    if dots is None:
        dots = [_dot(target, group.row) for group in groups]
    classes = index.norm_classes
    roots = list(map(math.sqrt, map(mul, repeat(target_norm), classes.norms)))
    # each class's best score, negated: its largest dot product over its one root
    keys = list(map(neg, map(truediv, map(max, map(dots.__getitem__, classes.spans)), roots)))
    k = n
    while True:
        # T, the k-th smallest class key: see the module docstring
        threshold = heapq.nsmallest(k, keys)[-1] if k < len(keys) else math.inf
        candidates: list[tuple[float, int, EmbeddingGroup]] = []
        for root, span in compress(zip(roots, classes.spans), map(threshold.__ge__, keys)):
            scores = _class_scores(dots[span], root)
            for key, group in compress(zip(scores, groups[span]), map(threshold.__ge__, scores)):
                candidates.append((key, group.members[0].pool_index, group))
        best: list[tuple[float, int, ExamplePair]] = []
        for key, first_index, group in sorted(candidates):
            if len(best) == n and (key, first_index) > best[-1][:2]:
                break  # every later member scores lower, or as high and later in the pool
            _join(best, n, key, group.members, exclude_question)
        if len(best) == n or k >= len(keys):
            return [pair for _, _, pair in best]
        k *= 2


def _class_scores(dots: Sequence[float], root: float) -> list[float]:
    """The negated cosines of one norm class's groups: their dot products
    with the target over the class's root, sqrt(‖target‖² · ‖row‖²)."""
    return list(map(neg, map(truediv, dots, repeat(root))))


# round-2 heap entry stages: a skeleton group, or a node count's bucket
# with no group, under its label bound, then a group under its traversal bound
_LABEL_BOUNDED, _TRAVERSAL_BOUNDED = range(2)


def retrieve_by_sql_skeleton(
    round1_sql: str,
    index: RetrievalIndex,
    n: int,
    *,
    exclude_question: str | None = None,
) -> RetrievalResult:
    """Top-n pool entries by ascending parse-tree edit distance.

    If the round-1 SQL does not parse, ranks nothing: the result is
    empty and tagged ``fallback="question"``, and the caller keeps its
    question-skeleton examples.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        target = SqlSkeleton.from_sql(round1_sql)
    except ParseError:
        return RetrievalResult([], fallback="question")
    label_bags, buckets = index.skeleton_groups
    target_labels = label_bags.bag(target.compiled.postorder)
    patterns = traversal_patterns(target.compiled)
    # (lower bound, first pool index, stage, group, the release of a
    # label-bounded entry's bucket); the first two are unique. A bucket
    # enters under its ring distance with no group, its release unstarted.
    heap: list[tuple] = [(abs(size - target_labels.size), -1 - size, _LABEL_BOUNDED, None,
                          bucket.release(target_labels)) for size, bucket in buckets.items()]
    heapq.heapify(heap)
    best: list[tuple[int, int, ExamplePair]] = []
    while heap:
        key, first_index, stage, item, released = heapq.heappop(heap)
        if len(best) == n and (key, first_index) > best[-1][:2]:
            break  # every later member is farther, or as far and later in the pool
        if released is not None:  # the bucket's next group takes the popped entry's place
            for bound, index_of_first, group in islice(released, 1):
                heapq.heappush(heap, (bound, index_of_first, _LABEL_BOUNDED, group, released))
        if item is None or all(pair.question == exclude_question for pair in item.members):
            continue
        if relabel_upper_bound(target.compiled, item.skeleton.compiled) == key:
            _join(best, n, key, item.members, exclude_question)  # an upper bound meets a lower one
            continue
        if len(best) == n:
            # a member ranks ahead of the n-th best only within this distance
            limit = best[-1][0] - (first_index > best[-1][1])
        else:
            limit = key + 2  # min(limit + 1, distance) is still a lower bound
        if stage == _LABEL_BOUNDED:
            bound = traversal_lower_bound(patterns, item.skeleton.compiled, limit)
            if len(best) == n and bound > limit:
                continue
            if bound > key:
                heapq.heappush(heap, (bound, first_index, _TRAVERSAL_BOUNDED, item, None))
                continue
        distance = tree_edit_distance(target, item.skeleton, limit)
        if distance > limit:
            if len(best) < n:  # limit + 1 is a lower bound: score it again under that key
                heapq.heappush(heap, (distance, first_index, _TRAVERSAL_BOUNDED, item, None))
            continue
        _join(best, n, distance, item.members, exclude_question)
    return RetrievalResult([pair for _, _, pair in best])


def _join(best: list, n: int, key, members: Sequence[ExamplePair], exclude: str | None) -> None:
    """Merge ``members``, less any whose question is ``exclude``, under
    ``key`` into ``best``: the n best (key, pool index, pair) in order."""
    best.extend((key, pair.pool_index, pair) for pair in members if pair.question != exclude)
    best.sort()
    del best[n:]


# ----------------------------------------------------------------------
# index construction and persistence
# ----------------------------------------------------------------------


class PoolItem(NamedTuple):
    """One pool statement as ``build_index`` reads it: parsed once, by the caller."""

    question: str
    sql: str
    tree: Node  # the parse of ``sql``
    linked: SchemaSubset = SchemaSubset()  # masking context for the question


def build_index(
    items: Iterable[PoolItem],
    embedder: EmbeddingProvider,
    *,
    gateway: LlmGateway | None = None,
    model_id: str = "",
) -> RetrievalIndex:
    """Precompute skeletons and embeddings for a pool, numbered in the order given.

    ``items`` is read once, item by item, and only each item's skeletons
    are kept, so a generator that parses as it goes never holds more
    than one parse tree. Each embedding is packed into an ``array('d')``
    row and the embedder's vector dropped, so the two are never all held
    at once. An embedding that ``_embedding_row`` refuses, its length
    included, raises ``ValueError``. Rebuilding from identical inputs
    yields an identical index.
    """
    kept = [
        (item.question, item.sql,
         extract_question_skeleton(item.question, item.linked, gateway, model_id).text,
         SqlSkeleton.from_tree(item.tree))
        for item in items
    ]
    embeddings = embedder.embed([q_skeleton for _, _, q_skeleton, _ in kept]) if kept else []
    dimension = embedder.dimension or (len(embeddings[0]) if embeddings else 0)
    pool: list[ExamplePair] = []
    for index, (question, sql, q_skeleton, s_skeleton) in enumerate(kept):
        try:
            row = _embedding_row(embeddings[index], dimension)
        except ValueError as exc:
            raise ValueError(f"embedding {index} {exc}") from None
        embeddings[index] = None
        pool.append(ExamplePair(question, sql, q_skeleton, row, s_skeleton, index))
    return RetrievalIndex(pool=pool, provider_id=embedder.provider_id, dimension=dimension)


def _embedding_row(values: Sequence[float], dimension: int) -> array:
    """``values`` packed as one ``array('d')`` row, as ``build_index`` and
    ``load_index`` hold each pool embedding and round 1 its target.

    Raises ``ValueError`` naming the cause unless there are ``dimension``
    values, each a finite number (a bool passes, as 0 or 1), and their sum
    is within float range, so that an index ``save_index`` writes loads
    again. Its squared norm may be beyond float range: round 1 takes every
    embedding ``_scaled``.
    """
    try:
        row = array("d", values)
    except (TypeError, OverflowError) as exc:  # OverflowError: an integer beyond float range
        raise ValueError(f"is not numbers within float range ({exc})") from None
    if len(row) != dimension:
        raise ValueError(f"has {len(row)} values, not {dimension}")
    if math.isfinite(sum(row)):  # one C-level sum: not finite if any value is NaN or infinite
        return row
    if all(map(math.isfinite, row)):
        raise ValueError("has values whose sum is beyond float range")
    raise ValueError("holds a value that is not finite")


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
            "q_embedding": pair.q_embedding.tolist(),
            "s_skeleton": pair.s_skeleton.text,
            "s_postorder": pair.s_skeleton.compiled.postorder,
            "s_leftmost": pair.s_skeleton.compiled.leftmost,
            "pool_index": pair.pool_index,
        }
        for pair in index.pool
    )
    write_lines(path, (json.dumps(d, sort_keys=True) for d in chain([header], records)))


def load_index(path: str | Path) -> RetrievalIndex:
    """Read an index that ``save_index`` wrote.

    Records with equal skeleton texts share one ``SqlSkeleton``, built
    from the stored arrays without parsing SQL. An index of another
    format raises ``ConfigError``. ``CorruptFileError``, naming the file
    and the line, is raised for an empty file, a header line that is not
    of shape ``INDEX_HEADER``, and any later line that does not decode,
    is not of shape ``INDEX_RECORD``, is out of pool order, has a
    ``q_embedding`` that ``_embedding_row`` refuses for the header's
    ``dimension``, or skeleton arrays that do not describe a tree or
    differ between records of one text. Each ``q_embedding`` is held as
    an ``array('d')`` row.
    """
    skeletons: dict[str, SqlSkeleton] = {}
    pool: list[ExamplePair] = []
    header = next(read_records(path, INDEX_HEADER, dict, "index record"), None)
    if header is None:
        raise CorruptFileError(f"{path}, line 1: malformed index record (empty file)")
    if header.get("format") != INDEX_FORMAT:
        raise ConfigError(
            f"{path} is a retrieval index of format {header.get('format', 1)!r}, "
            f"not {INDEX_FORMAT}; rebuild with `solidql index`"
        )
    provider_id, dimension = header["provider_id"], header["dimension"]

    def example(record: dict) -> ExamplePair:
        text = record["s_skeleton"]
        postorder, leftmost = record["s_postorder"], record["s_leftmost"]
        skeleton = skeletons.get(text)
        if skeleton is None:
            skeleton = SqlSkeleton(text, compile_postorder(postorder, leftmost))
            skeletons[text] = skeleton
        elif (postorder, leftmost) != (skeleton.compiled.postorder, skeleton.compiled.leftmost):
            raise ValueError(f"skeleton {text!r} is stored with two different trees")
        if record["pool_index"] != len(pool):
            raise ValueError(f"pool_index {record['pool_index']!r} at row {len(pool)}")
        try:
            row = _embedding_row(record["q_embedding"], dimension)
        except ValueError as exc:
            raise ValueError(f"q_embedding {exc}") from None
        return ExamplePair(
            question=record["question"],
            sql=record["sql"],
            q_skeleton=record["q_skeleton"],
            q_embedding=row,
            s_skeleton=skeleton,
            pool_index=len(pool),
        )

    for pair in read_records(path, INDEX_RECORD, example, "index record", first=2):
        pool.append(pair)
    return RetrievalIndex(pool=pool, provider_id=provider_id, dimension=dimension)
