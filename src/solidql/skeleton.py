"""SQL skeletons and structural similarity between them.

A skeleton is the parse tree of a statement with every table name,
column name, and literal value replaced by a placeholder leaf (``_T_``,
``_C_``, ``_V_``), keeping keywords, operators, function names, and the
tree shape. Placeholders are parser-legal identifiers, so a skeleton's
text rendering can be parsed back into an equal tree.

Structural similarity is the edit distance between skeleton trees: the
minimum number of node insertions, deletions, and relabelings that turns
one ordered tree into the other (Zhang–Shasha dynamic program, unit
costs). Given a limit, the one dynamic program answers min(distance,
limit + 1) and skips what no mapping within the limit uses: keyroot
pairs whose leftmost leaves lie too far apart in postorder (Touzet, CPM
2005), and forest cells off a band of diagonals. The answer is exact up
to the limit. Two cheap lower bounds on the distance let a search skip
trees: the label-multiset bound, the larger node count less the label
occurrences two trees share, which ``LabelBags`` numbers as bits, so
that a search can count the shared ones for many trees at once
(``retrieval.SizeBucket`` packs them into columns); and the
traversal-string bound, a string edit distance computed bit-parallel in
a few integer operations per label, against label masks of one tree
built once for all the trees it is bounded against
(``traversal_patterns``). One cheap upper bound lets it skip the dynamic
program: two trees of one shape are at most their number of differing
postorder labels apart, so when that count equals a lower bound in hand,
it is the distance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import ne
from typing import Iterable, Iterator, NamedTuple, Sequence

from .sql.nodes import (
    COLUMN_ALIAS,
    COLUMN_REF,
    LITERAL,
    TABLE_ALIAS,
    TABLE_REF,
    Node,
)
from .sql.parser import parse_sql
from .sql.render import render_sql

TABLE_PLACEHOLDER = "_T_"
COLUMN_PLACEHOLDER = "_C_"
VALUE_PLACEHOLDER = "_V_"


@dataclass(frozen=True)
class SqlSkeleton:
    """A skeleton's canonical rendering and its compiled tree.

    The compiled form is all that distances and bounds read; the parse
    tree is re-read from ``text`` on demand.
    """

    text: str
    compiled: CompiledTree = field(hash=False)

    @property
    def tree(self) -> Node:
        """The placeholder-normalized parse tree, parsed from ``text``."""
        return _mask(parse_sql(self.text))

    @classmethod
    def from_tree(cls, tree: Node) -> "SqlSkeleton":
        """Mask a parsed statement's identifiers and values into placeholders."""
        masked = _mask(tree)
        return cls(text=render_sql(masked), compiled=compile_tree(masked))

    @classmethod
    def from_sql(cls, sql: str) -> "SqlSkeleton":
        """Parse a statement and mask its identifiers and values into placeholders."""
        return cls.from_tree(parse_sql(sql))

    @classmethod
    def from_text(cls, text: str) -> "SqlSkeleton":
        """Re-read a skeleton from its own rendering.

        Skeletonizing a rendering gives back the skeleton that produced
        it: value placeholders parse as column references, which the
        mask folds back into literal leaves.
        """
        return cls.from_sql(text)


def _mask(node: Node) -> Node:
    kind = node.kind
    if kind == TABLE_REF:
        return Node(TABLE_REF, TABLE_PLACEHOLDER)
    if kind == COLUMN_REF:
        if node.text == VALUE_PLACEHOLDER:  # re-masking a skeleton rendering
            return Node(LITERAL, VALUE_PLACEHOLDER)
        return Node(COLUMN_REF, COLUMN_PLACEHOLDER)
    if kind == LITERAL:
        return Node(LITERAL, VALUE_PLACEHOLDER)
    children = tuple(map(_mask, node.children))
    if kind == TABLE_ALIAS:
        return Node(TABLE_ALIAS, TABLE_PLACEHOLDER, children)
    if kind == COLUMN_ALIAS:
        return Node(COLUMN_ALIAS, COLUMN_PLACEHOLDER, children)
    return Node(kind, node.text, children)


# ----------------------------------------------------------------------
# ordered-tree edit distance
# ----------------------------------------------------------------------


def tree_edit_distance(a: SqlSkeleton, b: SqlSkeleton, limit: int | None = None) -> int:
    """min(limit + 1, minimum unit-cost edit script length between two skeletons).

    ``limit=None`` gives the distance itself: deleting every node of one
    tree and inserting every node of the other costs the sum of their
    node counts, and no distance exceeds it. See ``_zhang_shasha`` for
    what a finite limit lets the dynamic program skip.
    """
    return _zhang_shasha(a.compiled, b.compiled, limit)


class LabelBag(NamedTuple):
    """A tree's node-label multiset: its size and the bits of its label
    occurrences (see ``LabelBags``), in the order of its labels."""

    size: int
    bits: list[int]


class LabelBags:
    """Numbers label occurrences so that label multisets become sets of bits.

    A tree is given as the sequence of its node labels, in any order.
    ``number`` gives the k-th node carrying a label, for every k and label
    of the tree, its own bit unless an earlier tree already gave that
    occurrence one. The size of the intersection of two multisets is then
    the number of bits their bags share, and max(|A|, |B|) − |A ∩ B| is
    a lower bound on the tree edit distance: a mapping keeps at most
    |A ∩ B| nodes unrelabeled (the histogram filter of Kailing et al.,
    EDBT 2004). ``bag`` numbers nothing: it leaves out occurrences that
    have no bit, but counts them in the size, and no numbered tree holds
    them, so intersections with the numbered trees stay exact.
    """

    def __init__(self) -> None:
        self._bits: dict[tuple[str, int], int] = {}

    def number(self, labels: Sequence[str]) -> LabelBag:
        bits = self._bits
        numbered = [bits.setdefault(occurrence, len(bits)) for occurrence in _label_occurrences(labels)]
        return LabelBag(len(numbered), numbered)

    def bag(self, labels: Sequence[str]) -> LabelBag:
        occurrences = list(_label_occurrences(labels))
        bits = self._bits
        return LabelBag(len(occurrences), [bits[occurrence] for occurrence in occurrences if occurrence in bits])


def _label_occurrences(labels: Iterable[str]) -> Iterator[tuple[str, int]]:
    seen: dict[str, int] = {}
    for label in labels:
        k = seen.get(label, 0)
        seen[label] = k + 1
        yield label, k


class CompiledTree(NamedTuple):
    """The label sequences and postorder indices that the distances read.

    Labels are interned, so equal labels of different trees are one
    string object.
    """

    preorder: list[str]  # labels in preorder
    postorder: list[str]  # labels in postorder
    leftmost: list[int]  # postorder index of each node's leftmost leaf, in postorder
    keyroots: list[int]


def compile_tree(root: Node) -> CompiledTree:
    """The arrays ``tree_edit_distance`` and ``traversal_lower_bound`` read."""
    postorder: list[str] = []
    leftmost: list[int] = []

    def visit(node: Node) -> None:
        first = len(postorder)  # a subtree's leftmost leaf is where it starts in postorder
        for child in node.children:
            visit(child)
        leftmost.append(first)
        postorder.append(node.label)

    visit(root)
    return compile_postorder(postorder, leftmost)


def compile_postorder(postorder: Sequence[str], leftmost: Sequence[int]) -> CompiledTree:
    """The compiled tree with these postorder labels and leftmost leaves.

    Derives the preorder and the keyroots (the nodes that share their
    leftmost leaf with no later node) in one pass without building the
    tree. Raises ``ValueError`` when the arrays do not describe one
    tree: their lengths differ, a leftmost index is not in [0, i], or
    the subtrees they span do not nest under the last node; and
    ``TypeError`` when a label is not a string.
    """
    n = len(postorder)
    if not n or len(leftmost) != n:
        raise ValueError(f"{n} postorder labels but {len(leftmost)} leftmost indices")
    for i, first in enumerate(leftmost):
        if type(first) is not int or not 0 <= first <= i:
            raise ValueError(f"leftmost[{i}] = {first!r} is outside [0, {i}]")
    if leftmost[-1]:
        raise ValueError("the last node does not span the tree")
    postorder = [sys.intern(label) for label in postorder]
    leftmost = list(leftmost)
    preorder: list[str] = []
    keyroots = [n - 1]  # the root and every node that is not its parent's leftmost child
    stack = [n - 1]
    while stack:
        i = stack.pop()
        preorder.append(postorder[i])
        first = leftmost[i]
        child = i - 1
        while child >= first:  # the children of i, right to left
            stack.append(child)
            if leftmost[child] != first:
                keyroots.append(child)
            child = leftmost[child] - 1
        if child != first - 1:
            raise ValueError(f"the subtrees under node {i} do not nest")
    keyroots.sort()
    return CompiledTree(preorder, postorder, leftmost, keyroots)


def relabel_upper_bound(a: CompiledTree, b: CompiledTree) -> int:
    """An upper bound on the tree edit distance: the number of postorder
    positions whose labels differ, if the two trees have one shape, and
    otherwise the sum of their node counts.

    ``compile_postorder`` rebuilds a tree's shape from its ``leftmost``
    array alone, so trees with equal arrays have one shape: node i is an
    ancestor of node j in either tree exactly when leftmost[i] ≤ j < i.
    Pairing postorder node i with postorder node i then keeps ancestry
    and left-to-right order, so it is a valid ordered-tree mapping. It
    maps every node, and costs one per pair of differing labels. Any two
    trees are also at most the sum of their node counts apart: delete
    every node of one and insert every node of the other. A search that
    holds a lower bound equal to this bound has the exact distance
    without running the dynamic program.
    """
    if a.leftmost != b.leftmost:
        return len(a.postorder) + len(b.postorder)
    return sum(map(ne, a.postorder, b.postorder))


class StringPattern(NamedTuple):
    """A label sequence as ``bounded_string_distance`` reads it: its
    length, and per label the mask of the positions that hold it."""

    length: int
    masks: dict[str, int]  # bit i set where position i holds the label


def string_pattern(s: Sequence[str]) -> StringPattern:
    """The masks of ``s``'s positions, label by label."""
    masks: dict[str, int] = {}
    bit = 1
    for label in s:
        masks[label] = masks.get(label, 0) | bit
        bit <<= 1
    return StringPattern(len(s), masks)


def traversal_patterns(tree: CompiledTree) -> tuple[StringPattern, StringPattern]:
    """The patterns of a tree's postorder and preorder label sequences, as
    ``traversal_lower_bound`` takes them, so that one tree bounded against
    many builds them once."""
    return string_pattern(tree.postorder), string_pattern(tree.preorder)


def traversal_lower_bound(a: tuple[StringPattern, StringPattern], b: CompiledTree, limit: int) -> int:
    """min(limit + 1, the larger unit-cost string edit distance of the
    two trees' preorder label sequences and of their postorder ones); the
    first tree is given by its ``traversal_patterns``.

    An edit of a tree is at most one edit of each traversal string, so
    either string distance is a lower bound on the tree edit distance
    (Guha et al., SIGMOD 2002). Both are exact string distances, computed
    by ``bounded_string_distance``; the preorder one is skipped when the
    postorder one already exceeds ``limit``.
    """
    postorder, preorder = a
    # postorder first: on generated skeletons it rules out more pairs
    distance = bounded_string_distance(postorder, b.postorder, limit)
    if distance > limit:
        return distance
    return max(distance, bounded_string_distance(preorder, b.preorder, limit))


def bounded_string_distance(s: StringPattern, t: Sequence[str], limit: int) -> int:
    """min(limit + 1, unit-cost edit distance between the sequence of
    pattern ``s`` and ``t``).

    Bit-parallel (Myers, JACM 1999, in Hyyrö's form for the distance
    of whole strings). Column j of the dynamic program D over s and
    t[:j] is held as two masks of its vertical differences: bit i is set
    in ``plus`` when D[i + 1][j] − D[i][j] = +1 and in ``minus`` when it
    is −1. The next column follows from them and from the mask of the
    positions of s that hold t[j] by a fixed number of integer
    operations, however long s is (Python integers have no word
    size). The last row's value D[len(s)][j] is carried along, so the
    result is the exact distance, capped at ``limit + 1`` at the end.
    """
    cap = limit + 1
    m, n = s.length, len(t)
    if abs(m - n) >= cap:
        return cap
    if not m:
        return n
    masks = s.masks
    last = 1 << (m - 1)
    column = (last << 1) - 1
    plus, minus = column, 0  # D[i][0] = i: every vertical difference is +1
    score = m
    for label in t:
        eq = masks.get(label, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horizontal | plus)
        h_minus = plus & horizontal
        if h_plus & last:
            score += 1
        elif h_minus & last:
            score -= 1
        h_plus = (h_plus << 1) | 1  # D[0][j] − D[0][j − 1] = +1
        # bits from len(s) up never reach lower ones; the mask keeps them 0
        plus = ((h_minus << 1) | ~(vertical | h_plus)) & column
        minus = h_plus & vertical
    return score if score < cap else cap


def node_edit_distance(a: Node, b: Node) -> int:
    """Zhang–Shasha ordered-tree edit distance with unit costs."""
    return _zhang_shasha(compile_tree(a), compile_tree(b), None)


def _zhang_shasha(a: CompiledTree, b: CompiledTree, limit: int | None) -> int:
    """min(limit + 1, unit-cost tree edit distance), by one capped, banded DP.

    Take a mapping of cost d and a cell (x, y) on its path in the forest
    DP of keyroots ka, kb: a's x nodes from postorder la[ka] against b's
    y nodes from lb[kb]. The mapping pairs nodes before these prefixes
    with nodes before them, nodes in them with nodes in them, and nodes
    after with nodes after, so every difference between those node
    counts is made of unmapped nodes: d ≥ |before| + |x − y| +
    |after − (x − y)|, with before = la[ka] − lb[kb] and after =
    n − m − before (Touzet, CPM 2005, uses the first two terms). A
    keyroot pair with |before| + |after| > limit is skipped, and each
    forest DP fills only the diagonals x − y that keep the sum within
    the limit. Every cell left out counts as limit + 1, and every filled
    one is capped there: none is below the capped distance of its
    forests, and a mapping within the limit passes only through filled
    cells, so the result is exact up to the limit.
    """
    la, labels_a = a.leftmost, a.postorder
    lb, labels_b = b.leftmost, b.postorder
    n, m = len(labels_a), len(labels_b)
    if limit is None:
        limit = n + m
    cap = limit + 1
    # treedist[i][j]: min(cap, distance between subtrees rooted at postorder i, j)
    treedist = [[cap] * m for _ in range(n)]
    # per keyroot of b: the forest-distance column left of each column's
    # leftmost leaf; 0 on the keyroot's leftmost path
    leaf_cols = {kb: [0] + [lb[by] - lb[kb] for by in range(lb[kb], kb + 1)] for kb in b.keyroots}
    for ka in a.keyroots:
        for kb in b.keyroots:
            before = la[ka] - lb[kb]
            after = n - m - before
            slack = (limit - abs(before) - abs(after)) // 2
            if slack >= 0:
                low, high = min(0, after) - slack, max(0, after) + slack
                _subtree_distance(ka, kb, low, high, cap, la, lb, labels_a, labels_b,
                                  leaf_cols[kb], treedist)
    return treedist[n - 1][m - 1]


def _subtree_distance(
    i: int,
    j: int,
    low: int,
    high: int,
    cap: int,
    la: list[int],
    lb: list[int],
    labels_a: list[str],
    labels_b: list[str],
    leaf_cols: list[int],
    treedist: list[list[int]],
) -> None:
    """Fill ``treedist`` for the subtree pairs on i's and j's leftmost
    paths from the forest cells (x, y) with low ≤ x − y ≤ high."""
    ioff = la[i] - 1
    joff = lb[j] - 1
    cols = j - lb[j] + 2
    rows = min(i - la[i] + 2, cols + high)  # a later row has no cell in the band
    fd = [list(range(min(cols, 1 - low))) + [cap] * (cols - 1 + low)]
    for x in range(1, rows):
        ax = x + ioff
        lax = la[ax]
        prev = fd[x - 1]
        tree_row = treedist[ax]
        row = [cap] * cols
        if x <= high:
            row[0] = x
            first = 1
        else:
            first = x - high
        end = min(cols, x - low + 1)
        left = row[first - 1]
        if lax == la[i]:
            label = labels_a[ax]
            diag = prev[first - 1]
            for y in range(first, end):
                up = prev[y]
                q = leaf_cols[y]
                by = y + joff
                if q:
                    best = q + tree_row[by]  # the empty forest against q nodes: q insertions
                else:
                    best = diag + (label != labels_b[by])
                if up < left:  # best = min(best, up + 1, left + 1, cap)
                    left = up
                if left + 1 < best:
                    best = left + 1
                if best > cap:
                    best = cap
                if not q:
                    tree_row[by] = best
                row[y] = left = best
                diag = up
        else:
            leaf_row = fd[lax - 1 - ioff]
            for y in range(first, end):
                up = prev[y]
                best = leaf_row[leaf_cols[y]] + tree_row[y + joff]
                if up < left:
                    left = up
                if left + 1 < best:
                    best = left + 1
                if best > cap:
                    best = cap
                row[y] = left = best
        fd.append(row)
