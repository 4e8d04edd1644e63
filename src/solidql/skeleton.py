"""SQL skeletons and structural similarity between them.

A skeleton is the parse tree of a statement with every table name,
column name, and literal value replaced by a placeholder leaf (``_T_``,
``_C_``, ``_V_``), keeping keywords, operators, function names, and the
tree shape. Placeholders are parser-legal identifiers, so a skeleton's
text rendering can be parsed back into an equal tree.

Structural similarity is the edit distance between skeleton trees:
the minimum number of node insertions, deletions, and relabelings that
turns one ordered tree into the other (Zhang–Shasha dynamic program,
unit costs). Two cheap lower bounds on it let a search skip trees: the
label-multiset bound and the traversal-string bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
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
    children = tuple(_mask(child) for child in node.children)
    if kind == TABLE_ALIAS:
        return Node(TABLE_ALIAS, TABLE_PLACEHOLDER, children)
    if kind == COLUMN_ALIAS:
        return Node(COLUMN_ALIAS, COLUMN_PLACEHOLDER, children)
    return Node(kind, node.text, children)


# ----------------------------------------------------------------------
# ordered-tree edit distance
# ----------------------------------------------------------------------


def tree_edit_distance(a: SqlSkeleton, b: SqlSkeleton) -> int:
    """Minimum unit-cost edit script length between two skeletons."""
    return _zhang_shasha(a.compiled, b.compiled)


class LabelBag(NamedTuple):
    """A tree's node-label multiset: its size and a bit mask (see ``LabelBags``)."""

    size: int
    mask: int


class LabelBags:
    """Numbers label occurrences so that label multisets become bit masks.

    A tree is given as the sequence of its node labels, in any order.
    The k-th node carrying a label, for every k and label found in the
    trees given, gets its own bit. The size of the intersection of two
    multisets is then the popcount of the AND of their masks. ``bag``
    leaves out occurrences that have no bit, but counts them in the
    size; no mask of the given trees has them either, so intersections
    with those masks are exact.
    """

    def __init__(self, trees: Iterable[Sequence[str]]) -> None:
        self._bits: dict[tuple[str, int], int] = {}
        for labels in trees:
            for occurrence in _label_occurrences(labels):
                self._bits.setdefault(occurrence, len(self._bits))

    def bag(self, labels: Sequence[str]) -> LabelBag:
        mask = 0
        size = 0
        for occurrence in _label_occurrences(labels):
            size += 1
            bit = self._bits.get(occurrence)
            if bit is not None:
                mask |= 1 << bit
        return LabelBag(size, mask)


def _label_occurrences(labels: Iterable[str]) -> Iterator[tuple[str, int]]:
    seen: dict[str, int] = {}
    for label in labels:
        k = seen.get(label, 0)
        seen[label] = k + 1
        yield label, k


def label_lower_bound(a: LabelBag, b: LabelBag) -> int:
    """max(|A∖B|, |B∖A|) over two trees' label multisets.

    A mapping between the trees pairs at most min(|A|, |B|) nodes and
    keeps at most |A ∩ B| of them unrelabeled, so the unit-cost edit
    distance is at least max(|A|, |B|) − |A ∩ B| (the histogram filter
    of Kailing et al., EDBT 2004). It is never below ||A| − |B||.
    """
    return max(a.size, b.size) - (a.mask & b.mask).bit_count()


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


def traversal_lower_bound(a: CompiledTree, b: CompiledTree, limit: int) -> int:
    """min(limit + 1, the larger unit-cost string edit distance of the
    two trees' preorder label sequences and of their postorder ones).

    An edit of a tree is at most one edit of each traversal string, so
    either string distance is a lower bound on the tree edit distance
    (Guha et al., SIGMOD 2002). ``limit`` lets both be computed in a
    band and abandoned early; see ``bounded_string_distance``.
    """
    # postorder first: on generated skeletons it rules out more pairs
    distance = bounded_string_distance(a.postorder, b.postorder, limit)
    if distance > limit:
        return distance
    return max(distance, bounded_string_distance(a.preorder, b.preorder, limit))


def bounded_string_distance(s: Sequence[str], t: Sequence[str], limit: int) -> int:
    """min(limit + 1, unit-cost edit distance between ``s`` and ``t``).

    Only cells with |i − j| ≤ limit are filled: an alignment that leaves
    that band makes more than ``limit`` insertions or deletions. Cells
    outside it count as limit + 1, which keeps every filled cell at or
    above its exact value and exact whenever that value is within the
    limit. The search stops at the first row whose cells all exceed the
    limit, since no cell of a later row is less than the least of them.
    """
    cap = limit + 1
    n, m = len(s), len(t)
    if abs(n - m) >= cap:
        return cap
    prev = [j if j < cap else cap for j in range(m + 1)]
    for i in range(1, n + 1):
        row = [cap] * (m + 1)
        if i < cap:
            row[0] = i
        first = max(1, i - limit)
        least = left = row[first - 1]
        diag = prev[first - 1]
        label = s[i - 1]
        for j in range(first, min(m, i + limit) + 1):
            up = prev[j]
            best = diag + (label != t[j - 1])
            if up < left:  # best = min(best, up + 1, left + 1)
                left = up
            if left + 1 < best:
                best = left + 1
            if best > cap:
                best = cap
            row[j] = left = best
            diag = up
            if best < least:
                least = best
        if least >= cap:
            return cap
        prev = row
    return prev[m]


def node_edit_distance(a: Node, b: Node) -> int:
    """Zhang–Shasha ordered-tree edit distance with unit costs."""
    return _zhang_shasha(compile_tree(a), compile_tree(b))


def _zhang_shasha(a: CompiledTree, b: CompiledTree) -> int:
    la, labels_a = a.leftmost, a.postorder
    lb, labels_b = b.leftmost, b.postorder
    n, m = len(labels_a), len(labels_b)
    # treedist[i][j]: distance between subtrees rooted at postorder i, j
    treedist = [[0] * m for _ in range(n)]

    for ka in a.keyroots:
        for kb in b.keyroots:
            _subtree_distance(ka, kb, la, lb, labels_a, labels_b, treedist)
    return treedist[n - 1][m - 1]


def _subtree_distance(
    i: int,
    j: int,
    la: list[int],
    lb: list[int],
    labels_a: list[str],
    labels_b: list[str],
    treedist: list[list[int]],
) -> None:
    ioff = la[i] - 1
    joff = lb[j] - 1
    rows = i - la[i] + 2
    cols = j - lb[j] + 2
    # forest-distance column left of each column's leftmost leaf; 0 on j's leftmost path
    leaf_cols = [0] + [lb[by] - 1 - joff for by in range(joff + 1, j + 1)]
    fd = [list(range(cols))]
    for x in range(1, rows):
        ax = x + ioff
        lax = la[ax]
        prev = fd[x - 1]
        tree_row = treedist[ax]
        left = x
        row = [left]
        if lax == la[i]:
            label = labels_a[ax]
            diag = prev[0]
            for y in range(1, cols):
                up = prev[y]
                q = leaf_cols[y]
                by = y + joff
                if q:
                    best = q + tree_row[by]  # fd[0][q] == q
                else:
                    best = diag + (label != labels_b[by])
                if up < left:  # best = min(best, up + 1, left + 1)
                    left = up
                if left + 1 < best:
                    best = left + 1
                if not q:
                    tree_row[by] = best
                row.append(best)
                left = best
                diag = up
        else:
            leaf_row = fd[lax - 1 - ioff]
            for y in range(1, cols):
                up = prev[y]
                best = leaf_row[leaf_cols[y]] + tree_row[y + joff]
                if up < left:
                    left = up
                if left + 1 < best:
                    best = left + 1
                row.append(best)
                left = best
        fd.append(row)
