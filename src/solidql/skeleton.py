"""SQL skeletons and structural similarity between them.

A skeleton is the parse tree of a statement with every table name,
column name, and literal value replaced by a placeholder leaf (``_T_``,
``_C_``, ``_V_``), keeping keywords, operators, function names, and the
tree shape. Placeholders are parser-legal identifiers, so a skeleton's
text rendering can be parsed back into an equal tree.

Structural similarity is the edit distance between skeleton trees:
the minimum number of node insertions, deletions, and relabelings that
turns one ordered tree into the other (Zhang–Shasha dynamic program,
unit costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

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
    """Placeholder-normalized parse tree plus its canonical rendering."""

    tree: Node
    text: str
    node_count: int

    @classmethod
    def from_tree(cls, tree: Node) -> "SqlSkeleton":
        return cls(tree=tree, text=render_sql(tree), node_count=tree.size())

    @classmethod
    def from_sql(cls, sql: str) -> "SqlSkeleton":
        """Parse and skeletonize a statement in one step."""
        return extract_sql_skeleton(parse_sql(sql))

    @classmethod
    def from_text(cls, text: str) -> "SqlSkeleton":
        """Re-read a skeleton from its own rendering.

        Value placeholders parse as identifiers, so they are folded back
        into literal leaves after parsing; the result is structurally
        equal to the skeleton that produced the text.
        """
        return cls.from_tree(_restore_placeholders(parse_sql(text)))


def extract_sql_skeleton(ast: Node) -> SqlSkeleton:
    """Mask identifiers and values of a parse tree into placeholders."""
    return SqlSkeleton.from_tree(_mask(ast))


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


def _restore_placeholders(node: Node) -> Node:
    children = tuple(_restore_placeholders(child) for child in node.children)
    if node.text == VALUE_PLACEHOLDER and node.kind == COLUMN_REF:
        return Node(LITERAL, VALUE_PLACEHOLDER, children)
    return Node(node.kind, node.text, children)


# ----------------------------------------------------------------------
# ordered-tree edit distance
# ----------------------------------------------------------------------


def tree_edit_distance(a: SqlSkeleton, b: SqlSkeleton) -> int:
    """Minimum unit-cost edit script length between two skeletons."""
    return node_edit_distance(a.tree, b.tree)


def skeleton_similarity(a: SqlSkeleton, b: SqlSkeleton) -> float:
    """Distance normalized into [0, 1]; 1.0 iff the trees are equal."""
    distance = tree_edit_distance(a, b)
    return 1.0 - distance / (a.node_count + b.node_count)


class LabelBag(NamedTuple):
    """A tree's node-label multiset: its size and a bit mask (see ``LabelBags``)."""

    size: int
    mask: int


class LabelBags:
    """Numbers label occurrences so that label multisets become bit masks.

    The k-th node carrying a label, for every k and label found in the
    trees given, gets its own bit. The size of the intersection of two
    multisets is then the popcount of the AND of their masks. ``bag``
    leaves out occurrences that have no bit, but counts them in the
    size; no mask of the given trees has them either, so intersections
    with those masks are exact.
    """

    def __init__(self, trees: Iterable[Node]) -> None:
        self._bits: dict[tuple[str, int], int] = {}
        for tree in trees:
            for occurrence in _label_occurrences(tree):
                self._bits.setdefault(occurrence, len(self._bits))

    def bag(self, tree: Node) -> LabelBag:
        mask = 0
        size = 0
        for occurrence in _label_occurrences(tree):
            size += 1
            bit = self._bits.get(occurrence)
            if bit is not None:
                mask |= 1 << bit
        return LabelBag(size, mask)


def _label_occurrences(tree: Node) -> Iterator[tuple[str, int]]:
    seen: dict[str, int] = {}
    for node in tree.walk():
        label = node.label
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


def node_edit_distance(a: Node, b: Node) -> int:
    """Zhang–Shasha ordered-tree edit distance with unit costs."""
    la, labels_a = _postorder(a)
    lb, labels_b = _postorder(b)
    n, m = len(labels_a), len(labels_b)
    keyroots_a = _keyroots(la)
    keyroots_b = _keyroots(lb)
    # treedist[i][j]: distance between subtrees rooted at postorder i, j
    treedist = [[0] * m for _ in range(n)]

    for ka in keyroots_a:
        for kb in keyroots_b:
            _subtree_distance(ka, kb, la, lb, labels_a, labels_b, treedist)
    return treedist[n - 1][m - 1]


def _postorder(root: Node) -> tuple[list[int], list[str]]:
    """Leftmost-leaf indices and labels, both in postorder."""
    leftmost: list[int] = []
    labels: list[str] = []

    def visit(node: Node) -> int:
        first_leaf: int | None = None
        for child in node.children:
            child_leaf = visit(child)
            if first_leaf is None:
                first_leaf = child_leaf
        index = len(labels)
        leftmost.append(index if first_leaf is None else first_leaf)
        labels.append(node.label)
        return leftmost[index]

    visit(root)
    return leftmost, labels


def _keyroots(leftmost: list[int]) -> list[int]:
    seen: set[int] = set()
    roots: list[int] = []
    for i in range(len(leftmost) - 1, -1, -1):
        if leftmost[i] not in seen:
            seen.add(leftmost[i])
            roots.append(i)
    roots.reverse()
    return roots


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
