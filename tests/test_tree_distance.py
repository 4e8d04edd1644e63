"""Edit distance against the exhaustive mapping oracle, metric axioms and lower bounds."""

from __future__ import annotations

import functools
import random
from collections import Counter

import pytest

from solidql.skeleton import (
    LabelBags,
    SqlSkeleton,
    bounded_string_distance,
    compile_postorder,
    compile_tree,
    node_edit_distance,
    relabel_upper_bound,
    string_pattern,
    traversal_lower_bound,
    traversal_patterns,
    tree_edit_distance,
)
from solidql.sql.nodes import Node

from support import label_lower_bounds, oracle_tree_distance, random_statement, random_tree


def test_identity_is_zero():
    tree = random_tree(random.Random(1), max_nodes=8)
    assert node_edit_distance(tree, tree) == 0


def test_single_node_relabel_costs_one():
    assert node_edit_distance(Node("n", "a"), Node("n", "b")) == 1
    assert node_edit_distance(Node("n", "a"), Node("n", "a")) == 0


def test_subtree_insertion_costs_subtree_size():
    small = SqlSkeleton.from_sql("SELECT a FROM t")
    large = SqlSkeleton.from_sql("SELECT a FROM t WHERE b > 5")
    where = large.tree.clause("where")
    assert tree_edit_distance(small, large) == where.size()


def test_oracle_agreement_small_sample():
    rng = random.Random(42)
    for _ in range(150):
        a = random_tree(rng, max_nodes=8)
        b = random_tree(rng, max_nodes=8)
        assert node_edit_distance(a, b) == oracle_tree_distance(a, b)


def test_oracle_agreement_on_skeletons():
    rng = random.Random(43)
    statements = [random_statement(rng) for _ in range(30)]
    skeletons = [SqlSkeleton.from_sql(s) for s in statements]
    small = [s for s in skeletons if len(s.compiled.postorder) <= 8]
    for a in small[:6]:
        for b in small[:6]:
            assert tree_edit_distance(a, b) == oracle_tree_distance(a.tree, b.tree)


def _as_skeleton(tree: Node) -> SqlSkeleton:
    return SqlSkeleton("", compile_tree(tree))


def test_bounded_distance_is_the_oracle_capped_at_limit_plus_one():
    rng = random.Random(51)
    pairs = [(random_tree(rng, max_nodes=8), random_tree(rng, max_nodes=8)) for _ in range(150)]
    skeletons = [SqlSkeleton.from_sql(random_statement(rng)) for _ in range(200)]
    small = [s.tree for s in skeletons if len(s.compiled.postorder) <= 8][:8]
    assert len(small) >= 6
    pairs += [(a, b) for a in small for b in small]
    for a, b in pairs:
        exact = oracle_tree_distance(a, b)
        sa, sb = _as_skeleton(a), _as_skeleton(b)
        for limit in range(a.size() + b.size() + 1):
            assert tree_edit_distance(sa, sb, limit) == min(exact, limit + 1), (a, b, limit)


def _recursive_distance(a: SqlSkeleton, b: SqlSkeleton) -> int:
    """Tree edit distance by the plain forest recursion on the rightmost
    roots, memoized: no keyroots, no band, no cap."""
    la, labels_a = a.compiled.leftmost, a.compiled.postorder
    lb, labels_b = b.compiled.leftmost, b.compiled.postorder

    @functools.lru_cache(maxsize=None)
    def forest(i1: int, i2: int, j1: int, j2: int) -> int:  # a[i1..i2] against b[j1..j2]
        if i2 < i1 or j2 < j1:
            return max(i2 - i1 + 1, 0) + max(j2 - j1 + 1, 0)
        return min(
            forest(i1, i2 - 1, j1, j2) + 1,
            forest(i1, i2, j1, j2 - 1) + 1,
            forest(i1, la[i2] - 1, j1, lb[j2] - 1)
            + forest(la[i2], i2 - 1, lb[j2], j2 - 1)
            + (labels_a[i2] != labels_b[j2]),
        )

    return forest(0, len(labels_a) - 1, 0, len(labels_b) - 1)


def test_bounded_distance_on_skeletons_too_large_for_the_oracle():
    rng = random.Random(52)
    skeletons = [SqlSkeleton.from_sql(random_statement(rng)) for _ in range(60)]
    for a, b in zip(skeletons[::2], skeletons[1::2]):
        exact = _recursive_distance(a, b)
        assert tree_edit_distance(a, b) == exact
        for limit in range(len(a.compiled.postorder) + len(b.compiled.postorder) + 1):
            assert tree_edit_distance(a, b, limit) == min(exact, limit + 1)


def test_distance_may_exceed_both_tree_sizes():
    # a root with five leaves against a path of six nodes: a mapping keeps
    # at most a root and one leaf, so four deletions and four insertions
    star = Node("n", "A", tuple(Node("n", "A") for _ in range(5)))
    path = Node("n", "A")
    for _ in range(5):
        path = Node("n", "A", (path,))
    assert node_edit_distance(star, path) == oracle_tree_distance(star, path) == 8
    assert tree_edit_distance(_as_skeleton(star), _as_skeleton(path)) == 8


def test_metric_axioms_sample():
    rng = random.Random(44)
    trees = [random_tree(rng, max_nodes=7) for _ in range(12)]
    for x in trees:
        assert node_edit_distance(x, x) == 0
    for x in trees:
        for y in trees:
            dxy = node_edit_distance(x, y)
            assert dxy == node_edit_distance(y, x)
            if x != y:
                assert dxy > 0
    for x in trees[:6]:
        for y in trees[:6]:
            for z in trees[:6]:
                assert node_edit_distance(x, z) <= node_edit_distance(x, y) + node_edit_distance(y, z)


def _bound_and_multiset_formula(a: Node, b: Node) -> tuple[int, int]:
    labels = [compile_tree(a).postorder, compile_tree(b).postorder]
    bags = LabelBags()
    bag_a, bag_b = map(bags.number, labels)
    assert bags.bag(labels[0]) == bag_a  # a numbered tree's bag is the one numbering gave
    [bound] = label_lower_bounds(bag_a, [bag_b])
    labels_a = Counter(node.label for node in a.walk())
    labels_b = Counter(node.label for node in b.walk())
    common = sum((labels_a & labels_b).values())
    return bound, max(a.size(), b.size()) - common


def test_label_lower_bound_below_oracle_on_random_trees():
    rng = random.Random(45)
    for _ in range(300):
        a = random_tree(rng, max_nodes=8)
        b = random_tree(rng, max_nodes=8)
        bound, formula = _bound_and_multiset_formula(a, b)
        assert bound == formula
        assert abs(a.size() - b.size()) <= bound <= oracle_tree_distance(a, b)


def test_label_lower_bounds_of_a_list_are_those_of_each_pair():
    rng = random.Random(49)
    trees = [random_tree(rng, max_nodes=8) for _ in range(40)]
    labels = [compile_tree(tree).postorder for tree in trees]
    bags = LabelBags()
    numbered = [bags.number(tree) for tree in labels]
    bounds = label_lower_bounds(numbered[0], numbered)
    assert len({tree.size() for tree in trees}) > 4  # bags of several sizes in one call
    assert bounds == [_bound_and_multiset_formula(trees[0], tree)[1] for tree in trees]


def test_label_lower_bound_below_oracle_on_skeletons():
    rng = random.Random(46)
    skeletons = [SqlSkeleton.from_sql(random_statement(rng)) for _ in range(200)]
    small = [s for s in skeletons if len(s.compiled.postorder) <= 8][:8]
    assert len(small) >= 6
    for a in small:
        for b in small:
            bound, formula = _bound_and_multiset_formula(a.tree, b.tree)
            assert bound == formula
            assert bound <= oracle_tree_distance(a.tree, b.tree)
    for a, b in zip(skeletons[::2], skeletons[1::2]):
        bound, formula = _bound_and_multiset_formula(a.tree, b.tree)
        assert bound == formula
        assert bound <= tree_edit_distance(a, b)


def test_label_bags_leave_out_unnumbered_occurrences():
    known = Node("n", "A", (Node("n", "B"),))
    bags = LabelBags()
    numbered = bags.number(compile_tree(known).postorder)
    other = Node("n", "A", (Node("n", "C"), Node("n", "A")))
    bag = bags.bag(compile_tree(other).preorder)  # any order of the labels
    assert bag.size == 3 and len(bag.bits) == 1
    assert bags.bag(compile_tree(other).postorder) == bag  # bag numbers nothing
    assert label_lower_bounds(numbered, [bag]) == [2]
    assert node_edit_distance(known, other) == 2


def _string_distance(s, t) -> int:
    """Unit-cost edit distance by the full, unbanded dynamic program."""
    row = list(range(len(t) + 1))
    for i, x in enumerate(s, 1):
        prev, row = row, [i]
        for j, y in enumerate(t, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (x != y)))
    return row[-1]


def _traversal_bound(a: Node, b: Node) -> int:
    ta, tb = compile_tree(a), compile_tree(b)
    return traversal_lower_bound(traversal_patterns(ta), tb, len(ta.preorder) + len(tb.preorder))


def _relabeled(rng: random.Random, node: Node, alphabet: str = "ABC") -> Node:
    """A tree of ``node``'s shape with labels drawn from ``alphabet``."""
    return Node(node.kind, rng.choice(alphabet), tuple(_relabeled(rng, c, alphabet) for c in node.children))


def test_relabel_upper_bound_above_oracle_on_trees_of_one_shape():
    rng = random.Random(51)
    for _ in range(300):
        a = random_tree(rng, max_nodes=8)
        b = _relabeled(rng, a)
        ta, tb = compile_tree(a), compile_tree(b)
        differing = sum(x.label != y.label for x, y in zip(a.walk(), b.walk()))
        assert relabel_upper_bound(ta, tb) == differing >= oracle_tree_distance(a, b)


def test_relabel_upper_bound_of_two_shapes_is_both_sizes():
    rng = random.Random(52)
    shapes = 0
    for _ in range(300):
        a = random_tree(rng, max_nodes=8)
        b = random_tree(rng, max_nodes=8)
        ta, tb = compile_tree(a), compile_tree(b)
        bound = relabel_upper_bound(ta, tb)
        assert bound >= oracle_tree_distance(a, b)
        if ta.leftmost != tb.leftmost:
            shapes += 1
            assert bound == a.size() + b.size()
    assert shapes > 200


def test_relabel_upper_bound_exceeds_a_shifted_path():
    def path(labels: str) -> Node:
        node = Node("n", labels[-1])
        for label in reversed(labels[:-1]):
            node = Node("n", label, (node,))
        return node

    a, b = path("ABCD"), path("BCDE")  # delete A, insert E; every position differs
    assert relabel_upper_bound(compile_tree(a), compile_tree(b)) == 4
    assert node_edit_distance(a, b) == oracle_tree_distance(a, b) == 2


def test_traversal_strings_are_the_tree_orders():
    tree = Node("n", "A", (Node("n", "B", (Node("n", "C"),)), Node("n", "D")))
    compiled = compile_tree(tree)
    assert compiled.preorder == ["n:A", "n:B", "n:C", "n:D"]
    assert compiled.postorder == ["n:C", "n:B", "n:D", "n:A"]


def test_traversal_lower_bound_below_oracle_on_random_trees():
    rng = random.Random(47)
    for _ in range(300):
        a = random_tree(rng, max_nodes=8)
        b = random_tree(rng, max_nodes=8)
        ta, tb = compile_tree(a), compile_tree(b)
        exact = max(
            _string_distance(ta.preorder, tb.preorder), _string_distance(ta.postorder, tb.postorder)
        )
        assert _traversal_bound(a, b) == exact <= oracle_tree_distance(a, b)


def test_traversal_lower_bound_below_tree_edit_distance_on_skeletons():
    rng = random.Random(48)
    skeletons = [SqlSkeleton.from_sql(random_statement(rng)) for _ in range(200)]
    for a, b in zip(skeletons[::2], skeletons[1::2]):
        distance = tree_edit_distance(a, b)
        assert _traversal_bound(a.tree, b.tree) <= distance
        ta, tb = a.compiled, b.compiled
        assert (ta, tb) == (compile_tree(a.tree), compile_tree(b.tree))
        for limit in range(-1, 7):
            assert traversal_lower_bound(traversal_patterns(ta), tb, limit) == min(_traversal_bound(a.tree, b.tree), limit + 1)


def test_compile_postorder_rebuilds_the_compiled_tree():
    rng = random.Random(50)
    trees = [random_tree(rng, max_nodes=12) for _ in range(300)]
    trees += [SqlSkeleton.from_sql(random_statement(rng)).tree for _ in range(100)]
    for tree in trees:
        compiled = compile_tree(tree)
        assert compile_postorder(compiled.postorder, compiled.leftmost) == compiled


@pytest.mark.parametrize(
    "postorder, leftmost",
    [
        ([], []),  # no tree
        (["a", "b"], [0]),  # lengths differ
        (["a", "b"], [0, 2]),  # leftmost[1] after node 1
        (["a", "b"], [0, -1]),
        (["a", "b"], [0, 1]),  # two roots
        (["a", "b", "c", "d"], [0, 0, 1, 0]),  # node 1's subtree sticks out of node 2's
        (["a", "b"], [0, 0.0]),  # not an index
    ],
)
def test_compile_postorder_refuses_arrays_that_are_no_tree(postorder, leftmost):
    with pytest.raises(ValueError):
        compile_postorder(postorder, leftmost)


def test_banded_string_distance_agrees_with_full_distance():
    rng = random.Random(49)
    for _ in range(1500):
        s = [rng.choice("ABC") for _ in range(rng.randint(0, 10))]
        t = [rng.choice("ABC") for _ in range(rng.randint(0, 10))]
        full = _string_distance(s, t)
        for limit in range(-1, 7):
            banded = bounded_string_distance(string_pattern(s), t, limit)
            assert (banded > limit) == (full > limit)
            assert banded == min(full, limit + 1)


def test_string_distance_across_word_boundaries():
    # masks of 30 and 64 labels and more: one and several integer digits or words
    rng = random.Random(54)
    lengths = [(30, 31), (31, 30), (63, 64), (64, 64), (64, 65), (65, 63), (0, 80), (80, 0), (80, 80)]
    for alphabet in ("A", "AB", "ABC"):
        pairs = lengths + [(rng.randint(0, 80), rng.randint(0, 80)) for _ in range(25)]
        for n, m in pairs:
            s = [rng.choice(alphabet) for _ in range(n)]
            t = [rng.choice(alphabet) for _ in range(m)]
            full = _string_distance(s, t)
            for limit in range(-1, n + m + 1):
                assert bounded_string_distance(string_pattern(s), t, limit) == min(full, limit + 1), (s, t, limit)


def test_traversal_lower_bound_on_skeletons_of_more_than_64_nodes():
    rng = random.Random(55)

    def long_statement() -> str:
        predicates = " AND ".join(
            f"c{i} {rng.choice('=<>')} {rng.randint(1, 9)}" for i in range(rng.randint(14, 22))
        )
        return f"SELECT a, count(b) FROM t WHERE {predicates} GROUP BY a ORDER BY a"

    for _ in range(3):
        a, b = SqlSkeleton.from_sql(long_statement()), SqlSkeleton.from_sql(long_statement())
        ta, tb = a.compiled, b.compiled
        assert min(len(ta.postorder), len(tb.postorder)) > 64
        exact = max(
            _string_distance(ta.preorder, tb.preorder), _string_distance(ta.postorder, tb.postorder)
        )
        for limit in range(-1, len(ta.postorder) + len(tb.postorder) + 1):
            assert traversal_lower_bound(traversal_patterns(ta), tb, limit) == min(exact, limit + 1)
        assert tree_edit_distance(a, b, exact) >= exact  # the bound is at most the distance
