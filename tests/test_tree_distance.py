"""Edit distance against the exhaustive mapping oracle, metric axioms and lower bounds."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from solidql.skeleton import (
    LabelBags,
    SqlSkeleton,
    bounded_string_distance,
    compile_postorder,
    compile_tree,
    label_lower_bound,
    node_edit_distance,
    traversal_lower_bound,
    tree_edit_distance,
)
from solidql.sql.nodes import Node

from support import oracle_tree_distance, random_statement, random_tree


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
    bags = LabelBags(labels)
    bound = label_lower_bound(bags.bag(labels[0]), bags.bag(labels[1]))
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
    bags = LabelBags([compile_tree(known).postorder])
    other = Node("n", "A", (Node("n", "C"), Node("n", "A")))
    bag = bags.bag(compile_tree(other).preorder)  # any order of the labels
    assert bag.size == 3
    assert label_lower_bound(bags.bag(compile_tree(known).postorder), bag) == 2
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
    return traversal_lower_bound(ta, tb, len(ta.preorder) + len(tb.preorder))


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
            assert traversal_lower_bound(ta, tb, limit) == min(_traversal_bound(a.tree, b.tree), limit + 1)


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
            banded = bounded_string_distance(s, t, limit)
            assert (banded > limit) == (full > limit)
            assert banded == min(full, limit + 1)
