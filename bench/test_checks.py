"""The benchmark's references agree with first principles and its checkers
reject tampered outputs.

Run with ``python3 -m pytest bench/test_checks.py`` from the repository root.
"""

from __future__ import annotations

import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from solidql import cli  # noqa: E402
from solidql.embeddings import HashedBagOfTokens  # noqa: E402
from solidql.retrieval import load_index, retrieve_by_question_skeleton, retrieve_by_sql_skeleton  # noqa: E402
from solidql.skeleton import SqlSkeleton  # noqa: E402
from solidql.sql.nodes import Node  # noqa: E402


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    world = gen.make_world(run.WORLD_SEED)
    gen.write_tables_json(world, root / "tables.json")
    gen.write_databases(world, root / "database", run.WORLD_SEED)
    return root, world


@pytest.fixture(scope="module")
def small_pool(world_dir):
    root, world = world_dir
    source = gen.StatementSource(world, root / "database", 7)
    pool = [source.draw() for _ in range(60)]
    source.close()
    dataset = root / "pool.json"
    dataset.write_text(json.dumps([s.to_item() for s in pool]))
    assert cli.main(["index", "--dataset", str(dataset), "--tables", str(root / "tables.json"),
                     "--output", str(root / "index.jsonl")]) == 0
    return pool, root / "index.jsonl"


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def _forest_distance(a: tuple, b: tuple) -> int:
    """Edit distance between ordered forests by the textbook recursion."""

    @lru_cache(maxsize=None)
    def dist(f: tuple, g: tuple) -> int:
        if not f and not g:
            return 0
        if not f:
            return dist(f, g[:-1] + g[-1][1]) + 1
        if not g:
            return dist(f[:-1] + f[-1][1], g) + 1
        (lv, kids_v), (lw, kids_w) = f[-1], g[-1]
        return min(
            dist(f[:-1] + kids_v, g) + 1,
            dist(f, g[:-1] + kids_w) + 1,
            dist(kids_v, kids_w) + dist(f[:-1], g[:-1]) + (lv != lw),
        )

    return dist(a, b)


def _random_node(rng: random.Random, size: int) -> Node:
    parents = [rng.randrange(i) for i in range(1, size)]
    labels = [rng.choice("ab") for _ in range(size)]

    def build(i: int) -> Node:
        return Node("n", labels[i], tuple(build(c) for c in range(1, size) if parents[c - 1] == i))

    return build(0)


def _as_forest(node: Node) -> tuple:
    return ((ref.label_of(node), tuple(_as_forest(c)[0] for c in node.children)),)


def test_reference_distance_matches_recursive_definition():
    rng = random.Random(5)
    for _ in range(150):
        a, b = _random_node(rng, rng.randint(1, 7)), _random_node(rng, rng.randint(1, 7))
        assert ref.tree_distance(ref.Tree(a), ref.Tree(b)) == _forest_distance(_as_forest(a), _as_forest(b))


def test_reference_rankings_match_program_on_small_pool(small_pool):
    pool, path = small_pool
    index = load_index(path)
    lines = path.read_text().splitlines()
    texts = [json.loads(line)["q_skeleton"] for line in lines[1:]]
    trees = [ref.Tree(SqlSkeleton.from_sql(s.sql).tree) for s in pool]
    for target in pool[:4]:
        by_sql = retrieve_by_sql_skeleton(target.sql, index, 7)
        assert [p.pool_index for p in by_sql] == ref.rank_by_distance(
            ref.Tree(SqlSkeleton.from_sql(target.sql).tree), trees, 7)
        by_question = retrieve_by_question_skeleton(target.skeleton, index, 7, HashedBagOfTokens())
        assert [p.pool_index for p in by_question] == ref.rank_by_cosine(target.skeleton, texts, 7)


# ----------------------------------------------------------------------
# checkers reject tampered outputs
# ----------------------------------------------------------------------


def test_examples_check_rejects_swapped_example():
    recorded = {"q": [["a", "b", "c"], ["d", "e", "f"]]}
    assert ref.check_examples(recorded, "q", [["a", "b", "c"], ["d", "e", "f"]]) == []
    swapped = {"q": [["a", "c", "b"], ["d", "e", "f"]]}
    assert ref.check_examples(swapped, "q", [["a", "b", "c"], ["d", "e", "f"]])
    replaced = {"q": [["a", "b", "x"], ["d", "e", "f"]]}
    assert ref.check_examples(replaced, "q", [["a", "b", "c"], ["d", "e", "f"]])


def test_examples_are_read_from_generation_prompts():
    user = "Examples:\nQ: first?\nSQL: SELECT 1\nQ: second?\nSQL: SELECT 2\n\nDatabase schema:\nx\nQuestion: q?\n"
    line = json.dumps({"request": {"messages": [{"role": "system", "content": "s"},
                                                {"role": "user", "content": user}]}})
    assert ref.generation_prompts([line]) == {"q?": [["first?", "second?"]]}


def test_replay_check_rejects_wrong_final_sql():
    want = {"question": "q", "db_id": "d", "sql": "SELECT a FROM t", "skeleton": "_",
            "linking": "tables: t | columns: t.a"}
    got = {"question": "q", "db_id": "d", "final_sql": "SELECT a FROM t", "round1_sql": "SELECT a FROM t",
           "round2_sql": "SELECT a FROM t", "q_skeleton": "_", "linked": "tables: t | columns: t.a", "flags": []}
    assert ref.check_replay_results([got], [want], 2) == []
    assert ref.check_replay_results([got | {"final_sql": "SELECT b FROM t"}], [want], 2)
    assert ref.check_replay_results([got | {"flags": ["round2_extract_error"]}], [want], 2)


def test_eval_check_rejects_flipped_verdict(world_dir, tmp_path):
    root, _ = world_dir
    dataset, clean, perturbed, expected = run.make_eval_set(root, 3)
    paths = [tmp_path / "dataset.json", tmp_path / "clean.jsonl", tmp_path / "perturbed.jsonl"]
    paths[0].write_text(json.dumps(dataset))
    run.write_jsonl(paths[1], clean)
    run.write_jsonl(paths[2], perturbed)
    code = cli.main(["eval", "--dataset", str(paths[0]), "--databases", str(root / "database"),
                     "--predictions", str(paths[1]), "--output", str(tmp_path / "report.json")])
    assert code == 1  # some predictions are wrong on purpose
    lines = (tmp_path / "report.json").read_text().splitlines()
    assert ref.check_eval_report(lines, expected) == []
    record = json.loads(lines[5])
    flipped = lines[:5] + [json.dumps(record | {"ex": not record["ex"]})] + lines[6:]
    assert ref.check_eval_report(flipped, expected)

    robust = [e["robust"] for e in expected]
    rate = f"{100.0 * sum(robust) / len(robust):.1f}"
    assert ref.check_robustness(robust, robust, rate) == []
    assert ref.check_robustness([not robust[0]] + robust[1:], robust, rate)


def test_index_check_rejects_wrong_bucket_and_leaks(small_pool, world_dir):
    pool, path = small_pool
    lines = path.read_text().splitlines()
    _, world = world_dir
    items = [s.to_item() for s in pool]
    plans = [s.plan_key for s in pool]
    assert ref.check_index(lines, items, plans, world.vocabulary) == []

    record = json.loads(lines[3])
    wrong = list(record["q_embedding"])
    bucket = wrong.index(max(wrong))
    wrong[bucket], wrong[(bucket + 1) % len(wrong)] = wrong[(bucket + 1) % len(wrong)], wrong[bucket]
    tampered = lines[:3] + [json.dumps(record | {"q_embedding": wrong})] + lines[4:]
    assert any("bucket" in p for p in ref.check_index(tampered, items, plans, world.vocabulary))

    leaked = record | {"s_skeleton": record["s_skeleton"].replace("_T_", pool[2].tables[0], 1)}
    tampered = lines[:3] + [json.dumps(leaked)] + lines[4:]
    assert ref.check_index(tampered, items, plans, world.vocabulary)

    reordered = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert ref.check_index(reordered, items, plans, world.vocabulary)
