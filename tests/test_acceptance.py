"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

from __future__ import annotations

import json
import random
import shutil
import time

import pytest

from solidql.cli import main
from solidql.config import RunConfig
from solidql.embeddings import HashedBagOfTokens
from solidql.evaluation import evaluate
from solidql.gateway import LlmGateway, TranscriptStore
from solidql.linking import GatewayLinkingPredictor, Triplet, augment_dataset
from solidql.pipeline import run_batch
from solidql.prompting import FOCUS_MARKER, build_prompt
from solidql.retrieval import (
    build_index,
    load_index,
    retrieve_by_question_skeleton,
    retrieve_by_sql_skeleton,
    save_index,
)
from solidql.schema import DatabaseSchema, SchemaSubset, Table, Column
from solidql.skeleton import SqlSkeleton, node_edit_distance, tree_edit_distance
from solidql.sql.parser import parse_sql
from solidql.sql.refs import extract_schema_refs
from solidql.sql.render import render_sql

from conftest import FIXTURES
from support import (
    brute_force_question_ranking,
    brute_force_sql_ranking,
    oracle_tree_distance,
    pool_items,
    random_statement,
    random_statement_pair,
    random_tree,
)
from test_cli import GENERATIONS, make_provider


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_parser_corpus(schemas, parser_corpus):
    """50 statements parse, round-trip, and schema-resolve; < 1 s."""
    assert len(parser_corpus) == 50
    started = time.perf_counter()
    failures = 0
    for item in parser_corpus:
        tree = parse_sql(item["query"])
        if parse_sql(render_sql(tree)) != tree:
            failures += 1
            continue
        extract_schema_refs(tree, schemas[item["db_id"]])
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"
    report("parser-corpus", f"50/50 in {elapsed * 1000:.0f} ms")


def test_criterion_02_skeleton_identifier_invariance():
    """>= 500 structure-identical pairs differ only in identifiers: d = 0."""
    rng = random.Random(202)
    pairs = 500
    for _ in range(pairs):
        left, right = random_statement_pair(rng)
        a = SqlSkeleton.from_sql(left)
        b = SqlSkeleton.from_sql(right)
        assert tree_edit_distance(a, b) == 0, (left, right)
    report("skeleton-invariance", f"{pairs}/{pairs} pairs at distance 0")


def test_criterion_03_edit_distance_oracle():
    """>= 1000 random tree pairs (<= 8 nodes) match the exhaustive oracle; < 60 s."""
    rng = random.Random(303)
    started = time.perf_counter()
    pairs = 1000
    for _ in range(pairs):
        a = random_tree(rng, max_nodes=8)
        b = random_tree(rng, max_nodes=8)
        assert node_edit_distance(a, b) == oracle_tree_distance(a, b)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    report("edit-distance-oracle", f"{pairs}/{pairs} exact in {elapsed:.1f} s")


def test_criterion_04_metric_axioms():
    """Identity, symmetry, triangle inequality on >= 1000 skeleton triples."""
    rng = random.Random(404)
    skeletons = [SqlSkeleton.from_sql(random_statement(rng)) for _ in range(120)]
    cache: dict[tuple[int, int], int] = {}

    def distance(i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        if key not in cache:
            cache[key] = tree_edit_distance(skeletons[key[0]], skeletons[key[1]])
        return cache[key]

    triples = 1000
    violations = 0
    for _ in range(triples):
        x, y, z = rng.sample(range(len(skeletons)), 3)
        if distance(x, x) != 0:
            violations += 1
        if distance(x, y) != distance(y, x):
            violations += 1
        if distance(x, z) > distance(x, y) + distance(y, z):
            violations += 1
    assert violations == 0
    report("metric-axioms", f"{triples} triples, 0 violations")


def test_criterion_05_retrieval_oracle(tmp_path):
    """Both retrieval modes equal a brute-force scan on a 2,000-item pool,
    built and also saved and loaded back."""
    rng = random.Random(505)
    pool_pairs = []
    while len(pool_pairs) < 2000:
        sql = random_statement(rng)
        question = f"question variant {len(pool_pairs)} about {sql.split('FROM', 1)[1].split()[0]}"
        pool_pairs.append((question, sql))
    embedder = HashedBagOfTokens()
    index = build_index(pool_items(pool_pairs), embedder)
    assert len(index) == 2000
    save_index(index, tmp_path / "index.jsonl")
    loaded = load_index(tmp_path / "index.jsonl")
    ns = (1, 3, 7, 9)

    # (target, excluded question); the excluded one is a pool item's own
    targets_q = [
        ("question variant about singers", None),
        ("how many things are there", None),
        ("what are the names of all items", None),
        ("question variant 17 about concert", None),
        (pool_pairs[17][0], pool_pairs[17][0]),
    ]
    targets_sql = [
        ("SELECT name FROM singer WHERE age > 30", None),
        ("SELECT count(*) FROM concert GROUP BY year", None),
        (pool_pairs[3][1], None),
        (pool_pairs[3][1], pool_pairs[3][0]),
        ("SELECT a FROM t WHERE b IN (SELECT c FROM u) ORDER BY a DESC LIMIT 5", None),
    ]
    checks = 0
    for target, excluded in targets_q:
        expected = brute_force_question_ranking(
            embedder.embed([target])[0], index.pool, len(index), exclude_question=excluded
        )
        for n in ns:
            for searched in (index, loaded):
                got = [p.pool_index for p in retrieve_by_question_skeleton(
                    target, searched, n, embedder, exclude_question=excluded)]
                assert got == expected[:n], (n, target, excluded, searched is loaded)
                checks += 1
    distances_by_sql: dict[str, list[tuple[int, int]]] = {}
    for sql, excluded in targets_sql:
        if sql not in distances_by_sql:
            target_skeleton = SqlSkeleton.from_sql(sql)
            distances_by_sql[sql] = [
                (pair.pool_index, tree_edit_distance(target_skeleton, pair.s_skeleton))
                for pair in index.pool
            ]
        excluded_indices = {p.pool_index for p in index.pool if p.question == excluded}
        for n in ns:
            expected = brute_force_sql_ranking(distances_by_sql[sql], n, excluded_indices)
            for searched in (index, loaded):
                got = [p.pool_index for p in retrieve_by_sql_skeleton(
                    sql, searched, n, exclude_question=excluded)]
                assert got == expected, (n, sql, excluded, searched is loaded)
                checks += 1
    report("retrieval-oracle", f"{checks} rankings agree, N in {{1,3,7,9}}, pool 2000, built and loaded")


def test_criterion_06_linking_ground_truth(schemas, linking_labels):
    """extract_schema_refs matches 20 hand labels exactly."""
    assert len(linking_labels) == 20
    hits = 0
    for item in linking_labels:
        subset = extract_schema_refs(parse_sql(item["query"]), schemas[item["db_id"]])
        expected = SchemaSubset.build(item["tables"], item["columns"])
        assert subset == expected, item["query"]
        hits += 1
    report("linking-ground-truth", f"{hits}/20 exact")


EX_PAIRS = [
    # five semantically equal, textually different
    ("SELECT name, age FROM singer", "SELECT age, name FROM singer", True),
    ("select name from singer where age > 30", "SELECT name FROM singer WHERE age > 30", True),
    ("SELECT name FROM singer WHERE age >= 31", "SELECT name FROM singer WHERE age > 30", True),
    ("SELECT count(*) FROM singer WHERE country = 'US'",
     "SELECT count(country) FROM singer WHERE country = 'US'", True),
    ("SELECT name FROM singer ORDER BY age", "SELECT name FROM singer ORDER BY age ASC", True),
    # five subtly different
    ("SELECT name FROM singer ORDER BY age DESC",
     "SELECT name FROM singer ORDER BY age ASC", False),  # order sensitivity
    ("SELECT name FROM singer WHERE age > 30", "SELECT name FROM singer WHERE age >= 30", False),
    ("SELECT count(*) FROM concert WHERE year = 2014",
     "SELECT count(*) FROM concert WHERE year = 2015", False),
    ("SELECT name FROM stadium", "SELECT location FROM stadium", False),
    ("SELECT max(age) FROM singer", "SELECT min(age) FROM singer", False),
]


def test_criterion_07_ex_harness(databases_root):
    """10 hand-authored (pred, gold) pairs classified 10/10."""
    dataset = [{"question": f"q{i}", "db_id": "concert_singer", "query": gold}
               for i, (_, gold, _) in enumerate(EX_PAIRS)]
    records = evaluate(dataset, [pred for pred, _, _ in EX_PAIRS], databases_root).records
    correct = 0
    for record, (pred, gold, expected) in zip(records, EX_PAIRS):
        assert record.ex is expected, (pred, gold)
        correct += 1
    report("ex-harness", f"{correct}/10 classified, ORDER BY case included")


def test_criterion_08_augmentation_arithmetic():
    """Mock-rewriter augmentation yields exactly 3n, schema and SQL unchanged."""

    class MockRewriter:
        def rewrite(self, question):
            return f"{question} again", f"{question} differently"

    schema = DatabaseSchema("d", (Table("t", (Column("a", "int"),)),))
    n = 7000  # the benchmark training split is about this size
    triplets = [Triplet(f"question {i}", schema, "SELECT a FROM t") for i in range(n)]
    out = augment_dataset(triplets, MockRewriter())
    assert len(out) == 3 * n
    assert all(t.schema is schema for t in out)
    assert all(t.gold_sql == "SELECT a FROM t" for t in out)
    origins = [t.origin for t in out[:3]]
    assert origins == ["original", "rewrite1", "rewrite2"]
    report("augmentation-arithmetic", f"{n} -> {len(out)} (3n exactly)")


@pytest.fixture()
def hermetic_workspace(tmp_path, databases_root):
    root = tmp_path
    for name in ("tables.json", "shop_dataset.json", "shop_pool.json"):
        shutil.copy(FIXTURES / name, root / name)
    assert main([
        "index",
        "--dataset", str(root / "shop_pool.json"),
        "--tables", str(root / "tables.json"),
        "--output", str(root / "index.jsonl"),
    ]) == 0
    from solidql.schema import load_tables_json

    schemas = load_tables_json(root / "tables.json")
    dataset = json.loads((root / "shop_dataset.json").read_text())
    gateway = LlmGateway(
        mode="record",
        store=TranscriptStore(root / "transcripts.jsonl"),
        provider=make_provider(),
    )
    run_batch(
        dataset, schemas, GatewayLinkingPredictor(gateway, "gpt-4o-mini"),
        load_index(root / "index.jsonl"), gateway, HashedBagOfTokens(),
        RunConfig(mode="record", workers=1),
    )
    return root


def test_criterion_09_hermetic_end_to_end(hermetic_workspace, databases_root, capsys):
    """Replay run + eval byte-identical twice; switches change documented bytes."""
    root = hermetic_workspace
    blobs = []
    for name in ("out_a.jsonl", "out_b.jsonl"):
        assert main([
            "run",
            "--dataset", str(root / "shop_dataset.json"),
            "--tables", str(root / "tables.json"),
            "--index", str(root / "index.jsonl"),
            "--transcripts", str(root / "transcripts.jsonl"),
            "--mode", "replay",
            "--output", str(root / name),
        ]) == 0
        assert main([
            "eval",
            "--dataset", str(root / "shop_dataset.json"),
            "--databases", str(databases_root),
            "--predictions", str(root / name),
            "--output", str(root / f"report_{name}.json"),
        ]) == 0
        blobs.append(
            (root / name).read_bytes() + (root / f"report_{name}.json").read_bytes()
        )
    assert blobs[0] == blobs[1]

    # switches: --rounds 1 replays cleanly against the 2-round transcripts
    # (round-1 prompts are byte-identical) and emits no round-2 SQL
    assert main([
        "run",
        "--dataset", str(root / "shop_dataset.json"),
        "--tables", str(root / "tables.json"),
        "--index", str(root / "index.jsonl"),
        "--transcripts", str(root / "transcripts.jsonl"),
        "--mode", "replay",
        "--rounds", "1",
        "--output", str(root / "out_r1.jsonl"),
    ]) == 0
    one_round = [json.loads(line) for line in (root / "out_r1.jsonl").read_text().splitlines()]
    two_round = [json.loads(line) for line in (root / "out_a.jsonl").read_text().splitlines()]
    assert all(r["round2_sql"] == "" and r["final_sql"] == r["round1_sql"] for r in one_round)
    assert [r["round1_sql"] for r in one_round] == [r["round1_sql"] for r in two_round]
    report("hermetic-end-to-end", "two replay runs byte-identical; rounds switch verified")


def test_criterion_09b_focus_switch_alters_exact_bytes(schemas):
    """--no-focus removes exactly the focus line from every prompt."""
    schema = schemas["shop"]
    linked = SchemaSubset.build(["employee"], ["employee.name", "employee.age"])
    index = build_index(
        pool_items([("how many employees", "SELECT count(*) FROM employee")]), HashedBagOfTokens()
    )
    for question in GENERATIONS:
        on = build_prompt(question, schema, linked, index.pool, focus_enabled=True)
        off = build_prompt(question, schema, linked, index.pool, focus_enabled=False)
        on_lines = on.user.splitlines(keepends=True)
        focus_lines = [l for l in on_lines if FOCUS_MARKER in l]
        assert len(focus_lines) == 1
        assert "".join(l for l in on_lines if l not in focus_lines) == off.user
    report("focus-switch-bytes", "focus line is the exact byte difference")


def test_criterion_10_prompt_ablation_contract(schemas, shop_dataset, shop_pool, databases_root):
    """focus on in 100% of focused prompts with non-empty subsets; 0% without."""
    index = build_index(
        pool_items((r["question"], r["query"]) for r in shop_pool), HashedBagOfTokens()
    )
    for focus_enabled, expected_rate in ((True, 1.0), (False, 0.0)):
        provider = make_provider()
        gateway = LlmGateway(mode="live", provider=provider)
        config = RunConfig(mode="live", workers=1, focus_enabled=focus_enabled)
        run_batch(
            shop_dataset, schemas, GatewayLinkingPredictor(gateway, "m"),
            index, gateway, HashedBagOfTokens(), config,
        )
        generation_prompts = [p for p in provider.prompts if "Return a single SQL" in p]
        assert generation_prompts
        with_marker = sum(1 for p in generation_prompts if FOCUS_MARKER in p)
        assert with_marker / len(generation_prompts) == expected_rate
        if focus_enabled:
            for prompt in generation_prompts:
                tail = prompt.split(FOCUS_MARKER, 1)[1]
                assert "(" in tail.splitlines()[0]  # subset serialization follows
    report("prompt-ablation", "100% marker rate with focus, 0% without")
