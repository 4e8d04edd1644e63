"""Embeddings, question skeletons, retrieval ranking, index persistence."""

from __future__ import annotations

import json
import math
import random

import pytest

import solidql.retrieval
from solidql.embeddings import HashedBagOfTokens, cosine_similarity, make_embedder
from solidql.errors import ConfigError, ZeroVectorError
from solidql.gateway import LlmGateway, TranscriptStore
from solidql.retrieval import (
    build_index,
    extract_question_skeleton,
    load_index,
    retrieve_by_question_skeleton,
    retrieve_by_sql_skeleton,
    rule_based_question_skeleton,
    save_index,
)
from solidql.schema import SchemaSubset

from support import (
    FakeChatProvider,
    brute_force_question_ranking,
    brute_force_sql_ranking,
    random_statement,
)


# ----------------------------------------------------------------------
# embeddings and cosine
# ----------------------------------------------------------------------


def test_hashed_embedder_is_deterministic():
    embedder = HashedBagOfTokens()
    first = embedder.embed(["what are the _ of _"])
    second = embedder.embed(["what are the _ of _"])
    assert first == second
    assert len(first[0]) == 256
    assert sum(first[0]) == 6.0  # six tokens, underscores included


def test_make_embedder_rejects_unknown():
    with pytest.raises(ConfigError):
        make_embedder("quantum")


def test_cosine_identity_orthogonal_and_analytic():
    assert cosine_similarity((1.0, 2.0), (1.0, 2.0)) == pytest.approx(1.0)
    assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0)
    assert cosine_similarity((1.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2) / 2)


def test_cosine_zero_vector_and_dimension_mismatch():
    with pytest.raises(ZeroVectorError):
        cosine_similarity((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        cosine_similarity((1.0,), (1.0, 2.0))


# ----------------------------------------------------------------------
# question skeletons
# ----------------------------------------------------------------------


def test_rule_masker_masks_schema_tokens_numbers_and_quotes():
    linked = SchemaSubset.build(["concert"], [])
    assert rule_based_question_skeleton("list concerts in 2014", linked) == "list _ in _"
    linked = SchemaSubset.build(["singer"], ["singer.name", "singer.age"])
    out = rule_based_question_skeleton(
        "What are the names of singers older than 30?", linked
    )
    assert out == "What are the _ of _ older than _?"
    assert rule_based_question_skeleton("find 'pop' concerts", SchemaSubset()) == "find _ concerts"


def test_extract_question_skeleton_empty_passthrough():
    result = extract_question_skeleton("", SchemaSubset(), gateway=None)
    assert result.text == ""
    assert not result.used_fallback


def test_extract_question_skeleton_gateway_path():
    provider = FakeChatProvider(skeletons={"How many shops are there?": "How many _ are there?"})
    gateway = LlmGateway(mode="live", provider=provider)
    result = extract_question_skeleton(
        "How many shops are there?", SchemaSubset.build(["shop"], []), gateway, "m"
    )
    assert result.text == "How many _ are there?"
    assert not result.used_fallback


def test_extract_question_skeleton_fallback_on_gateway_failure(tmp_path):
    store = TranscriptStore(tmp_path / "t.jsonl")  # empty: every lookup misses
    gateway = LlmGateway(mode="replay", store=store)
    result = extract_question_skeleton(
        "list concerts in 2014", SchemaSubset.build(["concert"], []), gateway, "m"
    )
    assert result.used_fallback
    assert result.text == "list _ in _"


# ----------------------------------------------------------------------
# retrieval
# ----------------------------------------------------------------------


@pytest.fixture()
def small_index():
    embedder = HashedBagOfTokens()
    pairs = [
        ("what are the names of singers", "SELECT name FROM singer"),
        ("how many concerts are there", "SELECT count(*) FROM concert"),
        ("what are the names of stadiums", "SELECT name FROM stadium"),
        ("names of singers older than thirty", "SELECT name FROM singer WHERE age > 30"),
        ("how many stadiums are there", "SELECT count(*) FROM stadium"),
    ]
    return build_index(pairs, embedder), embedder


def test_truncation_to_pool_size(small_index):
    index, embedder = small_index
    result = retrieve_by_question_skeleton("how many _ are there", index, 7, embedder)
    assert len(result) == 5  # pool smaller than n


def test_tie_break_by_pool_index(small_index):
    index, embedder = small_index
    # target equidistant from the two "how many ... are there" items
    result = retrieve_by_question_skeleton("how many _ are there", index, 2, embedder)
    first, second = result[0], result[1]
    assert first.pool_index < second.pool_index or first.q_embedding != second.q_embedding


def test_identical_embeddings_rank_by_index():
    embedder = HashedBagOfTokens()
    pairs = [("same words here", "SELECT a FROM t"), ("same words here", "SELECT b FROM u")]
    index = build_index(pairs, embedder)
    result = retrieve_by_question_skeleton("same words here", index, 2, embedder)
    assert [p.pool_index for p in result] == [0, 1]


def test_self_exclusion(small_index):
    index, embedder = small_index
    result = retrieve_by_question_skeleton(
        "what are the names of singers", index, 5, embedder,
        exclude_question="what are the names of singers",
    )
    assert all(p.question != "what are the names of singers" for p in result)


def test_question_ranking_matches_brute_force(small_index):
    index, embedder = small_index
    target = "names of things older than a number"
    got = retrieve_by_question_skeleton(target, index, 3, embedder)
    expected = brute_force_question_ranking(
        embedder.embed([target])[0], index.pool, 3
    )
    assert [p.pool_index for p in got] == expected


class FixedEmbedder:
    """Returns a scripted vector per text."""

    provider_id = "fixed"

    def __init__(self, vectors):
        self.vectors = vectors
        self.dimension = len(next(iter(vectors.values())))

    def embed(self, texts):
        return [list(self.vectors[text]) for text in texts]


def fixed_index(vectors):
    embedder = FixedEmbedder(vectors)
    pairs = [(text, f"SELECT c{i} FROM t") for i, text in enumerate(vectors) if text != "target"]
    return build_index(pairs, embedder), embedder


def test_question_zero_norm_target_returns_nothing():
    index, embedder = fixed_index({
        "target": (0.0, 0.0, 0.0),
        "one": (1.0, 0.0, 2.0),
        "two": (0.0, 3.0, 0.0),
    })
    assert len(retrieve_by_question_skeleton("target", index, 3, embedder)) == 0


def test_question_zero_norm_pool_item_is_skipped():
    index, embedder = fixed_index({
        "target": (1.0, 0.0, 1.0),
        "zero": (0.0, 0.0, 0.0),
        "near": (1.0, 0.0, 0.5),
        "far": (0.0, 1.0, 0.0),
    })
    got = [p.question for p in retrieve_by_question_skeleton("target", index, 5, embedder)]
    assert got == ["near", "far"]


def test_question_dimension_mismatch_raises():
    index, _ = fixed_index({"one": (1.0, 0.0), "two": (0.0, 1.0)})
    with pytest.raises(ValueError):
        retrieve_by_question_skeleton("target", index, 2, FixedEmbedder({"target": (1.0, 0.0, 1.0)}))
    with pytest.raises(ValueError):
        fixed_index({"one": (1.0, 0.0), "two": (0.0, 1.0, 1.0)})


def test_question_exclusion_matches_brute_force():
    rng = random.Random(9)
    vectors = {"target": tuple(rng.choice((0.0, 0.0, 1.0, 2.0, -0.5)) for _ in range(8))}
    names = [f"item {a}{b}" for a in "abcdef" for b in "abcdefghij"]  # digits would be masked
    for name in names:
        vectors[name] = tuple(rng.choice((0.0, 0.0, 0.25, 1.0, 3.0, -1.0)) for _ in range(8))
    index, embedder = fixed_index(vectors)
    for excluded in (None, names[0], names[17], names[-1]):
        for n in (1, 3, 7, 9):
            got = retrieve_by_question_skeleton(
                "target", index, n, embedder, exclude_question=excluded
            )
            expected = brute_force_question_ranking(
                vectors["target"], index.pool, n, exclude_question=excluded
            )
            assert [p.pool_index for p in got] == expected
            assert all(p.question != excluded for p in got)


def test_sql_identity_ranked_first(small_index):
    index, embedder = small_index
    result = retrieve_by_sql_skeleton("SELECT name FROM singer", index, 3)
    assert result[0].sql == "SELECT name FROM singer"
    assert result.fallback is None


def test_sql_malformed_falls_back_to_question_mode(small_index):
    index, embedder = small_index
    round1 = retrieve_by_question_skeleton("what are the _ of _", index, 3, embedder)
    result = retrieve_by_sql_skeleton(
        "SELEC name FORM singer", index, 3, fallback_examples=round1.pairs
    )
    assert result.fallback == "question"
    assert len(result) == 3
    assert result.pairs == round1.pairs
    assert retrieve_by_sql_skeleton("SELEC name FORM singer", index, 3).pairs == []


def test_sql_ranking_matches_brute_force(small_index):
    from solidql.skeleton import SqlSkeleton, tree_edit_distance

    index, _ = small_index
    target = SqlSkeleton.from_sql("SELECT count(*) FROM singer WHERE age > 20")
    distances = [
        (pair.pool_index, tree_edit_distance(target, pair.s_skeleton))
        for pair in index.pool
    ]
    expected = brute_force_sql_ranking(distances, 4)
    got = retrieve_by_sql_skeleton("SELECT count(*) FROM singer WHERE age > 20", index, 4)
    assert [p.pool_index for p in got] == expected


def test_sql_ranking_with_ties_at_the_cutoff(monkeypatch):
    from solidql import retrieval
    from solidql.skeleton import SqlSkeleton, tree_edit_distance

    statements = [
        "SELECT a FROM t",  # the target's skeleton, shared with pool item 7
        "SELECT count(a) FROM t",  # six skeletons at distance 1 ...
        "SELECT DISTINCT a FROM t",
        "SELECT max(a) FROM t",
        "SELECT * FROM t",
        "SELECT a, b FROM t",
        "SELECT min(b) FROM u",
        "SELECT b FROM u",
        "SELECT count(b) FROM u",
        "SELECT a FROM t WHERE b = 1",
        "SELECT sum(a) FROM t",  # ... and a seventh, later in the pool
    ]
    index = build_index([(f"question {i}", sql) for i, sql in enumerate(statements)], HashedBagOfTokens())
    target = SqlSkeleton.from_sql("SELECT c FROM v")
    distances = [(p.pool_index, tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
    assert sorted(d for _, d in distances).count(1) == 8
    distinct = len({p.s_skeleton.text for p in index.pool})

    visited = set()  # the compiled skeletons bounded by traversal strings or scored

    def counting(fn, compiled):
        def wrapper(target, other, *rest):
            visited.add(id(compiled(other)))
            return fn(target, other, *rest)

        return wrapper

    monkeypatch.setattr(
        retrieval, "tree_edit_distance", counting(tree_edit_distance, lambda skeleton: skeleton.compiled)
    )
    monkeypatch.setattr(
        retrieval, "traversal_lower_bound", counting(retrieval.traversal_lower_bound, lambda tree: tree)
    )
    for excluded in (None, 0):  # question 0 is the first member of the target's group
        exclude = None if excluded is None else f"question {excluded}"
        skip = () if excluded is None else (excluded,)
        for n in range(1, len(statements) + 1):
            visited.clear()
            got = retrieve_by_sql_skeleton("SELECT c FROM v", index, n, exclude_question=exclude)
            assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n, skip)
            if n == 2:
                # The second best is at distance 1 or better, so the seven
                # distance-1 skeletons after it are neither scored nor checked.
                assert len(visited) <= 2 < distinct


def test_sql_ranking_across_size_rings(monkeypatch):
    from solidql import retrieval
    from solidql.skeleton import SqlSkeleton, tree_edit_distance

    # The target has 6 nodes. At each distance, the candidate in the
    # farther size ring comes earlier in the pool.
    statements = [
        "SELECT a, b FROM t ORDER BY a",  # ring 2, distance 2
        "SELECT a, b, c FROM t ORDER BY a",  # ring 3, distance 3
        "SELECT * FROM t",  # ring 1 (5 nodes), distance 2
        "SELECT a, b FROM t WHERE c = 1",  # ring 4, distance 4
        "SELECT max(a), min(b) FROM t",  # ring 2, distance 2
        "SELECT count(*) FROM t",  # ring 0, distance 3
        "SELECT a, b, c FROM t",  # ring 1 (7 nodes), distance 1
        "SELECT count(a) FROM t",  # ring 0, distance 2
        "SELECT a FROM t",  # ring 1 (5 nodes), distance 1
        "SELECT a FROM t ORDER BY a",  # ring 1 (7 nodes), distance 3
        "SELECT DISTINCT a, b FROM t",  # ring 1 (7 nodes), distance 1
        "SELECT a, b, c, d FROM t",  # ring 2, distance 2
        "SELECT a, b FROM t ORDER BY a LIMIT 1",  # ring 4, distance 4
        "SELECT c, d FROM u ORDER BY c",  # the skeleton of item 0
    ]
    index = build_index([(f"question {i}", sql) for i, sql in enumerate(statements)], HashedBagOfTokens())
    target = SqlSkeleton.from_sql("SELECT x, y FROM v")
    rings = [(abs(len(p.s_skeleton.compiled.postorder) - 6), tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
    assert rings == [
        (2, 2), (3, 3), (1, 2), (4, 4), (2, 2), (0, 3), (1, 1),
        (0, 2), (1, 1), (1, 3), (1, 1), (2, 2), (4, 4), (2, 2),
    ]
    distances = [(p.pool_index, distance) for p, (_, distance) in zip(index.pool, rings)]
    for excluded in (None, 0, 6):  # 0 is the first member of a shared skeleton
        exclude = None if excluded is None else f"question {excluded}"
        skip = () if excluded is None else (excluded,)
        for n in range(1, len(statements) + 1):
            got = retrieve_by_sql_skeleton("SELECT x, y FROM v", index, n, exclude_question=exclude)
            assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n, skip)

    # On a pool of wide size spread, the rings leave groups unbounded.
    rng = random.Random(41)
    pool = [(f"question {i}", random_statement(rng)) for i in range(300)]
    index = build_index(pool, HashedBagOfTokens())
    sizes = {len(p.s_skeleton.compiled.postorder) for p in index.pool}
    assert max(sizes) - min(sizes) > 20
    groups = len({p.s_skeleton.text for p in index.pool})
    label_lower_bound = retrieval.label_lower_bound
    bounded = []

    def counting(a, b):
        bounded.append(b)
        return label_lower_bound(a, b)

    monkeypatch.setattr(retrieval, "label_lower_bound", counting)
    targets = [(random_statement(rng), None) for _ in range(5)] + [(pool[3][1], pool[3][0])]
    for sql, excluded in targets:
        target = SqlSkeleton.from_sql(sql)
        distances = [(p.pool_index, tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
        skip = {p.pool_index for p in index.pool if p.question == excluded}
        for n in (1, 3, 7):
            bounded.clear()
            got = retrieve_by_sql_skeleton(sql, index, n, exclude_question=excluded)
            assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n, skip)
            assert len(bounded) < groups
            assert len(bounded) < groups


# tree_edit_distance calls of test_round2_work_gate's queries: the search
# that sorted all groups by label bound and scanned them in that order
# made 352; the ring search made 198 when this gate was set.
SORTED_SCAN_CALLS = 352
RING_SEARCH_CALLS = 198


def test_round2_work_gate(monkeypatch):
    """Pruning guard without timing: the exact-distance calls that round 2
    makes for fixed queries on a fixed 2,000-item pool at n = 7."""
    from solidql import retrieval

    rng = random.Random(909)
    pool = [(f"question {i}", random_statement(rng)) for i in range(2000)]
    index = build_index(pool, HashedBagOfTokens())
    targets = [(random_statement(rng), None) for _ in range(20)]
    targets += [(sql, question) for question, sql in pool[::200]]  # self-excluded
    tree_edit_distance = retrieval.tree_edit_distance
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return tree_edit_distance(a, b)

    monkeypatch.setattr(retrieval, "tree_edit_distance", counting)
    for sql, excluded in targets:
        assert len(retrieve_by_sql_skeleton(sql, index, 7, exclude_question=excluded)) == 7
    assert calls <= RING_SEARCH_CALLS < SORTED_SCAN_CALLS


# ----------------------------------------------------------------------
# index build and persistence
# ----------------------------------------------------------------------


def test_empty_pool_builds_empty_index(tmp_path):
    index = build_index([], HashedBagOfTokens())
    assert len(index) == 0
    save_index(index, tmp_path / "idx.jsonl")
    assert len(load_index(tmp_path / "idx.jsonl")) == 0


def test_unparseable_sql_skipped():
    index = build_index(
        [("good", "SELECT a FROM t"), ("bad", "NOT SQL AT ALL")], HashedBagOfTokens()
    )
    assert len(index) == 1
    assert [p.pool_index for p in index.pool] == [0]


def test_rebuild_is_byte_identical(tmp_path):
    pairs = [("q one", "SELECT a FROM t"), ("q two", "SELECT b FROM u WHERE c > 1")]
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    save_index(build_index(pairs, HashedBagOfTokens()), first_path)
    save_index(build_index(pairs, HashedBagOfTokens()), second_path)
    assert first_path.read_bytes() == second_path.read_bytes()


def test_save_load_round_trip(tmp_path, small_index):
    index, _ = small_index
    path = tmp_path / "idx.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.provider_id == index.provider_id
    assert loaded.dimension == index.dimension
    assert len(loaded) == len(index)
    for a, b in zip(loaded.pool, index.pool):
        assert (a.question, a.sql, a.q_skeleton, a.q_embedding, a.pool_index) == (
            b.question, b.sql, b.q_skeleton, b.q_embedding, b.pool_index
        )
        assert a.s_skeleton == b.s_skeleton


def test_load_builds_skeletons_without_parsing(tmp_path, small_index, monkeypatch):
    import solidql.skeleton
    import solidql.sql.parser

    index, _ = small_index
    path = tmp_path / "idx.jsonl"
    save_index(index, path)

    def refuse(sql):
        raise AssertionError(f"load_index parsed {sql!r}")

    monkeypatch.setattr(solidql.skeleton, "parse_sql", refuse)
    monkeypatch.setattr(solidql.sql.parser, "parse_sql", refuse)
    loaded = load_index(path)
    monkeypatch.undo()
    texts = [pair.s_skeleton.text for pair in index.pool]
    assert len(set(texts)) < len(texts)  # the pool repeats skeletons
    for a, b in zip(loaded.pool, index.pool):
        assert (a.s_skeleton.text, a.s_skeleton.compiled) == (b.s_skeleton.text, b.s_skeleton.compiled)
    by_text = {}
    for pair in loaded.pool:
        assert by_text.setdefault(pair.s_skeleton.text, pair.s_skeleton) is pair.s_skeleton
    again = tmp_path / "again.jsonl"
    save_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_interrupted_save_leaves_the_previous_index(tmp_path, small_index, monkeypatch):
    index, embedder = small_index
    path = tmp_path / "idx.jsonl"
    save_index(build_index([("q", "SELECT a FROM t")], embedder), path)
    before = path.read_bytes()
    dumps, lines = json.dumps, []

    def dumps_then_interrupt(*args, **kwargs):
        if len(lines) == 3:  # the header and two records
            raise KeyboardInterrupt
        lines.append(dumps(*args, **kwargs))
        return lines[-1]

    monkeypatch.setattr(solidql.retrieval.json, "dumps", dumps_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        save_index(index, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["idx.jsonl"]


def test_index_uses_gateway_skeletons_with_linked_context(schemas):
    provider = FakeChatProvider(
        skeletons={"what are the names of singers": "what are the _ of _"}
    )
    gateway = LlmGateway(mode="live", provider=provider)
    linked = [SchemaSubset.build(["singer"], ["singer.name"])]
    index = build_index(
        [("what are the names of singers", "SELECT name FROM singer")],
        HashedBagOfTokens(),
        gateway=gateway,
        model_id="m",
        linked=linked,
    )
    assert index.pool[0].q_skeleton == "what are the _ of _"
