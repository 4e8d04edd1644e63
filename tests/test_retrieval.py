"""Embeddings, question skeletons, retrieval ranking, index persistence."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
from array import array
from fractions import Fraction

import pytest

import solidql.retrieval
from solidql.cli import parsed_pool
from solidql.embeddings import HashedBagOfTokens, cosine_similarity, make_embedder
from solidql.errors import ConfigError, ZeroVectorError
from solidql.gateway import LlmGateway, TranscriptStore
from solidql.retrieval import (
    ExamplePair,
    PoolItem,
    RetrievalIndex,
    build_index,
    extract_question_skeleton,
    load_index,
    retrieve_by_question_skeleton,
    retrieve_by_sql_skeleton,
    rule_based_question_skeleton,
    save_index,
)
from solidql.schema import SchemaSubset
from solidql.skeleton import SqlSkeleton, tree_edit_distance
from solidql.sql.parser import parse_sql

from support import (
    FakeChatProvider,
    brute_force_question_ranking,
    brute_force_sql_ranking,
    label_lower_bounds,
    pool_items,
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


def md5_bucket_counts(text):
    """The hashed embedder's definition, computed afresh for every token occurrence."""
    vector = [0.0] * 256
    for token in re.findall(r"[a-z0-9_]+", text.lower()):
        vector[int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:4], "big") % 256] += 1.0
    return vector


def test_hashed_embedder_matches_md5_bucket_counts():
    texts = ["how many _ are there", "the _ of the _ of the _ THE _", "_ _ _", "", "Ünïcode café 42 café"]
    assert sum(md5_bucket_counts(texts[1])) == 10.0 and max(md5_bucket_counts(texts[1])) >= 3.0
    expected = [md5_bucket_counts(text) for text in texts]
    embedder = HashedBagOfTokens()
    first = embedder.embed(texts)
    assert first == expected
    second = embedder.embed(list(reversed(texts)))  # a second call, tokens already seen
    assert second == list(reversed(expected))
    assert HashedBagOfTokens().embed(texts[1:3]) == expected[1:3]  # another instance
    first[0][0] += 1.0  # each call returns fresh lists
    again = embedder.embed(texts[:1])
    assert again == expected[:1]
    assert again[0] is not first[0] and again[0] is not second[-1]


def test_make_embedder_rejects_unknown(monkeypatch):
    monkeypatch.setenv("SOLIDQL_API_BASE", "http://127.0.0.1:9")  # so that only the spec can fail
    for spec in ("quantum", "remote:"):  # "remote:" names no model
        with pytest.raises(ConfigError, match=f"unknown embedder: {spec!r}"):
            make_embedder(spec)


@pytest.mark.parametrize("spec", ["hashed", "remote:bge"])
def test_make_embedder_builds_the_provider_its_id_names(spec, monkeypatch):
    monkeypatch.setenv("SOLIDQL_API_BASE", "http://127.0.0.1:9")
    provider_id = make_embedder(spec).provider_id
    assert make_embedder(provider_id).provider_id == provider_id


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


def test_rule_masker_collapses_adjacent_masks_and_strips_es():
    # "singer name" and "class 3 'x'" are one mask each; "class" is "classes" less "-es"
    linked = SchemaSubset.build(["classes"], ["singer.name"])
    question = "Show singer name of classes , and class 3 'x'"
    assert rule_based_question_skeleton(question, linked) == "Show _ of _, and _"


def test_rule_masker_reads_numbers_and_apostrophes_as_one_token():
    # "3.5" and "1,000" are one number each; "3rd" is a word
    linked = SchemaSubset.build(["singer"], [])
    question = "Singers with age > 3.5, sorted by 1,000 votes in 3rd place"
    out = rule_based_question_skeleton(question, linked)
    assert out == "_ with age> _, sorted by _ votes in 3rd place"
    # an apostrophe inside a word opens no quoted value; a quote after a space does
    linked = SchemaSubset.build(["singer"], ["singer.name"])
    question = "What is the singer's name and the song's title in 'Paris'?"
    out = rule_based_question_skeleton(question, linked)
    assert out == "What is the _' s _ and the song' s title in _?"


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
    return build_index(pool_items(pairs), embedder), embedder


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
    index = build_index(pool_items(pairs), embedder)
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
    return build_index(pool_items(pairs), embedder), embedder


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


def test_question_pool_row_whose_squared_norm_overflows_is_ranked():
    vectors = {
        "target": (1e150, 1.0),
        "huge": (1e200, 1e200),
        "unit": (1.0, 1.0),
        "tall": (1.0, 2.0),
        "wide": (1e200, 1.0),
    }
    index, embedder = fixed_index(vectors)
    got = [p.pool_index for p in retrieve_by_question_skeleton("target", index, 4, embedder)]
    assert got == [3, 0, 1, 2]
    assert got == brute_force_question_ranking(vectors["target"], index.pool, 4)
    firsts = [group.members[0].question for group in index.embedding_groups]
    assert firsts == ["wide", "huge", "unit", "tall"]  # by squared norm, the two huge rows scaled


@pytest.mark.parametrize(
    "vectors, expected",
    [
        # ‖target‖² · ‖row‖² overflows for the first row though both factors are finite
        ({"target": (1e150, 1.0), "far": (1e10, 1.0), "unit": (1.0, 1.0)}, [0, 1]),
        # ... and underflows to 0.0 for the first row though both factors are positive
        ({"target": (1e-150, 0.0), "tiny": (1e-150, 0.0), "unit": (1.0, 0.0)}, [0, 1]),
        # ‖target‖² is subnormal and would lose digits: "unit" would score a little above 1
        ({"target": (1e-160, 0.0), "tiny": (1e-160, 0.0), "unit": (1.0, 0.0)}, [0, 1]),
        # ‖target‖² underflows to 0.0 though the target is not all zeros
        ({"target": (1e-170, 0.0), "east": (1.0, 0.0), "north": (0.0, 1.0)}, [0, 1]),
        # ... and so does a pool row's, whose cosine with the target is 1
        ({"target": (1.0, 0.0), "tiny": (1e-170, 0.0), "diagonal": (1.0, 1.0)}, [0, 1]),
        # ‖target‖² overflows though every value and their sum are finite
        ({"target": (1e200, 1e200), "east": (1.0, 0.0), "diagonal": (1.0, 1.0)}, [1, 0]),
    ],
)
def test_question_norm_product_out_of_float_range(vectors, expected):
    index, embedder = fixed_index(vectors)
    got = [p.pool_index for p in retrieve_by_question_skeleton("target", index, 2, embedder)]
    assert got == expected
    assert got == brute_force_question_ranking(vectors["target"], index.pool, 2)


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


@pytest.mark.parametrize("target, cause", [
    ((math.nan, 1.0), "holds a value that is not finite"),
    ((math.inf, 1.0), "holds a value that is not finite"),
    ((1.0, -math.inf), "holds a value that is not finite"),
])
def test_question_target_that_is_not_finite_raises(target, cause):
    vectors = {"target": target}
    vectors.update((f"item {a}", (1.0, float(i))) for i, a in enumerate("abcde"))
    index, embedder = fixed_index(vectors)
    with pytest.raises(ValueError, match=f"target embedding {cause}"):
        retrieve_by_question_skeleton("target", index, 3, embedder)


def test_question_ranking_over_shared_embeddings_matches_brute_force(tmp_path):
    # The masker turns "<word> <number>" into "<word> _", so items of one
    # word share a skeleton text and its row. Beta's row is alpha's and
    # gamma's twice it: three groups of equal score whose members
    # interleave in pool order. Every delta item has one question, so
    # excluding it removes a whole group; the zero rows have no cosine.
    vectors = {
        "target": (1.0, 1.0, 1.0, 1.0),
        "alpha _": (1.0, 2.0, 0.0, 1.0),
        "beta _": (1.0, 2.0, 0.0, 1.0),
        "gamma _": (2.0, 4.0, 0.0, 2.0),
        "delta _": (0.0, 1.0, 3.0, 1.0),
        "epsilon _": (3.0, 0.0, 1.0, 0.0),
        "zero _": (0.0, 0.0, 0.0, 0.0),
    }
    rng = random.Random(21)
    words = [text.split()[0] for text in vectors if text != "target"]
    questions = [f"{rng.choice(words)} {i}" for i in range(40)]
    questions = ["delta 99" if q.startswith("delta") else q for q in questions]
    embedder = FixedEmbedder(vectors)
    index = build_index(pool_items((q, f"SELECT c{i} FROM t") for i, q in enumerate(questions)), embedder)
    assert {q.split()[0] for q in questions} == set(words)
    assert len(index.embedding_groups) == 5
    scores = {}
    for group in index.embedding_groups:
        dot = sum(a * b for a, b in zip(vectors["target"], group.row))
        scores.setdefault(dot / math.sqrt(4.0 * group.squared_norm), []).append(group)  # ‖target‖² = 4
    assert max(len(tied) for tied in scores.values()) == 3

    # A hand-edited index: one alpha record, not the first, gets its own row.
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    header, *records = path.read_text().splitlines()
    alphas = [i for i, q in enumerate(questions) if q.startswith("alpha")]
    edited = json.loads(records[alphas[1]])
    edited["q_embedding"] = [2.0, 0.0, 2.0, 1.0]
    records[alphas[1]] = json.dumps(edited, sort_keys=True)
    path.write_text("\n".join([header, *records]) + "\n")
    loaded = load_index(path)
    assert len(loaded.embedding_groups) == 6

    for searched in (index, loaded):
        firsts = [group.members[0].question for group in searched.embedding_groups]
        later = next(p.question for p in searched.pool if p.question not in firsts)
        for excluded in (None, firsts[0], "delta 99", later):
            for n in range(1, len(questions) + 2):
                got = retrieve_by_question_skeleton(
                    "target", searched, n, embedder, exclude_question=excluded
                )
                expected = brute_force_question_ranking(
                    vectors["target"], searched.pool, n, exclude_question=excluded
                )
                assert [p.pool_index for p in got] == expected, (excluded, n, searched is loaded)


def test_question_ranking_keeps_the_bits_of_a_dense_loop():
    # Round 1 adds only the terms where neither vector is zero. Every
    # other term is a zero of either sign, and so are the products below
    # that underflow; none of them may change a score's bits. Rows three
    # times another are collinear, so their cosines are equal and they rank
    # by how their scores round: a changed summation order would show there.
    rng = random.Random(2026)
    dimension, tiny = 16, 1e-170  # tiny * tiny underflows to ±0.0

    def value():
        kind = rng.randrange(6)
        if kind < 2:
            return (0.0, -0.0)[kind]
        if kind == 2:
            return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0) * tiny
        return rng.gauss(0.0, 1.0)

    rows = []
    for i in range(300):
        if i % 10 == 3:
            row = array("d", rows[rng.randrange(i)])  # the same row under another text
        elif i % 10 == 7:
            row = array("d", [3.0 * v for v in rows[rng.randrange(i)]])
        else:
            row = array("d", [value() for _ in range(dimension - 1)] + [rng.gauss(0.0, 1.0)])
        rows.append(row)
    rows[150] = array("d", [0.0, -0.0] * (dimension // 2))  # norm 0: no cosine
    target = [value() for _ in range(dimension - 1)] + [-0.5]
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    pool = [ExamplePair(f"q{i}", "SELECT a FROM t", f"q{i}", row, skeleton, i) for i, row in enumerate(rows)]
    index = RetrievalIndex(pool, "fixed", dimension)
    embedder = FixedEmbedder({"target": target})

    def squared_norm(vector):
        total = 0.0
        for v in vector:
            total += v * v
        return total

    target_norm = squared_norm(target)
    scores = []  # (negated cosine, pool index), every term summed in bucket order
    for pair in pool:
        norm = squared_norm(pair.q_embedding)
        assert norm == 0.0 or 2.0**-511 <= norm <= 2.0**511  # no vector is rescaled
        if norm:
            dot = 0.0
            for bucket in range(dimension):
                dot += target[bucket] * pair.q_embedding[bucket]
            scores.append((-(dot / math.sqrt(target_norm * norm)), pair.pool_index))
    scores.sort()
    products = [(v, e) for row in rows for v, e in zip(target, row)]
    assert any(v and e and not v * e for v, e in products)  # an underflowing product
    assert any(e == 0.0 and math.copysign(1.0, e) < 0 for row in rows for e in row)
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in target)
    assert len(index.embedding_groups) == 299
    assert len({key for key, _ in scores}) < 290  # equal scores, ranked by pool index
    for excluded in (None, pool[scores[0][1]].question):
        ranking = [i for _, i in scores if pool[i].question != excluded]
        for n in range(1, len(pool) + 1):
            got = retrieve_by_question_skeleton("target", index, n, embedder, exclude_question=excluded)
            assert [p.pool_index for p in got] == ranking[:n], (excluded, n)


def dense_float_scores(target, pool):
    """(negated cosine, pool index) of every pool entry whose row is not
    all zeros, sorted: squared norms and dot products summed over every
    bucket in order from 0.0, as round 1's float loop sums them."""

    def squared_norm(vector):
        total = 0.0
        for v in vector:
            total += v * v
        return total

    target_norm = squared_norm(target)
    scores = []
    for pair in pool:
        norm = squared_norm(pair.q_embedding)
        if norm:
            dot = 0.0
            for v, e in zip(target, pair.q_embedding):
                dot += v * e
            scores.append((-(dot / math.sqrt(target_norm * norm)), pair.pool_index))
    return sorted(scores)


def integer_count_pool(dimension=12):
    """240 rows of counts 0-5 with stored -0.0s; a norm-0 row; texts
    shared by equal and by different rows; rows twice and three times an
    earlier row, whose cosines equal that row's; and one row whose 16 is
    the largest value of bucket 0."""
    rng = random.Random(33)
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    pool = []
    for i in range(240):
        text = f"q{i}"
        if i == 100:
            row = array("d", [0.0, -0.0] * (dimension // 2))
        elif i == 101:
            row = array("d", [16.0] + [1.0] * (dimension - 1))
        elif i % 10 == 3:  # of a row of counts 0-5: every tenth row is one
            row = array("d", [2.0 * v for v in pool[rng.randrange(0, i, 10)].q_embedding])
        elif i % 10 == 7:
            row = array("d", [3.0 * v for v in pool[rng.randrange(0, i, 10)].q_embedding])
        else:
            row = array("d", [rng.choice((0.0, -0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0)) for _ in range(dimension)])
        if i % 10 == 5:
            shared = pool[rng.randrange(i)]
            text = shared.q_skeleton
            if i % 20 == 5:
                row = shared.q_embedding  # the same group; otherwise two groups under one text
        pool.append(ExamplePair(text, "SELECT a FROM t", text, row, skeleton, i))
    return pool


def recorded_dots(monkeypatch) -> list:
    """Every ``QuestionColumns.dots`` result, in call order: ``None`` where
    round 1 took the dense loop."""
    returned = []
    dots = solidql.retrieval.QuestionColumns.dots

    def recording(columns, target):
        returned.append(dots(columns, target))
        return returned[-1]

    monkeypatch.setattr(solidql.retrieval.QuestionColumns, "dots", recording)
    return returned


def test_packed_round1_keeps_the_bits_of_a_dense_loop(monkeypatch):
    returned = recorded_dots(monkeypatch)
    pool = integer_count_pool()
    index = RetrievalIndex(pool, "fixed", 12)
    target = [2.0, 0.0, 1.0, -0.0, 3.0, 1.0, 0.0, 0.0, 4.0, 1.0, 0.0, 2.0]
    scores = dense_float_scores(target, pool)
    assert 100 not in {i for _, i in scores}  # a norm-0 row has no cosine
    assert any(e == 0.0 and math.copysign(1.0, e) < 0 for pair in pool for e in pair.q_embedding)
    groups = index.embedding_groups
    assert len(groups) < len(pool) - 1  # rows shared under one text
    assert len({group.members[0].q_skeleton for group in groups}) < len(groups)  # texts of two rows
    by_cosine = {}  # exact signed cos², to the float scores of its rows
    for key, i in scores:
        row = pool[i].q_embedding
        dot = sum(Fraction(v) * Fraction(e) for v, e in zip(target, row))
        norms = sum(Fraction(v) ** 2 for v in target) * sum(Fraction(e) ** 2 for e in row)
        by_cosine.setdefault(dot * abs(dot) / norms, set()).add(key)
    assert any(len(keys) > 1 for keys in by_cosine.values())  # equal cosines that round apart
    embedder = FixedEmbedder({"target": target})
    for excluded in (None, pool[scores[0][1]].question, pool[5].question):
        ranking = [i for _, i in scores if pool[i].question != excluded]
        for n in range(1, len(pool) + 1):
            got = retrieve_by_question_skeleton("target", index, n, embedder, exclude_question=excluded)
            assert [p.pool_index for p in got] == ranking[:n], (excluded, n)
    assert index.question_columns is not None
    assert returned and None not in returned

    # Three targets the packed columns cannot score: they take the dense loop.
    bounded = [2.0**28] + [0.0] * 11  # Σ t_b · max_b is 2**32, and so is row 101's dot product
    assert sum(t * m for t, m in zip(bounded, index.question_columns.maxima)) == 2**32
    for fallback in (bounded, target[:2] + [0.5] + target[3:], target[:2] + [-1.0] + target[3:]):
        index = RetrievalIndex(pool, "fixed", 12)
        embedder = FixedEmbedder({"target": fallback})
        scores = dense_float_scores(fallback, pool)
        returned.clear()
        for n in (1, 2, 7, len(pool)):
            got = retrieve_by_question_skeleton("target", index, n, embedder)
            assert [p.pool_index for p in got] == [i for _, i in scores[:n]], (fallback, n)
        assert index.question_columns is not None and returned == [None] * 4


def test_question_columns_pack_every_group_row(monkeypatch):
    returned = recorded_dots(monkeypatch)
    rng = random.Random(34)
    words = ["how", "many", "the", "of", "_", "are", "what", "list", "each", "with"]
    pairs = [(" ".join(rng.choices(words, k=rng.randint(2, 9))), "SELECT a FROM t") for _ in range(300)]
    embedder = HashedBagOfTokens()
    index = build_index(pool_items(pairs), embedder)
    groups = index.embedding_groups
    packed = index.question_columns
    assert len(packed.columns) == len(packed.maxima) == index.dimension == 256
    assert packed.count == len(groups)
    for bucket, (column, maximum) in enumerate(zip(packed.columns, packed.maxima)):
        fields = [column >> (32 * number) & 0xFFFFFFFF for number in range(len(groups))]
        assert fields == [group.row[bucket] for group in groups], bucket
        assert column >> (32 * len(groups)) == 0 and maximum == max(fields)
    assert max(packed.maxima) >= 3
    for question, _ in pairs[:20]:
        got = retrieve_by_question_skeleton(question, index, 7, embedder, exclude_question=question)
        scores = dense_float_scores(embedder.embed([question])[0], index.pool)
        assert [p.pool_index for p in got] == [i for _, i in scores if index.pool[i].question != question][:7]
    assert len(returned) == 20 and None not in returned


@pytest.mark.parametrize("value", [0.5, 2.5, -1.0, -0.5, 2.0**32])
def test_question_columns_are_none_unless_every_row_value_is_a_count(value):
    rows = [[1.0, 0.0, 2.0], [0.0, 3.0, 1.0], [4.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
    rows[2][1] = value
    vectors = {"target": (1.0, 2.0, 1.0)}
    vectors.update((f"item {chr(97 + i)}", tuple(row)) for i, row in enumerate(rows))
    index, embedder = fixed_index(vectors)
    assert len(index.embedding_groups) == 4 and index.question_columns is None
    got = retrieve_by_question_skeleton("target", index, 4, embedder)
    assert [p.pool_index for p in got] == brute_force_question_ranking(vectors["target"], index.pool, 4)


def test_question_columns_hold_four_bytes_a_field():
    # 1,000 dense rows of counts 1-997: one int object per field would
    # take 28 bytes for most fields, and a list slot 8 more
    dimension = 256
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    pool = []
    for i in range(1000):
        row = array("d", [float((i * 37 + k * 11) % 997 + 1) for k in range(dimension)])
        pool.append(ExamplePair(f"q{i}", "SELECT a FROM t", f"q{i}", row, skeleton, i))
    index = RetrievalIndex(pool, "test", dimension)
    groups = index.embedding_groups
    fields = len(groups) * dimension
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        packed = index.question_columns
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(groups) == 1000 and packed is not None
    # held: 4 bytes a field, and the peak measured 4.9 on Python 3.11 with
    # one column of the rows in flight as float objects; a list slot is 8
    assert peak < 7 * fields, (peak, fields)


@pytest.mark.parametrize("values", [(0.0, 1.0, 2.0), (0.0, 0.5, 1.5)], ids=["counts", "fractions"])
def test_question_ranking_widens_past_an_excluded_question_and_ties(values):
    # Round 1 heaps only the groups at or above the k-th best score,
    # k = n at first. Here the excluded question's entries hold every
    # group of the two best rows, so the n best groups leave fewer than n
    # members and k must grow. Each row is held by groups of several
    # texts, whose equal scores straddle each threshold, and groups of
    # several members spread over the pool.
    rng = random.Random(62)
    target = (2.0, 1.0, 1.0) if values[1] == 1.0 else (1.5, 0.5, 0.5)
    rows = {}  # by exact squared cosine: equal cosines of two rows can round apart (ROADMAP item 5)
    for row in sorted({tuple(rng.choice(values) for _ in range(3)) for _ in range(40)} - {(0.0, 0.0, 0.0)}):
        dot = sum(map(Fraction.__mul__, map(Fraction, target), map(Fraction, row)))
        rows.setdefault(dot * dot / sum(Fraction(v) ** 2 for v in row), row)
    rows = list(rows.values())
    best_rows = sorted(rows, key=lambda row: cosine_similarity(target, row), reverse=True)[:2]
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    pool = []
    for i in range(90):
        row = rng.choice(rows)
        text = "abcde"[rng.randrange(5)]  # a group is one text and one row
        question = "same" if row in best_rows else f"q{i}"
        pool.append(ExamplePair(question, "SELECT a FROM t", text, array("d", row), skeleton, i))
    index = RetrievalIndex(pool, "fixed", 3)
    embedder = FixedEmbedder({"target": target})
    ranked = [pool[i] for i in brute_force_question_ranking(target, pool, len(pool))]
    leading = next(i for i, pair in enumerate(ranked) if pair.question != "same")
    assert len({(pair.q_skeleton, tuple(pair.q_embedding)) for pair in ranked[:leading]}) >= 3  # groups
    groups = index.embedding_groups
    assert len({tuple(group.row) for group in groups}) * 2 < len(groups)  # equal scores
    assert any(len(group.members) > 2 for group in groups)
    assert (index.question_columns is None) == (values[1] == 0.5)  # both scoring paths
    for excluded in (None, "same"):
        for n in range(1, len(pool) + 1):
            got = retrieve_by_question_skeleton("target", index, n, embedder, exclude_question=excluded)
            expected = brute_force_question_ranking(target, pool, n, exclude_question=excluded)
            assert [p.pool_index for p in got] == expected, (excluded, n)


def row_pool(rows, excluded=()):
    """A pool of ``rows``, entry i under text ``q{i}`` and question
    ``q{i}``, or ``same`` when i is in ``excluded``."""
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    return [ExamplePair("same" if i in excluded else f"q{i}", "SELECT a FROM t", f"q{i}",
                        array("d", row), skeleton, i) for i, row in enumerate(rows)]


def assert_ranks_as_brute_force(pool, target):
    """Round 1 over ``pool`` equals the oracle at every n up to two past
    the pool's size, with no question excluded and with ``same``."""
    index = RetrievalIndex(pool, "fixed", len(target))
    embedder = FixedEmbedder({"target": target})
    for excluded in (None, "same"):
        for n in range(1, len(pool) + 3):
            got = retrieve_by_question_skeleton("target", index, n, embedder, exclude_question=excluded)
            expected = brute_force_question_ranking(target, pool, n, exclude_question=excluded)
            assert [p.pool_index for p in got] == expected, (excluded, n)
    return index


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["counts", "fractions"])
def test_question_tie_across_squared_norms_ranks_by_pool_index(scale):
    # cosines of exactly 1.0 under two squared norms, and a lower one between them
    pool = row_pool([(2.0 * scale, 0.0), (scale, scale), (scale, 0.0)])
    index = assert_ranks_as_brute_force(pool, (1.0, 0.0))
    got = retrieve_by_question_skeleton("target", index, 2, FixedEmbedder({"target": (1.0, 0.0)}))
    assert [p.pool_index for p in got] == [0, 2]
    assert (index.question_columns is None) == (scale == 0.5)  # both scoring paths
    # a cosine of 0.8 under squared norms 100 and 25 ties for second place:
    # the second best class's score, which row 2 of the best class meets;
    # row 4 makes a third class, below both
    pool = row_pool([(8.0 * scale, 6.0 * scale), (5.0 * scale, 0.0), (4.0 * scale, 3.0 * scale),
                     (3.0 * scale, 4.0 * scale), (0.0, scale)])
    index = assert_ranks_as_brute_force(pool, (1.0, 0.0))
    got = retrieve_by_question_skeleton("target", index, 2, FixedEmbedder({"target": (1.0, 0.0)}))
    assert [p.pool_index for p in got] == [1, 0]


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["counts", "fractions"])
def test_question_norm_class_whose_best_group_is_excluded(scale):
    # rows 1 and 5 are the best of squared norm 2, both the excluded
    # question's; rows 0 and 2 share that norm and score lower than rows
    # 3 and 7 of other norms
    rows = [(0, 1, 1), (1, 1, 0), (1, 0, 1), (2, 1, 0), (1, 0, 0), (1, 1, 0), (0, 2, 1), (2, 2, 1)]
    pool = row_pool([[scale * v for v in row] for row in rows], excluded={1, 5})
    assert_ranks_as_brute_force(pool, (1.0, 1.0, 0.0))


@pytest.mark.parametrize("scale", [1.0, 0.5], ids=["counts", "fractions"])
def test_question_ranking_widens_past_norms_held_by_the_excluded_question(scale):
    # rows 0-4 score 1.0 under five squared norms, all the excluded
    # question's; rows 5-7 score lower under two more, so that with the
    # excluded question left out, every n widens until it takes them all
    rows = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (1, 1), (1, 2), (2, 1)]
    pool = row_pool([[scale * v for v in row] for row in rows], excluded=range(5))
    assert len({sum(v * v for v in pair.q_embedding) for pair in pool}) == 7
    assert brute_force_question_ranking((1.0, 0.0), pool, 5) == [0, 1, 2, 3, 4]
    assert_ranks_as_brute_force(pool, (1.0, 0.0))


def test_question_ranking_over_a_dense_pool_of_distinct_squared_norms():
    rng = random.Random(71)
    rows = [[rng.gauss(0.0, 1.0) for _ in range(8)] for _ in range(60)]
    pool = row_pool(rows, excluded={rng.randrange(60) for _ in range(4)})
    assert len({sum(v * v for v in row) for row in rows}) == len(rows)  # one group to each norm
    index = assert_ranks_as_brute_force(pool, [rng.gauss(0.0, 1.0) for _ in range(8)])
    assert index.question_columns is None


def test_squared_norms_keep_the_bits_of_a_full_loop():
    # _scaled sums the squares of the non-zero values only; every other
    # square is +0.0, and so is each underflowing one, which adds nothing
    # to a sum that starts at +0.0
    rng = random.Random(37)

    def value():
        kind = rng.randrange(6)
        if kind == 0:
            return rng.choice((0.0, -0.0))
        if kind == 1:
            return float(rng.randrange(6))
        if kind == 2:
            return rng.choice((-1.0, 1.0)) * rng.randrange(1, 2**20) * 5e-324  # subnormal
        if kind == 3:
            return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) * 1e150
        return rng.gauss(0.0, 1.0)

    for _ in range(5000):
        vector = array("d", [value() for _ in range(rng.randint(1, 12))])
        scaled, norm = solidql.retrieval._scaled(vector)
        total = 0.0
        for v in scaled:
            total += v * v
        assert norm.hex() == total.hex(), list(vector)  # hex keeps the sign of a zero
        assert scaled == vector or 0.25 <= norm <= len(vector)


def test_sql_identity_ranked_first(small_index):
    index, embedder = small_index
    result = retrieve_by_sql_skeleton("SELECT name FROM singer", index, 3)
    assert result.pairs[0].sql == "SELECT name FROM singer"
    assert result.fallback is None


def test_sql_malformed_falls_back_to_question_mode(small_index):
    index, _ = small_index
    result = retrieve_by_sql_skeleton("SELEC name FORM singer", index, 3)
    assert result.fallback == "question"
    assert result.pairs == []


def test_both_rounds_refuse_fewer_than_one_example(small_index):
    index, embedder = small_index
    with pytest.raises(ValueError, match="n must be >= 1"):
        retrieve_by_question_skeleton("what are the _ of _", index, 0, embedder)
    with pytest.raises(ValueError, match="n must be >= 1"):
        retrieve_by_sql_skeleton("SELECT name FROM singer", index, 0)


def test_sql_ranking_matches_brute_force(small_index):
    from solidql.skeleton import SqlSkeleton, tree_edit_distance

    index, _ = small_index
    target = SqlSkeleton.from_sql("SELECT count(*) FROM singer WHERE age > 20")
    distances = [
        (pair.pool_index, tree_edit_distance(target, pair.s_skeleton))
        for pair in index.pool
    ]
    expected = brute_force_sql_ranking(distances, 4)
    got = retrieve_by_sql_skeleton("SELECT count(*) FROM singer WHERE age > 20", index, 4).pairs
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
    index = build_index(pool_items((f"question {i}", sql) for i, sql in enumerate(statements)), HashedBagOfTokens())
    target = SqlSkeleton.from_sql("SELECT c FROM v")
    distances = [(p.pool_index, tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
    assert sorted(d for _, d in distances).count(1) == 8
    distinct = len({p.s_skeleton.text for p in index.pool})

    visited = set()  # the compiled skeletons bounded by traversal strings or scored
    scored = set()  # (skeleton, limit): a skeleton scored again is scored under a larger limit

    def counting(fn, compiled):
        def wrapper(target, other, *rest):
            visited.add(id(compiled(other)))
            return fn(target, other, *rest)

        return wrapper

    def scoring(target, other, limit):
        # a stop rule that let a skeleton past the cutoff be popped would score it here forever
        assert (id(other), limit) not in scored, (other.text, limit)
        scored.add((id(other), limit))
        return tree_edit_distance(target, other, limit)

    monkeypatch.setattr(retrieval, "tree_edit_distance", counting(scoring, lambda skeleton: skeleton.compiled))
    monkeypatch.setattr(
        retrieval, "traversal_lower_bound", counting(retrieval.traversal_lower_bound, lambda tree: tree)
    )
    for excluded in (None, 0):  # question 0 is the first member of the target's group
        exclude = None if excluded is None else f"question {excluded}"
        skip = () if excluded is None else (excluded,)
        for n in range(1, len(statements) + 1):
            visited.clear()
            scored.clear()
            got = retrieve_by_sql_skeleton("SELECT c FROM v", index, n, exclude_question=exclude).pairs
            assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n, skip)
            if n == 2:
                # The second best is at distance 1 or better, so the seven
                # distance-1 skeletons after it are neither scored nor checked.
                assert len(visited) <= 2 < distinct


def test_stop_rule_pops_up_to_the_nth_best_inclusive():
    """Both rounds stop by ``_popped``: every entry while fewer than n are
    held, then each whose (key, first pool index) is at or before the n-th
    best's (key, pool index). A search never pops an entry equal to a held
    candidate, so only this direct check pins the equal case."""
    from solidql.retrieval import _popped

    entries = [(1, 4, "a"), (2, 3, "b"), (2, 5, "c"), (2, 6, "d"), (3, 0, "e")]
    assert list(_popped(list(entries), [], 1)) == entries
    heap = list(entries)  # a sorted list is a heap
    best = [(0, 9, "p"), (2, 5, "q")]
    assert list(_popped(heap, best, 2)) == entries[:3]  # (2, 6) is past (2, 5)
    assert heap[0] == entries[3]  # and stays unpopped
    assert list(_popped(list(entries), best, 3)) == entries  # fewer than n held


def test_sql_ranking_across_size_rings(monkeypatch):
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
    index = build_index(pool_items((f"question {i}", sql) for i, sql in enumerate(statements)), HashedBagOfTokens())
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
            got = retrieve_by_sql_skeleton("SELECT x, y FROM v", index, n, exclude_question=exclude).pairs
            assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n, skip)

    # On a pool of wide size spread, the rings leave groups unbounded.
    rng = random.Random(41)
    pool = [(f"question {i}", random_statement(rng)) for i in range(300)]
    index = build_index(pool_items(pool), HashedBagOfTokens())
    sizes = {len(p.s_skeleton.compiled.postorder) for p in index.pool}
    assert max(sizes) - min(sizes) > 20
    groups = len({p.s_skeleton.text for p in index.pool})
    handed = counting_handouts(monkeypatch)
    targets = [(random_statement(rng), None) for _ in range(5)] + [(pool[3][1], pool[3][0])]
    for sql, excluded in targets:
        target = SqlSkeleton.from_sql(sql)
        distances = [(p.pool_index, tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
        skip = {p.pool_index for p in index.pool if p.question == excluded}
        for n in (1, 3, 7):
            handed.clear()
            got = retrieve_by_sql_skeleton(sql, index, n, exclude_question=excluded).pairs
            assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n, skip)
            assert 0 < len(handed) < groups


def counting_handouts(monkeypatch) -> list:
    """The list to which round 2's size buckets add each group they hand
    out: the group's first pool index."""
    from solidql import retrieval

    release = retrieval.SizeBucket.release
    handed = []

    def counting(bucket, target):
        for entry in release(bucket, target):
            handed.append(entry[1])
            yield entry

    monkeypatch.setattr(retrieval.SizeBucket, "release", counting)
    return handed


def test_packed_label_bounds_equal_the_oracle_in_release_order():
    rng = random.Random(43)
    pool = [(f"question {i}", random_statement(rng)) for i in range(300)]

    def long_statement(operators):  # 80 predicates: more than 255 nodes
        return "SELECT a FROM t WHERE " + " AND ".join(f"c{i} {op} {i}" for i, op in enumerate(operators))

    long = [long_statement(rng.choices("=<>", k=80)) for _ in range(6)]
    pool += [(f"long question {i}", sql) for i, sql in enumerate(long + long[:2])]  # two share a skeleton
    index = build_index(pool_items(pool), HashedBagOfTokens())
    label_bags, buckets = index.skeleton_groups
    wide = [size for size in buckets if size > 255]
    assert len(wide) == 1 and len(buckets[wide[0]].groups) == 6
    first_indices = {size: [group.members[0].pool_index for group in bucket.groups] for size, bucket in buckets.items()}
    for size, bucket in buckets.items():
        assert first_indices[size] == sorted(first_indices[size])
        bags = [label_bags.bag(group.skeleton.compiled.postorder) for group in bucket.groups]
        for bit, column in bucket.columns.items():  # one 32-bit field per group, in every bucket
            assert column == sum(1 << 32 * position for position, bag in enumerate(bags) if bit in bag.bits)
    own = label_bags.bag(SqlSkeleton.from_sql(long[0]).compiled.postorder)
    assert len(own.bits) > 255  # all shared with its own skeleton: more than 8 bits can count
    for sql in [random_statement(rng) for _ in range(8)] + long[:2] + [pool[5][1]]:
        target = label_bags.bag(SqlSkeleton.from_sql(sql).compiled.postorder)
        for size, bucket in buckets.items():
            bags = [label_bags.bag(group.skeleton.compiled.postorder) for group in bucket.groups]
            expected = sorted(zip(label_lower_bounds(target, bags), first_indices[size]))
            released = list(bucket.release(target))
            assert [(bound, first) for bound, first, _ in released] == expected
            assert [group.members[0].pool_index for _, _, group in released] == [first for _, first in expected]
    assert retrieve_by_sql_skeleton(long[0], index, 1).pairs[0].pool_index == 300


def test_sql_ranking_rescores_a_group_scored_past_its_limit(monkeypatch):
    from solidql import retrieval
    from solidql.skeleton import SqlSkeleton, tree_edit_distance

    sql = "SELECT max(a) FROM t WHERE b BETWEEN 1 AND 'x' GROUP BY a ORDER BY c ASC"
    statements = [
        # distance 12; its label bound is 8 and its traversal bound 9
        "SELECT max(a) FROM t JOIN u ON t.b = u.c",
        "SELECT max(a) FROM t WHERE b BETWEEN 1 AND 2 GROUP BY a",
        "SELECT max(a) FROM t WHERE b = 1 GROUP BY a ORDER BY c ASC",
        "SELECT min(d) FROM u WHERE e BETWEEN 3 AND 'y' GROUP BY d ORDER BY e DESC",
    ]
    index = build_index(pool_items((f"question {i}", s) for i, s in enumerate(statements)), HashedBagOfTokens())
    target = SqlSkeleton.from_sql(sql)
    distances = [(p.pool_index, tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
    assert distances[0] == (0, 12)
    scores = []

    def recording(a, b, limit):
        distance = tree_edit_distance(a, b, limit)
        scores.append((b.text, limit, distance))
        return distance

    monkeypatch.setattr(retrieval, "tree_edit_distance", recording)
    for n in range(1, len(statements) + 1):
        scores.clear()
        got = retrieve_by_sql_skeleton(sql, index, n).pairs
        assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n)
    # with every group wanted, the far one is scored past key + 2, then again under limit + 1
    far = index.pool[0].s_skeleton.text
    assert [(limit, distance) for text, limit, distance in scores if text == far] == [(11, 12), (14, 12)]


def test_sql_ranking_settles_only_pairs_whose_relabel_cost_meets_the_key(monkeypatch):
    from solidql import retrieval

    sql = "SELECT max(min(abs(a))) FROM t"
    statements = [
        "SELECT min(abs(round(b))) FROM u",  # the target's shape shifted: relabel cost 3, distance 2
        "SELECT max(min(abs(c))) FROM v",  # the target's skeleton: relabel cost 0
        "SELECT max(min(round(d))) FROM w",  # relabel cost 1 meets the label bound
        "SELECT max(abs(a)) FROM t",  # another shape, distance 1
        "SELECT abs(round(max(b))) FROM u",  # relabel cost 3 meets the traversal bound
        "SELECT sum(avg(b)) FROM u",  # another shape, distance 3
    ]
    index = build_index(pool_items((f"question {i}", s) for i, s in enumerate(statements)), HashedBagOfTokens())
    target = SqlSkeleton.from_sql(sql)
    distances = [(p.pool_index, tree_edit_distance(target, p.s_skeleton)) for p in index.pool]
    assert [d for _, d in distances] == [2, 0, 1, 1, 3, 3]
    scored = set()

    def recording(a, b, limit):
        scored.add(b.text)
        return tree_edit_distance(a, b, limit)

    monkeypatch.setattr(retrieval, "tree_edit_distance", recording)
    for n in range(1, len(statements) + 1):
        got = retrieve_by_sql_skeleton(sql, index, n).pairs
        assert [p.pool_index for p in got] == brute_force_sql_ranking(distances, n)
    assert scored == {index.pool[i].s_skeleton.text for i in (0, 3, 5)}


# tree_edit_distance calls of test_round2_work_gate's queries: the search
# that sorted all groups by label bound and scanned them in that order
# made 352, and the ring search made 198. The ring search that settles a
# pair whose same-shape relabel cost meets its key made 147 calls when
# this gate was set, and settled 51 pairs without one: 198 in all.
SORTED_SCAN_CALLS = 352
RING_SEARCH_CALLS = 147
RING_SEARCH_DISTANCES = 198  # exact distances: dynamic programs run and pairs settled
# Skeleton groups that the same queries take out of their size buckets:
# pushing every group of each bucket it opens, the ring search pushed
# 16,476; releasing them one at a time in bound order, it hands out 1,050.
BUCKET_PUSHES = 16476
RING_SEARCH_HANDOUTS = 1050


@pytest.fixture(scope="module")
def work_gate_queries():
    """A fixed 2,000-item pool's index and 30 round-2 queries on it: (SQL,
    excluded question)."""
    rng = random.Random(909)
    pool = [(f"question {i}", random_statement(rng)) for i in range(2000)]
    index = build_index(pool_items(pool), HashedBagOfTokens())
    targets = [(random_statement(rng), None) for _ in range(20)]
    targets += [(sql, question) for question, sql in pool[::200]]  # self-excluded
    return index, targets


def test_round2_work_gate(monkeypatch, work_gate_queries):
    """Pruning guard without timing: the exact-distance calls that round 2
    makes for fixed queries on a fixed 2,000-item pool at n = 7, the
    pairs it settles without one, and the groups its size buckets hand
    out."""
    from solidql import retrieval

    index, targets = work_gate_queries
    tree_edit_distance, join = retrieval.tree_edit_distance, retrieval._join
    calls = scored = joined = 0

    def counting(a, b, limit):
        nonlocal calls, scored
        calls += 1
        distance = tree_edit_distance(a, b, limit)
        scored += distance <= limit  # exact, so the group joins the n best
        return distance

    def joining(*args):
        nonlocal joined
        joined += 1
        return join(*args)

    monkeypatch.setattr(retrieval, "tree_edit_distance", counting)
    monkeypatch.setattr(retrieval, "_join", joining)
    handed = counting_handouts(monkeypatch)
    for sql, excluded in targets:
        assert len(retrieve_by_sql_skeleton(sql, index, 7, exclude_question=excluded).pairs) == 7
    settled = joined - scored  # groups that joined without a dynamic program
    assert calls <= RING_SEARCH_CALLS < SORTED_SCAN_CALLS
    assert 0 < settled and calls + settled <= RING_SEARCH_DISTANCES
    assert len(handed) <= RING_SEARCH_HANDOUTS < BUCKET_PUSHES


# Size buckets that test_round2_work_gate's queries open, summing their
# label columns: 220 when this gate was set, of 37 buckets in each of 30
# queries.
RING_SEARCH_OPENINGS = 220


def test_round2_opens_buckets_lazily(monkeypatch, work_gate_queries):
    """A size bucket's label columns are summed only when the search
    reaches its ring: round 2 unpacks no sum for a bucket it never pops."""
    from solidql import retrieval

    index, targets = work_gate_queries
    unpacked = retrieval._unpacked
    opened = []

    def counting(count, total):
        opened.append(count)
        return unpacked(count, total)

    monkeypatch.setattr(retrieval, "_unpacked", counting)
    for sql, excluded in targets:
        assert len(retrieve_by_sql_skeleton(sql, index, 7, exclude_question=excluded).pairs) == 7
    _, buckets = index.skeleton_groups
    assert 0 < len(opened) <= RING_SEARCH_OPENINGS < len(buckets) * len(targets)


@pytest.fixture(scope="module")
def pool_8k():
    """An 8,000-item pool's index, in which items share question skeletons
    and SQL statements; its embedder; three (question skeleton, SQL,
    excluded question) targets; and the question stems and vocabulary."""
    rng = random.Random(808)
    statements = [random_statement(rng) for _ in range(2000)]
    trees = {sql: parse_sql(sql) for sql in statements}
    vocabulary = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(40)]
    stems = [" ".join(rng.choices(vocabulary, k=rng.randint(3, 6))) for _ in range(3000)]
    pool = [(f"{rng.choice(stems)} {i}", rng.choice(statements)) for i in range(8000)]
    embedder = HashedBagOfTokens()
    index = build_index((PoolItem(q, sql, trees[sql]) for q, sql in pool), embedder)
    own_question, own_sql = pool[4321]
    targets = [
        (" ".join(rng.choices(vocabulary, k=4)), random_statement(rng), None),
        (rng.choice(stems) + " _", random_statement(rng), None),
        (index.pool[4321].q_skeleton, own_sql, own_question),
    ]
    return index, embedder, targets, stems, vocabulary


def test_rankings_match_brute_force_on_an_8k_pool(pool_8k):
    """Both rounds equal their brute-force oracles on an 8,000-item pool,
    in which items share question skeletons and SQL statements."""
    index, embedder, targets, _, _ = pool_8k
    assert len(index) == 8000 and len(index.embedding_groups) < 3000

    for question, sql, excluded in targets:
        expected_q = brute_force_question_ranking(
            embedder.embed([question])[0], index.pool, 7, exclude_question=excluded
        )
        target = SqlSkeleton.from_sql(sql)
        by_text = {}
        for pair in index.pool:
            if pair.s_skeleton.text not in by_text:
                by_text[pair.s_skeleton.text] = tree_edit_distance(target, pair.s_skeleton)
        distances = [(pair.pool_index, by_text[pair.s_skeleton.text]) for pair in index.pool]
        skip = {pair.pool_index for pair in index.pool if pair.question == excluded}
        for n in (1, 7):
            got_q = retrieve_by_question_skeleton(question, index, n, embedder, exclude_question=excluded)
            assert [p.pool_index for p in got_q] == expected_q[:n], (question, n)
            got_s = retrieve_by_sql_skeleton(sql, index, n, exclude_question=excluded).pairs
            assert [p.pool_index for p in got_s] == brute_force_sql_ranking(distances, n, skip), (sql, n)


# Groups that test_round1_work_gate's queries score one by one, inside
# the squared-norm classes whose best score can still rank: 81,195 when
# this gate was set, of 2,802 groups in each of 30 queries (84,060). The
# pool's questions are 3-6 words of 40 and a mask, so its groups hold only
# 12 squared norms, and most classes can still rank at n = 7.
ROUND1_SCORED = 81195


def test_round1_work_gate(monkeypatch, pool_8k):
    """Pruning guard without timing: the groups that round 1 scores one by
    one for fixed queries on the 8,000-item pool at n = 7."""
    index, embedder, _, stems, vocabulary = pool_8k
    rng = random.Random(818)
    queries = [(" ".join(rng.choices(vocabulary, k=rng.randint(3, 6))), None) for _ in range(10)]
    queries += [(rng.choice(stems) + " _", None) for _ in range(10)]
    queries += [(pair.q_skeleton, pair.question) for pair in index.pool[::800]]  # self-excluded
    scored = round1_scored(monkeypatch, index, embedder, queries)
    assert 0 < scored <= ROUND1_SCORED < len(index.embedding_groups) * len(queries)


# The same count on a 2,000-item pool whose questions are 3-25 words of
# 300 and a mask: its 2,000 groups hold 37 squared norms, so that a class
# left out takes many groups with it. 17,427 when this gate was set, of
# 60,000 in 30 queries.
SPREAD_NORMS_SCORED = 17427


def test_round1_work_gate_over_a_spread_of_squared_norms(monkeypatch):
    """Round 1 scores few groups one by one when the pool's squared norms
    spread over many classes, and still ranks as the brute-force oracle."""
    rng = random.Random(828)
    vocabulary = [f"w{i}" for i in range(300)]

    def question():
        return " ".join(rng.choices(vocabulary, k=rng.randint(3, 25)))

    tree = parse_sql("SELECT a FROM t")
    embedder = HashedBagOfTokens()
    index = build_index((PoolItem(f"{question()} {i}", "SELECT a FROM t", tree) for i in range(2000)), embedder)
    assert len(index.embedding_groups) == 2000 and len(index.norm_classes.norms) > 30
    queries = [(question(), None) for _ in range(10)]
    queries += [(rng.choice(index.pool).q_skeleton, None) for _ in range(10)]
    queries += [(pair.q_skeleton, pair.question) for pair in index.pool[::200]]  # self-excluded
    for question_skeleton, excluded in queries[::5]:
        expected = brute_force_question_ranking(
            embedder.embed([question_skeleton])[0], index.pool, 7, exclude_question=excluded
        )
        got = retrieve_by_question_skeleton(question_skeleton, index, 7, embedder, exclude_question=excluded)
        assert [p.pool_index for p in got] == expected, question_skeleton
    scored = round1_scored(monkeypatch, index, embedder, queries)
    assert 0 < scored <= SPREAD_NORMS_SCORED < len(index.embedding_groups) * len(queries)


def round1_scored(monkeypatch, index, embedder, queries) -> int:
    """The groups that round 1 scores one by one, through
    ``retrieval._class_scores``, for ``queries``, (question skeleton,
    excluded question), at n = 7; each query must return 7 examples."""
    from solidql import retrieval

    class_scores = retrieval._class_scores
    scored = 0

    def counting(dots, root):
        nonlocal scored
        scored += len(dots)
        return class_scores(dots, root)

    monkeypatch.setattr(retrieval, "_class_scores", counting)
    for question, excluded in queries:
        assert len(retrieve_by_question_skeleton(question, index, 7, embedder, exclude_question=excluded)) == 7
    return scored


# ----------------------------------------------------------------------
# index build and persistence
# ----------------------------------------------------------------------


def test_empty_pool_builds_empty_index(tmp_path):
    index = build_index([], HashedBagOfTokens())
    assert len(index) == 0
    save_index(index, tmp_path / "idx.jsonl")
    assert len(load_index(tmp_path / "idx.jsonl")) == 0


def test_unparseable_sql_skipped(schemas, caplog):
    records = [{"question": q, "query": sql} for q, sql in
               [("bad", "NOT SQL AT ALL"), ("good", "SELECT name FROM singer"), ("worse", "SELECT")]]
    items = parsed_pool(records, [schemas["concert_singer"]] * 3)
    index = build_index(items, HashedBagOfTokens())
    assert [(p.question, p.pool_index) for p in index.pool] == [("good", 0)]
    skipped = [r.getMessage() for r in caplog.records if "unparseable" in r.getMessage()]
    assert [m.split(":")[0] for m in skipped] == [
        "skipping pool item 0 (unparseable SQL)", "skipping pool item 2 (unparseable SQL)",
    ]


def test_rebuild_is_byte_identical(tmp_path):
    pairs = [("q one", "SELECT a FROM t"), ("q two", "SELECT b FROM u WHERE c > 1")]
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    save_index(build_index(pool_items(pairs), HashedBagOfTokens()), first_path)
    save_index(build_index(pool_items(pairs), HashedBagOfTokens()), second_path)
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
        assert a == b and hash(a) == hash(b)
    for pair in index.pool + loaded.pool:  # built and loaded: one packed row each
        row = pair.q_embedding
        assert (type(row), row.typecode, len(row)) == (array, "d", index.dimension)


class _FixedEmbedder:
    """Returns the given vectors, as a remote provider might."""

    provider_id = "fixed-test"
    dimension = 0

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return [list(vector) for vector in self.vectors]


@pytest.mark.parametrize("vectors", [
    [[1.0, 2.0], [1.0]], [[1.0, "2"], [1.0, 2.0]], [[1.0, 2.0], [1.0, 10**400]],
    [[1.0, 2.0], [1.0, math.nan]], [[1.0, 2.0], [-math.inf, 2.0]], [[1e308, 1e308], [1.0, 2.0]],
])
def test_build_index_refuses_embeddings_it_cannot_pack(vectors):
    # the last three save_index would write, and load_index refuse
    pairs = [("q one", "SELECT a FROM t"), ("q two", "SELECT b FROM u")]
    with pytest.raises(ValueError):
        build_index(pool_items(pairs), _FixedEmbedder(vectors))


def test_build_index_names_why_it_refuses_an_embedding():
    pairs = [("q one", "SELECT a FROM t"), ("q two", "SELECT b FROM u")]
    with pytest.raises(ValueError, match="embedding 1 holds a value that is not finite"):
        build_index(pool_items(pairs), _FixedEmbedder([[1.0, 2.0], [1.0, math.nan]]))
    with pytest.raises(ValueError, match="embedding 0 has values whose sum is beyond float range"):
        build_index(pool_items(pairs), _FixedEmbedder([[1e308, 1e308], [1.0, 2.0]]))


class _WideEmbedder:
    """Dense vectors of distinct float objects, which nothing but the caller keeps."""

    provider_id = "wide-test"
    dimension = 16384

    def embed(self, texts):
        return [[float(i + k) for k in range(self.dimension)] for i in range(len(texts))]


def test_build_index_drops_each_vector_once_packed():
    # every vector and every packed row held at once would take vectors_bytes + rows_bytes
    pairs = [(f"question {i}", "SELECT a FROM t WHERE b > 1") for i in range(16)]
    embedder = _WideEmbedder()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vectors = embedder.embed([question for question, _ in pairs])
        vectors_bytes = tracemalloc.get_traced_memory()[0] - start
        del vectors
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        index = build_index(pool_items(pairs), embedder)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    rows_bytes = sum(sys.getsizeof(pair.q_embedding) for pair in index.pool)
    assert rows_bytes > vectors_bytes / 5
    assert peak < vectors_bytes + rows_bytes / 2, (peak, vectors_bytes, rows_bytes)


def test_embedding_groups_hold_no_copy_of_the_rows():
    # 2,000 rows under 1,500 texts; a serialized copy of each row would take rows_bytes
    dimension = 256
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    pool = []
    for i in range(2000):
        text = f"question {i % 1500}"
        row = array("d", [float(i % 1500 + k) for k in range(dimension)])
        pool.append(ExamplePair(text, "SELECT a FROM t", text, row, skeleton, i))
    index = RetrievalIndex(pool, "test", dimension)
    rows_bytes = sum(sys.getsizeof(pair.q_embedding) for pair in pool)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        groups = index.embedding_groups
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(groups) == 1500
    assert peak < rows_bytes / 4, (peak, rows_bytes)


def test_dense_round1_builds_no_view_of_the_rows():
    # 2,000 Gaussian rows of 256 floats, which no packed column can hold:
    # a per-bucket copy of the rows' values would take about rows_bytes
    dimension = 256
    rng = random.Random(35)
    skeleton = SqlSkeleton.from_sql("SELECT a FROM t")
    pool = []
    for i in range(2000):
        row = array("d", [rng.gauss(0.0, 1.0) for _ in range(dimension)])
        pool.append(ExamplePair(f"q{i}", "SELECT a FROM t", f"q{i}", row, skeleton, i))
    index = RetrievalIndex(pool, "fixed", dimension)
    embedder = FixedEmbedder({"target": [rng.gauss(0.0, 1.0) for _ in range(dimension)]})
    assert len(index.embedding_groups) == 2000
    rows_bytes = sum(sys.getsizeof(pair.q_embedding) for pair in pool)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = retrieve_by_question_skeleton("target", index, 7, embedder)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert index.question_columns is None
    assert [p.pool_index for p in got] == [i for _, i in dense_float_scores(embedder.vectors["target"], pool)[:7]]
    assert peak < rows_bytes / 4, (peak, rows_bytes)


def test_load_reads_embedding_booleans_as_numbers(tmp_path, small_index):
    # accepted: checking every value's type would cost a Python-level loop
    index, embedder = small_index
    path = tmp_path / "idx.jsonl"
    save_index(index, path)
    header, *records = path.read_text().splitlines()
    with_bools = [header]
    for line in records:
        record = json.loads(line)
        record["q_embedding"] = [value == 1.0 for value in record["q_embedding"]]
        with_bools.append(json.dumps(record))
    assert "true" in with_bools[1] and "false" in with_bools[1]
    path.write_text("\n".join(with_bools) + "\n")
    loaded = load_index(path)
    for target in ("names of things older than a number", "how many _ are there"):
        assert [p.pool_index for p in retrieve_by_question_skeleton(target, loaded, 3, embedder)] == [
            p.pool_index for p in retrieve_by_question_skeleton(target, index, 3, embedder)]


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
    save_index(build_index(pool_items([("q", "SELECT a FROM t")]), embedder), path)
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
    sql = "SELECT name FROM singer"
    linked = SchemaSubset.build(["singer"], ["singer.name"])
    index = build_index(
        [PoolItem("what are the names of singers", sql, parse_sql(sql), linked)],
        HashedBagOfTokens(),
        gateway=gateway,
        model_id="m",
    )
    assert index.pool[0].q_skeleton == "what are the _ of _"
