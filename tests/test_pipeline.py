"""Two-round orchestration: rounds, fallbacks, batch order, resume, replay."""

from __future__ import annotations

import json
import threading

import pytest

from solidql.config import RunConfig
from solidql.embeddings import HashedBagOfTokens
from solidql.errors import CorruptFileError, ReplayMiss
from solidql.gateway import LlmGateway, TranscriptStore
from solidql.linking import OracleLinkingPredictor
from solidql.pipeline import (
    FLAG_ROUND1_EXTRACT,
    FLAG_ROUND2_EXTRACT,
    FLAG_ROUND2_RETRIEVAL_FALLBACK,
    PipelineResult,
    ProgressLedger,
    run_batch,
    run_item,
    write_results,
)
from solidql.retrieval import build_index, retrieve_by_question_skeleton
from solidql.schema import SchemaSubset

from support import FakeChatProvider

QUESTIONS = {
    "What are the names of all employees?": "SELECT name FROM employee",
    "How many shops are there?": "SELECT count(*) FROM shop",
    "What are the names of employees older than 40?": "SELECT name FROM employee WHERE age > 40",
    "What is the name of the shop with the most products?": "SELECT name FROM shop ORDER BY number_products DESC LIMIT 1",
    "List the names of employees hired full time.": "SELECT T1.name FROM employee AS T1 JOIN hiring AS T2 ON T1.employee_id = T2.employee_id WHERE T2.is_full_time = 'T'",
}

SKELETONS = {
    "What are the names of all employees?": "What are the _ of all _?",
    "How many shops are there?": "How many _ are there?",
    "What are the names of employees older than 40?": "What are the _ of _ older than _?",
    "What is the name of the shop with the most products?": "What is the _ of the _ with the most _?",
    "List the names of employees hired full time.": "List the _ of _ hired _.",
}


@pytest.fixture()
def fixture_index(shop_pool):
    return build_index(
        [(r["question"], r["query"]) for r in shop_pool], HashedBagOfTokens()
    )


@pytest.fixture()
def provider():
    return FakeChatProvider(generations=QUESTIONS, skeletons=SKELETONS)


@pytest.fixture()
def components(schemas, shop_dataset, fixture_index, provider):
    gateway = LlmGateway(mode="live", provider=provider)
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    embedder = HashedBagOfTokens()
    config = RunConfig(mode="live", workers=1)
    return schemas["shop"], predictor, fixture_index, gateway, embedder, config


def test_round1_uses_scripted_sql(components):
    schema, predictor, index, gateway, embedder, config = components
    result = run_item(
        "How many shops are there?", schema, predictor, index, gateway, embedder, config
    )
    assert result.round1_sql == "SELECT count(*) FROM shop"
    assert result.q_skeleton == "How many _ are there?"
    assert not result.flags


def test_round1_empty_subset_drops_focus_line(components, provider):
    schema, _, index, gateway, embedder, config = components

    class EmptyPredictor:
        def predict(self, question, schema):
            return SchemaSubset()

    result = run_item(
        "How many shops are there?", schema, EmptyPredictor(), index, gateway, embedder, config
    )
    assert result.round1_sql == "SELECT count(*) FROM shop"
    generation_prompts = [p for p in provider.prompts if "Return a single SQL" in p]
    assert len(generation_prompts) == 2
    assert all("focus on" not in p for p in generation_prompts)


def test_round1_extract_error_flags_and_continues(components, provider):
    schema, predictor, index, gateway, embedder, config = components
    question = "What are the names of all employees?"
    provider.generations[question] = ["no sql here at all", "SELECT name FROM employee"]
    result = run_item(question, schema, predictor, index, gateway, embedder, config)
    assert result.round1_sql == ""
    assert FLAG_ROUND1_EXTRACT in result.flags
    # round 2 still runs, retrieving by question skeleton
    assert FLAG_ROUND2_RETRIEVAL_FALLBACK in result.flags
    assert result.final_sql == result.round2_sql == "SELECT name FROM employee"


def test_round2_reranks_by_sql_and_prefers_verbatim_pool_member(components, provider, shop_pool):
    schema, predictor, index, gateway, embedder, config = components
    question = "What are the names of employees older than 40?"
    pool_sql = shop_pool[2]["query"]  # SELECT name FROM employee WHERE age < 35
    provider.generations[question] = [pool_sql, "SELECT name FROM employee WHERE age > 40"]
    result = run_item(question, schema, predictor, index, gateway, embedder, config)
    assert result.round1_sql == pool_sql
    round2_prompt = provider.prompts[-1]
    first_q = round2_prompt.index(shop_pool[2]["question"])
    for other in (0, 1, 3, 4):
        if shop_pool[other]["question"] in round2_prompt:
            assert first_q < round2_prompt.index(shop_pool[other]["question"])
    assert result.final_sql == "SELECT name FROM employee WHERE age > 40"
    assert not result.flags


def test_round2_falls_back_to_question_retrieval_on_bad_sql(components, provider, monkeypatch):
    schema, predictor, index, gateway, embedder, config = components
    rankings = []

    def counting(*args, **kwargs):
        rankings.append(args[0])
        return retrieve_by_question_skeleton(*args, **kwargs)

    monkeypatch.setattr("solidql.pipeline.retrieve_by_question_skeleton", counting)
    monkeypatch.setattr("solidql.retrieval.retrieve_by_question_skeleton", counting)
    question = "How many shops are there?"
    provider.generations[question] = ["SELECT broken FORM x", "SELECT count(*) FROM shop"]
    result = run_item(question, schema, predictor, index, gateway, embedder, config)
    assert result.round1_sql == "SELECT broken FORM x"
    assert result.flags == (FLAG_ROUND2_RETRIEVAL_FALLBACK,)
    assert result.final_sql == "SELECT count(*) FROM shop"
    assert rankings == ["How many _ are there?"]  # round 2 reuses round 1's examples


def test_round2_extract_error_keeps_round1_sql(components, provider):
    schema, predictor, index, gateway, embedder, config = components
    question = "How many shops are there?"
    provider.generations[question] = ["SELECT count(*) FROM shop", "no sql here at all"]
    result = run_item(question, schema, predictor, index, gateway, embedder, config)
    assert result.flags == (FLAG_ROUND2_EXTRACT,)
    assert result.final_sql == result.round2_sql == result.round1_sql == "SELECT count(*) FROM shop"


def test_rounds_one_skips_round_two(components, provider):
    schema, predictor, index, gateway, embedder, config = components
    config = RunConfig(mode="live", workers=1, rounds=1)
    result = run_item(
        "How many shops are there?", schema, predictor, index, gateway, embedder, config
    )
    assert result.round2_sql == ""
    assert result.final_sql == result.round1_sql
    assert provider.calls.count("generate") == 1


def test_final_sql_equals_round2_when_it_ran(components):
    schema, predictor, index, gateway, embedder, config = components
    result = run_item(
        "How many shops are there?", schema, predictor, index, gateway, embedder, config
    )
    assert result.final_sql == result.round2_sql


def test_batch_preserves_input_order(components, schemas, shop_dataset):
    _, predictor, index, gateway, embedder, config = components
    results = run_batch(shop_dataset, schemas, predictor, index, gateway, embedder, config)
    assert [r.question for r in results] == [r["question"] for r in shop_dataset]
    assert all(r.final_sql == QUESTIONS[r.question] for r in results)


def test_round2_hard_failure_falls_back_to_round1(components, schemas, shop_dataset, fixture_index):
    calls = {"n": 0}

    def flaky(request):
        calls["n"] += 1
        if calls["n"] > 2:  # skeleton and round-1 generation succeed
            raise RuntimeError("provider down")
        provider = FakeChatProvider(generations=QUESTIONS, skeletons=SKELETONS)
        return provider(request)

    gateway = LlmGateway(mode="live", provider=flaky)
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    config = RunConfig(mode="live", workers=1)
    result = run_item(
        "How many shops are there?", schemas["shop"], predictor, fixture_index,
        gateway, HashedBagOfTokens(), config,
    )
    assert result.round1_sql == "SELECT count(*) FROM shop"
    assert result.final_sql == result.round1_sql
    assert "round2_error" in result.flags


def test_batch_item_error_is_flagged_not_fatal(schemas, shop_dataset, fixture_index):
    def exploding(request):
        raise RuntimeError("boom")

    gateway = LlmGateway(mode="live", provider=exploding)
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    config = RunConfig(mode="live", workers=2)
    results = run_batch(
        shop_dataset, schemas, predictor, fixture_index, gateway, HashedBagOfTokens(), config
    )
    assert len(results) == len(shop_dataset)
    assert all("round1_error" in r.flags for r in results)


def test_batch_replay_miss_aborts(schemas, shop_dataset, fixture_index, tmp_path):
    gateway = LlmGateway(mode="replay", store=TranscriptStore(tmp_path / "t.jsonl"))
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    config = RunConfig(mode="replay", workers=1)
    with pytest.raises(ReplayMiss):
        run_batch(
            shop_dataset, schemas, predictor, fixture_index, gateway, HashedBagOfTokens(), config
        )


def test_batch_replay_miss_cancels_queued_items(schemas, shop_dataset, fixture_index, monkeypatch):
    workers = 4
    calls = []
    lock = threading.Lock()

    def fake_run_item(*args):
        with lock:
            calls.append(args[0])
        raise ReplayMiss("no transcript")

    monkeypatch.setattr("solidql.pipeline.run_item", fake_run_item)
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    config = RunConfig(mode="replay", workers=workers)
    with pytest.raises(ReplayMiss):
        run_batch(
            [shop_dataset[0]] * 200, schemas, predictor, fixture_index,
            LlmGateway(mode="live", provider=lambda request: ""), HashedBagOfTokens(), config,
        )
    assert len(calls) <= workers


class Interrupt(BaseException):
    """Not an ``Exception``: what an interrupt or a caller's deadline raises."""


def test_batch_interrupt_at_one_worker_starts_no_later_item(
    schemas, shop_dataset, fixture_index, provider, monkeypatch
):
    dataset = shop_dataset * 4
    stop_at = 2
    started = []

    def interrupted_run_item(*args):
        started.append(args[0])
        if len(started) == stop_at + 1:
            raise Interrupt
        return run_item(*args)

    monkeypatch.setattr("solidql.pipeline.run_item", interrupted_run_item)
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    gateway = LlmGateway(mode="live", provider=provider)
    with pytest.raises(Interrupt):
        run_batch(
            dataset, schemas, predictor, fixture_index, gateway, HashedBagOfTokens(),
            RunConfig(mode="live", workers=1),
        )
    assert started == [item["question"] for item in dataset[: stop_at + 1]]


def test_batch_interrupt_stops_the_other_workers(schemas, shop_dataset, fixture_index, monkeypatch):
    raised = threading.Event()
    started = []

    def fake_run_item(question, *args):
        started.append(question)
        if question == "interrupt":
            raised.set()
            raise Interrupt
        assert raised.wait(timeout=10)  # in flight when the other worker aborts

    monkeypatch.setattr("solidql.pipeline.run_item", fake_run_item)
    # the first worker takes q0, so the one that aborts is not the first the caller waits on
    questions = ["q0", "interrupt"] + [f"q{i}" for i in range(1, 40)]
    dataset = [dict(shop_dataset[0], question=question) for question in questions]
    with pytest.raises(Interrupt):
        run_batch(
            dataset, schemas, OracleLinkingPredictor.from_records(shop_dataset), fixture_index,
            LlmGateway(mode="live", provider=lambda request: ""), HashedBagOfTokens(),
            RunConfig(mode="live", workers=2),
        )
    # the interrupted item and the one in flight on the other worker; none after
    assert "interrupt" in started and len(started) <= 2


def test_ledger_resume_skips_completed_items(components, schemas, shop_dataset, provider, tmp_path):
    _, predictor, index, gateway, embedder, config = components
    ledger = ProgressLedger(tmp_path / "progress.jsonl")
    sentinel = PipelineResult(
        question=shop_dataset[0]["question"],
        db_id="shop",
        linked=SchemaSubset(),
        q_skeleton="",
        round1_sql="SENTINEL",
        round2_sql="SENTINEL",
        final_sql="SENTINEL",
        flags=(),
    )
    ledger.append(0, sentinel)
    results = run_batch(
        shop_dataset, schemas, predictor, index, gateway, embedder, config, ledger=ledger
    )
    assert results[0].final_sql == "SENTINEL"  # not re-queried
    assert results[1].final_sql == QUESTIONS[shop_dataset[1]["question"]]
    # ledger now carries every item; a re-run queries nothing
    before = provider.calls.count("generate")
    again = run_batch(
        shop_dataset, schemas, predictor, index, gateway, embedder, config, ledger=ledger
    )
    assert provider.calls.count("generate") == before
    assert [r.to_dict() for r in again] == [r.to_dict() for r in results]


def _ledger_result(sql: str) -> PipelineResult:
    return PipelineResult(
        question="q", db_id="shop", linked=SchemaSubset(), q_skeleton="",
        round1_sql=sql, round2_sql=sql, final_sql=sql, flags=(),
    )


def test_ledger_drops_a_torn_final_line_and_appends_after_it(tmp_path, caplog):
    path = tmp_path / "progress.jsonl"
    ledger = ProgressLedger(path)
    ledger.append(0, _ledger_result("SELECT 0"))
    ledger.append(1, _ledger_result("SELECT 1"))
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"index": 2, "result": {"quest')  # killed mid-append

    resumed = ProgressLedger(path)
    with caplog.at_level("WARNING"):
        assert sorted(resumed.load()) == [0, 1]
    assert "line 3" in caplog.text and str(path) in caplog.text
    assert path.read_bytes().startswith(whole)  # loading alone leaves the file alone
    resumed.append(2, _ledger_result("SELECT 2"))
    assert path.read_bytes().startswith(whole) and path.read_bytes().count(b"\n") == 3
    assert {i: r.final_sql for i, r in ProgressLedger(path).load().items()} == {
        0: "SELECT 0", 1: "SELECT 1", 2: "SELECT 2"
    }


def test_ledger_cleared_after_a_torn_load_starts_empty(tmp_path):
    path = tmp_path / "progress.jsonl"
    ledger = ProgressLedger(path)
    ledger.append(0, _ledger_result("SELECT 0"))
    path.write_bytes(path.read_bytes() + b'{"index": 1')
    assert list(ledger.load()) == [0]
    ledger.clear()
    ledger.append(2, _ledger_result("SELECT 2"))
    assert path.read_bytes().startswith(b'{"index": 2')
    assert list(ProgressLedger(path).load()) == [2]


def test_ledger_keeps_an_unterminated_final_record(tmp_path):
    path = tmp_path / "progress.jsonl"
    ProgressLedger(path).append(0, _ledger_result("SELECT 0"))
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    ledger = ProgressLedger(path)
    assert list(ledger.load()) == [0]
    ledger.append(1, _ledger_result("SELECT 1"))
    assert sorted(ProgressLedger(path).load()) == [0, 1]


def test_ledger_malformed_line_mid_file_is_fatal(tmp_path):
    path = tmp_path / "progress.jsonl"
    ledger = ProgressLedger(path)
    ledger.append(0, _ledger_result("SELECT 0"))
    path.write_bytes(path.read_bytes() + b"{not json\n")
    ledger.append(2, _ledger_result("SELECT 2"))
    with pytest.raises(CorruptFileError, match=r"progress\.jsonl, line 2"):
        ProgressLedger(path).load()
    path.write_bytes(b'{"index": 0}\n')  # decodes, but is no ledger entry
    with pytest.raises(CorruptFileError, match=r"progress\.jsonl, line 1"):
        ProgressLedger(path).load()


def test_replay_batch_is_byte_reproducible(schemas, shop_dataset, fixture_index, provider, tmp_path):
    store_path = tmp_path / "transcripts.jsonl"
    record_gateway = LlmGateway(
        mode="record", store=TranscriptStore(store_path), provider=provider
    )
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    config = RunConfig(mode="record", workers=1)
    embedder = HashedBagOfTokens()
    run_batch(shop_dataset, schemas, predictor, fixture_index, record_gateway, embedder, config)

    outputs = []
    for run in range(2):
        gateway = LlmGateway(mode="replay", store=TranscriptStore(store_path))
        results = run_batch(
            shop_dataset, schemas, predictor, fixture_index, gateway, embedder,
            RunConfig(mode="replay", workers=4),
        )
        out = tmp_path / f"results_{run}.jsonl"
        write_results(results, out)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_interrupted_write_leaves_the_previous_results(components, tmp_path):
    schema, predictor, index, gateway, embedder, config = components
    result = run_item(
        "How many shops are there?", schema, predictor, index, gateway, embedder, config
    )
    out = tmp_path / "results.jsonl"
    write_results([result], out)
    before = out.read_bytes()

    def results_then_crash():
        yield result
        yield result
        raise RuntimeError("crash mid-write")

    with pytest.raises(RuntimeError, match="crash mid-write"):
        write_results(results_then_crash(), out)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.jsonl"]


def test_result_serialization_round_trip(components):
    schema, predictor, index, gateway, embedder, config = components
    result = run_item(
        "How many shops are there?", schema, predictor, index, gateway, embedder, config
    )
    data = json.loads(json.dumps(result.to_dict()))
    assert PipelineResult.from_dict(data) == result
