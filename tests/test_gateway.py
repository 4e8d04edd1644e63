"""Request hashing, transcript record/replay, HTTP retry behavior."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from solidql.embeddings import BATCH_SIZE, RemoteEmbeddings
from solidql.errors import ConfigError, CorruptFileError, ProviderError, RateLimited, ReplayMiss
from solidql.gateway import (
    ChatRequest,
    HttpChatProvider,
    HttpClient,
    LlmGateway,
    TranscriptStore,
    canonical_request,
    request_hash,
)
from solidql.linking import GatewayLinkingPredictor, QuestionRewriter
from solidql.retrieval import extract_question_skeleton
from solidql.schema import SchemaSubset


def make_request(text="hello", model="m1"):
    return ChatRequest(model_id=model, messages=(("user", text),), max_tokens=64)


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(model_id="m", messages=())


def test_hash_is_stable_and_ignores_serialization_order():
    request = make_request()
    assert request_hash(request) == request_hash(make_request())
    canonical = canonical_request(request)
    scrambled = json.loads(json.dumps(dict(reversed(list(canonical.items())))))
    assert json.dumps(scrambled, sort_keys=True, separators=(",", ":")) == json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    )


def test_hash_distinguishes_content():
    assert request_hash(make_request("a")) != request_hash(make_request("b"))
    assert request_hash(make_request(model="m1")) != request_hash(make_request(model="m2"))


def test_one_message_request_hashes_are_pinned(schemas):
    """The rewrite, linking and question-skeleton requests keep the hashes
    that stored transcripts are keyed by; a drift makes every replay miss."""
    requests = []

    def provider(request):
        requests.append(request)
        return "1. a\n2. b\ntables: singer | columns: singer.age"

    gateway = LlmGateway(mode="live", provider=provider)
    question = "How many singers are older than 30?"
    QuestionRewriter(gateway, "rewriter").rewrite(question)
    GatewayLinkingPredictor(gateway, "linker").predict(question, schemas["concert_singer"])
    linked = SchemaSubset.build(["singer"], ["singer.age"])
    extract_question_skeleton(question, linked, gateway, "masker")
    assert [request_hash(request) for request in requests] == [
        "69085ba5e22744df7eb2e43d11fe3e0554f76cf9181d712e0587c2e0ef4def9c",
        "2bd6714140d1fb3945bfa1f4fd4377aee7bffbc95320709a2791b77d3ead3728",
        "928507962712697497f40e6f25dfa7c09c9c07c0fad0a18fd6b258532f9880eb",
    ]


def test_replay_returns_stored_response_byte_exactly(tmp_path):
    store = TranscriptStore(tmp_path / "t.jsonl")
    request = make_request()
    store.record(request, "SELECT 1", "fake")
    gateway = LlmGateway(mode="replay", store=store)
    assert gateway.complete(request) == "SELECT 1"
    # a fresh store instance reads the same bytes back
    reloaded = TranscriptStore(tmp_path / "t.jsonl")
    assert LlmGateway(mode="replay", store=reloaded).complete(request) == "SELECT 1"


def test_store_drops_a_torn_final_line_and_records_after_it(tmp_path, caplog):
    path = tmp_path / "t.jsonl"
    TranscriptStore(path).record(make_request("a"), "SELECT 1", "fake")
    whole = path.read_bytes()
    path.write_bytes(whole + '{"hash": "é'.encode()[:-1])  # torn inside a UTF-8 character

    with caplog.at_level("WARNING"):
        store = TranscriptStore(path)
    assert len(store) == 1
    assert "line 2" in caplog.text and str(path) in caplog.text
    store.record(make_request("b"), "SELECT 2", "fake")
    assert path.read_bytes().startswith(whole) and path.read_bytes().count(b"\n") == 2
    replay = LlmGateway(mode="replay", store=TranscriptStore(path))
    assert replay.complete(make_request("a")) == "SELECT 1"
    assert replay.complete(make_request("b")) == "SELECT 2"


def test_store_malformed_line_mid_file_is_fatal(tmp_path):
    path = tmp_path / "t.jsonl"
    store = TranscriptStore(path)
    store.record(make_request("a"), "SELECT 1", "fake")
    good = path.read_bytes()
    for damaged in (good + b"{not json\n" + good, good + b"{not json\n"):
        path.write_bytes(damaged)
        with pytest.raises(CorruptFileError, match=r"t\.jsonl, line 2"):
            TranscriptStore(path)


def test_replay_miss_raises(tmp_path):
    store = TranscriptStore(tmp_path / "t.jsonl")
    gateway = LlmGateway(mode="replay", store=store)
    with pytest.raises(ReplayMiss):
        gateway.complete(make_request())


def test_record_mode_calls_provider_once_and_persists(tmp_path):
    calls = []

    def provider(request):
        calls.append(request)
        return "PONG"

    store = TranscriptStore(tmp_path / "t.jsonl")
    gateway = LlmGateway(mode="record", store=store, provider=provider)
    assert gateway.complete(make_request()) == "PONG"
    assert gateway.complete(make_request()) == "PONG"
    assert len(calls) == 1
    replay = LlmGateway(mode="replay", store=TranscriptStore(tmp_path / "t.jsonl"))
    assert replay.complete(make_request()) == "PONG"


def test_mode_requirements():
    with pytest.raises(ConfigError):
        LlmGateway(mode="replay", store=None)
    with pytest.raises(ConfigError):
        LlmGateway(mode="live", provider=None)
    with pytest.raises(ConfigError):
        LlmGateway(mode="weird")


def test_concurrent_recording_keeps_store_valid(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    store = TranscriptStore(tmp_path / "t.jsonl")
    gateway = LlmGateway(mode="record", store=store, provider=lambda r: r.messages[0][1])

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: gateway.complete(make_request(f"msg {i}")), range(64)))

    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert len(lines) == 64  # one valid record per distinct request, no dupes
    reloaded = TranscriptStore(tmp_path / "t.jsonl")
    replay = LlmGateway(mode="replay", store=reloaded)
    for i in range(64):
        assert replay.complete(make_request(f"msg {i}")) == f"msg {i}"


# ----------------------------------------------------------------------
# HTTP provider retries against a local mock server
# ----------------------------------------------------------------------


def chat_reply(payload):
    return {"choices": [{"message": {"role": "assistant", "content": "SELECT 42"}}]}


def embeddings_reply(payload):
    return {"data": [{"embedding": [float(len(text)), 1.0]} for text in payload["input"]]}


class _ScriptedHandler(BaseHTTPRequestHandler):
    statuses: list[int] = []
    reply = staticmethod(chat_reply)
    hits = 0
    payloads: list = []
    authorizations: list = []

    def do_POST(self):  # noqa: N802 (stdlib naming)
        cls = type(self)
        status = cls.statuses[min(cls.hits, len(cls.statuses) - 1)]
        cls.hits += 1
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        cls.payloads.append(payload)
        cls.authorizations.append(self.headers.get("Authorization"))
        if status == 200:
            body = json.dumps(cls.reply(payload)).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            body = f"status {status}".encode()
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def log_message(self, *args):  # silence
        pass


@pytest.fixture()
def scripted_server():
    servers = []

    def start(statuses, reply=chat_reply):
        handler = type("Handler", (_ScriptedHandler,), {
            "statuses": statuses, "reply": staticmethod(reply), "hits": 0, "payloads": [],
            "authorizations": [],
        })
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def test_retry_succeeds_after_three_429s(scripted_server):
    base, handler = scripted_server([429, 429, 429, 200])
    provider = HttpChatProvider(base, max_retries=3, backoff=0.01)
    assert provider(make_request()) == "SELECT 42"
    assert handler.hits == 4


def test_persistent_429_raises_rate_limited(scripted_server):
    base, _ = scripted_server([429])
    provider = HttpChatProvider(base, max_retries=2, backoff=0.01)
    with pytest.raises(RateLimited):
        provider(make_request())


def test_persistent_500_raises_provider_error(scripted_server):
    base, _ = scripted_server([500])
    provider = HttpChatProvider(base, max_retries=1, backoff=0.01)
    with pytest.raises(ProviderError):
        provider(make_request())


def test_client_error_is_immediate(scripted_server):
    base, handler = scripted_server([400])
    provider = HttpChatProvider(base, max_retries=3, backoff=0.01)
    with pytest.raises(ProviderError, match="HTTP 400: status 400"):
        provider(make_request())
    assert handler.hits == 1


def test_from_env_requires_base(monkeypatch):
    monkeypatch.delenv("SOLIDQL_API_BASE", raising=False)
    with pytest.raises(ConfigError):
        HttpChatProvider.from_env()
    monkeypatch.setenv("SOLIDQL_API_BASE", "http://example.test/v1")
    monkeypatch.setenv("SOLIDQL_API_KEY", "k")
    provider = HttpChatProvider.from_env()
    assert provider.api_base == "http://example.test/v1"
    assert provider.api_key == "k"


def test_chat_sends_bearer_key_and_reports_malformed_reply(scripted_server):
    base, handler = scripted_server([200], reply=lambda payload: {"choices": []})
    provider = HttpChatProvider(base, "secret", max_retries=0)
    with pytest.raises(ProviderError, match="malformed provider response"):
        provider(make_request())
    assert handler.authorizations == ["Bearer secret"]
    assert handler.payloads == [{
        "model": "m1", "messages": [{"role": "user", "content": "hello"}],
        "temperature": 0.0, "max_tokens": 64,
    }]


# ----------------------------------------------------------------------
# remote embeddings through the same client
# ----------------------------------------------------------------------


def remote_embeddings(base, max_retries=3):
    return RemoteEmbeddings("bge", HttpClient(base, max_retries=max_retries, backoff=0.01))


def test_embeddings_retry_429s_then_succeed(scripted_server):
    base, handler = scripted_server([429, 429, 200], reply=embeddings_reply)
    embedder = remote_embeddings(base)
    assert embedder.embed(["ab", "abcd"]) == [[2.0, 1.0], [4.0, 1.0]]
    assert embedder.dimension == 2
    assert handler.hits == 3
    assert handler.payloads[-1] == {"model": "bge", "input": ["ab", "abcd"]}


def test_embeddings_persistent_429_raises_rate_limited(scripted_server):
    base, handler = scripted_server([429], reply=embeddings_reply)
    with pytest.raises(RateLimited):
        remote_embeddings(base, max_retries=2).embed(["ab"])
    assert handler.hits == 3


def test_embeddings_client_error_is_immediate(scripted_server):
    base, handler = scripted_server([400], reply=embeddings_reply)
    with pytest.raises(ProviderError):
        remote_embeddings(base).embed(["ab"])
    assert handler.hits == 1


def test_embeddings_are_requested_in_batches(scripted_server):
    base, handler = scripted_server([200], reply=embeddings_reply)
    texts = [f"text {i}" for i in range(BATCH_SIZE + 1)]
    vectors = remote_embeddings(base).embed(texts)
    assert vectors == [[float(len(text)), 1.0] for text in texts]
    batches = [payload["input"] for payload in handler.payloads]
    assert batches == [texts[:BATCH_SIZE], texts[BATCH_SIZE:]]


@pytest.mark.parametrize("reply", [
    lambda payload: {"data": [{"vector": [1.0]}]},
    lambda payload: {"data": []},
    lambda payload: [],
])
def test_embeddings_malformed_reply_raises_provider_error(scripted_server, reply):
    base, handler = scripted_server([200], reply=reply)
    with pytest.raises(ProviderError):
        remote_embeddings(base).embed(["ab"])
    assert handler.hits == 1


def test_embeddings_need_api_base(monkeypatch):
    monkeypatch.delenv("SOLIDQL_API_BASE", raising=False)
    with pytest.raises(ConfigError):
        RemoteEmbeddings("bge")
    monkeypatch.setenv("SOLIDQL_API_BASE", "http://example.test/v1/")
    assert RemoteEmbeddings("bge").client.api_base == "http://example.test/v1"


def test_connection_failure_is_retried_then_reported():
    with socket.socket() as probe:  # a local port with nothing listening once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = HttpClient(f"http://127.0.0.1:{port}", max_retries=1, backoff=0.01)
    with pytest.raises(ProviderError, match="unreachable after 1 retries"):
        client.post("/embeddings", {"input": []})
