"""Uniform chat-completion gateway with transcript record/replay.

One gateway instance serves every LLM use in the pipeline (SQL
generation, question rewriting, skeleton extraction, gateway-backed
linking); calls are distinguished by model id and prompt. Requests are
hashed over a canonical JSON form, so replaying a transcript store makes
a whole pipeline run byte-reproducible.

Wire format is the OpenAI-compatible chat-completions API; endpoint and
key come from ``SOLIDQL_API_BASE`` / ``SOLIDQL_API_KEY``. Its HTTP
client, on the standard library, also serves the remote embeddings.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Protocol

from .config import MODES
from .errors import ConfigError, ProviderError, RateLimited, ReplayMiss
from .jsonl import JsonLines

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion; every request is made at temperature 0, which
    its canonical form and the provider's payload both state."""

    model_id: str
    messages: tuple[tuple[str, str], ...]
    max_tokens: int = 512

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("messages must be non-empty")


def canonical_request(request: ChatRequest) -> dict:
    return {
        "max_tokens": request.max_tokens,
        "messages": [{"content": text, "role": role} for role, text in request.messages],
        "model_id": request.model_id,
        "temperature": 0.0,
    }


def request_hash(request: ChatRequest) -> str:
    """Stable digest of the canonical request; key of the transcript store."""
    payload = json.dumps(canonical_request(request), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# the fields of a transcript line that a store reads back
TRANSCRIPT = {"hash": str, "response": str}


class TranscriptStore:
    """Append-only line-delimited store of request/response transcripts.

    Each line also keeps the request, the provider and the time of
    recording; only the responses are held in memory, by request hash.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = JsonLines(self.path)
        self._responses: dict[str, str] = dict(
            self._file.records(TRANSCRIPT, lambda record: (record["hash"], record["response"]))
        )

    def __len__(self) -> int:
        return len(self._responses)

    def lookup(self, digest: str) -> str | None:
        return self._responses.get(digest)

    def record(self, request: ChatRequest, response: str, provider: str) -> None:
        digest = request_hash(request)
        recorded_at = datetime.now(timezone.utc).isoformat()
        with self._lock:
            if digest in self._responses:
                return
            self._responses[digest] = response
            entry = {
                "hash": digest,
                "request": canonical_request(request),
                "response": response,
                "provider": provider,
                "recorded_at": recorded_at,
            }
            self._file.append(json.dumps(entry, sort_keys=True))


class ChatProvider(Protocol):
    name: str

    def __call__(self, request: ChatRequest) -> str: ...


class HttpClient:
    """JSON POSTs to an OpenAI-compatible API with bounded exponential backoff.

    A 429, a 5xx or a connection failure is retried; any other error
    status fails at once.
    """

    def __init__(
        self,
        api_base: str,
        api_key: str = "",
        *,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
    ) -> None:
        self.api_base = api_base.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    @classmethod
    def from_env(cls):
        """A client for ``SOLIDQL_API_BASE``, with ``SOLIDQL_API_KEY`` as bearer token."""
        api_base = os.environ.get("SOLIDQL_API_BASE", "")
        if not api_base:
            raise ConfigError("SOLIDQL_API_BASE is not set; cannot reach a live provider")
        return cls(api_base, os.environ.get("SOLIDQL_API_KEY", ""))

    def post(self, path: str, payload: dict) -> object:
        """The decoded JSON reply to ``payload`` POSTed to ``api_base + path``.

        Raises ``RateLimited`` when a 429 outlasts the retries, else ``ProviderError``.
        """
        import http.client  # only a live request needs the HTTP stack
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(self.api_base + path, data, headers)
        last_error: Exception | None = None
        rate_limited = False
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = response.read()
            except urllib.error.HTTPError as exc:
                with exc:  # holds the open response
                    last_error = ProviderError(
                        f"HTTP {exc.code}: {exc.read()[:200].decode('utf-8', 'replace')}"
                    )
                if exc.code == 429:
                    rate_limited = True
                elif exc.code < 500:
                    raise last_error from None
                continue
            except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
                last_error = exc
                continue
            try:
                return json.loads(body)
            except ValueError as exc:
                raise ProviderError(f"malformed provider response: {exc}") from exc
        if rate_limited:
            raise RateLimited(f"still rate limited after {self.max_retries} retries")
        raise ProviderError(f"provider unreachable after {self.max_retries} retries: {last_error}")


class HttpChatProvider(HttpClient):
    """OpenAI-compatible ``/chat/completions`` endpoint."""

    @property
    def name(self) -> str:
        return f"http:{self.api_base}"

    def __call__(self, request: ChatRequest) -> str:
        reply = self.post("/chat/completions", {
            "model": request.model_id,
            "messages": [{"role": role, "content": text} for role, text in request.messages],
            "temperature": 0.0,
            "max_tokens": request.max_tokens,
        })
        try:
            return reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc!r}") from None


class LlmGateway:
    """Completion front-end honoring the live / record / replay contract."""

    def __init__(
        self,
        mode: str = "replay",
        store: TranscriptStore | None = None,
        provider: ChatProvider | Callable[[ChatRequest], str] | None = None,
    ) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown gateway mode {mode!r}")
        if mode in ("record", "replay") and store is None:
            raise ConfigError(f"{mode} mode needs a transcript store")
        if mode in ("live", "record") and provider is None:
            raise ConfigError(f"{mode} mode needs a provider")
        self.mode = mode
        self.store = store
        self.provider = provider

    def complete(self, request: ChatRequest) -> str:
        digest = request_hash(request)
        if self.mode == "replay":
            response = self.store.lookup(digest)
            if response is None:
                raise ReplayMiss(f"no transcript for request {digest[:12]}…")
            return response
        if self.mode == "record":
            cached = self.store.lookup(digest)
            if cached is not None:
                return cached
        response = self.provider(request)
        if self.mode == "record":
            provider_name = getattr(self.provider, "name", type(self.provider).__name__)
            self.store.record(request, response, provider_name)
        return response

    def ask(self, model_id: str, prompt: str, max_tokens: int) -> str:
        """Complete ``prompt`` as one user message at temperature 0."""
        return self.complete(ChatRequest(model_id, (("user", prompt),), max_tokens))
