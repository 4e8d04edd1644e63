"""Embedding providers for question-skeleton retrieval.

The hashed bag-of-tokens provider is fully deterministic and offline,
which keeps index builds and CI hermetic; the remote provider speaks the
OpenAI-compatible ``/embeddings`` endpoint for real embedding models.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from typing import Protocol, Sequence

from .errors import ConfigError, ProviderError, ZeroVectorError

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


class EmbeddingProvider(Protocol):
    provider_id: str
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


class HashedBagOfTokens:
    """Deterministic test/CI provider: token counts hashed into 256 buckets."""

    provider_id = "hashed-bow-256-v1"
    dimension = 256

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        return [self._embed_one(text) for text in texts]

    def _embed_one(self, text: str) -> list[float]:
        vector = [0.0] * self.dimension
        for token in _TOKEN_RE.findall(text.lower()):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dimension
            vector[bucket] += 1.0
        return vector


class RemoteEmbeddings:
    """OpenAI-compatible ``/embeddings`` client (e.g. bge-large-en-v1.5)."""

    def __init__(self, model: str, api_base: str | None = None, api_key: str | None = None,
                 *, timeout: float = 60.0, batch_size: int = 64) -> None:
        self.model = model
        self.api_base = (api_base or os.environ.get("SOLIDQL_API_BASE", "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get("SOLIDQL_API_KEY", "")
        if not self.api_base:
            raise ConfigError("SOLIDQL_API_BASE is not set; cannot reach embedding provider")
        self.timeout = timeout
        self.batch_size = batch_size
        self.provider_id = f"remote:{model}"
        self.dimension = 0  # discovered on first call

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        import requests  # only a live provider needs the HTTP stack

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        out: list[list[float]] = []
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start : start + self.batch_size])
            try:
                response = requests.post(
                    f"{self.api_base}/embeddings",
                    json={"model": self.model, "input": batch},
                    headers=headers,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                raise ProviderError(f"embedding request failed: {exc}") from exc
            if response.status_code != 200:
                raise ProviderError(f"embedding HTTP {response.status_code}: {response.text[:200]}")
            data = response.json()["data"]
            out.extend(item["embedding"] for item in data)
        if out and not self.dimension:
            self.dimension = len(out[0])
        return out


def make_embedder(spec: str) -> EmbeddingProvider:
    """Build a provider from a config string: ``hashed`` or ``remote:<model>``."""
    if spec == "hashed":
        return HashedBagOfTokens()
    if spec.startswith("remote:"):
        return RemoteEmbeddings(spec.split(":", 1)[1])
    raise ConfigError(f"unknown embedder {spec!r}")


def cosine_similarity(u: Sequence[float], v: Sequence[float]) -> float:
    """u·v / (‖u‖‖v‖); raises ZeroVectorError on a zero-norm side."""
    if len(u) != len(v) or not u:
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    dot = 0.0
    norm_u = 0.0
    norm_v = 0.0
    for a, b in zip(u, v):
        dot += a * b
        norm_u += a * a
        norm_v += b * b
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVectorError("cosine similarity undefined for zero vector")
    return dot / math.sqrt(norm_u * norm_v)
