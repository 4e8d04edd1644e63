"""Embedding providers for question-skeleton retrieval.

The hashed bag-of-tokens provider is fully deterministic and offline,
which keeps index builds and CI hermetic; the remote provider speaks the
OpenAI-compatible ``/embeddings`` endpoint for real embedding models.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Protocol, Sequence

from .errors import ConfigError, ProviderError, ZeroVectorError
from .gateway import HttpClient

_TOKEN_RE = re.compile(r"[a-z0-9_]+")

BATCH_SIZE = 64


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
    """OpenAI-compatible ``/embeddings`` client (e.g. bge-large-en-v1.5).

    Sends ``BATCH_SIZE`` texts per request through ``client``, by default
    the one ``HttpClient.from_env`` makes.
    """

    def __init__(self, model: str, client: HttpClient | None = None) -> None:
        self.model = model
        self.client = client or HttpClient.from_env()
        self.provider_id = f"remote:{model}"
        self.dimension = 0  # discovered on first call

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        out: list[list[float]] = []
        for start in range(0, len(texts), BATCH_SIZE):
            batch = list(texts[start : start + BATCH_SIZE])
            reply = self.client.post("/embeddings", {"model": self.model, "input": batch})
            try:
                vectors = [item["embedding"] for item in reply["data"]]
            except (KeyError, TypeError) as exc:
                raise ProviderError(f"malformed embedding response: {exc!r}") from None
            if len(vectors) != len(batch):
                raise ProviderError(f"{len(vectors)} embeddings for {len(batch)} texts")
            out.extend(vectors)
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
