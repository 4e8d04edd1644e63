"""Exception types shared across the package."""

from __future__ import annotations


class SolidQlError(Exception):
    """Base class for all package errors."""


class ParseError(SolidQlError):
    """SQL text could not be parsed.

    Carries the byte offset of the offending token so callers can point at
    the problem in the original string.
    """

    def __init__(self, message: str, offset: int) -> None:
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class SchemaError(SolidQlError):
    """A schema violates its structural invariants."""


class ResolutionError(SolidQlError):
    """An identifier in a statement matches no schema element or alias."""


class RewriteError(SolidQlError):
    """The rewriter gateway failed for one augmentation item."""


class PredictorError(SolidQlError):
    """A linking predictor produced output that cannot be interpreted."""


class ZeroVectorError(SolidQlError):
    """Cosine similarity is undefined for a zero-norm vector."""


class ExtractError(SolidQlError):
    """No SQL statement could be extracted from a completion."""


class ProviderError(SolidQlError):
    """The remote LLM/embedding provider failed (network or HTTP)."""


class RateLimited(ProviderError):
    """The provider kept rate-limiting after the bounded retries."""


class ReplayMiss(SolidQlError):
    """Replay mode saw a request absent from the transcript store."""


class ExecError(SolidQlError):
    """SQL execution against a database failed."""


class ExecTimeout(ExecError):
    """SQL execution exceeded the per-query timeout."""


class CorruptFileError(SolidQlError):
    """A ledger, transcript, results or retrieval index file has a malformed line.

    For the append-only files, a torn final line is an interrupted
    append, not corruption.
    """


class ConfigError(SolidQlError):
    """A run configuration is unusable (bad value, mismatched artifacts)."""
