"""File I/O: JSON inputs, whole output files, and append-only JSON-lines
files that survive a crash mid-append.

In an append-only file each record is one JSON value on one line. A
crash while appending can leave a final line without its newline.
Reading drops such a line, with a warning, when it does not decode, and
the next append first cuts the file back to the end of the last whole
line, so the new record cannot glue onto the torn one. A line that does
not decode anywhere else is corruption that no interrupted append
explains, and is fatal.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import ConfigError, CorruptFileError

logger = logging.getLogger(__name__)

T = TypeVar("T")


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value in a UTF-8 file; ``ConfigError`` names it if it cannot be read or decoded."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines``, each plus a newline.

    The lines go to ``<name>.partial``, renamed over ``path`` at the end: if
    anything raises, the previous file stays. No fsync: a crash, not a power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def malformed(path: str | Path, number: int, exc: Exception,
              what: str = "record") -> CorruptFileError:
    """The error for line ``number`` of ``path``. A decode error is given
    by its message, since its repr holds every byte of the line."""
    detail = str(exc) if isinstance(exc, UnicodeDecodeError) else repr(exc)
    return CorruptFileError(f"{path}, line {number}: malformed {what} ({detail})")


class JsonLines:
    """One JSON-lines file: ``records`` reads it, ``append`` adds a line.

    The caller serializes appends.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._cut: int | None = None  # byte length to truncate to before the next append
        self._prefix = b""  # written before the next append's line

    def records(self, parse: Callable[[Any], T]) -> Iterator[T]:
        """``parse`` of each non-blank line's JSON value, in file order.

        Raises ``CorruptFileError``, naming the file and the line, for a
        line that does not decode, unless it is an unterminated final
        line, and for a value that ``parse`` rejects with ``KeyError``,
        ``TypeError`` or ``ValueError``.
        """
        self._cut, self._prefix = None, b""
        if not self.path.exists():
            return
        offset = 0
        with self.path.open("rb") as handle:
            for number, raw in enumerate(handle, 1):
                whole = raw.endswith(b"\n")
                if raw.strip():
                    try:
                        value = json.loads(raw.decode("utf-8"))
                    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                        if whole:
                            raise malformed(self.path, number, exc) from None
                        logger.warning(
                            "%s, line %d: dropping a torn final line (%d bytes)",
                            self.path, number, len(raw),
                        )
                        self._cut = offset
                        return
                    try:
                        record = parse(value)
                    except (KeyError, TypeError, ValueError) as exc:
                        raise malformed(self.path, number, exc) from None
                    if not whole:
                        self._prefix = b"\n"
                    yield record
                elif not whole:
                    self._cut = offset
                offset += len(raw)

    def append(self, line: str) -> None:
        """Write one serialized record and its newline at the end of the file."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as handle:
            if self._cut is not None:
                handle.truncate(self._cut)
            handle.write(self._prefix + line.encode("utf-8") + b"\n")
        self._cut, self._prefix = None, b""
