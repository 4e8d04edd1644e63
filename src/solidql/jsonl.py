"""File I/O: JSON inputs, whole output files, and JSON-lines files whose
every record is checked against a declared shape.

In a JSON-lines file each line is one record, one JSON value; an empty
file holds none. A line that does not decode, blank ones included, or
whose value does not ``conform`` to the shape the reader declares, is
fatal, naming the file and the line. ``read_records`` reads the files
``write_lines`` writes whole (results, the index); ``JsonLines`` the
append-only ones (the ledger, the transcripts). The one exception is the
final line of an append-only file: a crash while appending can leave it
without its newline. Reading drops such a line, with a warning, when it
does not decode, and the next append first cuts the file back to the end
of the last whole line, so the new record cannot glue onto the torn one.
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


def conform(value: Any, shape: Any, where: str = "record") -> None:
    """Raise unless ``value`` has ``shape``: a type (``bool`` is no ``int``),
    ``[shape]`` for a list of such values, or ``{key: shape}`` for an object
    with at least those keys. ``KeyError`` names a missing key and
    ``TypeError`` the key path of a value of the wrong type."""
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    if type(value) is not kind and (not isinstance(value, kind) or type(value) is bool):
        raise TypeError(f"{where} is {type(value).__name__}, not {kind.__name__}")
    # a value whose type is its shape conforms: the common case makes no call
    if isinstance(shape, dict):
        for key, inner in shape.items():
            if key not in value:
                raise KeyError(f"{where} has no {key!r}")
            if type(value[key]) is not inner:
                conform(value[key], inner, f"{where}.{key}")
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            if type(item) is not shape[0]:
                conform(item, shape[0], f"{where}[{i}]")


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


def _parsed(path: str | Path, number: int, raw: bytes, shape: Any, parse: Callable[[Any], T],
            what: str) -> T:
    """``parse`` of the JSON value of line ``number``, checked against ``shape``."""
    try:
        value = json.loads(raw.decode("utf-8"))
        conform(value, shape)
        return parse(value)
    # ValueError covers JSONDecodeError and UnicodeDecodeError; OverflowError,
    # an integer beyond float range where a float is needed
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a decode error is given by its message, since its repr holds every byte of the line
        detail = str(exc) if isinstance(exc, UnicodeDecodeError) else repr(exc)
        raise CorruptFileError(f"{path}, line {number}: malformed {what} ({detail})") from None


def read_records(path: str | Path, shape: Any, parse: Callable[[Any], T],
                 what: str = "record", first: int = 1) -> Iterator[T]:
    """``parse`` of each line's value from line ``first`` on, checked against
    ``shape``, in file order, for a file that ``write_lines`` wrote whole.

    ``CorruptFileError`` names the file and the first line, blank or torn
    included, that does not decode or conform or that ``parse`` rejects
    with ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError``.
    """
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, 1):
            if number >= first:
                yield _parsed(path, number, raw, shape, parse, what)


class JsonLines:
    """One JSON-lines file: ``records`` reads it, ``append`` adds a line.

    The caller serializes appends.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._cut: int | None = None  # byte length to truncate to before the next append
        self._prefix = b""  # written before the next append's line

    def records(self, shape: Any, parse: Callable[[Any], T]) -> Iterator[T]:
        """``parse`` of each line's JSON value, checked against ``shape``, in
        file order; ``CorruptFileError`` as for ``read_records``, except that
        an unterminated final line that does not decode is dropped.
        """
        self._cut, self._prefix = None, b""
        if not self.path.exists():
            return
        offset = 0
        with self.path.open("rb") as handle:
            for number, raw in enumerate(handle, 1):
                if not raw.endswith(b"\n"):
                    try:
                        json.loads(raw.decode("utf-8"))
                    except ValueError:  # JSONDecodeError, UnicodeDecodeError
                        if raw.strip():
                            logger.warning("%s, line %d: dropping a torn final line (%d bytes)",
                                           self.path, number, len(raw))
                        self._cut = offset
                        return
                    self._prefix = b"\n"
                yield _parsed(self.path, number, raw, shape, parse, "record")
                offset += len(raw)

    def append(self, line: str) -> None:
        """Write one serialized record and its newline at the end of the file."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as handle:
            if self._cut is not None:
                handle.truncate(self._cut)
            handle.write(self._prefix + line.encode("utf-8") + b"\n")
        self._cut, self._prefix = None, b""
