"""Database schemas, linked-subset values, and their serializations.

Schemas are ingested from the benchmark ``tables.json`` format and can be
rendered as deterministic DDL text for prompts and training inputs. A
:class:`SchemaSubset` is the output of schema linking: the tables and
table-qualified columns a question actually touches, all normalized to
lowercase. The pseudo-column ``<table>.*`` stands for "the whole table"
(bare ``SELECT *`` / ``COUNT(*)``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, SchemaError
from .jsonl import read_json

logger = logging.getLogger(__name__)

STAR = "*"


@dataclass(frozen=True)
class Column:
    name: str
    type: str = "text"


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass(frozen=True)
class DatabaseSchema:
    """Full schema of one database.

    ``primary_keys`` holds ``table.column`` strings; ``foreign_keys``
    holds ``(from_column, to_column)`` pairs in the same form. All key
    references must name declared columns.
    """

    db_id: str
    tables: tuple[Table, ...]
    primary_keys: tuple[str, ...] = ()
    foreign_keys: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        seen_tables: set[str] = set()
        for table in self.tables:
            key = table.name.lower()
            if key in seen_tables:
                raise SchemaError(f"{self.db_id}: duplicate table {table.name!r}")
            seen_tables.add(key)
            seen_cols: set[str] = set()
            for column in table.columns:
                ckey = column.name.lower()
                if ckey in seen_cols:
                    raise SchemaError(
                        f"{self.db_id}: duplicate column {table.name}.{column.name}"
                    )
                seen_cols.add(ckey)
        for ref in self.primary_keys:
            if not self.has_column(ref):
                raise SchemaError(f"{self.db_id}: primary key {ref!r} not in schema")
        for src, dst in self.foreign_keys:
            for ref in (src, dst):
                if not self.has_column(ref):
                    raise SchemaError(f"{self.db_id}: foreign key {ref!r} not in schema")

    # ------------------------------------------------------------------

    def table(self, name: str) -> Table | None:
        wanted = name.lower()
        for table in self.tables:
            if table.name.lower() == wanted:
                return table
        return None

    def has_table(self, name: str) -> bool:
        return self.table(name) is not None

    def has_column(self, ref: str) -> bool:
        """True if ``table.column`` (or ``table.*``) names a schema element."""
        table_name, _, column = ref.partition(".")
        table = self.table(table_name)
        if table is None or not column:
            return False
        if column == STAR:
            return True
        return column.lower() in {c.name.lower() for c in table.columns}


@dataclass(frozen=True)
class SchemaSubset:
    """Linked tables and table-qualified columns, lowercase-normalized."""

    tables: frozenset[str] = frozenset()
    columns: frozenset[str] = frozenset()

    @classmethod
    def build(cls, tables: Iterable[str] = (), columns: Iterable[str] = ()) -> "SchemaSubset":
        """Normalize members and add tables implied by the columns."""
        cols = frozenset(c.lower() for c in columns)
        tabs = set(t.lower() for t in tables)
        for col in cols:
            table, _, _ = col.partition(".")
            if table:
                tabs.add(table)
        return cls(frozenset(tabs), cols)

    @property
    def is_empty(self) -> bool:
        return not self.tables and not self.columns


def format_subset(subset: SchemaSubset) -> str:
    """Canonical one-line serialization, members sorted lexicographically."""
    tables = ", ".join(sorted(subset.tables))
    columns = ", ".join(sorted(subset.columns))
    return f"tables: {tables} | columns: {columns}"


def parse_subset(text: str) -> SchemaSubset:
    """Inverse of :func:`format_subset`; tolerant of whitespace.

    Raises:
        ValueError: when the text does not follow the canonical shape.
    """
    body = text.strip()
    if "tables:" not in body or "|" not in body or "columns:" not in body:
        raise ValueError(f"not a schema subset serialization: {text!r}")
    tables_part, _, columns_part = body.partition("|")
    tables_part = tables_part.split("tables:", 1)[1]
    columns_part = columns_part.split("columns:", 1)[1]
    tables = [t.strip() for t in tables_part.split(",") if t.strip()]
    columns = [c.strip() for c in columns_part.split(",") if c.strip()]
    return SchemaSubset.build(tables, columns)


# ----------------------------------------------------------------------
# tables.json ingestion
# ----------------------------------------------------------------------


def schema_from_tables_record(record: Mapping) -> DatabaseSchema:
    """Build a schema from one record of the benchmark ``tables.json``.

    Expects ``db_id``, ``table_names_original``, ``column_names_original``
    (pairs of table index and column name, table index −1 marking the
    global star column), ``column_types``, ``primary_keys`` and
    ``foreign_keys`` (column indices).
    """
    table_names = record["table_names_original"]
    column_pairs = record["column_names_original"]
    column_types = record.get("column_types") or ["text"] * len(column_pairs)

    columns_by_table: dict[int, list[Column]] = {i: [] for i in range(len(table_names))}
    qualified: list[str | None] = []
    for (table_idx, column_name), column_type in zip(column_pairs, column_types):
        if table_idx == -1:  # global star sentinel
            qualified.append(None)
            continue
        columns_by_table[table_idx].append(Column(column_name, column_type))
        qualified.append(f"{table_names[table_idx].lower()}.{column_name.lower()}")

    tables = tuple(
        Table(name, tuple(columns_by_table[i])) for i, name in enumerate(table_names)
    )

    def column_ref(idx: int) -> str:
        if not 0 <= idx < len(qualified):
            raise IndexError(f"column index {idx} is out of range")
        ref = qualified[idx]
        if ref is None:
            raise SchemaError(f"{record['db_id']}: key references the star column")
        return ref

    primary = tuple(column_ref(i) for i in record.get("primary_keys", ()))
    foreign = tuple(
        (column_ref(src), column_ref(dst)) for src, dst in record.get("foreign_keys", ())
    )
    return DatabaseSchema(record["db_id"], tables, primary, foreign)


def load_tables_json(path: str | Path) -> dict[str, DatabaseSchema]:
    """Load every schema of a ``tables.json`` file, keyed by db_id.

    ``ConfigError`` names the file, and the record if one describes no schema.
    """
    records = read_json(path, "tables")
    if not isinstance(records, list):
        raise ConfigError(f"{path} holds a JSON {type(records).__name__}, not an array of schemas")
    schemas: dict[str, DatabaseSchema] = {}
    for i, record in enumerate(records):
        try:
            schema = schema_from_tables_record(record)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}, record {i}: malformed schema ({exc!r})") from None
        schemas[schema.db_id] = schema
    logger.info("loaded %d schemas from %s", len(schemas), path)
    return schemas


def item_schemas(
    dataset: Sequence[dict], schemas: Mapping[str, DatabaseSchema]
) -> list[DatabaseSchema]:
    """The schema of each dataset item, in item order.

    Raises ``ConfigError`` naming the first item whose ``db_id`` has no
    schema, so that a command refuses the dataset before doing any work.
    """
    found = []
    for i, item in enumerate(dataset):
        schema = schemas.get(item["db_id"])
        if schema is None:
            raise ConfigError(
                f"dataset item {i}: db_id {item['db_id']!r} is not in the tables file"
            )
        found.append(schema)
    return found


# ----------------------------------------------------------------------
# DDL rendering
# ----------------------------------------------------------------------


def render_ddl(schema: DatabaseSchema) -> str:
    """Deterministic CREATE TABLE text, one statement per declared table."""
    fk_by_table: dict[str, list[tuple[str, str]]] = {}
    for src, dst in schema.foreign_keys:
        table, _, _ = src.partition(".")
        fk_by_table.setdefault(table, []).append((src, dst))

    statements: list[str] = []
    for table in schema.tables:
        parts = [f"{c.name} {c.type}" for c in table.columns]
        pk_cols = [
            ref.partition(".")[2]
            for ref in schema.primary_keys
            if ref.partition(".")[0] == table.name.lower()
        ]
        if pk_cols:
            parts.append(f"PRIMARY KEY ({', '.join(pk_cols)})")
        for src, dst in fk_by_table.get(table.name.lower(), ()):
            src_col = src.partition(".")[2]
            dst_table, _, dst_col = dst.partition(".")
            parts.append(f"FOREIGN KEY ({src_col}) REFERENCES {dst_table}({dst_col})")
        statements.append(f"CREATE TABLE {table.name} ({', '.join(parts)});")
    return "\n".join(statements)
