"""Schema ingestion, invariants, DDL rendering, subset serialization."""

from __future__ import annotations

import pytest

from solidql.errors import SchemaError
from solidql.schema import (
    Column,
    DatabaseSchema,
    SchemaSubset,
    Table,
    format_subset,
    parse_subset,
    render_ddl,
    schema_from_tables_record,
)


def test_tables_json_ingestion(schemas):
    assert set(schemas) == {"concert_singer", "library", "shop"}
    concert = schemas["concert_singer"]
    assert [t.name.lower() for t in concert.tables] == [
        "stadium", "singer", "concert", "singer_in_concert"
    ]
    assert concert.has_table("singer_in_concert") and not concert.has_table("venue")
    assert concert.has_column("singer.song_name")
    assert ("concert.stadium_id", "stadium.stadium_id") in concert.foreign_keys
    assert "stadium.stadium_id" in concert.primary_keys


def test_star_sentinel_accepted():
    record = {
        "db_id": "tiny",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "int"],
        "primary_keys": [1],
        "foreign_keys": [],
    }
    schema = schema_from_tables_record(record)
    assert schema.table("t").column_names() == ["a"]
    assert schema.primary_keys == ("t.a",)


def test_duplicate_table_rejected():
    with pytest.raises(SchemaError):
        DatabaseSchema("x", (Table("T", ()), Table("t", ())))


def test_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        DatabaseSchema("x", (Table("t", (Column("A"), Column("a"))),))


def test_key_must_reference_existing_column():
    with pytest.raises(SchemaError):
        DatabaseSchema("x", (Table("t", (Column("a"),)),), primary_keys=("t.b",))
    with pytest.raises(SchemaError):
        DatabaseSchema(
            "x",
            (Table("t", (Column("a"),)),),
            foreign_keys=(("t.a", "u.b"),),
        )


def test_ddl_single_table():
    schema = DatabaseSchema("x", (Table("t", (Column("a", "int"),)),))
    assert render_ddl(schema) == "CREATE TABLE t (a int);"


def test_ddl_two_tables_in_declared_order():
    schema = DatabaseSchema(
        "x", (Table("b", (Column("x", "int"),)), Table("a", (Column("y", "int"),)))
    )
    lines = render_ddl(schema).splitlines()
    assert lines[0].startswith("CREATE TABLE b ")
    assert lines[1].startswith("CREATE TABLE a ")


def test_ddl_foreign_key_clause(schemas):
    ddl = render_ddl(schemas["concert_singer"])
    assert "FOREIGN KEY (stadium_id) REFERENCES stadium(stadium_id)" in ddl
    assert ddl == render_ddl(schemas["concert_singer"])  # byte-stable


def test_subset_build_adds_implied_tables():
    subset = SchemaSubset.build([], ["Singer.Name"])
    assert subset.tables == frozenset({"singer"})
    assert subset.columns == frozenset({"singer.name"})


def test_subset_serialization_round_trip():
    subset = SchemaSubset.build(["b", "a"], ["a.x", "b.y", "a.z"])
    text = format_subset(subset)
    assert text == "tables: a, b | columns: a.x, a.z, b.y"
    assert parse_subset(text) == subset


def test_parse_subset_rejects_garbage():
    with pytest.raises(ValueError):
        parse_subset("no idea")
