"""Ground-truth subset extraction against hand-parsed expectations."""

from __future__ import annotations

import pytest

from solidql.errors import ResolutionError
from solidql.schema import SchemaSubset
from solidql.sql import extract_schema_refs, parse_sql


def refs(schemas, db_id, sql) -> tuple[set[str], set[str]]:
    subset = extract_schema_refs(parse_sql(sql), schemas[db_id])
    return set(subset.tables), set(subset.columns)


def test_single_table_where(schemas):
    tables, columns = refs(schemas, "concert_singer", "SELECT name FROM singer WHERE age > 30")
    assert tables == {"singer"}
    assert columns == {"singer.name", "singer.age"}


def test_select_star_contributes_star_token(schemas):
    tables, columns = refs(schemas, "concert_singer", "SELECT * FROM concert")
    assert tables == {"concert"}
    assert columns == {"concert.*"}


def test_alias_resolution_on_join(schemas):
    tables, columns = refs(
        schemas,
        "concert_singer",
        "SELECT s.name FROM singer AS s JOIN singer_in_concert ON s.singer_id = singer_in_concert.singer_id",
    )
    assert tables == {"singer", "singer_in_concert"}
    assert columns == {"singer.name", "singer.singer_id", "singer_in_concert.singer_id"}


def test_count_star_contributes_table_star(schemas):
    tables, columns = refs(schemas, "concert_singer", "SELECT count(*) FROM singer")
    assert columns == {"singer.*"}


def test_subquery_and_order_group_having(schemas):
    tables, columns = refs(
        schemas,
        "concert_singer",
        "SELECT country FROM singer WHERE singer_id IN "
        "(SELECT singer_id FROM singer_in_concert) "
        "GROUP BY country HAVING count(*) > 1 ORDER BY country",
    )
    assert tables == {"singer", "singer_in_concert"}
    assert columns == {
        "singer.country",
        "singer.singer_id",
        "singer_in_concert.singer_id",
        "singer.*",
    }


def test_unqualified_column_resolved_via_schema(schemas):
    tables, columns = refs(
        schemas,
        "concert_singer",
        "SELECT concert_name FROM concert JOIN stadium ON concert.stadium_id = stadium.stadium_id WHERE capacity > 500",
    )
    assert columns >= {"concert.concert_name", "stadium.capacity"}


def test_select_alias_usable_in_order_by(schemas):
    tables, columns = refs(
        schemas,
        "concert_singer",
        "SELECT age + 1 AS next_age FROM singer ORDER BY next_age",
    )
    assert columns == {"singer.age"}


def test_derived_table_exports(schemas):
    tables, columns = refs(
        schemas,
        "shop",
        "SELECT avg(a.age) FROM (SELECT age FROM employee) AS a",
    )
    assert tables == {"employee"}
    assert columns == {"employee.age"}


def test_alias_renaming_invariance(schemas):
    original = (
        "SELECT T1.name FROM singer AS T1 JOIN singer_in_concert AS T2 "
        "ON T1.singer_id = T2.singer_id WHERE T2.concert_id = 1"
    )
    renamed = (
        "SELECT x.name FROM singer AS x JOIN singer_in_concert AS y "
        "ON x.singer_id = y.singer_id WHERE y.concert_id = 1"
    )
    assert refs(schemas, "concert_singer", original) == refs(schemas, "concert_singer", renamed)


def test_output_is_subset_of_schema_universe(schemas, parser_corpus):
    for item in parser_corpus:
        schema = schemas[item["db_id"]]
        subset = extract_schema_refs(parse_sql(item["query"]), schema)
        assert all(schema.has_table(t) for t in subset.tables)
        assert all(schema.has_column(c) for c in subset.columns)


def test_unknown_column_raises(schemas):
    with pytest.raises(ResolutionError):
        refs(schemas, "concert_singer", "SELECT salary FROM singer")


def test_unknown_table_raises(schemas):
    with pytest.raises(ResolutionError):
        refs(schemas, "concert_singer", "SELECT name FROM bands")


def test_qualified_column_not_in_table_raises(schemas):
    with pytest.raises(ResolutionError):
        refs(schemas, "concert_singer", "SELECT singer.capacity FROM singer")


def test_hand_labels(schemas, linking_labels):
    for item in linking_labels:
        subset = extract_schema_refs(parse_sql(item["query"]), schemas[item["db_id"]])
        expected = SchemaSubset.build(item["tables"], item["columns"])
        assert subset == expected, item["query"]
