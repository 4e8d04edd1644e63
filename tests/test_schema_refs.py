"""Ground-truth subset extraction against hand-parsed expectations."""

from __future__ import annotations

import pytest

from solidql.errors import ResolutionError
from solidql.schema import SchemaSubset
from solidql.sql.parser import parse_sql
from solidql.sql.refs import extract_schema_refs


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


# (statement, tables, columns) on concert_singer; a columns value of None
# means the statement must raise ResolutionError.
SINGER = {"singer.*", "singer.singer_id", "singer.name", "singer.country", "singer.song_name",
          "singer.age"}
SOURCE_CASES = {
    "AS export": (
        "SELECT d.n FROM (SELECT name AS n FROM singer) AS d",
        {"singer"}, {"singer.name"},
    ),
    "* export": (
        "SELECT d.age FROM (SELECT * FROM singer) AS d",
        {"singer"}, {"singer.*", "singer.age"},
    ),
    "d.*": (
        "SELECT d.* FROM (SELECT name, age FROM singer WHERE country = 'x') AS d",
        {"singer"}, {"singer.*", "singer.name", "singer.age", "singer.country"},
    ),
    "t.*": (
        "SELECT T1.* FROM singer AS T1 JOIN singer_in_concert AS T2 ON T1.singer_id = T2.singer_id",
        {"singer", "singer_in_concert"},
        {"singer.*", "singer.singer_id", "singer_in_concert.singer_id"},
    ),
    "* over a subquery": (
        "SELECT * FROM (SELECT name FROM singer) AS d",
        {"singer"}, {"singer.*", "singer.name"},
    ),
    "count(*) over a subquery": (
        "SELECT count(*) FROM (SELECT * FROM singer WHERE age > 1) AS d",
        {"singer"}, SINGER,
    ),
    "subquery over a set operation": (
        "SELECT d.name FROM (SELECT name FROM singer UNION SELECT name FROM stadium) AS d",
        {"singer", "stadium"}, {"singer.name", "stadium.name"},
    ),
    "nested subqueries": (
        "SELECT d.x FROM (SELECT i.x FROM (SELECT age AS x FROM singer WHERE singer_id IN "
        "(SELECT singer_id FROM singer_in_concert)) AS i) AS d",
        {"singer", "singer_in_concert"},
        {"singer.age", "singer.singer_id", "singer_in_concert.singer_id"},
    ),
    "correlated reference to a table": (
        "SELECT x.name FROM singer AS x WHERE EXISTS "
        "(SELECT 1 FROM singer_in_concert AS u WHERE u.singer_id = x.singer_id)",
        {"singer", "singer_in_concert"},
        {"singer.name", "singer.singer_id", "singer_in_concert.singer_id"},
    ),
    "correlated reference to a subquery": (
        "SELECT x.n FROM (SELECT name AS n, singer_id AS b FROM singer) AS x WHERE EXISTS "
        "(SELECT 1 FROM singer_in_concert AS u WHERE u.singer_id = x.b)",
        {"singer", "singer_in_concert"},
        {"singer.name", "singer.singer_id", "singer_in_concert.singer_id"},
    ),
    "select alias in ORDER BY and WHERE": (
        "SELECT age + 1 AS older FROM singer WHERE older > 30 ORDER BY older",
        {"singer"}, {"singer.age"},
    ),
    "base tables before subqueries": (
        "SELECT age FROM (SELECT name AS age FROM stadium) AS d, singer",
        {"singer", "stadium"}, {"singer.age", "stadium.name"},
    ),
    "unaliased subquery": (
        "SELECT name FROM (SELECT name FROM singer)",
        {"singer"}, {"singer.name"},
    ),
    "* over an unaliased subquery": (
        "SELECT * FROM (SELECT name FROM singer)",
        {"singer"}, {"singer.*", "singer.name"},
    ),
    "count(*) over an unaliased subquery": (
        "SELECT count(*) FROM (SELECT * FROM singer WHERE age > 1)",
        {"singer"}, SINGER,
    ),
    "* over a nested subquery": (
        "SELECT d.x FROM (SELECT * FROM (SELECT name AS x FROM singer) AS i) AS d",
        {"singer"}, {"singer.*", "singer.name"},
    ),
    "* over an unaliased nested subquery": (
        "SELECT x FROM (SELECT * FROM (SELECT name AS x FROM singer))",
        {"singer"}, {"singer.*", "singer.name"},
    ),
    "* over a table and a nested subquery": (
        "SELECT d.x, d.age FROM (SELECT * FROM (SELECT name AS x FROM stadium) AS i, singer) AS d",
        {"singer", "stadium"}, {"singer.*", "singer.age", "stadium.*", "stadium.name"},
    ),
    "unknown qualifier": ("SELECT z.name FROM singer", set(), None),
    "column not exported": ("SELECT d.age FROM (SELECT name FROM singer) AS d", set(), None),
    "column not in table": ("SELECT s.capacity FROM singer AS s", set(), None),
    "column not in an unaliased subquery": (
        "SELECT age FROM (SELECT name FROM singer)", set(), None,
    ),
    "column not exported by a nested *": (
        "SELECT d.age FROM (SELECT * FROM (SELECT name AS x FROM singer) AS i) AS d", set(), None,
    ),
    "alias named after its own column": (
        "SELECT name AS name FROM singer ORDER BY name",
        {"singer"}, {"singer.name"},
    ),
    "self-named alias over an enclosing column": (
        "SELECT name FROM singer WHERE EXISTS (SELECT age AS age FROM stadium)",
        {"singer", "stadium"}, {"singer.name", "singer.age"},
    ),
    # select aliases whose expansion reaches themselves; SQLite: "no such column"
    "alias naming itself": ("SELECT foo AS foo FROM singer", set(), None),
    "alias naming itself, used in ORDER BY": (
        "SELECT foo AS foo FROM singer ORDER BY foo", set(), None,
    ),
    "two aliases naming each other": ("SELECT a AS b, b AS a FROM singer", set(), None),
    "three aliases in a ring, used in WHERE": (
        "SELECT b AS a, c AS b, a AS c FROM singer WHERE a > 1", set(), None,
    ),
    "alias naming itself in a subquery": (
        "SELECT name FROM singer WHERE age IN (SELECT foo AS foo FROM stadium)", set(), None,
    ),
}


@pytest.mark.parametrize("case", SOURCE_CASES)
def test_from_sources(schemas, case):
    sql, tables, columns = SOURCE_CASES[case]
    if columns is None:
        with pytest.raises(ResolutionError):
            refs(schemas, "concert_singer", sql)
    else:
        assert refs(schemas, "concert_singer", sql) == (tables, columns)

