"""Parser and renderer behavior, including the round-trip invariant."""

from __future__ import annotations

import hashlib
import random
import re
import sqlite3
import sys
from contextlib import closing

import pytest

from solidql.errors import ParseError
from solidql.evaluation import canonical_sql
from solidql.skeleton import SqlSkeleton
from solidql.sql.nodes import (
    CLAUSE,
    COLUMN_REF,
    LITERAL,
    SUBQUERY,
    TABLE_REF,
    Node,
    normalize_identifier,
    split_qualified,
)
from solidql.sql.parser import parse_sql
from solidql.sql.render import render_sql
from solidql.sql.tokens import scan

from support import random_expression_statement, random_statement


# text -> its (type, text, offset) tokens, or the offset of its ParseError
LEXER_CASES = {
    "a -- c\nb": [("ident", "a", 0), ("ident", "b", 7), ("eof", "", 8)],
    "a--c": [("ident", "a", 0), ("eof", "", 4)],
    "a /* c */ b": [("ident", "a", 0), ("ident", "b", 10), ("eof", "", 11)],
    "a /*/ b */": [("ident", "a", 0), ("eof", "", 10)],
    "a /* c": 2,
    "a /*/": 2,
    "'it''s' x": [("string", "'it''s'", 0), ("ident", "x", 8), ("eof", "", 9)],
    "''''": [("string", "''''", 0), ("eof", "", 4)],
    "x 'abc": 2,
    "x 'a''": 2,
    'x "abc': 2,
    "x `abc": 2,
    "x [abc": 2,
    "[a b]": [("qident", "[a b]", 0), ("eof", "", 5)],
    "1.5": [("number", "1.5", 0), ("eof", "", 3)],
    ".5": [("number", ".5", 0), ("eof", "", 2)],
    "1.2.3": [("number", "1.2", 0), ("number", ".3", 3), ("eof", "", 5)],
    "1.": [("number", "1.", 0), ("eof", "", 2)],
    "1e5": [("number", "1e5", 0), ("eof", "", 3)],
    "1e+5": [("number", "1e+5", 0), ("eof", "", 4)],
    "1e+x": [("number", "1", 0), ("ident", "e", 1), ("op", "+", 2), ("ident", "x", 3), ("eof", "", 4)],
    "t.a": [("ident", "t", 0), ("op", ".", 1), ("ident", "a", 2), ("eof", "", 3)],
    "_a1 1a": [("ident", "_a1", 0), ("number", "1", 4), ("ident", "a", 5), ("eof", "", 6)],
    "a<>b<=c": [("ident", "a", 0), ("op", "<>", 1), ("ident", "b", 3), ("op", "<=", 4),
                ("ident", "c", 6), ("eof", "", 7)],
    "a != -b/c;": [("ident", "a", 0), ("op", "!=", 2), ("op", "-", 5), ("ident", "b", 6),
                   ("op", "/", 7), ("ident", "c", 8), ("op", ";", 9), ("eof", "", 10)],
    "a ! b": 2,
    "a || b": 2,
    "": [("eof", "", 0)],
}


@pytest.mark.parametrize("text", LEXER_CASES)
def test_tokenize_pins_the_lexer(text):
    expected = LEXER_CASES[text]
    if isinstance(expected, int):
        with pytest.raises(ParseError) as err:
            scan(text)
        assert err.value.offset == expected
    else:
        types, texts, lowers, offsets = scan(text)
        assert list(zip(types, texts, offsets)) == expected
        assert lowers == [t.lower() for t in texts]


def test_character_classes_are_the_str_predicates():
    # the lexer's \s and \w follow this interpreter's Unicode tables
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", everything)) == {c for c in everything if c.isspace()}
    assert set(re.findall(r"\w", everything)) == {c for c in everything if c.isalnum() or c == "_"}
    # a digit is a decimal digit; any other numeral is an identifier character
    assert "²".isdigit() and not "²".isdecimal()
    types, texts, _, offsets = scan("²x 1²")
    assert list(zip(types, texts, offsets)) == [
        ("ident", "²x", 0), ("number", "1", 3), ("ident", "²", 4), ("eof", "", 5)]


def test_simple_select_structure():
    tree = parse_sql("SELECT name FROM singer")
    kinds = [(c.kind, c.text) for c in tree.children]
    assert kinds == [(CLAUSE, "select"), (CLAUSE, "from")]
    select, from_clause = tree.children
    assert select.children[0].kind == COLUMN_REF
    assert select.children[0].text == "name"
    assert from_clause.children[0].kind == TABLE_REF
    assert from_clause.children[0].text == "singer"


def test_node_is_an_immutable_value():
    tree = parse_sql("SELECT a FROM t")
    with pytest.raises(AttributeError):
        tree.kind = SUBQUERY
    same = parse_sql("select a  from t;")
    assert same == tree and same is not tree and hash(same) == hash(tree)
    # trees differing only in a kind or a text differ
    assert Node(SUBQUERY, "", tree.children) != tree
    assert Node(LITERAL, "a") != Node(COLUMN_REF, "a")
    assert parse_sql("SELECT b FROM t") != tree
    assert repr(tree) == (
        "Node(kind='query', text='', children=("
        "Node(kind='clause', text='select', children=(Node(kind='column-ref', text='a', children=()),)), "
        "Node(kind='clause', text='from', children=(Node(kind='table-ref', text='t', children=()),))))"
    )


def test_subquery_node_under_where():
    tree = parse_sql("SELECT a FROM t WHERE b IN (SELECT c FROM u)")
    where = tree.clause("where")
    subqueries = [n for n in where.walk() if n.kind == SUBQUERY]
    assert len(subqueries) == 1


def test_malformed_keyword_errors_at_offset_zero():
    with pytest.raises(ParseError) as err:
        parse_sql("SELEC name FORM singer")
    assert err.value.offset == 0


def test_empty_statement_rejected():
    with pytest.raises(ParseError):
        parse_sql("   ")


@pytest.mark.parametrize(
    "bad",
    [
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP BY",
        "SELECT a FROM t LIMIT",
        "SELECT a FROM t WHERE a NOT = 1",
        "SELECT a FROM t WHERE a IN (1, )",
        "SELECT a FROM t extra garbage (",
        "SELECT a FROM t WHERE a IS 1",
        "SELECT a FROM (t)",
    ],
)
def test_malformed_statements_raise(bad):
    with pytest.raises(ParseError):
        parse_sql(bad)


def _nested(template, levels):
    """``SELECT a FROM t`` placed into ``template``'s ``{}`` ``levels`` times."""
    sql = "SELECT a FROM t"
    for _ in range(levels):
        sql = template.format(sql)
    return sql


# each nesting shape and the most levels of it that parse, MAX_NESTING (100)
# levels in all: the query and its select item or WHERE expression take two
# of them; each parenthesis, derived table and chain link one more; each
# sign two, but the innermost one, since the renderer parenthesizes a sign's
# signed operand; each IN subquery two, its query and its WHERE expression;
# the AND chain's first comparison reads its right operand one level down;
# and a parenthesized chain link takes its parenthesis and its link
NESTINGS = {
    "parentheses": (lambda k: "SELECT " + "(" * k + "1" + ")" * k + " FROM t", 98),
    "signs": (lambda k: "SELECT " + "- " * k + "1 FROM t", 49),
    "IN subqueries": (lambda k: _nested("SELECT a FROM t WHERE a IN ({})", k), 49),
    "derived tables": (lambda k: _nested("SELECT a FROM ({})", k), 98),
    "AND chains": (lambda k: "SELECT a FROM t WHERE " + " AND ".join(["a = 1"] * (k + 1)), 97),
    "+ chains": (lambda k: "SELECT " + " + ".join(["a"] * (k + 1)) + " FROM t", 98),
    "UNION chains": (lambda k: " UNION ".join(["SELECT a FROM t"] * (k + 1)), 98),
    "parenthesized AND chains": (lambda k: "SELECT a FROM t WHERE " + "(" * k + "a" + " AND a)" * k, 49),
}


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_past_the_bound_is_a_parse_error(shape):
    statement, deepest = NESTINGS[shape]
    sql = statement(deepest)
    tree = parse_sql(sql)
    # every walk over the deepest tree stays within the stack
    assert parse_sql(render_sql(tree)) == tree
    canonical = render_sql(tree, canonical=True)
    assert render_sql(parse_sql(canonical), canonical=True) == canonical
    assert canonical_sql(sql) == canonical
    skeleton = SqlSkeleton.from_sql(sql)
    assert SqlSkeleton.from_sql(skeleton.text) == skeleton
    for levels in (deepest + 1, 400):
        with pytest.raises(ParseError, match="statement nests too deeply"):
            parse_sql(statement(levels))


def test_parse_error_reports_offset_of_bad_token():
    statement = "SELECT a FROM t WHERE ^"
    with pytest.raises(ParseError) as err:
        parse_sql(statement)
    assert err.value.offset == statement.index("^")


def test_trailing_semicolon_accepted():
    assert parse_sql("SELECT a FROM t;") == parse_sql("SELECT a FROM t")


def test_identifier_case_preserved_in_tree():
    tree = parse_sql("select Name from Singer")
    assert tree.clause("select").children[0].text == "Name"
    assert render_sql(tree) == "SELECT Name FROM Singer"


def test_quoted_identifiers_round_trip():
    sql = 'SELECT "first name" FROM `my table` WHERE [first name] = \'x\''
    tree = parse_sql(sql)
    assert parse_sql(render_sql(tree)) == tree


def test_limit_offset_and_comma_form_normalize():
    offset_form = parse_sql("SELECT a FROM t LIMIT 5 OFFSET 2")
    comma_form = parse_sql("SELECT a FROM t LIMIT 2, 5")
    assert offset_form == comma_form
    assert render_sql(offset_form) == "SELECT a FROM t LIMIT 5 OFFSET 2"


def test_nested_unary_minus_round_trips():
    # "--" must never appear in a rendering: it would re-read as a comment
    tree = parse_sql("SELECT - -x FROM t")
    rendered = render_sql(tree)
    assert "--" not in rendered
    assert parse_sql(rendered) == tree
    tree = parse_sql("SELECT a - -b FROM t WHERE c > - -1")
    assert parse_sql(render_sql(tree)) == tree


def test_precedence_parentheses_survive():
    tree = parse_sql("SELECT a FROM t WHERE NOT (a = 1 OR b = 2) AND c = 3")
    assert parse_sql(render_sql(tree)) == tree
    tree = parse_sql("SELECT (a + b) / 2 FROM t")
    assert parse_sql(render_sql(tree)) == tree
    assert "(" in render_sql(tree)


# grammar the corpus does not reach
GRAMMAR = [
    "SELECT a FROM t, u AS x, (SELECT b FROM v) w",
    "SELECT a FROM t JOIN u",
    "SELECT a FROM t LEFT JOIN u ON t.a = u.a RIGHT OUTER JOIN v ON v.a = u.a",
    "SELECT a FROM t FULL JOIN u ON t.a = u.a LEFT OUTER JOIN v ON 1 CROSS JOIN w",
    "SELECT a FROM t UNION ALL SELECT ALL b FROM u",
    "SELECT t.* FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
    "SELECT NULL, substr(a, 1, 2), coalesce(a, b, NULL) FROM t WHERE b IS NOT NULL",
    "SELECT a, b, count(*) FROM t GROUP BY a, b ORDER BY a DESC, count(*), b ASC",
    # a predicate as an operand of another predicate keeps its parentheses
    "SELECT a FROM t WHERE (b = 2) = 1",
    "SELECT a FROM t WHERE (a < b) < c",
    "SELECT a FROM t WHERE (EXISTS (SELECT 1 FROM u)) = 1 AND (a IS NULL) = (b LIKE 'x')",
    "SELECT a FROM t WHERE (a = 1) IS NULL OR (a IN (1)) BETWEEN (b = 1) AND 2",
]


def test_corpus_round_trip(parser_corpus):
    for sql in [item["query"] for item in parser_corpus] + GRAMMAR:
        tree = parse_sql(sql)
        rendered = render_sql(tree)
        assert parse_sql(rendered) == tree, sql


def test_generated_statements_round_trip():
    rng = random.Random(7)
    statements = [random_statement(rng) for _ in range(300)]
    for sql in statements + [random_expression_statement(rng) for _ in range(1000)]:
        try:
            tree = parse_sql(sql)
        except ParseError:
            assert sql not in statements
            continue
        assert parse_sql(render_sql(tree)) == tree, sql
        canonical = render_sql(tree, canonical=True)
        assert render_sql(parse_sql(canonical), canonical=True) == canonical, sql


# statements whose reading hangs on operator precedence -> their rendering,
# or the message and offset of their ParseError
EXPRESSION_CASES = {
    "SELECT -a * b = c FROM t": "SELECT -a * b = c FROM t",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u) * 2": ("unexpected trailing input '*'", 47),
    "SELECT count(DISTINCT) FROM t": "SELECT count(DISTINCT) FROM t",
    "SELECT a FROM t WHERE a = b = c": ("unexpected trailing input '='", 28),
    "SELECT a FROM t WHERE a NOT b": ("expected BETWEEN, IN or LIKE after NOT", 28),
}


@pytest.mark.parametrize("sql", EXPRESSION_CASES)
def test_expression_cases(sql):
    expected = EXPRESSION_CASES[sql]
    if isinstance(expected, str):
        assert render_sql(parse_sql(sql)) == expected
    else:
        message, offset = expected
        with pytest.raises(ParseError) as err:
            parse_sql(sql)
        assert str(err.value) == f"{message} (at offset {offset})"


def _reading(sql: str) -> str:
    """The tree and both renderings of ``sql``, or its error's message and offset."""
    try:
        tree = parse_sql(sql)
    except ParseError as err:
        return str(err)
    return f"{tree!r}\n{render_sql(tree)}\n{render_sql(tree, canonical=True)}"


def test_parser_and_renderer_readings_are_pinned(parser_corpus):
    # one digest over what parser and renderer make of 3,367 statements,
    # 1,377 of them malformed; it changes only when some tree, rendering,
    # error message or error offset does
    rng = random.Random(23)
    statements = [item["query"] for item in parser_corpus] + GRAMMAR + list(EXPRESSION_CASES)
    statements += [random_statement(rng) for _ in range(300)]
    statements += [random_expression_statement(rng) for _ in range(3000)]
    digest = hashlib.sha256("\n\n".join(map(_reading, statements)).encode()).hexdigest()
    assert digest == "66790df48d815d70372d31fc76b96c0a8fb8a8edf2d440ba1c4e7eb8906a5015"


def test_canonical_rendering_lowercases():
    tree = parse_sql("select Name from Singer where AGE > 30")
    assert render_sql(tree, canonical=True) == "select name from singer where age > 30"


@pytest.mark.parametrize("quoted, name", [('"A""b"', 'a"b'), ("`A``b`", "a`b")])
def test_doubled_quote_inside_a_quoted_identifier(quoted, name):
    # SQLite reads a doubled quote inside quotes as the quote itself
    with closing(sqlite3.connect(":memory:")) as connection:
        assert connection.execute(f"SELECT 1 AS {quoted}").description[0][0].lower() == name
    for sql in (f"SELECT {quoted} FROM t", f"SELECT {quoted}.c FROM {quoted}"):
        tree = parse_sql(sql)
        assert parse_sql(render_sql(tree)) == tree
        canonical = render_sql(tree, canonical=True)
        assert render_sql(parse_sql(canonical), canonical=True) == canonical
    column = parse_sql(f"SELECT {quoted}.c FROM t").clause("select").children[0].text
    assert split_qualified(column) == (quoted, "c")
    assert normalize_identifier(quoted) == name


def test_canonical_rendering_unquotes_a_quoted_qualifier():
    canonical = render_sql(parse_sql('SELECT "T".c, [t].*, `t`.`C` FROM t'), canonical=True)
    assert canonical == "select t.c, t.*, t.c from t"
