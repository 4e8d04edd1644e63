"""Syntax-tree node type and operator levels of the SQLite-compatible SELECT dialect.

A statement is represented as an ordered tree of immutable :class:`Node`
values. Node identity for structural comparison and for tree edit distance
is the ``(kind, text)`` label plus the ordered children, nothing else.
A ``Node`` is a ``NamedTuple`` of exactly those three fields, so that
building, comparing and hashing trees run at tuple speed; a node
therefore also equals the bare tuple of its fields, which no code
compares it with.

Kinds
-----
``query`` / ``subquery``
    A SELECT block; ``subquery`` when it appears as an expression or a
    derived table, ``query`` at the top level. Children are clause nodes.
``clause``
    ``text`` is one of ``select``, ``from``, ``where``, ``group_by``,
    ``having``, ``order_by``, ``limit``.
``table-ref`` / ``column-ref``
    Leaves carrying the raw identifier span as written in the source.
``literal``
    Numbers, strings, NULL; raw span preserved (quotes included).
``operator``
    Prefix/infix/postfix operators and set operations; ``text`` is the
    lowercased canonical operator name (``=``, ``and``, ``not in``,
    ``union all``, ``is null``, ``asc``, ...).
``function``
    ``text`` is the function name as written; children are the arguments,
    optionally preceded by a ``keyword`` node (DISTINCT).
``keyword``
    Standalone modifier keywords (``distinct``, ``all``).
``star``
    The bare ``*`` in select lists and ``count(*)``.
``table-alias`` / ``column-alias``
    Alias definitions; ``text`` is the alias, the single child is the
    aliased source or expression.
``join``
    One join step inside FROM; ``text`` is the join connective (``join``,
    ``left join``, ``,`` ...); children are the table source and the
    optional ON expression.

Operator levels
---------------
The one statement of the dialect's operator precedence: the parser
climbs these levels and the renderer parenthesizes by them. Loosest
first: ``or``, ``and`` (``LEFT_ASSOCIATIVE``), ``not`` (``NOT_LEVEL``),
the predicates (``PREDICATE_LEVEL``: ``COMPARISONS``, ``[not] in``,
``[not] like``, ``[not] between``, ``is [not] null``, ``exists``),
``+ -`` and ``* / %`` (``LEFT_ASSOCIATIVE``), a sign (``UNARY_LEVEL``).
A predicate's operands are arithmetic, so predicates do not chain.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .tokens import TOKEN

QUERY = "query"
SUBQUERY = "subquery"
CLAUSE = "clause"
KEYWORD = "keyword"
TABLE_REF = "table-ref"
COLUMN_REF = "column-ref"
LITERAL = "literal"
OPERATOR = "operator"
FUNCTION = "function"
STAR = "star"
TABLE_ALIAS = "table-alias"
COLUMN_ALIAS = "column-alias"
JOIN = "join"

QUERY_KINDS = (QUERY, SUBQUERY)
SET_OPS = ("union", "union all", "intersect", "except")

# operator levels, loosest first (see "Operator levels" above)
LEFT_ASSOCIATIVE = {"or": 1, "and": 2, "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
NOT_LEVEL = 3
PREDICATE_LEVEL = 4
OPERAND_LEVEL = PREDICATE_LEVEL + 1  # a predicate's operands are arithmetic
UNARY_LEVEL = 7
COMPARISONS = ("=", "!=", "<>", "<", ">", "<=", ">=")


class Node(NamedTuple):
    kind: str
    text: str = ""
    children: tuple["Node", ...] = ()

    @property
    def label(self) -> str:
        """Label used for structural comparison and edit costs."""
        return f"{self.kind}:{self.text}"

    def walk(self) -> Iterator["Node"]:
        """Yield the node and all descendants in preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def clause(self, name: str) -> "Node | None":
        """Return the direct clause child with the given name, if any."""
        for child in self.children:
            if child.kind == CLAUSE and child.text == name:
                return child
        return None


def normalize_identifier(raw: str) -> str:
    """Lowercased, unquoted form of an identifier span."""
    if raw and raw[0] in "\"`[":
        closing = {"\"": "\"", "`": "`", "[": "]"}[raw[0]]
        body = raw[1:]
        if body.endswith(closing):
            body = body[:-1]
        return body.replace(closing * 2, closing).lower()
    return raw.lower()


def is_query_like(node: Node) -> bool:
    """True for SELECT blocks and set operations over them."""
    return node.kind in QUERY_KINDS or (node.kind == OPERATOR and node.text in SET_OPS)


def split_qualified(raw: str) -> tuple[str | None, str]:
    """Split a column-ref span into (qualifier, column), both raw.

    The qualifier is the span's first token, quoted or not, when a ``.``
    follows it; returns ``(None, raw)`` for bare names.
    """
    end = TOKEN.match(raw).end() if raw else 0
    if raw[end : end + 1] == ".":
        return raw[:end], raw[end + 1 :]
    return None, raw
