"""Parser for the SQLite-compatible SELECT subset.

Covers the surface used by the Spider family of benchmarks: SELECT with
DISTINCT, FROM with JOIN ... ON chains and derived tables, WHERE with
AND/OR/NOT, comparison / IN / LIKE / BETWEEN / IS NULL / EXISTS
predicates, arithmetic, aggregates, aliases, GROUP BY, HAVING,
ORDER BY with directions, LIMIT/OFFSET, nested subqueries, and
UNION / UNION ALL / INTERSECT / EXCEPT.

Clauses are read by recursive descent, expressions by one
precedence-climbing loop (Pratt, POPL 1973) over the operator levels
of :mod:`.nodes`. The parser reads the parallel token lists of
:func:`.tokens.scan` by position and decides on the lowercase text of
the current token, read once per decision and tested against one word
or a prebuilt ``frozenset``.

One depth rule bounds every tree: a statement that nests more than
``MAX_NESTING`` levels is a ``ParseError``. Each expression and query is
a level, each link of an ``AND``/``OR``/arithmetic or set-operation
chain pushes its left operand one level down, as the left-deep tree
does, and a sign whose operand is a sign takes two levels. So the
parser's recursion and every recursive walk over a tree it returns
stay within Python's stack. The produced tree is rendered back to text
by :mod:`.render`; parsing the rendering yields a structurally identical
tree, since the rendering nests no deeper under this rule than the
statement did.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ParseError
from . import tokens as tk
from .nodes import (
    CLAUSE,
    COLUMN_ALIAS,
    COLUMN_REF,
    COMPARISONS,
    FUNCTION,
    JOIN,
    KEYWORD,
    LEFT_ASSOCIATIVE,
    LITERAL,
    NOT_LEVEL,
    OPERAND_LEVEL,
    OPERATOR,
    PREDICATE_LEVEL,
    QUERY,
    STAR,
    SUBQUERY,
    TABLE_ALIAS,
    TABLE_REF,
    UNARY_LEVEL,
    Node,
)

# Words that can never be used as a bare (AS-less) alias.
RESERVED = frozenset(
    """select from where group by having order limit offset join inner left
    right full outer cross natural on as and or not in like between is null
    exists union intersect except distinct all asc desc case when then else
    end""".split()
)

# the lowercase words each decision point of the parser tests
_SET_OPS = frozenset(("union", "intersect", "except"))
_JOIN_WORDS = frozenset(("inner", "left", "right", "full", "cross"))  # besides a bare JOIN
_OUTER_JOIN_WORDS = frozenset(("left", "right", "full"))
_DIRECTIONS = frozenset(("asc", "desc"))
_SIGNS = frozenset(("-", "+"))
_PREFIX_WORDS = _SIGNS | {"not", "exists"}
_COMPARISONS = frozenset(COMPARISONS)
_NEGATED_PREDICATES = frozenset(("between", "in", "like"))
_PREDICATE_WORDS = _COMPARISONS | _NEGATED_PREDICATES | {"not", "is"}

# trees nesting past this many levels make a statement unparseable, which
# keeps the parser's recursion, and every recursive walk over the trees it
# builds, within Python's stack (see "Nesting" in _Parser)
MAX_NESTING = 100


def parse_sql(text: str) -> Node:
    """Parse a single SELECT statement into a syntax tree.

    Raises:
        ParseError: on malformed input, with the byte offset of the
            offending token, and on a statement that nests more than
            ``MAX_NESTING`` levels deep.
    """
    if not text or not text.strip():
        raise ParseError("empty statement", 0)
    parser = _Parser(text)
    node = parser.query_expr(is_sub=False)
    parser.accept(";")
    parser.expect_eof()
    return node


class _Parser:
    """Reads one statement from the token lists of :func:`.tokens.scan`.

    ``pos`` indexes the current token in every list. Decisions read its
    lowercase text, ``lowers[pos]``, and test it against one word or a
    prebuilt ``frozenset``: keywords and operators match alike, since no
    keyword is spelled like an operator and quoted tokens keep their
    quotes. Only the ``EOF`` token has the empty text, which no word
    matches, so a matched token is never ``EOF`` and ``pos`` never moves
    past it.

    Nesting. ``depth`` counts the levels the parse is inside: each
    expression and each query read is one level. ``peak`` is the deepest
    level of the expression or query being read, where each link of an
    ``AND``/``OR``/arithmetic or set-operation chain pushes what it has
    read so far one level down, as the left-deep tree it builds does, and
    reads its right operand one level down. A sign whose operand is
    another sign takes one more level, since the renderer parenthesizes
    the inner sign. Past ``MAX_NESTING`` the statement is refused, at the
    token where the level is entered.
    """

    def __init__(self, text: str) -> None:
        self.types, self.texts, self.lowers, self.offsets = tk.scan(text)
        self.pos = 0
        self.depth = 0
        self.peak = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def at(self, words: frozenset[str]) -> bool:
        """The current token's lowercase text is one of ``words``."""
        return self.lowers[self.pos] in words

    def accept(self, word: str) -> bool:
        """Move past the current token if its lowercase text is ``word``."""
        if self.lowers[self.pos] != word:
            return False
        self.pos += 1
        return True

    def expect(self, word: str) -> None:
        if self.lowers[self.pos] != word:
            wanted = word.upper() if word.isalpha() else repr(word)
            raise self.error(f"expected {wanted}, found {self.found()!r}")
        self.pos += 1

    def expect_eof(self) -> None:
        if self.types[self.pos] != tk.EOF:
            raise self.error(f"unexpected trailing input {self.texts[self.pos]!r}")

    def expect_name(self) -> str:
        pos = self.pos
        kind = self.types[pos]
        if kind != tk.QIDENT and (kind != tk.IDENT or self.lowers[pos] in RESERVED):
            raise self.error(f"expected identifier, found {self.found()!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def found(self) -> str:
        """The current token's text, as error messages name it."""
        return self.texts[self.pos] or "end of input"

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.offsets[self.pos])

    def comma_list(self, item: Callable[[], Node]) -> list[Node]:
        """One or more ``item``s separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def enter(self) -> int:
        """Enter one more level; the enclosing peak, for :meth:`leave`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("statement nests too deeply")
        peak = self.peak
        self.peak = self.depth
        return peak

    def leave(self, peak: int) -> None:
        """Leave the level entered by the :meth:`enter` that returned ``peak``."""
        self.depth -= 1
        if self.peak < peak:
            self.peak = peak

    def link(self) -> None:
        """Push what the current expression or query has read one level down."""
        self.peak += 1
        if self.peak > MAX_NESTING:
            raise self.error("statement nests too deeply")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query_expr(self, is_sub: bool) -> Node:
        peak = self.enter()
        node = self.select_core(is_sub)
        while self.at(_SET_OPS):
            self.link()
            word = self.lowers[self.pos]
            self.pos += 1
            if word == "union" and self.accept("all"):
                word = "union all"
            self.depth += 1  # the right operand one level down, as in expr
            right = self.select_core(is_sub)
            self.depth -= 1
            node = Node(OPERATOR, word, (node, right))
        self.leave(peak)
        return node

    def select_core(self, is_sub: bool) -> Node:
        lowers = self.lowers
        clauses = [self.select_clause()]
        if lowers[self.pos] == "from":
            clauses.append(self.from_clause())
        if self.accept("where"):
            clauses.append(Node(CLAUSE, "where", (self.expr(),)))
        if lowers[self.pos] == "group":
            clauses.append(self.group_by_clause())
        if self.accept("having"):
            clauses.append(Node(CLAUSE, "having", (self.expr(),)))
        if lowers[self.pos] == "order":
            clauses.append(self.order_by_clause())
        if lowers[self.pos] == "limit":
            clauses.append(self.limit_clause())
        return Node(SUBQUERY if is_sub else QUERY, "", tuple(clauses))

    def select_clause(self) -> Node:
        self.expect("select")
        children: list[Node] = []
        if self.accept("distinct"):
            children.append(Node(KEYWORD, "distinct"))
        elif self.accept("all"):
            children.append(Node(KEYWORD, "all"))
        children += self.comma_list(self.select_item)
        return Node(CLAUSE, "select", tuple(children))

    def select_item(self) -> Node:
        if self.accept("*"):
            return Node(STAR, "*")
        return self.alias(COLUMN_ALIAS, self.expr())

    def from_clause(self) -> Node:
        self.expect("from")
        children = [self.table_source()]
        while True:
            if self.accept(","):
                children.append(Node(JOIN, ",", (self.table_source(),)))
                continue
            connective = self.join_connective()
            if connective is None:
                break
            source = self.table_source()
            if self.accept("on"):
                children.append(Node(JOIN, connective, (source, self.expr())))
            else:
                children.append(Node(JOIN, connective, (source,)))
        return Node(CLAUSE, "from", tuple(children))

    def join_connective(self) -> str | None:
        word = self.lowers[self.pos]
        if word == "join":
            self.pos += 1
            return "join"
        if word not in _JOIN_WORDS:
            return None
        self.pos += 1
        if word in _OUTER_JOIN_WORDS and self.accept("outer"):
            word += " outer"
        self.expect("join")
        return f"{word} join"

    def table_source(self) -> Node:
        if self.accept("("):
            if self.lowers[self.pos] != "select":
                raise self.error("expected SELECT in derived table")
            source = self.query_expr(is_sub=True)
            self.expect(")")
        else:
            source = Node(TABLE_REF, self.expect_name())
        return self.alias(TABLE_ALIAS, source)

    def alias(self, kind: str, node: Node) -> Node:
        """``node`` under the ``AS name`` or bare-name alias that follows, if any."""
        pos = self.pos
        word = self.lowers[pos]
        if word == "as":
            self.pos = pos + 1
            return Node(kind, self.expect_name(), (node,))
        if self.types[pos] != tk.IDENT or word in RESERVED:
            return node
        self.pos = pos + 1
        return Node(kind, self.texts[pos], (node,))

    def group_by_clause(self) -> Node:
        self.expect("group")
        self.expect("by")
        return Node(CLAUSE, "group_by", tuple(self.comma_list(self.expr)))

    def order_by_clause(self) -> Node:
        self.expect("order")
        self.expect("by")
        return Node(CLAUSE, "order_by", tuple(self.comma_list(self.order_item)))

    def order_item(self) -> Node:
        item = self.expr()
        direction = self.lowers[self.pos]
        if direction in _DIRECTIONS:
            self.pos += 1
            return Node(OPERATOR, direction, (item,))
        return item

    def limit_clause(self) -> Node:
        self.expect("limit")
        first = self.limit_value()
        if self.accept("offset"):
            return Node(CLAUSE, "limit", (first, self.limit_value()))
        if self.accept(","):
            # SQLite "LIMIT offset, count"; normalized to count + offset.
            count = self.limit_value()
            return Node(CLAUSE, "limit", (count, first))
        return Node(CLAUSE, "limit", (first,))

    def limit_value(self) -> Node:
        pos = self.pos
        if self.types[pos] not in (tk.NUMBER, tk.IDENT):
            raise self.error(f"expected limit count, found {self.found()!r}")
        self.pos = pos + 1
        return Node(LITERAL, self.texts[pos])

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def expr(self, min_level: int = 1) -> Node:
        """An expression of operators that bind at ``min_level`` or tighter.

        Precedence climbing over the levels of :mod:`.nodes`. ``level`` is
        how tightly the expression read so far binds: a left-associative
        operator takes it as its left operand if it binds no tighter than
        that, a predicate only if it binds more loosely, so that
        predicates do not chain.
        """
        depth = self.depth + 1  # self.enter(), inlined on the hot path
        if depth > MAX_NESTING:
            raise self.error("statement nests too deeply")
        self.depth = depth
        peak = self.peak
        self.peak = depth
        node, level = self.prefix(min_level)
        lowers = self.lowers
        while True:
            word = lowers[self.pos]
            binding = LEFT_ASSOCIATIVE.get(word)
            if binding is not None:
                if not min_level <= binding <= level:
                    break
                self.link()
                self.pos += 1
                node = Node(OPERATOR, word, (node, self.expr(binding + 1)))
                level = binding
            elif word in _PREDICATE_WORDS and min_level <= PREDICATE_LEVEL < level:
                node = self.predicate(node)
                level = PREDICATE_LEVEL
            else:
                break
        self.depth = depth - 1  # self.leave(peak)
        if self.peak < peak:
            self.peak = peak
        return node

    def prefix(self, min_level: int) -> tuple[Node, int]:
        """The operand that starts an expression, and the level it binds at."""
        word = self.lowers[self.pos]
        if word not in _PREFIX_WORDS:
            return self.primary(), UNARY_LEVEL
        if word == "not" and min_level <= NOT_LEVEL:
            self.pos += 1
            return Node(OPERATOR, "not", (self.expr(NOT_LEVEL),)), NOT_LEVEL
        if word == "exists" and min_level <= PREDICATE_LEVEL:
            self.pos += 1
            self.expect("(")
            inner = self.query_expr(is_sub=True)
            self.expect(")")
            return Node(OPERATOR, "exists", (inner,)), PREDICATE_LEVEL
        if word in _SIGNS:
            self.pos += 1
            nested = self.at(_SIGNS)  # rendered in parentheses: one more level
            self.depth += nested
            node = Node(OPERATOR, word, (self.expr(UNARY_LEVEL),))
            self.depth -= nested
            return node, UNARY_LEVEL
        return self.primary(), UNARY_LEVEL

    def predicate(self, lhs: Node) -> Node:
        """The predicate on ``lhs`` that starts at the current token.

        The caller has checked that the token's lowercase text is one of
        ``_PREDICATE_WORDS``.
        """
        word = self.lowers[self.pos]
        self.pos += 1
        if word in _COMPARISONS:
            op = "!=" if word == "<>" else word
            return Node(OPERATOR, op, (lhs, self.expr(OPERAND_LEVEL)))
        negated = word == "not"
        if negated:
            word = self.lowers[self.pos]
            if word not in _NEGATED_PREDICATES:
                raise self.error("expected BETWEEN, IN or LIKE after NOT")
            self.pos += 1
        if word == "between":
            low = self.expr(OPERAND_LEVEL)
            self.expect("and")
            high = self.expr(OPERAND_LEVEL)
            return Node(OPERATOR, "not between" if negated else "between", (lhs, low, high))
        if word == "in":
            self.expect("(")
            if self.lowers[self.pos] == "select":
                items = [self.query_expr(is_sub=True)]
            else:
                items = self.comma_list(self.expr)
            self.expect(")")
            return Node(OPERATOR, "not in" if negated else "in", (lhs, *items))
        if word == "like":
            return Node(OPERATOR, "not like" if negated else "like", (lhs, self.expr(OPERAND_LEVEL)))
        # IS [NOT] NULL
        negated = self.accept("not")
        if not self.accept("null"):
            raise self.error("expected NULL after IS")
        return Node(OPERATOR, "is not null" if negated else "is null", (lhs,))

    def primary(self) -> Node:
        pos = self.pos
        kind = self.types[pos]
        if kind == tk.IDENT:
            word = self.lowers[pos]
            if word in RESERVED:
                if word != "null":
                    raise self.error(f"expected expression, found {self.texts[pos]!r}")
                self.pos = pos + 1
                return Node(LITERAL, self.texts[pos])
            if self.lowers[pos + 1] == "(":  # the name is not EOF
                return self.function_call()
            return self.name_expr()
        if kind == tk.NUMBER or kind == tk.STRING:
            self.pos = pos + 1
            return Node(LITERAL, self.texts[pos])
        if kind == tk.QIDENT:
            return self.name_expr()
        if self.accept("("):
            inner = self.query_expr(is_sub=True) if self.lowers[self.pos] == "select" else self.expr()
            self.expect(")")
            return inner
        raise self.error(f"expected expression, found {self.found()!r}")

    def function_call(self) -> Node:
        name = self.texts[self.pos]
        self.pos += 2  # the name and "("
        children: list[Node] = []
        if self.accept("distinct"):
            children.append(Node(KEYWORD, "distinct"))
        if self.accept("*"):
            children.append(Node(STAR, "*"))
        elif self.lowers[self.pos] != ")":
            children += self.comma_list(self.expr)
        self.expect(")")
        return Node(FUNCTION, name, tuple(children))

    def name_expr(self) -> Node:
        """A column reference; the current token is a name."""
        pos = self.pos
        first = self.texts[pos]
        if self.lowers[pos + 1] != ".":
            self.pos = pos + 1
            return Node(COLUMN_REF, first)
        self.pos = pos + 2
        if self.accept("*"):
            return Node(COLUMN_REF, f"{first}.*")
        return Node(COLUMN_REF, f"{first}.{self.expect_name()}")
