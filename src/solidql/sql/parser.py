"""Parser for the SQLite-compatible SELECT subset.

Covers the surface used by the Spider family of benchmarks: SELECT with
DISTINCT, FROM with JOIN ... ON chains and derived tables, WHERE with
AND/OR/NOT, comparison / IN / LIKE / BETWEEN / IS NULL / EXISTS
predicates, arithmetic, aggregates, aliases, GROUP BY, HAVING,
ORDER BY with directions, LIMIT/OFFSET, nested subqueries, and
UNION / UNION ALL / INTERSECT / EXCEPT.

Clauses are read by recursive descent, expressions by one
precedence-climbing loop (Pratt, POPL 1973) over the operator levels
of :mod:`.nodes`. The produced tree is rendered back to text by
:mod:`.render`; parsing the rendering yields a structurally identical
tree, unless the rendering, which parenthesizes a sign's signed operand,
nests past ``MAX_NESTING``.
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

# words that start a join connective other than a bare JOIN
_JOIN_WORDS = ("inner", "left", "right", "full", "cross")

# nested expressions and queries past this many levels make a statement
# unparseable, which keeps the parser's recursion within Python's stack
MAX_NESTING = 100


def parse_sql(text: str) -> Node:
    """Parse a single SELECT statement into a syntax tree.

    Raises:
        ParseError: on malformed input, with the byte offset of the
            offending token, and on a statement whose expressions and
            queries nest more than ``MAX_NESTING`` levels deep.
    """
    if not text or not text.strip():
        raise ParseError("empty statement", 0)
    parser = _Parser(tk.tokenize(text))
    node = parser.query_expr(is_sub=False)
    parser.accept(";")
    parser.expect_eof()
    return node


class _Parser:
    def __init__(self, toks: list[tk.Token]) -> None:
        self.toks = toks
        self.pos = 0
        self.depth = 0  # expressions and queries being read

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def peek(self) -> tk.Token:
        return self.toks[self.pos]  # advance never moves past EOF

    def advance(self) -> tk.Token:
        tok = self.toks[self.pos]
        if tok.type != tk.EOF:
            self.pos += 1
        return tok

    def at(self, *words: str) -> bool:
        """The next token's lowercase text is one of ``words``.

        Keywords and operators match alike: no keyword is spelled like an
        operator, and quoted tokens keep their quotes.
        """
        return self.toks[self.pos].lower in words

    def accept(self, *words: str) -> tk.Token | None:
        tok = self.toks[self.pos]
        if tok.lower not in words:
            return None
        self.pos += 1  # not EOF, whose text no word matches
        return tok

    def expect(self, word: str) -> tk.Token:
        tok = self.peek()
        if not self.at(word):
            wanted = word.upper() if word.isalpha() else repr(word)
            raise ParseError(f"expected {wanted}, found {tok.text or 'end of input'!r}", tok.offset)
        return self.advance()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.type != tk.EOF:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)

    def comma_list(self, item: Callable[[], Node]) -> list[Node]:
        """One or more ``item``s separated by commas."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def nest(self) -> None:
        """Enter one more expression or query; ``ParseError`` past ``MAX_NESTING``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("statement nests too deeply", self.peek().offset)

    def expect_name(self) -> tk.Token:
        tok = self.peek()
        if tok.type == tk.QIDENT:
            return self.advance()
        if tok.type != tk.IDENT or tok.lower in RESERVED:
            raise ParseError(f"expected identifier, found {tok.text or 'end of input'!r}", tok.offset)
        return self.advance()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query_expr(self, is_sub: bool) -> Node:
        self.nest()
        node = self.select_core(is_sub)
        while self.at("union", "intersect", "except"):
            word = self.advance().lower
            if word == "union" and self.accept("all"):
                word = "union all"
            right = self.select_core(is_sub)
            node = Node(OPERATOR, word, (node, right))
        self.depth -= 1
        return node

    def select_core(self, is_sub: bool) -> Node:
        clauses = [self.select_clause()]
        if self.at("from"):
            clauses.append(self.from_clause())
        if self.accept("where"):
            clauses.append(Node(CLAUSE, "where", (self.expr(),)))
        if self.at("group"):
            clauses.append(self.group_by_clause())
        if self.accept("having"):
            clauses.append(Node(CLAUSE, "having", (self.expr(),)))
        if self.at("order"):
            clauses.append(self.order_by_clause())
        if self.at("limit"):
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
        if self.accept("join"):
            return "join"
        if not self.at(*_JOIN_WORDS):
            return None
        word = self.advance().lower
        if word in ("left", "right", "full") and self.accept("outer"):
            word += " outer"
        self.expect("join")
        return f"{word} join"

    def table_source(self) -> Node:
        if self.accept("("):
            if not self.at("select"):
                raise ParseError("expected SELECT in derived table", self.peek().offset)
            source = self.query_expr(is_sub=True)
            self.expect(")")
        else:
            source = Node(TABLE_REF, self.expect_name().text)
        return self.alias(TABLE_ALIAS, source)

    def alias(self, kind: str, node: Node) -> Node:
        """``node`` under the ``AS name`` or bare-name alias that follows, if any."""
        if self.accept("as"):
            return Node(kind, self.expect_name().text, (node,))
        tok = self.peek()
        if tok.type != tk.IDENT or tok.lower in RESERVED:
            return node
        self.advance()
        return Node(kind, tok.text, (node,))

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
        direction = self.accept("asc", "desc")
        if direction is not None:
            return Node(OPERATOR, direction.lower, (item,))
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
        tok = self.peek()
        if tok.type in (tk.NUMBER, tk.IDENT):
            self.advance()
            return Node(LITERAL, tok.text)
        raise ParseError(f"expected limit count, found {tok.text or 'end of input'!r}", tok.offset)

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
        self.nest()
        node, level = self.prefix(min_level)
        while True:
            tok = self.peek()
            binding = LEFT_ASSOCIATIVE.get(tok.lower)
            if binding is not None:
                if not min_level <= binding <= level:
                    break
                self.advance()
                node = Node(OPERATOR, tok.lower, (node, self.expr(binding + 1)))
                level = binding
            elif min_level <= PREDICATE_LEVEL < level and (predicate := self.predicate(node)) is not None:
                node, level = predicate, PREDICATE_LEVEL
            else:
                break
        self.depth -= 1
        return node

    def prefix(self, min_level: int) -> tuple[Node, int]:
        """The operand that starts an expression, and the level it binds at."""
        if min_level <= NOT_LEVEL and self.accept("not"):
            return Node(OPERATOR, "not", (self.expr(NOT_LEVEL),)), NOT_LEVEL
        if min_level <= PREDICATE_LEVEL and self.accept("exists"):
            self.expect("(")
            inner = self.query_expr(is_sub=True)
            self.expect(")")
            return Node(OPERATOR, "exists", (inner,)), PREDICATE_LEVEL
        if self.at("-", "+"):
            op = self.advance().text
            return Node(OPERATOR, op, (self.expr(UNARY_LEVEL),)), UNARY_LEVEL
        return self.primary(), UNARY_LEVEL

    def predicate(self, lhs: Node) -> Node | None:
        """The predicate on ``lhs`` that starts at the next token, if any."""
        tok = self.peek()
        if tok.lower in COMPARISONS:
            self.advance()
            op = "!=" if tok.text == "<>" else tok.text
            return Node(OPERATOR, op, (lhs, self.expr(OPERAND_LEVEL)))
        negated = self.accept("not") is not None
        if self.accept("between"):
            low = self.expr(OPERAND_LEVEL)
            self.expect("and")
            high = self.expr(OPERAND_LEVEL)
            return Node(OPERATOR, "not between" if negated else "between", (lhs, low, high))
        if self.accept("in"):
            self.expect("(")
            items = [self.query_expr(is_sub=True)] if self.at("select") else self.comma_list(self.expr)
            self.expect(")")
            return Node(OPERATOR, "not in" if negated else "in", (lhs, *items))
        if self.accept("like"):
            op = "not like" if negated else "like"
            return Node(OPERATOR, op, (lhs, self.expr(OPERAND_LEVEL)))
        if negated:
            raise ParseError("expected BETWEEN, IN or LIKE after NOT", self.peek().offset)
        if self.accept("is"):
            negated = self.accept("not") is not None
            if not self.accept("null"):
                raise ParseError("expected NULL after IS", self.peek().offset)
            return Node(OPERATOR, "is not null" if negated else "is null", (lhs,))
        return None

    def primary(self) -> Node:
        tok = self.peek()
        if tok.type == tk.NUMBER or tok.type == tk.STRING:
            self.advance()
            return Node(LITERAL, tok.text)
        if self.accept("("):
            inner = self.query_expr(is_sub=True) if self.at("select") else self.expr()
            self.expect(")")
            return inner
        if tok.type == tk.QIDENT:
            return self.name_expr()
        if tok.type == tk.IDENT:
            if tok.lower == "null":
                self.advance()
                return Node(LITERAL, tok.text)
            if tok.lower in RESERVED:
                raise ParseError(f"expected expression, found {tok.text!r}", tok.offset)
            if self.toks[self.pos + 1].lower == "(":  # the name is not EOF
                return self.function_call()
            return self.name_expr()
        raise ParseError(f"expected expression, found {tok.text or 'end of input'!r}", tok.offset)

    def function_call(self) -> Node:
        name = self.advance()
        self.expect("(")
        children: list[Node] = []
        if self.accept("distinct"):
            children.append(Node(KEYWORD, "distinct"))
        if self.accept("*"):
            children.append(Node(STAR, "*"))
        elif not self.at(")"):
            children += self.comma_list(self.expr)
        self.expect(")")
        return Node(FUNCTION, name.text, tuple(children))

    def name_expr(self) -> Node:
        first = self.expect_name()
        if self.accept("."):
            if self.accept("*"):
                return Node(COLUMN_REF, f"{first.text}.*")
            column = self.expect_name()
            return Node(COLUMN_REF, f"{first.text}.{column.text}")
        return Node(COLUMN_REF, first.text)
