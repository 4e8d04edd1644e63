"""Recursive-descent parser for the SQLite-compatible SELECT subset.

Covers the surface used by the Spider family of benchmarks: SELECT with
DISTINCT, FROM with JOIN ... ON chains and derived tables, WHERE with
AND/OR/NOT, comparison / IN / LIKE / BETWEEN / IS NULL / EXISTS
predicates, arithmetic, aggregates, aliases, GROUP BY, HAVING,
ORDER BY with directions, LIMIT/OFFSET, nested subqueries, and
UNION / UNION ALL / INTERSECT / EXCEPT.

The produced tree is rendered back to text by :mod:`.render`; parsing the
rendering yields a structurally identical tree.
"""

from __future__ import annotations

from ..errors import ParseError
from . import tokens as tk
from .nodes import (
    CLAUSE,
    COLUMN_ALIAS,
    COLUMN_REF,
    FUNCTION,
    JOIN,
    KEYWORD,
    LITERAL,
    OPERATOR,
    QUERY,
    STAR,
    SUBQUERY,
    TABLE_ALIAS,
    TABLE_REF,
    Node,
)

# Words that can never be used as a bare (AS-less) alias.
RESERVED = frozenset(
    """select from where group by having order limit offset join inner left
    right full outer cross natural on as and or not in like between is null
    exists union intersect except distinct all asc desc case when then else
    end""".split()
)

_COMPARISONS = ("=", "!=", "<>", "<", ">", "<=", ">=")

_JOIN_WORDS = {
    "join": "join",
    "inner": "inner join",
    "left": "left join",
    "right": "right join",
    "full": "full join",
    "cross": "cross join",
}


def parse_sql(text: str) -> Node:
    """Parse a single SELECT statement into a syntax tree.

    Raises:
        ParseError: on malformed input, with the byte offset of the
            offending token.
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
        node = self.select_core(is_sub)
        while self.at("union", "intersect", "except"):
            word = self.advance().lower
            if word == "union" and self.accept("all"):
                word = "union all"
            right = self.select_core(is_sub)
            node = Node(OPERATOR, word, (node, right))
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
        children.append(self.select_item())
        while self.accept(","):
            children.append(self.select_item())
        return Node(CLAUSE, "select", tuple(children))

    def select_item(self) -> Node:
        if self.accept("*"):
            return Node(STAR, "*")
        item = self.expr()
        if self.accept("as"):
            alias = self.expect_name()
            return Node(COLUMN_ALIAS, alias.text, (item,))
        tok = self.peek()
        if tok.type == tk.IDENT and tok.lower not in RESERVED:
            self.advance()
            return Node(COLUMN_ALIAS, tok.text, (item,))
        return item

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
        if self.peek().lower not in _JOIN_WORDS:
            return None
        word = self.advance().lower
        if word == "join":
            return "join"
        connective = _JOIN_WORDS[word]
        if word in ("left", "right", "full") and self.accept("outer"):
            connective = f"{word} outer join"
        self.expect("join")
        return connective

    def table_source(self) -> Node:
        if self.accept("("):
            if not self.at("select"):
                raise ParseError("expected SELECT in derived table", self.peek().offset)
            inner = self.query_expr(is_sub=True)
            self.expect(")")
            return self.maybe_table_alias(inner)
        name = self.expect_name()
        return self.maybe_table_alias(Node(TABLE_REF, name.text))

    def maybe_table_alias(self, source: Node) -> Node:
        if self.accept("as"):
            alias = self.expect_name()
            return Node(TABLE_ALIAS, alias.text, (source,))
        tok = self.peek()
        if tok.type == tk.IDENT and tok.lower not in RESERVED:
            self.advance()
            return Node(TABLE_ALIAS, tok.text, (source,))
        return source

    def group_by_clause(self) -> Node:
        self.expect("group")
        self.expect("by")
        items = [self.expr()]
        while self.accept(","):
            items.append(self.expr())
        return Node(CLAUSE, "group_by", tuple(items))

    def order_by_clause(self) -> Node:
        self.expect("order")
        self.expect("by")
        items = [self.order_item()]
        while self.accept(","):
            items.append(self.order_item())
        return Node(CLAUSE, "order_by", tuple(items))

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

    def expr(self) -> Node:
        return self.or_expr()

    def or_expr(self) -> Node:
        node = self.and_expr()
        while self.accept("or"):
            node = Node(OPERATOR, "or", (node, self.and_expr()))
        return node

    def and_expr(self) -> Node:
        node = self.not_expr()
        while self.accept("and"):
            node = Node(OPERATOR, "and", (node, self.not_expr()))
        return node

    def not_expr(self) -> Node:
        if self.accept("not"):
            return Node(OPERATOR, "not", (self.not_expr(),))
        return self.predicate()

    def predicate(self) -> Node:
        if self.accept("exists"):
            self.expect("(")
            inner = self.query_expr(is_sub=True)
            self.expect(")")
            return Node(OPERATOR, "exists", (inner,))
        lhs = self.arith()
        tok = self.peek()
        if tok.lower in _COMPARISONS:
            self.advance()
            op = "!=" if tok.text == "<>" else tok.text
            return Node(OPERATOR, op, (lhs, self.arith()))
        negated = self.accept("not") is not None
        if self.accept("between"):
            low = self.arith()
            self.expect("and")
            high = self.arith()
            return Node(OPERATOR, "not between" if negated else "between", (lhs, low, high))
        if self.accept("in"):
            return self.in_predicate(lhs, negated)
        if self.accept("like"):
            op = "not like" if negated else "like"
            return Node(OPERATOR, op, (lhs, self.arith()))
        if negated:
            raise ParseError("expected BETWEEN, IN or LIKE after NOT", self.peek().offset)
        if self.accept("is"):
            negated = self.accept("not") is not None
            if not self.accept("null"):
                raise ParseError("expected NULL after IS", self.peek().offset)
            return Node(OPERATOR, "is not null" if negated else "is null", (lhs,))
        return lhs

    def in_predicate(self, lhs: Node, negated: bool) -> Node:
        op = "not in" if negated else "in"
        self.expect("(")
        if self.at("select"):
            inner = self.query_expr(is_sub=True)
            self.expect(")")
            return Node(OPERATOR, op, (lhs, inner))
        items = [self.expr()]
        while self.accept(","):
            items.append(self.expr())
        self.expect(")")
        return Node(OPERATOR, op, (lhs, *items))

    def arith(self) -> Node:
        node = self.term()
        while self.at("+", "-"):
            op = self.advance().text
            node = Node(OPERATOR, op, (node, self.term()))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at("*", "/", "%"):
            op = self.advance().text
            node = Node(OPERATOR, op, (node, self.factor()))
        return node

    def factor(self) -> Node:
        if self.at("-", "+"):
            op = self.advance().text
            return Node(OPERATOR, op, (self.factor(),))
        return self.primary()

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
            children.append(self.expr())
            while self.accept(","):
                children.append(self.expr())
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
