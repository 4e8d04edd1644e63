"""Deterministic text rendering of syntax trees.

Keywords come out uppercase, identifiers and literals keep their raw
source spans, and parentheses are inserted exactly where precedence
requires them, so ``parse(render(tree))`` reproduces ``tree``.

``render_sql(tree, canonical=True)`` additionally lowercases identifiers,
function names, and literal keywords and normalizes quoted spans; this is
the whole-statement canonical form used by exact-match scoring. An
unqualified double-quoted column reference is the exception: SQLite may
read it as a string, so it keeps its quotes and case.
"""

from __future__ import annotations

from .nodes import (
    COLUMN_ALIAS,
    COLUMN_REF,
    FUNCTION,
    KEYWORD,
    LITERAL,
    OPERATOR,
    SET_OPS,
    STAR,
    TABLE_ALIAS,
    TABLE_REF,
    Node,
    is_query_like,
    normalize_identifier,
    split_qualified,
)

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4,
    "!=": 4,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "like": 4,
    "not like": 4,
    "in": 4,
    "not in": 4,
    "between": 4,
    "not between": 4,
    "is null": 4,
    "is not null": 4,
    "exists": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_PREDICATE_PRECEDENCE = 4  # comparisons, IN, LIKE, BETWEEN, IS NULL, EXISTS
_UNARY_PRECEDENCE = 7
_ATOM_PRECEDENCE = 9

_CLAUSE_KEYWORDS = {
    "select": "SELECT",
    "from": "FROM",
    "where": "WHERE",
    "group_by": "GROUP BY",
    "having": "HAVING",
    "order_by": "ORDER BY",
    "limit": "LIMIT",
}


def render_sql(node: Node, canonical: bool = False) -> str:
    """Render a tree back to SQL text."""
    return _Renderer(canonical).query(node)


class _Renderer:
    def __init__(self, canonical: bool) -> None:
        self.canonical = canonical

    def kw(self, text: str) -> str:
        return text.lower() if self.canonical else text.upper()

    # ------------------------------------------------------------------

    def query(self, node: Node) -> str:
        if node.kind == OPERATOR and node.text in SET_OPS:
            left, right = node.children
            return f"{self.query(left)} {self.kw(node.text)} {self.query(right)}"
        return " ".join(self.clause(child) for child in node.children)

    def clause(self, node: Node) -> str:
        keyword = self.kw(_CLAUSE_KEYWORDS[node.text])
        if node.text == "select":
            return f"{keyword} {self.select_items(node.children)}"
        if node.text == "from":
            parts = [self.table_source(node.children[0])]
            for join in node.children[1:]:
                parts.append(self.join(join))
            return f"{keyword} {' '.join(parts)}"
        if node.text in ("where", "having"):
            return f"{keyword} {self.expr(node.children[0])}"
        if node.text in ("group_by", "order_by"):
            items = ", ".join(self.expr(child) for child in node.children)
            return f"{keyword} {items}"
        if node.text == "limit":
            count = self.expr(node.children[0])
            if len(node.children) == 2:
                return f"{keyword} {count} {self.kw('OFFSET')} {self.expr(node.children[1])}"
            return f"{keyword} {count}"
        raise ValueError(f"unknown clause {node.text!r}")

    def select_items(self, children: tuple[Node, ...]) -> str:
        parts: list[str] = []
        for child in children:
            if child.kind == KEYWORD:
                parts.append(self.kw(child.text))
            elif child.kind == COLUMN_ALIAS:
                parts.append(f"{self.expr(child.children[0])} {self.kw('AS')} {self.name(child.text)},")
            else:
                parts.append(f"{self.expr(child)},")
        joined = " ".join(parts)
        return joined[:-1] if joined.endswith(",") else joined

    def join(self, node: Node) -> str:
        source = self.table_source(node.children[0])
        if node.text == ",":
            text = f", {source}"
        else:
            text = f"{self.kw(node.text)} {source}"
        if len(node.children) == 2:
            text += f" {self.kw('ON')} {self.expr(node.children[1])}"
        return text

    def table_source(self, node: Node) -> str:
        if node.kind == TABLE_ALIAS:
            return f"{self.table_source(node.children[0])} {self.kw('AS')} {self.name(node.text)}"
        if node.kind == TABLE_REF:
            return self.name(node.text)
        if is_query_like(node):
            return f"({self.query(node)})"
        raise ValueError(f"unexpected table source {node.kind!r}")

    # ------------------------------------------------------------------

    def expr(self, node: Node, parent_prec: int = 0, right_side: bool = False) -> str:
        text, prec = self.expr_with_prec(node)
        if prec < parent_prec or (right_side and prec == parent_prec):
            return f"({text})"
        return text

    def expr_with_prec(self, node: Node) -> tuple[str, int]:
        kind = node.kind
        if kind == COLUMN_REF:
            return self.column(node.text), _ATOM_PRECEDENCE
        if kind == TABLE_REF:
            return self.name(node.text), _ATOM_PRECEDENCE
        if kind == LITERAL:
            return self.literal(node.text), _ATOM_PRECEDENCE
        if kind == STAR:
            return "*", _ATOM_PRECEDENCE
        if kind == COLUMN_ALIAS:
            inner = self.expr(node.children[0])
            return f"{inner} {self.kw('AS')} {self.name(node.text)}", _ATOM_PRECEDENCE
        if kind == FUNCTION:
            name = node.text.lower() if self.canonical else node.text
            args: list[str] = []
            for child in node.children:
                if child.kind == KEYWORD:
                    args.append(self.kw(child.text) + " ")
                else:
                    args.append(self.expr(child) + ", ")
            body = "".join(args)
            if body.endswith(", "):
                body = body[:-2]
            return f"{name}({body.rstrip()})", _ATOM_PRECEDENCE
        if is_query_like(node):
            return f"({self.query(node)})", _ATOM_PRECEDENCE
        if kind == OPERATOR:
            return self.operator(node)
        raise ValueError(f"unexpected expression node {kind!r}")

    def operator(self, node: Node) -> tuple[str, int]:
        op = node.text
        children = node.children
        if op in ("asc", "desc"):
            return f"{self.expr(children[0])} {self.kw(op)}", _ATOM_PRECEDENCE
        if op == "not":
            prec = _PRECEDENCE[op]
            return f"{self.kw('NOT')} {self.expr(children[0], prec)}", prec
        if op in ("-", "+") and len(children) == 1:
            # nested unary must parenthesize: "--x" would re-tokenize as a comment
            return f"{op}{self.expr(children[0], _UNARY_PRECEDENCE + 1)}", _UNARY_PRECEDENCE
        if op == "exists":
            return f"{self.kw('EXISTS')} ({self.query(children[0])})", _PRECEDENCE[op]
        # predicates do not chain: the grammar reads each of their operands
        # as arithmetic, so a predicate operand of a predicate is parenthesized
        if op in ("is null", "is not null"):
            prec = _PRECEDENCE[op]
            return f"{self.expr(children[0], prec + 1)} {self.kw(op)}", prec
        if op in ("between", "not between"):
            prec = _PRECEDENCE[op]
            subject, low, high = children
            return (
                f"{self.expr(subject, prec + 1)} {self.kw(op)} "
                f"{self.expr(low, prec + 1)} {self.kw('AND')} {self.expr(high, prec + 1)}",
                prec,
            )
        if op in ("in", "not in"):
            prec = _PRECEDENCE[op]
            subject = self.expr(children[0], prec + 1)
            rest = children[1:]
            if len(rest) == 1 and is_query_like(rest[0]):
                return f"{subject} {self.kw(op)} ({self.query(rest[0])})", prec
            items = ", ".join(self.expr(item) for item in rest)
            return f"{subject} {self.kw(op)} ({items})", prec
        if op in SET_OPS:
            return f"({self.query(node)})", _ATOM_PRECEDENCE
        prec = _PRECEDENCE.get(op)
        if prec is None or len(children) != 2:
            raise ValueError(f"unexpected operator {op!r}")
        keyword = self.kw(op) if op.isalpha() or " " in op else op
        left = self.expr(children[0], prec + 1 if prec == _PREDICATE_PRECEDENCE else prec)
        right = self.expr(children[1], prec, right_side=True)
        return f"{left} {keyword} {right}", prec

    # ------------------------------------------------------------------

    def column(self, raw: str) -> str:
        # SQLite reads an unqualified double-quoted column that matches no
        # column as a string literal, whose case counts
        if raw.startswith('"') and split_qualified(raw)[0] is None:
            return raw
        return self.name(raw)

    def name(self, raw: str) -> str:
        if not self.canonical or raw == "*":
            return raw
        qualifier, column = split_qualified(raw)
        if qualifier is not None:
            return f"{self.name(qualifier)}.{self.name(column)}"
        normalized = normalize_identifier(raw)
        if normalized.replace("_", "a").isalnum() and not normalized[0].isdigit():
            return normalized
        return '"' + normalized.replace('"', '""') + '"'

    def literal(self, raw: str) -> str:
        if not self.canonical:
            return raw
        if raw.startswith("'"):
            return raw
        if raw and raw[0].isalpha():
            return raw.lower()  # NULL and placeholder identifiers
        return raw
