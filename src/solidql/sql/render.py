"""Deterministic text rendering of syntax trees.

Keywords come out uppercase, identifiers and literals keep their raw
source spans, and parentheses are inserted exactly where the operator
levels of :mod:`.nodes`, which the parser climbs, require them, so
``parse(render(tree))`` reproduces ``tree``. Select lists, GROUP BY and
ORDER BY items and function arguments are joined by one rule: a
leading DISTINCT or ALL, then the items separated by commas.

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
    COMPARISONS,
    FUNCTION,
    KEYWORD,
    LEFT_ASSOCIATIVE,
    LITERAL,
    NOT_LEVEL,
    OPERAND_LEVEL,
    OPERATOR,
    PREDICATE_LEVEL,
    SET_OPS,
    STAR,
    TABLE_ALIAS,
    TABLE_REF,
    UNARY_LEVEL,
    Node,
    is_query_like,
    normalize_identifier,
    split_qualified,
)

# atoms bind tighter than any operator; a sign's operand is one or is
# parenthesized, since "--x" would re-read as a comment
_ATOM_LEVEL = UNARY_LEVEL + 1


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
        keyword = self.kw(node.text.replace("_", " "))  # group_by -> GROUP BY
        if node.text in ("select", "group_by", "order_by"):
            return f"{keyword} {self.listing(node.children)}"
        if node.text == "from":
            parts = [self.expr(node.children[0])]
            for join in node.children[1:]:
                parts.append(self.join(join))
            return f"{keyword} {' '.join(parts)}"
        if node.text in ("where", "having"):
            return f"{keyword} {self.expr(node.children[0])}"
        if node.text == "limit":
            count = self.expr(node.children[0])
            if len(node.children) == 2:
                return f"{keyword} {count} {self.kw('OFFSET')} {self.expr(node.children[1])}"
            return f"{keyword} {count}"
        raise ValueError(f"unknown clause {node.text!r}")

    def listing(self, children: tuple[Node, ...]) -> str:
        """Comma-separated items, after their leading DISTINCT or ALL if any."""
        if children and children[0].kind == KEYWORD:
            keyword = self.kw(children[0].text)
            items = self.listing(children[1:])
            return f"{keyword} {items}" if items else keyword
        return ", ".join(map(self.expr, children))

    def join(self, node: Node) -> str:
        source = self.expr(node.children[0])
        if node.text == ",":
            text = f", {source}"
        else:
            text = f"{self.kw(node.text)} {source}"
        if len(node.children) == 2:
            text += f" {self.kw('ON')} {self.expr(node.children[1])}"
        return text

    # ------------------------------------------------------------------

    def expr(self, node: Node, parent_level: int = 0) -> str:
        """``node``, parenthesized if it binds more loosely than ``parent_level``."""
        text, level = self.expr_with_level(node)
        return f"({text})" if level < parent_level else text

    def expr_with_level(self, node: Node) -> tuple[str, int]:
        kind = node.kind
        if kind == COLUMN_REF:
            return self.column(node.text), _ATOM_LEVEL
        if kind == TABLE_REF:
            return self.name(node.text), _ATOM_LEVEL
        if kind == LITERAL:
            return self.literal(node.text), _ATOM_LEVEL
        if kind == STAR:
            return "*", _ATOM_LEVEL
        if kind == COLUMN_ALIAS or kind == TABLE_ALIAS:
            inner = self.expr(node.children[0])
            return f"{inner} {self.kw('AS')} {self.name(node.text)}", _ATOM_LEVEL
        if kind == FUNCTION:
            name = node.text.lower() if self.canonical else node.text
            return f"{name}({self.listing(node.children)})", _ATOM_LEVEL
        if is_query_like(node):
            return f"({self.query(node)})", _ATOM_LEVEL
        if kind == OPERATOR:
            return self.operator(node)
        raise ValueError(f"unexpected expression node {kind!r}")

    def operator(self, node: Node) -> tuple[str, int]:
        op = node.text
        children = node.children
        if op in ("asc", "desc"):
            return f"{self.expr(children[0])} {self.kw(op)}", _ATOM_LEVEL
        level = LEFT_ASSOCIATIVE.get(op)
        if level is not None and len(children) == 2:
            keyword = self.kw(op) if op.isalpha() else op
            left, right = children
            return f"{self.expr(left, level)} {keyword} {self.expr(right, level + 1)}", level
        if op == "not":
            return f"{self.kw('NOT')} {self.expr(children[0], NOT_LEVEL)}", NOT_LEVEL
        if op in ("-", "+") and len(children) == 1:
            return f"{op}{self.expr(children[0], _ATOM_LEVEL)}", UNARY_LEVEL
        return self.predicate(op, children), PREDICATE_LEVEL

    def predicate(self, op: str, children: tuple[Node, ...]) -> str:
        if op == "exists":
            return f"{self.kw('EXISTS')} ({self.query(children[0])})"
        subject = self.expr(children[0], OPERAND_LEVEL)
        if op in COMPARISONS and len(children) == 2:
            return f"{subject} {op} {self.expr(children[1], OPERAND_LEVEL)}"
        if op in ("like", "not like") and len(children) == 2:
            return f"{subject} {self.kw(op)} {self.expr(children[1], OPERAND_LEVEL)}"
        if op in ("in", "not in"):
            rest = children[1:]
            if len(rest) == 1 and is_query_like(rest[0]):
                return f"{subject} {self.kw(op)} ({self.query(rest[0])})"
            return f"{subject} {self.kw(op)} ({', '.join(map(self.expr, rest))})"
        if op in ("between", "not between"):
            _, low, high = children
            return (
                f"{subject} {self.kw(op)} "
                f"{self.expr(low, OPERAND_LEVEL)} {self.kw('AND')} {self.expr(high, OPERAND_LEVEL)}"
            )
        if op in ("is null", "is not null"):
            return f"{subject} {self.kw(op)}"
        raise ValueError(f"unexpected operator {op!r}")

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
