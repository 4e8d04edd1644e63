"""Ground-truth schema subset extraction from parsed SQL.

Walks a statement and collects every base table plus every
table-qualified column it touches (SELECT, WHERE, JOIN ON, GROUP BY,
HAVING, ORDER BY), resolving names per (sub)query scope against the
database schema. ``SELECT *`` and bare ``COUNT(*)`` contribute, for each
FROM source in scope, what ``*`` over it contributes: over a base table,
its ``<table>.*`` pseudo-column, not its columns; over a subquery, every
column the subquery exports plus what ``*`` contributes over each of its
own FROM sources. So ``count(*)`` over ``(SELECT * FROM t)`` labels
``t.*`` and every column of ``t``, since that subquery's ``*`` exports
them all.

A scope's FROM sources, base tables and subqueries aliased or not, are
one list of ``_Source`` records. Names resolve against its base tables,
then its subqueries, each in FROM order, then its select aliases, then
the enclosing scope. A select alias is not visible inside its own
expansion, so an alias that names itself, or aliases that name each
other, resolve past it. A FROM subquery sees the enclosing scope, not its
sibling sources.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ResolutionError
from ..schema import DatabaseSchema, SchemaSubset
from .nodes import (
    COLUMN_ALIAS,
    COLUMN_REF,
    JOIN,
    KEYWORD,
    LITERAL,
    OPERATOR,
    STAR,
    TABLE_ALIAS,
    TABLE_REF,
    Node,
    is_query_like,
    normalize_identifier,
    split_qualified,
)


def extract_schema_refs(ast: Node, schema: DatabaseSchema) -> SchemaSubset:
    """Extract the referenced tables and columns of a statement.

    Raises:
        ResolutionError: when an identifier matches no schema element and
            is not an alias in any enclosing scope.
    """
    extractor = _RefExtractor(schema)
    extractor.visit_query(ast, None)
    return SchemaSubset.build(extractor.tables, extractor.columns)


class _Source(NamedTuple):
    """One FROM source, a base table or a subquery."""

    names: tuple[str, ...]  # qualifiers: a table's name and alias, a subquery's alias
    columns: dict[str, set[str]]  # lowercase name -> refs: a table's columns, a subquery's exports
    star: set[str]  # ``*`` over it: ``<table>.*``, or exports plus its own sources' stars


class _Scope:
    def __init__(self, parent: "_Scope | None") -> None:
        self.parent = parent
        self.sources: list[_Source] = []  # base tables, then subqueries, each in FROM order
        self.select_aliases: dict[str, Node] = {}
        self.expanding: set[str] = set()  # select aliases whose expressions are being resolved


class _RefExtractor:
    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.tables: set[str] = set()
        self.columns: set[str] = set()

    def visit_query(self, node: Node, parent: _Scope | None,
                    names: tuple[str, ...] | None = None) -> _Source | None:
        """Visit a query; given the ``names`` of a FROM subquery, return it as a source."""
        if node.kind == OPERATOR:  # set operation; exports come from the first operand
            source = self.visit_query(node.children[0], parent, names)
            self.visit_query(node.children[1], parent)
            return source
        scope = _Scope(parent)
        select = node.clause("select")
        items = [] if select is None else [i for i in select.children if i.kind != KEYWORD]
        for item in items:
            if item.kind == COLUMN_ALIAS:
                scope.select_aliases[normalize_identifier(item.text)] = item.children[0]
        self.add_sources(node, scope)
        for clause in node.children:
            if clause.text == "select":
                for item in items:
                    self.visit_expr(item, scope)
            elif clause.text == "from":
                for child in clause.children:
                    if child.kind == JOIN and len(child.children) == 2:
                        self.visit_expr(child.children[1], scope)
            elif clause.text in ("where", "having", "group_by", "order_by"):
                for child in clause.children:
                    self.visit_expr(child, scope)
        return None if names is None else self.derive(names, items, scope)

    def add_sources(self, node: Node, scope: _Scope) -> None:
        """Fill ``scope.sources`` from the FROM clause."""
        tables: list[_Source] = []
        subqueries: list[_Source] = []
        from_clause = node.clause("from")
        for child in () if from_clause is None else from_clause.children:
            source = child.children[0] if child.kind == JOIN else child
            names: tuple[str, ...] = ()
            if source.kind == TABLE_ALIAS:
                names = (normalize_identifier(source.text),)
                source = source.children[0]
            if source.kind == TABLE_REF:
                tables.append(self.table_source(source, names))
            else:  # the parser allows only a subquery here
                subqueries.append(self.visit_query(source, scope.parent, names))
        scope.sources = tables + subqueries

    def table_source(self, ref: Node, alias: tuple[str, ...]) -> _Source:
        name = normalize_identifier(ref.text)
        table = self.schema.table(name)
        if table is None:
            raise ResolutionError(f"unknown table {ref.text!r} in FROM")
        self.tables.add(name)
        columns = {c.name.lower(): {f"{name}.{c.name.lower()}"} for c in table.columns}
        return _Source((name, *alias), columns, {f"{name}.*"})

    def derive(self, names: tuple[str, ...], items: list[Node], scope: _Scope) -> _Source:
        """A subquery as a source: the columns its select list exports; a
        ``*`` exports those of each of its own FROM sources."""
        exports: dict[str, set[str]] = {}
        for item in items:
            if item.kind in (COLUMN_ALIAS, COLUMN_REF):
                name = item.text if item.kind == COLUMN_ALIAS else split_qualified(item.text)[1]
                exports[normalize_identifier(name)] = self.collect_columns(item, scope)
            elif item.kind == STAR:
                for source in scope.sources:
                    for name, refs in source.columns.items():
                        exports.setdefault(name, set()).update(refs)
        star = set().union(*exports.values(), *(source.star for source in scope.sources))
        return _Source(names, exports, star)

    def visit_expr(self, node: Node, scope: _Scope) -> None:
        self.columns |= self.collect_columns(node, scope)

    def collect_columns(self, node: Node, scope: _Scope) -> set[str]:
        """Resolve every column contribution inside an expression."""
        out: set[str] = set()
        self._collect(node, scope, out)
        return out

    def _collect(self, node: Node, scope: _Scope, out: set[str]) -> None:
        kind = node.kind
        if kind == COLUMN_REF:
            out |= self.resolve_column(node.text, scope)
            return
        if kind == STAR:
            for source in scope.sources:
                out |= source.star
            return
        if kind == LITERAL or kind == KEYWORD or kind == TABLE_REF:
            return
        if is_query_like(node):
            self.visit_query(node, scope)
            return
        for child in node.children:
            self._collect(child, scope, out)

    def resolve_column(self, raw: str, scope: _Scope) -> set[str]:
        qualifier, column = split_qualified(raw)
        name = normalize_identifier(column)
        if qualifier is not None:
            return self.resolve_qualified(normalize_identifier(qualifier), name, raw, scope)
        return self.resolve_bare(name, raw, scope)

    def resolve_qualified(self, qualifier: str, name: str, raw: str, scope: _Scope) -> set[str]:
        current: _Scope | None = scope
        while current is not None:
            for source in current.sources:
                if qualifier in source.names:
                    if name == "*":
                        return source.star
                    if name not in source.columns:
                        raise ResolutionError(f"column {raw!r} not in source {qualifier!r}")
                    return source.columns[name]
            current = current.parent
        raise ResolutionError(f"unknown qualifier in column {raw!r}")

    def resolve_bare(self, name: str, raw: str, scope: _Scope) -> set[str]:
        current: _Scope | None = scope
        while current is not None:
            for source in current.sources:
                if name in source.columns:
                    return source.columns[name]
            if name in current.select_aliases and name not in current.expanding:
                current.expanding.add(name)
                try:
                    return self.collect_columns(current.select_aliases[name], current)
                finally:
                    current.expanding.discard(name)
            current = current.parent
        raise ResolutionError(f"unknown column {raw!r}")
