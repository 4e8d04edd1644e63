"""Seeded synthetic inputs for the benchmark, independent of the test suite.

Everything here is generated from integer seeds with ``random.Random``:
a schema of pseudo-word tables and columns (``tables.json``), one SQLite
database per schema, SELECT statements drawn from structure plans, a
question for each statement that names every table, column and value the
statement uses, and the scripted answers a chat model would give.

Pseudo-words are used for every identifier and text value so that no
question template word, SQL keyword or function name can collide with
the source vocabulary; the skeleton checks rely on that.
"""

from __future__ import annotations

import json
import random
import re
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

N_DATABASES = 4
TABLES_PER_DB = 4
INT_COLUMNS = 3
TEXT_COLUMNS = 3
ROWS_PER_TABLE = 80
TEXT_VALUES = 12  # distinct text values per text column
INT_RANGE = 40  # int column values lie in [1, INT_RANGE]

_ONSETS = "b d f g k l m n p r s t v z br dr gr kl pl tr".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "n", "r", "l", "s", "k"]


def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(3)
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


# ----------------------------------------------------------------------
# schema and databases
# ----------------------------------------------------------------------


@dataclass
class TableDef:
    name: str
    int_columns: list[str]
    text_columns: list[str]

    @property
    def columns(self) -> list[str]:
        return self.int_columns + self.text_columns


@dataclass
class DbDef:
    db_id: str
    tables: list[TableDef]
    text_values: dict[str, list[str]] = field(default_factory=dict)  # "t.c" -> values


@dataclass
class World:
    """The fixed schema, its databases' contents and the source vocabulary."""

    dbs: list[DbDef]

    @property
    def vocabulary(self) -> set[str]:
        words: set[str] = set()
        for db in self.dbs:
            words.add(db.db_id)
            for table in db.tables:
                words.add(table.name)
                words.update(table.columns)
            for values in db.text_values.values():
                words.update(v.lower() for v in values)
        return words


def make_world(seed: int) -> World:
    rng = random.Random(seed)
    taken: set[str] = set()
    dbs = []
    for _ in range(N_DATABASES):
        db_id = _pseudo_words(rng, 1, taken)[0]
        tables = []
        values: dict[str, list[str]] = {}
        for name in _pseudo_words(rng, TABLES_PER_DB, taken):
            ints = _pseudo_words(rng, INT_COLUMNS, taken)
            texts = _pseudo_words(rng, TEXT_COLUMNS, taken)
            tables.append(TableDef(name, ints, texts))
            for column in texts:
                values[f"{name}.{column}"] = [
                    w.capitalize() for w in _pseudo_words(rng, TEXT_VALUES, taken)
                ]
        dbs.append(DbDef(db_id, tables, values))
    return World(dbs)


def write_tables_json(world: World, path: Path) -> None:
    records = []
    for db in world.dbs:
        names = [t.name for t in db.tables]
        columns: list[list] = [[-1, "*"]]
        types = ["text"]
        for i, table in enumerate(db.tables):
            for column in table.int_columns:
                columns.append([i, column])
                types.append("number")
            for column in table.text_columns:
                columns.append([i, column])
                types.append("text")
        records.append(
            {
                "db_id": db.db_id,
                "table_names_original": names,
                "table_names": names,
                "column_names_original": columns,
                "column_names": columns,
                "column_types": types,
                "primary_keys": [],
                "foreign_keys": [],
            }
        )
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def write_databases(world: World, root: Path, seed: int) -> None:
    rng = random.Random(seed)
    for db in world.dbs:
        path = root / db.db_id / f"{db.db_id}.sqlite"
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        connection = sqlite3.connect(path)
        try:
            for table in db.tables:
                ddl = ", ".join(
                    [f"{c} integer" for c in table.int_columns]
                    + [f"{c} text" for c in table.text_columns]
                )
                connection.execute(f"CREATE TABLE {table.name} ({ddl})")
                marks = ", ".join("?" for _ in table.columns)
                rows = []
                for _ in range(ROWS_PER_TABLE):
                    row = [rng.randint(1, INT_RANGE) for _ in table.int_columns]
                    row += [
                        rng.choice(db.text_values[f"{table.name}.{c}"])
                        for c in table.text_columns
                    ]
                    rows.append(row)
                connection.executemany(f"INSERT INTO {table.name} VALUES ({marks})", rows)
            connection.commit()
        finally:
            connection.close()


def database_file(root: Path, db_id: str) -> Path:
    return root / db_id / f"{db_id}.sqlite"


# ----------------------------------------------------------------------
# statement plans
# ----------------------------------------------------------------------

AGGREGATES = ("count", "max", "min", "avg", "sum")
WHERE_OPS = ("=", "=", ">", "<", "!=", "like", "between", "in_values", "in_sub", "not_in_sub", "gt_avg")


@dataclass(frozen=True)
class Plan:
    """Structure of a statement; instantiating it fills in vocabulary."""

    items: tuple[str | None, ...]  # per select item: None, an aggregate, or "count_star"
    distinct: bool
    join: bool
    where: tuple[str, ...]
    connective: str  # "and" / "or"
    group: bool
    having: bool
    order: str | None  # None, "asc", "desc"
    order_by_count: bool
    limit: bool

    @property
    def key(self) -> str:
        return json.dumps(
            [self.items, self.distinct, self.join, self.where, self.connective,
             self.group, self.having, self.order, self.order_by_count, self.limit]
        )


def random_plan(rng: random.Random) -> Plan:
    group = rng.random() < 0.3
    n_items = rng.choice((1, 1, 2))
    items: list[str | None] = []
    for i in range(n_items):
        if group and i == 0:
            items.append(None)  # the grouping column itself
            continue
        agg = rng.choice((None, None) + AGGREGATES)
        if agg == "count" and rng.random() < 0.5:
            agg = "count_star"
        items.append(agg)
    if group and len(items) == 1:
        items.append("count_star")
    where = tuple(rng.choice(WHERE_OPS) for _ in range(rng.choice((0, 1, 1, 1, 2))))
    order = rng.choice((None, None, "asc", "desc"))
    return Plan(
        items=tuple(items),
        distinct=rng.random() < 0.15,
        join=rng.random() < 0.25,
        where=where,
        connective="or" if len(where) > 1 and rng.random() < 0.3 else "and",
        group=group,
        having=group and rng.random() < 0.5,
        order=order,
        order_by_count=order is not None and group and rng.random() < 0.5,
        limit=rng.random() < 0.3,
    )


@dataclass
class Statement:
    """One generated item: SQL, its question and what the question names."""

    db_id: str
    sql: str
    question: str
    skeleton: str  # the question with every vocabulary word and value masked
    tables: tuple[str, ...]
    columns: tuple[str, ...]  # "table.column", lowercase
    ordered: bool  # top-level ORDER BY
    plan_key: str

    @property
    def linking(self) -> str:
        return f"tables: {', '.join(self.tables)} | columns: {', '.join(self.columns)}"

    def to_item(self) -> dict:
        return {"question": self.question, "db_id": self.db_id, "query": self.sql}


class _Builder:
    """Collects SQL text, question parts and referenced names."""

    def __init__(self, rng: random.Random, db: DbDef) -> None:
        self.rng = rng
        self.db = db
        self.tables: set[str] = set()
        self.columns: set[str] = set()
        self.parts: list[tuple[str, bool]] = []  # (text, masked)

    def say(self, text: str) -> None:
        self.parts.append((text, False))

    def name(self, word: str) -> None:
        self.parts.append((word, True))

    def table(self, exclude: str | None = None) -> TableDef:
        choices = [t for t in self.db.tables if t.name != exclude]
        table = self.rng.choice(choices)
        self.tables.add(table.name)
        return table

    def column(self, table: TableDef, kind: str = "any") -> str:
        pool = {"int": table.int_columns, "text": table.text_columns}.get(kind, table.columns)
        column = self.rng.choice(pool)
        self.columns.add(f"{table.name}.{column}")
        return column

    def value(self, table: TableDef, column: str) -> str:
        if column in table.int_columns:
            return str(self.rng.randint(1, INT_RANGE))
        return "'" + self.rng.choice(self.db.text_values[f"{table.name}.{column}"]) + "'"


def instantiate(plan: Plan, db: DbDef, rng: random.Random) -> Statement:
    b = _Builder(rng, db)
    main = b.table()
    other = b.table(exclude=main.name) if plan.join else None

    def ref(table: TableDef, column: str) -> str:
        return f"{table.name}.{column}" if plan.join else column

    def pick(kind: str = "any") -> tuple[TableDef, str]:
        table = rng.choice([main, other]) if other is not None else main
        return table, b.column(table, kind)

    b.say("Show")
    select_items = []
    group_col: tuple[TableDef, str] | None = None
    for i, agg in enumerate(plan.items):
        if i:
            b.say("and")
        if agg is None:
            table, column = pick()
            if plan.group and i == 0:
                group_col = (table, column)
            select_items.append(ref(table, column))
            b.say("the")
            b.name(column)
        elif agg == "count_star":
            select_items.append("count(*)")
            b.say("the number of rows")
        else:
            table, column = pick("int" if agg in ("avg", "sum") else "any")
            select_items.append(f"{agg}({ref(table, column)})")
            b.say({"count": "the count of", "max": "the largest", "min": "the smallest",
                   "avg": "the mean", "sum": "the total"}[agg])
            b.name(column)
    sql = "SELECT " + ("DISTINCT " if plan.distinct else "") + ", ".join(select_items)
    if plan.distinct:
        b.say("without repeats")
    sql += f" FROM {main.name}"
    b.say("from")
    b.name(main.name)
    if other is not None:
        left = b.column(main, "int")
        right = b.column(other, "int")
        sql += f" JOIN {other.name} ON {main.name}.{left} = {other.name}.{right}"
        b.say("joined with")
        b.name(other.name)
        b.say("matching")
        b.name(left)
        b.say("to")
        b.name(right)

    predicates = []
    for j, op in enumerate(plan.where):
        b.say("where" if j == 0 else plan.connective)
        if op in ("in_sub", "not_in_sub", "gt_avg"):
            table, column = pick("int")
            inner = b.table()
            inner_col = b.column(inner, "int")
            if op == "gt_avg":
                predicates.append(f"{ref(table, column)} > (SELECT avg({inner_col}) FROM {inner.name})")
                b.name(column)
                b.say("exceeds the mean")
                b.name(inner_col)
                b.say("of")
                b.name(inner.name)
                continue
            filter_col = b.column(inner, "any")
            value = b.value(inner, filter_col)
            negation = "NOT IN" if op == "not_in_sub" else "IN"
            predicates.append(
                f"{ref(table, column)} {negation} (SELECT {inner_col} FROM {inner.name} "
                f"WHERE {filter_col} = {value})"
            )
            b.name(column)
            b.say("is not among" if op == "not_in_sub" else "is among")
            b.say("the")
            b.name(inner_col)
            b.say("of")
            b.name(inner.name)
            b.say("rows whose")
            b.name(filter_col)
            b.say("is")
            b.name(value)
            continue
        kind = "text" if op == "like" else ("int" if op in (">", "<", "between") else "any")
        table, column = pick(kind)
        b.name(column)
        if op == "between":
            low, high = sorted(rng.sample(range(1, INT_RANGE + 1), 2))
            predicates.append(f"{ref(table, column)} BETWEEN {low} AND {high}")
            b.say("lies between")
            b.name(str(low))
            b.say("and")
            b.name(str(high))
        elif op == "in_values":
            first, second = b.value(table, column), b.value(table, column)
            predicates.append(f"{ref(table, column)} IN ({first}, {second})")
            b.say("is one of")
            b.name(first)
            b.say("or")
            b.name(second)
        elif op == "like":
            word = rng.choice(db.text_values[f"{table.name}.{column}"])
            pattern = f"'{word[:3]}%'"
            predicates.append(f"{ref(table, column)} LIKE {pattern}")
            b.say("starts like")
            b.name(pattern)
        else:
            value = b.value(table, column)
            predicates.append(f"{ref(table, column)} {op} {value}")
            b.say({"=": "is", ">": "is above", "<": "is below", "!=": "is not"}[op])
            b.name(value)
    if predicates:
        sql += " WHERE " + f" {plan.connective.upper()} ".join(predicates)
    if plan.group:
        assert group_col is not None
        sql += f" GROUP BY {ref(*group_col)}"
        b.say("for each")
        b.name(group_col[1])
        if plan.having:
            n = rng.randint(1, 5)
            sql += f" HAVING count(*) > {n}"
            b.say("with more rows than")
            b.name(str(n))
    if plan.order:
        if plan.order_by_count:
            target = "count(*)"
            b.say("sorted by the number of rows")
        else:
            table, column = pick()
            target = ref(table, column)
            b.say("sorted by")
            b.name(column)
        sql += f" ORDER BY {target} {plan.order.upper()}"
        b.say("descending" if plan.order == "desc" else "ascending")
    if plan.limit:
        n = rng.randint(1, 9)
        sql += f" LIMIT {n}"
        b.say("keeping the first")
        b.name(str(n))
    question = " ".join(text for text, _ in b.parts) + "?"
    masked: list[str] = []
    for text, is_masked in b.parts:
        if is_masked:
            if not masked or masked[-1] != "_":
                masked.append("_")
        else:
            masked.append(text)
    return Statement(
        db_id=db.db_id,
        sql=sql,
        question=question,
        skeleton=" ".join(masked) + "?",
        tables=tuple(sorted(b.tables)),
        columns=tuple(sorted(b.columns)),
        ordered=plan.order is not None,
        plan_key=plan.key,
    )


class StatementSource:
    """Distinct, SQLite-valid statements; rejected ones are dropped."""

    def __init__(self, world: World, databases: Path, seed: int, taken: set[str] | None = None) -> None:
        self.world = world
        self.rng = random.Random(seed)
        self.taken = taken if taken is not None else set()
        self._connections = {
            db.db_id: sqlite3.connect(f"file:{database_file(databases, db.db_id)}?mode=ro", uri=True)
            for db in world.dbs
        }

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()

    def accepts(self, statement: Statement) -> bool:
        try:
            self._connections[statement.db_id].execute("EXPLAIN " + statement.sql).fetchall()
        except sqlite3.Error:
            return False
        return True

    def draw(self, plan: Plan | None = None, db_id: str | None = None) -> Statement:
        dbs = [db for db in self.world.dbs if db_id in (None, db.db_id)]
        while True:
            db = self.rng.choice(dbs)
            statement = instantiate(plan or random_plan(self.rng), db, self.rng)
            if statement.question in self.taken:
                continue
            if not self.accepts(statement):
                continue
            self.taken.add(statement.question)
            return statement


# ----------------------------------------------------------------------
# scripted chat model
# ----------------------------------------------------------------------

_QUESTION_LINE = re.compile(r"^Question: (.*)$", re.MULTILINE)


def completion_for(statement: Statement) -> str:
    """The scripted SQL-generation answer: the statement in a code fence."""
    return f"Here is the query.\n```sql\n{statement.sql}\n```"


class ScriptedChat:
    """Answers the pipeline's three prompt kinds for known questions."""

    name = "bench-scripted"

    def __init__(self, statements: list[Statement]) -> None:
        self.by_question = {s.question: s for s in statements}

    def __call__(self, request) -> str:
        prompt = request.messages[-1][1]
        found = _QUESTION_LINE.findall(prompt)
        statement = self.by_question[found[-1]]
        if "replacing every domain-specific term" in prompt:
            return statement.skeleton
        if "list the tables and columns" in prompt:
            return statement.linking
        return completion_for(statement)
