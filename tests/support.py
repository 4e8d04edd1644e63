"""Shared test helpers: independent oracles, generators, fake provider.

The oracles here deliberately avoid the production code paths: the tree
edit distance oracle enumerates valid tree mappings directly, and the
retrieval oracle re-ranks with its own cosine and its own sort. Production must agree with
them, not the other way round.
"""

from __future__ import annotations

import math
import random
import re

from solidql.gateway import ChatRequest
from solidql.retrieval import PoolItem
from solidql.sql.nodes import Node
from solidql.sql.parser import parse_sql


def pool_items(pairs):
    """(question, sql) pairs as ``build_index`` reads them, each statement parsed."""
    return (PoolItem(question, sql, parse_sql(sql)) for question, sql in pairs)


# ----------------------------------------------------------------------
# tree edit distance oracle: minimum-cost valid mapping search
# ----------------------------------------------------------------------


def oracle_tree_distance(a: Node, b: Node) -> int:
    """Exhaustive search over valid ordered-tree mappings.

    A mapping pairs nodes one-to-one, preserving ancestorship and
    left-to-right order; its cost is one per unmapped node on either
    side plus one per label mismatch. The minimum over all valid
    mappings is the edit distance. Only usable for small trees.
    """
    labels_a, anc_a = _flatten(a)
    labels_b, anc_b = _flatten(b)
    na, nb = len(labels_a), len(labels_b)
    best = na + nb  # delete everything, insert everything

    def search(ai: int, next_b: int, cost: int, mapped: list[tuple[int, int]]) -> None:
        nonlocal best
        if cost >= best:
            return
        if ai == na:
            total = cost + (nb - len(mapped))  # remaining b nodes are insertions
            if total < best:
                best = total
            return
        # Map ai to some later b node (preorder order must be preserved).
        for bj in range(next_b, nb):
            consistent = all(
                anc_a[pa][ai] == anc_b[pb][bj] for pa, pb in mapped
            )
            if not consistent:
                continue
            relabel = 0 if labels_a[ai] == labels_b[bj] else 1
            mapped.append((ai, bj))
            search(ai + 1, bj + 1, cost + relabel, mapped)
            mapped.pop()
        # Or delete ai.
        search(ai + 1, next_b, cost + 1, mapped)

    search(0, 0, 0, [])
    return best


def _flatten(root: Node) -> tuple[list[str], list[list[bool]]]:
    labels: list[str] = []
    parents: list[int] = []

    def visit(node: Node, parent: int) -> None:
        index = len(labels)
        labels.append(node.label)
        parents.append(parent)
        for child in node.children:
            visit(child, index)

    visit(root, -1)
    n = len(labels)
    anc = [[False] * n for _ in range(n)]
    for j in range(n):
        i = parents[j]
        while i != -1:
            anc[i][j] = True
            i = parents[i]
    return labels, anc


def random_tree(rng: random.Random, max_nodes: int = 8, alphabet: str = "ABC") -> Node:
    """Random ordered tree with 1..max_nodes nodes and small label set."""
    n = rng.randint(1, max_nodes)
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        children[rng.randrange(i)].append(i)
    labels = [rng.choice(alphabet) for _ in range(n)]

    def build(i: int) -> Node:
        return Node("n", labels[i], tuple(build(c) for c in children[i]))

    return build(0)


# ----------------------------------------------------------------------
# random Spider-style statement pairs
# ----------------------------------------------------------------------

_VOCAB_A = {
    "tables": ["singer", "concert", "stadium", "album"],
    "columns": ["name", "age", "capacity", "year", "country", "theme"],
    "values": ["18", "2014", "'France'", "'pop'", "100"],
}
_VOCAB_B = {
    "tables": ["employee", "shop", "hiring", "product"],
    "columns": ["title", "salary", "location", "start_from", "city", "rank"],
    "values": ["42", "1999", "'Berlin'", "'rock'", "7"],
}


def random_statement_pair(rng: random.Random) -> tuple[str, str]:
    """Two statements with identical structure, different identifiers/values."""
    plan = _StatementPlan(rng)
    return plan.render(_VOCAB_A, rng.randrange(1 << 30)), plan.render(
        _VOCAB_B, rng.randrange(1 << 30)
    )


def random_statement(rng: random.Random) -> str:
    return _StatementPlan(rng).render(_VOCAB_A, rng.randrange(1 << 30))


class _StatementPlan:
    """Structure-only plan instantiated with a concrete vocabulary."""

    def __init__(self, rng: random.Random) -> None:
        self.n_select = rng.randint(1, 2)
        self.aggregates = []
        for _ in range(self.n_select):
            agg = rng.choice([None, "count", "max", "avg"])
            if agg == "count" and rng.random() < 0.5:
                agg = "count_star"
            self.aggregates.append(agg)
        self.distinct = rng.random() < 0.2
        self.join = rng.random() < 0.3
        self.where_ops = []
        for _ in range(rng.randint(0, 2)):
            self.where_ops.append(rng.choice(["=", ">", "<", "like", "between", "in_values", "in_subquery"]))
        self.group = rng.random() < 0.3
        self.having = self.group and rng.random() < 0.5
        self.order = rng.choice([None, "asc", "desc"])
        self.order_by_count = self.order is not None and rng.random() < 0.4
        self.limit = rng.random() < 0.3

    def render(self, vocab: dict, seed: int) -> str:
        rng = random.Random(seed)
        tables = vocab["tables"]
        columns = vocab["columns"]
        values = vocab["values"]
        pick = rng.choice
        table = pick(tables)

        items = []
        for agg in self.aggregates:
            column = pick(columns)
            if agg == "count_star":
                items.append("count(*)")
            elif agg:
                items.append(f"{agg}({column})")
            else:
                items.append(column)
        sql = "SELECT "
        if self.distinct:
            sql += "DISTINCT "
        sql += ", ".join(items) + f" FROM {table}"
        if self.join:
            other = pick(tables)
            sql += f" JOIN {other} ON {table}.{pick(columns)} = {other}.{pick(columns)}"
        if self.where_ops:
            predicates = []
            for op in self.where_ops:
                column = pick(columns)
                if op == "between":
                    predicates.append(f"{column} BETWEEN {pick(values)} AND {pick(values)}")
                elif op == "in_values":
                    predicates.append(f"{column} IN ({pick(values)}, {pick(values)})")
                elif op == "in_subquery":
                    predicates.append(
                        f"{column} IN (SELECT {pick(columns)} FROM {pick(tables)} "
                        f"WHERE {pick(columns)} = {pick(values)})"
                    )
                elif op == "like":
                    predicates.append(f"{column} LIKE {pick(values)}")
                else:
                    predicates.append(f"{column} {op} {pick(values)}")
            sql += " WHERE " + " AND ".join(predicates)
        if self.group:
            sql += f" GROUP BY {pick(columns)}"
            if self.having:
                sql += f" HAVING count(*) > {rng.randint(1, 9)}"
        if self.order:
            target = "count(*)" if self.order_by_count else pick(columns)
            sql += f" ORDER BY {target} {self.order.upper()}"
        if self.limit:
            sql += f" LIMIT {rng.randint(1, 9)}"
        return sql


# ----------------------------------------------------------------------
# random expression-heavy statements, well-formed and malformed
# ----------------------------------------------------------------------

_ATOMS = ["a", "b", "t.c", "u.*", "1", "2.5", "'x'", "NULL", '"q"', "count(*)", "count(DISTINCT a)",
          "count(DISTINCT)", "max(a)", "f()", "coalesce(a, b, 1)"]
# words spliced into a statement to make it (most likely) malformed
_STRAY = ["NOT", "-", "+", "*", "/", "%", "=", "<>", "<", ">=", "AND", "OR", "(", ")", ",", "IN", "LIKE",
          "BETWEEN", "IS", "NULL", "EXISTS", "SELECT", "DISTINCT", "AS", "a", "1"]


def random_expression_statement(rng: random.Random) -> str:
    """A statement whose select list, WHERE and ORDER BY are random expressions.

    Mixes NOT, unary signs, predicates, arithmetic and parentheses. Each
    subexpression is drawn for its place in the grammar (a condition, or
    an arithmetic operand), but one in ten is drawn for the other place,
    and half the statements get a run of stray words spliced in or a
    word deleted or swapped, so many statements are malformed.
    """

    def condition(depth: int) -> str:
        roll = rng.random()
        if depth == 0 or roll < 0.1:
            return arithmetic(depth)
        if roll < 0.3:
            return predicate(depth)
        d = depth - 1
        if roll < 0.55:
            return f"{condition(d)} {rng.choice(['AND', 'OR'])} {condition(d)}"
        if roll < 0.7:
            return f"NOT {condition(d)}"
        if roll < 0.8:
            return f"({condition(d)})"
        return arithmetic(depth)

    def predicate(depth: int) -> str:
        d = depth - 1
        negated = rng.choice(["", "NOT "])
        return rng.choice([
            f"{arithmetic(d)} {rng.choice(['=', '!=', '<>', '<', '>', '<=', '>='])} {arithmetic(d)}",
            f"{arithmetic(d)} {negated}BETWEEN {arithmetic(d)} AND {arithmetic(d)}",
            f"{arithmetic(d)} {negated}IN ({', '.join(condition(d) for _ in range(rng.randint(1, 3)))})",
            f"{arithmetic(d)} {negated}IN (SELECT a FROM u)",
            f"{arithmetic(d)} {negated}LIKE {arithmetic(d)}",
            f"{arithmetic(d)} IS {negated}NULL",
            f"{negated}EXISTS (SELECT 1 FROM u WHERE {condition(d)})",
        ])

    def arithmetic(depth: int) -> str:
        roll = rng.random()
        if roll < 0.1 and depth > 0:
            return condition(depth - 1)
        if depth == 0 or roll < 0.4:
            return rng.choice(_ATOMS)
        d = depth - 1
        if roll < 0.7:
            return f"{arithmetic(d)} {rng.choice('+-*/%')} {arithmetic(d)}"
        if roll < 0.85:
            return f"{rng.choice('-+')}{rng.choice(['', ' '])}{arithmetic(d)}"
        return f"({condition(d)})"

    items = ", ".join(arithmetic(3) + rng.choice(["", "", " AS y", " y"]) for _ in range(rng.randint(1, 2)))
    sql = f"SELECT {rng.choice(['', 'DISTINCT '])}{items} FROM t{rng.choice(['', ' AS v', ' v'])}"
    sql += f" WHERE {condition(3)}"
    if rng.random() < 0.3:
        sql += f" ORDER BY {arithmetic(2)} {rng.choice(['ASC', 'DESC'])}, {condition(1)}"
    if rng.random() < 0.5:
        words = sql.split(" ")
        at = rng.randrange(len(words))
        edit = rng.choice(["insert", "delete", "swap"])
        if edit == "insert":
            words[at:at] = rng.choices(_STRAY, k=rng.randint(1, 3))
        elif edit == "delete":
            del words[at]
        else:
            words[at - 1], words[at] = words[at], words[at - 1]
        sql = " ".join(words)
    return sql


def label_lower_bounds(a, bags):
    """max(|A|, |B|) − |A ∩ B| of one tree's ``LabelBags`` bag A against
    each bag B of ``bags``, in order, over the bits they share: round 2's
    label-multiset bound (Kailing et al., EDBT 2004), pair by pair."""
    bits = set(a.bits)
    return [max(a.size, b.size) - len(bits.intersection(b.bits)) for b in bags]


# ----------------------------------------------------------------------
# retrieval oracle
# ----------------------------------------------------------------------


def brute_force_question_ranking(target_vector, pool, n, exclude_question=None):
    """Independent full scan: (similarity desc, pool_index asc) ordering;
    an entry whose cosine is undefined (a zero-norm side) is skipped. A
    vector whose squared norm is outside [2**-511, 2**511], though not all
    zeros, is first scaled by a power of two, as cosines are scale-free."""
    ranked = []
    target_vector = power_of_two_scaled(target_vector)
    target_norm = math.sqrt(sum(a * a for a in target_vector))
    for pair in pool:
        if exclude_question is not None and pair.question == exclude_question:
            continue
        row = power_of_two_scaled(pair.q_embedding)
        norm = math.sqrt(sum(b * b for b in row))
        if target_norm == 0.0 or norm == 0.0:
            continue
        dot = sum(a * b for a, b in zip(target_vector, row))
        ranked.append((dot / (target_norm * norm), pair.pool_index))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return [idx for _, idx in ranked[:n]]


def power_of_two_scaled(vector):
    """``vector``, times the power of two that brings its largest magnitude
    into [0.5, 1) if its squared norm is outside [2**-511, 2**511] and some
    value is not zero."""
    if 2.0**-511 <= sum(v * v for v in vector) <= 2.0**511 or all(v == 0.0 for v in vector):
        return list(vector)
    exponent = math.frexp(max(abs(v) for v in vector))[1]
    return [math.ldexp(v, -exponent) for v in vector]


def brute_force_sql_ranking(distances, n, excluded_indices=()):
    """Independent ranking over precomputed (pool_index, distance)."""
    ranked = [
        (distance, idx) for idx, distance in distances if idx not in excluded_indices
    ]
    ranked.sort()
    return [idx for _, idx in ranked[:n]]


# ----------------------------------------------------------------------
# deterministic chat provider
# ----------------------------------------------------------------------


class FakeChatProvider:
    """Scripted provider keyed on the prompt's embedded question.

    ``generations`` maps a question to the SQL returned for it; a list
    value is consumed round by round. ``skeletons`` and ``linkings``
    answer the masking and linking prompts; ``rewrites`` the
    augmentation prompt.
    """

    name = "fake"

    def __init__(self, generations=None, skeletons=None, linkings=None, rewrites=None):
        self.generations = dict(generations or {})
        self.skeletons = dict(skeletons or {})
        self.linkings = dict(linkings or {})
        self.rewrites = dict(rewrites or {})
        self.calls: list[str] = []
        self.prompts: list[str] = []
        self._generation_round: dict[str, int] = {}

    def __call__(self, request: ChatRequest) -> str:
        prompt = request.messages[-1][1]
        self.prompts.append(prompt)
        question = self._question_of(prompt)
        if "Rewrite the question below twice" in prompt:
            self.calls.append("rewrite")
            first, second = self.rewrites.get(
                question, (f"{question} (restructured)", f"{question} (synonyms)")
            )
            return f"1. {first}\n2. {second}"
        if "replacing every domain-specific term" in prompt:
            self.calls.append("skeleton")
            return self.skeletons.get(question, "_")
        if "list the tables and columns" in prompt:
            self.calls.append("linking")
            return self.linkings.get(question, "tables:  | columns: ")
        self.calls.append("generate")
        answer = self.generations.get(question)
        if answer is None:
            return "SELECT 1"
        if isinstance(answer, str):
            return answer
        turn = self._generation_round.get(question, 0)
        self._generation_round[question] = turn + 1
        return answer[min(turn, len(answer) - 1)]

    @staticmethod
    def _question_of(prompt: str) -> str:
        matches = re.findall(r"^Question: (.*)$", prompt, flags=re.MULTILINE)
        return matches[-1] if matches else ""
