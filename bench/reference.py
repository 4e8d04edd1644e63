"""Independent references and output checkers for the benchmark.

Nothing here calls the program's distance, ranking, embedding or scoring
code. The references follow the documented rules:

* round 2: ordered-tree edit distance with unit costs (Zhang & Shasha
  1989), ranked by (distance, pool index);
* round 1: cosine similarity of md5-bucket token counts, ranked by
  (-similarity, pool index), zero vectors skipped;
* EX: result rows compared as a multiset of value-sorted rows, in order
  only when the gold statement has a top-level ORDER BY, numbers rounded
  to 6 decimals; EM: equality after lowercasing outside string literals,
  collapsing whitespace and dropping a trailing semicolon;
* robustness: both statements execute and the perturbed result matches
  the clean one under the clean statement's ordering.

Each ``check_*`` function returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sqlite3
from pathlib import Path
from typing import Iterable, Sequence

DIMENSION = 256
TOKEN = re.compile(r"[a-z0-9_]+")
WORD = re.compile(r"[A-Za-z0-9_]+")


# ----------------------------------------------------------------------
# tree edit distance
# ----------------------------------------------------------------------


class Tree:
    """A labelled ordered tree flattened to postorder arrays."""

    __slots__ = ("labels", "lml", "keyroots")

    def __init__(self, root) -> None:
        labels: list[str] = []
        lml: list[int] = []
        stack = [(root, False)]
        first_leaf: list[int] = []  # per open node: leftmost leaf seen so far, or -1
        while stack:
            node, done = stack.pop()
            if done:
                index = len(labels)
                leaf = first_leaf.pop()
                labels.append(label_of(node))
                lml.append(index if leaf == -1 else leaf)
                if first_leaf and first_leaf[-1] == -1:
                    first_leaf[-1] = lml[index]
                continue
            stack.append((node, True))
            first_leaf.append(-1)
            for child in reversed(node.children):
                stack.append((child, False))
        self.labels = labels
        self.lml = lml
        last_for_leaf: dict[int, int] = {}
        for i, leaf in enumerate(lml):
            last_for_leaf[leaf] = i  # highest postorder index sharing a leftmost leaf
        self.keyroots = sorted(last_for_leaf.values())


def label_of(node) -> str:
    return f"{node.kind}:{node.text}"


def tree_distance(a: Tree, b: Tree) -> int:
    """Unit-cost ordered-tree edit distance (Zhang–Shasha)."""
    na, nb = len(a.labels), len(b.labels)
    td = [[0] * nb for _ in range(na)]
    for i in a.keyroots:
        for j in b.keyroots:
            li, lj = a.lml[i], b.lml[j]
            rows, cols = i - li + 2, j - lj + 2
            fd = [[0] * cols for _ in range(rows)]
            for x in range(1, rows):
                fd[x][0] = x
            for y in range(1, cols):
                fd[0][y] = y
            for x in range(1, rows):
                ai = li + x - 1
                lai = a.lml[ai]
                for y in range(1, cols):
                    bj = lj + y - 1
                    lbj = b.lml[bj]
                    if lai == li and lbj == lj:
                        cost = 0 if a.labels[ai] == b.labels[bj] else 1
                        value = min(fd[x - 1][y] + 1, fd[x][y - 1] + 1, fd[x - 1][y - 1] + cost)
                        td[ai][bj] = value
                    else:
                        value = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[lai - li][lbj - lj] + td[ai][bj],
                        )
                    fd[x][y] = value
    return td[na - 1][nb - 1]


def rank_by_distance(target: Tree, pool: Sequence[Tree], n: int) -> list[int]:
    scored = sorted((tree_distance(target, tree), index) for index, tree in enumerate(pool))
    return [index for _, index in scored[:n]]


# ----------------------------------------------------------------------
# hashed bag of tokens and cosine ranking
# ----------------------------------------------------------------------


def bucket_counts(text: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for token in TOKEN.findall(text.lower()):
        bucket = int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:4], "big") % DIMENSION
        counts[bucket] = counts.get(bucket, 0) + 1
    return counts


def dense(counts: dict[int, int]) -> list[float]:
    vector = [0.0] * DIMENSION
    for bucket, count in counts.items():
        vector[bucket] = float(count)
    return vector


def rank_by_cosine(target: str, pool_texts: Sequence[str], n: int) -> list[int]:
    u = bucket_counts(target)
    norm_u = sum(c * c for c in u.values())
    scored = []
    for index, text in enumerate(pool_texts):
        v = bucket_counts(text)
        norm_v = sum(c * c for c in v.values())
        if not norm_u or not norm_v:
            continue
        dot = sum(c * v.get(b, 0) for b, c in u.items())
        scored.append((-(dot / math.sqrt(float(norm_u * norm_v))), index))
    scored.sort()
    return [index for _, index in scored[:n]]


# ----------------------------------------------------------------------
# execution verdicts
# ----------------------------------------------------------------------


def run_query(db: Path, sql: str) -> list[tuple] | None:
    """Rows of a statement on a read-only connection; None when it fails."""
    connection = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        return connection.execute(sql).fetchall()
    except sqlite3.Error:
        return None
    finally:
        connection.close()


def _value_key(value) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, round(float(value), 6))
    if isinstance(value, bytes):
        return (3, value.hex())
    return (2, str(value))


def results_match(pred: list[tuple], gold: list[tuple], ordered: bool) -> bool:
    if pred and gold and len(pred[0]) != len(gold[0]):
        return False
    p = [tuple(sorted(_value_key(v) for v in row)) for row in pred]
    g = [tuple(sorted(_value_key(v) for v in row)) for row in gold]
    return p == g if ordered else sorted(p) == sorted(g)


def normalized_sql(sql: str) -> str:
    parts = re.split(r"('(?:[^']|'')*')", sql.strip())
    text = "".join(part if part.startswith("'") else part.lower() for part in parts)
    text = " ".join(text.split())
    return text.rstrip(";").strip()


def ex_em_verdict(db: Path, gold: str, pred: str, gold_ordered: bool) -> tuple[bool, bool]:
    gold_rows = run_query(db, gold)
    if gold_rows is None:
        raise ValueError(f"gold statement does not execute: {gold}")
    pred_rows = run_query(db, pred)
    ex = pred_rows is not None and results_match(pred_rows, gold_rows, gold_ordered)
    return ex, normalized_sql(pred) == normalized_sql(gold)


def robustness_verdict(db: Path, clean: str, perturbed: str, clean_ordered: bool) -> bool:
    clean_rows = run_query(db, clean)
    perturbed_rows = run_query(db, perturbed)
    if clean_rows is None or perturbed_rows is None:
        return False
    return results_match(perturbed_rows, clean_rows, clean_ordered)


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------


def check_replay_results(results: Sequence[dict], expected: Sequence[dict], rounds: int) -> list[str]:
    """Per-item fields of ``solidql run`` output against the scripted answers.

    ``expected`` rows carry question, db_id, sql, skeleton and linking.
    """
    problems = []
    if len(results) != len(expected):
        problems.append(f"{len(results)} results for {len(expected)} items")
    for i, (got, want) in enumerate(zip(results, expected)):
        wanted = {
            "question": want["question"],
            "db_id": want["db_id"],
            "final_sql": want["sql"],
            "round1_sql": want["sql"],
            "round2_sql": want["sql"] if rounds == 2 else "",
            "q_skeleton": want["skeleton"],
            "linked": want["linking"],
            "flags": [],
        }
        for key, value in wanted.items():
            if got.get(key) != value:
                problems.append(f"item {i}: {key} is {got.get(key)!r}, expected {value!r}")
    return problems


def prompt_examples(user_prompt: str) -> list[str]:
    """Example questions of a generation prompt, in prompt order."""
    if not user_prompt.startswith("Examples:\n"):
        return []
    section = user_prompt.split("\n\n", 1)[0]
    return [line[3:] for line in section.splitlines() if line.startswith("Q: ")]


def generation_prompts(transcript_lines: Iterable[str]) -> dict[str, list[list[str]]]:
    """Example lists of every recorded generation request, by question."""
    by_question: dict[str, list[list[str]]] = {}
    for line in transcript_lines:
        if not line.strip():
            continue
        messages = json.loads(line)["request"]["messages"]
        if messages[0]["role"] != "system":
            continue  # linking and masking requests carry no examples
        user = messages[-1]["content"]
        question = re.findall(r"^Question: (.*)$", user, flags=re.MULTILINE)[-1]
        by_question.setdefault(question, []).append(prompt_examples(user))
    return by_question


def check_examples(
    recorded: dict[str, list[list[str]]],
    question: str,
    expected: Sequence[Sequence[str]],
) -> list[str]:
    """The recorded generation prompts of one question carry exactly the
    expected example lists (one per round; equal lists share one prompt)."""
    got = sorted(recorded.get(question, []))
    want = sorted({tuple(e): list(e) for e in expected}.values())
    if got != want:
        return [f"examples for {question[:50]!r}: recorded {got}, expected {want}"]
    return []


def check_eval_report(report_lines: Sequence[str], expected: Sequence[dict]) -> list[str]:
    """``solidql eval`` report: summary line plus one verdict line per item."""
    problems = []
    summary = json.loads(report_lines[0])
    records = [json.loads(line) for line in report_lines[1:] if line.strip()]
    if summary.get("excluded") != 0:
        problems.append(f"report excludes {summary.get('excluded')} items")
    if len(records) != len(expected):
        return problems + [f"{len(records)} report records for {len(expected)} items"]
    for i, (got, want) in enumerate(zip(records, expected)):
        for key in ("ex", "em"):
            if got[key] != want[key]:
                problems.append(f"item {i}: {key} is {got[key]}, expected {want[key]}")
        if got["question"] != want["question"]:
            problems.append(f"item {i}: question out of order")
    n = len(expected)
    for key, pct in (("ex", "ex_pct"), ("em", "em_pct")):
        want_pct = 100.0 * sum(w[key] for w in expected) / n
        if abs(summary[pct] - want_pct) > 1e-9:
            problems.append(f"{pct} is {summary[pct]}, expected {want_pct}")
    return problems


def check_robustness(verdicts: Sequence[bool], expected: Sequence[bool], printed_rate: str | None) -> list[str]:
    problems = [
        f"robustness item {i}: {got}, expected {want}"
        for i, (got, want) in enumerate(zip(verdicts, expected))
        if got != want
    ]
    if len(verdicts) != len(expected):
        problems.append(f"{len(verdicts)} robustness verdicts for {len(expected)} items")
    want_rate = f"{100.0 * sum(expected) / len(expected):.1f}"
    if printed_rate != want_rate:
        problems.append(f"printed robustness rate {printed_rate}, expected {want_rate}")
    return problems


def check_index(
    index_lines: Sequence[str],
    pool: Sequence[dict],
    plan_keys: Sequence[str],
    vocabulary: set[str],
) -> list[str]:
    """A written index against its pool: order, embeddings, masking, structure."""
    problems = []
    header = json.loads(index_lines[0])
    if header.get("dimension") != DIMENSION:
        problems.append(f"index dimension {header.get('dimension')}")
    records = [json.loads(line) for line in index_lines[1:] if line.strip()]
    if len(records) != len(pool):
        return problems + [f"{len(records)} index entries for {len(pool)} pool items"]
    skeleton_of_plan: dict[str, str] = {}
    for i, (record, item, plan) in enumerate(zip(records, pool, plan_keys)):
        if (record["pool_index"], record["question"], record["sql"]) != (i, item["question"], item["query"]):
            problems.append(f"entry {i} does not match pool item {i}")
        if record["q_embedding"] != dense(bucket_counts(record["q_skeleton"])):
            problems.append(f"entry {i}: embedding is not the bucket count of its skeleton")
        for field in ("q_skeleton", "s_skeleton"):
            words = {w.lower() for w in WORD.findall(record[field])}
            leaked = sorted(w for w in words if w in vocabulary or w.isdigit())
            if leaked:
                problems.append(f"entry {i}: {field} keeps {leaked}")
        first = skeleton_of_plan.setdefault(plan, record["s_skeleton"])
        if first != record["s_skeleton"]:
            problems.append(f"entry {i}: equal structure, skeleton {record['s_skeleton']!r} vs {first!r}")
        if len(problems) > 20:
            break
    return problems
