"""Seed-independent benchmark inputs, prepared once per source tree.

The schema, the SQLite databases, the replay workload's retrieval pool
and its index (built by ``solidql index``), the dev items and the
transcripts recorded by ``solidql run --mode record`` against the
scripted model do not depend on ``--seed``; the seed only picks and
orders items. Building them takes a few minutes, so they are kept under
``bench/.work/prep-<digest>/``, keyed by a digest of the program's source
and of the files that generate and check them. The recorded prompts'
examples are checked against the references here, once.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import gen
import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

WORLD_SEED = 1216  # schema, database rows
POOL_SEED = 2412  # the replay workload's retrieval pool
DEV_SEED = 12522  # the replay workload's dev items
POOL_2K = 2000
POOL_8K = 8000
N_EXAMPLES = 7
EVAL_ITEMS = 300
EVAL_SLOT_SEED = 5  # statement structures and prediction kinds of the eval items


@dataclass(frozen=True)
class Replay:
    rounds: int
    pool: int
    plans: tuple[float, ...]  # structure-size quantiles of the plans in one round
    copies: int  # recorded instantiations per plan; the seed picks among them


WORKLOADS = {
    "replay-2round-pool2k": Replay(rounds=2, pool=POOL_2K, plans=(0.25, 0.5, 0.75), copies=4),
    "eval-robustness": "eval",
    "index-pool8k": "index",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def expected_row(statement: gen.Statement) -> dict:
    return asdict(statement) | {"linking": statement.linking}


# ----------------------------------------------------------------------
# preparation shared by all runs of one source tree
# ----------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    files = sorted(p for p in (SRC / "solidql").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    files += [BENCH / name for name in ("gen.py", "reference.py", "prep.py")]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def world_paths(prep: Path) -> tuple[Path, Path]:
    return prep / "tables.json", prep / "database"


def choose_plans(world: gen.World, db_root: Path, quantiles: tuple[float, ...]) -> list[gen.Plan]:
    """Plans at the given quantiles of statement length (in SQL tokens)."""
    rng = random.Random(DEV_SEED)
    source = gen.StatementSource(world, db_root, DEV_SEED)
    try:
        sized = []
        for _ in range(400):
            plan = gen.random_plan(rng)
            statement = source.draw(plan)
            sized.append((len(ref.WORD.findall(statement.sql)), plan.key, plan))
    finally:
        source.close()
    sized.sort(key=lambda s: (s[0], s[1]))
    return [sized[min(int(q * len(sized)), len(sized) - 1)][2] for q in quantiles]


def prepare() -> Path:
    """Build (or reuse) the seed-independent inputs; returns their directory."""
    prep = WORK / f"prep-{source_digest()}"
    if (prep / "done.json").exists():
        return prep
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("prep-*"):
        shutil.rmtree(stale)
    building = WORK / "prep-building"
    building.mkdir()
    print(f"preparing inputs in {prep.relative_to(ROOT)} ...", file=sys.stderr)
    problems = _prepare(building)
    (building / "done.json").write_text(json.dumps({"problems": problems}, indent=1))
    building.rename(prep)
    return prep


def _prepare(prep: Path) -> list[str]:
    from solidql import cli

    tables, db_root = world_paths(prep)
    world = gen.make_world(WORLD_SEED)
    gen.write_tables_json(world, tables)
    gen.write_databases(world, db_root, WORLD_SEED)

    taken: set[str] = set()
    source = gen.StatementSource(world, db_root, POOL_SEED, taken)
    pool = [source.draw() for _ in range(POOL_8K)]  # all kept out of the dev items; the pool is the first 2k
    source.close()
    dataset = prep / f"pool{POOL_2K}.json"
    dataset.write_text(json.dumps([s.to_item() for s in pool[:POOL_2K]]))
    if cli.main(["index", "--dataset", str(dataset), "--tables", str(tables),
                 "--output", str(prep / f"index{POOL_2K}.jsonl")]) != 0:
        raise BenchError("solidql index failed while preparing the pool")

    problems: list[str] = []
    source = gen.StatementSource(world, db_root, DEV_SEED + 1, taken)
    for name, spec in WORKLOADS.items():
        if not isinstance(spec, Replay):
            continue
        plans = choose_plans(world, db_root, spec.plans)
        dev = [[source.draw(plan) for _ in range(spec.copies)] for plan in plans]
        flat = [s for copies in dev for s in copies]
        (prep / f"{name}.dev.json").write_text(json.dumps([[expected_row(s) for s in c] for c in dev]))
        problems += record(prep, name, spec, flat)
        problems += check_recorded_examples(prep, name, spec, pool[: spec.pool], [c[0] for c in dev])
    source.close()
    return problems


class _ScriptedProviderFactory:
    """Stands in for the HTTP provider class so ``solidql run --mode record``
    records the scripted answers."""

    def __init__(self, statements: list[gen.Statement]) -> None:
        self.chat = gen.ScriptedChat(statements)

    def from_env(self, **kwargs):
        return self.chat


def replay_args(prep: Path, name: str, spec: Replay, dataset: Path, mode: str = "replay") -> list[str]:
    tables, _ = world_paths(prep)
    return [
        "run", "--dataset", str(dataset), "--tables", str(tables),
        "--index", str(prep / f"index{spec.pool}.jsonl"),
        "--transcripts", str(prep / f"{name}.transcripts.jsonl"),
        "--mode", mode, "--rounds", str(spec.rounds), "--examples", str(N_EXAMPLES),
        "--workers", "1", "--output", "{out}/results.jsonl",
    ]


def record(prep: Path, name: str, spec: Replay, statements: list[gen.Statement]) -> list[str]:
    """Record transcripts by running ``solidql run`` once against the scripted model."""
    from solidql import cli

    dataset = prep / f"{name}.record.json"
    dataset.write_text(json.dumps([s.to_item() for s in statements]))
    out = prep / f"{name}.record"
    out.mkdir()
    argv = [a.replace("{out}", str(out)) for a in replay_args(prep, name, spec, dataset, "record")]
    provider_class = cli.HttpChatProvider
    cli.HttpChatProvider = _ScriptedProviderFactory(statements)
    try:
        code = cli.main(argv)
    finally:
        cli.HttpChatProvider = provider_class
    if code != 0:
        return [f"{name}: recording run exited with {code}"]
    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    return [f"{name} recording: {p}" for p in ref.check_replay_results(results, [expected_row(s) for s in statements], spec.rounds)]


def check_recorded_examples(prep: Path, name: str, spec: Replay, pool: list[gen.Statement],
                            sample: list[gen.Statement]) -> list[str]:
    """Round-1 and round-2 examples of sample items against the references."""
    from solidql.skeleton import SqlSkeleton

    index_lines = (prep / f"index{spec.pool}.jsonl").read_text().splitlines()[1:]
    pool_skeletons = [json.loads(line)["q_skeleton"] for line in index_lines]
    recorded = ref.generation_prompts((prep / f"{name}.transcripts.jsonl").read_text().splitlines())
    pool_trees = None
    problems = []
    for statement in sample:
        expected = [ref.rank_by_cosine(statement.skeleton, pool_skeletons, N_EXAMPLES)]
        if spec.rounds == 2:
            if pool_trees is None:
                pool_trees = [ref.Tree(SqlSkeleton.from_sql(s.sql).tree) for s in pool]
            target = ref.Tree(SqlSkeleton.from_sql(statement.sql).tree)
            expected.append(ref.rank_by_distance(target, pool_trees, N_EXAMPLES))
        questions = [[pool[i].question for i in ranking] for ranking in expected]
        problems += ref.check_examples(recorded, statement.question, questions)
    return [f"{name}: {p}" for p in problems]


