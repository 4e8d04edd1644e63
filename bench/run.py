"""Benchmark of ``solidql run``, ``eval`` and ``index`` on synthetic inputs.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --digest

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from spans) with
``--trace 1``. ``--digest`` runs one round of the workload to completion
and prints the sha256 of each output file instead.

Commands run in fresh worker processes (``worker.py``), pinned to one
CPU, with one thread of work (``--workers 1``). Every reported time is
scaled to a reference host speed, measured by a fixed loop the worker
times next to each item or command (``at_reference_speed``). Inputs the seed does not
change (schema, databases, retrieval pools and their indexes, recorded
transcripts) are prepared once per source tree, untimed, under
``bench/.work/``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import reference as ref  # noqa: E402
from prep import (  # noqa: E402
    BENCH, EVAL_ITEMS, EVAL_SLOT_SEED, POOL_8K, SRC, WORK, WORKLOADS, WORLD_SEED, BenchError, Replay,
    prepare, replay_args, world_paths,
)

SETUP_ONLY_RUNS = 4  # extra processes per run that stop when the first item starts
RUN_LIMIT_S = 170.0  # a run never takes longer than this
# Reported times are scaled to a host on which one worker.reference_work call
# takes this long (see README.md, "Host speed"): on a shared 2-vCPU virtual
# machine the speed moves by a third from minute to minute, and the scaling
# takes that out.
REF_CALL_S = 0.015


def at_reference_speed(stats: dict, times: list[float]) -> list[float]:
    """Timed units of a worker, scaled by the reference samples around each one."""
    ref = stats["ref_s"]
    return [t * REF_CALL_S * 2 / (ref[k + 1] + ref[k + 2]) for k, t in enumerate(times)]


def median(values):
    return statistics.median(values) if values else 0.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------


class Runner:
    """Spawns workers one at a time, inside the run's time limit."""

    def __init__(self, out: Path, started: float) -> None:
        self.out = out
        self.started = started
        self.count = 0

    def spawn(self, hook: str, argv: list[str], *, mode: str = "measure", trace: bool = False,
              seconds: float | None = None, round_size: int = 1) -> dict:
        self.count += 1
        workdir = self.out / f"cmd-{self.count:03d}"
        workdir.mkdir(parents=True)
        spec = {
            "src": str(SRC), "argv": argv, "workdir": str(workdir), "hook": hook, "mode": mode, "trace": trace,
            "seconds": seconds, "round_size": round_size,
            "stats": str(workdir / "stats.json"), "spans": str(workdir / "spans.jsonl"),
        }
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        with (workdir / "stdout.txt").open("w") as stdout:
            spawned = time.monotonic()
            process = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(workdir / "spec.json")],
                stdout=stdout, stderr=subprocess.STDOUT, cwd=str(workdir),
            )
            try:
                code = process.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise BenchError("a worker exceeded the run's time limit") from None
        if code != 0 or not (workdir / "stats.json").exists():
            tail = (workdir / "stdout.txt").read_text()[-2000:]
            raise BenchError(f"worker failed with exit code {code}:\n{tail}")
        stats = json.loads((workdir / "stats.json").read_text())
        stats["dir"] = str(workdir)
        if stats["setup_end"]:
            stats["setup_wall_s"] = stats["setup_end"] - spawned - stats["setup_ref_s"]
            stats["setup_s"] = stats["setup_wall_s"] * REF_CALL_S * 2 / (stats["ref_s"][0] + stats["ref_s"][1])
        else:
            stats["setup_s"] = None
        stats["stdout"] = (workdir / "stdout.txt").read_text()
        return stats


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Result:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.digests: dict[str, str] = {}


def replay_items(prep: Path, name: str, spec: Replay, seed: int, rounds: int) -> list[dict]:
    """``rounds`` rounds, each one instantiation of every plan in seeded order."""
    dev = json.loads((prep / f"{name}.dev.json").read_text())
    rng = random.Random(seed)
    items = []
    for _ in range(rounds):
        order = list(range(len(dev)))
        rng.shuffle(order)
        items += [dev[p][rng.randrange(spec.copies)] for p in order]
    return items


def run_replay(prep: Path, name: str, spec: Replay, seed: int, seconds: float, trace: bool,
               digest: bool, runner: Runner, result: Result) -> None:
    items = replay_items(prep, name, spec, seed, 1 if digest else 400)
    dataset = runner.out / "dataset.json"
    dataset.write_text(json.dumps([{k: i[k] for k in ("question", "db_id")} | {"query": i["sql"]} for i in items]))
    argv = replay_args(prep, name, spec, dataset)
    round_size = len(spec.plans)
    problems = json.loads((prep / "done.json").read_text())["problems"]
    result.problems += problems

    def measure(seconds: float | None, traced: bool) -> dict:
        stats = runner.spawn("run", argv, trace=traced, seconds=seconds, round_size=round_size)
        done = stats["results"]
        result.attempted += len(done)
        if stats["rc"] not in ("deadline", 0):
            result.attempted += 1
            result.failed += 1
            result.problems.append(f"solidql run exited with {stats['rc']}: {stats['stdout'][-500:]}")
        result.problems += ref.check_replay_results(done, items[: len(done)], spec.rounds)
        return stats

    if digest:
        stats = measure(None, False)
        result.digests["results.jsonl"] = sha256(Path(stats["dir"]) / "results.jsonl")
        return
    index_mb = (prep / f"index{spec.pool}.jsonl").stat().st_size / 1e6
    if not trace:
        setups = [runner.spawn("run", argv, mode="setup", round_size=round_size)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        stats = measure(seconds, False)
        setups.append(stats["setup_s"])
        result.metrics.update(item_metrics(stats, setups))
        report_wall_clock(stats, len(stats["item_s"]), sum(stats["slot_s"]))
        return
    plain = measure(seconds / 2, False)
    traced = measure(seconds / 2, True)
    result.metrics.update(per_layer(traced, len(traced["item_s"]), {"retrieval.index_mb": index_mb}))
    overhead(result, item_metrics(plain, []), item_metrics(traced, []))


def item_metrics(stats: dict, setups: list[float]) -> dict:
    item_s = at_reference_speed(stats, stats["item_s"])
    slot_s = at_reference_speed(stats, stats["slot_s"])
    return end_to_end(setups, len(item_s), sum(slot_s), [s * 1000 for s in item_s], [stats["maxrss_kb"]])


def run_commands(runner: Runner, result: Result, hook: str, argv: list[str], expect_rc: int, items: int,
                 output: str, check, seconds: float, trace: bool, digest: bool, index_output: bool) -> None:
    """``eval`` and ``index``: the whole command repeated in one worker process.

    ``check(path, stdout)`` checks the last command's output file.
    """

    def measure(seconds: float, traced: bool) -> dict:
        stats = runner.spawn(hook, argv, trace=traced, seconds=seconds)
        for command in stats["commands"]:
            result.attempted += items
            if command["rc"] != expect_rc:
                result.failed += items
                result.problems.append(f"solidql {hook} exited with {command['rc']}: {stats['stdout'][-500:]}")
        outputs = [Path(c["out"]) / output for c in stats["commands"] if (Path(c["out"]) / output).exists()]
        if len({sha256(p) for p in outputs}) != 1:
            result.problems.append(f"repeated {hook} commands did not write one identical {output}")
        if outputs:
            check(outputs[-1], stats["stdout"])
        return stats

    if digest:
        stats = measure(0, False)
        result.digests[output] = sha256(Path(stats["commands"][0]["out"]) / output)
        return
    if not trace:
        setups = [runner.spawn(hook, argv, mode="setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
        stats = measure(seconds, False)
        result.metrics.update(command_metrics(stats, setups, items))
        report_wall_clock(stats, items * len(stats["commands"]), sum(c["s"] for c in stats["commands"]))
        return
    plain = measure(seconds / 2, False)
    traced = measure(seconds / 2, True)
    last = Path(traced["commands"][-1]["out"]) / output
    index_mb = last.stat().st_size / 1e6 if index_output else 0.0
    result.metrics.update(per_layer(traced, items * len(traced["commands"]), {"retrieval.index_mb": index_mb}))
    overhead(result, command_metrics(plain, [], items), command_metrics(traced, [], items))


def command_metrics(stats: dict, setups: list[float], items: int) -> dict:
    seconds = at_reference_speed(stats, [c["s"] for c in stats["commands"]])
    return end_to_end(setups + [stats["setup_s"]], items * len(seconds), sum(seconds),
                      [s * 1000 / items for s in seconds], [stats["maxrss_kb"]])


def make_eval_set(prep: Path, seed: int) -> tuple[list[dict], list[dict], list[dict], list[dict]]:
    """Gold items, clean and perturbed predictions, and the reference verdicts.

    Statement structures and prediction kinds are drawn once from a fixed
    seed, so every seed scores the same mix of work; ``seed`` draws the
    databases, identifiers and values and the order of the items.
    """
    _, db_root = world_paths(prep)
    world = gen.make_world(WORLD_SEED)
    slot_rng = random.Random(EVAL_SLOT_SEED)
    slots = [
        (gen.random_plan(slot_rng), gen.random_plan(slot_rng),
         slot_rng.choice(("same", "same", "cosmetic", "value", "value", "other", "broken", "order")),
         slot_rng.choice(("same", "same", "cosmetic", "value", "broken")),
         slot_rng.random() < 0.1)
        for _ in range(EVAL_ITEMS)
    ]
    rng = random.Random(seed)
    rng.shuffle(slots)
    source = gen.StatementSource(world, db_root, seed * 7919 + 1)
    dataset, clean, perturbed, expected = [], [], [], []
    try:
        for plan, other_plan, kind, pert_kind, flagged in slots:
            gold = source.draw(plan)
            db = gen.database_file(db_root, gold.db_id)
            while ref.run_query(db, gold.sql) is None:  # SQLite rejects it at execution time
                gold = source.draw(plan)
                db = gen.database_file(db_root, gold.db_id)
            clean_sql, clean_ordered = gold.sql, gold.ordered
            if kind == "cosmetic":
                clean_sql = cosmetic(gold.sql)
            elif kind == "value":
                clean_sql = change_value(rng, gold.sql)
            elif kind == "other":
                other = source.draw(other_plan, gold.db_id)
                clean_sql, clean_ordered = other.sql, other.ordered
            elif kind == "broken":
                clean_sql = gold.sql.replace("SELECT", "SELEC", 1)
            elif kind == "order":
                clean_sql = gold.sql.replace(" ASC", " DESC") if " ASC" in gold.sql else gold.sql.replace(" DESC", " ASC")
            pert_sql = {"same": clean_sql, "cosmetic": cosmetic(clean_sql),
                        "value": change_value(rng, clean_sql),
                        "broken": clean_sql.replace("SELECT", "SELEC", 1)}[pert_kind]
            ex, em = ref.ex_em_verdict(db, gold.sql, clean_sql, gold.ordered)
            robust = ref.robustness_verdict(db, clean_sql, pert_sql, clean_ordered)
            dataset.append(gold.to_item())
            clean.append(prediction(gold, clean_sql, ["round2_retrieval_fallback"] if flagged else []))
            perturbed.append(prediction(gold, pert_sql, []))
            expected.append({"question": gold.question, "ex": ex, "em": em, "robust": robust,
                             "db_id": gold.db_id, "clean": clean_sql, "perturbed": pert_sql})
    finally:
        source.close()
    return dataset, clean, perturbed, expected


def cosmetic(sql: str) -> str:
    """Same statement, different case, spacing and a trailing semicolon."""
    parts = sql.split("'")
    return "'".join(p if i % 2 else p.lower().replace(" ", "  ") for i, p in enumerate(parts)) + " ;"


def change_value(rng: random.Random, sql: str) -> str:
    literals = list(re.finditer(r"'[^']*'|\b\d+\b", sql))
    if not literals:
        return sql + " LIMIT 1"
    match = rng.choice(literals)
    old = match.group(0)
    new = "'Zyzzogeton'" if old.startswith("'") else str(int(old) + 1)
    return sql[: match.start()] + new + sql[match.end():]


def prediction(gold: gen.Statement, sql: str, flags: list[str]) -> dict:
    return {"question": gold.question, "db_id": gold.db_id, "linked": "tables:  | columns: ",
            "q_skeleton": "", "round1_sql": sql, "round2_sql": sql, "final_sql": sql, "flags": flags}


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def run_eval(prep: Path, seed: int, seconds: float, trace: bool, digest: bool,
             runner: Runner, result: Result) -> None:
    from solidql.evaluation import robustness_check

    _, db_root = world_paths(prep)
    dataset, clean, perturbed, expected = make_eval_set(prep, seed)
    paths = {name: runner.out / name for name in ("dataset.json", "clean.jsonl", "perturbed.jsonl")}
    paths["dataset.json"].write_text(json.dumps(dataset))
    write_jsonl(paths["clean.jsonl"], clean)
    write_jsonl(paths["perturbed.jsonl"], perturbed)
    argv = ["eval", "--dataset", str(paths["dataset.json"]), "--databases", str(db_root),
            "--predictions", str(paths["clean.jsonl"]), "--robustness", str(paths["perturbed.jsonl"]),
            "--output", "{out}/report.json"]

    def check(report: Path, stdout: str) -> None:
        result.problems += ref.check_eval_report(report.read_text().splitlines(), expected)
        rates = [line.split()[-1] for line in stdout.splitlines() if line.strip().startswith("robustness")]
        verdicts = [bool(robustness_check(e["clean"], e["perturbed"], gen.database_file(db_root, e["db_id"])))
                    for e in expected]
        result.problems += ref.check_robustness(verdicts, [e["robust"] for e in expected],
                                                rates[-1] if rates else None)

    run_commands(runner, result, "eval", argv, 1, len(dataset), "report.json", check,
                 seconds, trace, digest, index_output=False)


def run_index(prep: Path, seed: int, seconds: float, trace: bool, digest: bool,
              runner: Runner, result: Result) -> None:
    from solidql.retrieval import load_index

    tables, db_root = world_paths(prep)
    world = gen.make_world(WORLD_SEED)
    source = gen.StatementSource(world, db_root, seed * 7919 + 2)
    pool = [source.draw() for _ in range(POOL_8K)]
    source.close()
    dataset = runner.out / "pool.json"
    dataset.write_text(json.dumps([s.to_item() for s in pool]))
    argv = ["index", "--dataset", str(dataset), "--tables", str(tables), "--output", "{out}/index.jsonl"]
    items = [s.to_item() for s in pool]
    vocabulary = world.vocabulary

    def check(index: Path, stdout: str) -> None:
        lines = index.read_text().splitlines()
        result.problems += ref.check_index(lines, items, [s.plan_key for s in pool], vocabulary)
        loaded = load_index(index)
        records = [json.loads(line) for line in lines[1:]]
        for pair, record in zip(loaded.pool, records):
            if (pair.question, pair.sql, pair.q_skeleton, list(pair.q_embedding), pair.s_skeleton.text,
                    pair.pool_index) != (record["question"], record["sql"], record["q_skeleton"],
                                         record["q_embedding"], record["s_skeleton"], record["pool_index"]):
                result.problems.append(f"load_index reads entry {pair.pool_index} back differently")
                break
        if len(loaded.pool) != len(records):
            result.problems.append("load_index reads back a different number of entries")

    run_commands(runner, result, "index", argv, 0, len(pool), "index.jsonl", check,
                 seconds, trace, digest, index_output=True)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(setups: list[float], items: int, seconds: float, item_ms: list[float],
               rss_kb: list[int]) -> dict:
    return {
        "setup_s": (median([s for s in setups if s is not None]), "s"),
        "items_per_s": (items / seconds if seconds else 0.0, "1/s"),
        "item_p50_ms": (median(item_ms), "ms"),
        "peak_rss_mb": (median(rss_kb) / 1024, "MB"),
    }


def report_wall_clock(stats: dict, items: int, seconds: float) -> None:
    """The measured worker's unscaled figures and the host speed, on standard error."""
    ref_ms = median(stats["ref_s"]) * 1000
    print(f"wall clock: items_per_s {items / seconds:.4g}, setup_s {stats['setup_wall_s']:.4g}; "
          f"reference call median {ref_ms:.4g} ms (scaled to {REF_CALL_S * 1000:g} ms)", file=sys.stderr)


def overhead(result: Result, plain: dict, traced: dict) -> None:
    """Tracing cost: how much slower the traced half measured than the untraced one."""
    def slower_pct(before: float, after: float) -> float:
        return 100.0 * (after / before - 1) if before and after else 0.0

    result.metrics["trace.overhead.item_p50_pct"] = (
        slower_pct(plain["item_p50_ms"][0], traced["item_p50_ms"][0]), "%")
    result.metrics["trace.overhead.items_per_s_pct"] = (
        slower_pct(traced["items_per_s"][0], plain["items_per_s"][0]), "%")


def per_layer(stats: dict, items: int, extra: dict[str, float]) -> dict:
    """Per-layer metrics from the span summary of the traced worker."""
    spans, children, counts = stats["trace"]["spans"], stats["trace"]["children"], stats["trace"]["counts"]
    commands = max(len(stats["commands"]), 1)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def mean(name: str, scale: float) -> float:
        entry = spans.get(name)
        return entry["total_s"] * scale / entry["calls"] if entry else 0.0

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    r1, r2 = "retrieval.retrieve_by_question_skeleton", "retrieval.retrieve_by_sql_skeleton"
    eval_items = counts.get("eval_items", 0)
    embed = spans.get("embeddings.HashedBagOfTokens.embed", {"total_s": 0.0})
    metrics = {
        "pipeline.item_ms": (mean("pipeline.run_item", 1e3), "ms"),
        "pipeline.ledger_append_us": (mean("pipeline.ProgressLedger.append", 1e6), "us"),
        "linking.predict_ms": (mean("linking.predict_linking", 1e3), "ms"),
        "retrieval.round2_ms": (mean(r2, 1e3), "ms"),
        "retrieval.round2_scored": (per(children.get(r2, {}).get("skeleton.tree_edit_distance", 0), calls(r2)), "count"),
        "retrieval.round1_ms": (mean(r1, 1e3), "ms"),
        "retrieval.round1_scored": (per(children.get(r1, {}).get("embeddings.cosine_similarity", 0), calls(r1)), "count"),
        "retrieval.q_skeleton_ms": (mean("retrieval.extract_question_skeleton", 1e3), "ms"),
        "retrieval.round2_fallback": (counts.get("round2_fallback", 0), "count"),
        "retrieval.load_index_s": (mean("retrieval.load_index", 1.0), "s"),
        "retrieval.build_index_s": (mean("retrieval.build_index", 1.0), "s"),
        "retrieval.save_index_s": (mean("retrieval.save_index", 1.0), "s"),
        "skeleton.ted_pair_us": (mean("skeleton.tree_edit_distance", 1e6), "us"),
        "skeleton.from_sql_us": (mean("skeleton.SqlSkeleton.from_sql", 1e6), "us"),
        "skeleton.from_text_us": (mean("skeleton.SqlSkeleton.from_text", 1e6), "us"),
        "embeddings.embed_us": (per(embed["total_s"] * 1e6, counts.get("embedded_texts", 0)), "us"),
        "prompting.build_ms": (mean("prompting.build_prompt", 1e3), "ms"),
        "prompting.prompt_kchars": (per(counts.get("prompt_chars", 0) / 1e3, calls("prompting.build_prompt")), "kchars"),
        "prompting.extract_us": (mean("prompting.parse_sql_from_completion", 1e6), "us"),
        "gateway.complete_us": (mean("gateway.LlmGateway.complete", 1e6), "us"),
        "gateway.store_load_ms": (mean("gateway.TranscriptStore.__init__", 1e3), "ms"),
        "schema.load_tables_ms": (mean("schema.load_tables_json", 1e3), "ms"),
        "sql.parse_us": (mean("sql.parse_sql", 1e6), "us"),
        "sql.parse_calls_per_item": (per(calls("sql.parse_sql"), items), "1/item"),
        "evaluation.execute_ms": (mean("evaluation.execute_sql", 1e3), "ms"),
        "evaluation.executions_per_item": (per(calls("evaluation.execute_sql"), eval_items), "1/item"),
        "evaluation.timer_threads_per_item": (per(calls("threading.Thread.start"), eval_items), "1/item"),
        "evaluation.exact_match_us": (mean("evaluation.exact_match", 1e6), "us"),
        "evaluation.tables_match_us": (mean("evaluation.tables_match", 1e6), "us"),
        "evaluation.robustness_ms": (mean("evaluation.robustness_check", 1e3), "ms"),
        "evaluation.pred_errors": (per(counts.get("pred_errors", 0), commands), "count"),
    }
    for kind in ("linking", "skeleton", "generate"):
        metrics[f"gateway.calls_per_item.{kind}"] = (per(counts.get(f"calls.{kind}", 0), items), "1/item")
    for name, value in extra.items():
        metrics[name] = (value, "MB")
    speed = REF_CALL_S / median(stats["ref_s"])  # the traced worker's host speed, as for end-to-end times
    metrics = {name: (value * speed if unit in ("s", "ms", "us") else value, unit)
               for name, (value, unit) in metrics.items()}
    self_ms = {name: entry["self_s"] * 1e3 for name, entry in spans.items()}
    print("self time per span (ms): " + json.dumps(dict(sorted(self_ms.items(), key=lambda kv: -kv[1]))),
          file=sys.stderr)
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true", help="print output digests of one round")
    args = parser.parse_args(argv)
    if not (SRC / "solidql" / "cli.py").exists():
        print(f"error: no solidql source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        with contextlib.redirect_stdout(sys.stderr):  # the result must be the last stdout line
            prep = prepare()
        out = WORK / "runs" / args.workload
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        runner = Runner(out, time.monotonic())  # the limit covers the run, not the one-off preparation
        result = Result()
        spec = WORKLOADS[args.workload]
        trace = bool(args.trace)
        if isinstance(spec, Replay):
            run_replay(prep, args.workload, spec, args.seed, args.seconds, trace, args.digest, runner, result)
        elif spec == "eval":
            run_eval(prep, args.seed, args.seconds, trace, args.digest, runner, result)
        else:
            run_index(prep, args.seed, args.seconds, trace, args.digest, runner, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in result.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.digest:
        for name, value in result.digests.items():
            print(f"{value}  {args.workload} seed {args.seed} {name}")
        return 0 if not result.problems else 1
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
