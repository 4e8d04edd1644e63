"""Batch command-line entry point.

Four subcommands mirror the pipeline stages and can be rerun
independently:

  build-sft   augment training triplets and emit the linking SFT dataset
  index       precompute the retrieval index over a question/SQL pool
  run         execute the two-round generation pipeline over a dataset
  eval        score predictions (EX/EM) and optionally check robustness

Exit codes: 0 success, 1 evaluation ran but found failures, 2 usage or
config error, 3 environment error (providers, replay misses, corrupt
ledger, transcript, index or results files).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterator, Sequence

from . import pipeline as pl
from .config import MODES, PREDICTORS, RunConfig
from .embeddings import make_embedder
from .errors import (
    ConfigError,
    CorruptFileError,
    ParseError,
    ProviderError,
    ReplayMiss,
    ResolutionError,
    SolidQlError,
)
from .evaluation import evaluate, write_report
from .gateway import HttpChatProvider, LlmGateway, TranscriptStore
from .jsonl import conform, read_json
from .linking import (
    GatewayLinkingPredictor,
    OracleLinkingPredictor,
    QuestionRewriter,
    augment_dataset,
    build_sft_dataset,
    triplets_from_dataset,
    write_augmented_dataset,
    write_sft_records,
)
from .retrieval import PoolItem, build_index, load_index, save_index
from .schema import DatabaseSchema, SchemaSubset, item_schemas, load_tables_json
from .sql.parser import parse_sql
from .sql.refs import extract_schema_refs

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_ENVIRONMENT = 3

# one item of a benchmark dataset (Spider format); an item keeps any other keys
DATASET_ITEM = {"question": str, "db_id": str, "query": str}


# Each flag once, with its add_argument options. A dest that names a
# RunConfig field sets that field; the command reads any other from args.
FLAGS = {
    "--dataset": {"help": "benchmark dataset JSON file"},
    "--tables": {"help": "tables.json schema file"},
    "--databases": {"help": "root directory of SQLite databases"},
    "--index": {"dest": "index_path", "help": "retrieval index file"},
    "--transcripts": {"help": "gateway transcript store (JSONL)"},
    "--output": {"help": "output file"},
    "--model": {"dest": "model_id", "help": "SQL-generation model id"},
    "--linking-model": {"dest": "linking_model_id", "help": "linking model id"},
    "--embedder": {"help": "'hashed' or 'remote:<model>'"},
    "--predictor": {"choices": PREDICTORS, "help": "linking predictor"},
    "--examples": {"dest": "n_examples", "type": int, "help": "examples per prompt (N)"},
    "--rounds": {"type": int, "choices": (1, 2), "help": "generation rounds"},
    "--no-focus": {"dest": "focus_enabled", "action": "store_const", "const": False,
                   "help": "drop the focus line from prompts"},
    "--mode": {"choices": MODES, "help": "gateway mode"},
    "--workers": {"type": int, "help": "parallel workers"},
    "--augmented-out": {"help": "augmented triplets output (JSON)"},
    "--no-augment": {"action": "store_true", "help": "skip question rewriting"},
    "--predictions": {"help": "pipeline results file (JSONL)"},
    "--robustness": {"help": "paired perturbed-run results file (JSONL)"},
}
FLAG_OF = {opts.get("dest", flag[2:].replace("-", "_")): flag for flag, opts in FLAGS.items()}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="solidql", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    """The config file, overridden by each given flag whose dest names a ``RunConfig`` field."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.merged(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def require(values: RunConfig | argparse.Namespace, *names: str) -> None:
    """Refuse a missing value, an input file that does not exist, or an
    output that is a directory, naming its flag, before any input is read."""
    for name in names:
        value = getattr(values, name)
        if not value:
            raise ConfigError(f"{FLAG_OF[name]} is required for this command")
        if name == "output":
            if Path(value).is_dir():
                raise ConfigError(f"{FLAG_OF[name]} is a directory: {value}")
        elif name == "transcripts" and values.mode == "record":
            continue  # created on first write
        elif not Path(value).exists():  # every other value names an input
            raise ConfigError(f"{FLAG_OF[name]} file not found: {value}")


def load_dataset(path: str | Path) -> list[dict]:
    """The items of a benchmark dataset file: a JSON array of ``DATASET_ITEM`` objects.

    ``ConfigError`` names the file when it cannot be read or decoded, and
    for one that does not ``conform`` to ``[DATASET_ITEM]``, also the key
    path of the first value at fault, such as ``dataset[1] has no 'query'``.
    """
    records = read_json(path, "dataset")
    try:
        conform(records, [DATASET_ITEM], "dataset")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"dataset {path} is malformed: {exc.args[0]}") from None
    return records


def make_gateway(config: RunConfig) -> LlmGateway:
    """The gateway of ``config.mode``; replay and record mode require ``--transcripts``."""
    if config.mode in ("replay", "record"):
        require(config, "transcripts")
    store = TranscriptStore(config.transcripts) if config.transcripts else None
    provider = None
    if config.mode in ("live", "record"):
        provider = HttpChatProvider.from_env()
    return LlmGateway(mode=config.mode, store=store, provider=provider)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_build_sft(args: argparse.Namespace) -> int:
    config = make_config(args)
    require(config, "dataset", "tables", "output")
    schemas = load_tables_json(config.tables)
    dataset = load_dataset(config.dataset)
    triplets = triplets_from_dataset(dataset, schemas)

    if args.no_augment:
        augmented = triplets
    else:
        gateway = make_gateway(config)
        rewriter = QuestionRewriter(gateway, config.linking_model)
        augmented = augment_dataset(triplets, rewriter)

    records = build_sft_dataset(augmented)
    if args.augmented_out:
        write_augmented_dataset(augmented, args.augmented_out)
    write_sft_records(records, config.output)
    print(f"triplets in: {len(triplets)}  augmented: {len(augmented)}  "
          f"sft records: {len(records)}  skipped: {len(augmented) - len(records)}")
    return EXIT_OK


def parsed_pool(dataset: Sequence[dict], schemas: Sequence[DatabaseSchema]) -> Iterator[PoolItem]:
    """Each dataset item as a pool item, its statement parsed once.

    The one tree gives both the linked subset, the masking context
    (empty when a name does not resolve), and the SQL skeleton. A
    statement that does not parse is skipped and logged with its
    dataset position.
    """
    for i, (record, schema) in enumerate(zip(dataset, schemas)):
        try:
            tree = parse_sql(record["query"])
        except ParseError as exc:
            logger.warning("skipping pool item %d (unparseable SQL): %s", i, exc)
            continue
        try:
            linked = extract_schema_refs(tree, schema)
        except ResolutionError:
            linked = SchemaSubset()
        yield PoolItem(record["question"], record["query"], tree, linked)


def cmd_index(args: argparse.Namespace) -> int:
    config = make_config(args)
    require(config, "dataset", "tables", "output")
    dataset = load_dataset(config.dataset)
    schemas = item_schemas(dataset, load_tables_json(config.tables))
    embedder = make_embedder(config.embedder)
    gateway = make_gateway(config) if config.transcripts else None
    index = build_index(
        parsed_pool(dataset, schemas), embedder, gateway=gateway, model_id=config.linking_model
    )
    save_index(index, config.output)
    print(f"pool size: {len(index)}  provider: {index.provider_id}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = make_config(args)
    require(config, "dataset", "tables", "index_path", "output")
    gateway = make_gateway(config)
    schemas = load_tables_json(config.tables)
    dataset = load_dataset(config.dataset)
    index = load_index(config.index_path)
    embedder = make_embedder(index.provider_id, f"embedding provider in index {config.index_path}")
    if config.predictor == "oracle":
        predictor = OracleLinkingPredictor.from_records(dataset)
    else:
        predictor = GatewayLinkingPredictor(gateway, config.linking_model)

    ledger = pl.ProgressLedger(Path(config.output).with_suffix(".progress.jsonl"))
    results = pl.run_batch(
        dataset, schemas, predictor, index, gateway, embedder, config, ledger=ledger
    )
    pl.write_results(results, config.output)
    ledger.clear()
    flagged = sum(1 for r in results if r.flags)
    print(f"items: {len(results)}  flagged: {flagged}  output: {config.output}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = make_config(args)
    require(config, "dataset", "databases")
    require(args, "predictions")
    if config.output:
        require(config, "output")
    dataset = load_dataset(config.dataset)
    results = pl.read_results(args.predictions)
    if len(results) != len(dataset):
        raise ConfigError(
            f"alignment mismatch: {len(dataset)} dataset items, {len(results)} predictions"
        )
    for i, (item, result) in enumerate(zip(dataset, results)):
        if (result.db_id, result.question) != (item["db_id"], item["question"]):
            raise ConfigError(
                f"alignment mismatch at item {i}: prediction for "
                f"({result.db_id!r}, {result.question!r}), dataset has "
                f"({item['db_id']!r}, {item['question']!r})"
            )
    perturbed = None
    if args.robustness:
        require(args, "robustness")
        perturbed = pl.read_results(args.robustness)
        if len(perturbed) != len(results):
            raise ConfigError(
                f"robustness alignment mismatch: {len(results)} clean vs {len(perturbed)} perturbed"
            )
        for i, (item, pert) in enumerate(zip(dataset, perturbed)):
            if pert.db_id != item["db_id"]:
                raise ConfigError(
                    f"robustness pair {i} targets different databases: "
                    f"{item['db_id']!r} vs {pert.db_id!r}"
                )
    report = evaluate(
        dataset,
        [r.final_sql for r in results],
        config.databases,
        flags=[r.flags for r in results],
        timeout=config.timeout,
        perturbed=None if perturbed is None else [r.final_sql for r in perturbed],
    )
    print(report.table())

    if config.output:
        write_report(report, config.output)
    return EXIT_FAILURES if report.failed else EXIT_OK


# each subcommand: its function, its help text and the flags it reads
SUBCOMMANDS = {
    "build-sft": (cmd_build_sft, "augment triplets and emit the SFT dataset",
                  "--dataset --tables --output --transcripts --mode --model --linking-model "
                  "--augmented-out --no-augment"),
    "index": (cmd_index, "build the retrieval index",
              "--dataset --tables --output --embedder --transcripts --mode --model --linking-model"),
    "run": (cmd_run, "run the generation pipeline",
            "--dataset --tables --index --transcripts --output --model --linking-model "
            "--predictor --examples --rounds --no-focus --mode --workers"),
    "eval": (cmd_eval, "score predictions",
             "--dataset --databases --output --predictions --robustness"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return SUBCOMMANDS[args.command][0](args)
    except (CorruptFileError, ProviderError, ReplayMiss) as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except (OSError, SolidQlError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
