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

from . import pipeline as pl
from .config import MODES, PREDICTORS, RunConfig
from .data import (
    load_dataset,
    triplets_from_dataset,
    write_augmented_dataset,
    write_sft_records,
)
from .embeddings import make_embedder
from .errors import ConfigError, CorruptFileError, ProviderError, ReplayMiss, SolidQlError
from .evaluation import evaluate, write_report
from .gateway import HttpChatProvider, LlmGateway, TranscriptStore
from .linking import (
    GatewayLinkingPredictor,
    OracleLinkingPredictor,
    QuestionRewriter,
    augment_dataset,
    build_sft_dataset,
)
from .retrieval import build_index, load_index, read_index_header, save_index
from .schema import item_schemas, load_tables_json
from .sql.parser import parse_sql
from .sql.refs import extract_schema_refs

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_ENVIRONMENT = 3


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="solidql", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", help="benchmark dataset JSON file")
        p.add_argument("--tables", help="tables.json schema file")
        p.add_argument("--databases", help="root directory of SQLite databases")
        p.add_argument("--index", dest="index_path", help="retrieval index file")
        p.add_argument("--transcripts", help="gateway transcript store (JSONL)")
        p.add_argument("--output", help="output file")
        p.add_argument("--model", dest="model_id", help="SQL-generation model id")
        p.add_argument("--linking-model", dest="linking_model_id", help="linking model id")
        p.add_argument("--embedder", help="'hashed' or 'remote:<model>'")
        p.add_argument("--predictor", choices=PREDICTORS, help="linking predictor")
        p.add_argument("--examples", dest="n_examples", type=int, help="examples per prompt (N)")
        p.add_argument("--rounds", type=int, choices=(1, 2), help="generation rounds")
        p.add_argument("--no-focus", dest="focus_enabled", action="store_const", const=False,
                       help="drop the focus line from prompts")
        p.add_argument("--mode", choices=MODES, help="gateway mode")
        p.add_argument("--workers", type=int, help="parallel workers")

    p_sft = sub.add_parser("build-sft", help="augment triplets and emit the SFT dataset")
    common(p_sft)
    p_sft.add_argument("--augmented-out", help="augmented triplets output (JSON)")
    p_sft.add_argument("--no-augment", action="store_true", help="skip question rewriting")

    p_index = sub.add_parser("index", help="build the retrieval index")
    common(p_index)
    p_index.add_argument("--force", action="store_true",
                         help="also rebuild an index built with another embedding provider")

    p_run = sub.add_parser("run", help="run the generation pipeline")
    common(p_run)

    p_eval = sub.add_parser("eval", help="score predictions")
    common(p_eval)
    p_eval.add_argument("--predictions", help="pipeline results file (JSONL)")
    p_eval.add_argument("--robustness", help="paired perturbed-run results file (JSONL)")
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    """The config file, overridden by each given flag whose dest names a ``RunConfig`` field."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.merged(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def require(config: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(config, name)
        if not value:
            raise ConfigError(f"--{name.replace('_', '-')} is required for this command")
        if name in ("dataset", "tables", "databases", "index_path", "transcripts"):
            if name == "transcripts" and config.mode == "record":
                continue  # created on first write
            if not Path(value).exists():
                raise ConfigError(f"{name} file not found: {value}")


def make_gateway(config: RunConfig) -> LlmGateway:
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
        require(config, "transcripts")
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


def cmd_index(args: argparse.Namespace) -> int:
    config = make_config(args)
    require(config, "dataset", "tables", "output")
    dataset = load_dataset(config.dataset)
    schemas = item_schemas(dataset, load_tables_json(config.tables))
    embedder = make_embedder(config.embedder)

    out_path = Path(config.output)
    if out_path.exists() and not args.force:
        existing = read_index_header(out_path)["provider_id"]
        if existing != embedder.provider_id:
            raise ConfigError(
                f"index {out_path} was built with provider {existing!r}, "
                f"current provider is {embedder.provider_id!r}; use --force to rebuild"
            )

    linked = []
    for record, schema in zip(dataset, schemas):
        try:
            linked.append(extract_schema_refs(parse_sql(record["query"]), schema))
        except SolidQlError:
            linked.append(None)
    gateway = make_gateway(config) if config.transcripts else None
    index = build_index(
        [(r["question"], r["query"]) for r in dataset],
        embedder,
        gateway=gateway,
        model_id=config.linking_model,
        linked=linked,
    )
    save_index(index, out_path)
    print(f"pool size: {len(index)}  provider: {index.provider_id}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = make_config(args)
    require(config, "dataset", "tables", "index_path", "output")
    if config.mode in ("replay", "record"):
        require(config, "transcripts")
    schemas = load_tables_json(config.tables)
    dataset = load_dataset(config.dataset)
    index = load_index(config.index_path)
    embedder = make_embedder(config.embedder)
    if index.provider_id != embedder.provider_id:
        raise ConfigError(
            f"index provider {index.provider_id!r} does not match configured "
            f"embedder {embedder.provider_id!r}"
        )
    gateway = make_gateway(config)
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
    if not args.predictions or not Path(args.predictions).exists():
        raise ConfigError(f"predictions file not found: {args.predictions}")
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
        if not Path(args.robustness).exists():
            raise ConfigError(f"robustness file not found: {args.robustness}")
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


COMMANDS = {
    "build-sft": cmd_build_sft,
    "index": cmd_index,
    "run": cmd_run,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorruptFileError, ProviderError, ReplayMiss) as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except (OSError, SolidQlError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
