"""Benchmark dataset file I/O (JSON arrays and JSONL records)."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .jsonl import read_json, write_lines
from .linking import SftRecord, Triplet
from .schema import DatabaseSchema, item_schemas


def load_dataset(path: str | Path) -> list[dict]:
    """Load a benchmark dataset: a JSON array of question/db_id/query items.

    Raises ``ConfigError`` for a file that is not JSON, and ``ValueError``,
    naming the file or the item, unless it holds a JSON array of objects
    whose ``question``, ``db_id`` and ``query`` are strings.
    """
    records = read_json(path, "dataset")
    if not isinstance(records, list):
        raise ValueError(f"{path} holds a JSON {type(records).__name__}, not an array of items")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"dataset item {i} is a JSON {type(record).__name__}, not an object")
        for key in ("question", "db_id", "query"):
            if key not in record:
                raise ValueError(f"dataset item {i} is missing {key!r}")
            if not isinstance(record[key], str):
                raise ValueError(f"dataset item {i} has a {key!r} that is not a string")
    return records


def triplets_from_dataset(
    dataset: Sequence[dict], schemas: dict[str, DatabaseSchema]
) -> list[Triplet]:
    return [
        Triplet(
            question=record["question"],
            schema=schema,
            gold_sql=record["query"],
            origin=record.get("origin", "original"),
        )
        for record, schema in zip(dataset, item_schemas(dataset, schemas))
    ]


def write_augmented_dataset(triplets: Sequence[Triplet], path: str | Path) -> None:
    """Benchmark dataset format plus the augmentation origin field."""
    records = [
        {
            "question": t.question,
            "db_id": t.schema.db_id,
            "query": t.gold_sql,
            "origin": t.origin,
        }
        for t in triplets
    ]
    write_lines(path, [json.dumps(records, indent=1)])


def write_sft_records(records: Sequence[SftRecord], path: str | Path) -> None:
    """One JSON object per line: instruction, input, output."""
    write_lines(path, (json.dumps(asdict(record)) for record in records))

