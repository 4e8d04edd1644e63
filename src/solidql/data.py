"""Benchmark dataset file I/O (JSON arrays and JSONL records)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .linking import SftRecord, Triplet
from .schema import DatabaseSchema, item_schemas


def load_dataset(path: str | Path) -> list[dict]:
    """Load a benchmark dataset: a JSON array of question/db_id/query items.

    Raises ``ValueError``, naming the file or the item, unless the file
    holds a JSON array of objects whose ``question``, ``db_id`` and
    ``query`` are strings.
    """
    records = json.loads(Path(path).read_text(encoding="utf-8"))
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def write_sft_records(records: Sequence[SftRecord], path: str | Path) -> None:
    """One JSON object per line: instruction, input, output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "instruction": record.instruction,
                        "input": record.input,
                        "output": record.output,
                    }
                )
                + "\n"
            )

