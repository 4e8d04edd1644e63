"""CLI subcommands over a temporary workspace with recorded transcripts."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import solidql
from solidql.cli import SUBCOMMANDS, main
from solidql.config import RunConfig
from solidql.embeddings import HashedBagOfTokens
from solidql.gateway import TRANSCRIPT, LlmGateway, TranscriptStore
from solidql.linking import (
    GatewayLinkingPredictor,
    QuestionRewriter,
    augment_dataset,
    triplets_from_dataset,
)
from solidql.pipeline import LEDGER_ENTRY, run_batch
from solidql.retrieval import INDEX_HEADER, INDEX_RECORD, load_index
from solidql.schema import load_tables_json

from conftest import FIXTURES
from support import FakeChatProvider

GENERATIONS = {
    "What are the names of all employees?": "SELECT name FROM employee",
    "How many shops are there?": "SELECT count(*) FROM shop",
    "What are the names of employees older than 40?": "SELECT name FROM employee WHERE age > 40",
    "What is the name of the shop with the most products?": "SELECT name FROM shop ORDER BY number_products DESC LIMIT 1",
    "List the names of employees hired full time.": "SELECT T1.name FROM employee AS T1 JOIN hiring AS T2 ON T1.employee_id = T2.employee_id WHERE T2.is_full_time = 'T'",
}
SKELETONS = {
    "What are the names of all employees?": "What are the _ of all _?",
    "How many shops are there?": "How many _ are there?",
    "What are the names of employees older than 40?": "What are the _ of _ older than _?",
    "What is the name of the shop with the most products?": "What is the _ of the _ with the most _?",
    "List the names of employees hired full time.": "List the _ of _ hired _.",
}
LINKINGS = {
    "What are the names of all employees?": "tables: employee | columns: employee.name",
    "How many shops are there?": "tables: shop | columns: shop.*",
    "What are the names of employees older than 40?": "tables: employee | columns: employee.age, employee.name",
    "What is the name of the shop with the most products?": "tables: shop | columns: shop.name, shop.number_products",
    "List the names of employees hired full time.": (
        "tables: employee, hiring | columns: employee.employee_id, employee.name, "
        "hiring.employee_id, hiring.is_full_time"
    ),
}


def make_provider() -> FakeChatProvider:
    return FakeChatProvider(generations=GENERATIONS, skeletons=SKELETONS, linkings=LINKINGS)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Temp tree with fixture files, a built index, recorded transcripts,
    and the replayed run's results in ``run_eval.jsonl``."""
    root = tmp_path_factory.mktemp("cli")
    for name in ("tables.json", "shop_dataset.json", "shop_pool.json"):
        shutil.copy(FIXTURES / name, root / name)

    code = main([
        "index",
        "--dataset", str(root / "shop_pool.json"),
        "--tables", str(root / "tables.json"),
        "--output", str(root / "index.jsonl"),
    ])
    assert code == 0

    # Record every transcript the 5-question run needs, then every rewrite
    # the augmentation needs. Recording goes through the public API with a
    # deterministic scripted provider; replays are then fully hermetic.
    schemas = load_tables_json(root / "tables.json")
    dataset = json.loads((root / "shop_dataset.json").read_text())
    index = load_index(root / "index.jsonl")
    provider = make_provider()
    gateway = LlmGateway(
        mode="record", store=TranscriptStore(root / "transcripts.jsonl"), provider=provider
    )
    predictor = GatewayLinkingPredictor(gateway, "gpt-4o-mini")
    run_batch(
        dataset, schemas, predictor, index, gateway, HashedBagOfTokens(),
        RunConfig(mode="record", workers=1),
    )
    rewriter = QuestionRewriter(gateway, "gpt-4o-mini")
    augment_dataset(triplets_from_dataset(dataset, schemas), rewriter)
    code = run_cli(root, "run", "--mode", "replay", "--output", str(root / "run_eval.jsonl"))
    assert code == 0
    return root


def run_cli(workspace, *extra, dataset="shop_dataset.json"):
    return main([
        *extra[:1],
        "--dataset", str(workspace / dataset),
        "--tables", str(workspace / "tables.json"),
        "--index", str(workspace / "index.jsonl"),
        "--transcripts", str(workspace / "transcripts.jsonl"),
        *extra[1:],
    ])


def test_cmd_index_reports_and_is_idempotent(workspace, capsys):
    first = (workspace / "index.jsonl").read_bytes()
    code = main([
        "index",
        "--dataset", str(workspace / "shop_pool.json"),
        "--tables", str(workspace / "tables.json"),
        "--output", str(workspace / "index2.jsonl"),
    ])
    assert code == 0
    assert "pool size: 5" in capsys.readouterr().out
    assert (workspace / "index2.jsonl").read_bytes() == first


# what an existing output of ``index`` may hold, as a function of the fixture index's lines
EXISTING_OUTPUTS = {
    "empty file": lambda lines: "",
    "torn header": lambda lines: lines[0][: len(lines[0]) // 2],
    "foreign provider": lambda lines: "".join(
        [json.dumps({**json.loads(lines[0]), "provider_id": "remote:other-model"}) + "\n", *lines[1:]]
    ),
}


@pytest.mark.parametrize("existing", EXISTING_OUTPUTS)
def test_cmd_index_replaces_whatever_its_output_holds(workspace, tmp_path, capsys, existing):
    built = (workspace / "index.jsonl").read_text()
    path = tmp_path / "index.jsonl"
    path.write_text(EXISTING_OUTPUTS[existing](built.splitlines(keepends=True)))
    code = main(["index", "--dataset", str(workspace / "shop_pool.json"),
                 "--tables", str(workspace / "tables.json"), "--output", str(path)])
    assert code == 0
    assert "pool size: 5" in capsys.readouterr().out
    assert path.read_bytes() == built.encode()


def refuse_to_read(*args):
    raise AssertionError(f"read an input before refusing the output: {args!r}")


def test_cmd_index_output_that_is_a_directory_exits_two(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("solidql.cli.parse_sql", refuse_to_read)  # refused before any work
    path = tmp_path / "index.jsonl"
    path.mkdir()
    code = main(["index", "--dataset", str(workspace / "shop_pool.json"),
                 "--tables", str(workspace / "tables.json"), "--output", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --output is a directory: {path}\n"
    assert list(tmp_path.iterdir()) == [path]  # no .partial file is left
    assert list(path.iterdir()) == []


def test_cmd_run_output_that_is_a_directory_exits_two(workspace, tmp_path, capsys, monkeypatch):
    for name in ("load_dataset", "load_index", "load_tables_json"):
        monkeypatch.setattr(f"solidql.cli.{name}", refuse_to_read)
    path = tmp_path / "results.jsonl"
    path.mkdir()
    code = run_cli(workspace, "run", "--mode", "replay", "--output", str(path))
    assert code == 2
    assert capsys.readouterr().err == f"error: --output is a directory: {path}\n"
    assert list(tmp_path.iterdir()) == [path]  # no ledger, no .partial file
    assert list(path.iterdir()) == []


def test_cmd_index_takes_no_force_flag(capsys):
    with pytest.raises(SystemExit) as stopped:
        main(["index", "--force"])
    assert stopped.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


# "remote:" names no model, so no provider is built for it either
@pytest.mark.parametrize("provider_id", ["mystery-v0", "remote:"])
def test_cmd_run_refuses_an_index_of_an_unknown_provider(workspace, tmp_path, capsys, provider_id):
    path = tmp_path / "foreign_index.jsonl"
    lines = (workspace / "index.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["provider_id"] = provider_id
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    code = run_cli(workspace, "run", "--index", str(path), "--output", str(tmp_path / "results.jsonl"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown embedding provider in index {path}: {provider_id!r}\n"
    assert list(tmp_path.iterdir()) == [path]  # no results, no ledger


def test_cmd_run_replay_twice_is_byte_identical(workspace):
    outputs = []
    for name in ("run_a.jsonl", "run_b.jsonl"):
        code = run_cli(
            workspace, "run", "--mode", "replay", "--output", str(workspace / name)
        )
        assert code == 0
        outputs.append((workspace / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert not (workspace / "run_a.progress.jsonl").exists()  # ledger cleaned up


def test_cmd_run_replay_miss_exits_environment(workspace, tmp_path):
    empty = tmp_path / "empty_transcripts.jsonl"
    empty.write_text("")
    code = main([
        "run",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "tables.json"),
        "--index", str(workspace / "index.jsonl"),
        "--transcripts", str(empty),
        "--mode", "replay",
        "--output", str(tmp_path / "out.jsonl"),
    ])
    assert code == 3


def test_cmd_run_round2_replay_miss_exits_environment(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("solidql.cli.HttpChatProvider.from_env", make_provider)
    store = str(tmp_path / "round1.jsonl")
    code = run_cli(workspace, "run", "--mode", "record", "--rounds", "1", "--transcripts", store,
                   "--output", str(tmp_path / "record.jsonl"))
    assert code == 0
    code = run_cli(workspace, "run", "--mode", "replay", "--rounds", "2", "--transcripts", store,
                   "--output", str(tmp_path / "out.jsonl"))
    assert code == 3
    assert "environment error: no transcript for request" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_cmd_run_rounds_one_makes_no_round2_requests(workspace):
    code = run_cli(
        workspace, "run", "--mode", "replay", "--rounds", "1",
        "--output", str(workspace / "run_r1.jsonl"),
    )
    assert code == 0
    results = [json.loads(line) for line in (workspace / "run_r1.jsonl").read_text().splitlines()]
    assert all(r["round2_sql"] == "" for r in results)
    assert all(r["final_sql"] == r["round1_sql"] for r in results)


def test_cmd_eval_all_gold_is_perfect(workspace, databases_root, capsys):
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(workspace / "run_eval.jsonl"),
        "--output", str(workspace / "report.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "EX  100.0" in out
    assert "EM  100.0" in out


def test_cmd_eval_output_that_is_a_directory_exits_two(workspace, databases_root, tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr("solidql.cli.load_dataset", refuse_to_read)
    path = tmp_path / "report.json"
    path.mkdir()
    code = main(["eval", "--dataset", str(workspace / "shop_dataset.json"),
                 "--databases", str(databases_root),
                 "--predictions", str(workspace / "run_eval.jsonl"), "--output", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --output is a directory: {path}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_cmd_run_corrupt_ledger_exits_environment(workspace, tmp_path, capsys):
    output = tmp_path / "out.jsonl"
    ledger = output.with_suffix(".progress.jsonl")
    ledger.write_text('\n{broken\n{"index": 1, "result": {}}\n')
    code = run_cli(workspace, "run", "--mode", "replay", "--output", str(output))
    assert code == 3
    assert f"{ledger}, line 1" in capsys.readouterr().err  # a blank line is malformed too


def test_cmd_run_blank_line_in_an_append_only_file_exits_environment(workspace, tmp_path, capsys):
    output = tmp_path / "out.jsonl"
    ledger = output.with_suffix(".progress.jsonl")
    lines = _ledger_text(workspace, 2).splitlines(keepends=True)
    ledger.write_text(lines[0] + "\n" + lines[1])
    code = run_cli(workspace, "run", "--mode", "replay", "--output", str(output))
    assert code == 3
    assert f"{ledger}, line 2: malformed record" in _environment_error(capsys)
    ledger.unlink()
    transcripts = tmp_path / "transcripts.jsonl"
    lines = (workspace / "transcripts.jsonl").read_text().splitlines(keepends=True)
    transcripts.write_text("".join(lines[:2]) + "\n" + "".join(lines[2:]))
    code = run_cli(workspace, "run", "--mode", "replay", "--transcripts", str(transcripts),
                   "--output", str(output))
    assert code == 3
    assert f"{transcripts}, line 3: malformed record" in _environment_error(capsys)
    assert not output.exists()


def test_cmd_run_corrupt_transcripts_exit_environment(workspace, tmp_path, capsys):
    transcripts = tmp_path / "transcripts.jsonl"
    lines = (workspace / "transcripts.jsonl").read_text().splitlines(keepends=True)
    transcripts.write_text("".join(lines[:2]) + "{broken\n" + "".join(lines[2:]))
    code = main([
        "run",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "tables.json"),
        "--index", str(workspace / "index.jsonl"),
        "--transcripts", str(transcripts),
        "--mode", "replay",
        "--output", str(tmp_path / "out.jsonl"),
    ])
    assert code == 3
    assert f"{transcripts}, line 3" in capsys.readouterr().err


def _ledger_text(workspace, count):
    """A resume ledger holding the first ``count`` results of the replayed run."""
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()[:count]
    return "".join(json.dumps({"index": i, "result": json.loads(line)}) + "\n"
                   for i, line in enumerate(lines))


# each value of the wrong type: the file it goes in, the line and key it replaces
WRONG_TYPED_RECORDS = {
    "transcript hash an object": ("transcripts", 2, "hash", {"a": 1}),
    "transcript response a number": ("transcripts", 3, "response", 5),
    "transcript response a list": ("transcripts", 1, "response", []),
    "transcript response an object": ("transcripts", 1, "response", {}),
    "transcript response a bool": ("transcripts", 1, "response", True),
    "transcript response null": ("transcripts", 2, "response", None),
    "ledger index a list": ("ledger", 2, "index", [1]),
    "ledger index a string": ("ledger", 1, "index", "0"),
    "ledger index a bool": ("ledger", 1, "index", False),
}


@pytest.mark.parametrize("corruption", WRONG_TYPED_RECORDS)
def test_cmd_run_wrong_typed_record_names_file_line_and_key(workspace, tmp_path, capsys, corruption):
    name, number, key, value = WRONG_TYPED_RECORDS[corruption]
    output = tmp_path / "out.jsonl"
    paths = {"transcripts": tmp_path / "transcripts.jsonl",
             "ledger": output.with_suffix(".progress.jsonl")}
    texts = {"transcripts": (workspace / "transcripts.jsonl").read_text(),
             "ledger": _ledger_text(workspace, 2)}
    lines = texts[name].splitlines()
    _edit_record(lines, number, **{key: value})
    texts[name] = "\n".join(lines) + "\n"
    for part, path in paths.items():
        path.write_text(texts[part])
    code = run_cli(workspace, "run", "--mode", "replay", "--transcripts", str(paths["transcripts"]),
                   "--output", str(output))
    assert code == 3
    message = _environment_error(capsys)
    assert f"{paths[name]}, line {number}: malformed record" in message
    assert f"record.{key} is " in message
    assert not output.exists()


@pytest.mark.parametrize("edit", ["question changed", "index past the end"])
def test_cmd_run_refuses_a_ledger_of_another_dataset(workspace, tmp_path, capsys, edit):
    dataset = json.loads((workspace / "shop_dataset.json").read_text())
    output = tmp_path / "out.jsonl"
    ledger = output.with_suffix(".progress.jsonl")
    ledger.write_text(_ledger_text(workspace, 2))
    if edit == "question changed":
        dataset[0]["question"] = "What are the names of all shops?"
    else:
        ledger.write_text(ledger.read_text().replace('{"index": 1,', '{"index": 5,'))
    (tmp_path / "dataset.json").write_text(json.dumps(dataset))
    code = run_cli(workspace, "run", "--mode", "replay", "--dataset", str(tmp_path / "dataset.json"),
                   "--output", str(output))
    assert code == 2
    item = 0 if edit == "question changed" else 5
    assert f"error: resume ledger {ledger} holds item {item} " in capsys.readouterr().err
    assert not output.exists()


def _break_byte(path, number):
    """Write 0xff over the middle byte of line ``number`` of ``path``."""
    lines = path.read_bytes().splitlines(keepends=True)
    line = bytearray(lines[number - 1])
    line[len(line) // 2] = 0xFF
    lines[number - 1] = bytes(line)
    path.write_bytes(b"".join(lines))


def _environment_error(capsys):
    err = capsys.readouterr().err.splitlines()
    (message,) = [line for line in err if line.startswith("environment error")]
    return message


def test_cmd_run_index_byte_not_utf8_names_its_line(workspace, tmp_path, capsys):
    index = tmp_path / "index.jsonl"
    shutil.copy(workspace / "index.jsonl", index)
    number = len(index.read_bytes().splitlines())
    _break_byte(index, number)
    code = run_cli(workspace, "run", "--mode", "replay", "--index", str(index),
                   "--output", str(tmp_path / "out.jsonl"))
    assert code == 3
    message = _environment_error(capsys)
    assert f"{index}, line {number}: malformed index record" in message
    assert len(message) < 300


def test_cmd_run_transcript_byte_not_utf8_names_its_line(workspace, tmp_path, capsys):
    transcripts = tmp_path / "transcripts.jsonl"
    shutil.copy(workspace / "transcripts.jsonl", transcripts)
    lines = transcripts.read_bytes().splitlines()
    number = 1 + max(range(len(lines) - 1), key=lambda i: len(lines[i]))  # not the last line
    assert len(lines[number - 1]) > 1000
    _break_byte(transcripts, number)
    code = main([
        "run",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "tables.json"),
        "--index", str(workspace / "index.jsonl"),
        "--transcripts", str(transcripts),
        "--mode", "replay",
        "--output", str(tmp_path / "out.jsonl"),
    ])
    assert code == 3
    message = _environment_error(capsys)
    assert f"{transcripts}, line {number}: malformed record" in message
    assert len(message) < 300


def _replace_line(lines, number, text):
    lines[number - 1] = text
    return number


def _edit_record(lines, number, drop=(), **fields):
    record = json.loads(lines[number - 1])
    record.update(fields)
    for key in drop:
        del record[key]
    return _replace_line(lines, number, json.dumps(record))


def _swap_first_records(lines):
    lines[1], lines[2] = lines[2], lines[1]
    return 2


def _embedding_not_numbers(lines):
    vector = json.loads(lines[2])["q_embedding"]
    return _edit_record(lines, 3, q_embedding=[str(value) for value in vector])


def _embedding_value(lines, value):
    vector = json.loads(lines[2])["q_embedding"]
    vector[1] = value
    return _edit_record(lines, 3, q_embedding=vector)


def _repeat_first_text(lines):
    first, second = json.loads(lines[1]), json.loads(lines[2])
    assert first["s_postorder"] != second["s_postorder"]
    return _edit_record(lines, 3, s_skeleton=first["s_skeleton"])


# each edit of a saved index returns the line number the error must name
INDEX_CORRUPTIONS = {
    "undecodable header": lambda lines: _replace_line(lines, 1, "{broken"),
    "undecodable record": lambda lines: _replace_line(lines, 3, "{broken"),
    "record missing a field": lambda lines: _edit_record(lines, 4, drop=("sql",)),
    "pool order": _swap_first_records,
    "array lengths differ": lambda lines: _edit_record(lines, 2, s_postorder=["a", "b"], s_leftmost=[0]),
    "leftmost leaf after its node": lambda lines: _edit_record(
        lines, 2, s_postorder=["a", "b"], s_leftmost=[0, 2]),
    "subtrees do not nest": lambda lines: _edit_record(
        lines, 2, s_postorder=["a", "b", "c", "d"], s_leftmost=[0, 0, 1, 0]),
    "one text, two trees": _repeat_first_text,
    "embedding of another length": lambda lines: _edit_record(lines, 2, q_embedding=[1.0] * 10),
    "embedding not numbers": _embedding_not_numbers,
    "embedding holds NaN": lambda lines: _embedding_value(lines, math.nan),
    "embedding holds Infinity": lambda lines: _embedding_value(lines, math.inf),
    "embedding holds -Infinity": lambda lines: _embedding_value(lines, -math.inf),
    "embedding holds an integer beyond float range": lambda lines: _embedding_value(lines, 10**400),
    "embedding values sum beyond float range": lambda lines: _edit_record(
        lines, 2, q_embedding=[1e308] * len(json.loads(lines[1])["q_embedding"])),
}


@pytest.mark.parametrize("corruption", INDEX_CORRUPTIONS)
def test_cmd_run_corrupt_index_exits_environment(workspace, tmp_path, capsys, corruption):
    lines = (workspace / "index.jsonl").read_text().splitlines()
    number = INDEX_CORRUPTIONS[corruption](lines)
    index = tmp_path / "index.jsonl"
    index.write_text("\n".join(lines) + "\n")
    code = run_cli(workspace, "run", "--mode", "replay", "--index", str(index),
                   "--output", str(tmp_path / "out.jsonl"))
    assert code == 3
    assert f"{index}, line {number}: malformed index record" in capsys.readouterr().err


def test_cmd_run_refuses_index_of_older_format(workspace, tmp_path, capsys):
    lines = (workspace / "index.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    del header["format"]
    records = [json.loads(line) for line in lines[1:]]
    for record in records:
        del record["s_postorder"], record["s_leftmost"]
    index = tmp_path / "index.jsonl"
    index.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
    code = run_cli(workspace, "run", "--mode", "replay", "--index", str(index),
                   "--output", str(tmp_path / "out.jsonl"))
    assert code == 2
    assert "rebuild with `solidql index`" in capsys.readouterr().err


def test_cmd_run_quotes_an_index_format_of_another_type(workspace, tmp_path, capsys):
    lines = (workspace / "index.jsonl").read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["format"] = str(header["format"])
    index = tmp_path / "index.jsonl"
    index.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    code = run_cli(workspace, "run", "--mode", "replay", "--index", str(index),
                   "--output", str(tmp_path / "out.jsonl"))
    assert code == 2
    assert f"is a retrieval index of format '{header['format']}', not " in capsys.readouterr().err


# headers that name no string provider_id and integer dimension
BAD_INDEX_HEADERS = {
    "array": "[]", "number": "5", "no provider_id": '{"dimension": 256}', "empty file": "",
    "dimension a string": '{"dimension": "256", "format": 2, "provider_id": "hashed-bow-256-v1"}',
}


@pytest.mark.parametrize("header", BAD_INDEX_HEADERS)
def test_malformed_index_header_exits_environment(workspace, tmp_path, capsys, header):
    lines = (workspace / "index.jsonl").read_text().splitlines(keepends=True)
    index = tmp_path / "index.jsonl"
    text = BAD_INDEX_HEADERS[header]
    index.write_text(text and text + "\n" + "".join(lines[1:]))
    code = run_cli(workspace, "run", "--mode", "replay", "--index", str(index),
                   "--output", str(tmp_path / "out.jsonl"))
    assert code == 3
    assert f"{index}, line 1: malformed index record" in capsys.readouterr().err


def _unknown_db_dataset(source, tmp_path):
    dataset = json.loads(source.read_text())
    dataset[1]["db_id"] = "no_such_db"
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(dataset))
    return path


def test_cmd_run_unknown_db_id_exits_two(workspace, tmp_path, capsys):
    dataset = _unknown_db_dataset(workspace / "shop_dataset.json", tmp_path)
    output = tmp_path / "out.jsonl"
    code = run_cli(workspace, "run", "--mode", "replay", "--predictor", "oracle",
                   "--dataset", str(dataset), "--output", str(output))
    assert code == 2
    assert "dataset item 1: db_id 'no_such_db'" in capsys.readouterr().err
    assert not output.exists() and not output.with_suffix(".progress.jsonl").exists()


def test_cmd_index_unknown_db_id_exits_two(workspace, tmp_path, capsys):
    dataset = _unknown_db_dataset(workspace / "shop_pool.json", tmp_path)
    output = tmp_path / "index.jsonl"
    code = main(["index", "--dataset", str(dataset), "--tables", str(workspace / "tables.json"),
                 "--output", str(output)])
    assert code == 2
    assert "dataset item 1: db_id 'no_such_db'" in capsys.readouterr().err
    assert not output.exists()


def test_offline_commands_never_import_the_http_stack(workspace, databases_root, tmp_path):
    commands = [
        ["index", "--dataset", str(workspace / "shop_pool.json"),
         "--tables", str(workspace / "tables.json"), "--output", str(tmp_path / "index.jsonl")],
        ["run", "--dataset", str(workspace / "shop_dataset.json"),
         "--tables", str(workspace / "tables.json"), "--index", str(tmp_path / "index.jsonl"),
         "--transcripts", str(workspace / "transcripts.jsonl"), "--mode", "replay",
         "--output", str(tmp_path / "results.jsonl")],
        ["eval", "--dataset", str(workspace / "shop_dataset.json"),
         "--databases", str(databases_root), "--predictions", str(tmp_path / "results.jsonl")],
    ]
    script = (
        "import json, sys\n"
        "from solidql.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = [name for name in ('urllib.request', 'http.client') if name in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'http': loaded}))\n"
    )
    src = str(Path(solidql.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                               capture_output=True, text=True, env=env, timeout=120)
    assert completed.returncode == 0, completed.stderr
    outcome = json.loads(completed.stdout.splitlines()[-1])
    assert outcome == {"codes": [0, 0, 0], "http": []}


def test_cmd_eval_detects_failures_and_exits_one(workspace, databases_root, tmp_path):
    results = [json.loads(line) for line in (workspace / "run_eval.jsonl").read_text().splitlines()]
    results[0]["final_sql"] = "SELECT age FROM employee"  # wrong column
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(json.dumps(r) for r in results) + "\n")
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(broken),
    ])
    assert code == 1


# predictions that no step of eval may let escape as an exception: each is
# scored as a failed item with an execution error
PATHOLOGICAL_PREDICTIONS = {
    "400 nested parentheses": "SELECT " + "(" * 400 + "name" + ")" * 400 + " FROM employee",
    "a lone surrogate": "SELECT name FROM employee WHERE name = '\ud83d'",
    "a 10,000-term AND chain": "SELECT name FROM employee WHERE " + " AND ".join(["age > 1"] * 10_000),
}


@pytest.mark.parametrize("prediction", PATHOLOGICAL_PREDICTIONS)
def test_cmd_eval_scores_a_pathological_prediction_as_an_error(
        workspace, databases_root, tmp_path, prediction):
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()
    _edit_record(lines, 2, final_sql=PATHOLOGICAL_PREDICTIONS[prediction])
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("\n".join(lines) + "\n")
    report = tmp_path / "report.json"
    code = main(["eval", "--dataset", str(workspace / "shop_dataset.json"),
                 "--databases", str(databases_root), "--predictions", str(predictions),
                 "--output", str(report)])
    assert code == 1
    verdicts = [json.loads(line) for line in report.read_text().splitlines()[1:]]
    assert [v["error"] is not None for v in verdicts] == [False, True, False, False, False]
    assert [v["ex"] or v["em"] for v in verdicts] == [True, False, True, True, True]


# each edit of a results file returns the line number the error must name
PREDICTION_CORRUPTIONS = {
    "undecodable line": lambda lines: _replace_line(lines, 3, "{broken"),
    "line missing final_sql": lambda lines: _edit_record(lines, 2, drop=("final_sql",)),
    "final_sql null": lambda lines: _edit_record(lines, 2, final_sql=None),
    "flags a string": lambda lines: _edit_record(lines, 3, flags="ab"),
    "linked null": lambda lines: _edit_record(lines, 1, linked=None),
}


@pytest.mark.parametrize("corruption", PREDICTION_CORRUPTIONS)
def test_cmd_eval_malformed_predictions_exit_environment(
    workspace, databases_root, tmp_path, capsys, corruption
):
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()
    number = PREDICTION_CORRUPTIONS[corruption](lines)
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("\n".join(lines) + "\n")
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(predictions),
    ])
    assert code == 3
    assert f"{predictions}, line {number}: malformed record" in capsys.readouterr().err


def test_cmd_eval_names_a_flag_that_is_not_a_string(workspace, databases_root, tmp_path, capsys):
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()
    number = _edit_record(lines, 4, flags=[1])
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("\n".join(lines) + "\n")
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(predictions),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{predictions}, line {number}: malformed record" in err
    assert "flags[0] is int, not str" in err


def _main_on_dataset(command, dataset, workspace, databases_root, tmp_path):
    """``command`` on ``dataset``, saved as ``dataset.json``; return its exit code
    and the file's path."""
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(dataset))
    tables = ["--tables", str(workspace / "tables.json")]
    argv = {
        "eval": ["--databases", str(databases_root), "--predictions", str(workspace / "run_eval.jsonl")],
        "index": [*tables, "--output", str(tmp_path / "index.jsonl")],
        "run": [*tables, "--index", str(workspace / "index.jsonl"),
                "--transcripts", str(workspace / "transcripts.jsonl"),
                "--output", str(tmp_path / "out.jsonl")],
        "build-sft": [*tables, "--no-augment", "--output", str(tmp_path / "sft.jsonl")],
    }[command]
    return main([command, *argv, "--dataset", str(path)]), path


def _set_item_field(number, key, value):
    def edit(dataset):
        dataset[number][key] = value
        return dataset, f"dataset[{number}].{key} is {type(value).__name__}, not str"

    return edit


def _item_not_an_object(dataset):
    dataset[2] = "SELECT 1"
    return dataset, "dataset[2] is str, not dict"


def _item_without_query(dataset):
    del dataset[1]["query"]
    return dataset, "dataset[1] has no 'query'"


# each edit of a dataset returns the edited value and the key path the error must name
DATASET_CORRUPTIONS = {
    "query null": _set_item_field(1, "query", None),
    "question a number": _set_item_field(0, "question", 5),
    "item not an object": _item_not_an_object,
    "top level a number": lambda dataset: (5, "dataset is int, not list"),
}
DATASET_COMMANDS = ["eval", "index", "run", "build-sft"]


@pytest.mark.parametrize("command", DATASET_COMMANDS)
def test_dataset_item_without_query_exits_two(workspace, databases_root, tmp_path, capsys, command):
    dataset, expected = _item_without_query(json.loads((workspace / "shop_dataset.json").read_text()))
    code, path = _main_on_dataset(command, dataset, workspace, databases_root, tmp_path)
    assert code == 2
    assert f"error: dataset {path} is malformed: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("command", DATASET_COMMANDS)
@pytest.mark.parametrize("corruption", DATASET_CORRUPTIONS)
def test_malformed_dataset_exits_two(workspace, databases_root, tmp_path, capsys, command, corruption):
    dataset = json.loads((workspace / "shop_dataset.json").read_text())
    dataset, expected = DATASET_CORRUPTIONS[corruption](dataset)
    code, path = _main_on_dataset(command, dataset, workspace, databases_root, tmp_path)
    assert code == 2
    assert f"error: dataset {path} is malformed: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("command", DATASET_COMMANDS)
def test_dataset_items_keep_extra_spider_keys(workspace, databases_root, tmp_path, command):
    """Spider's own dataset files carry ``query_toks`` and a parsed ``sql``
    beside the keys the commands read; each command takes such items."""
    dataset = json.loads((workspace / "shop_dataset.json").read_text())
    for item in dataset:
        item.update(query_toks=item["query"].split(), sql={"select": [False, []], "from": {}})
    code, _ = _main_on_dataset(command, dataset, workspace, databases_root, tmp_path)
    assert code == 0


def test_cmd_eval_robustness_pairing(workspace, databases_root, capsys):
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(workspace / "run_eval.jsonl"),
        "--robustness", str(workspace / "run_eval.jsonl"),
    ])
    assert code == 0
    assert "robustness  100.0" in capsys.readouterr().out


def test_cmd_eval_robustness_failing_pair_exits_one(workspace, databases_root, tmp_path, capsys):
    results = [json.loads(line) for line in (workspace / "run_eval.jsonl").read_text().splitlines()]
    results[1]["final_sql"] = "SELECT count(*) FROM employee"  # 4 employees, 3 shops
    perturbed = tmp_path / "perturbed.jsonl"
    perturbed.write_text("\n".join(json.dumps(r) for r in results) + "\n")
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(workspace / "run_eval.jsonl"),
        "--robustness", str(perturbed),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "EX  100.0" in out
    assert "robustness  80.0" in out


def test_cmd_eval_refuses_misaligned_items(workspace, databases_root, tmp_path, capsys):
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()

    def eval_with(predictions, robustness):
        files = []
        for name, edit in (("clean.jsonl", predictions), ("perturbed.jsonl", robustness)):
            results = [json.loads(line) for line in lines]
            results[2].update(edit)
            path = tmp_path / name
            path.write_text("\n".join(json.dumps(r) for r in results) + "\n")
            files.append(str(path))
        return main([
            "eval",
            "--dataset", str(workspace / "shop_dataset.json"),
            "--databases", str(databases_root),
            "--predictions", files[0],
            "--robustness", files[1],
        ])

    assert eval_with({"db_id": "concert_singer"}, {}) == 2
    assert "alignment mismatch at item 2" in capsys.readouterr().err
    assert eval_with({"question": "Another question?"}, {}) == 2
    assert eval_with({}, {"db_id": "concert_singer"}) == 2
    assert "robustness pair 2 targets different databases" in capsys.readouterr().err
    # only perturbed questions may differ
    assert eval_with({}, {"question": "A reworded question?"}) == 0


def test_cmd_eval_alignment_mismatch_is_fatal(workspace, databases_root, tmp_path, capsys):
    short = tmp_path / "short.jsonl"
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()
    short.write_text("\n".join(lines[:2]) + "\n")
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(short),
    ])
    assert code == 2
    assert "alignment mismatch" in capsys.readouterr().err
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(workspace / "run_eval.jsonl"),
        "--robustness", str(tmp_path / "missing.jsonl"),
    ])
    assert code == 2
    assert "--robustness file not found" in capsys.readouterr().err
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        "--predictions", str(workspace / "run_eval.jsonl"),
        "--robustness", str(short),
    ])
    assert code == 2
    assert "robustness alignment mismatch: 5 clean vs 2 perturbed" in capsys.readouterr().err


# each damage to a whole results file: its text from the file's lines, and the line to name
RESULTS_DAMAGE = {
    "last line cut": (lambda lines: "\n".join(lines[:-1]) + "\n" + lines[-1][:20], 5),
    "blank line": (lambda lines: "\n".join(lines[:2] + [""] + lines[2:]) + "\n", 3),
}


@pytest.mark.parametrize("flag", ["--predictions", "--robustness"])
@pytest.mark.parametrize("damage", RESULTS_DAMAGE)
def test_cmd_eval_damaged_results_file_exits_environment(
    workspace, databases_root, tmp_path, capsys, flag, damage
):
    edit, number = RESULTS_DAMAGE[damage]
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()
    assert len(lines) == 5
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text(edit(lines))
    files = {"--predictions": str(workspace / "run_eval.jsonl"),
             "--robustness": str(workspace / "run_eval.jsonl"), flag: str(damaged)}
    code = main([
        "eval",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--databases", str(databases_root),
        *(arg for pair in files.items() for arg in pair),
    ])
    assert code == 3
    assert f"{damaged}, line {number}: malformed record" in _environment_error(capsys)


def test_cmd_run_then_eval_on_an_empty_dataset(workspace, databases_root, tmp_path, capsys):
    dataset = tmp_path / "empty.json"
    dataset.write_text("[]")
    output = tmp_path / "out.jsonl"
    code = run_cli(workspace, "run", "--mode", "replay", "--dataset", str(dataset),
                   "--output", str(output))
    assert code == 0
    assert output.read_bytes() == b""
    code = main(["eval", "--dataset", str(dataset), "--databases", str(databases_root),
                 "--predictions", str(output), "--robustness", str(output)])
    assert code == 0
    assert "items  0" in capsys.readouterr().out


def test_cmd_build_sft_counts_and_determinism(workspace, capsys):
    for name in ("sft_a.jsonl", "sft_b.jsonl"):
        code = main([
            "build-sft",
            "--dataset", str(workspace / "shop_dataset.json"),
            "--tables", str(workspace / "tables.json"),
            "--transcripts", str(workspace / "transcripts.jsonl"),
            "--mode", "replay",
            "--output", str(workspace / name),
            "--augmented-out", str(workspace / f"aug_{name}.json"),
        ])
        assert code == 0
    out = capsys.readouterr().out
    assert "triplets in: 5  augmented: 15  sft records: 15" in out
    assert (workspace / "sft_a.jsonl").read_bytes() == (workspace / "sft_b.jsonl").read_bytes()
    augmented = json.loads((workspace / "aug_sft_a.jsonl.json").read_text())
    assert [r["origin"] for r in augmented[:3]] == ["original", "rewrite1", "rewrite2"]
    records = [json.loads(line) for line in (workspace / "sft_a.jsonl").read_text().splitlines()]
    assert all(set(r) == {"instruction", "input", "output"} for r in records)


def test_cmd_build_sft_rewrite_replay_miss_exits_environment(workspace, tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    code = main([
        "build-sft",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "tables.json"),
        "--transcripts", str(tmp_path / "empty.jsonl"),
        "--mode", "replay",
        "--output", str(tmp_path / "sft.jsonl"),
    ])
    assert code == 3
    assert "environment error: no transcript for request" in capsys.readouterr().err
    assert not (tmp_path / "sft.jsonl").exists()


def test_cmd_build_sft_live_needs_no_transcripts(workspace, tmp_path, monkeypatch, capsys):
    provider = make_provider()
    monkeypatch.setattr("solidql.cli.HttpChatProvider.from_env", lambda: provider)
    code = main([
        "build-sft",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "tables.json"),
        "--mode", "live",
        "--output", str(tmp_path / "sft.jsonl"),
    ])
    assert code == 0
    assert "sft records: 15" in capsys.readouterr().out
    assert provider.calls == ["rewrite"] * 5


def test_cmd_build_sft_no_augment_keeps_the_original_items(workspace, tmp_path, monkeypatch, capsys):
    provider = make_provider()
    monkeypatch.setattr("solidql.cli.HttpChatProvider.from_env", lambda: provider)
    code = main([
        "build-sft",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "tables.json"),
        "--mode", "live",
        "--no-augment",
        "--output", str(tmp_path / "sft.jsonl"),
        "--augmented-out", str(tmp_path / "augmented.json"),
    ])
    assert code == 0
    assert "triplets in: 5  augmented: 5  sft records: 5  skipped: 0" in capsys.readouterr().out
    assert provider.calls == []
    dataset = json.loads((workspace / "shop_dataset.json").read_text())
    augmented = json.loads((tmp_path / "augmented.json").read_text())
    assert augmented == [{**item, "origin": "original"} for item in dataset]
    records = [json.loads(line) for line in (tmp_path / "sft.jsonl").read_text().splitlines()]
    assert [item["question"] in record["input"] for item, record in zip(dataset, records)] == [True] * 5


def test_cmd_index_refuses_a_missing_transcript_store(workspace, tmp_path, capsys):
    code = main([
        "index",
        "--dataset", str(workspace / "shop_pool.json"),
        "--tables", str(workspace / "tables.json"),
        "--transcripts", str(tmp_path / "no_such_file.jsonl"),
        "--output", str(tmp_path / "index.jsonl"),
    ])
    assert code == 2
    assert "--transcripts file not found" in capsys.readouterr().err
    assert not (tmp_path / "index.jsonl").exists()


def test_cmd_index_on_two_hundred_item_pool(workspace, tmp_path, capsys):
    import random

    from support import random_statement

    rng = random.Random(88)
    records = [
        {"question": f"synthetic question {i}", "db_id": "concert_singer",
         "query": random_statement(rng)}
        for i in range(200)
    ]
    dataset = tmp_path / "pool200.json"
    dataset.write_text(json.dumps(records))
    out = tmp_path / "index200.jsonl"
    code = main([
        "index",
        "--dataset", str(dataset),
        "--tables", str(workspace / "tables.json"),
        "--output", str(out),
    ])
    assert code == 0
    assert "pool size: 200" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 201  # header plus one line per example
    assert load_index(out).dimension == 256


# sha256 of ``solidql index`` over shop_pool.json and tables.json: a change
# to parsing, masking, hashing or the file format that alters a byte shows here.
SHOP_POOL_INDEX_SHA256 = "3ae6b364c2d844933dc7cf3da525660e4fa2f3ad8549552f3f8e3f7813b0e21a"


def test_cmd_index_output_is_pinned(workspace, tmp_path):
    out = tmp_path / "index.jsonl"
    code = main([
        "index",
        "--dataset", str(FIXTURES / "shop_pool.json"),
        "--tables", str(FIXTURES / "tables.json"),
        "--output", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHOP_POOL_INDEX_SHA256


def test_cmd_index_parses_each_pool_item_once(workspace, tmp_path, monkeypatch, caplog):
    import solidql.cli
    import solidql.skeleton

    statements = ["SELECT name FROM singer", "SELECT FROM WHERE", "SELECT count(*) FROM concert",
                  "SELECT name FROM singer WHERE age > (SELECT avg(age) FROM singer)"]
    records = [{"question": f"question {i}", "db_id": "concert_singer", "query": sql}
               for i, sql in enumerate(statements)]
    dataset = tmp_path / "pool.json"
    dataset.write_text(json.dumps(records))
    parsed = []
    parse_sql = solidql.cli.parse_sql

    def counting_parse(sql):
        parsed.append(sql)
        return parse_sql(sql)

    def refuse(sql):
        raise AssertionError(f"{sql!r} parsed again for its skeleton")

    monkeypatch.setattr(solidql.cli, "parse_sql", counting_parse)
    monkeypatch.setattr(solidql.skeleton, "parse_sql", refuse)
    out = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        code = main(["index", "--dataset", str(dataset), "--tables", str(workspace / "tables.json"),
                     "--output", str(out)])
    assert code == 0
    assert parsed == statements
    skipped = [r.getMessage() for r in caplog.records if "unparseable" in r.getMessage()]
    assert len(skipped) == 1 and skipped[0].startswith("skipping pool item 1 (unparseable SQL)")
    lines = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [(r["pool_index"], r["question"]) for r in lines] == [
        (0, "question 0"), (1, "question 2"), (2, "question 3"),
    ]


def test_cmd_index_skips_a_statement_nested_past_the_bound(workspace, tmp_path, caplog):
    deep = "SELECT name FROM singer WHERE age > " + "(" * 400 + "1" + ")" * 400
    records = [{"question": f"question {i}", "db_id": "concert_singer", "query": sql}
               for i, sql in enumerate(["SELECT name FROM singer", deep, "SELECT count(*) FROM singer"])]
    dataset = tmp_path / "pool.json"
    dataset.write_text(json.dumps(records))
    out = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        code = main(["index", "--dataset", str(dataset), "--tables", str(workspace / "tables.json"),
                     "--output", str(out)])
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [
        "skipping pool item 1 (unparseable SQL): statement nests too deeply (at offset 134)"]
    assert [p.question for p in load_index(out).pool] == ["question 0", "question 2"]


def test_cmd_index_skips_a_chain_past_the_bound(workspace, tmp_path, caplog, capsys):
    first = "SELECT name FROM singer WHERE age > 1"
    chain = first + " AND age > 1" * 9_999
    records = [{"question": f"question {i}", "db_id": "concert_singer", "query": sql}
               for i, sql in enumerate(["SELECT name FROM singer", chain])]
    dataset = tmp_path / "pool.json"
    dataset.write_text(json.dumps(records))
    out = tmp_path / "index.jsonl"
    with caplog.at_level("WARNING"):
        code = main(["index", "--dataset", str(dataset), "--tables", str(workspace / "tables.json"),
                     "--output", str(out)])
    assert code == 0
    # the 98th AND pushes the first comparison's right operand, at level 3, past 100
    offset = len(first) + 97 * len(" AND age > 1") + 1
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping pool item 1 (unparseable SQL): statement nests too deeply (at offset {offset})"]
    assert "Traceback" not in capsys.readouterr().err
    assert [p.question for p in load_index(out).pool] == ["question 0"]


def test_cmd_index_masks_an_alias_cycle_by_rule(workspace, tmp_path, capsys):
    from solidql.retrieval import rule_based_question_skeleton
    from solidql.schema import SchemaSubset

    records = [
        {"question": "What is the foo of each singer?", "db_id": "concert_singer",
         "query": "SELECT foo AS foo FROM singer"},
        {"question": "What are the names of singers?", "db_id": "concert_singer",
         "query": "SELECT name FROM singer"},
    ]
    dataset = tmp_path / "pool.json"
    dataset.write_text(json.dumps(records))
    out = tmp_path / "index.jsonl"
    code = main(["index", "--dataset", str(dataset), "--tables", str(workspace / "tables.json"),
                 "--output", str(out)])
    assert code == 0
    assert "pool size: 2" in capsys.readouterr().out
    first, second = load_index(out).pool
    assert first.q_skeleton == rule_based_question_skeleton(first.question, SchemaSubset())
    assert first.q_skeleton == "What is the foo of each singer?"
    assert second.q_skeleton == "What are the _ of _?"


def test_missing_tables_file_exits_two(workspace, capsys):
    code = main([
        "build-sft",
        "--dataset", str(workspace / "shop_dataset.json"),
        "--tables", str(workspace / "nope.json"),
        "--output", str(workspace / "x.jsonl"),
        "--no-augment",
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def _set_schema_field(key, value):
    def edit(records):
        records[1][key] = value
        return records

    return edit


def _column_of_table(index):
    def edit(records):
        records[1]["column_names_original"][2][0] = index
        return records

    return edit


# each edit of the fixture tables.json returns the edited value; the record named is 1
# unless the test expects another message
TABLES_CORRUPTIONS = {
    "empty record": lambda records: [records[0], {}],
    "record a number": lambda records: [records[0], 5],
    "column table index out of range": _column_of_table(5),
    "column table index negative": _column_of_table(-2),
    "primary key out of range": _set_schema_field("primary_keys", [99]),
    "primary key negative": _set_schema_field("primary_keys", [-1]),
    "top level an object": lambda records: {"db_id": "shop"},
    "tables differing only in case": lambda records: [
        records[0], {**records[1], "table_names_original": records[1]["table_names_original"] + ["AUTHOR"]}],
    "primary key the star column": _set_schema_field("primary_keys", [0]),
    "column_types one short": lambda records: [
        records[0], {**records[1], "column_types": records[1]["column_types"][:-1]}],
    "one db_id twice": lambda records: records + records[:1],
}


@pytest.mark.parametrize("corruption", TABLES_CORRUPTIONS)
def test_malformed_tables_file_exits_two(workspace, tmp_path, capsys, corruption):
    records = json.loads((workspace / "tables.json").read_text())
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(TABLES_CORRUPTIONS[corruption](records)))
    code = main(["index", "--dataset", str(workspace / "shop_pool.json"),
                 "--tables", str(tables), "--output", str(tmp_path / "index.jsonl")])
    assert code == 2
    if corruption == "top level an object":
        expected = f"{tables} holds a JSON dict, not an array of schemas"
    elif corruption == "one db_id twice":
        expected = f"{tables}, records 0 and 3: both describe db_id 'concert_singer'"
    else:
        expected = f"{tables}, record 1: malformed schema"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("name", ["dataset", "tables"])
@pytest.mark.parametrize("body", [b'[{"question": "q" "db_id": "shop"}]', b'["\xff"]'],
                         ids=["missing comma", "not utf-8"])
def test_cmd_index_input_not_json_exits_two_naming_the_file(workspace, tmp_path, capsys, name, body):
    broken = tmp_path / f"{name}.json"
    broken.write_bytes(body)
    paths = {"dataset": workspace / "shop_pool.json", "tables": workspace / "tables.json", name: broken}
    code = main(["index", "--dataset", str(paths["dataset"]), "--tables", str(paths["tables"]),
                 "--output", str(tmp_path / "index.jsonl")])
    assert code == 2
    assert f"error: {name} {broken} is not valid JSON: " in capsys.readouterr().err
    assert not (tmp_path / "index.jsonl").exists()


def test_config_file_with_flag_overrides(workspace, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": str(workspace / "shop_dataset.json"),
        "tables": str(workspace / "tables.json"),
        "index_path": str(workspace / "index.jsonl"),
        "transcripts": str(workspace / "transcripts.jsonl"),
        "mode": "replay",
        "workers": 2,
    }))
    code = main([
        "--config", str(config_path),
        "run",
        "--output", str(tmp_path / "out.jsonl"),
    ])
    assert code == 0
    assert (tmp_path / "out.jsonl").exists()


# every flag of the four subcommands, with a value it takes
PIPELINE_FLAGS = {
    "--dataset": ["d.json"], "--tables": ["t.json"], "--databases": ["db"], "--index": ["i.jsonl"],
    "--transcripts": ["t.jsonl"], "--output": ["o.jsonl"], "--model": ["m"],
    "--linking-model": ["m"], "--embedder": ["hashed"], "--predictor": ["oracle"],
    "--examples": ["3"], "--rounds": ["1"], "--no-focus": [], "--mode": ["live"],
    "--workers": ["8"], "--augmented-out": ["a.json"], "--no-augment": [],
    "--predictions": ["p.jsonl"], "--robustness": ["r.jsonl"],
}
# the flags each subcommand reads, as README's subcommand/flags table lists them
FLAGS_READ = dict(re.findall(
    r"^\| `([a-z-]+)` \| `(--[^`]*)` \|$",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE,
))


@pytest.mark.parametrize("command", FLAGS_READ)
def test_subcommand_takes_only_the_flags_it_reads(command, capsys):
    assert list(FLAGS_READ) == list(SUBCOMMANDS)  # a row for each subcommand
    with pytest.raises(SystemExit) as stopped:
        main([command, "--help"])
    assert stopped.value.code == 0
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(listed) == sorted(FLAGS_READ[command].split())
    for flag, values in PIPELINE_FLAGS.items():
        if flag not in listed:
            with pytest.raises(SystemExit) as stopped:
                main([command, flag, *values])
            assert stopped.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_missing_value_names_its_flag(workspace, databases_root, tmp_path, capsys):
    code = main(["run", "--dataset", str(workspace / "shop_dataset.json"),
                 "--tables", str(workspace / "tables.json"), "--output", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert "error: --index is required for this command" in capsys.readouterr().err
    eval_argv = ["eval", "--dataset", str(workspace / "shop_dataset.json"),
                 "--databases", str(databases_root)]
    assert main(eval_argv) == 2
    assert "error: --predictions is required for this command" in capsys.readouterr().err
    missing = tmp_path / "missing.jsonl"
    assert main([*eval_argv, "--predictions", str(missing)]) == 2
    assert f"error: --predictions file not found: {missing}" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for key in ("datasets", "max_concurrent_requests"):  # a typo; a removed key
        config_path.write_text(json.dumps({key: 2}))
        code = main(["--config", str(config_path), "run"])
        assert code == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

# each config value of the wrong JSON type, and the type the error must name
WRONG_CONFIG_TYPES = {
    "n_examples": ("7", "int"),
    "workers": (True, "int"),
    "max_tokens": (5.0, "int"),
    "focus_enabled": (1, "bool"),
    "timeout": ("30", "float"),
    "model_id": (None, "str"),
    "dataset": (5, "str | None"),
}
# config values of the right type that the run cannot use
OUT_OF_RANGE_CONFIG = [
    ("n_examples", 0), ("workers", 0), ("max_tokens", 0),
    ("rounds", 3), ("mode", "offline"), ("predictor", "magic"),
    ("timeout", -1), ("timeout", 0), ("timeout", float("nan")), ("timeout", float("inf")),
    ("timeout", 10**400),
]


def test_config_value_of_wrong_type_exits_two(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for key, (value, expected) in WRONG_CONFIG_TYPES.items():
        config_path.write_text(json.dumps({key: value}))
        assert main(["--config", str(config_path), "run"]) == 2
        assert f"config key {key!r} must be {expected}" in capsys.readouterr().err
    for key, value in OUT_OF_RANGE_CONFIG:
        config_path.write_text(json.dumps({key: value}))
        assert main(["--config", str(config_path), "run"]) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
    config_path.write_text(json.dumps([]))
    assert main(["--config", str(config_path), "run"]) == 2
    config_path.write_text(json.dumps({"timeout": 5, "linking_model_id": None, "rounds": 1}))
    assert RunConfig.from_file(config_path) == RunConfig(timeout=5, rounds=1)


FUZZ_VALUES = [None, 0, -1, 7, 2.5, "x", [], ["x"], {}, {"k": 1}, float("nan"), 10**400]
DELETE = "<delete>"


def _kind(value):
    """The JSON type of ``value``, one name for integers and floats."""
    return "number" if type(value) in (int, float) else type(value).__name__


def _fuzz(rng, root):
    """Change or delete one value inside ``root``, in place; return its key path,
    the old value and the new one."""
    node, path = root, []
    while True:
        key = rng.randrange(len(node)) if isinstance(node, list) else rng.choice(sorted(node))
        path.append(key)
        if not (isinstance(node[key], (list, dict)) and node[key]) or rng.random() < 0.3:
            break
        node = node[key]
    old, new = node[key], rng.choice(FUZZ_VALUES + [DELETE])
    if new == DELETE:
        del node[key]
    else:
        node[key] = copy.deepcopy(new)
    return path, old, new


def test_fuzzed_inputs_exit_with_a_documented_code(workspace, tmp_path):
    """One JSON value changed in one input per trial: no exception escapes
    ``main``, and a value of another JSON type under a key that a record
    shape declares exits 3 from every command that reads that record."""
    files = {  # name in the trial directory: (text, line shapes of a JSON-lines file)
        "tables.json": ((workspace / "tables.json").read_text(), None),
        "dataset.json": ((workspace / "shop_dataset.json").read_text(), None),
        "index.jsonl": ((workspace / "index.jsonl").read_text(), [INDEX_HEADER, INDEX_RECORD]),
        "transcripts.jsonl": ((workspace / "transcripts.jsonl").read_text(), [TRANSCRIPT]),
        "out.progress.jsonl": (_ledger_text(workspace, 2), [LEDGER_ENTRY]),
    }
    run = ["run", "--index", "index.jsonl", "--output", "out.jsonl"]
    index = ["index", "--output", "index.jsonl"]
    shared = ["--mode", "replay", "--dataset", "dataset.json", "--tables", "tables.json",
              "--transcripts", "transcripts.jsonl"]
    commands = {argv[0]: [str(tmp_path / arg) if ".json" in arg else arg
                          for arg in argv + shared] for argv in (run, index)}
    rng = random.Random(16)
    for trial in range(300):
        name = rng.choice(sorted(files))
        text, shapes = files[name]
        root = [json.loads(line) for line in text.splitlines()] if shapes else json.loads(text)
        path, old, new = _fuzz(rng, root)
        for other, (other_text, _) in files.items():
            (tmp_path / other).write_text(other_text)
        (tmp_path / name).write_text(
            "".join(json.dumps(line) + "\n" for line in root) if shapes else json.dumps(root)
        )
        declared = shapes is not None and (
            len(path) == 1 or path[1] in shapes[min(path[0], len(shapes) - 1)]
        )
        wrong_type = declared and new != DELETE and _kind(new) != _kind(old)
        for command, argv in commands.items():
            trace = f"trial {trial}, {command}: {name} {path} {old!r:.40} -> {new!r}"
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{trace}: {exc!r} escaped main")
            assert code in (0, 2, 3), trace  # run and index never exit 1
            # index reads the transcripts, not the index it replaces
            reads = command == "run" or name == "transcripts.jsonl"
            if wrong_type and reads:
                assert code == 3, trace
