"""CLI subcommands over a temporary workspace with recorded transcripts."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import solidql
from solidql.cli import main
from solidql.config import RunConfig
from solidql.embeddings import HashedBagOfTokens
from solidql.gateway import LlmGateway, TranscriptStore
from solidql.linking import GatewayLinkingPredictor, QuestionRewriter, augment_dataset
from solidql.pipeline import run_batch
from solidql.retrieval import load_index
from solidql.schema import load_tables_json
from solidql.data import triplets_from_dataset

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


def test_cmd_index_refuses_provider_mismatch(workspace, capsys):
    path = workspace / "foreign_index.jsonl"
    lines = (workspace / "index.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["provider_id"] = "remote:other-model"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    code = main([
        "index",
        "--dataset", str(workspace / "shop_pool.json"),
        "--tables", str(workspace / "tables.json"),
        "--output", str(path),
    ])
    assert code == 2
    assert "provider" in capsys.readouterr().err


def test_cmd_index_checks_existing_output_by_header_only(workspace, tmp_path, monkeypatch, capsys):
    path = tmp_path / "index.jsonl"
    shutil.copy(workspace / "index.jsonl", path)

    def refuse_full_load(*args, **kwargs):
        raise AssertionError("the existing index was loaded in full")

    monkeypatch.setattr("solidql.cli.load_index", refuse_full_load)
    monkeypatch.setattr("solidql.retrieval.load_index", refuse_full_load)
    code = main([
        "index",
        "--dataset", str(workspace / "shop_pool.json"),
        "--tables", str(workspace / "tables.json"),
        "--output", str(path),
    ])
    assert code == 0
    assert "pool size: 5" in capsys.readouterr().out
    assert path.read_bytes() == (workspace / "index.jsonl").read_bytes()


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


def test_cmd_run_corrupt_ledger_exits_environment(workspace, tmp_path, capsys):
    output = tmp_path / "out.jsonl"
    ledger = output.with_suffix(".progress.jsonl")
    ledger.write_text('\n{broken\n{"index": 1, "result": {}}\n')
    code = run_cli(workspace, "run", "--mode", "replay", "--output", str(output))
    assert code == 3
    assert f"{ledger}, line 2" in capsys.readouterr().err


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


# headers that name no string provider_id and integer dimension
BAD_INDEX_HEADERS = {
    "array": "[]", "number": "5", "no provider_id": '{"dimension": 256}', "empty file": "",
    "dimension a string": '{"dimension": "256", "format": 2, "provider_id": "hashed-bow-256-v1"}',
}


@pytest.mark.parametrize("command", ["index", "run"])
@pytest.mark.parametrize("header", BAD_INDEX_HEADERS)
def test_malformed_index_header_exits_environment(workspace, tmp_path, capsys, command, header):
    lines = (workspace / "index.jsonl").read_text().splitlines(keepends=True)
    index = tmp_path / "index.jsonl"
    text = BAD_INDEX_HEADERS[header]
    index.write_text(text and text + "\n" + "".join(lines[1:]))
    if command == "index":  # the existing output is checked before it is overwritten
        code = main(["index", "--dataset", str(workspace / "shop_pool.json"),
                     "--tables", str(workspace / "tables.json"), "--output", str(index)])
    else:
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


def _main_on_dataset(command, dataset, workspace, databases_root, tmp_path):
    """``solidql eval`` or ``solidql index`` on ``dataset``, saved as JSON."""
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(dataset))
    if command == "eval":
        argv = ["eval", "--databases", str(databases_root),
                "--predictions", str(workspace / "run_eval.jsonl")]
    else:
        argv = ["index", "--tables", str(workspace / "tables.json"),
                "--output", str(tmp_path / "index.jsonl")]
    return main([*argv, "--dataset", str(path)])


@pytest.mark.parametrize("command", ["eval", "index"])
def test_dataset_item_without_query_exits_two(workspace, databases_root, tmp_path, capsys, command):
    dataset = json.loads((workspace / "shop_dataset.json").read_text())
    del dataset[1]["query"]
    assert _main_on_dataset(command, dataset, workspace, databases_root, tmp_path) == 2
    assert "dataset item 1 is missing 'query'" in capsys.readouterr().err


def _set_item_field(number, key, value):
    def edit(dataset):
        dataset[number][key] = value
        return dataset, f"dataset item {number} has a {key!r} that is not a string"

    return edit


def _item_not_an_object(dataset):
    dataset[2] = "SELECT 1"
    return dataset, "dataset item 2 is a JSON str, not an object"


# each edit of a dataset returns the edited value and the error it must raise
DATASET_CORRUPTIONS = {
    "query null": _set_item_field(1, "query", None),
    "question a number": _set_item_field(0, "question", 5),
    "item not an object": _item_not_an_object,
    "top level a number": lambda dataset: (5, "dataset.json holds a JSON int, not an array of items"),
}


@pytest.mark.parametrize("command", ["eval", "index"])
@pytest.mark.parametrize("corruption", DATASET_CORRUPTIONS)
def test_malformed_dataset_exits_two(workspace, databases_root, tmp_path, capsys, command, corruption):
    dataset = json.loads((workspace / "shop_dataset.json").read_text())
    dataset, expected = DATASET_CORRUPTIONS[corruption](dataset)
    assert _main_on_dataset(command, dataset, workspace, databases_root, tmp_path) == 2
    assert expected in capsys.readouterr().err


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
    torn = tmp_path / "torn.jsonl"
    lines = (workspace / "run_eval.jsonl").read_text().splitlines()
    short.write_text("\n".join(lines[:2]) + "\n")
    torn.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:20])  # a crash mid-append
    for predictions in (short, torn):
        code = main([
            "eval",
            "--dataset", str(workspace / "shop_dataset.json"),
            "--databases", str(databases_root),
            "--predictions", str(predictions),
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
    assert "robustness file not found" in capsys.readouterr().err


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
TABLES_CORRUPTIONS = {
    "empty record": lambda records: [records[0], {}],
    "record a number": lambda records: [records[0], 5],
    "column table index out of range": _column_of_table(5),
    "column table index negative": _column_of_table(-2),
    "primary key out of range": _set_schema_field("primary_keys", [99]),
    "primary key negative": _set_schema_field("primary_keys", [-1]),
    "top level an object": lambda records: {"db_id": "shop"},
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


def test_config_value_of_wrong_type_exits_two(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for key, (value, expected) in WRONG_CONFIG_TYPES.items():
        config_path.write_text(json.dumps({key: value}))
        assert main(["--config", str(config_path), "run"]) == 2
        assert f"config key {key!r} must be {expected}" in capsys.readouterr().err
    config_path.write_text(json.dumps([]))
    assert main(["--config", str(config_path), "run"]) == 2
    config_path.write_text(json.dumps({"timeout": 5, "linking_model_id": None, "rounds": 1}))
    assert RunConfig.from_file(config_path) == RunConfig(timeout=5, rounds=1)
