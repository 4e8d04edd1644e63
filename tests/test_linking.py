"""Augmentation, SFT dataset building and predictors."""

from __future__ import annotations

import pytest

from solidql.errors import PredictorError, RewriteError
from solidql.gateway import LlmGateway
from solidql.linking import (
    GatewayLinkingPredictor,
    OracleLinkingPredictor,
    QuestionRewriter,
    Triplet,
    augment_dataset,
    build_sft_dataset,
    predict_linking,
)
from solidql.schema import SchemaSubset, parse_subset
from solidql.sql.parser import parse_sql
from solidql.sql.refs import extract_schema_refs

from support import FakeChatProvider


class FixedRewriter:
    def rewrite(self, question):
        return f"{question} alpha", f"{question} beta"


class FailingRewriter:
    def rewrite(self, question):
        raise RewriteError("down")


@pytest.fixture()
def triplets(schemas, shop_dataset):
    return [
        Triplet(r["question"], schemas[r["db_id"]], r["query"]) for r in shop_dataset
    ]


def test_augment_emits_three_per_item(triplets):
    out = augment_dataset(triplets[:1], FixedRewriter())
    assert len(out) == 3
    assert [t.origin for t in out] == ["original", "rewrite1", "rewrite2"]


def test_augment_never_touches_schema_or_sql(triplets):
    out = augment_dataset(triplets, FixedRewriter())
    assert len(out) == 3 * len(triplets)
    for i, triplet in enumerate(triplets):
        group = out[3 * i : 3 * i + 3]
        assert all(t.schema is triplet.schema for t in group)
        assert all(t.gold_sql == triplet.gold_sql for t in group)


def test_augment_degrades_to_originals_on_failure(triplets, caplog):
    out = augment_dataset(triplets, FailingRewriter())
    assert [t.question for t in out] == [t.question for t in triplets]
    assert all(t.origin == "original" for t in out)


def test_question_rewriter_parses_numbered_lines():
    gateway = LlmGateway(mode="live", provider=FakeChatProvider())
    rewriter = QuestionRewriter(gateway, "rewriter-model")
    first, second = rewriter.rewrite("How many shops are there?")
    assert first == "How many shops are there? (restructured)"
    assert second == "How many shops are there? (synonyms)"


def test_question_rewriter_rejects_unparseable():
    gateway = LlmGateway(mode="live", provider=lambda request: "no numbered lines")
    rewriter = QuestionRewriter(gateway, "rewriter-model")
    with pytest.raises(RewriteError):
        rewriter.rewrite("Hello?")


def test_sft_records_round_trip_to_gold_subsets(triplets):
    records = build_sft_dataset(triplets)
    assert len(records) == len(triplets)
    for record, triplet in zip(records, triplets):
        subset = parse_subset(record.output)
        gold = extract_schema_refs(parse_sql(triplet.gold_sql), triplet.schema)
        assert subset == gold
        assert triplet.question in record.input
        assert "CREATE TABLE" in record.input


def test_sft_output_is_canonical_form(schemas):
    triplet = Triplet("q", schemas["concert_singer"], "SELECT name FROM singer")
    record = build_sft_dataset([triplet])[0]
    assert record.output == "tables: singer | columns: singer.name"


def test_sft_skips_dirty_gold_sql(triplets, schemas):
    dirty = Triplet("bad", schemas["shop"], "SELECT missing_col FROM employee")
    records = build_sft_dataset(triplets + [dirty])
    assert len(records) == len(triplets)


def test_sft_order_stable(triplets):
    first = build_sft_dataset(triplets)
    second = build_sft_dataset(triplets)
    assert first == second


def test_oracle_predictor_matches_gold(schemas, shop_dataset):
    predictor = OracleLinkingPredictor.from_records(shop_dataset)
    for record in shop_dataset:
        schema = schemas[record["db_id"]]
        predicted = predict_linking(record["question"], schema, predictor)
        gold = extract_schema_refs(parse_sql(record["query"]), schema)
        assert predicted == gold


def test_predict_linking_drops_hallucinations(schemas):
    class Hallucinating:
        def predict(self, question, schema):
            return SchemaSubset.build(["singer", "ghosts"], ["singer.name", "singer.height"])

    subset = predict_linking("q", schemas["concert_singer"], Hallucinating())
    assert subset.tables == frozenset({"singer"})
    assert subset.columns == frozenset({"singer.name"})


def test_predict_linking_infers_tables_from_columns(schemas):
    class ColumnsOnly:
        def predict(self, question, schema):
            return SchemaSubset(frozenset(), frozenset({"singer.name"}))

    subset = predict_linking("q", schemas["concert_singer"], ColumnsOnly())
    assert subset.tables == frozenset({"singer"})


def test_predict_linking_survives_predictor_error(schemas):
    class Broken:
        def predict(self, question, schema):
            raise PredictorError("nope")

    subset = predict_linking("q", schemas["concert_singer"], Broken())
    assert subset.is_empty


def test_gateway_predictor_parses_canonical_output(schemas):
    provider = FakeChatProvider(
        linkings={"How many singers?": "tables: singer | columns: singer.*"}
    )
    gateway = LlmGateway(mode="live", provider=provider)
    predictor = GatewayLinkingPredictor(gateway, "linker-model")
    subset = predict_linking("How many singers?", schemas["concert_singer"], predictor)
    assert subset == SchemaSubset.build(["singer"], ["singer.*"])


def test_gateway_predictor_unparseable_degrades_to_empty(schemas):
    gateway = LlmGateway(mode="live", provider=lambda request: "cannot help with that")
    predictor = GatewayLinkingPredictor(gateway, "linker-model")
    assert predict_linking("q", schemas["concert_singer"], predictor).is_empty

