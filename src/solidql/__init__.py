"""Robust text-to-SQL pre-processing and evaluation toolkit."""

from .embeddings import HashedBagOfTokens, RemoteEmbeddings, cosine_similarity
from .evaluation import evaluate, exact_match, execute_sql, robustness_check
from .gateway import ChatRequest, HttpChatProvider, LlmGateway, TranscriptStore
from .linking import (
    GatewayLinkingPredictor,
    OracleLinkingPredictor,
    QuestionRewriter,
    Triplet,
    augment_dataset,
    build_sft_dataset,
    linking_accuracy,
    predict_linking,
)
from .pipeline import PipelineResult, run_batch, run_item
from .prompting import build_prompt, parse_sql_from_completion
from .retrieval import (
    ExamplePair,
    PoolItem,
    RetrievalIndex,
    build_index,
    extract_question_skeleton,
    load_index,
    retrieve_by_question_skeleton,
    retrieve_by_sql_skeleton,
    save_index,
)
from .schema import DatabaseSchema, SchemaSubset, load_tables_json, render_ddl
from .skeleton import SqlSkeleton, tree_edit_distance
from .sql import extract_schema_refs, parse_sql, render_sql

__version__ = "0.1.0"

__all__ = [
    "ChatRequest",
    "DatabaseSchema",
    "ExamplePair",
    "GatewayLinkingPredictor",
    "HashedBagOfTokens",
    "HttpChatProvider",
    "LlmGateway",
    "OracleLinkingPredictor",
    "PipelineResult",
    "PoolItem",
    "QuestionRewriter",
    "RemoteEmbeddings",
    "RetrievalIndex",
    "SchemaSubset",
    "SqlSkeleton",
    "TranscriptStore",
    "Triplet",
    "augment_dataset",
    "build_index",
    "build_prompt",
    "build_sft_dataset",
    "cosine_similarity",
    "evaluate",
    "exact_match",
    "execute_sql",
    "extract_question_skeleton",
    "extract_schema_refs",
    "linking_accuracy",
    "load_index",
    "load_tables_json",
    "parse_sql",
    "parse_sql_from_completion",
    "predict_linking",
    "render_ddl",
    "render_sql",
    "retrieve_by_question_skeleton",
    "retrieve_by_sql_skeleton",
    "robustness_check",
    "run_batch",
    "run_item",
    "save_index",
    "tree_edit_distance",
]
