"""Spans around the calls into each ``solidql`` module's public functions.

The tracer replaces every binding of a traced function in the loaded
``solidql`` modules, including the names a caller imported (for example
``solidql.retrieval.tree_edit_distance`` as well as
``solidql.skeleton.tree_edit_distance``), with a wrapper that records
``(name, parent span, start, end)``. Spans stay in memory and are written
once, as JSON lines, to a file beside the command's outputs. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute); the function is wrapped wherever it is bound
FUNCTIONS = {
    "pipeline.run_item": ("solidql.pipeline", "run_item"),
    "linking.predict_linking": ("solidql.linking", "predict_linking"),
    "retrieval.extract_question_skeleton": ("solidql.retrieval", "extract_question_skeleton"),
    "retrieval.retrieve_by_question_skeleton": ("solidql.retrieval", "retrieve_by_question_skeleton"),
    "retrieval.retrieve_by_sql_skeleton": ("solidql.retrieval", "retrieve_by_sql_skeleton"),
    "retrieval.load_index": ("solidql.retrieval", "load_index"),
    "retrieval.build_index": ("solidql.retrieval", "build_index"),
    "retrieval.save_index": ("solidql.retrieval", "save_index"),
    "skeleton.tree_edit_distance": ("solidql.skeleton", "tree_edit_distance"),
    "embeddings.cosine_similarity": ("solidql.embeddings", "cosine_similarity"),
    "prompting.build_prompt": ("solidql.prompting", "build_prompt"),
    "prompting.parse_sql_from_completion": ("solidql.prompting", "parse_sql_from_completion"),
    "schema.load_tables_json": ("solidql.schema", "load_tables_json"),
    "sql.parse_sql": ("solidql.sql.parser", "parse_sql"),
    "evaluation.evaluate": ("solidql.evaluation", "evaluate"),
    "evaluation.execute_sql": ("solidql.evaluation", "execute_sql"),
    "evaluation.exact_match": ("solidql.evaluation", "exact_match"),
    "evaluation.tables_match": ("solidql.evaluation", "tables_match"),
    "evaluation.robustness_check": ("solidql.evaluation", "robustness_check"),
}

# span name -> (module, class, method); wrapped on the class
METHODS = {
    "pipeline.ProgressLedger.append": ("solidql.pipeline", "ProgressLedger", "append"),
    "gateway.LlmGateway.complete": ("solidql.gateway", "LlmGateway", "complete"),
    "gateway.TranscriptStore.__init__": ("solidql.gateway", "TranscriptStore", "__init__"),
    "embeddings.HashedBagOfTokens.embed": ("solidql.embeddings", "HashedBagOfTokens", "embed"),
    "skeleton.SqlSkeleton.from_sql": ("solidql.skeleton", "SqlSkeleton", "from_sql"),
    "skeleton.SqlSkeleton.from_text": ("solidql.skeleton", "SqlSkeleton", "from_text"),
    "threading.Thread.start": ("threading", "Thread", "start"),
}


def request_kind(request) -> str:
    prompt = request.messages[-1][1]
    if "list the tables and columns" in prompt:
        return "linking"
    if "replacing every domain-specific term" in prompt:
        return "skeleton"
    return "generate"


def _observe_round2(args, kwargs, result, counts):
    counts["round2_fallback"] += result.fallback is not None


def _observe_prompt(args, kwargs, result, counts):
    counts["prompt_chars"] += len(result.system) + len(result.user)


def _observe_complete(args, kwargs, result, counts):
    counts["calls." + request_kind(args[1])] += 1


def _observe_embed(args, kwargs, result, counts):
    counts["embedded_texts"] += len(args[1])


def _observe_evaluate(args, kwargs, result, counts):
    counts["eval_items"] += len(result.records)
    counts["pred_errors"] += sum(1 for r in result.records if r.error is not None)


OBSERVERS = {
    "retrieval.retrieve_by_sql_skeleton": _observe_round2,
    "prompting.build_prompt": _observe_prompt,
    "gateway.LlmGateway.complete": _observe_complete,
    "embeddings.HashedBagOfTokens.embed": _observe_embed,
    "evaluation.evaluate": _observe_evaluate,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, parent index, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if observe is not None:
                observe(args, kwargs, result, counts)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "solidql" or n.startswith("solidql.")]
        for name, (module_name, attribute) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, (module_name, class_name, method) in METHODS.items():
            cls = getattr(sys.modules[module_name], class_name)
            descriptor = cls.__dict__[method]
            if isinstance(descriptor, classmethod):
                wrapper = classmethod(self._wrap(name, descriptor.__func__))
            else:
                wrapper = self._wrap(name, descriptor)
            self._restore.append((cls, method, descriptor))
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, and child call counts."""
        done = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        per_name: dict[str, dict] = {}
        children: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name, parent, start, end in done:
            if parent >= 0:
                child_time[parent] += end - start
                children[self.spans[parent][0]][name] += 1
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, _, start, end = span
            entry = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return {
            "spans": per_name,
            "children": {k: dict(v) for k, v in children.items()},
            "counts": dict(self.counts),
        }
