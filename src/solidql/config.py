"""Run configuration: JSON config file merged with CLI flag overrides."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .jsonl import read_json

MODES = ("live", "record", "replay")
PREDICTORS = ("oracle", "gateway")

# the JSON values each name in a field's annotation admits; a bool is only a bool
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "None": type(None)}


@dataclass
class RunConfig:
    dataset: str | None = None
    tables: str | None = None
    databases: str | None = None
    index_path: str | None = None
    transcripts: str | None = None
    output: str | None = None
    model_id: str = "gpt-4o-mini"
    linking_model_id: str | None = None  # defaults to model_id
    embedder: str = "hashed"  # read by index only; run takes the provider from the index header
    predictor: str = "gateway"
    n_examples: int = 7  # best average accuracy on the 1..9 grid
    rounds: int = 2
    focus_enabled: bool = True
    mode: str = "replay"
    workers: int = 4
    max_tokens: int = 512
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.n_examples < 1:
            raise ConfigError(f"n_examples must be >= 1, got {self.n_examples}")
        if self.rounds not in (1, 2):
            raise ConfigError(f"rounds must be 1 or 2, got {self.rounds}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor must be one of {PREDICTORS}, got {self.predictor!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        # refuses NaN, which would set no deadline, ±Infinity and integers beyond float range
        if not 0 < self.timeout <= sys.float_info.max:
            raise ConfigError(f"timeout must be a finite number > 0, got {self.timeout}")

    @property
    def linking_model(self) -> str:
        return self.linking_model_id or self.model_id

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        data = read_json(path, "config")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} holds a JSON {type(data).__name__}, not an object")
        annotations = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(annotations)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            allowed = tuple(_JSON_TYPES[name] for name in annotations[key].split(" | "))
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise ConfigError(f"config key {key!r} must be {annotations[key]}, got {value!r}")
        return cls(**data)

    def merged(self, **overrides) -> "RunConfig":
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates)
