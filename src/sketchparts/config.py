"""Run configuration: a JSON file of section -> known keys.

Unknown keys anywhere are rejected so typos fail loudly. The "parser" and
"router" keys are the fields of training.TrainPlan and RouterPlan, less
their seed: a run has one seed, the top-level "seed" or --seed.

    {
      "format_version": 1,
      "taxonomy": "path/to/taxonomy.tax",
      "seed": 0,
      "corpus": {"per_category": 40, "image_size": 128, "categories": [...]},
      "parser": {"iterations": 3000, "lr_body": 0.0005, "clip_norm": null, ...},
      "router": {"iterations": 400, "lr": 0.0007, "batch_size": 32}
    }

These are no keys: momentum and the rate decay power (optim.MOMENTUM and
POLY_POWER fix them), and the on/off switches class_balance, augment and
background balancing (training always balances every label, background
included, and always augments).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .errors import ConfigError
from .training import RouterPlan, TrainPlan

FORMAT_VERSION = 1
TOP_LEVEL_KEYS = {"format_version", "taxonomy", "seed", "corpus", "parser", "router"}
CORPUS_KEYS = {"per_category", "image_size", "categories"}


def _check_keys(given, allowed, where):
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(given).__name__}")
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _plan_keys(cls):
    return {f.name for f in dataclasses.fields(cls)} - {"seed"}


class RunConfig:
    def __init__(self, raw, base_dir="."):
        _check_keys(raw, TOP_LEVEL_KEYS, "config")
        _check_keys(raw.get("corpus", {}), CORPUS_KEYS, "corpus")
        _check_keys(raw.get("parser", {}), _plan_keys(TrainPlan), "parser")
        _check_keys(raw.get("router", {}), _plan_keys(RouterPlan), "router")
        version = raw.get("format_version", FORMAT_VERSION)
        if type(version) is not int or version != FORMAT_VERSION:
            raise ConfigError(f"format_version must be {FORMAT_VERSION}, got {version!r}")
        self.base_dir = Path(base_dir)
        self.taxonomy_path = raw.get("taxonomy")
        if self.taxonomy_path is not None:
            if not isinstance(self.taxonomy_path, str):
                raise ConfigError("taxonomy must be a path string")
            self.taxonomy_path = str(self.base_dir / self.taxonomy_path)
            if not Path(self.taxonomy_path).exists():
                raise ConfigError(f"taxonomy file {self.taxonomy_path} does not exist")
        self.seed = raw.get("seed", 0)
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        self.corpus = dict(raw.get("corpus", {}))
        self.parser = dict(raw.get("parser", {}))
        self.router = dict(raw.get("router", {}))

    def train_plan(self, **overrides):
        merged = {**self.parser, **{k: v for k, v in overrides.items() if v is not None}}
        return TrainPlan(**merged)

    def router_plan(self, **overrides):
        merged = {**self.router, **{k: v for k, v in overrides.items() if v is not None}}
        return RouterPlan(**merged)


def load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return RunConfig(raw, base_dir=path.parent)
