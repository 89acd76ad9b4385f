"""Pipeline configuration: defaults, JSON file loading, flag overrides.

Resolution order: built-in defaults, then the JSON config file (explicit
``--config`` path or the ``DEEPAGENT_CONFIG`` environment variable), then
command-line flags. A config file must be valid on its own; its read, key,
type and bound errors name the file. Every value numpy or the optimizer
reads is bounded: a non-negative seed, split fractions in [0, 1], a
finite non-negative learning rate, a rate factor in (0, 1] and patiences
of at least one epoch. Adam's decay rates and epsilon are the constants
of ``nn.optim.Adam``, not config keys.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from deepagent.errors import ConfigurationError

CONFIG_ENV_VAR = "DEEPAGENT_CONFIG"


@dataclass
class Agent1Config:
    learning_rate: float = 0.0001
    epochs: int = 50
    batch_size: int = 16
    augment: bool = True


@dataclass
class Agent2Config:
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 16
    early_stop_patience: int = 10
    lr_factor: float = 0.5
    lr_patience: int = 5


@dataclass
class PipelineConfig:
    seed: int = 42
    train_fraction: float = 0.70
    val_fraction: float = 0.20
    test_fraction: float = 0.10
    frame_policy: str = "interval5"   # "interval5" or "even"
    m: int = 30                       # cap for the "even" policy
    desk_scale: bool = False
    forest_trees: int = 100
    folds: int = 5
    agent1: Agent1Config = field(default_factory=Agent1Config)
    agent2: Agent2Config = field(default_factory=Agent2Config)

    @property
    def fractions(self):
        return (self.train_fraction, self.val_fraction, self.test_fraction)

    @property
    def input_size(self) -> int:
        return 64 if self.desk_scale else 224

    def validate(self) -> "PipelineConfig":
        ranges = [("train_fraction", self.train_fraction, "in [0, 1]"),
                  ("val_fraction", self.val_fraction, "in [0, 1]"),
                  ("test_fraction", self.test_fraction, "in [0, 1]"),
                  ("agent2.lr_factor", self.agent2.lr_factor, "in (0, 1]")]
        for name, agent in (("agent1", self.agent1), ("agent2", self.agent2)):
            ranges.append((f"{name}.learning_rate", agent.learning_rate, "finite and >= 0"))
        for key, value, bound in ranges:
            if not _WITHIN[bound](value):
                raise ConfigurationError(f"{key} must be {bound}, got {value}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"split fractions must sum to 1, got {self.fractions}")
        if self.frame_policy not in ("interval5", "even"):
            raise ConfigurationError(
                f"frame_policy must be 'interval5' or 'even', got {self.frame_policy!r}")
        for key, value, low in (
            ("seed", self.seed, 0),
            ("m", self.m, 1),
            ("folds", self.folds, 2),
            ("forest_trees", self.forest_trees, 1),
            ("agent1.epochs", self.agent1.epochs, 1),
            # batch norm skips Agent-1 batches of fewer than two samples
            ("agent1.batch_size", self.agent1.batch_size, 2),
            ("agent2.epochs", self.agent2.epochs, 1),
            ("agent2.batch_size", self.agent2.batch_size, 1),
            ("agent2.early_stop_patience", self.agent2.early_stop_patience, 1),
            ("agent2.lr_patience", self.agent2.lr_patience, 1),
        ):
            if value < low:
                raise ConfigurationError(f"{key} must be >= {low}, got {value}")
        return self


# float bounds by the text their fault message shows; NaN is in none of them
_WITHIN = {
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
}


# JSON value types each field type accepts (booleans only for bool fields)
_ACCEPTS = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _apply(obj, data: dict, context: str):
    known = {f.name: f for f in fields(obj)}
    for key, value in data.items():
        if key not in known:
            raise ConfigurationError(f"unknown config key {context}{key}")
        current = getattr(obj, key)
        if isinstance(current, (Agent1Config, Agent2Config)):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {context}{key} must be an object")
            _apply(current, value, f"{context}{key}.")
            continue
        kind = type(known[key].default)
        types, what = _ACCEPTS[kind]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
            raise ConfigurationError(
                f"config key {context}{key} must be {what}, got {value!r}")
        try:
            setattr(obj, key, kind(value))
        except OverflowError:  # an integer float() cannot convert
            raise ConfigurationError(
                f"config key {context}{key} is too large for a float") from None


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a validated config from defaults, optional file, and overrides."""
    cfg = PipelineConfig()
    if path is None:
        env = os.environ.get(CONFIG_ENV_VAR)
        if env:
            path = env
    if path is not None:
        p = Path(path)
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
            raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
        # the file must be valid on its own, so its faults can name it
        try:
            if not isinstance(data, dict):
                raise ConfigurationError("must be a JSON object")
            _apply(cfg, data, "")
            cfg.validate()
        except ConfigurationError as exc:
            raise ConfigurationError(f"config {p}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _apply(cfg, {key: value}, "")
    return cfg.validate()
