"""Pipeline configuration: defaults, JSON file loading, flag overrides.

Resolution order: built-in defaults, then the JSON config file named by
``--config``, then command-line flags; no environment variable takes part.
A config file must be valid on its own; its read, key, type and bound errors
name the file, and a ``files.read_json`` fault (a repeated key, say) exits
1 as a configuration error. Each bounded key declares its bound once, on
its field, as the text its fault shows; ``validate`` checks every field
against it.
Adam's decay rates and epsilon are the constants of ``nn.optim.Adam`` and
both agents' early-stopping and rate schedule the ``agents`` constants
``STOP_PATIENCE``, ``LR_PATIENCE`` and ``LR_FACTOR``, not config keys, and a record's split is
manifest data (``fixtures.assign_splits``), not config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from deepagent import files
from deepagent.errors import ConfigurationError, IngestionError


def _key(default, bound: str):
    """A config field whose value must meet ``bound``: ``>= n``,
    ``finite and >= n`` or ``'x' or 'y'``."""
    return field(default=default, metadata={"bound": bound})


def _within(value, bound: str) -> bool:
    """Whether ``value`` meets a ``_key`` bound; NaN meets none of them."""
    if bound.startswith("'"):                      # 'x' or 'y'
        return repr(value) in bound.split(" or ")
    low = float(bound.rpartition(">= ")[2])        # [finite and] >= n
    return low <= value and (value < math.inf or not bound.startswith("finite"))


@dataclass
class Agent1Config:
    learning_rate: float = _key(0.0001, "finite and >= 0")
    epochs: int = _key(50, ">= 1")
    # batch norm skips Agent-1 batches of fewer than two samples
    batch_size: int = _key(16, ">= 2")
    augment: bool = True


@dataclass
class Agent2Config:
    learning_rate: float = _key(0.001, "finite and >= 0")
    epochs: int = _key(100, ">= 1")
    batch_size: int = _key(16, ">= 1")


@dataclass
class PipelineConfig:
    seed: int = _key(42, ">= 0")
    frame_policy: str = _key("interval5", "'interval5' or 'even'")
    m: int = _key(30, ">= 1")                # cap for the "even" policy
    desk_scale: bool = False
    forest_trees: int = _key(100, ">= 1")
    folds: int = _key(5, ">= 2")
    agent1: Agent1Config = field(default_factory=Agent1Config)
    agent2: Agent2Config = field(default_factory=Agent2Config)

    @property
    def input_size(self) -> int:
        return 64 if self.desk_scale else 224

    def validate(self) -> "PipelineConfig":
        _check_bounds(self, "")
        return self


def _check_bounds(obj, context: str) -> None:
    for f in fields(obj):
        key, value = context + f.name, getattr(obj, f.name)
        if is_dataclass(value):
            _check_bounds(value, key + ".")
        elif "bound" in f.metadata and not _within(value, f.metadata["bound"]):
            raise ConfigurationError(
                f"{key} must be {f.metadata['bound']}, got {value!r}")


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
        if is_dataclass(current):
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
    if path is not None:
        p = Path(path)
        # the file must be valid on its own, so its faults can name it
        try:
            data = files.read_json(p, "config")
        except IngestionError as exc:  # a config fault, not an input's
            raise ConfigurationError(f"config {exc}") from None
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
