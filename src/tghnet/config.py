"""Experiment configuration: JSON schema with strict validation.

Every JSON object of a config or a model header is one dataclass, and its
fields are the object's keys: read derives each key's JSON type and
default from its field, and dataclasses.asdict writes the object back.
Unknown keys are rejected everywhere so that a typo cannot silently fall
back to a default.  See README for a full example; the minimal config is

    {
      "loss": "tukey",
      "data": {"target": "y", "features": ["x"]},
      "network": {"hidden": [64, 64, 64, 64]},
      "training": {"epochs": 30},
      "split": {"rule": "fraction", "fraction": 0.8, "seed": 0}
    }
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field

from .data import ByColumnSplit, FractionSplit
from .errors import ConfigError
from .loss import LOSS_KINDS, LinkConfig
from .nn.network import NetworkConfig
from .nn.optim import AdamConfig
from .nn.train import TrainConfig
from .tgh import InverseSolverConfig


@dataclass(frozen=True)
class DataConfig:
    """The "data" section: the target and feature columns, the features
    injected late, and whether features are standardized."""

    target: str
    features: tuple[str, ...]
    late_columns: tuple[str, ...] = ()
    standardize: bool = True

    def __post_init__(self):
        for key, names in (("features", self.features), ("late_columns", self.late_columns)):
            if len(set(names)) != len(names):
                raise ValueError(f"{key}: repeated name in {list(names)}")
        for name in self.late_columns:
            if name not in self.features:
                raise ValueError(f"late_columns: {name!r} is not a feature")
        if len(self.late_columns) == len(self.features):
            raise ValueError("features: expected at least one that is not a late column")


@dataclass(frozen=True)
class ExperimentConfig:
    loss: str
    data: DataConfig
    network: NetworkConfig
    training: TrainConfig
    split: FractionSplit | ByColumnSplit
    seed: int = 0
    optimizer: AdamConfig = field(default_factory=AdamConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    solver: InverseSolverConfig = field(default_factory=InverseSolverConfig)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss: expected 'tukey' or 'gaussian', got {self.loss!r}")
        if self.seed < 0:
            raise ValueError(f"seed: expected an integer >= 0, got {self.seed}")


_JSON_TYPE = {bool: "true or false", int: "an integer", float: "a finite number",
              str: "a string"}


def _typed(value, tp, where: str):
    """The parsed JSON value as the field annotation tp: a list for a tuple,
    an object for a dataclass, null only for `X | None`, and for a union of
    split rules the object whose "rule" key names one of them.  A bool is
    not a number, a float is not an int, and a float (an int is accepted
    and converted) must be finite."""
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(v, typing.get_args(tp)[0], where) for v in value)
    if isinstance(tp, types.UnionType):
        options = [t for t in typing.get_args(tp) if t is not type(None)]
        if value is None and len(options) < len(typing.get_args(tp)):
            return None
        if len(options) == 1:
            return _typed(value, options[0], where)
        if not isinstance(value, dict) or "rule" not in value:
            raise ConfigError(f"{where}: expected an object with a 'rule' key")
        tp = next((t for t in options if t.rule == value["rule"]), None)
        if tp is None:
            raise ConfigError(f"{where}.rule: unknown rule {value['rule']!r}")
    if dataclasses.is_dataclass(tp):
        return read(tp, value, where)
    if tp is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ConfigError(f"{where}: expected {_JSON_TYPE[tp]}, got {value!r}")
    return value


def read(cls, obj, where: str = ""):
    """An instance of the dataclass cls from the JSON object obj.

    The fields of cls are the schema: each is the key of its own name,
    required unless it has a default, and of the JSON type of its
    annotation.  A field that is no __init__ argument is a constant of cls
    (a split rule's name, a header's format): its key is required and
    type-checked, and asdict writes the constant back.  Every error is a
    ConfigError that names the dotted key below where.
    """
    label = where or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"{label}: unknown key(s) {sorted(unknown)}")
    missing = [k for k, f in fields.items() if k not in obj and
               (not f.init or f.default is f.default_factory is dataclasses.MISSING)]
    if missing:
        raise ConfigError(f"{label}: missing required key(s) {sorted(missing)}")
    values = {k: _typed(obj[k], hints[k], f"{where}.{k}".lstrip(".")) for k in fields if k in obj}
    try:
        return cls(**{k: v for k, v in values.items() if fields[k].init})
    except ValueError as exc:
        # __post_init__ messages open with the field name
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None


def parse_config(raw) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    return read(ExperimentConfig, raw)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)
