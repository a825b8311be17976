"""Experiment configuration: JSON schema with strict validation.

The fields of the config dataclasses are the schema.  Unknown keys are
rejected everywhere so that a typo cannot silently fall back to a default.
See README for a full example; the minimal config is

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

from .data import split_by_column_values, split_fraction
from .errors import ConfigError
from .loss import LinkConfig
from .nn.optim import AdamConfig
from .nn.train import LOSS_KINDS, TrainConfig
from .tgh import InverseSolverConfig


@dataclass(frozen=True)
class FractionSplit:
    rule: typing.ClassVar[str] = "fraction"
    fraction: float
    seed: int = 0

    def apply(self, dataset):
        return split_fraction(dataset, self.fraction, self.seed)


@dataclass(frozen=True)
class ByColumnSplit:
    rule: typing.ClassVar[str] = "by_column_values"
    column: str
    val_values: tuple[float, ...]
    test_values: tuple[float, ...]

    def apply(self, dataset):
        return split_by_column_values(
            dataset, self.column, self.val_values, self.test_values
        )


@dataclass(frozen=True)
class ExperimentConfig:
    loss: str
    target: str
    features: tuple[str, ...]
    split: FractionSplit | ByColumnSplit
    hidden: tuple[int, ...]
    training: TrainConfig
    late_columns: tuple[str, ...] = ()
    standardize: bool = True
    batch_norm: bool = True
    seed: int = 0
    adam: AdamConfig = field(default_factory=AdamConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    solver: InverseSolverConfig = field(default_factory=InverseSolverConfig)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss: expected 'tukey' or 'gaussian', got {self.loss!r}")
        for key, names in (("data.features", self.features),
                           ("data.late_columns", self.late_columns)):
            if len(set(names)) != len(names):
                raise ValueError(f"{key}: repeated name in {list(names)}")
        for name in self.late_columns:
            if name not in self.features:
                raise ValueError(f"data.late_columns: {name!r} is not a feature")
        if len(self.late_columns) == len(self.features):
            raise ValueError("data.features: expected at least one that is not a late column")
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("network.hidden: expected a non-empty list of ints >= 1")

    @property
    def head_dim(self) -> int:
        return LOSS_KINDS[self.loss]


# The JSON key of each field that is not the key of its own name in its own
# object.  The flat ExperimentConfig fields sit in the "data" and "network"
# objects, and TrainConfig.seed is no key of "training": parse_config fills
# it from the top-level seed.
_JSON_KEY = {
    (ExperimentConfig, "target"): "data.target",
    (ExperimentConfig, "features"): "data.features",
    (ExperimentConfig, "late_columns"): "data.late_columns",
    (ExperimentConfig, "standardize"): "data.standardize",
    (ExperimentConfig, "hidden"): "network.hidden",
    (ExperimentConfig, "batch_norm"): "network.batch_norm",
    (ExperimentConfig, "adam"): "optimizer",
    (TrainConfig, "seed"): None,
}

_JSON_TYPE = {bool: "true or false", int: "an integer", float: "a finite number",
              str: "a string", dict: "an object"}


def _typed(value, tp, where: str):
    """The parsed JSON value as the field annotation tp: a list for a tuple,
    an object for a dataclass, a dict or a split rule, null only for `X | None`.
    A bool is not a number, a float is not an int, and a float (an int is
    accepted and converted) must be finite."""
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(v, typing.get_args(tp)[0], where) for v in value)
    if isinstance(tp, types.UnionType):
        tp, *rest = typing.get_args(tp)
        if rest != [type(None)]:
            return parse_split(value, where)
        return None if value is None else _typed(value, tp, where)
    if dataclasses.is_dataclass(tp):
        return read(tp, value, where)
    if tp is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ConfigError(f"{where}: expected {_JSON_TYPE[tp]}, got {value!r}")
    return value


def read(cls, obj, where: str = ""):
    """An instance of the dataclass cls from the JSON object obj.

    The fields of cls are the schema: each is the key of its own name (or
    the one _JSON_KEY gives), required unless it has a default, and of the
    JSON type of its annotation.  Every error is a ConfigError that names
    the dotted key below where.
    """
    label = where or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{label}: expected an object")
    hints = typing.get_type_hints(cls)
    keys = {_JSON_KEY.get((cls, f.name), f.name): f for f in dataclasses.fields(cls)}
    keys.pop(None, None)
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"{label}: unknown key(s) {sorted(unknown)}")
    missing = [k for k, f in keys.items() if k not in obj
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{label}: missing required key(s) {sorted(missing)}")
    kwargs = {f.name: _typed(obj[k], hints[f.name], f"{where}.{k}".lstrip("."))
              for k, f in keys.items() if k in obj}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # __post_init__ messages open with the field name
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None


def parse_split(obj, where: str = "split") -> FractionSplit | ByColumnSplit:
    """The split rule a JSON object describes: its "rule" key names the rule,
    the other keys are that rule's fields."""
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'rule' key")
    cls = next((c for c in (FractionSplit, ByColumnSplit) if c.rule == obj["rule"]), None)
    if cls is None:
        raise ConfigError(f"{where}.rule: unknown rule {obj['rule']!r}")
    return read(cls, {k: v for k, v in obj.items() if k != "rule"}, where)


def split_to_json(split: FractionSplit | ByColumnSplit) -> dict:
    """The JSON object that parse_split reads back to split."""
    return {"rule": split.rule, **{k: list(v) if isinstance(v, tuple) else v
                                   for k, v in dataclasses.asdict(split).items()}}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected an object")
    flat = {}
    for key, value in raw.items():
        if key in ("data", "network"):
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected an object")
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        elif "." in key:
            raise ConfigError(f"config: unknown key(s) {[key]}")
        else:
            flat[key] = value
    cfg = read(ExperimentConfig, flat)
    return dataclasses.replace(cfg, training=dataclasses.replace(cfg.training, seed=cfg.seed))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)
