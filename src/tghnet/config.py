"""Experiment configuration: JSON schema with strict validation.

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

import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .loss import LinkConfig
from .nn.optim import AdamConfig
from .nn.train import TrainConfig
from .tgh import InverseSolverConfig


@dataclass(frozen=True)
class FractionSplit:
    fraction: float
    seed: int

    def apply(self, dataset):
        from .data import split_fraction

        return split_fraction(dataset, self.fraction, self.seed)

    def to_json(self) -> dict:
        return {"rule": "fraction", "fraction": self.fraction, "seed": self.seed}


@dataclass(frozen=True)
class ByColumnSplit:
    column: str
    val_values: tuple[float, ...]
    test_values: tuple[float, ...]

    def apply(self, dataset):
        from .data import split_by_column_values

        return split_by_column_values(
            dataset, self.column, self.val_values, self.test_values
        )

    def to_json(self) -> dict:
        return {
            "rule": "by_column_values",
            "column": self.column,
            "val_values": list(self.val_values),
            "test_values": list(self.test_values),
        }


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

    @property
    def head_dim(self) -> int:
        return 4 if self.loss == "tukey" else 2


def _check_keys(section: dict, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")


def _string_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where}: expected a list of strings")
    return tuple(value)


def _number_list(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{where}: expected a list of numbers")
    return tuple(float(v) for v in value)


def _int(value, where: str) -> int:
    # bool is an int subclass, and int() would truncate 2.7 or parse "256"
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _float(value, where: str) -> float:
    # float() would parse "10", and bool is an int subclass
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _int_list(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of integers, got {value!r}")
    return tuple(_int(v, where) for v in value)


def _numbers(section, where: str, ints=()) -> dict:
    """Constructor keywords from a section of JSON numbers: ints for the keys
    in ints, a list of ints for lr_drop_epochs, floats for the rest."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    return {k: (_int_list if k == "lr_drop_epochs" else _int if k in ints else _float)(
        v, f"{where}.{k}") for k, v in section.items()}


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_split(section: dict) -> FractionSplit | ByColumnSplit:
    if not isinstance(section, dict) or "rule" not in section:
        raise ConfigError("split: expected an object with a 'rule' key")
    rule = section["rule"]
    if rule == "fraction":
        _check_keys(section, "split", ("rule", "fraction"), ("seed",))
        return FractionSplit(
            fraction=_float(section["fraction"], "split.fraction"),
            seed=_int(section.get("seed", 0), "split.seed"),
        )
    if rule == "by_column_values":
        _check_keys(section, "split", ("rule", "column", "val_values", "test_values"))
        return ByColumnSplit(
            column=_str(section["column"], "split.column"),
            val_values=_number_list(section["val_values"], "split.val_values"),
            test_values=_number_list(section["test_values"], "split.test_values"),
        )
    raise ConfigError(f"split.rule: unknown rule {rule!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    _check_keys(
        raw, "config",
        ("loss", "data", "network", "training", "split"),
        ("seed", "optimizer", "link", "solver"),
    )
    loss = raw["loss"]
    if loss not in ("tukey", "gaussian"):
        raise ConfigError(f"loss: expected 'tukey' or 'gaussian', got {loss!r}")

    data = raw["data"]
    _check_keys(data, "data", ("target", "features"), ("late_columns", "standardize"))
    features = _string_list(data["features"], "data.features")
    late = _string_list(data.get("late_columns", []), "data.late_columns")
    for name in late:
        if name not in features:
            raise ConfigError(f"data.late_columns: {name!r} is not a feature")

    network = raw["network"]
    _check_keys(network, "network", ("hidden",), ("batch_norm",))
    hidden = _int_list(network["hidden"], "network.hidden")
    if not hidden or min(hidden) < 1:
        raise ConfigError("network.hidden: expected a non-empty list of ints >= 1")

    training = raw["training"]
    _check_keys(training, "training", ("epochs",), ("batch_size", "clip_norm"))

    seed = _int(raw.get("seed", 0), "seed")
    try:
        clip = training.get("clip_norm", TrainConfig.clip_norm)
        train_cfg = TrainConfig(
            epochs=_int(training["epochs"], "training.epochs"),
            batch_size=_int(training.get("batch_size", TrainConfig.batch_size),
                            "training.batch_size"),
            seed=seed,
            clip_norm=None if clip is None else _float(clip, "training.clip_norm"),
        )
        split = _parse_split(raw["split"])
        adam = AdamConfig(**_numbers(raw.get("optimizer", {}), "optimizer"))
        link = LinkConfig(**_numbers(raw.get("link", {}), "link"))
        solver = InverseSolverConfig(**_numbers(
            raw.get("solver", {}), "solver",
            ints=("max_bisection_iters", "max_bracket_doublings")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentConfig(
        loss=loss,
        target=_str(data["target"], "data.target"),
        features=features,
        late_columns=late,
        standardize=_bool(data.get("standardize", True), "data.standardize"),
        hidden=hidden,
        batch_norm=_bool(network.get("batch_norm", True), "network.batch_norm"),
        training=train_cfg,
        seed=seed,
        split=split,
        adam=adam,
        link=link,
        solver=solver,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(raw)
