"""Experiment config schema: defaults, strictness, and rule parsing."""

import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from tghnet.cli import main
from tghnet.config import load_config, parse_config, read
from tghnet.data import ByColumnSplit, FractionSplit, Standardization
from tghnet.errors import ConfigError
from tghnet.loss import LinkConfig
from tghnet.nn import AdamConfig, NetworkConfig, TrainConfig
from tghnet.nn.persist import DataColumns, ModelHeader
from tghnet.tgh import InverseSolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = {
    "loss": "tukey",
    "data": {"target": "y", "features": ["x"]},
    "network": {"hidden": [8, 8]},
    "training": {"epochs": 2},
    "split": {"rule": "fraction", "fraction": 0.8, "seed": 0},
}


def _head_dim(cfg):
    """The head width of the network train builds for cfg."""
    data = DataColumns(cfg.data.features, (), cfg.data.target, None)
    return ModelHeader(cfg.loss, cfg.network, cfg.link, cfg.solver, data).spec.head_dim


def test_minimal_config_defaults():
    cfg = parse_config(json.loads(json.dumps(MINIMAL)))
    assert cfg.loss == "tukey"
    assert _head_dim(cfg) == 4
    assert cfg.training.batch_size == 4096
    assert cfg.training.clip_norm == 10.0
    assert cfg.optimizer.lr == 1e-4
    assert cfg.optimizer.lr_drop_epochs == (10, 15, 20, 30, 40)
    assert cfg.link.h_max == 0.5
    assert cfg.solver.abs_tolerance == 1e-12
    assert cfg.data.standardize is True
    assert isinstance(cfg.split, FractionSplit)
    # the defaults live only in the dataclasses
    assert cfg.optimizer == AdamConfig()
    assert cfg.link == LinkConfig()
    assert cfg.solver == InverseSolverConfig()
    assert cfg.training == TrainConfig(epochs=2)


def test_readme_example_parses():
    block = re.search(r"## Experiment config\n\n```json\n(.*?)```", README.read_text(),
                      re.DOTALL).group(1)
    cfg = parse_config(json.loads(block))
    assert cfg.optimizer.lr == 3e-3
    assert cfg.optimizer.lr_drop_epochs == (40, 52)
    assert cfg.training.batch_size == 512
    assert cfg.training.epochs == 60
    assert cfg.network.hidden == (64, 64, 64, 64)


def test_gaussian_head_dim():
    raw = dict(MINIMAL, loss="gaussian")
    assert _head_dim(parse_config(raw)) == 2


def test_unknown_top_level_key_rejected():
    raw = dict(MINIMAL, extra=1)
    with pytest.raises(ConfigError, match="extra"):
        parse_config(raw)


def test_unknown_nested_key_rejected():
    raw = json.loads(json.dumps(MINIMAL))
    raw["data"]["bogus"] = True
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(raw)


def test_unknown_optimizer_key_rejected():
    raw = json.loads(json.dumps(MINIMAL))
    raw["optimizer"] = {"learning_rate": 0.1}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_missing_required_key():
    raw = json.loads(json.dumps(MINIMAL))
    del raw["split"]
    with pytest.raises(ConfigError, match="split"):
        parse_config(raw)


def test_bad_loss_value():
    with pytest.raises(ConfigError, match="loss"):
        parse_config(dict(MINIMAL, loss="poisson"))


def test_by_column_split_parsed():
    raw = json.loads(json.dumps(MINIMAL))
    raw["data"]["features"] = ["x", "year"]
    raw["split"] = {
        "rule": "by_column_values",
        "column": "year",
        "val_values": [1985, 1995],
        "test_values": [1986, 1996],
    }
    cfg = parse_config(raw)
    assert isinstance(cfg.split, ByColumnSplit)
    assert cfg.split.val_values == (1985.0, 1995.0)


@pytest.mark.parametrize("split", [
    FractionSplit(0.7, 3),
    ByColumnSplit("year", (1985.0, 1995.5), (2000.0,)),
], ids=["fraction", "by_column"])
@pytest.mark.parametrize("standardized", [True, False], ids=["standardized", "raw"])
@pytest.mark.parametrize("late", [(), ("year",)], ids=["no_late", "late_year"])
def test_header_json_roundtrip(split, standardized, late):
    columns = ("lat", "lon", "year")
    st = Standardization(columns, (1.0, 2.0, 2000.0), (3.0, 4.0, 10.0)) if standardized else None
    header = ModelHeader("tukey", NetworkConfig((6, 5)),
                         LinkConfig(h_max=0.4), InverseSolverConfig(),
                         DataColumns(columns, late, "y", st), split)
    assert read(ModelHeader, json.loads(json.dumps(asdict(header)))) == header


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("format"), r"missing required key\(s\) \['format'\]"),
    (lambda h: h.update(format="1"), "header.format: expected an integer"),
    (lambda h: h["split_rule"].pop("rule"), "header.split_rule: expected an object with a 'rule' key"),
], ids=["no_format", "string_format", "no_rule"])
def test_header_constants_are_required_keys(edit, message):
    # format and rule are no __init__ arguments, but their keys are checked
    header = ModelHeader("gaussian", NetworkConfig((4,)), LinkConfig(), InverseSolverConfig(),
                         DataColumns(("x",), (), "y", None), FractionSplit(0.8))
    obj = json.loads(json.dumps(asdict(header)))
    edit(obj)
    with pytest.raises(ConfigError, match=message):
        read(ModelHeader, obj, "header")


def test_unknown_split_rule():
    raw = json.loads(json.dumps(MINIMAL))
    raw["split"] = {"rule": "kfold", "k": 5}
    with pytest.raises(ConfigError, match="kfold"):
        parse_config(raw)


def test_late_columns_must_be_features():
    raw = json.loads(json.dumps(MINIMAL))
    raw["data"]["late_columns"] = ["year"]
    with pytest.raises(ConfigError, match="year"):
        parse_config(raw)


def test_invalid_hidden_widths():
    raw = json.loads(json.dumps(MINIMAL))
    raw["network"]["hidden"] = []
    with pytest.raises(ConfigError, match="hidden"):
        parse_config(raw)


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot open"):
        load_config(tmp_path / "none.json")


def test_optimizer_overrides_roundtrip():
    raw = json.loads(json.dumps(MINIMAL))
    raw["optimizer"] = {"lr": 3e-3, "lr_drop_epochs": [5, 9]}
    raw["link"] = {"h_max": 0.4}
    raw["solver"] = {"abs_tolerance": 1e-10}
    cfg = parse_config(raw)
    assert cfg.optimizer.lr == 3e-3
    assert cfg.optimizer.lr_drop_epochs == (5, 9)
    assert cfg.link.h_max == 0.4
    assert cfg.solver.abs_tolerance == 1e-10


@pytest.mark.parametrize("section, values", [
    ("training", {"epochs": -1}),
    ("training", {"epochs": 2, "batch_size": 0}),
    ("training", {"epochs": 2, "clip_norm": -1}),
    ("training", {"epochs": "two"}),
    ("split", {"rule": "fraction", "fraction": "abc"}),
    ("data", {"target": "y", "features": ["x"], "standardize": "false"}),
    ("network", {"hidden": [8, 8], "batch_norm": "no"}),
    ("training", {"epochs": 2.7}),
    ("training", {"epochs": 2, "batch_size": "256"}),
    ("training", {"epochs": True}),
    ("split", {"rule": "fraction", "fraction": 0.8, "seed": 1.9}),
    ("solver", {"max_bisection_iters": 2.5}),
    ("network", {"hidden": [True, 8]}),
    ("training", {"epochs": 2, "clip_norm": "10"}),
    ("split", {"rule": "fraction", "fraction": "0.8"}),
    ("split", {"rule": "fraction", "fraction": True}),
    ("link", {"h_max": True}),
    ("optimizer", {"lr": True}),
    ("solver", {"abs_tolerance": True}),
    ("optimizer", {"lr_drop_epochs": ["a"]}),
    ("data", {"target": 5, "features": ["x"]}),
    ("split", {"rule": "by_column_values", "column": 3, "val_values": [1],
               "test_values": [2]}),
    ("link", {"g_max": float("inf")}),
    ("solver", {"abs_tolerance": float("inf")}),
    ("optimizer", {"eps": float("inf")}),
    ("split", {"rule": "fraction", "fraction": float("nan")}),
    ("optimizer", {"lr": 10 ** 400}),
    ("data", {"target": "y", "features": ["x"], "late_columns": ["x"]}),
    ("data", {"target": "y", "features": ["x", "x"], "late_columns": ["x"]}),
    ("split", {"rule": "fraction", "fraction": 0.8, "seed": -2}),
    ("split", {"rule": "fraction", "fraction": 1.5, "seed": 0}),
    ("split", {"rule": "by_column_values", "column": "x", "val_values": [1.0],
               "test_values": [1.0]}),
    ("split", {"rule": "by_column_values", "column": "true_g", "val_values": [1.0],
               "test_values": [2.0]}),
    ("split", {"rule": "by_column_values", "column": "x", "val_values": [],
               "test_values": [2.0]}),
], ids=["negative_epochs", "zero_batch_size", "negative_clip_norm", "string_epochs",
        "string_fraction", "string_standardize", "string_batch_norm", "float_epochs",
        "string_batch_size", "bool_epochs", "float_split_seed", "float_max_iters",
        "bool_hidden_width", "string_clip_norm", "numeric_string_fraction",
        "bool_fraction", "bool_h_max", "bool_lr", "bool_abs_tolerance",
        "string_drop_epoch", "int_target", "int_split_column", "infinite_g_max",
        "infinite_abs_tolerance", "infinite_eps", "nan_fraction", "overflowing_int_lr",
        "every_feature_late", "repeated_feature", "negative_split_seed",
        "fraction_above_one", "overlapping_split_values", "split_column_not_a_feature",
        "empty_val_values"])
def test_bad_values_are_config_errors(tmp_path, capsys, section, values):
    raw = dict(json.loads(json.dumps(MINIMAL)), **{section: values})
    with pytest.raises(ConfigError):
        parse_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(path), "--data", str(tmp_path / "d.csv"),
                 "--out", str(tmp_path / "m.tghn")]) == 2
    # the message names the dotted key
    assert capsys.readouterr().err.startswith(f"config error: {section}.")


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, seed=-1)))
    assert main(["train", "--config", str(path), "--data", str(tmp_path / "d.csv"),
                 "--out", str(tmp_path / "m.tghn")]) == 2
    assert capsys.readouterr().err == "config error: seed: expected an integer >= 0, got -1\n"


@pytest.mark.parametrize("raw", [
    dict(MINIMAL, training={"epochs": 2, "seed": 1}),
    dict(MINIMAL, **{"data.target": "y"}),
], ids=["seed_in_training", "dotted_top_level_key"])
def test_keys_stay_in_their_sections(tmp_path, raw):
    # the section dataclasses read their own keys, and no others
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(path), "--data", str(tmp_path / "d.csv"),
                 "--out", str(tmp_path / "m.tghn")]) == 2
