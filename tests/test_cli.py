"""CLI commands: golden-format stability, exit codes, artifact contents."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tghnet import tgh
from tghnet.cli import main
from tghnet.data import FractionSplit, load_csv
from tghnet.errors import DataError
from tghnet.nn import ModelBundle, Network, load_model, persist, save_model
from tghnet.nn.network import NetworkConfig, NetworkSpec

CONFIG = {
    "seed": 0,
    "loss": "tukey",
    "data": {"target": "y", "features": ["x"]},
    "network": {"hidden": [16, 16]},
    "training": {"epochs": 2, "batch_size": 256},
    "optimizer": {"lr": 3e-3, "lr_drop_epochs": []},
    "split": {"rule": "fraction", "fraction": 0.8, "seed": 0},
}

SIM_HEADER = "x,y,true_mu,true_sigma,true_g,true_h"
SIM_FIRST_ROW = (
    "0.6369616873214543,-1.6269483884953257,-0.7582049802141122,"
    "0.6700500831914071,0.2191386997143269,0.12171605733461822"
)


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "sim.csv"
    assert main(["simulate", "--design", "gandh", "--n", "2000",
                 "--seed", "0", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, sim_csv):
    root = tmp_path_factory.mktemp("model")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    model = root / "model.tghn"
    assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                 "--out", str(model)]) == 0
    return model


class TestSimulate:
    def test_golden_format(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["simulate", "--design", "gandh", "--n", "100",
                     "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SIM_HEADER
        assert lines[1] == SIM_FIRST_ROW
        assert len(lines) == 101
        meta = json.loads((tmp_path / "g.csv.json").read_text())
        assert meta["design"] == "gandh"
        assert meta["curves"] == "reference"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--design", "student_t", "--n", "50",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_design_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--design", "cauchy", "--n", "10",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_curve_set(self, tmp_path):
        code = main(["simulate", "--design", "gandh", "--curves", "nope",
                     "--n", "10", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestTrain:
    def test_history_has_one_row_per_epoch(self, trained_model):
        hist = load_csv(f"{trained_model}.history.csv", "val_loss",
                        ["epoch", "lr", "train_loss"])
        assert len(hist) == 2

    def test_head_dims_follow_loss_selector(self, tmp_path, sim_csv):
        for loss, want in (("tukey", 4), ("gaussian", 2)):
            cfg = tmp_path / f"{loss}.json"
            cfg.write_text(json.dumps(dict(CONFIG, loss=loss)))
            model = tmp_path / f"{loss}.tghn"
            assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                         "--out", str(model)]) == 0
            assert load_model(model).network.spec.head_dim == want

    def test_nan_abort_exits_4(self, tmp_path):
        data = tmp_path / "bad.csv"
        rows = ["x,y"] + [f"{i},{1e300 if i else 1.0}" for i in range(20)]
        data.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CONFIG, loss="gaussian")))
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "m.tghn")])
        assert code == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_prints_one_line(self, tmp_path, capsys, sim_csv):
        # lr 1e300 overflows the weights in the first step; link names the
        # row, and numpy warns about none of the overflows on the way.  Every
        # head of the second batch is non-finite, and its first row is data
        # row 1264 (train rows shuffled by the config's seed 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CONFIG, optimizer={"lr": 1e300},
                                       training={"epochs": 1, "batch_size": 256})))
        assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                     "--out", str(tmp_path / "m.tghn")]) == 4
        assert capsys.readouterr().err == ("numerical failure: non-finite network output "
                                           "at input row 1264\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_row_error_names_its_data_row(self, tmp_path, capsys, split):
        # x = 1e308 at the split's last row, whose data row exceeds both its
        # position in a 16-row batch and its index among the 20 val rows.
        # Without batch norm only that row's head is non-finite, and the
        # dropped first row makes each data row one more than its dataset row.
        data = tmp_path / "data.csv"
        lines = ["0.5,"] + [f"{i / 100!r},{i / 100!r}" for i in range(1, 101)]
        data.write_text("x,y\n" + "\n".join(lines) + "\n")
        row = int(FractionSplit(0.8, 0).apply(load_csv(data, "y", ["x"]))[split][-1]) + 1
        lines[row] = "1e308,0.5"
        data.write_text("x,y\n" + "\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(
            CONFIG, data={"target": "y", "features": ["x"], "standardize": False},
            network={"hidden": [16, 16], "batch_norm": False},
            training={"epochs": 1, "batch_size": 16})))
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "m.tghn")]) == 4
        assert capsys.readouterr().err == ("numerical failure: non-finite network output "
                                           f"at input row {row}\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", ["alternating", "uniform"])
    def test_overflowing_feature_statistics_exit_3(self, tmp_path, capsys, column):
        # +-1e307 features: the variance overflows (an alternating column once
        # saved "scale": [Infinity], which evaluate rejects) or the mean does
        rng = np.random.default_rng(0)
        x = (np.where(np.arange(200) % 2, 1e307, -1e307) if column == "alternating"
             else rng.uniform(-1e307, 1e307, 200))
        data = tmp_path / "huge.csv"
        data.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                          zip(x.tolist(), rng.normal(size=200).tolist())))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "m.tghn")]) == 3
        assert capsys.readouterr().err == ("data error: non-finite mean or scale of feature "
                                           "'x' in the train split\n")
        assert not (tmp_path / "m.tghn").exists()

    @pytest.mark.parametrize("network, batch_size, key", [
        ({"hidden": [10**6, 10**6]}, 512, "network.hidden"),  # a 7.28 TiB state vector
        ({"hidden": [9000]}, 1200, "training.batch_size"),  # 1200 rows x 9000 units
    ], ids=["state", "activation"])
    def test_oversized_network_exits_2(self, tmp_path, monkeypatch, capsys, sim_csv,
                                       network, batch_size, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CONFIG, network=network,
                                       training={"epochs": 1, "batch_size": batch_size})))
        monkeypatch.setattr("tghnet.nn.Network", lambda *a, **k: pytest.fail("built a Network"))
        assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                     "--out", str(tmp_path / "m.tghn")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert "10000000" in err and not (tmp_path / "m.tghn").exists()

    def test_batch_size_is_capped_at_the_training_rows(self, tmp_path, sim_csv):
        # 10^9 rows x 16 units would exceed the ceiling; the 1600 training rows do not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(CONFIG, network={"hidden": [16]},
                                       training={"epochs": 1, "batch_size": 10**9})))
        assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                     "--out", str(tmp_path / "m.tghn")]) == 0

    def test_config_error_exits_2(self, tmp_path, sim_csv):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(dict(CONFIG, mystery=1)))
        assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                     "--out", str(tmp_path / "m.tghn")]) == 2

    def test_missing_data_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        assert main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "none.csv"), "--out",
                     str(tmp_path / "m.tghn")]) == 3

    def test_loss_svg_written(self, tmp_path, sim_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        svg = tmp_path / "loss.svg"
        assert main(["train", "--config", str(cfg), "--data", str(sim_csv),
                     "--out", str(tmp_path / "m.tghn"), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")


class TestEvaluate:
    def test_writes_report_bundle(self, tmp_path, trained_model, sim_csv):
        out = tmp_path / "eval"
        assert main(["evaluate", "--model", str(trained_model), "--data",
                     str(sim_csv), "--split", "val", "--out", str(out)]) == 0
        report = load_csv(out / "report.csv", "y",
                          ["mu", "sigma", "g", "h", "z_hat", "u"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == len(report) == 400
        assert 0 < summary["ks_statistic"] < 1
        qq = load_csv(out / "qq.csv", "empirical", ["theoretical"])
        assert len(qq) == 400

    def test_coverage_needs_no_quantile_pass(self, tmp_path, trained_model, sim_csv, count_calls):
        # coverage is read from the residuals u of the one solve
        quantiles = count_calls(tgh, "quantile")
        assert main(["evaluate", "--model", str(trained_model), "--data",
                     str(sim_csv), "--split", "val", "--out", str(tmp_path / "e")]) == 0
        assert quantiles == []
        coverage = json.loads((tmp_path / "e" / "summary.json").read_text())["coverage"]
        assert set(coverage) == {"0.5", "0.8", "0.9", "0.95", "0.99"}

    def test_missing_split_exits_3(self, tmp_path, trained_model, sim_csv):
        # fraction rule produces no test rows
        assert main(["evaluate", "--model", str(trained_model), "--data",
                     str(sim_csv), "--split", "test",
                     "--out", str(tmp_path / "e")]) == 3

    def test_damaged_model_exits_3(self, tmp_path, trained_model, sim_csv):
        good = trained_model.read_bytes()
        hlen = int.from_bytes(good[8:12], "little")
        net = load_model(trained_model).network
        stats_at = 12 + hlen + 8 * sum(p.size for p in net.parameters())
        # a cut at the start and in the middle of every section
        cuts = [0, 2, 4, 6, 8, 10, 12, 12 + hlen // 2, 12 + hlen,
                (12 + hlen + stats_at) // 2, stats_at, len(good) - 4]
        header = json.loads(good[12:12 + hlen])

        def with_header(section, value):
            bad = json.dumps(dict(header, **{section: value})).encode()
            return good[:8] + len(bad).to_bytes(4, "little") + bad + good[12 + hlen:]

        keyless = json.dumps({k: v for k, v in header.items() if k != "loss"}).encode()
        data, network = header["data"], header["network"]
        st = data["standardization"]
        damaged = [good[:cut] for cut in cuts] + [
            good + b"\0",
            good[:12] + b"[" + good[13:],
            good[:8] + len(keyless).to_bytes(4, "little") + keyless + good[12 + hlen:],
            with_header("split_rule", {"rule": "fraction"}),
            with_header("split_rule", {"rule": "fraction", "fraction": "0.8", "seed": 0}),
            with_header("split_rule", "x"),
            with_header("split_rule", {"rule": "fraction", "fraction": 0.8, "seed": -1}),
            with_header("link", dict(header["link"], g_max=True)),
            with_header("link", dict(header["link"], g_max=float("inf"))),
            with_header("solver", dict(header["solver"], max_bisection_iters=2.5)),
            with_header("loss", "foo"),
            with_header("loss", "gaussian"),  # on a 4-output head
            with_header("data", dict(data, standardization=dict(st, mean=[0.0, 1.0]))),
            with_header("data", dict(data, standardization=dict(st, scale=[0.0]))),
            with_header("data", dict(data, feature_columns=["x", "true_g"])),
            with_header("data", dict(data, feature_columns="x")),
            with_header("network", dict(network, batch_norm=1)),
            with_header("data", dict(data, late_columns=["x"])),
            with_header("data", dict(data, extra=1)),
            with_header("network", dict(network, extra=1)),
            with_header("extra", 1),
        ]
        path = tmp_path / "damaged.tghn"
        for blob in damaged:
            path.write_bytes(blob)
            with pytest.raises(DataError, match="damaged.tghn"):
                load_model(path)
            assert main(["evaluate", "--model", str(path), "--data", str(sim_csv),
                         "--split", "val", "--out", str(tmp_path / "e")]) == 3

    def test_format_1_model_scores_and_damaged_exits_3(self, tmp_path, trained_model, sim_csv,
                                                       format_2_blob):
        # format 1 wrote the network as its list of layers; a file as it
        # wrote it scores as its format-3 twin, and one it never wrote fails
        good = trained_model.read_bytes()
        hlen = int.from_bytes(good[8:12], "little")
        header = json.loads(good[12:12 + hlen])
        blob = format_2_blob(load_model(trained_model).network)
        relu = {"activation": "relu", "batch_norm": True}
        layers = [dict(relu, in_dim=1, out_dim=16), dict(relu, in_dim=16, out_dim=16),
                  {"activation": "identity", "batch_norm": False, "in_dim": 16, "out_dim": 4}]

        def format_1(**edits):
            network = dict({"head_dim": 4, "late_features": 0, "layers": layers}, **edits)
            old = json.dumps(dict(header, format=1, network=network)).encode()
            return (b"TGHN" + (1).to_bytes(4, "little") + len(old).to_bytes(4, "little")
                    + old + blob)

        def evaluate(model, out):
            return main(["evaluate", "--model", str(model), "--data", str(sim_csv),
                         "--split", "val", "--out", str(tmp_path / out)])

        path = tmp_path / "old.tghn"
        path.write_bytes(format_1())
        assert evaluate(trained_model, "new") == evaluate(path, "old") == 0
        for name in ("report.csv", "qq.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
        damaged = [
            format_1(layers=[]),
            format_1(layers="x"),
            format_1(layers={"out_dim": 16}),
            format_1(layers=[dict(layers[0], activation="identity"), *layers[1:]]),
            format_1(layers=[dict(layers[0], batch_norm=False), *layers[1:]]),
            format_1(layers=[*layers[:2], dict(layers[2], batch_norm=True)]),
            format_1(late_features=1),
            format_1(head_dim=2),
        ]
        for blob in damaged:
            path.write_bytes(blob)
            with pytest.raises(DataError, match="old.tghn: bad header at byte 12"):
                load_model(path)
            assert evaluate(path, "e") == 3

    def test_huge_header_network_is_not_built(self, tmp_path, monkeypatch, capsys,
                                              trained_model, sim_csv):
        # two 10^5-wide hidden layers would take about 80 GB; the blob check
        # must come first, and the spy fails the test instead of allocating
        good = trained_model.read_bytes()
        hlen = int.from_bytes(good[8:12], "little")
        header = json.loads(good[12:12 + hlen])
        hidden = [10**5, 10**5]
        bad = json.dumps(dict(header, network=dict(header["network"], hidden=hidden))).encode()
        path = tmp_path / "huge.tghn"
        path.write_bytes(good[:8] + len(bad).to_bytes(4, "little") + bad + good[12 + hlen:])
        monkeypatch.setattr(persist, "Network", lambda *a, **k: pytest.fail("built a Network"))
        assert main(["evaluate", "--model", str(path), "--data", str(sim_csv),
                     "--split", "val", "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        needs = 8 * NetworkSpec(1, tuple(hidden), 4).state_size
        assert f"huge.tghn: parameter blob at byte {12 + len(bad)} holds " in err
        assert f" bytes, the header's network needs {needs}\n" in err

    def test_non_finite_weight_exits_3(self, tmp_path, trained_model, sim_csv):
        good = trained_model.read_bytes()
        blob_at = 12 + int.from_bytes(good[8:12], "little")
        at = blob_at + 8 * 5
        bad = good[:at] + np.array([np.nan], "<f8").tobytes() + good[at + 8:]
        path = tmp_path / "nan.tghn"
        path.write_bytes(bad)
        with pytest.raises(DataError, match=rf"nan.tghn: non-finite value nan at byte {at} "):
            load_model(path)
        assert main(["intervals", "--model", str(path), "--data", str(sim_csv),
                     "--split", "val", "--out", str(tmp_path / "iv.csv")]) == 3

    def test_qq_svg_written(self, tmp_path, trained_model, sim_csv):
        svg = tmp_path / "qq.svg"
        assert main(["evaluate", "--model", str(trained_model), "--data",
                     str(sim_csv), "--split", "val",
                     "--out", str(tmp_path / "e2"), "--svg", str(svg)]) == 0
        assert "<polyline" in svg.read_text()


class TestIntervals:
    def test_shortest_never_longer_than_symmetric(self, tmp_path, trained_model, sim_csv):
        paths = {}
        for variant in ("symmetric", "shortest"):
            out = tmp_path / f"{variant}.csv"
            assert main(["intervals", "--model", str(trained_model), "--data",
                         str(sim_csv), "--split", "val", "--alpha", "0.05",
                         "--variant", variant, "--out", str(out)]) == 0
            paths[variant] = out
        sym = load_csv(paths["symmetric"], "y", ["lower", "upper", "gamma"])
        sho = load_csv(paths["shortest"], "y", ["lower", "upper", "gamma"])
        sym_len = sym.column("upper") - sym.column("lower")
        sho_len = sho.column("upper") - sho.column("lower")
        assert np.all(sho_len <= sym_len + 1e-12)
        summary = json.loads((tmp_path / "shortest.csv.summary.json").read_text())
        assert summary["variant"] == "shortest"
        assert 0.8 < summary["coverage"] <= 1.0

    def test_alpha_domain_exits_2(self, tmp_path, trained_model, sim_csv):
        assert main(["intervals", "--model", str(trained_model), "--data",
                     str(sim_csv), "--alpha", "1.5",
                     "--out", str(tmp_path / "iv.csv")]) == 2


def test_scoring_calls_its_public_function_once(tmp_path, trained_model, count_calls):
    # the scoring blocks run through private helpers, so the benchmark
    # tracer's spans of evaluate.residuals and evaluate.shortest_interval,
    # which wrap the module names, do not nest
    from tghnet import evaluate

    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--design", "gandh", "--n", "6000", "--seed", "1",
                 "--out", str(sim)]) == 0
    public = [count_calls(evaluate, name) for name in ("residuals", "shortest_interval")]
    searches = count_calls(tgh, "safeguarded_newton")
    score = ["--model", str(trained_model), "--data", str(sim), "--split", "train"]
    assert main(["evaluate", *score, "--out", str(tmp_path / "e")]) == 0
    assert main(["intervals", *score, "--variant", "shortest",
                 "--out", str(tmp_path / "iv.csv")]) == 0
    assert [len(calls) for calls in public] == [1, 1]
    # 4800 rows are two blocks: two tau_inverse solves, then two gamma searches
    assert json.loads((tmp_path / "e" / "summary.json").read_text())["n"] == 4800
    assert len(searches) == 4


_SCORE = ["--model", "{model}", "--data", "{sim}", "--split", "val"]
EXIT_PROBES = {
    # a non-finite network output, from a feature whose standardized
    # value overflows, names its row of the scored input: of --features
    # for density, of --data (the first row of the split) for the others
    "density_huge_feature": (["density", "--model", "{model}", "--features", "0.5;1e308",
                              "--y-grid=-1:1:5", "--out", "{tmp}/d.csv"], 4, "input row 1\n"),
    "evaluate_huge_feature": (["evaluate", "--model", "{model}", "--data", "{huge}",
                               "--split", "val", "--out", "{tmp}/e"], 4,
                              "input row {huge_val_row}\n"),
    "intervals_huge_feature": (["intervals", "--model", "{model}", "--data", "{huge}",
                                "--split", "val", "--out", "{tmp}/i.csv"], 4,
                               "input row {huge_val_row}\n"),
    # rows with an empty target are dropped, and still counted as data rows
    "evaluate_huge_feature_after_dropped_rows": (
        ["evaluate", "--model", "{model}", "--data", "{gappy}", "--split", "val",
         "--out", "{tmp}/e"], 4, "input row 12\n"),
    "missing_model": (["evaluate", "--model", "{tmp}/none.tghn", "--data", "{sim}",
                       "--out", "{tmp}/e"], 3, "none.tghn"),
    "unwritable_csv": (["intervals", *_SCORE, "--out", "/nonexistent/x.csv"], 2,
                       "/nonexistent/x.csv"),
    "unwritable_dir": (["evaluate", *_SCORE, "--out", "/dev/null/x"], 2, "/dev/null/x"),
    "alpha_1e-13_shortest": (["intervals", *_SCORE, "--alpha", "1e-13", "--variant", "shortest",
                              "--out", "{tmp}/i.csv"], 2, "--alpha"),
    **{f"alpha_{a}_{v}": (["intervals", *_SCORE, "--alpha", a, "--variant", v,
                           "--out", "{tmp}/i.csv"], 2, "--alpha")
       for a in ("1e-16", "1e-300") for v in ("symmetric", "shortest")},
    "empty_y_grid": (["density", "--model", "{model}", "--features", "0.5", "--y-grid=0:1:0",
                      "--out", "{tmp}/d.csv"], 2, "--y-grid"),
    "negative_seed": (["simulate", "--design", "gandh", "--n", "10", "--seed=-1",
                       "--out", "{tmp}/s.csv"], 2, "--seed"),
    # a count above its ceiling is refused before any array is allocated
    "huge_simulate_n": (["simulate", "--design", "gandh", "--n", str(10**18),
                         "--out", "{tmp}/s.csv"], 2, "--n"),
    "huge_y_grid_count": (["density", "--model", "{model}", "--features", "0.5",
                           f"--y-grid=0:1:{10**18}", "--out", "{tmp}/d.csv"], 2, "--y-grid"),
    # argparse (3.11) reads the value of --features=-- as [], which no
    # command checks for; where it keeps "--", that is a syntax error
    "double_dash_features": (["density", "--model", "{model}", "--features=--",
                              "--y-grid=0:1:3", "--out", "{tmp}/d.csv"], 2, "--"),
}


# floats at the edges of each numeric argument's range, as argv text
_EDGE_FLOATS = ("0", "5e-324", "1e-300", "1e-13", "0.05", "1", "nan", "inf", "-0.1")


@st.composite
def _any_arguments(draw):
    """One command's argv with {model}, {sim} and {tmp} to fill: every value
    as --flag=value, so that argparse reads none of them as a flag, and
    every count small or 10^18, above its ceiling, so that no example
    allocates a large array."""
    command = draw(st.sampled_from(["simulate", "intervals", "density"]))
    if command == "simulate":
        args = {"design": draw(st.sampled_from(["gandh", "student_t"])),
                "curves": draw(st.sampled_from(["reference", "constant_normal", "nope"])),
                "n": draw(st.integers(-3, 40) | st.just(10**18)), "seed": draw(st.integers(-2**70, 2**70))}
    elif command == "intervals":
        args = {"model": "{model}", "data": "{sim}", "alpha": draw(st.sampled_from(_EDGE_FLOATS)),
                "variant": draw(st.sampled_from(["symmetric", "shortest"])),
                "split": draw(st.sampled_from(["train", "val", "test"]))}
    else:
        end = st.sampled_from(_EDGE_FLOATS + ("-inf", "-1e308", "1e308"))
        count = draw(st.integers(-2, 40) | st.just(10**18))
        args = {"model": "{model}", "features": draw(st.text("0123456789.,;-ena", max_size=12)),
                "y-grid": f"{draw(end)}:{draw(end)}:{count}"}
    # an --out under a regular file cannot be written
    out = draw(st.sampled_from(["{tmp}/out.csv", "{sim}/out.csv"]))
    return [command, *(f"--{k}={v}" for k, v in args.items()), f"--out={out}"]


# --data cells at the edges of what load_csv reads: quoted, missing,
# huge, non-finite, padded or unparseable
_EDGE_CELLS = (b'"0.75"', b'"0,5"', b"", b"na", b"NA", b"nan", b"inf", b"-inf", b"1e308",
               b"-1e308", b"-1.7e308", b" 0.5 ", b"1_0", b"0x1", "é".encode())
# a Latin-1 cell, no UTF-8; a cell over the csv module's field limit of
# 131072 characters, whose "_" sends the file to the per-cell loop, which
# reads it with csv
_UNREADABLE_CELLS = (b"0.\xe9", b"1_" + b"1" * 131071)


@st.composite
def _any_csv(draw):
    """--data bytes for the module's model: columns x and y in either order,
    maybe with a third, up to 30 rows of values in [0, 1] (so 0-2 rows
    leave the val split empty), then up to three edits, each an edge cell,
    an unreadable cell, a short row or a blank line; one file in ten is the
    same text in UTF-16, with its byte-order mark."""
    header = draw(st.permutations([b"x", b"y", b"z"][:draw(st.integers(2, 3))]))
    value = st.floats(0, 1).map(lambda v: repr(v).encode())
    rows = [draw(st.lists(value, min_size=len(header), max_size=len(header)))
            for _ in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "cell", "unreadable", "short", "blank"]))
        if edit in ("cell", "unreadable") and rows[i]:
            cells = _EDGE_CELLS if edit == "cell" else _UNREADABLE_CELLS
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(cells))
        elif edit == "short":
            del rows[i][draw(st.integers(1, len(header) - 1)):]
        else:
            rows.insert(i, [])
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    body = end.join(b",".join(row) for row in [header, *rows]) + end
    if draw(st.integers(0, 9)) == 5:
        body = body.decode("utf-8", "replace").encode("utf-16")
    return body


def _exits_with_one_line(argv):
    """main(argv) returns 0, 2, 3 or 4 and never raises, printing one
    stderr line unless it returns 0."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines(keepends=True)
    assert code in (0, 2, 3, 4) and len(lines) == (code != 0), (argv, lines)
    assert all(line.endswith("\n") for line in lines), (argv, lines)


# a format-2 model as the previous writer saved it: features lat, lon and
# the late column year, two batch-norm layers of 6 and 5 units, non-zero b
FORMAT_2_FILE = Path(__file__).parent / "data" / "format2_bn.tghn"


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """The bytes of FORMAT_2_FILE's model in formats 1, 2 and 3, by version,
    and a --data file of its columns whose val split holds 8 rows."""
    root = tmp_path_factory.mktemp("formats")
    two = FORMAT_2_FILE.read_bytes()
    hlen = int.from_bytes(two[8:12], "little")
    relu = {"activation": "relu", "batch_norm": True}
    layers = [dict(relu, in_dim=2, out_dim=6), dict(relu, in_dim=7, out_dim=5),
              {"activation": "identity", "batch_norm": False, "in_dim": 5, "out_dim": 4}]
    header = json.loads(two[12:12 + hlen])
    one = json.dumps(dict(header, format=1, network={"head_dim": 4, "late_features": 1,
                                                     "layers": layers})).encode()
    save_model(root / "three.tghn", load_model(FORMAT_2_FILE))
    files = {1: b"TGHN" + (1).to_bytes(4, "little") + len(one).to_bytes(4, "little") + one
             + two[12 + hlen:], 2: two, 3: (root / "three.tghn").read_bytes()}
    rng = np.random.default_rng(0)
    rows = [f"{a:.3f},{b:.3f},{2000 + c:.0f},{d:.3f}"
            for a, b, c, d in rng.normal([1, 2, 0, -8], [3, 4, 10, 3], size=(40, 4))]
    data = root / "data.csv"
    data.write_text("\n".join(["lat,lon,year,y", *rows]) + "\n")
    return files, data


# header values at the edges of what config.read takes
_EDGE_VALUES = (None, True, 0, -1, 2.5, 1e308, "x", [], {}, [6, 5], ["year"], {"rule": "fraction"})


@st.composite
def _any_model(draw):
    """Model-file edits: a format (1, 2 or 3), then up to three edits, each
    a header key (top level or one below) set to an edge value or removed,
    an 8-byte blob value set to a non-finite or extreme double, or a new
    version or header length in the preamble; then maybe a cut or a tail
    of extra bytes.  Returns (version, function of the format's bytes)."""
    version = draw(st.sampled_from([1, 2, 3]))
    edits = draw(st.lists(st.tuples(st.sampled_from(["key", "key", "value", "value", "preamble"]),
                                    st.randoms(use_true_random=False)), max_size=3))
    end = draw(st.sampled_from(["", "", "cut", "extend"]))
    end_at = draw(st.integers(0, 2000))

    def apply(raw):
        hlen = int.from_bytes(raw[8:12], "little")
        header, blob = json.loads(raw[12:12 + hlen]), bytearray(raw[12 + hlen:])
        preamble = [version, None]
        for kind, rnd in edits:
            if kind == "key":
                section = rnd.choice(sorted(header))
                nested = isinstance(header[section], dict) and header[section]
                target = header[section] if nested else header
                key = rnd.choice(sorted(target)) if target is not header else section
                if rnd.random() < 0.2:
                    del target[key]
                else:
                    target[key] = rnd.choice(_EDGE_VALUES)
            elif kind == "value":
                at = 8 * rnd.randrange(len(blob) // 8)
                blob[at:at + 8] = np.array(rnd.choice([np.nan, np.inf, -np.inf, 1e308, -1e308,
                                                       5e-324]), "<f8").tobytes()
            else:
                preamble[rnd.randrange(2)] = rnd.choice([0, 1, 2, 3, 4, 2**32 - 1, 100])
        text = json.dumps(header).encode()
        version_at, hlen_at = preamble[0], len(text) if preamble[1] is None else preamble[1]
        out = (b"TGHN" + version_at.to_bytes(4, "little") + hlen_at.to_bytes(4, "little")
               + text + bytes(blob))
        if end == "cut":
            return out[:end_at % len(out)]
        return out + bytes(end_at % 17) if end == "extend" else out

    return version, apply


@pytest.fixture(scope="module")
def h_zero_model(tmp_path_factory, trained_model):
    """The trained model with a zero head and bias (0, 0, -5, -800): g is
    2 tanh(-5) ~ -2 and h = 0.5 expit(-800) underflows to 0, so every row's
    support is z_tilde = (y - mu)/sigma < 1/|g| ~ 0.5, or y below about 0.35."""
    bundle = load_model(trained_model)
    head_w, head_b = bundle.network.layers[-1][:2]
    head_w[...] = 0.0
    head_b[...] = [0.0, 0.0, -5.0, -800.0]
    path = tmp_path_factory.mktemp("h0") / "h0.tghn"
    save_model(path, bundle)
    return path


@pytest.fixture(scope="module")
def two_iteration_model(tmp_path_factory, trained_model):
    """The trained model with a header solver capped at 2 iterations."""
    bundle = load_model(trained_model)
    solver = dataclasses.replace(bundle.header.solver, max_bisection_iters=2)
    path = tmp_path_factory.mktemp("iters") / "iters.tghn"
    save_model(path, dataclasses.replace(bundle, header=dataclasses.replace(bundle.header,
                                                                            solver=solver)))
    return path


@pytest.fixture(scope="module")
def huge_h_model(tmp_path_factory, trained_model):
    """The trained model's header and split rule on a one-unit network with
    neither batch norm nor standardization, and h_max = 1e308: the head is
    (0, 0, 0, 2000 relu(x - 1.5) - 800), so g = 0 everywhere and h = 0 at
    x <= 1.5 but h = 1e308 at x = 2, where no shortest-interval search stops."""
    header = load_model(trained_model).header
    header = dataclasses.replace(header, network=NetworkConfig((1,), batch_norm=False),
                                 link=dataclasses.replace(header.link, h_max=1e308),
                                 data=dataclasses.replace(header.data, standardization=None))
    net = Network(header.spec)
    (w0, b0, *_), (w1, b1, *_) = net.layers
    w0[...], b0[...] = 1.0, -1.5
    w1[...], b1[...] = [[0.0, 0.0, 0.0, 2000.0]], [0.0, 0.0, 0.0, -800.0]
    path = tmp_path_factory.mktemp("huge_h") / "huge_h.tghn"
    save_model(path, ModelBundle(header, net))
    return path


class TestExitCodes:
    """Bad inputs, outputs and arguments exit 2 (usage or output), 3 (data)
    or 4 (numerical) with one stderr line that names them; never 1."""

    @pytest.mark.parametrize("probe", EXIT_PROBES)
    def test_probe_exits_with_one_line(self, tmp_path, capsys, trained_model, sim_csv, probe):
        argv, code, names = EXIT_PROBES[probe]
        huge = tmp_path / "huge.csv"
        huge.write_text("x,y\n" + "1e308,0.5\n" * 20)
        split = FractionSplit(CONFIG["split"]["fraction"], CONFIG["split"]["seed"])
        huge_val_row = split.apply(load_csv(huge, "y", ["x"]))["val"][0]
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("x,y\n" + "0.5,0.5\n" * 3 + "0.5,\n" * 3 + "1e308,0.5\n" * 20)
        fill = dict(model=trained_model, sim=sim_csv, huge=huge, gappy=gappy, tmp=tmp_path,
                    huge_val_row=huge_val_row)
        assert main([a.format(**fill) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and names.format(**fill) in err, err

    def test_alpha_limit_is_the_variants(self, tmp_path, trained_model, sim_csv):
        # 1e-13 is too small for the shortest variant's tail search, not for
        # the symmetric interval
        out = str(tmp_path / "i.csv")
        assert main(["intervals", *(a.format(model=trained_model, sim=sim_csv)
                                    for a in _SCORE),
                     "--alpha", "1e-13", "--variant", "symmetric", "--out", out]) == 0

    # scoring meets the solver's h = 0 rule as training does: a target
    # outside the one-sided support exits 4 and says why
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--data", "{sim}", "--split", "val", "--out", "{tmp}/e"],
        ["density", "--features", "0.5", "--y-grid=-1:1:5", "--out", "{tmp}/d.csv"],
    ], ids=["evaluate", "density"])
    def test_target_outside_support_exits_4(self, tmp_path, capsys, h_zero_model, sim_csv,
                                            argv):
        fill = dict(sim=sim_csv, tmp=tmp_path)
        assert main([argv[0], "--model", str(h_zero_model),
                     *(a.format(**fill) for a in argv[1:])]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert re.fullmatch(r"numerical failure: .* at sample index (\d+|\(\d+, \d+\)): "
                            r".*, h=0\.0; the target lies outside tau's one-sided support "
                            r"1 \+ g\*z_tilde > 0 at h = 0\n", err), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_standardized_target_exits_4(self, tmp_path, capsys, trained_model):
        # sigma ~ 0.8 at x = 0.5, so (y - mu)/sigma exceeds the double range
        huge = tmp_path / "huge_y.csv"
        huge.write_text("x,y\n" + "0.5,1.7e308\n" * 20)
        assert main(["evaluate", "--model", str(trained_model), "--data", str(huge),
                     "--split", "val", "--out", str(tmp_path / "e")]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: .* at sample index \d+: z_tilde=inf, .*; "
                            r"\(y - mu\)/sigma overflows the double range\n", err), err

    @pytest.mark.parametrize("command", ["evaluate", "intervals"])
    def test_scoring_solver_error_names_its_data_row(self, tmp_path, capsys, trained_model,
                                                     huge_h_model, command):
        # one failing row of the val split, whose index in the split is not
        # its data row: an overflowing target for evaluate's solve, x = 2
        # (h = 1e308) for the shortest-interval search, which solves no target
        data = tmp_path / "data.csv"
        data.write_text("x,y\n" + "0.5,0.5\n" * 40)
        split = FractionSplit(CONFIG["split"]["fraction"], CONFIG["split"]["seed"])
        val = split.apply(load_csv(data, "y", ["x"]))["val"]
        row = int(val[-1])
        assert row != len(val) - 1
        bad = "0.5,1.7e308" if command == "evaluate" else "2.0,0.5"
        data.write_text("x,y\n" + "".join(f"{bad if i == row else '0.5,0.5'}\n"
                                          for i in range(40)))
        if command == "evaluate":
            argv = ["evaluate", "--model", str(trained_model), "--out", str(tmp_path / "e")]
            want = (r"no finite target for inverse transform at sample index {}: z_tilde=inf, "
                    r".*; \(y - mu\)/sigma overflows the double range")
        else:
            argv = ["intervals", "--model", str(huge_h_model), "--variant", "shortest",
                    "--out", str(tmp_path / "i.csv")]
            want = (r"no shortest interval: the search in gamma did not stop in 100 steps "
                    r"at sample index {}: g=0\.0, h=1e\+308")
        assert main([*argv, "--data", str(data), "--split", "val"]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(f"numerical failure: {want.format(row)}\n", err), err

    # density solves with the model's own solver settings, as evaluate does
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--data", "{sim}", "--split", "val", "--out", "{tmp}/e"],
        ["density", "--features", "0.5", "--y-grid=-1:1:5", "--out", "{tmp}/d.csv"],
    ], ids=["evaluate", "density"])
    def test_header_solver_settings_apply(self, tmp_path, capsys, two_iteration_model, sim_csv,
                                          argv):
        fill = dict(sim=sim_csv, tmp=tmp_path)
        assert main([argv[0], "--model", str(two_iteration_model),
                     *(a.format(**fill) for a in argv[1:])]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "did not converge in 2 iterations" in err, err

    def test_targets_inside_support_score(self, tmp_path, h_zero_model):
        assert main(["density", "--model", str(h_zero_model), "--features", "0.5",
                     "--y-grid=-1:0.3:5", "--out", str(tmp_path / "d.csv")]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=1000)
    @given(argv=_any_arguments())
    def test_any_arguments_exit_with_one_line(self, tmp_path_factory, trained_model, sim_csv,
                                              argv):
        fill = dict(model=trained_model, sim=sim_csv, tmp=tmp_path_factory.getbasetemp())
        _exits_with_one_line([a.format(**fill) for a in argv])

    @pytest.mark.parametrize("body", [
        # a Latin-1 cell in row 3: the reader decodes ahead, so the header read fails
        b"x,y\n0.1,0.2\n0.\xe9,0.3\n" + b"0.4,0.5\n" * 20,
        # a target cell over the csv field limit, read by the per-cell loop,
        # which the "1_0" feature cell sends the file to
        b"x,y\n0.1,0.2\n1_0,0." + b"1" * 131071 + b"\n",
    ], ids=["latin1_cell", "cell_over_field_limit"])
    def test_unreadable_data_exits_3(self, tmp_path, capsys, trained_model, body):
        data = tmp_path / "data.csv"
        data.write_bytes(body)
        assert main(["evaluate", "--model", str(trained_model), "--data", str(data),
                     "--split", "train", "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"data error: {data}: " in err, err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300)
    @given(body=_any_csv(), command=st.sampled_from(["evaluate", "symmetric", "shortest"]),
           split=st.sampled_from(["train", "val", "test"]))
    def test_any_csv_exits_with_one_line(self, tmp_path_factory, trained_model, body, command,
                                         split):
        root = tmp_path_factory.getbasetemp() / "any_csv"
        root.mkdir(exist_ok=True)
        data = root / "data.csv"
        data.write_bytes(body)
        out = (["evaluate", "--out", str(root / "e")] if command == "evaluate"
               else ["intervals", "--variant", command, "--out", str(root / "i.csv")])
        _exits_with_one_line([*out, "--model", str(trained_model), "--data", str(data),
                              "--split", split])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=1000)
    @given(model=_any_model())
    def test_any_model_file_exits_with_one_line(self, tmp_path_factory, model_files, model):
        # the exit-code contract over model files of every format, damaged
        # or not: evaluate exits 0, 2, 3 or 4 with one stderr line, raises
        # nothing and lets numpy warn about nothing
        files, data = model_files
        version, apply = model
        root = tmp_path_factory.getbasetemp() / "any_model"
        root.mkdir(exist_ok=True)
        path = root / "model.tghn"
        path.write_bytes(apply(files[version]))
        _exits_with_one_line(["evaluate", "--model", str(path), "--data", str(data),
                              "--split", "val", "--out", str(root / "e")])


class TestThreadCap:
    def test_tgh_threads_caps_blas_pools(self, monkeypatch, tmp_path):
        from tghnet.cli import _apply_thread_cap

        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TGH_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_existing_settings_win(self, monkeypatch):
        from tghnet.cli import _apply_thread_cap

        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("TGH_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="OpenBLAS runs one thread on one CPU, so the thread count "
                               "cannot change a summation order here")
    def test_model_bits_do_not_depend_on_the_thread_count(self, tmp_path):
        # the README network has 13 380 gradient entries, a dot product long
        # enough for OpenBLAS to split across two threads; clip_norm 1 clips
        # the batches, so a clipping norm summed in another order moves the weights
        data = tmp_path / "sim.csv"
        assert main(["simulate", "--design", "gandh", "--n", "20000", "--seed", "3",
                     "--out", str(data)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "network": {"hidden": [64, 64, 64, 64]},
                                   "training": {"epochs": 2, "batch_size": 512,
                                                "clip_norm": 1.0}}))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            model = tmp_path / f"threads{threads}.tghn"
            result = subprocess.run([sys.executable, "-m", "tghnet.cli", "train", "--config",
                                     str(cfg), "--data", str(data), "--out", str(model)],
                                    capture_output=True, text=True, timeout=300,
                                    env=dict(env, TGH_THREADS=threads))
            assert result.returncode == 0, result.stderr
            outputs.append((model.read_bytes(),
                            Path(f"{model}.history.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestDensity:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200)
    @given(lo=st.floats() | st.sampled_from([-1e308, 1e308]),
           hi=st.floats() | st.sampled_from([-1e308, 1e308]), count=st.integers(-1, 50))
    def test_any_y_grid_exits_0_or_2(self, tmp_path_factory, trained_model, lo, hi, count):
        # ends that are not finite, unordered, a span max - min or a
        # (y - mu)/sigma that overflows: exit 2 naming --y-grid, never a warning
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["density", "--model", str(trained_model), "--features", "0.5",
                         f"--y-grid={lo!r}:{hi!r}:{count}",
                         "--out", str(tmp_path_factory.getbasetemp() / "any_grid.csv")])
        assert code == 0 or (code == 2 and err.getvalue().startswith("--y-grid needs ")), \
            err.getvalue()

    def test_four_points_emit_four_blocks(self, tmp_path, trained_model):
        out = tmp_path / "dens.csv"
        assert main(["density", "--model", str(trained_model), "--features",
                     "0.1;0.3;0.5;0.9", "--y-grid=-6:6:241",
                     "--out", str(out)]) == 0
        ds = load_csv(out, "density", ["point", "y"])
        assert len(ds) == 4 * 241
        assert set(ds.column("point")) == {0.0, 1.0, 2.0, 3.0}

    def test_curves_match_list_built_reference(self, tmp_path, trained_model):
        from tghnet.data import write_csv
        from tghnet.evaluate import density_curve
        from tghnet.tgh import TghParams

        out = tmp_path / "curves.csv"
        assert main(["density", "--model", str(trained_model), "--features",
                     "0.1;0.5;0.9", "--y-grid=-6:6:241", "--out", str(out)]) == 0
        params = load_model(trained_model).predict_params(np.array([[0.1], [0.5], [0.9]]))
        grid = np.linspace(-6.0, 6.0, 241)
        cols = {"point": [], "y": [], "density": []}
        for i in range(3):
            d = density_curve(TghParams(params.mu[i], params.sigma[i],
                                        params.g[i], params.h[i]), grid)
            cols["point"].extend([float(i)] * len(grid))
            cols["y"].extend(grid.tolist())
            cols["density"].extend(d.tolist())
        write_csv(tmp_path / "reference.csv", {k: np.asarray(v) for k, v in cols.items()})
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_holds_the_curves_and_little_more(self, tmp_path, trained_model):
        # the point and y columns are broadcast views, not copies, of the
        # point indices and the grid, so the peak traced allocation of a
        # density run stays within 3 MiB of its (points, grid) curves
        import tracemalloc

        points, count = 5, 100_000
        load_model(trained_model)  # the modules a run imports are not counted
        tracemalloc.start()
        try:
            assert main(["density", "--model", str(trained_model), "--features",
                         "0.1;0.3;0.5;0.7;0.9", f"--y-grid=-3:3:{count}",
                         "--out", str(tmp_path / "dens.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= points * count * 8 + 3 * 2**20, peak

    def test_curves_normalize(self, tmp_path, trained_model):
        out = tmp_path / "dens.csv"
        assert main(["density", "--model", str(trained_model), "--features",
                     "0.5", "--y-grid=-40:40:4001", "--out", str(out)]) == 0
        ds = load_csv(out, "density", ["point", "y"])
        total = np.trapezoid(ds.y, ds.column("y"))
        assert total == pytest.approx(1.0, abs=5e-3)

    def test_bad_grid_syntax_exits_2(self, tmp_path, trained_model):
        assert main(["density", "--model", str(trained_model), "--features",
                     "0.5", "--y-grid", "oops",
                     "--out", str(tmp_path / "d.csv")]) == 2

    @pytest.mark.parametrize("features, grid, message", [
        ("0.5", "--y-grid=10:-10:5", "--y-grid"),
        ("nan", "--y-grid=-1:1:11", "--features"),
    ], ids=["descending_grid", "nan_feature"])
    def test_bad_values_exit_2(self, tmp_path, capsys, trained_model, features, grid, message):
        assert main(["density", "--model", str(trained_model), "--features",
                     features, grid, "--out", str(tmp_path / "d.csv")]) == 2
        assert message in capsys.readouterr().err

    def test_wrong_feature_width_exits_2(self, tmp_path, trained_model):
        assert main(["density", "--model", str(trained_model), "--features",
                     "0.5,0.6", "--y-grid=-1:1:11",
                     "--out", str(tmp_path / "d.csv")]) == 2
