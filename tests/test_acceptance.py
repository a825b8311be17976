"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line via the marker hook in conftest.py.

The training-based criteria (4-7) run through the real CLI so that the
model files and reports they produce are the byte-level artifacts the
determinism criterion (8) re-creates and compares.  Run with

    pytest tests/test_acceptance.py -v
"""

import json
import time

import numpy as np
import pytest

from tghnet import tgh
from tghnet.cli import main
from tghnet.data import ByColumnSplit, Dataset, load_csv, write_csv
from tghnet.evaluate import shortest_interval, symmetric_interval
from tghnet.loss import gaussian_nll_and_grad, link, nll_and_grad, tukey_head_loss
from tghnet.nn import Network, NetworkSpec, load_model
from tghnet.synth import GANDH_DESIGNS, generate_gandh
from tghnet.tgh import InverseSolverConfig, ShapeParams, TghParams, tau, tau_inverse

TIGHT = InverseSolverConfig(abs_tolerance=1e-15)

GANDH_CONFIG = {
    "seed": 0,
    "loss": "tukey",
    "data": {"target": "y", "features": ["x"]},
    "network": {"hidden": [64, 64, 64, 64]},
    "training": {"epochs": 60, "batch_size": 512},
    "optimizer": {"lr": 3e-3, "lr_drop_epochs": [40, 52]},
    "split": {"rule": "fraction", "fraction": 0.8, "seed": 0},
}

T_CONFIG = dict(GANDH_CONFIG)

CROP_CONFIG = {
    "seed": 0,
    "loss": "tukey",
    "data": {
        "target": "y",
        "features": ["lat", "lon", "year"],
        "late_columns": ["year"],
    },
    "network": {"hidden": [48, 48, 48]},
    "training": {"epochs": 40, "batch_size": 512},
    "optimizer": {"lr": 3e-3, "lr_drop_epochs": [28, 36]},
    "split": {
        "rule": "by_column_values",
        "column": "year",
        "val_values": [1985, 1995, 2005, 2015],
        "test_values": [1986, 1996, 2006, 2016],
    },
}

VAL_YEARS = {1985.0, 1995.0, 2005.0, 2015.0}
TEST_YEARS = {1986.0, 1996.0, 2006.0, 2016.0}


def _run(args):
    code = main(args)
    assert code == 0, f"command {args} exited {code}"


def _write_config(path, config):
    path.write_text(json.dumps(config, indent=2))


def run_gandh_experiment(root):
    """Criterion 4 pipeline: simulate, train, evaluate on the val split."""
    data = root / "gandh.csv"
    _run(["simulate", "--design", "gandh", "--n", "40000", "--seed", "20",
          "--out", str(data)])
    cfg = root / "config.json"
    _write_config(cfg, GANDH_CONFIG)
    model = root / "model.tghn"
    t0 = time.time()
    _run(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)])
    train_seconds = time.time() - t0
    _run(["evaluate", "--model", str(model), "--data", str(data),
          "--split", "val", "--out", str(root / "eval")])
    return {"data": data, "model": model, "eval": root / "eval",
            "train_seconds": train_seconds}


def run_t_experiment(root):
    """Criterion 5 pipeline: both heads on the misspecified t design."""
    data = root / "student_t.csv"
    _run(["simulate", "--design", "student_t", "--n", "40000", "--seed", "21",
          "--out", str(data)])
    out = {"data": data}
    for loss in ("tukey", "gaussian"):
        cfg = root / f"{loss}.json"
        _write_config(cfg, dict(T_CONFIG, loss=loss))
        model = root / f"{loss}.tghn"
        _run(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)])
        _run(["evaluate", "--model", str(model), "--data", str(data),
              "--split", "val", "--out", str(root / f"eval_{loss}")])
        out[loss] = model
        out[f"eval_{loss}"] = root / f"eval_{loss}"
    return out


def make_croplike_csv(path, n=20000, seed=30):
    """Synthetic lat/lon/year table with g-and-h noise."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-60, 80, n)
    lon = rng.uniform(-180, 180, n)
    year = rng.integers(1981, 2017, n).astype(float)
    mu = 2.0 + np.sin(lat / 30.0) + 0.5 * np.cos(lon / 60.0) + 0.01 * (year - 2000.0)
    sigma = 0.35 + 0.15 * (1.0 + np.sin(lon / 90.0 + lat / 45.0))
    g = 0.6 * np.sin(lat / 40.0)
    h = 0.075 * (1.0 + np.cos(lon / 80.0))
    z = rng.standard_normal(n)
    y = mu + sigma * np.asarray(tau(z, ShapeParams(g, h)))
    write_csv(path, {"lat": lat, "lon": lon, "year": year, "y": y})


def run_croplike_experiment(root):
    """Criterion 7 pipeline: late-injection training on year-split data."""
    data = root / "crop.csv"
    make_croplike_csv(data)
    out = {"data": data}
    for loss in ("tukey", "gaussian"):
        cfg = root / f"{loss}.json"
        _write_config(cfg, dict(CROP_CONFIG, loss=loss))
        model = root / f"{loss}.tghn"
        _run(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)])
        _run(["evaluate", "--model", str(model), "--data", str(data),
              "--split", "test", "--out", str(root / f"eval_{loss}")])
        out[loss] = model
        out[f"eval_{loss}"] = root / f"eval_{loss}"
    return out


@pytest.fixture(scope="module")
def gandh_run(tmp_path_factory):
    return run_gandh_experiment(tmp_path_factory.mktemp("gandh"))


@pytest.fixture(scope="module")
def t_run(tmp_path_factory):
    return run_t_experiment(tmp_path_factory.mktemp("student_t"))


@pytest.fixture(scope="module")
def crop_run(tmp_path_factory):
    return run_croplike_experiment(tmp_path_factory.mktemp("crop"))


@pytest.mark.acceptance(1, "inverse fidelity")
def test_criterion_1_inverse_fidelity():
    t0 = time.time()
    z = np.arange(-6.0, 6.0 + 1e-9, 0.05)
    worst = 0.0
    for g in (-1.0, -0.5, 0.0, 1e-6, 0.5, 1.0):
        for h in (0.0, 0.1, 0.3, 0.5):
            p = ShapeParams(g, h)
            forward = np.asarray(tau(z, p))
            back = np.asarray(tau_inverse(forward, p))
            worst = max(worst, float(np.max(np.abs(back - z))))
    elapsed = time.time() - t0
    assert worst <= 1e-10, f"max roundtrip error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@pytest.mark.acceptance(2, "gradient suite")
def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(42)
    # (a) full chain loss(link(raw)) for 1000 random cases
    for _ in range(1000):
        raw = rng.normal(0.0, 1.5, size=4)
        y = rng.normal(0.0, 2.0)

        def composed(r):
            params, _ = link(r)
            return nll_and_grad(y, params, TIGHT)[0]

        params, derivs = link(raw)
        analytic = nll_and_grad(y, params, TIGHT)[1] * derivs
        fd = np.zeros(4)
        for j in range(4):
            up, dn = raw.copy(), raw.copy()
            up[j] += 1e-5
            dn[j] -= 1e-5
            fd[j] = (composed(up) - composed(dn)) / 2e-5
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)

    # (b) network weights on a 3-layer toy
    net = Network(NetworkSpec(2, (8, 6), head_dim=4, batch_norm=True), seed=5)
    x = rng.normal(size=(24, 2))
    y = rng.normal(size=24)

    def scalar_loss():
        raw_head = net.forward(x, train=True)
        mean, head_grad, _ = tukey_head_loss(y, raw_head, solver_cfg=TIGHT)
        return mean, head_grad

    _, head_grad = scalar_loss()
    grads = net.backward(head_grad)
    params = net.parameters()
    for _ in range(50):
        pi = int(rng.integers(len(params)))
        idx = tuple(int(rng.integers(s)) for s in params[pi].shape)
        orig = params[pi][idx]
        step = 1e-6 * max(1.0, abs(orig))
        params[pi][idx] = orig + step
        up, _ = scalar_loss()
        params[pi][idx] = orig - step
        dn, _ = scalar_loss()
        params[pi][idx] = orig
        np.testing.assert_allclose(
            grads[pi][idx], (up - dn) / (2 * step), rtol=1e-4, atol=1e-7
        )


@pytest.mark.acceptance(3, "Gaussian reduction")
def test_criterion_3_gaussian_reduction():
    rng = np.random.default_rng(7)
    n = 10**4
    y = rng.normal(0.0, 3.0, size=n)
    mu = rng.normal(0.0, 1.0, size=n)
    sigma = rng.uniform(0.1, 4.0, size=n)
    zeros = np.zeros(n)
    tukey_value, tukey_grad = nll_and_grad(y, TghParams(mu, sigma, zeros, zeros))
    gauss_value, gauss_grad = gaussian_nll_and_grad(y, mu, sigma)
    np.testing.assert_allclose(tukey_value, gauss_value, atol=1e-9, rtol=0)
    np.testing.assert_allclose(tukey_grad[:, :2], gauss_grad, atol=1e-9, rtol=0)


@pytest.mark.acceptance(4, "well-specified recovery")
def test_criterion_4_well_specified_recovery(gandh_run):
    assert gandh_run["train_seconds"] < 900.0

    summary = json.loads((gandh_run["eval"] / "summary.json").read_text())
    model_nll = summary["mean_nll"]

    # true-parameter NLL on the same validation rows
    bundle = load_model(gandh_run["model"])
    dataset = load_csv(gandh_run["data"], "y", bundle.header.data.feature_columns)
    rule = bundle.header.split_rule
    rows = rule.apply(dataset)["val"]
    x_val = dataset.x[rows][:, 0]
    y_val = dataset.y[rows]
    design = GANDH_DESIGNS["reference"]
    true_params = TghParams(
        design.mu(x_val), design.sigma(x_val), design.g(x_val), design.h(x_val)
    )
    true_nll = float(np.mean(-np.asarray(tgh.log_density(y_val, true_params))))
    excess = model_nll - true_nll
    assert excess <= 0.02, f"validation NLL excess {excess:.5f}"

    # parameter-curve recovery
    grid = np.linspace(0.05, 0.95, 181)
    predicted = bundle.predict_params(grid[:, None])
    for name, bar in (("mu", 0.1), ("sigma", 0.1), ("g", 0.15), ("h", 0.15)):
        got = np.asarray(getattr(predicted, name))
        want = getattr(design, name)(grid)
        rmse = float(np.sqrt(np.mean((got - want) ** 2)))
        assert rmse <= bar, f"{name} curve RMSE {rmse:.4f} > {bar}"


@pytest.mark.acceptance(5, "misspecification win")
def test_criterion_5_misspecification_win(t_run):
    tukey = json.loads((t_run["eval_tukey"] / "summary.json").read_text())
    gauss = json.loads((t_run["eval_gaussian"] / "summary.json").read_text())
    gap = gauss["mean_nll"] - tukey["mean_nll"]
    assert gap >= 0.05, f"validation NLL gap {gap:.4f}"
    assert tukey["ks_statistic"] < gauss["ks_statistic"]


@pytest.mark.acceptance(6, "interval calibration")
def test_criterion_6_interval_calibration(gandh_run):
    bundle = load_model(gandh_run["model"])
    held_out = generate_gandh(8000, GANDH_DESIGNS["reference"], seed=99)
    params = bundle.predict_params(held_out.x[:, None])

    sym = symmetric_interval(params, 0.05)
    coverage = float(np.mean((held_out.y >= sym.lower) & (held_out.y <= sym.upper)))
    assert 0.94 <= coverage <= 0.96, f"symmetric coverage {coverage:.4f}"

    sho = shortest_interval(params, 0.05)
    sym_len = np.asarray(sym.upper) - np.asarray(sym.lower)
    sho_len = np.asarray(sho.upper) - np.asarray(sho.lower)
    assert np.all(sho_len <= sym_len), "shortest interval longer than symmetric"
    skewed = np.abs(np.asarray(params.g)) > 0.3
    assert skewed.sum() > 0
    strict = np.mean(sho_len[skewed] < sym_len[skewed])
    assert strict >= 0.90, f"strictly shorter on {strict:.2%} of skewed rows"


@pytest.mark.acceptance(7, "crop-style experiment substitute")
def test_criterion_7_croplike_pipeline(crop_run):
    # year-membership fixture for the by-column split rule
    years = np.arange(1981.0, 2017.0)
    fixture = Dataset(
        np.column_stack([np.zeros_like(years), years]),
        np.zeros_like(years), ("lat", "year"),
    )
    split = ByColumnSplit("year", tuple(sorted(VAL_YEARS)), tuple(sorted(TEST_YEARS)))
    rows = split.apply(fixture)
    assert set(fixture.column("year")[rows["val"]]) == VAL_YEARS
    assert set(fixture.column("year")[rows["test"]]) == TEST_YEARS

    # late-injection architecture: shape and gradient checks
    spec = NetworkSpec(3, (8, 6), head_dim=4, late_features=1, batch_norm=True)
    assert spec.layer_dims() == [(2, 8), (9, 6), (6, 4)]
    net = Network(spec, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(16, 3))
    y = rng.normal(size=16)
    raw = net.forward(x, train=True)
    assert raw.shape == (16, 4)
    _, head_grad, _ = tukey_head_loss(y, raw, solver_cfg=TIGHT)
    grads = net.backward(head_grad)
    params = net.parameters()
    for _ in range(20):
        pi = int(rng.integers(len(params)))
        idx = tuple(int(rng.integers(s)) for s in params[pi].shape)
        orig = params[pi][idx]
        step = 1e-6 * max(1.0, abs(orig))

        def value():
            r = net.forward(x, train=True)
            m, _, _ = tukey_head_loss(y, r, solver_cfg=TIGHT)
            return m

        params[pi][idx] = orig + step
        up = value()
        params[pi][idx] = orig - step
        dn = value()
        params[pi][idx] = orig
        np.testing.assert_allclose(
            grads[pi][idx], (up - dn) / (2 * step), rtol=1e-4, atol=1e-7
        )

    # end-to-end 20k-row run: Tukey QQ dominates Gaussian in KS
    tukey = json.loads((crop_run["eval_tukey"] / "summary.json").read_text())
    gauss = json.loads((crop_run["eval_gaussian"] / "summary.json").read_text())
    assert tukey["ks_statistic"] < gauss["ks_statistic"]


@pytest.mark.acceptance(8, "determinism")
def test_criterion_8_determinism(tmp_path_factory, gandh_run, t_run, crop_run):
    def artifact_bytes(root, names):
        return {name: (root / name).read_bytes() for name in names}

    gandh_files = ["model.tghn", "model.tghn.json", "model.tghn.history.csv",
                   "eval/report.csv", "eval/qq.csv", "eval/summary.json"]
    rerun = run_gandh_experiment(tmp_path_factory.mktemp("gandh_rerun"))
    first = artifact_bytes(gandh_run["model"].parent, gandh_files)
    second = artifact_bytes(rerun["model"].parent, gandh_files)
    assert first == second, "well-specified pipeline is not bitwise deterministic"

    t_files = ["tukey.tghn", "gaussian.tghn", "tukey.tghn.history.csv",
               "gaussian.tghn.history.csv", "eval_tukey/report.csv",
               "eval_gaussian/report.csv", "eval_tukey/summary.json",
               "eval_gaussian/summary.json"]
    rerun = run_t_experiment(tmp_path_factory.mktemp("t_rerun"))
    first = artifact_bytes(t_run["data"].parent, t_files)
    second = artifact_bytes(rerun["data"].parent, t_files)
    assert first == second, "misspecification pipeline is not bitwise deterministic"

    crop_files = ["tukey.tghn", "gaussian.tghn", "eval_tukey/report.csv",
                  "eval_gaussian/report.csv", "eval_tukey/qq.csv",
                  "eval_gaussian/qq.csv"]
    rerun = run_croplike_experiment(tmp_path_factory.mktemp("crop_rerun"))
    first = artifact_bytes(crop_run["data"].parent, crop_files)
    second = artifact_bytes(rerun["data"].parent, crop_files)
    assert first == second, "crop-style pipeline is not bitwise deterministic"
