"""Network forward/backward, batch norm, Adam, scheduler, training loop,
and model persistence."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from tghnet.data import FractionSplit
from tghnet.errors import DataError, NumericalError
from tghnet.loss import LinkConfig, link, tukey_head_loss
from tghnet.nn import (
    Adam,
    AdamConfig,
    ModelBundle,
    Network,
    TrainConfig,
    dense_spec,
    effective_lr,
    load_model,
    save_model,
    train,
)
from tghnet.nn.network import EVAL_CHUNK, BatchNorm, LayerSpec, NetworkSpec
from tghnet.nn.persist import DataColumns, ModelHeader, Standardization
from tghnet.nn.train import evaluate_mean_loss
from tghnet.tgh import InverseSolverConfig

TIGHT = InverseSolverConfig(abs_tolerance=1e-15)


class TestSpecs:
    def test_dense_spec_shapes(self):
        spec = dense_spec(3, [8, 6], head_dim=4, late_features=1)
        dims = [(l.in_dim, l.out_dim) for l in spec.layers]
        assert dims == [(2, 8), (9, 6), (6, 4)]
        assert spec.base_features == 2
        assert spec.input_dim == 3

    def test_late_injection_at_first_layer_for_two_layer_net(self):
        spec = dense_spec(3, [8], head_dim=2, late_features=1)
        assert [(l.in_dim, l.out_dim) for l in spec.layers] == [(3, 8), (8, 2)]

    def test_head_constraints(self):
        with pytest.raises(ValueError, match="head"):
            NetworkSpec((LayerSpec(2, 4, "relu", False),), head_dim=4)
        with pytest.raises(ValueError, match="head"):
            NetworkSpec(
                (LayerSpec(2, 4, "identity", True),), head_dim=4
            )

    def test_dim_chain_validation(self):
        with pytest.raises(ValueError, match="expects in_dim"):
            NetworkSpec(
                (LayerSpec(2, 4), LayerSpec(5, 3, "identity", False)),
                late_features=0, head_dim=3,
            )

    def test_late_injection_needs_two_layers(self):
        with pytest.raises(ValueError, match="two layers"):
            NetworkSpec(
                (LayerSpec(2, 4, "identity", False),), late_features=1, head_dim=4
            )

    @pytest.mark.parametrize("make, field", [
        (lambda: LayerSpec(0, 4), "in_dim"),
        (lambda: LayerSpec(2, 4, "tanh"), "activation"),
        (lambda: NetworkSpec(()), "layers"),
        (lambda: NetworkSpec((LayerSpec(2, 4, "identity"),), late_features=-1), "late_features"),
        (lambda: NetworkSpec((LayerSpec(2, 3, "identity"),), head_dim=4), "head_dim"),
    ], ids=["in_dim", "activation", "layers", "late_features", "head_dim"])
    def test_messages_open_with_the_field(self, make, field):
        # config.read puts the dotted section key in front of them
        with pytest.raises(ValueError, match=f"^{field}"):
            make()


class TestForward:
    def test_zero_weights_give_zero_head(self):
        spec = dense_spec(2, [4, 4], head_dim=3, batch_norm=False)
        net = Network(spec, seed=0)
        for lin in net.linears:
            lin.w[...] = 0.0
        out = net.forward(np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_single_linear_layer_is_matrix_multiply(self):
        spec = NetworkSpec((LayerSpec(2, 2, "identity", False),), head_dim=2)
        net = Network(spec, seed=0)
        net.linears[0].w[...] = [[1.0, 2.0], [3.0, 4.0]]
        net.linears[0].b[...] = [0.5, -0.5]
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        want = x @ np.array([[1.0, 2.0], [3.0, 4.0]]) + [0.5, -0.5]
        np.testing.assert_allclose(net.forward(x), want)

    def test_batch_norm_train_mode_standardizes(self):
        bn = BatchNorm(3)
        x = np.random.default_rng(1).normal(2.0, 5.0, size=(256, 3))
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_eval_uses_running_statistics(self):
        bn = BatchNorm(2)
        rng = np.random.default_rng(2)
        for _ in range(50):
            bn.forward(rng.normal(1.0, 2.0, size=(128, 2)), train=True)
        x = np.zeros((4, 2))
        out = bn.forward(x, train=False)
        want = (0.0 - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(out, np.broadcast_to(want, (4, 2)))

    def test_eval_affine_map_matches_normalize_then_scale(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(64)
        bn.gamma[...], bn.beta[...] = rng.normal(1.0, 0.5, 64), rng.normal(0.0, 2.0, 64)
        bn.running_mean[...], bn.running_var[...] = rng.normal(0.0, 3.0, 64), rng.uniform(0.1, 9.0, 64)
        x = rng.normal(bn.running_mean, np.sqrt(bn.running_var), size=(512, 64))
        want = bn.gamma * (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) + bn.beta
        scale = np.abs(bn.gamma * x / np.sqrt(bn.running_var + bn.eps)) + np.abs(bn.beta)
        assert np.all(np.abs(bn.forward(x, train=False) - want) <= 1e-15 * scale.max())

    def test_late_column_skips_early_layers(self):
        spec = dense_spec(2, [4, 4], head_dim=1, late_features=1, batch_norm=False)
        net = Network(spec, seed=3)
        x = np.array([[0.3, 7.0], [0.3, -2.0]])  # same base value, late differs
        h_first = [net.linears[0].forward(x[:1, :1], cache=False),
                   net.linears[0].forward(x[1:, :1], cache=False)]
        np.testing.assert_array_equal(h_first[0], h_first[1])
        out = net.forward(x)
        assert out[0, 0] != out[1, 0]

    def test_input_width_validation(self):
        net = Network(dense_spec(2, [4], head_dim=2), seed=0)
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((3, 5)))


class TestBackward:
    def test_zero_head_grad_gives_zero_grads(self):
        net = Network(dense_spec(2, [4, 4], head_dim=3), seed=1)
        x = np.random.default_rng(0).normal(size=(8, 2))
        net.forward(x, train=True)
        grads = net.backward(np.zeros((8, 3)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_least_squares_closed_form(self):
        # scalar loss mean((x@w - y)^2): dL/dw = 2/n * x^T (x@w - y)
        spec = NetworkSpec((LayerSpec(3, 1, "identity", False),), head_dim=1)
        net = Network(spec, seed=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=(32, 1))
        pred = net.forward(x, train=True)
        head_grad = 2.0 * (pred - y) / len(x)
        dw = net.backward(head_grad)[0]
        want = 2.0 / len(x) * x.T @ (x @ net.linears[0].w + net.linears[0].b - y)
        np.testing.assert_allclose(dw, want, rtol=1e-12)

    def test_full_pipeline_finite_differences(self):
        spec = dense_spec(3, [8, 6], head_dim=4, late_features=1, batch_norm=True)
        net = Network(spec, seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=16)

        def scalar_loss():
            raw = net.forward(x, train=True)
            mean, head_grad, _ = tukey_head_loss(y, raw, solver_cfg=TIGHT)
            return mean, head_grad

        _, head_grad = scalar_loss()
        grads = net.backward(head_grad)
        params = net.parameters()
        prng = np.random.default_rng(3)
        for _ in range(50):
            pi = int(prng.integers(len(params)))
            idx = tuple(int(prng.integers(s)) for s in params[pi].shape)
            orig = params[pi][idx]
            step = 1e-6 * max(1.0, abs(orig))
            params[pi][idx] = orig + step
            up, _ = scalar_loss()
            params[pi][idx] = orig - step
            dn, _ = scalar_loss()
            params[pi][idx] = orig
            fd = (up - dn) / (2 * step)
            np.testing.assert_allclose(grads[pi][idx], fd, rtol=1e-4, atol=1e-7)

    def test_backward_requires_train_forward(self):
        net = Network(dense_spec(2, [4], head_dim=2), seed=0)
        with pytest.raises(RuntimeError, match="train-mode forward"):
            net.backward(np.zeros((3, 2)))
        net.forward(np.zeros((3, 2)), train=False)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((3, 2)))


class TestBatchNormRunningStats:
    def test_converges_to_population_statistics(self):
        bn = BatchNorm(1)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            bn.forward(rng.normal(3.0, 2.0, size=(256, 1)), train=True)
        assert bn.running_mean[0] == pytest.approx(3.0, abs=1e-2 * 3.0)
        assert bn.running_var[0] == pytest.approx(4.0, abs=1e-2 * 4.0 * 2)


class TestBatchNormBackward:
    @staticmethod
    def _three_term_dx(dout, x, gamma, eps):
        """Reference: dx through the batch variance and mean, term by term."""
        n = x.shape[0]
        centered = x - x.mean(axis=0)
        inv_std = 1.0 / np.sqrt(np.mean(centered * centered, axis=0) + eps)
        dx_hat = dout * gamma
        dvar = np.sum(dx_hat * centered, axis=0) * (-0.5) * inv_std ** 3
        dmean = -np.sum(dx_hat, axis=0) * inv_std
        return dx_hat * inv_std + (2.0 / n) * dvar * centered + dmean / n

    def test_closed_form_matches_three_term_formula(self):
        rng = np.random.default_rng(12)
        bn = BatchNorm(64)
        bn.gamma[...] = rng.normal(1.0, 0.5, size=64)
        x = rng.normal(2.0, 3.0, size=(512, 64))
        dout = rng.normal(size=(512, 64))
        bn.forward(x, train=True)
        dx = bn.backward(dout)
        want = self._three_term_dx(dout, x, bn.gamma, bn.eps)
        # relative to the largest entry: entries near zero carry the rounding
        # of the larger terms that cancel in them
        np.testing.assert_allclose(dx, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        centered = x - x.mean(axis=0)
        x_hat = centered / np.sqrt(np.mean(centered * centered, axis=0) + bn.eps)
        np.testing.assert_allclose(bn.dgamma, np.sum(dout * x_hat, axis=0), rtol=1e-12)
        np.testing.assert_allclose(bn.dbeta, np.sum(dout, axis=0), rtol=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, -2.0])
        opt = Adam(p, AdamConfig())
        opt.step(p, np.zeros(2), epoch=0)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_first_step_hand_computed(self):
        # with bias correction, first update is lr * gr / (|gr| + eps)
        cfg = AdamConfig(lr=1e-4)
        p = np.array([1.0])
        opt = Adam(p, cfg)
        opt.step(p, np.array([0.3]), epoch=0)
        want = 1.0 - cfg.lr * 0.3 / (0.3 + cfg.eps)
        assert p[0] == pytest.approx(want, rel=1e-12)

    def test_vector_step_matches_per_array_loop(self):
        # reference: the same update applied array by array
        net = Network(dense_spec(1, [64, 64, 64, 64], head_dim=4), seed=0)
        cfg = AdamConfig(lr=3e-3, lr_drop_epochs=(2, 4))
        ref = [p.copy() for p in net.parameters()]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(net.params, cfg)
        rng = np.random.default_rng(11)
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in ref]
            net.grad[...] = np.concatenate([gr.ravel() for gr in grads])
            opt.step(net.params, net.grad, epoch=t)
            lr = effective_lr(cfg, t)
            bc1 = 1.0 - cfg.beta1 ** t
            bc2 = 1.0 - cfg.beta2 ** t
            for p, gr, mi, vi in zip(ref, grads, m, v):
                mi *= cfg.beta1
                mi += (1.0 - cfg.beta1) * gr
                vi *= cfg.beta2
                vi += (1.0 - cfg.beta2) * gr * gr
                p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + cfg.eps)
        for got, want in zip(net.parameters(), ref):
            np.testing.assert_array_equal(got, want)

    def test_scheduler_drop_table(self):
        cfg = AdamConfig()
        assert effective_lr(cfg, 0) == pytest.approx(1e-4)
        assert effective_lr(cfg, 9) == pytest.approx(1e-4)
        assert effective_lr(cfg, 10) == pytest.approx(1e-5)
        assert effective_lr(cfg, 15) == pytest.approx(1e-6)
        assert effective_lr(cfg, 20) == pytest.approx(1e-7)
        assert effective_lr(cfg, 30) == pytest.approx(1e-8)
        assert effective_lr(cfg, 45) == pytest.approx(1e-9)

    def test_schedule_is_non_increasing_step_function(self):
        cfg = AdamConfig(lr=1e-3, lr_drop_epochs=(3, 7), lr_drop_factor=2.0)
        lrs = [effective_lr(cfg, e) for e in range(10)]
        assert np.all(np.diff(lrs) <= 0)
        assert lrs[2] == 1e-3 and lrs[3] == 5e-4 and lrs[7] == 2.5e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(lr=0.0)
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)


def _toy_data(n=2000, sigma=0.3, seed=6):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = 2.0 * x[:, 0] - 1.0 + sigma * rng.standard_normal(n)
    idx = rng.permutation(n)
    return x, y, idx[: int(0.8 * n)], idx[int(0.8 * n):]


class TestTrain:
    def test_zero_epochs_returns_initial_network(self):
        x, y, tr, va = _toy_data(200)
        net = Network(dense_spec(1, [8], head_dim=2), seed=0)
        before = [p.copy() for p in net.parameters()]
        hist = train(net, x, y, tr, va, "gaussian", AdamConfig(), TrainConfig(epochs=0))
        assert len(hist) == 0
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_fixed_seed_is_bitwise_deterministic(self):
        x, y, tr, va = _toy_data(500)
        results = []
        for _ in range(2):
            net = Network(dense_spec(1, [8, 8], head_dim=2), seed=3)
            hist = train(
                net, x, y, tr, va, "gaussian",
                AdamConfig(lr=1e-3), TrainConfig(epochs=3, batch_size=64), seed=5,
            )
            results.append((
                net.state.copy(),
                list(hist.train_loss),
                list(hist.val_loss),
            ))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]

    def test_gaussian_toy_reaches_noise_floor(self):
        # optimal mean NLL (constant dropped) is log(sigma) + 1/2
        sigma = 0.3
        x, y, tr, va = _toy_data(4000, sigma=sigma)
        net = Network(dense_spec(1, [16, 16], head_dim=2), seed=0)
        hist = train(
            net, x, y, tr, va, "gaussian",
            AdamConfig(lr=5e-3, lr_drop_epochs=(30,)),
            TrainConfig(epochs=40, batch_size=256), seed=4,
        )
        target = math.log(sigma) + 0.5
        assert min(hist.val_loss) == pytest.approx(target, abs=0.05)

    def test_best_validation_parameters_are_retained(self):
        x, y, tr, va = _toy_data(500)
        net = Network(dense_spec(1, [8], head_dim=2), seed=1)
        hist = train(
            net, x, y, tr, va, "gaussian",
            AdamConfig(lr=1e-2), TrainConfig(epochs=5, batch_size=64), seed=2,
        )
        restored = evaluate_mean_loss(net, x[va], y[va], "gaussian")
        assert restored == pytest.approx(min(hist.val_loss), rel=1e-12)
        assert hist.best_epoch == int(np.argmin(hist.val_loss))

    def test_non_finite_loss_aborts_with_context(self):
        x = np.zeros((8, 1))
        y = np.full(8, 1e300)  # squared residual overflows
        net = Network(dense_spec(1, [4], head_dim=2, batch_norm=False), seed=0)
        with pytest.raises(NumericalError, match="epoch 0"):
            train(net, x, y, np.arange(6), np.arange(6, 8), "gaussian",
                  AdamConfig(), TrainConfig(epochs=1, batch_size=4))

    @pytest.mark.parametrize("kind, head_dim", [("tukey", 4), ("gaussian", 2)])
    def test_head_losses_are_looked_up_by_name(self, monkeypatch, kind, head_dim):
        # A profiler wraps these names in tghnet.nn.train; train and
        # evaluate_mean_loss must call the wrappers, once per batch and once
        # per EVAL_CHUNK of validation rows.
        nn_train = importlib.import_module("tghnet.nn.train")
        rows = {}
        for name in ("tukey_head_loss", "gaussian_head_loss"):
            inner, seen = getattr(nn_train, name), rows.setdefault(name, [])
            monkeypatch.setattr(nn_train, name,
                                lambda y, *a, f=inner, s=seen: s.append(len(y)) or f(y, *a))
        x, y, _, _ = _toy_data(100 + EVAL_CHUNK + 5)
        net = Network(dense_spec(1, [4], head_dim=head_dim), seed=0)
        train(net, x, y, np.arange(100), np.arange(100, len(y)), kind,
              AdamConfig(), TrainConfig(epochs=2, batch_size=32))
        assert rows.pop(f"{kind}_head_loss") == [32, 32, 32, 4, EVAL_CHUNK, 5] * 2
        assert rows.popitem()[1] == []

    def test_unknown_loss_kind(self):
        x, y, tr, va = _toy_data(100)
        net = Network(dense_spec(1, [4], head_dim=2), seed=0)
        with pytest.raises(ValueError, match="loss kind"):
            train(net, x, y, tr, va, "poisson", AdamConfig(), TrainConfig(epochs=1))


class TestGradientClipping:
    @staticmethod
    def _gradients(monkeypatch, clip_norm):
        """Per batch of one epoch: the gradient backward() left in net.grad
        and the gradient Adam.step received."""
        x, y, tr, va = _toy_data(300)
        net = Network(dense_spec(1, [8, 8], head_dim=2), seed=0)
        raw, stepped = [], []
        backward = Network.backward

        def spy_backward(self, head_grad):
            out = backward(self, head_grad)
            raw.append(self.grad.copy())
            return out

        monkeypatch.setattr(Network, "backward", spy_backward)
        monkeypatch.setattr(Adam, "step", lambda self, p, grad, epoch: stepped.append(grad.copy()))
        train(net, x, y, tr, va, "gaussian", AdamConfig(),
              TrainConfig(epochs=1, batch_size=64, clip_norm=clip_norm))
        assert len(raw) == len(stepped) == 4
        return raw, stepped

    def test_small_clip_norm_scales_to_the_bound(self, monkeypatch):
        clip = 1e-3
        raw, stepped = self._gradients(monkeypatch, clip)
        for r, s in zip(raw, stepped):
            norm = np.sqrt(np.sum(r * r))
            assert norm > clip
            assert np.sqrt(np.sum(s * s)) == pytest.approx(clip, rel=1e-12)
            np.testing.assert_allclose(s, r * (clip / norm), rtol=1e-12)

    def test_no_clip_norm_passes_the_gradient_unchanged(self, monkeypatch):
        raw, stepped = self._gradients(monkeypatch, None)
        for r, s in zip(raw, stepped):
            np.testing.assert_array_equal(s, r)


def _documented_blob(net):
    """The model-file blob as the persist docstring documents it:
    parameters(), then running_mean and running_var per batch-norm layer."""
    arrays = list(net.parameters())
    for bn in net.norms:
        if bn is not None:
            arrays += [bn.running_mean, bn.running_var]
    return b"".join(a.astype("<f8").tobytes() for a in arrays)


class TestStateLayout:
    def test_parameter_and_gradient_views_share_the_vectors(self):
        net = Network(dense_spec(3, [6, 5], head_dim=4, late_features=1), seed=0)
        rng = np.random.default_rng(0)
        assert np.shares_memory(net.params, net.state)
        assert net.grad.shape == net.params.shape
        np.testing.assert_array_equal(
            np.concatenate([p.ravel() for p in net.parameters()]), net.params)
        for p in net.parameters():
            assert np.shares_memory(p, net.params)
        net.forward(rng.normal(size=(16, 3)), train=True)
        grads = net.backward(rng.normal(size=(16, 4)))
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
        for g in grads:
            assert np.shares_memory(g, net.grad)
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in grads]), net.grad)


def _bundle_of(net, loss, columns, late_columns=(), standardization=None, split_rule=None):
    data = DataColumns(columns, late_columns, "y", standardization)
    return ModelBundle(ModelHeader(loss, net.spec, LinkConfig(), InverseSolverConfig(),
                                   data, split_rule), net)


class TestPersistence:
    def _bundle(self, seed=0):
        net = Network(dense_spec(3, [6, 5], head_dim=4, late_features=1), seed=seed)
        # make running stats non-trivial
        net.forward(np.random.default_rng(seed).normal(size=(64, 3)), train=True)
        columns = ("lat", "lon", "year")
        st = Standardization(columns, np.array([1.0, 2.0, 2000.0]), np.array([3.0, 4.0, 10.0]))
        return _bundle_of(net, "tukey", columns, ("year",), st, FractionSplit(0.8, 0))

    def test_roundtrip_is_exact(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.tghn"
        save_model(path, bundle)
        loaded = load_model(path)
        np.testing.assert_array_equal(bundle.network.state, loaded.network.state)
        assert loaded.header == bundle.header
        assert loaded.header.split_rule == FractionSplit(0.8, 0)
        x = np.random.default_rng(5).normal(size=(10, 3))
        saved, reloaded = bundle.predict_params(x), loaded.predict_params(x)
        for name in ("mu", "sigma", "g", "h"):
            np.testing.assert_array_equal(getattr(saved, name), getattr(reloaded, name))

    def test_blob_is_parameters_then_running_stats(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.tghn"
        save_model(path, bundle)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        assert raw[12 + hlen:] == _documented_blob(bundle.network)

    def test_hand_built_blob_loads_bit_equal(self, tmp_path):
        # the header of one network, the blob of another of the same shape
        path = tmp_path / "model.tghn"
        save_model(path, self._bundle(seed=0))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        other = self._bundle(seed=1).network
        path.write_bytes(raw[:12 + hlen] + _documented_blob(other))
        loaded = load_model(path).network
        np.testing.assert_array_equal(loaded.state, other.state)
        x = np.random.default_rng(5).normal(size=(10, 3))
        np.testing.assert_array_equal(loaded.forward(x), other.forward(x))

    def test_header_bytes_are_format_1(self, tmp_path):
        # the header save_model has written since the first model file
        path = tmp_path / "model.tghn"
        save_model(path, self._bundle())
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        assert raw[12:12 + hlen].decode() == (
            '{"data": {"feature_columns": ["lat", "lon", "year"], "late_columns": ["year"], '
            '"standardization": {"columns": ["lat", "lon", "year"], '
            '"mean": [1.0, 2.0, 2000.0], "scale": [3.0, 4.0, 10.0]}, "target_column": "y"}, '
            '"format": 1, "link": {"g_max": 2.0, "h_max": 0.5, "sigma_floor": 0.0001}, '
            '"loss": "tukey", "network": {"head_dim": 4, "late_features": 1, "layers": ['
            '{"activation": "relu", "batch_norm": true, "in_dim": 2, "out_dim": 6}, '
            '{"activation": "relu", "batch_norm": true, "in_dim": 7, "out_dim": 5}, '
            '{"activation": "identity", "batch_norm": false, "in_dim": 5, "out_dim": 4}]}, '
            '"solver": {"abs_tolerance": 1e-12, "initial_half_width": 8.0, '
            '"max_bisection_iters": 200, "max_bracket_doublings": 60}, '
            '"split_rule": {"fraction": 0.8, "rule": "fraction", "seed": 0}}'
        )
        assert raw[:12] == b"TGHN" + (1).to_bytes(4, "little") + hlen.to_bytes(4, "little")

    def test_sidecar_json_written(self, tmp_path):
        path = tmp_path / "model.tghn"
        save_model(path, self._bundle())
        sidecar = (tmp_path / "model.tghn.json").read_text()
        assert '"late_features": 1' in sidecar

    def test_saves_are_bitwise_identical(self, tmp_path):
        save_model(tmp_path / "a.tghn", self._bundle())
        save_model(tmp_path / "b.tghn", self._bundle())
        assert (tmp_path / "a.tghn").read_bytes() == (tmp_path / "b.tghn").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tghn"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_predict_params_gaussian_head_fills_zero_shape(self, tmp_path):
        net = Network(dense_spec(1, [4], head_dim=2, batch_norm=False), seed=0)
        bundle = _bundle_of(net, "gaussian", ("x",))
        params = bundle.predict_params(np.zeros((5, 1)))
        np.testing.assert_array_equal(np.asarray(params.g), np.zeros(5))
        np.testing.assert_array_equal(np.asarray(params.h), np.zeros(5))


class TestChunkedEvalForward:
    def test_predict_params_matches_whole_array_forward(self):
        bundle = TestPersistence()._bundle()
        x = np.random.default_rng(3).normal(size=(2 * EVAL_CHUNK + 37, 3)) * 5.0
        raw = bundle.network.forward(bundle.header.data.standardization.apply(x), train=False)
        whole = link(raw, bundle.header.link)[0]
        chunked = bundle.predict_params(x)
        for name in ("mu", "sigma", "g", "h"):
            assert getattr(chunked, name).shape == (len(x),)
            np.testing.assert_allclose(getattr(chunked, name), getattr(whole, name),
                                       rtol=1e-9, atol=0.0)

    def test_evaluate_mean_loss_matches_one_piece(self):
        x, y, _, _ = _toy_data(3 * EVAL_CHUNK)
        net = Network(dense_spec(1, [8], head_dim=4), seed=1)
        raw = net.forward(x, train=False)
        whole, _, _ = tukey_head_loss(y, raw)
        assert evaluate_mean_loss(net, x, y, "tukey") == pytest.approx(whole, rel=1e-12)

    def test_predict_params_memory_is_its_output(self):
        net = Network(dense_spec(1, [64, 64, 64, 64], head_dim=4), seed=0)
        bundle = _bundle_of(net, "tukey", ("x",),
                            standardization=Standardization(("x",), (0.5,), (0.3,)))
        x = np.random.default_rng(0).uniform(size=(200_000, 1))
        tracemalloc.start()
        try:
            params = bundle.predict_params(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(np.asarray(a).nbytes for a in (params.mu, params.sigma, params.g, params.h))
        # a whole-array forward of 200k rows would hold 100 MiB of activations
        assert peak < returned + 4 * 2 ** 20
