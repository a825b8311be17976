"""Network forward/backward, batch norm, Adam, scheduler, training loop,
and model persistence."""

import dataclasses
import importlib
import json
import math
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tghnet.data import FractionSplit
from tghnet.errors import DataError, NumericalError
from tghnet.loss import LinkConfig, link, tukey_head_loss
from tghnet.nn import (
    Adam,
    AdamConfig,
    ModelBundle,
    Network,
    TrainConfig,
    effective_lr,
    load_model,
    save_model,
    train,
)
from tghnet.nn.network import EPS, EVAL_CHUNK, MOMENTUM, NetworkConfig, NetworkSpec
from tghnet.nn.persist import DataColumns, ModelHeader, Standardization
from tghnet.nn.train import evaluate_mean_loss
from tghnet.tgh import InverseSolverConfig

TIGHT = InverseSolverConfig(abs_tolerance=1e-15)

# the header format-1 save_model wrote for TestPersistence._bundle()
FORMAT_1_HEADER = (
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


class TestSpecs:
    def test_dense_spec_shapes(self):
        spec = NetworkSpec(3, (8, 6), head_dim=4, late_features=1)
        assert spec.layer_dims() == [(2, 8), (9, 6), (6, 4)]
        assert spec.base_features == 2
        assert spec.input_dim == 3

    def test_late_injection_at_first_layer_for_two_layer_net(self):
        spec = NetworkSpec(3, (8,), head_dim=2, late_features=1)
        assert spec.layer_dims() == [(3, 8), (8, 2)]

    def test_late_injection_needs_two_layers(self):
        with pytest.raises(ValueError, match="needs a hidden layer"):
            NetworkSpec(2, (), head_dim=4, late_features=1)

    @pytest.mark.parametrize("make, field", [
        (lambda: NetworkSpec(2, (0,), 4), "layers"),
        (lambda: NetworkSpec(2, (4,), 4, late_features=-1), "late_features"),
    ], ids=["layers", "late_features"])
    def test_messages_open_with_the_field(self, make, field):
        # config.read puts the dotted section key in front of them
        with pytest.raises(ValueError, match=f"^{field}"):
            make()


# beta offset that keeps every ReLU of a batch-norm probe open
SHIFT = 100.0


def _batch_norm_probe(w0, gamma=1.0, beta=0.0):
    """A network of one batch-norm hidden layer whose head returns that
    layer's batch norm of x @ w0, and the layer's batch-norm views: beta +
    SHIFT keeps every ReLU open, and the identity head subtracts SHIFT
    again, exactly while the batch-norm output stays within SHIFT / 2."""
    n_in, width = np.shape(w0)
    net = Network(NetworkSpec(n_in, (width,), head_dim=width), seed=0)
    (w, _, _, _, bn), (head_w, head_b, *_) = net.layers
    w[...], bn[0][...], bn[1][...] = w0, gamma, np.add(beta, SHIFT)
    head_w[...], head_b[...] = np.eye(width), -SHIFT
    return net, bn


class TestForward:
    def test_zero_weights_give_zero_head(self):
        spec = NetworkSpec(2, (4, 4), head_dim=3, batch_norm=False)
        net = Network(spec, seed=0)
        for w, *_ in net.layers:
            w[...] = 0.0
        out = net.forward(np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_single_linear_layer_is_matrix_multiply(self):
        spec = NetworkSpec(2, (), head_dim=2)
        net = Network(spec, seed=0)
        w, b = net.layers[0][:2]
        w[...] = [[1.0, 2.0], [3.0, 4.0]]
        b[...] = [0.5, -0.5]
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        want = x @ np.array([[1.0, 2.0], [3.0, 4.0]]) + [0.5, -0.5]
        np.testing.assert_allclose(net.forward(x), want)

    def test_batch_norm_train_mode_standardizes(self):
        net, _ = _batch_norm_probe(np.eye(3))
        x = np.random.default_rng(1).normal(2.0, 5.0, size=(256, 3))
        out = net.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_eval_uses_running_statistics(self):
        net, bn = _batch_norm_probe(np.eye(2))
        rng = np.random.default_rng(2)
        for _ in range(50):
            net.forward(rng.normal(1.0, 2.0, size=(128, 2)), train=True)
        out = net.forward(np.zeros((4, 2)), train=False)
        running_mean, running_var = bn[2:4]
        want = (0.0 - running_mean) / np.sqrt(running_var + EPS)
        np.testing.assert_allclose(out, np.broadcast_to(want, (4, 2)))

    def test_eval_affine_map_matches_normalize_then_scale(self):
        rng = np.random.default_rng(4)
        net, bn = _batch_norm_probe(np.eye(64), rng.normal(1.0, 0.5, 64), rng.normal(0.0, 2.0, 64))
        gamma, beta, running_mean, running_var = bn[:4]
        running_mean[...], running_var[...] = rng.normal(0.0, 3.0, 64), rng.uniform(0.1, 9.0, 64)
        x = rng.normal(running_mean, np.sqrt(running_var), size=(512, 64))
        want = gamma * (x - running_mean) / np.sqrt(running_var + EPS) + beta
        scale = np.abs(gamma * x / np.sqrt(running_var + EPS)) + np.abs(beta)
        # the probe's head takes SHIFT off both sides exactly
        got = net.forward(x, train=False)
        assert np.all(np.abs(got - (want - SHIFT)) <= 1e-15 * scale.max())

    def test_folded_eval_forward_matches_normalize_then_scale(self):
        # the eval forward folds batch norm into w and b; the unfolded
        # gamma * (z - running_mean) / sqrt(running_var + EPS) + beta agrees
        # within 1e-14 of the sum of the absolute terms behind each output
        # (seen up to 0.65 ulp of it over 40 seeds)
        net = Network(NetworkSpec(3, (16, 12), head_dim=4, late_features=1), seed=5)
        rng = np.random.default_rng(5)
        for *_, bn in net.layers[:2]:
            gamma, beta, running_mean, running_var = bn[:4]
            gamma[...] = rng.uniform(0.2, 3.0, gamma.shape)
            beta[...] = rng.normal(0.0, 2.0, beta.shape)
            running_mean[...] = rng.normal(0.0, 3.0, beta.shape)
            running_var[...] = rng.uniform(0.05, 9.0, beta.shape)
        x = rng.normal(0.0, 3.0, size=(500, 3))
        h, terms = x[:, :2], np.abs(x[:, :2])
        for i, (w, b, _, _, bn) in enumerate(net.layers):
            if i == 1:  # the late column joins here
                h = np.concatenate([h, x[:, 2:]], axis=1)
                terms = np.concatenate([terms, np.abs(x[:, 2:])], axis=1)
            z, terms = h @ w + b, terms @ np.abs(w) + np.abs(b)
            if bn is not None:
                gamma, beta, running_mean, running_var = bn[:4]
                std = np.sqrt(running_var + EPS)
                z = np.maximum(gamma * (z - running_mean) / std + beta, 0.0)
                terms = gamma * (terms + np.abs(running_mean)) / std + np.abs(beta)
            h = z
        got = net.forward(x, train=False)
        assert np.all(np.abs(got - h) <= 1e-14 * terms)

    def test_late_column_skips_early_layers(self):
        spec = NetworkSpec(2, (4, 4), head_dim=1, late_features=1, batch_norm=False)
        net = Network(spec, seed=3)
        x = np.array([[0.3, 7.0], [0.3, -2.0]])  # same base value, late differs
        assert [w.shape for w, *_ in net.layers] == [(1, 4), (5, 4), (4, 1)]
        out = net.forward(x)
        assert out[0, 0] != out[1, 0]
        net.layers[1][0][-1] = 0.0  # the late column's weights, its only way in
        out = net.forward(x)
        assert out[0, 0] == out[1, 0]

    def test_input_width_validation(self):
        net = Network(NetworkSpec(2, (4,), head_dim=2), seed=0)
        with pytest.raises(ValueError, match="shape"):
            net.forward(np.zeros((3, 5)))


class TestBackward:
    def test_zero_head_grad_gives_zero_grads(self):
        net = Network(NetworkSpec(2, (4, 4), head_dim=3), seed=1)
        x = np.random.default_rng(0).normal(size=(8, 2))
        net.forward(x, train=True)
        grads = net.backward(np.zeros((8, 3)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_least_squares_closed_form(self):
        # scalar loss mean((x@w - y)^2): dL/dw = 2/n * x^T (x@w - y)
        spec = NetworkSpec(3, (), head_dim=1)
        net = Network(spec, seed=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=(32, 1))
        pred = net.forward(x, train=True)
        head_grad = 2.0 * (pred - y) / len(x)
        dw = net.backward(head_grad)[0]
        w, b = net.layers[0][:2]
        want = 2.0 / len(x) * x.T @ (x @ w + b - y)
        np.testing.assert_allclose(dw, want, rtol=1e-12)

    def test_full_pipeline_finite_differences(self):
        spec = NetworkSpec(3, (8, 6), head_dim=4, late_features=1, batch_norm=True)
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
        net = Network(NetworkSpec(2, (4,), head_dim=2), seed=0)
        with pytest.raises(RuntimeError, match="train-mode forward"):
            net.backward(np.zeros((3, 2)))
        net.forward(np.zeros((3, 2)), train=False)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((3, 2)))


class TestBatchNormRunningStats:
    def test_converges_to_population_statistics(self):
        net, bn = _batch_norm_probe(np.eye(1))
        rng = np.random.default_rng(8)
        for _ in range(1000):
            net.forward(rng.normal(3.0, 2.0, size=(256, 1)), train=True)
        assert bn[2][0] == pytest.approx(3.0, abs=1e-2 * 3.0)
        assert bn[3][0] == pytest.approx(4.0, abs=1e-2 * 4.0 * 2)


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
        # the identity input makes the first layer's batch-norm input its
        # weights x, and its weight gradient the batch norm's dx
        rng = np.random.default_rng(12)
        x = rng.normal(2.0, 3.0, size=(512, 64))
        net, bn = _batch_norm_probe(x, gamma=rng.normal(1.0, 0.5, size=64))
        dout = rng.normal(size=(512, 64))
        net.forward(np.eye(512), train=True)
        dx = net.backward(dout)[0]
        gamma, dgamma, dbeta = bn[0], bn[4], bn[5]
        want = self._three_term_dx(dout, x, gamma, EPS)
        # relative to the largest entry: entries near zero carry the rounding
        # of the larger terms that cancel in them
        np.testing.assert_allclose(dx, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        centered = x - x.mean(axis=0)
        x_hat = centered / np.sqrt(np.mean(centered * centered, axis=0) + EPS)
        np.testing.assert_allclose(dgamma, np.sum(dout * x_hat, axis=0), rtol=1e-12)
        np.testing.assert_allclose(dbeta, np.sum(dout, axis=0), rtol=1e-12)


class TestLayerLoop:
    @staticmethod
    def _reference(layers, x, head_grad, x_eval, late):
        """The train forward, the gradients in parameters() order, the
        running statistics and the eval forward of a two-hidden-layer
        network whose last `late` (0 or 1) input columns are late, layer by
        layer on copies of its arrays (w, b[, gamma, beta, running_mean,
        running_var]), in the network's order of arithmetic: a train-mode
        batch norm adds no b, sums columns by einsum, keeps z centred and
        puts gamma * inv_std onto the weight products; a ReLU's mask is
        where its output is > 0."""
        bn, base = len(layers[0]) > 2, x.shape[1] - late
        h, inputs, norms = x[:, :base], [], []
        for i, (w, b, *stats) in enumerate(layers[:2]):
            if i == 1 and late:
                h = np.concatenate([h, x[:, base:]], axis=1)
            inputs.append(h)
            z = h @ w
            if bn:
                gamma, beta, running_mean, running_var = stats
                n = len(z)
                mean = np.einsum("ij->j", z) / n
                xc = z - mean
                var = np.einsum("ij,ij->j", xc, xc) / n
                inv_std = 1.0 / np.sqrt(var + EPS)
                running_mean[...] = (1.0 - MOMENTUM) * running_mean + MOMENTUM * (mean + b)
                running_var[...] = ((1.0 - MOMENTUM) * running_var
                                    + MOMENTUM * (var * n / max(n - 1, 1)))
                norms.append((inv_std, xc))
                z = xc * (gamma * inv_std) + beta
            else:
                z = z + b
            h = np.maximum(z, 0.0)
        inputs.append(h)
        head_w, head_b = layers[2]
        out = h @ head_w + head_b
        grads = [h.T @ head_grad, np.sum(head_grad, axis=0)]
        d = head_grad @ head_w.T
        for i in (1, 0):
            w = layers[i][0]
            width = w.shape[1]
            d = d * (inputs[i + 1][:, :width] > 0)
            if bn:
                gamma, (inv_std, xc), n = layers[i][2], norms[i], len(d)
                dgamma = np.einsum("ij,ij->j", d, xc) * inv_std
                dbeta = np.einsum("ij->j", d)
                d = d - xc * (inv_std * dgamma / n) - dbeta / n
                scale = gamma * inv_std
                grads[:0] = [(inputs[i].T @ d) * scale, np.zeros(width), dgamma, dbeta]
                w = w * scale
            else:
                grads[:0] = [inputs[i].T @ d, np.sum(d, axis=0)]
            if i == 1:
                d = (d @ w.T)[:, :w.shape[0] - late]  # the late column's gradient stops here
        h = x_eval[:, :base]
        for i, (w, b, *stats) in enumerate(layers[:2]):
            if i == 1 and late:
                h = np.concatenate([h, x_eval[:, base:]], axis=1)
            if bn:  # batch norm folded into the layer
                gamma, beta, running_mean, running_var = stats
                scale = gamma / np.sqrt(running_var + EPS)
                w, b = w * scale, (b - running_mean) * scale + beta
            h = np.maximum(h @ w + b, 0.0)
        running = [layers[i][k] for i in (0, 1) for k in (4, 5)] if bn else []
        return out, grads, running, h @ head_w + head_b

    @staticmethod
    def _textbook(layers, x, head_grad, late):
        """The train forward, the gradients and the running statistics of
        the batch-norm network of _reference, by the textbook formulas:
        b added and then cancelled by the batch mean, x_hat formed, and
        the gradient through batch norm as (gamma * inv_std / n) *
        (n d - dbeta - x_hat dgamma), whose db is 0 up to rounding."""
        base = x.shape[1] - late
        h, saved = x[:, :base], []
        for i, (w, b, gamma, beta, running_mean, running_var) in enumerate(layers[:2]):
            if i == 1 and late:
                h = np.concatenate([h, x[:, base:]], axis=1)
            z = h @ w + b
            n = z.shape[0]
            mean = z.mean(axis=0)
            centered = z - mean
            var = np.mean(centered * centered, axis=0)
            inv_std = 1.0 / np.sqrt(var + EPS)
            x_hat = centered * inv_std
            running_mean[...] = (1.0 - MOMENTUM) * running_mean + MOMENTUM * mean
            running_var[...] = ((1.0 - MOMENTUM) * running_var
                                + MOMENTUM * (var * n / max(n - 1, 1)))
            a = gamma * x_hat + beta
            mask = a > 0
            saved.append((h, inv_std, x_hat, mask))
            h = a * mask
        head_w, head_b = layers[2]
        out = h @ head_w + head_b
        grads = [h.T @ head_grad, np.sum(head_grad, axis=0)]
        d = head_grad @ head_w.T
        for i in (1, 0):
            w, _, gamma = layers[i][:3]
            h, inv_std, x_hat, mask = saved[i]
            d = d * mask
            dgamma, dbeta = np.sum(d * x_hat, axis=0), np.sum(d, axis=0)
            n = d.shape[0]
            d = (gamma * inv_std / n) * (n * d - dbeta - x_hat * dgamma)
            grads[:0] = [h.T @ d, np.sum(d, axis=0), dgamma, dbeta]
            if i == 1:
                d = (d @ w.T)[:, :w.shape[0] - late]
        return out, grads, [layers[i][k] for i in (0, 1) for k in (4, 5)]

    @staticmethod
    def _network(late, batch_norm, rng):
        """A two-hidden-layer network whose b, gamma, beta and running
        statistics are drawn away from 0, 1, 0, 0, 1."""
        net = Network(NetworkSpec(3, (16, 12), head_dim=4, late_features=late,
                                  batch_norm=batch_norm), seed=7)
        for _, b, _, _, bn in net.layers[:2]:
            for view in (b, *(bn[:4] if bn else ())):
                view[...] = rng.uniform(0.5, 2.0, view.shape)
        return net

    @staticmethod
    def _copies(net):
        """Per layer, copies of w, b and, with batch norm, gamma, beta,
        running_mean and running_var."""
        return [[a.copy() for a in (w, b, *(bn[:4] if bn else ()))]
                for w, b, _, _, bn in net.layers]

    def test_matches_a_per_layer_reference(self):
        # with and without batch norm and a late column, over consecutive
        # steps at two full batches, an epoch's short tail and an odd size:
        # bitwise, so the batch sums' order must match einsum and sum()
        for batch_norm in (True, False):
            for late in (0, 1):
                rng = np.random.default_rng(7)
                net = self._network(late, batch_norm, rng)
                for n in (512, 512, 256, 7):
                    layers = self._copies(net)
                    x, head_grad, x_eval = (rng.normal(size=(n, 3)), rng.normal(size=(n, 4)),
                                            rng.normal(size=(9, 3)))
                    out, grads, running, eval_out = self._reference(layers, x, head_grad,
                                                                    x_eval, late)
                    np.testing.assert_array_equal(net.forward(x, train=True), out)
                    for got, want in zip(net.backward(head_grad), grads, strict=True):
                        np.testing.assert_array_equal(got, want)
                    for got, want in zip([v for *_, bn in net.layers[:2] if bn for v in bn[2:4]],
                                         running, strict=True):
                        np.testing.assert_array_equal(got, want)
                    np.testing.assert_array_equal(net.forward(x_eval), eval_out)
                    net.params -= 1e-2 * net.grad

    @pytest.mark.parametrize("late", [0, 1], ids=["no_late_column", "late_column"])
    def test_matches_the_textbook_formula(self, late):
        # the maths, apart from the order of arithmetic, within 1e-12 of the
        # largest entry of each layer's outputs or gradients: entries near 0
        # carry the rounding of larger terms that cancel in them, and the
        # textbook's db is rounding noise where the network writes 0
        def close(got, want, scale):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

        rng = np.random.default_rng(8)
        net = self._network(late, True, rng)
        for n in (512, 256, 7):
            layers = self._copies(net)
            x, head_grad = rng.normal(size=(n, 3)), rng.normal(size=(n, 4))
            out, grads, running = self._textbook(layers, x, head_grad, late)
            close(net.forward(x, train=True), out, np.abs(out).max())
            for k, (got, want) in enumerate(zip(net.backward(head_grad), grads, strict=True)):
                layer = grads[k - k % 4:k - k % 4 + 4] if k < 8 else [want]
                close(got, want, max(np.abs(g).max() for g in layer))
            for got, want in zip([v for *_, bn in net.layers[:2] for v in bn[2:4]],
                                 running, strict=True):
                close(got, want, np.abs(want).max())
            net.params -= 1e-2 * net.grad

    @pytest.mark.parametrize("late", [0, 1], ids=["no_late_column", "late_column"])
    def test_step_leaves_its_inputs_and_cache_intact(self, late):
        # the step works in place only on arrays it made: x, head_grad and
        # the cache survive, so a second backward() repeats the gradients
        net = Network(NetworkSpec(3, (16, 12), head_dim=4, late_features=late), seed=3)
        rng = np.random.default_rng(3)
        x, head_grad = rng.normal(size=(64, 3)), rng.normal(size=(64, 4))
        x_bits, head_grad_bits = x.tobytes(), head_grad.tobytes()
        net.forward(x, train=True)
        assert x.tobytes() == x_bits
        net.backward(head_grad)
        first = net.grad.copy()
        assert head_grad.tobytes() == head_grad_bits
        net.grad[...] = np.nan
        net.backward(head_grad)
        assert net.grad.tobytes() == first.tobytes()

    def test_train_step_allocates_at_most_one_mib(self):
        # the README network at batch 512, after a warm-up step that fills
        # the activation cache: a forward plus backward peaked 1604 KiB
        # above its start with fresh temporaries per elementwise step, and
        # 868 KiB (the forward's peak) once they work in place
        net = Network(NetworkSpec(1, (64, 64, 64, 64), head_dim=4), seed=0)
        rng = np.random.default_rng(0)
        x, head_grad = rng.normal(size=(512, 1)), rng.normal(size=(512, 4))
        tracemalloc.start()
        try:
            net.forward(x, train=True)
            net.backward(head_grad)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            net.forward(x, train=True)
            net.backward(head_grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2 ** 20


class TestPreNormBias:
    """A batch-norm layer's b: the batch mean cancels it in train mode, so
    it is not added there and its gradient is exactly 0."""

    def test_backward_writes_zero_over_a_nan_filled_grad(self):
        net = Network(NetworkSpec(3, (16, 12), head_dim=4, late_features=1), seed=2)
        rng = np.random.default_rng(2)
        net.forward(rng.normal(size=(64, 3)), train=True)
        net.grad[...] = np.nan
        net.backward(rng.normal(size=(64, 4)))
        for _, _, _, db, bn in net.layers[:2]:
            assert bn is not None and np.all(db == 0.0)
        assert np.all(np.isfinite(net.grad))
        assert np.all(net.layers[2][3] != 0.0)  # the head's b has a gradient

    def test_training_leaves_it_at_zero(self):
        x, y, tr, va = _toy_data(500)
        net = Network(NetworkSpec(1, (8, 8), head_dim=2), seed=3)
        train(net, x, y, tr, va, AdamConfig(lr=1e-2), TrainConfig(epochs=2, batch_size=64),
              seed=5)
        for _, b, _, _, bn in net.layers[:2]:
            assert bn is not None and np.all(b == 0.0)
            assert np.all(bn[2] != 0.0)  # running_mean has moved

    def test_non_zero_bias_survives_save_and_load(self, tmp_path):
        # files from earlier versions can carry a non-zero b next to a
        # running_mean that includes it; the eval fold reads both
        net = Network(NetworkSpec(3, (6, 5), head_dim=4, late_features=1), seed=4)
        rng = np.random.default_rng(4)
        for _, b, _, _, bn in net.layers[:2]:
            b[...] = rng.normal(0.0, 2.0, b.shape)
            bn[0][...], bn[1][...] = rng.uniform(0.5, 2.0, b.shape), rng.normal(size=b.shape)
            bn[2][...], bn[3][...] = b + rng.normal(size=b.shape), rng.uniform(0.5, 3.0, b.shape)
        columns = ("lat", "lon", "year")
        path = tmp_path / "model.tghn"
        save_model(path, _bundle_of(net, "tukey", columns, ("year",)))
        loaded = load_model(path)
        assert loaded.network.state.tobytes() == net.state.tobytes()
        x = rng.normal(size=(50, 3))
        h = x[:, :2]
        for i, (w, b, _, _, bn) in enumerate(net.layers):
            if i == 1:
                h = np.concatenate([h, x[:, 2:]], axis=1)
            if bn is None:
                h = h @ w + b
            else:
                gamma, beta, running_mean, running_var = bn[:4]
                s = gamma / np.sqrt(running_var + EPS)
                h = np.maximum(h @ (w * s) + ((b - running_mean) * s + beta), 0.0)
        np.testing.assert_array_equal(loaded.network.forward(x), h)
        got, want = loaded.predict_params(x), link(h, loaded.header.link)[0]
        for name in ("mu", "sigma", "g", "h"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
        net = Network(NetworkSpec(1, (64, 64, 64, 64), head_dim=4), seed=0)
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
        net = Network(NetworkSpec(1, (8,), head_dim=2), seed=0)
        before = [p.copy() for p in net.parameters()]
        hist = train(net, x, y, tr, va, AdamConfig(), TrainConfig(epochs=0))
        assert len(hist) == 0
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_fixed_seed_is_bitwise_deterministic(self):
        x, y, tr, va = _toy_data(500)
        results = []
        for _ in range(2):
            net = Network(NetworkSpec(1, (8, 8), head_dim=2), seed=3)
            hist = train(
                net, x, y, tr, va,
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
        net = Network(NetworkSpec(1, (16, 16), head_dim=2), seed=0)
        hist = train(
            net, x, y, tr, va,
            AdamConfig(lr=5e-3, lr_drop_epochs=(30,)),
            TrainConfig(epochs=40, batch_size=256), seed=4,
        )
        target = math.log(sigma) + 0.5
        assert min(hist.val_loss) == pytest.approx(target, abs=0.05)

    def test_best_validation_parameters_are_retained(self):
        x, y, tr, va = _toy_data(500)
        net = Network(NetworkSpec(1, (8,), head_dim=2), seed=1)
        hist = train(
            net, x, y, tr, va,
            AdamConfig(lr=1e-2), TrainConfig(epochs=5, batch_size=64), seed=2,
        )
        restored = evaluate_mean_loss(net, x[va], y[va])
        assert restored == pytest.approx(min(hist.val_loss), rel=1e-12)
        assert hist.best_epoch == int(np.argmin(hist.val_loss))

    def test_non_finite_loss_aborts_with_context(self):
        x = np.zeros((8, 1))
        y = np.full(8, 1e300)  # squared residual overflows
        net = Network(NetworkSpec(1, (4,), head_dim=2, batch_norm=False), seed=0)
        with pytest.raises(NumericalError, match="epoch 0"):
            train(net, x, y, np.arange(6), np.arange(6, 8),
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
        net = Network(NetworkSpec(1, (4,), head_dim=head_dim), seed=0)
        train(net, x, y, np.arange(100), np.arange(100, len(y)),
              AdamConfig(), TrainConfig(epochs=2, batch_size=32))
        assert rows.pop(f"{kind}_head_loss") == [32, 32, 32, 4, EVAL_CHUNK, 5] * 2
        assert rows.popitem()[1] == []

    def test_head_width_no_loss_reads(self):
        # the head width picks the loss, so a 3-wide head fails in the link
        # on the first batch, before Adam moves a parameter (no batch norm,
        # so the state is the parameters alone)
        x, y, tr, va = _toy_data(100)
        net = Network(NetworkSpec(1, (4,), head_dim=3, batch_norm=False), seed=0)
        before = net.state.copy()
        with pytest.raises(ValueError, match="raw head must have 2 or 4 components"):
            train(net, x, y, tr, va, AdamConfig(), TrainConfig(epochs=1))
        assert net.state.tobytes() == before.tobytes()


class TestGradientClipping:
    @staticmethod
    def _gradients(monkeypatch, clip_norm):
        """Per batch of one epoch: the gradient backward() left in net.grad
        and the gradient Adam.step received."""
        x, y, tr, va = _toy_data(300)
        net = Network(NetworkSpec(1, (8, 8), head_dim=2), seed=0)
        raw, stepped = [], []
        backward = Network.backward

        def spy_backward(self, head_grad):
            out = backward(self, head_grad)
            raw.append(self.grad.copy())
            return out

        monkeypatch.setattr(Network, "backward", spy_backward)
        monkeypatch.setattr(Adam, "step", lambda self, p, grad, epoch: stepped.append(grad.copy()))
        train(net, x, y, tr, va, AdamConfig(),
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
    for *_, bn in net.layers:
        if bn is not None:
            arrays += bn[2:4]
    return b"".join(a.astype("<f8").tobytes() for a in arrays)


class TestStateLayout:
    def test_parameter_and_gradient_views_share_the_vectors(self):
        net = Network(NetworkSpec(3, (6, 5), head_dim=4, late_features=1), seed=0)
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
    network = NetworkConfig(net.spec.hidden, net.spec.batch_norm)
    return ModelBundle(ModelHeader(loss, network, LinkConfig(), InverseSolverConfig(),
                                   data, split_rule), net)


def _format_1_network(n_features, hidden, head_dim, late=0, batch_norm=True):
    """The header's network object as format 1 wrote it: one entry per layer,
    the late columns widening the input of the last hidden layer."""
    outs = [*hidden, head_dim]
    ins = [n_features - late, *hidden]
    ins[len(hidden) - 1] += late
    return {"head_dim": head_dim, "late_features": late, "layers": [
        {"activation": "relu" if i < len(hidden) else "identity",
         "batch_norm": batch_norm and i < len(hidden), "in_dim": n_in, "out_dim": n_out}
        for i, (n_in, n_out) in enumerate(zip(ins, outs))]}


def _write_format_1(path, header: dict, blob: bytes):
    """A model file of format 1 with the given header object and blob."""
    encoded = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"TGHN" + (1).to_bytes(4, "little") + len(encoded).to_bytes(4, "little")
                     + encoded + blob)


def _assert_same_bundle(got, want):
    assert got.header == want.header
    assert got.network.state.tobytes() == want.network.state.tobytes()


class TestPersistence:
    def _bundle(self, seed=0):
        net = Network(NetworkSpec(3, (6, 5), head_dim=4, late_features=1), seed=seed)
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
        # the header format-1 save_model wrote for this bundle still loads
        bundle = self._bundle()
        path = tmp_path / "model.tghn"
        _write_format_1(path, json.loads(FORMAT_1_HEADER), bundle.network.state.tobytes())
        assert path.read_bytes()[12:12 + len(FORMAT_1_HEADER)].decode() == FORMAT_1_HEADER
        _assert_same_bundle(load_model(path), bundle)

    def test_header_bytes_are_format_2(self, tmp_path):
        path = tmp_path / "model.tghn"
        save_model(path, self._bundle())
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        assert raw[12:12 + hlen].decode() == (
            '{"data": {"feature_columns": ["lat", "lon", "year"], "late_columns": ["year"], '
            '"standardization": {"columns": ["lat", "lon", "year"], '
            '"mean": [1.0, 2.0, 2000.0], "scale": [3.0, 4.0, 10.0]}, "target_column": "y"}, '
            '"format": 2, "link": {"g_max": 2.0, "h_max": 0.5, "sigma_floor": 0.0001}, '
            '"loss": "tukey", "network": {"batch_norm": true, "hidden": [6, 5]}, '
            '"solver": {"abs_tolerance": 1e-12, "initial_half_width": 8.0, '
            '"max_bisection_iters": 200, "max_bracket_doublings": 60}, '
            '"split_rule": {"fraction": 0.8, "rule": "fraction", "seed": 0}}'
        )
        assert raw[:12] == b"TGHN" + (2).to_bytes(4, "little") + hlen.to_bytes(4, "little")

    @given(loss=st.sampled_from(["tukey", "gaussian"]), n=st.integers(1, 4), data=st.data(),
           hidden=st.lists(st.integers(1, 16), min_size=1, max_size=3),
           batch_norm=st.booleans(), standardized=st.booleans())
    @settings(max_examples=40)
    def test_network_section_round_trips(self, loss, n, data, hidden, batch_norm, standardized):
        late = data.draw(st.integers(0, n - 1), label="late")
        columns = tuple(f"c{i}" for i in range(n))
        scale = np.arange(1.0, n + 1.0)
        header = ModelHeader(loss, NetworkConfig(tuple(hidden), batch_norm), LinkConfig(),
                             InverseSolverConfig(),
                             DataColumns(columns, columns[n - late:], "y",
                                         Standardization(columns, -scale, scale)
                                         if standardized else None))
        bundle = ModelBundle(header, Network(header.spec, seed=n))
        x = np.random.default_rng(n).normal(size=(32, n))
        bundle.network.forward(x, train=True)  # non-trivial running statistics
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.tghn"
            save_model(path, bundle)
            loaded = load_model(path)
            _assert_same_bundle(loaded, bundle)
            want, got = bundle.predict_params(x), loaded.predict_params(x)
            for name in ("mu", "sigma", "g", "h"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            old = dict(asdict(header), format=1, network=_format_1_network(
                n, hidden, 4 if loss == "tukey" else 2, late, batch_norm))
            _write_format_1(path, old, bundle.network.state.tobytes())
            _assert_same_bundle(load_model(path), bundle)

    def test_sidecar_json_written(self, tmp_path):
        path = tmp_path / "model.tghn"
        save_model(path, self._bundle())
        sidecar = json.loads((tmp_path / "model.tghn.json").read_text())
        assert sidecar["network"] == {"batch_norm": True, "hidden": [6, 5]}

    def test_saves_are_bitwise_identical(self, tmp_path):
        save_model(tmp_path / "a.tghn", self._bundle())
        save_model(tmp_path / "b.tghn", self._bundle())
        assert (tmp_path / "a.tghn").read_bytes() == (tmp_path / "b.tghn").read_bytes()

    def test_non_finite_header_number_writes_no_file(self, tmp_path):
        # json would write Infinity, which load_model rejects
        bundle = self._bundle()
        header = dataclasses.replace(bundle.header, link=LinkConfig(g_max=math.inf))
        path = tmp_path / "model.tghn"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(path, dataclasses.replace(bundle, header=header))
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tghn"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_predict_params_gaussian_head_fills_zero_shape(self, tmp_path):
        net = Network(NetworkSpec(1, (4,), head_dim=2, batch_norm=False), seed=0)
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
        net = Network(NetworkSpec(1, (8,), head_dim=4), seed=1)
        raw = net.forward(x, train=False)
        whole, _, _ = tukey_head_loss(y, raw)
        assert evaluate_mean_loss(net, x, y) == pytest.approx(whole, rel=1e-12)

    def test_evaluate_mean_loss_names_the_row_of_a_later_block(self):
        # a non-finite head in the second block names its row of x, not of its block
        x, y, _, _ = _toy_data(2 * EVAL_CHUNK)
        x[EVAL_CHUNK + 3] = 1e308
        net = Network(NetworkSpec(1, (8,), head_dim=4), seed=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match=f"non-finite network output at input row {EVAL_CHUNK + 3}$"):
            evaluate_mean_loss(net, x, y)

    def test_predict_params_memory_is_its_output(self):
        net = Network(NetworkSpec(1, (64, 64, 64, 64), head_dim=4), seed=0)
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
