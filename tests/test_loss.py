"""Likelihood loss: link layer, value/gradient correctness, Gaussian
reduction, batch semantics, and the one-solve-per-evaluation contract."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tghnet import tgh
from tghnet.errors import NumericalError, SolverError
from tghnet.loss import (
    LinkConfig,
    gaussian_head_loss,
    gaussian_nll_and_grad,
    link,
    nll_and_grad,
    tukey_head_loss,
)
from tghnet.tgh import InverseSolverConfig, TghParams

TIGHT = InverseSolverConfig(abs_tolerance=1e-15)

SOFTPLUS_0 = math.log(2.0)


class TestLink:
    def test_saturation_limits(self):
        params, _ = link(np.array([0.0, -40.0, 0.0, -40.0]))
        assert params.mu == 0.0
        assert params.sigma == pytest.approx(1e-4, rel=1e-6)
        assert params.g == 0.0
        assert params.h == pytest.approx(0.0, abs=1e-12)

    def test_values_at_zero_raw(self):
        params, _ = link(np.array([1.5, 0.0, 0.0, 0.0]))
        assert params.mu == 1.5
        assert params.sigma == pytest.approx(SOFTPLUS_0 + 1e-4)
        assert params.g == 0.0
        assert params.h == pytest.approx(0.25)  # h_max / 2

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=4)
        _, derivs = link(raw)
        for j in range(4):
            up, dn = raw.copy(), raw.copy()
            up[j] += 1e-6
            dn[j] -= 1e-6
            pu, _ = link(up)
            pd, _ = link(dn)
            fields = ("mu", "sigma", "g", "h")
            fd = (getattr(pu, fields[j]) - getattr(pd, fields[j])) / 2e-6
            np.testing.assert_allclose(derivs[j], fd, rtol=1e-6, atol=1e-12)

    def test_logistic_matches_scipy_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        x = np.linspace(-50.0, 50.0, 100_001)
        _, derivs = link(np.stack([np.zeros_like(x), x], axis=-1))
        np.testing.assert_allclose(derivs[:, 1], expit(x), rtol=0, atol=4.5e-16)
        # the h behind test_h_just_above_underflow_keeps_its_value, bit for bit
        assert link(np.array([0.0, 0.0, 0.0, -40.0]))[0].h == 0.5 * expit(-40.0)

    def test_batch_shapes(self):
        raws = np.zeros((7, 4))
        params, derivs = link(raws)
        assert np.shape(params.mu) == (7,)
        assert derivs.shape == (7, 4)

    def test_custom_bounds(self):
        cfg = LinkConfig(sigma_floor=0.01, g_max=1.0, h_max=0.2)
        params, _ = link(np.array([0.0, 0.0, 40.0, 40.0]), cfg)
        assert params.g == pytest.approx(1.0)
        assert params.h == pytest.approx(0.2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            link(np.zeros(3))
        with pytest.raises(NumericalError, match="non-finite network output at input row 0$"):
            link(np.array([0.0, np.nan, 0.0, 0.0]))
        # the error carries its row as data, for a caller to rewrite
        raw = np.zeros((5, 2))
        raw[3, 1] = np.inf
        with pytest.raises(NumericalError, match="at input row 3$") as bad:
            link(raw)
        assert bad.value.row == (3,)
        bad.value.row = (17,)
        assert str(bad.value) == "non-finite network output at input row 17"
        with pytest.raises(ValueError):
            LinkConfig(sigma_floor=0.0)

    def test_gaussian_link(self):
        # a 2-wide head is the Gaussian model: g = h = 0, and mu, sigma and
        # their derivatives are those of the first two outputs of a 4-wide head
        params, derivs = link(np.array([2.0, 0.0]))
        assert params.mu == 2.0
        assert params.sigma == pytest.approx(SOFTPLUS_0 + 1e-4)
        assert params.g == 0.0 and params.h == 0.0
        np.testing.assert_array_equal(derivs, [1.0, 0.5])
        raw = np.random.default_rng(6).normal(size=(7, 4))
        two, d2 = link(raw[:, :2])
        four, d4 = link(raw)
        np.testing.assert_array_equal(two.mu, four.mu)
        np.testing.assert_array_equal(two.sigma, four.sigma)
        np.testing.assert_array_equal(d2, d4[:, :2])
        assert np.all(two.g == 0.0) and np.all(two.h == 0.0)


class TestNllAndGrad:
    def test_standard_normal_point(self):
        value, grad = nll_and_grad(0.0, TghParams(0.0, 1.0, 0.0, 0.0))
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, [0.0, 1.0, 0.0, 0.0], atol=1e-9)

    def test_value_at_location(self):
        for sigma in (0.3, 1.0, 2.5):
            value, _ = nll_and_grad(0.7, TghParams(0.7, sigma, 0.4, 0.3))
            assert value == pytest.approx(math.log(sigma), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            mu = rng.normal(0, 2)
            sigma = abs(rng.normal(1, 0.5)) + 0.1
            g = rng.uniform(-1.5, 1.5)
            h = rng.uniform(0, 0.5)
            y = mu + sigma * rng.normal(0, 2)
            _, grad = nll_and_grad(y, TghParams(mu, sigma, g, h), TIGHT)
            fd = np.zeros(4)
            for j, val in enumerate((mu, sigma, g, h)):
                step = 1e-5 * max(1.0, abs(val))
                args = [mu, sigma, g, h]
                args[j] = val + step
                up, _ = nll_and_grad(y, TghParams(*args), TIGHT)
                args[j] = val - step
                dn, _ = nll_and_grad(y, TghParams(*args), TIGHT)
                fd[j] = (up - dn) / (2 * step)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    @given(
        mu=st.floats(-2.0, 2.0),
        sigma=st.floats(LinkConfig().sigma_floor, 5.0),
        g=st.just(0.0) | st.floats(tgh.SMALL_G, 1e-3) | st.floats(-1e-3, -tgh.SMALL_G)
        | st.floats(-LinkConfig().g_max, LinkConfig().g_max).filter(
            lambda g: g == 0.0 or abs(g) >= tgh.SMALL_G),
        h=st.floats(0.0, LinkConfig().h_max) | st.floats(0.0, 3e-5),
        z=st.floats(-3.0, 3.0),
    )
    def test_gradient_matches_central_differences_on_the_link_box(self, mu, sigma, g, h, z):
        """Every (mu, sigma, g, h) the link can emit, |g| and h near 0 included.

        Five-point central differences, except below h = 2e-5, where a
        one-sided second-order stencil keeps h >= 0.  Neither g nor a
        stencil point lies in 0 < |g| < SMALL_G, where the value drops O(g)
        terms that the gradient keeps: below |g| = 5e-4 the g step is 1e-3.
        """
        y = mu + sigma * tgh.tau(z, tgh.ShapeParams(g, h))
        point = [mu, sigma, g, h]
        steps = [1e-5 * sigma, 1e-5 * sigma, 1e-3 if abs(g) < 5e-4 else 1e-5, 1e-5]

        def value(j, k):
            args = list(point)
            args[j] += k * steps[j]
            return nll_and_grad(y, TghParams(*args), TIGHT)[0]

        def fd(j):
            if j == 3 and h < 2 * steps[3]:
                return (4 * value(3, 1) - 3 * value(3, 0) - value(3, 2)) / (2 * steps[3])
            return (8 * (value(j, 1) - value(j, -1)) - value(j, 2) + value(j, -2)) / (12 * steps[j])

        _, got = nll_and_grad(y, TghParams(*point), TIGHT)
        # d/dmu and d/dsigma scale as 1/sigma: compare them per unit of sigma
        unit = np.array([sigma, sigma, 1.0, 1.0])
        np.testing.assert_allclose(got * unit, [fd(j) * u for j, u in enumerate(unit)],
                                   rtol=1e-5, atol=1e-7)

    def test_gaussian_consistency_grid(self):
        rng = np.random.default_rng(9)
        y = rng.normal(0, 2, size=500)
        mu = rng.normal(0, 1, size=500)
        sigma = rng.uniform(0.2, 3.0, size=500)
        zeros = np.zeros(500)
        tk_value, tk_grad = nll_and_grad(y, TghParams(mu, sigma, zeros, zeros))
        ga_value, ga_grad = gaussian_nll_and_grad(y, mu, sigma)
        np.testing.assert_allclose(tk_value, ga_value, atol=1e-9, rtol=0)
        np.testing.assert_allclose(tk_grad[:, :2], ga_grad, atol=1e-9, rtol=0)

    def test_shift_scale_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            mu = rng.normal()
            sigma = rng.uniform(0.3, 2.0)
            g = rng.uniform(-1, 1)
            h = rng.uniform(0, 0.4)
            y = mu + sigma * rng.normal(0, 1.5)
            c = rng.normal(0, 3)
            s = rng.uniform(0.2, 5.0)
            lhs, _ = nll_and_grad(y, TghParams(mu, sigma, g, h))
            rhs = nll_and_grad(
                (y - c) / s, TghParams((mu - c) / s, sigma / s, g, h)
            )[0] + math.log(s)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_value_is_negative_log_density_less_the_constant(self):
        rng = np.random.default_rng(17)
        n = 20000
        g = np.concatenate([rng.uniform(-2, 2, n - 1000), rng.uniform(-2e-5, 2e-5, 1000)])
        h = rng.choice([0.0, 1e-300, 0.1, 0.5], n) * rng.uniform(0, 1, n)
        params = TghParams(rng.normal(0, 2, n), rng.uniform(0.1, 5, n), g, h)
        y = params.mu + params.sigma * tgh.tau(rng.normal(0, 3, n), tgh.ShapeParams(g, h))
        value, _ = nll_and_grad(y, params)
        want = -tgh.log_density(y, params) - 0.5 * math.log(2 * math.pi)
        assert np.all(np.abs(value - want) <= 1e-14 * np.maximum(1.0, np.abs(value)))

    def test_exactly_one_solve_per_evaluation(self, count_calls):
        solves = count_calls(tgh, "tau_inverse")
        nll_and_grad(0.4, TghParams(0.1, 1.0, 0.3, 0.2))
        assert len(solves) == 1
        tukey_head_loss(np.array([0.1, 0.2, 0.3]), np.zeros((3, 4)))
        assert len(solves) == 2


@pytest.mark.parametrize("loss, args, width", [
    (lambda y, a, b: nll_and_grad(y, TghParams(a, 1.0, b, 0.1)), (0.0, [0.1, 0.2, -0.3]), 4),
    (gaussian_nll_and_grad, (0.0, [1.0, 2.0, 0.5]), 2),
], ids=["tukey", "gaussian"])
def test_scalar_target_with_array_parameters(loss, args, width):
    """A scalar result only when every input is scalar, as everywhere in tgh."""
    value, grad = loss(0.5, args[0], np.array(args[1]))
    assert value.shape == (3,)
    assert grad.shape == (3, width)
    for i, b in enumerate(args[1]):
        row_value, row_grad = loss(0.5, args[0], b)
        np.testing.assert_allclose(value[i], row_value, rtol=1e-14)
        np.testing.assert_allclose(grad[i], row_grad, rtol=1e-14)


class TestGaussianLoss:
    def test_at_location(self):
        value, grad = gaussian_nll_and_grad(0.5, 0.5, 2.0)
        assert value == pytest.approx(math.log(2.0))
        assert grad[0] == 0.0

    def test_unit_case(self):
        assert gaussian_nll_and_grad(1.0, 0.0, 1.0)[0] == pytest.approx(0.5)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_nll_and_grad(0.0, 0.0, 0.0)

    def test_gradient_matches_finite_differences(self):
        y, mu, sigma = 1.3, 0.4, 0.8
        _, grad = gaussian_nll_and_grad(y, mu, sigma)
        fd_mu = (
            gaussian_nll_and_grad(y, mu + 1e-7, sigma)[0]
            - gaussian_nll_and_grad(y, mu - 1e-7, sigma)[0]
        ) / 2e-7
        fd_sigma = (
            gaussian_nll_and_grad(y, mu, sigma + 1e-7)[0]
            - gaussian_nll_and_grad(y, mu, sigma - 1e-7)[0]
        ) / 2e-7
        np.testing.assert_allclose(grad, [fd_mu, fd_sigma], rtol=1e-6)


class TestBatchNll:
    """The batch mean NLL, as tukey_head_loss computes it from a raw head."""

    RAW = np.array([[0.2, 0.5, 0.3, -1.0]])

    def test_single_sample_equals_pointwise(self):
        mean, head_grad, p = tukey_head_loss(np.array([0.9]), self.RAW)
        value, grad = nll_and_grad(0.9, TghParams(p.mu[0], p.sigma[0], p.g[0], p.h[0]))
        assert mean == pytest.approx(value, rel=1e-14)
        np.testing.assert_allclose(head_grad[0], grad * link(self.RAW[0])[1], rtol=1e-14)

    def test_duplicated_sample_keeps_mean(self):
        one, grad1, _ = tukey_head_loss(np.array([0.9]), self.RAW)
        three, grad3, _ = tukey_head_loss(np.repeat(0.9, 3), np.repeat(self.RAW, 3, axis=0))
        assert three == pytest.approx(one, rel=1e-14)
        np.testing.assert_allclose(3.0 * grad3, np.repeat(grad1, 3, axis=0), rtol=1e-14)

    def test_mean_of_three_hand_built_samples(self):
        ys = np.array([0.1, -0.4, 2.0])
        raw = np.array([[0.0, 0.5, 0.0, -3.0], [0.5, -0.4, 0.3, 0.2], [1.0, 1.9, -0.4, -1.0]])
        mean, _, p = tukey_head_loss(ys, raw)
        singles = [
            nll_and_grad(ys[i], TghParams(p.mu[i], p.sigma[i], p.g[i], p.h[i]))[0]
            for i in range(3)
        ]
        assert mean == pytest.approx(np.mean(singles), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            tukey_head_loss(np.zeros(3), np.zeros((2, 4)))


class TestHeadLosses:
    def test_tukey_head_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(6, 4))
        y = rng.normal(size=6)
        mean, head_grad, _ = tukey_head_loss(y, raw, solver_cfg=TIGHT)
        for i in range(6):
            for j in range(4):
                up, dn = raw.copy(), raw.copy()
                up[i, j] += 1e-5
                dn[i, j] -= 1e-5
                mu_up, _, _ = tukey_head_loss(y, up, solver_cfg=TIGHT)
                mu_dn, _, _ = tukey_head_loss(y, dn, solver_cfg=TIGHT)
                fd = (mu_up - mu_dn) / 2e-5
                np.testing.assert_allclose(head_grad[i, j], fd, rtol=1e-4, atol=1e-8)

    def test_h_underflow_outside_support_names_the_row(self):
        # h = h_max * expit(-800) is exactly 0; with g < 0 the support of tau
        # is bounded above by 1/|g| ~ 0.5, and z_tilde ~ 14.4 lies beyond it
        raw = np.array([[0.0, 0.0, -5.0, 0.0], [0.0, 0.0, -5.0, -800.0]])
        with pytest.raises(SolverError, match=r"at sample index 1: .*h=0\.0; the target lies "
                           r"outside tau's one-sided support 1 \+ g\*z_tilde > 0 at h = 0$"):
            tukey_head_loss(np.array([10.0, 10.0]), raw)
        # inside the one-sided support the loss stays finite
        mean, head_grad, params = tukey_head_loss(np.array([-1.0]), raw[1:])
        assert params.h[0] == 0.0 and np.isfinite(mean) and np.all(np.isfinite(head_grad))

    def test_target_on_the_h_zero_bound_raises(self):
        # 1 + g*z_tilde == 0 exactly: tau only tends to the bound 1/|g| (it
        # rounds onto it far out), so the target lies outside the support
        raw = np.array([[0.0, 0.0, -0.0625, -800.0]])
        params, _ = link(raw)
        y = -params.sigma / params.g
        assert params.h[0] == 0.0 and 1.0 + params.g[0] * ((y[0] - params.mu[0])
                                                          / params.sigma[0]) == 0.0
        with pytest.raises(SolverError, match=r"at sample index 0: .*h=0\.0; the target lies "
                           r"outside tau's one-sided support 1 \+ g\*z_tilde > 0 at h = 0$"):
            tukey_head_loss(y, raw)

    def test_h_just_above_underflow_keeps_its_value(self):
        # h = 2.1e-18 > 0: the solve brackets, and the loss is today's
        mean, _, params = tukey_head_loss(np.array([10.0]), np.array([[0.0, 0.0, -5.0, -40.0]]))
        assert params.h[0] > 0.0
        assert mean == 1.5827353055551951e+18

    def test_gaussian_head_has_the_tukey_signature(self):
        # the Gaussian head is the g = h = 0 case of the g-and-h loss
        rng = np.random.default_rng(23)
        raw, y = rng.normal(size=(6, 2)), rng.normal(size=6)
        mean, head_grad, params = gaussian_head_loss(y, raw, LinkConfig(), TIGHT)
        assert np.all(params.g == 0.0) and np.all(params.h == 0.0)
        tk_value, tk_grad = nll_and_grad(y, params, TIGHT)
        assert mean == pytest.approx(np.mean(tk_value), rel=1e-12)
        want = tk_grad[:, :2] * link(raw)[1] / len(y)
        np.testing.assert_allclose(head_grad, want, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("y", [np.zeros((2, 1)), np.array([0.5])],
                             ids=["two_dimensional_y", "one_target_for_two_rows"])
    def test_gaussian_head_checks_targets_as_the_tukey_head(self, y):
        # one body checks y for both heads: no silent broadcast over the rows
        with pytest.raises(ValueError) as tukey:
            tukey_head_loss(y, np.zeros((2, 4)))
        with pytest.raises(ValueError, match=re.escape(str(tukey.value))):
            gaussian_head_loss(y, np.zeros((2, 2)))

    def test_gaussian_head_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        raw = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        mean, head_grad, _ = gaussian_head_loss(y, raw)
        for i in range(5):
            for j in range(2):
                up, dn = raw.copy(), raw.copy()
                up[i, j] += 1e-6
                dn[i, j] -= 1e-6
                fd = (gaussian_head_loss(y, up)[0] - gaussian_head_loss(y, dn)[0]) / 2e-6
                np.testing.assert_allclose(head_grad[i, j], fd, rtol=1e-5, atol=1e-9)
