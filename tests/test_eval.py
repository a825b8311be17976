"""Residual diagnostics, prediction intervals, and density curves."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from tghnet import evaluate, tgh
from tghnet.cli import main
from tghnet.data import load_csv
from tghnet.errors import SolverError
from tghnet.evaluate import (
    binned_residual_summary,
    coverage_table,
    density_curve,
    interval_coverage,
    ks_critical_value,
    ks_uniform,
    residuals,
    shortest_interval,
    symmetric_interval,
)
from tghnet.loss import LinkConfig
from tghnet.nn import load_model
from tghnet.tgh import ShapeParams, TghParams, sample, standard_normal_cdf, tau

Z_975 = 1.9599639845400542


class TestResiduals:
    def test_targets_at_location(self):
        params = TghParams(np.full(5, 2.0), np.ones(5), np.full(5, 0.5), np.full(5, 0.1))
        report = residuals(np.full(5, 2.0), params)
        np.testing.assert_allclose(report.z_hat, 0.0, atol=1e-10)
        np.testing.assert_allclose(report.u, 0.5, atol=1e-10)

    def test_gaussian_case_is_standardized_residual(self):
        y = np.array([1.0, 3.0, -2.0])
        params = TghParams(np.zeros(3), np.full(3, 2.0), np.zeros(3), np.zeros(3))
        report = residuals(y, params)
        np.testing.assert_allclose(report.z_hat, y / 2.0, atol=1e-10)

    def test_self_sampled_data_passes_ks(self):
        params = TghParams(0.5, 1.5, 0.6, 0.2)
        y = sample(params, 20000, seed=2)
        pv = TghParams(*(np.full(20000, v) for v in (0.5, 1.5, 0.6, 0.2)))
        report = residuals(y, pv)
        assert report.ks_statistic < ks_critical_value(20000, 0.01)
        assert abs(np.mean(report.z_hat)) <= 3 / math.sqrt(20000)
        assert abs(np.var(report.z_hat) - 1) <= 5 / math.sqrt(20000)

    def test_qq_pairs_sorted_and_positioned(self):
        y = np.array([0.3, -1.0, 2.0, 0.1])
        params = TghParams(np.zeros(4), np.ones(4), np.zeros(4), np.zeros(4))
        report = residuals(y, params)
        np.testing.assert_allclose(report.qq_empirical, np.sort(y), atol=1e-10)
        want = [stats.norm.ppf(k / 5.0) for k in range(1, 5)]
        np.testing.assert_allclose(report.qq_theoretical, want, atol=1e-12)

    def test_qq_within_ks_band_for_self_generated_data(self):
        n = 20000
        params = TghParams(0.0, 1.0, -0.4, 0.15)
        y = sample(params, n, seed=3)
        pv = TghParams(*(np.full(n, v) for v in (0.0, 1.0, -0.4, 0.15)))
        report = residuals(y, pv)
        # simultaneous band on the uniform scale at the 1% level
        band = ks_critical_value(n, 0.01)
        positions = np.arange(1, n + 1) / (n + 1.0)
        u_sorted = np.asarray(standard_normal_cdf(report.qq_empirical))
        assert np.max(np.abs(u_sorted - positions)) < band + 1.0 / n

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            residuals(np.zeros(3), TghParams(np.zeros(2), np.ones(2), np.zeros(2), np.zeros(2)))

    def test_mean_nll_includes_constant(self):
        y = np.zeros(1)
        params = TghParams(np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1))
        report = residuals(y, params)
        assert report.mean_nll == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-10)

    def test_exactly_one_solve(self, monkeypatch):
        # every row is solved once: one solve per block of rows
        n = 2 * evaluate._BLOCK + 37
        params = TghParams(*(np.full(n, v) for v in (0.5, 1.5, 0.6, 0.2)))
        y = sample(params, n, seed=4)
        want = float(np.mean(-np.asarray(tgh.log_density(y, params))))
        solved, inner = [], tgh.tau_inverse
        monkeypatch.setattr(tgh, "tau_inverse", lambda zt, *a: solved.append(len(zt))
                            or inner(zt, *a))
        report = residuals(y, params)
        assert solved == [evaluate._BLOCK, evaluate._BLOCK, 37]
        assert report.mean_nll == want


def _link_box_rows(n, seed):
    """Targets and per-row parameters over the link's (g, h) box."""
    rng = np.random.default_rng(seed)
    params = TghParams(rng.normal(size=n), rng.uniform(0.3, 2.0, n),
                       rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 0.5, n))
    return sample(params, n, seed=seed), params


class TestScoringBlocks:
    N = 2 * evaluate._BLOCK + 37
    BAD = evaluate._BLOCK + 5  # a row of the second block

    def test_residuals_equal_one_block(self, monkeypatch):
        y, params = _link_box_rows(self.N, 30)
        blocked = residuals(y, params)
        monkeypatch.setattr(evaluate, "_BLOCK", self.N)
        whole = residuals(y, params)
        for name in ("z_hat", "u", "qq_theoretical", "qq_empirical"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))
        assert blocked.mean_nll == whole.mean_nll
        assert blocked.ks_statistic == whole.ks_statistic

    def test_shortest_interval_equals_one_block(self, monkeypatch):
        _, params = _link_box_rows(self.N, 31)
        blocked = shortest_interval(params, 0.05)
        monkeypatch.setattr(evaluate, "_BLOCK", self.N)
        for got, want in zip(blocked, shortest_interval(params, 0.05), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("g, h, z_tilde, why", [
        (-0.5, 0.0, 10.0, "outside tau's one-sided support"),
        (0.0, 1e-300, 1e300, "no bracket"),
    ], ids=["outside_support", "no_bracket"])
    def test_residual_error_names_the_whole_array_row(self, monkeypatch, g, h, z_tilde, why):
        # the failing block's error carries its row, and tgh.by_blocks shifts it
        # by the block's start: no block after it, and no whole-array solve
        y, params = _link_box_rows(self.N, 32)
        fields = [np.array(f) for f in (params.mu, params.sigma, params.g, params.h)]
        fields[2][self.BAD], fields[3][self.BAD] = g, h
        y[self.BAD] = fields[0][self.BAD] + fields[1][self.BAD] * z_tilde
        params = TghParams(*fields)
        solved, inner = [], tgh.tau_inverse
        monkeypatch.setattr(tgh, "tau_inverse", lambda zt, *a: solved.append(len(zt))
                            or inner(zt, *a))
        with pytest.raises(SolverError, match=why) as blocked:
            residuals(y, params)
        assert solved == [evaluate._BLOCK, evaluate._BLOCK]
        assert blocked.value.row == (self.BAD,)
        monkeypatch.setattr(evaluate, "_BLOCK", self.N)
        with pytest.raises(SolverError) as whole:
            residuals(y, params)
        assert f"at sample index {self.BAD}:" in str(blocked.value)
        assert str(blocked.value) == str(whole.value)

    def test_the_first_failing_block_names_its_row(self, monkeypatch):
        # Row 100 (first block) has no bracket, row BAD (second block) lies
        # outside tau's support.  By blocks the first block's error is
        # raised; one piece raises the check that runs first over every
        # row, the support check, at row BAD.
        y, params = _link_box_rows(self.N, 34)
        fields = [np.array(f) for f in (params.mu, params.sigma, params.g, params.h)]
        for row, g, h, z_tilde in ((100, 0.0, 1e-300, 1e300), (self.BAD, -0.5, 0.0, 10.0)):
            fields[2][row], fields[3][row] = g, h
            y[row] = fields[0][row] + fields[1][row] * z_tilde
        params = TghParams(*fields)
        with pytest.raises(SolverError, match="no bracket .* at sample index 100:") as blocked:
            residuals(y, params)
        assert blocked.value.row == (100,)
        monkeypatch.setattr(evaluate, "_BLOCK", self.N)
        with pytest.raises(SolverError, match=f"at sample index {self.BAD}: .*support"):
            residuals(y, params)

    def test_shortest_interval_row_the_search_cannot_settle(self, monkeypatch):
        # at h = 1e308 the density overflows at every gamma, so the gap is NaN
        # and the search cannot narrow its bracket: the row raises, named by
        # its whole-array index, in its block as in one piece.  (At h = 1e300
        # the search settles at gamma = alpha/2, and the interval is
        # (-inf, inf) because the quantile overflows.)
        _, params = _link_box_rows(self.N, 33)
        h = np.array(params.h)
        h[self.BAD] = 1e308
        params = TghParams(params.mu, params.sigma, params.g, h)
        match = rf"did not stop in 100 steps at sample index {self.BAD}: .*h=1e\+308$"
        with np.errstate(over="ignore"), pytest.raises(SolverError, match=match) as blocked:
            shortest_interval(params, 0.05)
        monkeypatch.setattr(evaluate, "_BLOCK", self.N)
        with np.errstate(over="ignore"), pytest.raises(SolverError) as whole:
            shortest_interval(params, 0.05)
        assert str(blocked.value) == str(whole.value)

    def test_shortest_interval_at_huge_h_warns_nothing(self):
        # the search's two end passes run under its errstate, as its steps
        # do: at h = 1e307 the row settles at gamma = alpha/2 with the
        # quantile's (-inf, inf) and every other row keeps its interval; at
        # h = 1e308 the row raises, named by its whole-array index
        _, params = _link_box_rows(self.N, 33)
        want = shortest_interval(params, 0.05)

        def with_h(huge):
            h = np.array(params.h)
            h[self.BAD] = huge
            return TghParams(params.mu, params.sigma, params.g, h)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = shortest_interval(with_h(1e307), 0.05)
            with pytest.raises(SolverError, match=rf"index {self.BAD}: .*h=1e\+308$"):
                shortest_interval(with_h(1e308), 0.05)
        assert (got.lower[self.BAD], got.upper[self.BAD]) == (-np.inf, np.inf)
        assert got.gamma[self.BAD] == pytest.approx(0.025, rel=1e-12)
        for got_v, want_v in zip(got, want, strict=True):
            np.testing.assert_array_equal(np.delete(got_v, self.BAD), np.delete(want_v, self.BAD))

    def test_shortest_interval_memory_is_its_output(self):
        # over 200k rows the one-piece search's full-width temporaries
        # peaked 55 MiB above its 4.6 MiB output; by blocks, 1.3 MiB above
        _, params = _link_box_rows(200_000, 34)
        tracemalloc.start()
        try:
            iv = shortest_interval(params, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(v.nbytes for v in iv)
        assert peak < returned + 2 * 2 ** 20

    def test_residuals_memory_is_its_output(self):
        # over 200k rows the one-piece QQ and KS passes (positions, indices,
        # differences) peaked 9.7 MiB above the four returned arrays; by
        # blocks of ranks, 0.4 MiB above
        y, params = _link_box_rows(200_000, 35)
        tracemalloc.start()
        try:
            report = residuals(y, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(getattr(report, name).nbytes
                       for name in ("z_hat", "u", "qq_theoretical", "qq_empirical"))
        assert peak < returned + 2 * 2 ** 20


class TestKs:
    @pytest.mark.parametrize("n", [1, evaluate._BLOCK, 2 * evaluate._BLOCK + 37])
    def test_blocked_equals_one_piece(self, n):
        u = np.random.default_rng(n).random(n)
        s, i = np.sort(u), np.arange(1, n + 1)
        want = float(max(np.max(i / n - s), np.max(s - (i - 1) / n)))
        assert np.float64(ks_uniform(u)).tobytes() == np.float64(want).tobytes()

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        u = rng.random(500)
        mine = ks_uniform(u)
        ref = stats.kstest(u, "uniform").statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_critical_value_formula(self):
        assert ks_critical_value(10000, 0.01) == pytest.approx(1.6276 / 100.0, abs=1e-4)


class TestSymmetricInterval:
    def test_normal_endpoints(self):
        iv = symmetric_interval(TghParams(0.0, 1.0, 0.0, 0.0), 0.05)
        assert iv.lower == pytest.approx(-Z_975, abs=1e-9)
        assert iv.upper == pytest.approx(Z_975, abs=1e-9)
        assert iv.gamma == 0.0

    def test_location_equivariance(self):
        base = symmetric_interval(TghParams(0.0, 1.0, 0.7, 0.2), 0.1)
        moved = symmetric_interval(TghParams(3.0, 1.0, 0.7, 0.2), 0.1)
        assert moved.lower == pytest.approx(base.lower + 3.0)
        assert moved.upper == pytest.approx(base.upper + 3.0)

    def test_coverage_on_self_sampled_data(self):
        params = TghParams(1.0, 2.0, 0.5, 0.1)
        iv = symmetric_interval(params, 0.05)
        y = sample(params, 10**6, seed=5)
        cov = interval_coverage(y, iv.lower, iv.upper)
        assert cov == pytest.approx(0.95, abs=3 * math.sqrt(0.05 * 0.95 / 10**6))

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            symmetric_interval(TghParams(0.0, 1.0, 0.0, 0.0), 1.5)

    def test_coverage_table_on_self_sampled_data(self):
        params = TghParams(0.0, 1.0, 0.4, 0.15)
        n = 100000
        y = sample(params, n, seed=12)
        pv = TghParams(*(np.full(n, v) for v in (0.0, 1.0, 0.4, 0.15)))
        table = coverage_table(residuals(y, pv).u)
        assert set(table) == {"0.5", "0.8", "0.9", "0.95", "0.99"}
        for key, got in table.items():
            want = float(key)
            se = math.sqrt(want * (1 - want) / n)
            assert got == pytest.approx(want, abs=4 * se), key


    def test_coverage_table_equals_symmetric_interval_coverage(self):
        # the quantile function is monotone, so u alone decides coverage
        rng = np.random.default_rng(13)
        n = 50000
        params = TghParams(rng.normal(size=n), rng.uniform(0.2, 2.0, n),
                           rng.uniform(-0.8, 0.8, n), rng.uniform(0.0, 0.4, n))
        y = sample(params, n, seed=14)
        table = coverage_table(residuals(y, params).u)
        for alpha in (0.5, 0.2, 0.1, 0.05, 0.01):
            iv = symmetric_interval(params, alpha)
            assert table[f"{1 - alpha:g}"] == interval_coverage(y, iv.lower, iv.upper)


class TestShortestInterval:
    def test_symmetric_distribution_recovers_central_split(self):
        iv = shortest_interval(TghParams(0.0, 1.0, 0.0, 0.3), 0.05)
        assert iv.gamma == pytest.approx(0.025, abs=1e-5)
        sym = symmetric_interval(TghParams(0.0, 1.0, 0.0, 0.3), 0.05)
        assert iv.lower == pytest.approx(sym.lower, abs=1e-6)
        assert iv.upper == pytest.approx(sym.upper, abs=1e-6)

    def test_skewed_case_is_strictly_shorter(self):
        params = TghParams(0.0, 1.0, 0.8, 0.2)
        sym = symmetric_interval(params, 0.05)
        sho = shortest_interval(params, 0.05)
        assert (sho.upper - sho.lower) < (sym.upper - sym.lower)

    def test_never_longer_than_symmetric_over_grid(self):
        rng = np.random.default_rng(6)
        mu = rng.normal(size=40)
        sigma = rng.uniform(0.3, 2.0, size=40)
        g = rng.uniform(-1.0, 1.0, size=40)
        h = rng.uniform(0.0, 0.5, size=40)
        params = TghParams(mu, sigma, g, h)
        sym = symmetric_interval(params, 0.05)
        sho = shortest_interval(params, 0.05)
        assert np.all(
            (sho.upper - sho.lower) <= (sym.upper - sym.lower) + 1e-12
        )

    def test_alpha_half_central_interval(self):
        from tghnet.tgh import quantile

        iv = shortest_interval(TghParams(0.0, 1.0, 0.0, 0.0), 0.5)
        assert iv.lower == pytest.approx(quantile(0.25, TghParams(0.0, 1.0, 0.0, 0.0)), abs=1e-5)
        assert iv.upper == pytest.approx(quantile(0.75, TghParams(0.0, 1.0, 0.0, 0.0)), abs=1e-5)

    @pytest.mark.parametrize("interval", [symmetric_interval, shortest_interval],
                             ids=["symmetric", "shortest"])
    def test_any_parameter_shape(self, interval):
        # (2, 3) parameters give, bitwise, the 1-D results of the same six rows
        rng = np.random.default_rng(20)
        fields = (rng.normal(size=(2, 3)), rng.uniform(0.3, 2.0, 3),
                  rng.uniform(-1.0, 1.0, (2, 3)), rng.uniform(0.0, 0.5, (2, 1)))
        grid = interval(TghParams(*fields), 0.05)
        rows = interval(TghParams(*(np.broadcast_to(f, (2, 3)).ravel() for f in fields)), 0.05)
        for got, want in zip(grid, rows):
            assert got.shape == (2, 3) and got.ravel().tobytes() == want.tobytes()

    def test_exact_coverage_at_any_gamma(self):
        # mass between the interval's z-levels is (1 - gamma) - (alpha - gamma)
        alpha = 0.07
        for gamma in (0.001, alpha / 2, alpha - 0.001):
            mass = standard_normal_cdf(
                stats.norm.ppf(1 - gamma)
            ) - standard_normal_cdf(-stats.norm.ppf(1 - alpha + gamma))
            assert mass == pytest.approx(1 - alpha, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2, 0.5])
    def test_never_longer_than_brute_force_gamma_grid(self, alpha):
        # oracle: the shortest of 20001 gammas on [eps, alpha - eps], ends
        # included; the edge rows have their optimum at an end of that range
        rng = np.random.default_rng(11)
        edge_g = [-1.9, 1.97, 2.0, -2.0, 2.0, -2.0]
        edge_h = [3e-4, 5e-4, 0.0, 0.0, 0.5, 0.5]
        g = np.concatenate([rng.uniform(-2.0, 2.0, 60), edge_g])
        h = np.concatenate([rng.uniform(0.0, 0.5, 60), edge_h])
        shape = ShapeParams(g, h)
        eps = alpha * 1e-4
        best = np.full(len(g), np.inf)
        for gammas in np.array_split(np.linspace(eps, alpha - eps, 20001), 20):
            z_lo = -stats.norm.ppf(1.0 - alpha + gammas[:, None])
            z_hi = stats.norm.ppf(1.0 - gammas[:, None])
            best = np.minimum(best, np.min(tau(z_hi, shape) - tau(z_lo, shape), axis=0))
        iv = shortest_interval(TghParams(np.zeros_like(g), np.ones_like(g), g, h), alpha)
        assert np.all(iv.upper - iv.lower <= best * (1.0 + 1e-9))

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5, 0.9])
    def test_gamma_search_passes_and_equal_end_densities(self, alpha, count_calls):
        # the rows of the brute-force test above; a bisection to a 1e-9 gamma
        # bracket took 24 to 30 density passes and left gaps up to 1.9e-5
        rng = np.random.default_rng(11)
        g = np.concatenate([rng.uniform(-2.0, 2.0, 60), [-1.9, 1.97, 2.0, -2.0, 2.0, -2.0]])
        h = np.concatenate([rng.uniform(0.0, 0.5, 60), [3e-4, 5e-4, 0.0, 0.0, 0.5, 0.5]])
        params = TghParams(np.zeros_like(g), np.ones_like(g), g, h)
        passes = count_calls(tgh, "log_density_from_z")
        iv = shortest_interval(params, alpha)
        assert len(passes) <= 16

        def gap(z_lo, z_hi):
            return tgh.log_density_from_z(z_hi, params) - tgh.log_density_from_z(z_lo, params)

        # interior rows: the gap changes sign inside the searched gamma range
        eps = alpha * 1e-4
        z_eps, z_far = stats.norm.ppf(1.0 - eps), stats.norm.ppf(1.0 - alpha + eps)
        interior = (gap(-z_far, z_eps) < 0) & (gap(-z_eps, z_far) > 0)
        assert interior.sum() >= 60
        shape = ShapeParams(g, h)
        ends = gap(tgh.tau_inverse(iv.lower, shape), tgh.tau_inverse(iv.upper, shape))
        assert np.max(np.abs(ends[interior])) <= 1e-9

    @settings(max_examples=200)
    @given(
        g=st.floats(-LinkConfig().g_max, LinkConfig().g_max),
        h=st.floats(0.0, LinkConfig().h_max),
        alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]),
    )
    def test_unimodal_density_and_exact_coverage(self, g, h, alpha):
        # the bisection needs one sign change of d(log f)/dz, i.e. a unimodal
        # density, over the whole (g, h) box the link can produce
        params = TghParams(0.0, 1.0, g, h)
        slope_sign = np.sign(np.diff(tgh.log_density_from_z(np.linspace(-12, 12, 2401), params)))
        slope_sign = slope_sign[slope_sign != 0]
        assert np.count_nonzero(slope_sign[1:] != slope_sign[:-1]) == 1
        # mass between the returned endpoints, solved back to z-space
        iv = shortest_interval(params, alpha)
        z_lo = tgh.tau_inverse(iv.lower, ShapeParams(g, h))
        z_hi = tgh.tau_inverse(iv.upper, ShapeParams(g, h))
        mass = standard_normal_cdf(z_hi) - standard_normal_cdf(z_lo)
        assert mass == pytest.approx(1.0 - alpha, abs=1e-12)

    def test_monte_carlo_coverage_independent_of_skew(self):
        params = TghParams(0.0, 1.0, 1.0, 0.2)
        iv = shortest_interval(params, 0.1)
        y = sample(params, 10**6, seed=7)
        cov = interval_coverage(y, iv.lower, iv.upper)
        assert cov == pytest.approx(0.9, abs=3 * math.sqrt(0.1 * 0.9 / 10**6))


class TestDensityCurve:
    def test_integrates_to_one_on_wide_grid(self):
        params = TghParams(0.0, 1.0, 0.3, 0.1)
        grid = np.linspace(-30.0, 60.0, 200001)
        total = np.trapezoid(density_curve(params, grid), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_case_matches_normal_pdf(self):
        params = TghParams(0.7, 1.3, 0.0, 0.0)
        grid = np.linspace(-5, 6, 501)
        np.testing.assert_allclose(
            density_curve(params, grid),
            stats.norm.pdf(grid, loc=0.7, scale=1.3),
            atol=1e-12,
        )

    def test_mode_location_against_z_space_oracle(self):
        # mode of the density via y-grid argmax vs an independent z-space
        # maximization of phi(z)/(sigma*tau'(z)) mapped through tau
        params = TghParams(0.0, 1.0, 0.8, 0.1)
        grid = np.linspace(-4.0, 10.0, 200001)
        y_mode = grid[np.argmax(density_curve(params, grid))]

        def neg_log_density_z(z):
            # log tau'(z) + z^2/2 + log(2 pi)/2
            return -tgh.log_density_from_z(z, params)

        res = optimize.minimize_scalar(neg_log_density_z, bounds=(-4, 4), method="bounded")
        z_mode = res.x
        want = float(tau(z_mode, ShapeParams(0.8, 0.1)))
        assert y_mode == pytest.approx(want, abs=1e-3)
        assert y_mode < 0.0  # right-skew pushes the mode left of the median

    def test_blocks_equal_one_block_with_memory_of_its_output(self, monkeypatch):
        # 5 points x 200 000 grid values: by blocks along the grid, the same
        # bits as one block, and within 4 MiB of the 8 MB result (one block
        # peaks 166 MiB above it)
        rng = np.random.default_rng(40)
        params = TghParams(rng.normal(size=(5, 1)), rng.uniform(0.5, 2.0, (5, 1)),
                           rng.uniform(-1.0, 1.0, (5, 1)), rng.uniform(0.0, 0.5, (5, 1)))
        grid = np.linspace(-8.0, 8.0, 200_000)
        tracemalloc.start()
        try:
            blocked = density_curve(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocked.shape == (5, 200_000)
        assert peak < blocked.nbytes + 4 * 2 ** 20
        monkeypatch.setattr(evaluate, "_BLOCK", blocked.size)
        np.testing.assert_array_equal(blocked, density_curve(params, grid))

    def test_error_in_a_later_grid_block_names_point_and_grid_index(self, monkeypatch):
        # point 3 has h = 0 and g = -0.5, so its support ends at y = 2
        params = TghParams(0.0, 1.0, np.array([[0.1], [0.2], [0.3], [-0.5], [0.4]]),
                           np.array([[0.1], [0.1], [0.1], [0.0], [0.1]]))
        grid = np.linspace(-10.0, 10.0, 200_000)
        j = int(np.argmax(grid >= 2.0))
        assert j > evaluate._BLOCK
        with pytest.raises(SolverError, match=rf"at sample index \(3, {j}\): .*support") as blocked:
            density_curve(params, grid)
        assert blocked.value.row == (3, j)
        monkeypatch.setattr(evaluate, "_BLOCK", 5 * len(grid))
        with pytest.raises(SolverError) as whole:
            density_curve(params, grid)
        assert str(blocked.value) == str(whole.value)

    def test_two_failing_points_name_the_lower_grid_index(self, monkeypatch):
        # With h = 0, point 1 (g = -0.5) has no density from y = 2 up and
        # point 3 (g = 0.5) none up to y = -2.  The blocks run along the
        # grid, so point 3 at grid index 0 is named; one piece names the
        # first failing entry in row-major order, point 1's.
        params = TghParams(0.0, 1.0, np.array([[0.1], [-0.5], [0.3], [0.5], [0.4]]),
                           np.array([[0.1], [0.0], [0.1], [0.0], [0.1]]))
        grid = np.linspace(-10.0, 10.0, 200_000)
        j = int(np.argmax(grid >= 2.0))
        with pytest.raises(SolverError, match=r"at sample index \(3, 0\): ") as blocked:
            density_curve(params, grid)
        assert blocked.value.row == (3, 0)
        monkeypatch.setattr(evaluate, "_BLOCK", 5 * len(grid))
        with pytest.raises(SolverError, match=rf"at sample index \(1, {j}\): "):
            density_curve(params, grid)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="sorted"):
            density_curve(TghParams(0.0, 1.0, 0.0, 0.0), np.array([1.0, 0.0]))


class TestBinnedResiduals:
    def test_uniform_residuals_center_on_half(self):
        rng = np.random.default_rng(8)
        feature = rng.random(5000)
        u = rng.random(5000)
        edges, means, counts = binned_residual_summary(feature, u, n_bins=5)
        assert len(edges) == 6
        assert counts.sum() == 5000
        np.testing.assert_allclose(means, 0.5, atol=0.05)


class TestReportWriters:
    def test_written_report_roundtrips(self, tmp_path):
        # the files evaluate writes hold the residuals of the model's own
        # predicted parameters, bit for bit
        sim, cfg, model, out = (tmp_path / n for n in ("sim.csv", "cfg.json", "m.tghn", "e"))
        assert main(["simulate", "--design", "gandh", "--n", "500", "--out", str(sim)]) == 0
        cfg.write_text(json.dumps({
            "loss": "tukey", "data": {"target": "y", "features": ["x"]},
            "network": {"hidden": [8]}, "training": {"epochs": 1, "batch_size": 64},
            "split": {"rule": "fraction", "fraction": 0.6, "seed": 0}}))
        assert main(["train", "--config", str(cfg), "--data", str(sim),
                     "--out", str(model)]) == 0
        assert main(["evaluate", "--model", str(model), "--data", str(sim), "--split", "val",
                     "--out", str(out)]) == 0
        bundle = load_model(model)
        ds = load_csv(sim, "y", ["x"])
        val = bundle.header.split_rule.apply(ds)["val"]
        y = ds.y[val]
        report = residuals(y, bundle.predict_params(ds.x[val]))

        written = load_csv(out / "report.csv", "y", ["mu", "sigma", "g", "h", "z_hat", "u"])
        np.testing.assert_array_equal(written.y, y)
        np.testing.assert_array_equal(written.column("z_hat"), report.z_hat)
        qq = load_csv(out / "qq.csv", "empirical", ["theoretical"])
        np.testing.assert_array_equal(qq.y, report.qq_empirical)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == len(y) == 200
        assert summary["split"] == "val"
        assert summary["ks_statistic"] == report.ks_statistic
