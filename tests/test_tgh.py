"""Core transform: forward map, derivatives, inverse, density, sampling.

High-precision expected values were computed with 50-digit arithmetic from
the defining formulas and are frozen here as literals; finite-difference
oracles run live against a tightened solver tolerance so that solver
noise stays far below the comparison tolerances.  The derivatives of tau
are read back from the public density and NLL (_tau_prime and
_tau_derivatives below), the only places the package computes them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tghnet import tgh
from tghnet.errors import SolverError
from tghnet.loss import LinkConfig
from tghnet.tgh import (
    InverseSolverConfig,
    ShapeParams,
    TghParams,
    gaussian_nll_and_grad,
    log_density,
    log_density_from_z,
    nll_and_grad,
    quantile,
    standard_normal_cdf,
    standard_normal_quantile,
    tau,
    tau_inverse,
)

TIGHT = InverseSolverConfig(abs_tolerance=1e-15)

# the end of the SolverError for a target outside tau's range at h = 0
ONE_SIDED = r"; the target lies outside tau's one-sided support 1 \+ g\*z_tilde > 0 at h = 0$"
# tau(z) = z to the last bit, but unlike g = h = 0 (no iteration) solved by Newton steps
NEAR_IDENTITY = ShapeParams(0.0, 1e-300)

# frozen 50-digit oracle values
TAU_1_05_01 = 1.3639638429827424      # ((e^0.5-1)/0.5) * e^0.05
TAU_2_0_02 = 2.9836493952825406       # 2 * e^0.4
TAU_PRIME_1_05_01 = 1.8696494021656695
DTAU_DG_1_05_01 = 0.7385783497693057
DTAU_DH_1_05_01 = 0.6819819214913712  # 0.5 * tau(1; 0.5, 0.1)
Z_975 = 1.9599639845400542
HALF_LOG_2PI = 0.9189385332046727


def _tau_prime(z, g, h):
    """tau'(z) from the density: log tau' = -log_density_from_z(z, (0, 1, g, h))
    - z^2/2 - log(2 pi)/2."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-np.asarray(log_density_from_z(z, TghParams(0.0, 1.0, g, h)))
                      - 0.5 * z * z - HALF_LOG_2PI)


def _tau_derivatives(z, g, h):
    """tau'(z), dtau/dg and dtau/dh, read back from nll_and_grad.

    At y = tau(z), mu = 0 and sigma = 1 the NLL's z_hat is z.  With a the
    NLL's slope in z at fixed (g, h), the implicit dz/dp = -(dtau/dp)/tau'
    gives d/dmu = -a/tau', and with B = tau' exp(-h z^2/2) the gradient
    pieces d(log B)/dg = (z exp(g z) + h z dtau/dg exp(-h z^2/2))/B and
    d(log B)/dh = z tau/tau':
        d/dg = z exp(g z + h z^2/2)/tau' + (h z/tau' + d/dmu) dtau/dg,
        d/dh = z tau/tau' + z^2/2 + d/dmu dtau/dh.
    """
    params = TghParams(0.0, 1.0, g, h)
    t = np.asarray(tau(z, ShapeParams(g, h)))
    zh = np.asarray(tgh.z_hat(t, params, TIGHT))
    slope = _tau_prime(zh, g, h)
    grad = np.asarray(nll_and_grad(t, params, TIGHT)[1])
    d_mu, d_g, d_h = grad[..., 0], grad[..., 2], grad[..., 3]
    dg = (d_g - zh * np.exp(g * zh + 0.5 * h * zh * zh) / slope) / (d_mu + h * zh / slope)
    dh = (d_h - zh * t / slope - 0.5 * zh * zh) / d_mu
    return slope, dg, dh


class TestTau:
    def test_zero_maps_to_zero(self):
        assert tau(0.0, ShapeParams(0.7, 0.3)) == 0.0

    def test_identity_when_both_zero(self):
        assert tau(1.0, ShapeParams(0.0, 0.0)) == 1.0

    def test_oracle_values(self):
        assert tau(1.0, ShapeParams(0.5, 0.1)) == pytest.approx(TAU_1_05_01, rel=1e-14)
        assert tau(2.0, ShapeParams(0.0, 0.2)) == pytest.approx(TAU_2_0_02, rel=1e-14)

    def test_strictly_increasing(self):
        z = np.linspace(-8.0, 8.0, 601)
        for g in (-1.0, -0.3, 0.0, 0.4, 1.0):
            for h in (0.0, 0.2, 0.5):
                values = tau(z, ShapeParams(g, h))
                assert np.all(np.diff(values) > 0), (g, h)

    def test_small_g_branch_consistency(self):
        z = np.linspace(-6.0, 6.0, 241)
        for h in (0.0, 0.2, 0.5):
            base = np.asarray(tau(z, ShapeParams(0.0, h)))
            for g in (1e-6, -1e-6):
                np.testing.assert_allclose(
                    tau(z, ShapeParams(g, h)), base, atol=1e-9, rtol=0
                )

    def test_overflow_saturates_with_sign(self):
        big = tau(200.0, ShapeParams(1.0, 0.5))
        assert big == math.inf
        assert tau(-200.0, ShapeParams(-1.0, 0.5)) == -math.inf
        arr = tau(np.array([-200.0, 0.0, 200.0]), ShapeParams(1.0, 0.5))
        assert not np.any(np.isnan(arr))

    def test_rejects_non_finite_z(self):
        with pytest.raises(ValueError):
            tau(math.nan, ShapeParams(0.0, 0.0))

    def test_vectorized_matches_scalar(self):
        z = np.array([-2.0, -0.5, 0.0, 1.3, 4.0])
        p = ShapeParams(0.3, 0.2)
        vec = tau(z, p)
        np.testing.assert_array_equal(vec, [tau(v, p) for v in z])


class TestShapeValidation:
    def test_negative_h_rejected(self):
        with pytest.raises(ValueError, match="h"):
            ShapeParams(0.0, -0.1)

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            TghParams(0.0, 0.0, 0.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TghParams(math.inf, 1.0, 0.0, 0.0)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            InverseSolverConfig(abs_tolerance=0.0)
        with pytest.raises(ValueError):
            InverseSolverConfig(max_bisection_iters=0)


class TestTauPrime:
    def test_unit_slope_at_zero(self):
        for g in (-1.0, 0.0, 0.7):
            for h in (0.0, 0.3):
                assert _tau_prime(0.0, g, h) == pytest.approx(1.0)

    def test_identity_case(self):
        assert _tau_prime(1.0, 0.0, 0.0) == 1.0

    def test_oracle_value(self):
        assert _tau_prime(1.0, 0.5, 0.1) == pytest.approx(TAU_PRIME_1_05_01, rel=1e-14)

    def test_positive_everywhere(self):
        z = np.linspace(-10, 10, 201)
        for g in (-1.5, 0.0, 1.5):
            for h in (0.0, 0.5):
                assert np.all(_tau_prime(z, g, h) > 0)

    def test_matches_finite_difference_of_tau(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-4, 4)
            g = rng.uniform(-1.2, 1.2)
            h = rng.uniform(0, 0.5)
            p = ShapeParams(g, h)
            fd = (tau(z + 1e-6, p) - tau(z - 1e-6, p)) / 2e-6
            np.testing.assert_allclose(_tau_prime(z, g, h), fd, rtol=1e-5)


class TestTauParamDerivatives:
    """dtau/dg and dtau/dh as nll_and_grad's gradient carries them."""

    def test_dg_vanishes_at_zero(self):
        assert nll_and_grad(0.0, TghParams(0.0, 1.0, 0.5, 0.1))[1][2] == 0.0
        assert _tau_derivatives(0.0, 0.5, 0.1)[1] == 0.0

    def test_dg_small_g_limit(self):
        # series limit z^2/2 at g -> 0
        assert _tau_derivatives(1.0, 1e-7, 0.0)[1] == pytest.approx(0.5, rel=1e-6)
        fd = (tau(1.0, ShapeParams(2e-4, 0.0)) - tau(1.0, ShapeParams(1e-4, 0.0))) / 1e-4
        assert _tau_derivatives(1.0, 1.5e-4, 0.0)[1] == pytest.approx(fd, rel=1e-4)

    def test_dg_oracle_and_finite_difference(self):
        assert _tau_derivatives(1.0, 0.5, 0.1)[1] == pytest.approx(DTAU_DG_1_05_01, rel=1e-13)
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.uniform(-4, 4)
            g = rng.choice([-1, 1]) * rng.uniform(0.01, 1.2)
            h = rng.uniform(0, 0.5)
            fd = (
                tau(z, ShapeParams(g + 1e-6, h)) - tau(z, ShapeParams(g - 1e-6, h))
            ) / 2e-6
            np.testing.assert_allclose(
                _tau_derivatives(z, g, h)[1], fd, rtol=1e-5, atol=1e-9
            )

    def test_dg_small_g_series_keeps_cubic_term(self):
        # At h = 0, mu = 0 and sigma = 1 the small-g branch solves z_hat = y,
        # and d/dg = z - (g + z) exp(-g z) [exp(g z)(g z - 1) + 1]/g^2: the
        # bracket's series must keep its g z^3/3 term (4e-5 relative at z = 12).
        g = 5e-6
        z = np.linspace(-12.0, 12.0, 241)
        series = z**2 / 2 + g * z**3 / 3 + g**2 * z**4 / 8
        d_g = nll_and_grad(z, TghParams(0.0, 1.0, g, 0.0), TIGHT)[1][:, 2]
        np.testing.assert_allclose(d_g, z - (g + z) * np.exp(-g * z) * series, rtol=1e-10)

    def test_dg_matches_mpmath(self):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 40

        def nll(y, g, h):
            tau_mp = lambda z: mp.expm1(g * z) / g * mp.exp(h * z * z / 2)  # noqa: E731
            z = mp.findroot(lambda z: tau_mp(z) - y, mp.mpf(0))
            slope = (mp.exp(g * z) + h * z * mp.expm1(g * z) / g) * mp.exp(h * z * z / 2)
            return mp.log(slope) + z * z / 2

        for g, h, z in ((0.5, 0.1, 1.0), (-1.7, 0.45, 2.5), (1e-3, 0.0, -3.0), (2.0, 0.0, -1.5)):
            y = float(tau(z, ShapeParams(g, h)))
            want = mp.diff(lambda gg: nll(mp.mpf(y), gg, mp.mpf(h)), mp.mpf(g))
            got = nll_and_grad(y, TghParams(0.0, 1.0, g, h), TIGHT)[1][2]
            assert got == pytest.approx(float(want), rel=1e-11), (g, h, z)

    def test_dh_trivial_values(self):
        assert _tau_derivatives(0.0, 0.3, 0.2)[2] == 0.0
        assert _tau_derivatives(2.0, 0.0, 0.0)[2] == pytest.approx(4.0)

    def test_dh_oracle_and_finite_difference(self):
        assert _tau_derivatives(1.0, 0.5, 0.1)[2] == pytest.approx(DTAU_DH_1_05_01, rel=1e-13)
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.uniform(-4, 4)
            g = rng.uniform(-1.2, 1.2)
            h = rng.uniform(0.01, 0.5)
            fd = (
                tau(z, ShapeParams(g, h + 1e-6)) - tau(z, ShapeParams(g, h - 1e-6))
            ) / 2e-6
            np.testing.assert_allclose(
                _tau_derivatives(z, g, h)[2], fd, rtol=1e-5, atol=1e-9
            )


class TestTauInverse:
    def test_zero(self):
        assert abs(tau_inverse(0.0, ShapeParams(0.9, 0.4))) <= 1e-10

    def test_identity(self):
        assert tau_inverse(1.0, ShapeParams(0.0, 0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_of_oracle_value(self):
        assert tau_inverse(TAU_1_05_01, ShapeParams(0.5, 0.1)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_roundtrip_grid(self):
        z = np.linspace(-6, 6, 121)
        for g in (-1.0, 0.0, 1e-6, 0.7):
            for h in (0.0, 0.3, 0.5):
                p = ShapeParams(g, h)
                back = tau_inverse(np.asarray(tau(z, p)), p)
                assert np.max(np.abs(back - z)) <= 1e-10, (g, h)

    def test_bracket_expansion_beyond_initial_width(self):
        # target far outside [-8, 8]
        p = NEAR_IDENTITY
        assert tau_inverse(1234.5, p) == pytest.approx(1234.5, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_initial_half_width_solves_without_overflow(self):
        # a model header may carry any finite positive initial_half_width;
        # doubling an end that needs no doubling overflowed with a warning.
        # At h = 0, bisection from 1e308 takes over 1000 halvings: a SolverError
        z = np.linspace(-6.0, 6.0, 25)
        wide = InverseSolverConfig(initial_half_width=1e308)
        for p in (ShapeParams(0.5, 0.1), ShapeParams(-2.0, 0.5)):
            t = np.asarray(tau(z, p))
            np.testing.assert_allclose(tau_inverse(t, p, wide), z, rtol=0, atol=1e-10)
        with pytest.raises(SolverError, match="did not converge in 200 iterations"):
            tau_inverse(np.asarray(tau(z, ShapeParams(0.5, 0.0))), ShapeParams(0.5, 0.0), wide)

    def test_unreachable_target_raises(self):
        # for g < 0, h = 0 the transform is bounded above by 1/|g|
        with pytest.raises(SolverError, match=ONE_SIDED):
            tau_inverse(10.0, ShapeParams(-0.5, 0.0))

    @pytest.mark.parametrize("call", [
        # exactly on the bound 1/|g| = 8, which tau rounds onto at z ~ 386
        lambda: tau_inverse(8.0, ShapeParams(-0.125, 0.0)),
        # beyond the bound 5e5, where the |g| < SMALL_G kernel reads tau as z
        lambda: tau_inverse(1e6, ShapeParams(-2e-6, 0.0)),
        lambda: log_density(8.0, TghParams(0.0, 1.0, -0.125, 0.0)),
    ], ids=["on_the_bound", "small_g_beyond_the_bound", "log_density_on_the_bound"])
    def test_h_zero_target_on_or_beyond_the_bound_raises(self, call):
        with pytest.raises(SolverError, match=ONE_SIDED):
            call()

    def test_outside_row_raises_before_any_tau_evaluation(self, count_calls):
        # the h = 0 support is decided before the bracket: no doubling is spent
        zt, h = np.linspace(-3.0, 3.0, 512), np.full(512, 0.2)
        zt[300], h[300] = 10.0, 0.0
        calls = count_calls(tgh, "_tau_parts")
        with pytest.raises(SolverError, match=r"at sample index 300: z_tilde=10\.0, g=-0\.5, "
                           r"h=0\.0" + ONE_SIDED):
            tau_inverse(zt, ShapeParams(-0.5, h))
        assert calls == []

    def test_scalar_solve_names_no_row(self):
        with pytest.raises(SolverError, match=r"^no root for inverse transform: z_tilde=10\.0, "
                           r"g=-0\.5, h=0\.0" + ONE_SIDED):
            tau_inverse(10.0, ShapeParams(-0.5, 0.0))

    def test_rejects_non_finite_target(self):
        with pytest.raises(ValueError):
            tau_inverse(math.inf, ShapeParams(0.0, 0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_z_hat_overflow_names_the_row(self, count_calls):
        # a finite target whose (y - mu)/sigma exceeds the double range fails
        # before the solve, without a numpy warning
        solves = count_calls(tgh, "tau_inverse")
        params = TghParams(np.zeros(3), np.array([1.0, 0.8, 1.0]), 0.1, 0.2)
        with pytest.raises(SolverError, match=r"at sample index 1: z_tilde=inf, g=0\.1, "
                           r"h=0\.2; \(y - mu\)/sigma overflows the double range$"):
            tgh.z_hat(np.array([0.5, 1.7e308, -1.7e308]), params)
        assert solves == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_z_hat_quotient_in_range_when_difference_overflows(self):
        # y - mu = 2e308 overflows, (y - mu)/sigma = 2e307 does not; the
        # in-range rows keep the bits of (y - mu)/sigma
        y, mu = np.array([1e308, 0.7, 1e308]), np.array([-1e308, 0.2, -1e308])
        got = tgh.z_hat(y, TghParams(mu, np.array([10.0, 3.0, 10.0]), 0.0, 0.5))
        want = tau_inverse(np.array([2e307, (0.7 - 0.2) / 3.0, 2e307]), ShapeParams(0.0, 0.5))
        assert got.tobytes() == want.tobytes()
        assert tgh.z_hat(1e308, TghParams(-1e308, 10.0, 0.0, 0.5)) == want[0]
        with pytest.raises(SolverError, match=r"at sample index 2: z_tilde=inf, g=0\.0, "
                           r"h=0\.5; \(y - mu\)/sigma overflows the double range$"):
            tgh.z_hat(y, TghParams(mu, np.array([10.0, 3.0, 0.5]), 0.0, 0.5))

    def test_g_and_h_zero_rows_start_solved(self, count_calls):
        # tau(z) = z: such rows return z_tilde bitwise, with no Newton pass,
        # even beyond the reach of the bracket's 60 doublings
        zt = np.concatenate([np.random.default_rng(4).normal(0.0, 3.0, 1000), [1e300, -2e307]])
        calls = count_calls(tgh, "_tau_parts")
        assert tau_inverse(zt, ShapeParams(0.0, 0.0)).tobytes() == zt.tobytes()
        assert len(calls) == 0  # no bracket pass either; 10, then 1, before
        assert tgh.z_hat(1e308, TghParams(-1e308, 10.0, 0.0, 0.0)) == 2e307
        # the other rows of a mixed batch keep the bits they solve to alone
        kind = np.arange(len(zt)) % 3
        g, h = np.where(kind == 2, 0.3, 0.0), np.where(kind > 0, 0.2, 0.0)
        mixed, solved = tau_inverse(zt, ShapeParams(g, h)), kind > 0
        assert mixed[~solved].tobytes() == zt[~solved].tobytes()
        mixed_calls = len(calls)
        alone = tau_inverse(zt[solved], ShapeParams(g[solved], h[solved]))
        assert mixed[solved].tobytes() == alone.tobytes()
        assert mixed_calls == len(calls) - mixed_calls > 0  # and their passes

    def test_solve_counter_increments(self, count_calls):
        # a vectorised log_density over many rows is a single solve
        solves = count_calls(tgh, "tau_inverse")
        log_density(np.linspace(-3.0, 3.0, 50), TghParams(0.1, 1.0, 0.2, 0.1))
        assert len(solves) == 1

    def test_sub_ulp_tolerance_stops_at_adjacent_doubles(self, count_calls):
        # one ulp of 9.2 is 1.8e-15, so a 1e-15 bracket width is unreachable
        calls = count_calls(tgh, "_tau_parts")
        out = tau_inverse(9.2, NEAR_IDENTITY, TIGHT)
        assert 0 < len(calls) <= 60
        assert abs(out - 9.2) <= np.spacing(9.2)
        calls.clear()
        batch = np.linspace(-3.0, 3.0, 512)
        batch[7] = 9.2
        out = tau_inverse(batch, NEAR_IDENTITY, TIGHT)
        assert 0 < len(calls) <= 60
        assert abs(out[7] - 9.2) <= np.spacing(9.2)

    def test_realistic_batch_evaluation_budget(self, count_calls):
        # bracket evaluations included; pure bisection needed 46
        rng = np.random.default_rng(20)
        z = rng.standard_normal(512)
        p = ShapeParams(rng.uniform(-0.8, 0.8, 512), rng.uniform(0.0, 0.35, 512))
        zt = np.asarray(tau(z, p))
        calls = count_calls(tgh, "_tau_parts")
        out = tau_inverse(zt, p)
        assert len(calls) <= 12
        assert np.max(np.abs(out - z)) <= 1e-12

    def test_one_sided_bracket_budget(self, count_calls):
        # the batch above: a two-sided bracket [-w, w] took 8 calls
        rng = np.random.default_rng(20)
        z = rng.standard_normal(512)
        p = ShapeParams(rng.uniform(-0.8, 0.8, 512), rng.uniform(0.0, 0.35, 512))
        zt = np.asarray(tau(z, p))
        calls = count_calls(tgh, "_tau_parts")
        out = tau_inverse(zt, p)
        assert len(calls) <= 7
        assert np.max(np.abs(out - z)) <= 1e-12

    def test_bracket_inside_initial_width_is_one_evaluation(self, monkeypatch):
        # every root lies in [-w, w]: the bracket evaluates tau once, at the
        # end on each target's side, and the Newton loop stays inside it
        w = tgh.DEFAULT_SOLVER.initial_half_width
        p = ShapeParams(np.linspace(-2.0, 2.0, 101), np.linspace(0.0, 0.5, 101))
        zt = np.asarray(tau(np.linspace(-7.9, 7.9, 101), p))
        points, inner = [], tgh._tau_parts
        monkeypatch.setattr(tgh, "_tau_parts", lambda z, g, h: points.append(z) or inner(z, g, h))
        tau_inverse(zt, p)
        np.testing.assert_array_equal(points[0], np.copysign(w, zt))
        assert len(points) > 1 and all(np.all(np.abs(z) < w) for z in points[1:])

    @settings(max_examples=400)
    @given(
        g=st.floats(-LinkConfig().g_max, LinkConfig().g_max),
        h=st.just(0.0) | st.floats(0.0, LinkConfig().h_max),
        zt=st.just(0.0) | st.floats(-1e300, -8.0, exclude_max=True)
        | st.floats(8.0, 1e300, exclude_min=True) | st.floats(-8.0, 8.0),
    )
    def test_round_trip_over_the_link_box(self, g, h, zt):
        p = ShapeParams(g, h)
        if h == 0.0 and 1.0 + g * zt <= 0.0:
            with pytest.raises(SolverError, match=ONE_SIDED):
                tau_inverse(zt, p)
            return
        # a subnormal h > 0, or a 0 < |g| < SMALL_G row, whose kernel reads
        # tau as z at h = 0, may not reach a far target within the doublings;
        # a g = h = 0 row needs no bracket
        cfg = tgh.DEFAULT_SOLVER
        far = math.copysign(cfg.initial_half_width * 2.0**cfg.max_bracket_doublings, zt)
        if (g, h) != (0.0, 0.0) and abs(tau(far, p)) < abs(zt):
            with pytest.raises(SolverError, match="no bracket") as err:
                tau_inverse(zt, p)
            assert "one-sided support" not in str(err.value)
            return
        assert abs(tau(tau_inverse(zt, p), p) - zt) <= 1e-10 * max(1.0, abs(zt))

    def test_loops_call_no_public_kernel(self, count_calls):
        taus = count_calls(tgh, "tau")
        primes = count_calls(tgh, "log_density_from_z")
        tau_inverse(np.linspace(-50.0, 50.0, 101), ShapeParams(0.3, 0.2))
        assert taus == [] and primes == []

    def test_unconverged_rows_raise(self):
        # row 0 is solved exactly at the start point z = 0; row 1 needs
        # more than two iterations
        # plain floats, not np.float64(...) reprs
        with pytest.raises(SolverError, match=r"did not converge in 2 iterations "
                           r"at sample index 1: z_tilde=5\.0, g=0\.0, h=1e-300$"):
            tau_inverse(np.array([0.0, 5.0]), NEAR_IDENTITY,
                        InverseSolverConfig(max_bisection_iters=2))

    def test_vectorized_broadcast(self):
        zt = np.array([0.0, 1.0, -2.0])
        g = np.array([0.0, 0.5, -0.5])
        h = np.array([0.0, 0.1, 0.2])
        out = tau_inverse(zt, ShapeParams(g, h))
        for i in range(3):
            assert out[i] == pytest.approx(
                tau_inverse(zt[i], ShapeParams(g[i], h[i])), abs=1e-12
            )


def _newton_rows(func, slope, x):
    """The first four arguments of safeguarded_newton for Newton's method on
    func, started at x."""

    def value_and_step(x):
        f = func(x)
        return f, f / slope(x)

    return (value_and_step, x, *value_and_step(x))


class TestSafeguardedNewton:
    """The driver behind tau_inverse and evaluate.shortest_interval, called
    directly."""

    def test_cube_roots(self):
        c = np.linspace(1.0, 50.0, 64)
        out, done = tgh.safeguarded_newton(
            *_newton_rows(lambda x: x**3 - c, lambda x: 3 * x * x, np.full(64, 4.0)),
            np.full(64, 0.5), np.full(64, 4.0), 1e-14, 100)
        assert done.all()
        np.testing.assert_allclose(out, np.cbrt(c), rtol=0, atol=4e-15)

    def test_newton_point_outside_the_bracket_bisects(self):
        # Newton on atan(x - 0.3) from x = 4 lands near -15, outside [-5, 4]
        points = []
        value_and_step, x, f, step = _newton_rows(lambda x: points.append(x) or np.arctan(x - 0.3),
                                                  lambda x: 1.0 / (1.0 + (x - 0.3) ** 2),
                                                  np.array([4.0]))
        assert not -5.0 <= x[0] - step[0] <= 4.0
        out, done = tgh.safeguarded_newton(value_and_step, x, f, step, np.array([-5.0]), x,
                                           1e-13, 100)
        assert done.all() and abs(out[0] - 0.3) <= 1e-13
        assert points[1][0] == -0.5  # the first move is to the bracket's midpoint

    def test_row_given_zero_f_never_moves(self):
        # row 0 reports f = 0 at the start; the callback disagrees later, in vain
        x = np.array([1.0, 3.0])
        value_and_step, x, f, step = _newton_rows(lambda x: x - 1.7, np.ones_like, x)
        out, done = tgh.safeguarded_newton(value_and_step, x, np.array([0.0, f[1]]), step,
                                           np.zeros(2), np.full(2, 3.0), 1e-12, 50)
        assert done.all() and out[0] == 1.0 and out[1] == pytest.approx(1.7, abs=1e-12)

    def test_adjacent_doubles_stop_a_sub_ulp_tolerance(self):
        # x*x - 2 is never exactly 0 in doubles, and no step is within 1e-300
        calls = []
        out, done = tgh.safeguarded_newton(
            *_newton_rows(lambda x: calls.append(1) or x * x - 2.0, lambda x: 2.0 * x,
                          np.array([2.0])),
            np.array([1.0]), np.array([2.0]), 1e-300, 200)
        assert done.all() and len(calls) <= 12
        assert abs(out[0] - math.sqrt(2.0)) <= np.spacing(math.sqrt(2.0))

    def test_max_iter_exhaustion_flags_only_the_unconverged_rows(self):
        # row 0 starts on its root, row 1 needs more than two iterations
        out, done = tgh.safeguarded_newton(
            *_newton_rows(lambda x: x**3 - np.array([1.0, 2.0]), lambda x: 3 * x * x,
                          np.array([1.0, 5.0])),
            np.array([0.0, 0.0]), np.array([2.0, 5.0]), 1e-12, 2)
        assert done.tolist() == [True, False] and out[0] == 1.0


def _bisection_inverse(zt, g, h, tol):
    """Reference inverse: bracket doubling, then pure bisection on tau."""
    p = ShapeParams(g, h)
    lo = np.full(zt.shape, -8.0)
    hi = np.full(zt.shape, 8.0)
    for _ in range(60):
        need_lo = np.asarray(tau(lo, p)) > zt
        need_hi = np.asarray(tau(hi, p)) < zt
        if not (need_lo.any() or need_hi.any()):
            break
        lo = np.where(need_lo, 2.0 * lo, lo)
        hi = np.where(need_hi, 2.0 * hi, hi)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo <= tol) | (mid == lo) | (mid == hi)):
            return mid
        right = np.asarray(tau(mid, p)) < zt
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)


def _oracle_rows():
    """Dense (z, g, h) rows: a grid plus random rows, with the edge cases
    h = 0, h = 1e-300, |g| < SMALL_G and |g| = 2, and |z| up to 12."""
    gs = np.concatenate([np.linspace(-2.0, 2.0, 21),
                         [-tgh.SMALL_G / 2, -1e-9, 1e-300, 1e-9, tgh.SMALL_G / 2]])
    hs = np.concatenate([[0.0, 1e-300], np.linspace(0.01, 0.5, 6)])
    z, g, h = (a.ravel() for a in np.meshgrid(np.linspace(-12.0, 12.0, 49), gs, hs))
    rng = np.random.default_rng(3)
    n = 20000
    z = np.concatenate([z, rng.uniform(-12.0, 12.0, n)])
    g = np.concatenate([g, rng.uniform(-2.0, 2.0, n)])
    h = np.concatenate([h, rng.choice([0.0, 1e-300], n // 4),
                        rng.uniform(0.0, 0.5, n - n // 4)])
    return np.asarray(tau(z, ShapeParams(g, h))), g, h


def _assert_matches_bisection(zt, g, h, tol):
    p = ShapeParams(g, h)
    got = tau_inverse(zt, p, InverseSolverConfig(abs_tolerance=tol))
    want = _bisection_inverse(zt, g, h, tol)
    # tolerance, conditioning of the root, and the ulp floor
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore"):
        allowed = (tol + 8.0 * eps * np.maximum(1.0, np.abs(zt)) / _tau_prime(got, g, h)
                   + 2.0 * np.spacing(np.abs(got)))
    assert np.all(np.abs(got - want) <= allowed)


class TestTauInverseOracle:
    @pytest.mark.parametrize("tol", [1e-12, 1e-15])
    def test_agrees_with_bisection(self, tol):
        _assert_matches_bisection(*_oracle_rows(), tol)

    def test_tolerance_below_every_ulp_stops_at_the_floor(self):
        # targets nudged off tau's image have no exact double root, so only
        # the adjacent-doubles test can stop a row at abs_tolerance=1e-300
        rng = np.random.default_rng(4)
        g, h = rng.uniform(-2.0, 2.0, 512), rng.uniform(0.0, 0.5, 512)
        zt = np.asarray(tau(rng.uniform(-12.0, 12.0, 512), ShapeParams(g, h)))
        _assert_matches_bisection(zt * (1.0 + 1e-13), g, h, 1e-300)

    @given(
        g=st.floats(-LinkConfig().g_max, LinkConfig().g_max),
        h=st.floats(0.0, LinkConfig().h_max),
        z=st.floats(-12.0, 12.0),
        gap=st.floats(1e-3, 4.0),
    )
    def test_increasing_and_round_trip(self, g, h, z, gap):
        p = ShapeParams(g, h)
        assert tau(z, p) < tau(z + gap, p)
        zt = tau(z, p)
        assert abs(tau(tau_inverse(zt, p), p) - zt) <= 1e-10 * max(1.0, abs(zt))


def _inverse_sensitivities(zt, p, cfg=tgh.DEFAULT_SOLVER):
    """Implicit-function derivatives of tau^{-1}(zt) in zt, g and h."""
    slope, dg, dh = _tau_derivatives(tau_inverse(zt, p, cfg), p.g, p.h)
    return 1.0 / slope, -dg / slope, -dh / slope


class TestInverseDerivatives:
    def test_trivial_values(self):
        p = ShapeParams(0.4, 0.2)
        d_zt, d_g, d_h = _inverse_sensitivities(0.0, p)
        assert d_zt == pytest.approx(1.0, abs=1e-9)
        assert _inverse_sensitivities(2.0, ShapeParams(0.0, 0.0))[0] == pytest.approx(
            1.0, abs=1e-9
        )
        assert d_g == pytest.approx(0.0, abs=1e-9)
        assert d_h == pytest.approx(0.0, abs=1e-9)

    def test_dg_series_value_at_identity(self):
        # -(z^2/2)/1 at z_hat = 1
        d_g = _inverse_sensitivities(1.0, ShapeParams(0.0, 0.0))[1]
        assert d_g == pytest.approx(-0.5, abs=1e-9)

    def test_dztilde_is_reciprocal_slope(self):
        p = ShapeParams(0.5, 0.1)
        assert _inverse_sensitivities(TAU_1_05_01, p)[0] == pytest.approx(
            1.0 / TAU_PRIME_1_05_01, rel=1e-10
        )

    def test_against_finite_differences(self):
        p = ShapeParams(0.5, 0.1)
        zt = TAU_1_05_01
        eps = 1e-6
        d_zt, d_g, d_h = _inverse_sensitivities(zt, p, TIGHT)
        fd_zt = (tau_inverse(zt + eps, p, TIGHT) - tau_inverse(zt - eps, p, TIGHT)) / (2 * eps)
        np.testing.assert_allclose(d_zt, fd_zt, rtol=1e-5)
        fd_g = (
            tau_inverse(zt, ShapeParams(0.5 + eps, 0.1), TIGHT)
            - tau_inverse(zt, ShapeParams(0.5 - eps, 0.1), TIGHT)
        ) / (2 * eps)
        np.testing.assert_allclose(d_g, fd_g, rtol=1e-5)
        fd_h = (
            tau_inverse(zt, ShapeParams(0.5, 0.1 + eps), TIGHT)
            - tau_inverse(zt, ShapeParams(0.5, 0.1 - eps), TIGHT)
        ) / (2 * eps)
        np.testing.assert_allclose(d_h, fd_h, rtol=1e-5)


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert log_density(0.0, TghParams(0.0, 1.0, 0.0, 0.0)) == pytest.approx(
            -HALF_LOG_2PI, abs=1e-10
        )

    def test_at_location_parameter(self):
        for sigma in (0.5, 1.0, 3.0):
            params = TghParams(1.7, sigma, 0.6, 0.2)
            assert log_density(1.7, params) == pytest.approx(
                -math.log(sigma) - HALF_LOG_2PI, abs=1e-9
            )

    def test_composed_oracle_value(self):
        got = log_density(TAU_1_05_01, TghParams(0.0, 1.0, 0.5, 0.1))
        want = -math.log(TAU_PRIME_1_05_01) - 0.5 - HALF_LOG_2PI
        assert got == pytest.approx(want, abs=1e-9)

    def test_integrates_to_one(self):
        # substitute y = mu + sigma*tau(z): integral of f(y(z)) sigma tau'(z) dz
        z = np.linspace(-12.0, 12.0, 40001)
        for g in (-1.0, 0.0, 0.5, 1.0):
            for h in (0.0, 0.1, 0.3, 0.5):
                params = TghParams(0.3, 1.4, g, h)
                p = ShapeParams(g, h)
                y = 0.3 + 1.4 * np.asarray(tau(z, p))
                integrand = np.exp(np.asarray(log_density(y, params))) * 1.4 * _tau_prime(z, g, h)
                total = np.trapezoid(integrand, z)
                assert total == pytest.approx(1.0, abs=1e-6), (g, h)

    def test_h_zero_is_exact_up_to_large_g_z(self):
        # log tau' = g*z at h = 0, also where exp(g*z) nearly underflows or overflows
        z = np.concatenate([np.linspace(-300.0, 300.0, 601), np.linspace(-12.0, 12.0, 97)])
        for g in (-2.0, -0.7, 0.3, 2.0):
            got = tgh.log_density_from_z(z, TghParams(0.0, 1.0, g, 0.0))
            np.testing.assert_allclose(got, -g * z - z * z / 2 - HALF_LOG_2PI, rtol=1e-12)

    def test_g_zero_closed_form(self):
        z = np.linspace(-30.0, 30.0, 601)
        for h in (0.0, 1e-300, 0.05, 0.5):
            got = tgh.log_density_from_z(z, TghParams(0.0, 1.0, 0.0, h))
            want = -np.log1p(h * z * z) - (1 + h) * z * z / 2 - HALF_LOG_2PI
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_per_sample_parameter_arrays(self):
        params = TghParams(
            np.array([0.0, 1.0]), np.array([1.0, 2.0]),
            np.array([0.0, 0.5]), np.array([0.0, 0.1]),
        )
        out = log_density(np.array([0.0, 1.0]), params)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(-HALF_LOG_2PI, abs=1e-10)


class TestQuantile:
    def test_median_is_location(self):
        assert quantile(0.5, TghParams(2.5, 3.0, 0.9, 0.4)) == pytest.approx(2.5)

    def test_normal_case_oracle(self):
        assert quantile(0.975, TghParams(0.0, 1.0, 0.0, 0.0)) == pytest.approx(
            Z_975, abs=1e-9
        )

    def test_affine_composition(self):
        want = 1.0 + 2.0 * tau(Z_975, ShapeParams(0.5, 0.1))
        assert quantile(0.975, TghParams(1.0, 2.0, 0.5, 0.1)) == pytest.approx(want)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.001, 0.999, 200)
        q = quantile(alphas, TghParams(0.0, 1.0, 0.8, 0.3))
        assert np.all(np.diff(q) > 0)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                quantile(bad, TghParams(0.0, 1.0, 0.0, 0.0))


def sample(params, n, seed):
    """n draws mu + sigma * tau(Z), Z standard normal from the seed."""
    z = np.random.default_rng(seed).standard_normal(n)
    return np.asarray(params.mu) + np.asarray(params.sigma) * np.asarray(tau(z, params))


class TestSample:
    """Draws mu + sigma * tau(Z) follow the law quantile describes."""

    def test_deterministic(self):
        params = TghParams(0.0, 1.0, 0.5, 0.1)
        np.testing.assert_array_equal(sample(params, 100, 7), sample(params, 100, 7))

    def test_normal_case_moments(self):
        draws = sample(TghParams(0.0, 1.0, 0.0, 0.0), 10**6, 3)
        assert abs(np.mean(draws)) < 0.005
        assert abs(np.var(draws) - 1.0) < 0.01

    def test_empirical_cdf_matches_quantiles(self):
        n = 10**6
        params = TghParams(0.3, 1.2, 0.5, 0.1)
        draws = sample(params, n, 11)
        for alpha in (0.05, 0.25, 0.5, 0.75, 0.95):
            q = quantile(alpha, params)
            hit = np.mean(draws <= q)
            se = math.sqrt(alpha * (1 - alpha) / n)
            assert abs(hit - alpha) <= 3 * se, alpha


def _erf_quantile(alpha: float) -> float:
    """Independent normal quantile: bisection on the erf-based CDF."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStandardNormal:
    def test_center_values(self):
        assert standard_normal_cdf(0.0) == 0.5
        assert standard_normal_quantile(0.5) == 0.0

    def test_frozen_975(self):
        assert standard_normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-12)

    def test_against_erf_bisection_oracle(self):
        for alpha in (1e-8, 1e-4, 0.025, 0.31, 0.5, 0.77, 0.975, 1 - 1e-8):
            assert standard_normal_quantile(alpha) == pytest.approx(
                _erf_quantile(alpha), abs=1e-9
            )

    def test_cdf_quantile_roundtrip(self):
        alphas = np.linspace(1e-6, 1 - 1e-6, 101)
        back = standard_normal_cdf(standard_normal_quantile(alphas))
        np.testing.assert_allclose(back, alphas, atol=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                standard_normal_quantile(bad)

    def test_scalar_and_0d_inputs_give_floats(self):
        for value in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(standard_normal_cdf(value)) is float
            assert type(standard_normal_quantile(value)) is float
        assert np.shape(standard_normal_cdf(np.full((2, 1), 0.3))) == (2, 1)
        assert np.shape(standard_normal_quantile(np.full((2, 1), 0.3))) == (2, 1)


# each function under the one shape rule, called with a sample value x in
# (0, 1) and parameters p, and whether its result broadcasts against p
_SHAPE_RULE = {
    "tau": (tau, True),
    "tau_inverse": (tau_inverse, True),
    "z_hat": (tgh.z_hat, True),
    "log_density": (log_density, True),
    "log_density_from_z": (log_density_from_z, True),
    "nll_and_grad": (nll_and_grad, True),
    "quantile": (quantile, True),
    "standard_normal_cdf": (lambda x, p: standard_normal_cdf(x), False),
    "standard_normal_quantile": (lambda x, p: standard_normal_quantile(x), False),
    "gaussian_nll_and_grad": (lambda x, p: gaussian_nll_and_grad(x, p.mu, p.sigma), True),
}
_SHAPE_INPUTS = {
    "python": (0.3, (0.1, 1.2, 0.2, 0.1)),
    "0-d": (np.array(0.3), tuple(map(np.array, (0.1, 1.2, 0.2, 0.1)))),
    "(3,)": (np.array([0.3, 0.5, 0.7]), (0.1, 1.2, np.array([0.2, -0.3, 0.0]), 0.1)),
    "(2, 3)": (np.array([[0.3], [0.6]]),
               (0.1, np.array([1.2, 0.8, 2.0]), np.array([0.2, -0.3, 0.0]), np.full(3, 0.1))),
}


@pytest.mark.parametrize("inputs", _SHAPE_INPUTS)
@pytest.mark.parametrize("name", _SHAPE_RULE)
def test_a_result_is_a_float_exactly_when_it_is_0d(name, inputs):
    call, reads_params = _SHAPE_RULE[name]
    x, fields = _SHAPE_INPUTS[inputs]
    out = call(x, TghParams(*fields))
    shape = np.broadcast_shapes(np.shape(x), *map(np.shape, fields if reads_params else ()))
    value = out[0] if name.endswith("nll_and_grad") else out
    if shape == ():
        assert type(value) is float
    else:
        assert type(value) is np.ndarray and value.shape == shape
    if name.endswith("nll_and_grad"):
        assert out[1].shape == shape + ((4,) if name == "nll_and_grad" else (2,))


def _quantile_oracle_points():
    """Uniform p, log-uniform tail p down to 1e-300 on either side, the
    extreme doubles 5e-324 and 1 - 2^-53, and both AS241 branch edges
    (|p - 1/2| = 0.425, r = 5) with their neighbouring doubles."""
    rng = np.random.default_rng(14)
    edges = np.array([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
    tail = 10.0 ** rng.uniform(-300.0, 0.0, 300)
    return np.concatenate([
        rng.uniform(size=300), tail, 1.0 - tail[tail > 1e-16], [5e-324, 1.0 - 2.0 ** -53],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
    ])


class TestStandardNormalOracles:
    """The numpy-only normal CDF and quantile against scipy and 40-digit mpmath."""

    def test_quantile_against_a_40_digit_reference(self):
        mp = pytest.importorskip("mpmath").mp
        p = _quantile_oracle_points()
        got = standard_normal_quantile(p)
        with mp.workdps(40):
            want = np.array([float(mp.findroot(lambda x, a=mp.mpf(float(a)): mp.ncdf(x) - a,
                                               mp.mpf(float(z))))
                             for a, z in zip(p, got)])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_quantile_against_scipy(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        rng = np.random.default_rng(15)
        p = np.concatenate([_quantile_oracle_points(), rng.uniform(size=200_000),
                            10.0 ** rng.uniform(-300.0, 0.0, 100_000)])
        # scipy's ndtri is up to 8.2e-16 and AS241 up to 6.4e-16 off the
        # 40-digit quantile (20k central p), so the two differ by up to the sum
        np.testing.assert_allclose(standard_normal_quantile(p), ndtri(p), rtol=1.5e-15, atol=0)

    @pytest.mark.parametrize("lo, hi, rtol", [(-8.0, 8.0, 1e-14), (-37.5, -5.0, 5e-13)])
    def test_cdf_against_a_40_digit_reference(self, lo, hi, rtol):
        # erfc of z/sqrt(2), whose rounding is amplified by about z^2 in the
        # tail: scipy's ndtr is off by 1.04e-14 and 2.2e-13 on these ranges
        mp = pytest.importorskip("mpmath").mp
        z = np.random.default_rng(16).uniform(lo, hi, 2000)
        with mp.workdps(40):
            want = np.array([float(mp.ncdf(float(v))) for v in z])
        np.testing.assert_allclose(standard_normal_cdf(z), want, rtol=rtol, atol=0)


def test_by_blocks_joins_each_output_in_its_dtype():
    # a per-row flag stays one byte a row, as intervals holds it
    x = np.arange(10.0)
    flags, halves = tgh.by_blocks(lambda v: (v > 4.5, v / 2), 3, x)
    assert flags.dtype == bool and flags.tolist() == (x > 4.5).tolist()
    assert halves.dtype == float and halves.tolist() == (x / 2).tolist()
