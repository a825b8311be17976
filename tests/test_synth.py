"""Synthetic designs: determinism, distributional sanity, registry bounds."""

import numpy as np
import pytest
from scipy import stats

from tghnet.evaluate import ks_critical_value, residuals
from tghnet.synth import (
    GANDH_DESIGNS,
    STUDENT_T_DESIGNS,
    GandhDesign,
    StudentTDesign,
    generate_gandh,
    generate_student_t,
)
from tghnet.tgh import TghParams, quantile


class TestGandh:
    def test_deterministic(self):
        a = generate_gandh(500, GANDH_DESIGNS["reference"], seed=1)
        b = generate_gandh(500, GANDH_DESIGNS["reference"], seed=1)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_feature_support(self):
        ds = generate_gandh(2000, GANDH_DESIGNS["reference"], seed=2)
        assert np.all((ds.x >= 0) & (ds.x <= 1))

    def test_constant_design_is_standard_normal(self):
        ds = generate_gandh(20000, GANDH_DESIGNS["constant_normal"], seed=3)
        _, p_value = stats.kstest(ds.y, "norm")
        assert p_value > 0.01

    def test_quantiles_match_fixed_point_params(self):
        ref = GANDH_DESIGNS["reference"]
        x0 = 0.5
        fixed = GandhDesign(
            lambda x: np.full_like(x, ref.mu(np.array(x0))),
            lambda x: np.full_like(x, ref.sigma(np.array(x0))),
            lambda x: np.full_like(x, ref.g(np.array(x0))),
            lambda x: np.full_like(x, ref.h(np.array(x0))),
        )
        ds = generate_gandh(200000, fixed, seed=4)
        params = TghParams(
            float(ref.mu(np.array(x0))), float(ref.sigma(np.array(x0))),
            float(ref.g(np.array(x0))), float(ref.h(np.array(x0))),
        )
        for alpha in (0.1, 0.5, 0.9):
            want = quantile(alpha, params)
            got = np.quantile(ds.y, alpha)
            se = np.sqrt(alpha * (1 - alpha) / len(ds))
            density = np.exp(
                -0.5 * stats.norm.ppf(alpha) ** 2
            )  # crude local slack
            assert abs(got - want) < 5 * se / max(density, 0.1) + 0.02

    def test_rescored_under_true_params_is_uniform(self):
        ds = generate_gandh(20000, GANDH_DESIGNS["reference"], seed=5)
        tv = ds.true_values
        report = residuals(ds.y, TghParams(tv["true_mu"], tv["true_sigma"], tv["true_g"],
                                           tv["true_h"]))
        assert report.ks_statistic < ks_critical_value(len(ds), 0.01)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            generate_gandh(0, GANDH_DESIGNS["reference"], seed=0)


class TestStudentT:
    def test_deterministic(self):
        a = generate_student_t(500, STUDENT_T_DESIGNS["reference"], seed=1)
        b = generate_student_t(500, STUDENT_T_DESIGNS["reference"], seed=1)
        np.testing.assert_array_equal(a.y, b.y)

    def test_large_nu_approaches_normal(self):
        big = StudentTDesign(
            lambda x: np.zeros_like(x),
            lambda x: np.ones_like(x),
            lambda x: np.full_like(x, 5000.0),
        )
        ds = generate_student_t(20000, big, seed=2)
        _, p_value = stats.kstest(ds.y, "norm")
        assert p_value > 0.01

    def test_nu_three_has_heavy_tails(self):
        fixed = StudentTDesign(
            lambda x: np.zeros_like(x),
            lambda x: np.ones_like(x),
            lambda x: np.full_like(x, 3.0),
        )
        ds = generate_student_t(40000, fixed, seed=3)
        excess = stats.kurtosis(ds.y, fisher=True)
        assert excess > 2.0


class TestRegistryBounds:
    def test_reference_curves_bounded(self):
        x = np.linspace(0.0, 1.0, 5001)
        d = GANDH_DESIGNS["reference"]
        assert np.all((d.mu(x) >= -2) & (d.mu(x) <= 2))
        assert np.all((d.sigma(x) >= 0.2) & (d.sigma(x) <= 2))
        assert np.all((d.g(x) >= -1) & (d.g(x) <= 1))
        assert np.all((d.h(x) >= 0) & (d.h(x) <= 0.4))
        t = STUDENT_T_DESIGNS["reference"]
        assert np.all((t.nu(x) >= 3) & (t.nu(x) <= 20))
        np.testing.assert_array_equal(t.mu(x), d.mu(x))
        np.testing.assert_array_equal(t.sigma(x), d.sigma(x))
