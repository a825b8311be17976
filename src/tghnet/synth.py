"""Synthetic regression designs over a scalar feature x ~ U(0, 1).

Two generators: a well-specified design whose target is g-and-h
distributed given x, and a misspecified design whose target is student-t
distributed given x.  The curve sets live in small registries keyed by
name; "reference" is the default design of this package:

    mu(x)    = sin(2*pi*x)
    sigma(x) = 0.5 + 0.4*cos(2*pi*x)^2
    g(x)     = 0.8*(2*x - 1)
    h(x)     = 0.3*x^2
    nu(x)    = 3 + 1.5*x         (t design only)

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tgh import ShapeParams, tau

Curve = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GandhDesign:
    """Closed-form parameter curves for the well-specified design."""

    mu: Curve
    sigma: Curve
    g: Curve
    h: Curve


@dataclass(frozen=True)
class StudentTDesign:
    """Closed-form parameter curves for the misspecified (t) design."""

    mu: Curve
    sigma: Curve
    nu: Curve


def _ref_mu(x):
    return np.sin(2.0 * np.pi * x)


def _ref_sigma(x):
    return 0.5 + 0.4 * np.cos(2.0 * np.pi * x) ** 2


def _ref_g(x):
    return 0.8 * (2.0 * x - 1.0)


def _ref_h(x):
    return 0.3 * x * x


def _ref_nu(x):
    return 3.0 + 1.5 * x


GANDH_DESIGNS: dict[str, GandhDesign] = {
    "reference": GandhDesign(_ref_mu, _ref_sigma, _ref_g, _ref_h),
    "constant_normal": GandhDesign(
        lambda x: np.zeros_like(x),
        lambda x: np.ones_like(x),
        lambda x: np.zeros_like(x),
        lambda x: np.zeros_like(x),
    ),
}

STUDENT_T_DESIGNS: dict[str, StudentTDesign] = {
    "reference": StudentTDesign(_ref_mu, _ref_sigma, _ref_nu),
}


@dataclass(frozen=True)
class SynthDataset:
    """Feature, target, and per-sample true regression values by column name."""

    x: np.ndarray
    y: np.ndarray
    true_values: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.x)


def generate_gandh(n: int, fns: GandhDesign, seed: int) -> SynthDataset:
    """Draw n samples with y | x ~ mu(x) + sigma(x) * tau_{g(x),h(x)}(Z)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    z = rng.standard_normal(n)
    mu, sigma, g, h = fns.mu(x), fns.sigma(x), fns.g(x), fns.h(x)
    y = mu + sigma * np.asarray(tau(z, ShapeParams(g, h)))
    return SynthDataset(x, y, {"true_mu": mu, "true_sigma": sigma, "true_g": g, "true_h": h})


def generate_student_t(n: int, fns: StudentTDesign, seed: int) -> SynthDataset:
    """Draw n samples with y | x ~ mu(x) + sigma(x) * T, T ~ t_{nu(x)}.

    T is generated as Z / sqrt(V / nu) with V ~ chi-squared(nu), which is
    exact for any real nu > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    z = rng.standard_normal(n)
    mu, sigma, nu = fns.mu(x), fns.sigma(x), fns.nu(x)
    v = rng.chisquare(nu)
    y = mu + sigma * z / np.sqrt(v / nu)
    return SynthDataset(x, y, {"true_mu": mu, "true_sigma": sigma, "true_nu": nu})
