"""Goodness-of-fit residuals, QQ data, prediction intervals, coverage, and
density curves for fitted models.

Residuals: z_hat = tau^{-1}((y - mu)/sigma) is standard normal under a
correctly specified model; u = Phi(z_hat) is then uniform on (0, 1).  The
report carries both, QQ pairs at k/(n+1) plotting positions, the two-sided
KS distance of u from uniform, and the mean negative log-likelihood
(constant included).

Intervals: the symmetric variant places alpha/2 in each tail; the shortest
variant spends the tail budget asymmetrically, minimizing
tgh.quantile(1 - gamma) - tgh.quantile(alpha - gamma) over the upper-tail
mass gamma.  Coverage is exactly 1 - alpha for every gamma by
construction.  The minimizer has equal density at both ends (Casella &
Berger, Statistical Inference, Thm 9.3.2), found by bisection in gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tgh
from .tgh import (
    DEFAULT_SOLVER,
    InverseSolverConfig,
    TghParams,
    standard_normal_cdf,
    standard_normal_quantile,
)

__all__ = [
    "ResidualReport",
    "PredictionInterval",
    "residuals",
    "ks_uniform",
    "ks_critical_value",
    "symmetric_interval",
    "shortest_interval",
    "check_alpha",
    "interval_coverage",
    "coverage_table",
    "density_curve",
    "binned_residual_summary",
]

# shortest_interval's bisection stops at this gamma bracket width, and
# searches gamma in [alpha * _GAMMA_EDGE, alpha * (1 - _GAMMA_EDGE)]
_GAMMA_TOL = 1e-9
_GAMMA_EDGE = 1e-4


@dataclass(frozen=True)
class ResidualReport:
    """Per-sample residuals plus summary statistics."""

    z_hat: np.ndarray
    u: np.ndarray
    qq_theoretical: np.ndarray
    qq_empirical: np.ndarray
    ks_statistic: float
    mean_nll: float


@dataclass(frozen=True)
class PredictionInterval:
    """Interval endpoints in target units.

    gamma is the upper-tail mass of the shortest variant: the interval runs
    from the alpha - gamma to the 1 - gamma quantile.  The symmetric variant
    stores the 0 sentinel with variant="symmetric".  Fields are arrays when
    built from per-row parameters.
    """

    lower: np.ndarray | float
    upper: np.ndarray | float
    alpha: float
    gamma: np.ndarray | float
    variant: str

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if np.any(np.asarray(self.lower) > np.asarray(self.upper)):
            raise ValueError("interval endpoints out of order")
        gamma = np.asarray(self.gamma)
        if np.any(gamma < 0) or np.any(gamma > self.alpha):
            raise ValueError("gamma must lie in [0, alpha]")


def ks_uniform(u: np.ndarray) -> float:
    """Two-sided KS distance of a sample from the uniform law on [0, 1]."""
    u = np.sort(np.asarray(u, dtype=float))
    n = len(u)
    if n == 0:
        raise ValueError("empty sample")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - u)
    d_minus = np.max(u - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value sqrt(-ln(level/2)/2)/sqrt(n).

    Approximate below n ~ 100; fine for the sample sizes used here.
    """
    return float(np.sqrt(-0.5 * np.log(level / 2.0)) / np.sqrt(n))


def residuals(y, params: TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER) -> ResidualReport:
    """Residual report of targets against per-sample parameters.

    One inverse solve gives z_hat, from which u and mean_nll follow.
    Uniform residuals are clipped into the open interval at the float
    boundary (Phi saturates to exactly 0/1 for |z_hat| beyond ~39).
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(params.mu, dtype=float)
    if mu.ndim == 1 and len(mu) != len(y):
        raise ValueError(f"length mismatch: {len(y)} targets vs {len(mu)} parameter rows")
    z_hat = np.asarray(tgh.z_hat(y, params, cfg))
    u = np.clip(
        np.asarray(standard_normal_cdf(z_hat)),
        np.nextafter(0.0, 1.0),
        np.nextafter(1.0, 0.0),
    )
    n = len(y)
    positions = np.arange(1, n + 1) / (n + 1.0)
    qq_theoretical = np.asarray(standard_normal_quantile(positions))
    qq_empirical = np.sort(z_hat)
    mean_nll = float(np.mean(-np.asarray(tgh.log_density_from_z(z_hat, params))))
    return ResidualReport(
        z_hat=z_hat,
        u=u,
        qq_theoretical=qq_theoretical,
        qq_empirical=qq_empirical,
        ks_statistic=ks_uniform(u),
        mean_nll=mean_nll,
    )


def check_alpha(alpha: float, variant: str) -> None:
    """Raise ValueError unless alpha lies in (0, 1) and 1 - t < 1 in doubles
    for the smallest tail mass t the variant evaluates: alpha/2 for
    "symmetric", alpha * _GAMMA_EDGE for "shortest".  Below that the upper
    end would be the quantile at 1."""
    t = alpha / 2.0 if variant == "symmetric" else alpha * _GAMMA_EDGE
    if not (0.0 < alpha < 1.0 and 1.0 - t < 1.0):
        raise ValueError(f"alpha={alpha!r} is not inside (0, 1), or too small "
                         f"for a {variant} interval in doubles")


def _interval_at_gamma(params: TghParams, alpha: float, gamma):
    """Quantiles at alpha - gamma and 1 - gamma: coverage 1 - alpha."""
    gamma = np.asarray(gamma)
    return tgh.quantile(alpha - gamma, params), tgh.quantile(1.0 - gamma, params)


def symmetric_interval(params: TghParams, alpha: float) -> PredictionInterval:
    """Central interval with alpha/2 tail mass on each side."""
    check_alpha(alpha, "symmetric")
    lower, upper = _interval_at_gamma(params, alpha, alpha / 2.0)
    gamma = np.zeros_like(lower) if np.ndim(lower) else 0.0
    return PredictionInterval(lower, upper, alpha, gamma, "symmetric")


def shortest_interval(params: TghParams, alpha: float) -> PredictionInterval:
    """Interval of minimal length among all with coverage 1 - alpha.

    With gamma the upper-tail mass, d(length)/d(gamma) has the sign of
    1/f(lower) - 1/f(upper): the length falls while the lower end is the
    denser one and rises after, a single sign change for the unimodal
    g-and-h density.  Bisection on the sign of log f(lower) - log f(upper)
    narrows [eps, alpha - eps] to _GAMMA_TOL; the shortest of the bracket
    ends, their midpoint and the symmetric gamma = alpha/2 is returned, so
    an optimum at the edge of the range is kept and the result is never
    longer than the symmetric interval.
    """
    check_alpha(alpha, "shortest")
    scalar = np.ndim(params.mu) == 0
    mu = np.atleast_1d(np.asarray(params.mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(params.sigma, dtype=float))
    g = np.broadcast_to(np.asarray(params.g, dtype=float), mu.shape)
    h = np.broadcast_to(np.asarray(params.h, dtype=float), mu.shape)
    vec = TghParams(mu, sigma, g, h)

    eps = alpha * _GAMMA_EDGE
    a = np.full_like(mu, eps)
    b = np.full_like(mu, alpha - eps)
    while np.max(b - a) > _GAMMA_TOL:
        mid = 0.5 * (a + b)
        z_ends = standard_normal_quantile(np.stack([alpha - mid, 1.0 - mid]))
        log_f = tgh.log_density_from_z(z_ends, vec)
        lower_denser = log_f[0] > log_f[1]
        a = np.where(lower_denser, mid, a)
        b = np.where(lower_denser, b, mid)

    cand = np.stack([a, b, 0.5 * (a + b), np.full_like(a, alpha / 2.0)])
    lower, upper = _interval_at_gamma(vec, alpha, cand)
    pick = np.argmin(upper - lower, axis=0), np.arange(len(mu))
    gamma_star, lower, upper = cand[pick], lower[pick], upper[pick]
    if scalar:
        return PredictionInterval(
            float(lower[0]), float(upper[0]), alpha, float(gamma_star[0]), "shortest"
        )
    return PredictionInterval(lower, upper, alpha, gamma_star, "shortest")


def interval_coverage(y, lower, upper) -> float:
    """Fraction of targets inside [lower, upper]."""
    y = np.asarray(y, dtype=float)
    inside = (y >= np.asarray(lower)) & (y <= np.asarray(upper))
    return float(np.mean(inside))


def coverage_table(u, alphas=(0.5, 0.2, 0.1, 0.05, 0.01)) -> dict[str, float]:
    """Empirical coverage of symmetric intervals at several levels, from the
    uniform residuals u = Phi(z_hat) with no quantile pass.

    The quantile function is monotone, so a target lies inside the central
    1 - alpha interval exactly when alpha/2 <= u <= 1 - alpha/2.  Keys are
    the nominal coverages formatted as strings (e.g. "0.95"); a calibrated
    model gives values near the keys.
    """
    u = np.asarray(u, dtype=float)
    return {f"{1 - alpha:g}": float(np.mean((u >= alpha / 2.0) & (u <= 1.0 - alpha / 2.0)))
            for alpha in alphas}


def density_curve(params: TghParams, y_grid,
                  cfg: InverseSolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """Density values exp(log_density) on a sorted target grid, solved with cfg."""
    y_grid = np.asarray(y_grid, dtype=float)
    if np.any(np.diff(y_grid) < 0):
        raise ValueError("y_grid must be sorted ascending")
    return np.exp(np.asarray(tgh.log_density(y_grid, params, cfg)))


def binned_residual_summary(feature, u, n_bins: int = 10):
    """Mean uniform residual per feature bin, as a dependence diagnostic.

    Returns (bin_edges, bin_mean, bin_count); under a correct model each
    bin mean is near 0.5 with no trend in the feature.
    """
    feature = np.asarray(feature, dtype=float)
    u = np.asarray(u, dtype=float)
    edges = np.linspace(feature.min(), feature.max(), n_bins + 1)
    which = np.clip(np.digitize(feature, edges[1:-1]), 0, n_bins - 1)
    means = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        mask = which == b
        counts[b] = int(np.sum(mask))
        if counts[b]:
            means[b] = float(np.mean(u[mask]))
    return edges, means, counts

