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
Berger, Statistical Inference, Thm 9.3.2), found by tgh.safeguarded_newton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tgh
from .errors import SolverError
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

# shortest_interval searches logit(gamma/alpha) in [-_X_EDGE, _X_EDGE] to a step of _X_TOL
_GAMMA_EDGE = 1e-4
_X_EDGE = np.log((1.0 - _GAMMA_EDGE) / _GAMMA_EDGE)
_X_TOL = 1e-10
# shortest_interval stops a row's search after this many secant steps
_MAX_STEPS = 100
# Rows per block of the row-wise passes (residuals with its QQ and KS ranks,
# intervals, density): a block's temporaries reuse freed pages instead of
# faulting in new ones.  At 4096 rows a solve runs faster than at 1024;
# write_csv writes by its own, smaller block of 1024 cells per column.
_BLOCK = 4096


@dataclass(frozen=True)
class ResidualReport:
    """Per-sample residuals plus summary statistics."""

    z_hat: np.ndarray
    u: np.ndarray
    qq_theoretical: np.ndarray
    qq_empirical: np.ndarray
    ks_statistic: float
    mean_nll: float


class PredictionInterval(NamedTuple):
    """Interval ends in target units and the upper-tail mass gamma, each of
    the parameters' broadcast shape.

    The interval runs from the alpha - gamma to the 1 - gamma quantile; the
    symmetric variant stores the sentinel gamma = 0.  Its builders
    guarantee the rest: alpha passed check_alpha, lower <= upper because
    the quantile is monotone, and gamma lies in [0, alpha].
    """

    lower: np.ndarray | float
    upper: np.ndarray | float
    gamma: np.ndarray | float


def _by_rank(fn, values: np.ndarray):
    """tgh.by_blocks of fn(block, k) over _BLOCK-row blocks of values, with k
    the 1-based ranks of the block's rows, so that no index array of the
    full length is held."""
    return tgh.by_blocks(lambda v, k: fn(v, np.arange(k.start, k.stop)), _BLOCK,
                         values, range(1, len(values) + 1))


def ks_uniform(u: np.ndarray) -> float:
    """Two-sided KS distance of a sample from the uniform law on [0, 1]:
    the larger of max(i/n - u_(i)) and max(u_(i) - (i-1)/n) over the sorted
    sample, each a maximum of block maxima."""
    u = np.sort(np.asarray(u, dtype=float))
    n = len(u)
    if n == 0:
        raise ValueError("empty sample")
    ends = []

    def block_ends(v, i):
        ends.append((np.max(i / n - v), np.max(v - (i - 1) / n)))
        return ()

    _by_rank(block_ends, u)
    d_plus, d_minus = np.max(ends, axis=0)
    return float(max(d_plus, d_minus))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value sqrt(-ln(level/2)/2)/sqrt(n).

    Approximate below n ~ 100; fine for the sample sizes used here.
    """
    return float(np.sqrt(-0.5 * np.log(level / 2.0)) / np.sqrt(n))


def _residual_block(y, mu, sigma, g, h, cfg):
    """z_hat, u and the negative log density of each row, from one solve."""
    params = TghParams(mu, sigma, g, h)
    z_hat = tgh.z_hat(y, params, cfg)
    u = np.clip(standard_normal_cdf(z_hat), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return z_hat, u, -tgh.log_density_from_z(z_hat, params)


def residuals(y, params: TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER) -> ResidualReport:
    """Residual report of targets against per-sample parameters.

    One inverse solve gives z_hat, from which u and mean_nll follow, by
    blocks of rows; the QQ quantiles and the KS distance run by blocks of
    ranks, so that beyond the returned arrays only the per-row NLL (until
    its mean is taken) and the sorted u that the KS distance needs are
    held.  Uniform residuals are clipped into the open interval at the
    float boundary (Phi saturates to exactly 0/1 for |z_hat| beyond ~39).
    """
    z_hat, u, nll = tgh.by_blocks(lambda *rows: _residual_block(*rows, cfg), _BLOCK,
                                  *np.broadcast_arrays(y, params.mu, params.sigma, params.g,
                                                       params.h))
    mean_nll = float(np.mean(nll))
    del nll
    ks_statistic = ks_uniform(u)
    qq_empirical = np.sort(z_hat)
    n = len(z_hat)
    qq_theoretical, = _by_rank(lambda _, k: (standard_normal_quantile(k / (n + 1.0)),),
                               qq_empirical)
    return ResidualReport(
        z_hat=z_hat,
        u=u,
        qq_theoretical=qq_theoretical,
        qq_empirical=qq_empirical,
        ks_statistic=ks_statistic,
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
    return tgh.quantile(alpha - gamma, params), tgh.quantile(1.0 - gamma, params)


def symmetric_interval(params: TghParams, alpha: float) -> PredictionInterval:
    """Central interval with alpha/2 tail mass on each side."""
    check_alpha(alpha, "symmetric")
    lower, upper = _interval_at_gamma(params, alpha, alpha / 2.0)
    return PredictionInterval(lower, upper, np.zeros_like(lower))


def shortest_interval(params: TghParams, alpha: float) -> PredictionInterval:
    """Interval of minimal length among all with coverage 1 - alpha.

    With gamma the upper-tail mass, d(length)/d(gamma) has the sign of
    1/f(lower) - 1/f(upper), which changes once for the unimodal g-and-h
    density.  So F = log f(upper) - log f(lower) rises through 0, and
    tgh.safeguarded_newton finds its root in x = logit(gamma/alpha) with
    secant steps from one density pass at each end of the range; a row
    whose F has one sign there stays at an end.  The shorter of that and
    the symmetric gamma = alpha/2 is returned.  Each entry of the
    parameters' broadcast shape is searched on its own, by blocks of rows
    (0-d is one row); a row whose search does not stop in _MAX_STEPS steps
    raises SolverError naming it.
    """
    check_alpha(alpha, "shortest")
    fields = np.broadcast_arrays(params.mu, params.sigma, params.g, params.h)
    got = tgh.by_blocks(lambda *p: _shortest_block(TghParams(*p), alpha), _BLOCK,
                        *map(np.atleast_1d, fields))
    return PredictionInterval(*(v.reshape(fields[0].shape) for v in got))


def _shortest_block(params: TghParams, alpha: float):
    """shortest_interval's (lower, upper, gamma) for one block of rows."""
    shape = np.broadcast_shapes(*map(np.shape, (params.mu, params.sigma, params.g, params.h)))
    lo, hi = np.full(shape, -_X_EDGE), np.full(shape, _X_EDGE)
    x_prev = f_prev = 0.0  # the first call's step is never used

    def gap_and_secant(x):
        nonlocal x_prev, f_prev
        gamma = alpha / (1.0 + np.exp(-x))
        log_f = tgh.log_density_from_z(
            standard_normal_quantile(np.stack([alpha - gamma, 1.0 - gamma])), params)
        f = log_f[1] - log_f[0]
        step = f * (x - x_prev) / (f - f_prev)
        x_prev, f_prev = x, f
        return f, step

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as in the search
        f_lo, _ = gap_and_secant(lo)
        f_hi, step = gap_and_secant(hi)
    # F >= 0 at lo or <= 0 at hi: that end is the optimum, and f = 0 keeps the row there
    x, done = tgh.safeguarded_newton(gap_and_secant, np.where(f_lo >= 0, lo, hi),
                                     np.where((f_lo >= 0) | (f_hi <= 0), 0.0, f_hi), step,
                                     lo, hi, _X_TOL, _MAX_STEPS)
    if not done.all():
        i = np.unravel_index(np.argmin(done), shape)
        raise SolverError(f"no shortest interval: the search in gamma did not stop in "
                          f"{_MAX_STEPS} steps at sample index {{row}}: "
                          f"g={float(params.g[i])!r}, h={float(params.h[i])!r}", i)
    cand = np.stack([alpha / (1.0 + np.exp(-x)), np.full(shape, alpha / 2.0)])
    lower, upper = _interval_at_gamma(params, alpha, cand)
    pick = np.argmin(upper - lower, axis=0, keepdims=True)
    return tuple(np.take_along_axis(v, pick, 0)[0] for v in (lower, upper, cand))


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
    """Density values exp(log_density) on a sorted target grid, solved with
    cfg by blocks along the last axis of the broadcast shape, each about
    _BLOCK values, so that memory beyond the result does not grow with
    the grid."""
    y_grid = np.asarray(y_grid, dtype=float)
    if np.any(np.diff(y_grid) < 0):
        raise ValueError("y_grid must be sorted ascending")
    fields = np.broadcast_arrays(y_grid, params.mu, params.sigma, params.g, params.h)
    curves = max(1, int(np.prod(fields[0].shape[:-1])))
    return tgh.by_blocks(lambda y, *p: (np.exp(tgh.log_density(y, TghParams(*p), cfg)),),
                         max(1, _BLOCK // curves), *fields, axis=-1)[0]


def binned_residual_summary(feature, u, n_bins: int = 10):
    """Mean uniform residual per feature bin, as a dependence diagnostic.

    Returns (bin_edges, bin_mean, bin_count); under a correct model each
    bin mean is near 0.5 with no trend in the feature.
    """
    feature = np.asarray(feature, dtype=float)
    u = np.asarray(u, dtype=float)
    edges = np.linspace(feature.min(), feature.max(), n_bins + 1)
    which = np.digitize(feature, edges[1:-1])  # 0 to n_bins - 1
    means = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        mask = which == b
        counts[b] = int(np.sum(mask))
        if counts[b]:
            means[b] = float(np.mean(u[mask]))
    return edges, means, counts

