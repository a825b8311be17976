"""Tukey g-and-h transform core: forward map, numerically exact inverse,
density, the exact negative log-likelihood and its gradient (with its
Gaussian reduction), and quantiles.  Every likelihood, residual and
density starts from the one standardise-and-solve in z_hat.

The transform is

    tau(z) = ((exp(g*z) - 1) / g) * exp(h * z^2 / 2)

continuously extended to ``z * exp(h*z^2/2)`` at g = 0.  For h >= 0 it is
strictly increasing in z with tau(0) = 0, so each root of tau(z) = z_tilde
can be bracketed between 0 and a point on the target's side and found to
any requested tolerance by safeguarded_newton, the one root search of the
package; there is no closed form.  At h = 0 the range is one-sided
(1 + g*tau > 0), and tau_inverse rejects a target on or beyond its bound
before any bracket pass.  A variable mu + sigma * tau(Z) with Z standard
normal follows the g-and-h distribution: g controls skewness, h tail
weight, and (g, h) = (0, 0) recovers the normal.

The normal quantile behind quantile and the intervals is Wichura's AS241
(PPND16, Applied Statistics 37(3), 1988), and the normal CDF is
erfc(-z/sqrt(2))/2 from the math module, so the package needs numpy only.

Two private kernels hold every exp(g*z) and expm1(g*z), and each applies
the g -> 0 limit itself.  _tau_parts (behind the solver, tau and quantile)
costs one expm1 and one exp; the solver forms tau' from it only
inside its Newton loop, where that tau' cancels for g*z << 0, which the
solver's bisection fallback absorbs.  _log_bracket, behind
log_density_from_z and nll_and_grad, builds log tau' and the gradient
factors from exp(-|g*z|) and expm1(-|g*z|), which never overflow.

All functions broadcast scalar and array inputs as numpy does, and _ret
makes a result a Python float exactly when its broadcast shape is 0-d.
They are pure and safe to call concurrently.  When an exp term exceeds
the double range the forward map saturates to +/-inf with the correct
sign rather than producing NaN; a saturated value compares correctly
against any finite target, which is what the solver's bracket relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, TghError

__all__ = [
    "ShapeParams",
    "TghParams",
    "InverseSolverConfig",
    "DEFAULT_SOLVER",
    "by_blocks",
    "tau",
    "safeguarded_newton",
    "tau_inverse",
    "z_hat",
    "log_density",
    "log_density_from_z",
    "nll_and_grad",
    "gaussian_nll_and_grad",
    "quantile",
    "standard_normal_cdf",
    "standard_normal_quantile",
]

# Below this |g| the two kernels replace (exp(g*z)-1)/g by its limit z and
# log tau' by its g = 0 value; at g = 0 the division is 0/0.
SMALL_G = 1e-5

HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _validate_finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ShapeParams:
    """Skewness g and tail-weight h >= 0 of the transform.

    Fields may be scalars or arrays (per-sample parameters); arrays must be
    mutually broadcastable.
    """

    g: float | np.ndarray
    h: float | np.ndarray

    def __post_init__(self):
        _validate_finite("g", self.g)
        h = _validate_finite("h", self.h)
        if np.any(h < 0):
            raise ValueError("h must be non-negative")


@dataclass(frozen=True)
class TghParams:
    """Location mu, scale sigma > 0, skewness g, tail weight h >= 0.

    mu and sigma carry the units of the target variable; g and h are
    dimensionless.  Fields may be scalars or broadcastable arrays.
    """

    mu: float | np.ndarray
    sigma: float | np.ndarray
    g: float | np.ndarray
    h: float | np.ndarray

    def __post_init__(self):
        _validate_finite("mu", self.mu)
        sigma = _validate_finite("sigma", self.sigma)
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")
        ShapeParams(self.g, self.h)  # checks g and h


@dataclass(frozen=True)
class InverseSolverConfig:
    """Bracketing and iteration controls for the transform inverse.

    abs_tolerance is the Newton step or bracket width (in z units) at which
    a row stops.  max_bisection_iters caps the iterations of either kind,
    Newton or bisection; the name predates the Newton steps and is kept so
    that saved models and configs still load.  The bracket starts at [0, w]
    or [-w, 0] on the target's side (w = initial_half_width; tau(0) = 0),
    and its far end doubles, at most max_bracket_doublings times.
    """

    abs_tolerance: float = 1e-12
    max_bisection_iters: int = 200
    initial_half_width: float = 8.0
    max_bracket_doublings: int = 60

    def __post_init__(self):
        if not self.abs_tolerance > 0:
            raise ValueError("abs_tolerance must be positive")
        if self.max_bisection_iters < 1:
            raise ValueError("max_bisection_iters must be >= 1")
        if not self.initial_half_width > 0:
            raise ValueError("initial_half_width must be positive")
        if self.max_bracket_doublings < 0:
            raise ValueError("max_bracket_doublings must be >= 0")


DEFAULT_SOLVER = InverseSolverConfig()


def _ret(value):
    """value as a Python float when it is 0-d, else value itself: the one
    place that decides a result's type, from the result's shape alone."""
    return float(value) if np.ndim(value) == 0 else value


def by_blocks(fn, block: int, *arrays, axis: int = 0):
    """The one row-block loop: fn(*parts) on blocks of at most `block`
    entries along the first (axis=0) or last (axis=-1) axis of the arrays,
    its outputs joined along that axis (no entries: one empty call).  Each
    entry's arithmetic must be its own, so the result is one call's bitwise.
    A TghError leaves with the block's start added to its row; nothing runs
    again."""
    n = np.shape(arrays[0])[axis]
    outs = None
    for start in range(0, max(n, 1), block):
        at = np.s_[start:start + block] if axis == 0 else np.s_[..., start:start + block]
        try:
            got = fn(*(a[at] for a in arrays))
        except TghError as exc:
            if exc.row:
                exc.row = (*exc.row[:axis], exc.row[axis] + start, *exc.row[axis:][1:])
            raise
        if outs is None:
            outs = [np.empty((*np.shape(v)[:axis], n, *np.shape(v)[axis:][1:])) for v in got]
        for out, value in zip(outs, got):
            out[at] = value
    return outs


def _log_bracket(z, g, h, grad=False):
    """log B for B = exp(g*z) + h*z*(exp(g*z) - 1)/g = tau'(z) exp(-h*z^2/2).

    u = g*z, e = exp(-|u|), m = 1 - exp(-|u|): one exp and one expm1, which
    never overflow.  With w = h*z*m/g, log B = u + log1p(w) for u > 0 and
    log(e - w) for u <= 0.  With grad=True the return is (log B, u, e, m,
    ez), so that a gradient reads exp(g*z) = 1/e or e from the same pair
    and ez = (exp(g*z) - 1)/g = m/(e*g) or -m/g; a density pays for no ez.
    Where |g| < SMALL_G, log B is log1p(h*z^2) and ez is z, their g -> 0
    limits.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(g) < SMALL_G
    u = g * z
    neg_abs_u = -np.abs(u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e = np.exp(neg_abs_u)
        m = -np.expm1(neg_abs_u)
        w = h * z * m / g
        log_b = np.where(small, np.log1p(h * z * z),
                         np.where(u > 0, u + np.log1p(w), np.log(e - w)))
        if not grad:
            return log_b
        return log_b, u, e, m, np.where(small, z, np.where(u > 0, m / e, -m) / g)


def _dg_kernel(z, u, e, m):
    """[exp(u)(u - 1) + 1] / g^2 for u = g*z, from _log_bracket's e and m.

    Equals z^2 * K(u) with K(u) = sum_{k>=2} (k-1) u^{k-2} / k!.  Written
    as (u - m)/(e*u^2) for u > 0 and (e*u + m)/u^2 for u <= 0, the
    numerator still cancels to u^2/2 for small |u|, so switch to the series
    K ~ 1/2 + u/3 + u^2/8 + u^3/30 when |u| < 1e-3 (truncation error below
    1e-14 relative there).  That covers g = 0 and every |g| < SMALL_G row
    with |z| < 100.
    """
    series = 0.5 + u * (1.0 / 3.0 + u * (0.125 + u / 30.0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = np.where(u > 0, (u - m) / e, e * u + m) / (u * u)
    return z * z * np.where(np.abs(u) < 1e-3, series, direct)


def tau(z, p: ShapeParams | TghParams):
    """Forward transform ((exp(g*z)-1)/g) * exp(h*z^2/2).

    Strictly increasing in z for h >= 0 and tau(0) = 0.  Saturates to
    +/-inf (never NaN) when the exp terms overflow the double range.
    """
    g, h = np.asarray(p.g, dtype=float), np.asarray(p.h, dtype=float)
    return _ret(_tau_parts(_validate_finite("z", z), g, h)[0])


def _tau_parts(z, g, h):
    """tau(z) and exp(h*z^2/2) from one expm1 and one exp, with no input checks.

    ez = (exp(g*z) - 1)/g falls back to its limit z where |g| < SMALL_G;
    then tau = ez * exp(h*z^2/2).  Overflow saturates tau to +/-inf.  The
    solver forms tau' = exp(h*z^2/2) + (g + h*z) * tau from the same pair.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.where(np.abs(g) < SMALL_G, z, np.expm1(g * z) / g)
        eh = np.exp(0.5 * h * z * z)
        return ez * eh, eh


def _row_error(message: str, bad, zt, g, h, reason: str = "") -> SolverError:
    """SolverError at bad's first flagged row (named unless 0-d), its values and the reason."""
    bad, zt, g, h = np.broadcast_arrays(bad, zt, g, h)
    i = np.unravel_index(np.argmax(bad), bad.shape)
    return SolverError(f"{message}{' at sample index {row}' if i else ''}: z_tilde="
                       f"{float(zt[i])!r}, g={float(g[i])!r}, h={float(h[i])!r}{reason}", i)


def safeguarded_newton(value_and_step, x, f, step, lo, hi, tol, max_iter):
    """Root of an increasing f on each row's bracket [lo, hi]; returns (x, done).

    Each row starts at x in its bracket with f = f(x) and a step.  The sign
    of f narrows [lo, hi], and the row moves to x - step, or bisects when
    that point leaves the bracket, is NaN, or would not halve the step
    before last (rtsafe, Numerical Recipes section 9.4).  A row stops when
    its step or bracket is at most tol, when the bracket ends are adjacent
    doubles, or when f == 0, so a row given f = 0 never moves.
    value_and_step(x) gives every row's next (f, step), inside this loop's
    np.errstate; done is False on rows max_iter iterations did not stop.
    """
    step_abs = step_abs_old = hi - lo
    done = np.zeros(np.shape(x), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            newton = x - step
            mid = 0.5 * (lo + hi)
            newton_abs = np.abs(step)
            # NR's |2F| <= |dx_old * F'| reads 2|step| <= |step before last|.
            use_newton = ((lo <= newton) & (newton <= hi)
                          & (2.0 * newton_abs <= step_abs_old))
            step_abs_old = step_abs
            step_abs = np.where(use_newton, newton_abs, 0.5 * (hi - lo))
            # x sits on lo or hi unless f == 0, so every step stays inside
            # [lo, hi] and a bracket at most tol wide means a step too.
            keep = done | (f == 0)
            x = np.where(keep, x, np.where(use_newton, newton, mid))
            done = keep | (step_abs <= tol) | (mid == lo) | (mid == hi)
            if done.all():
                break
            f, step = value_and_step(x)
    return x, done


def tau_inverse(z_tilde, p: ShapeParams | TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Invert tau by bracket doubling followed by safeguarded Newton steps.

    tau is increasing with tau(0) = 0, so each root lies between 0 and
    end = copysign(cfg.initial_half_width, z_tilde), and end doubles while
    |tau(end)| < |z_tilde|: one tau evaluation per bracket pass.
    Every row then starts safeguarded_newton at z = 0 with f = tau(z) -
    z_tilde and Newton steps on asinh(tau(z)) - asinh(z_tilde), far less
    curved than tau in the exp(h*z^2/2) tail; g = h = 0 rows (tau(z) = z)
    skip every bracket pass and start solved, at z = z_tilde with f = 0.  A
    saturated (+/-inf) tau compares correctly against the finite target.
    Only p.g and p.h are read, so z_hat passes its checked TghParams.

    Raises SolverError naming a row: before any tau evaluation, the first
    with h = 0 and 1 + g*z_tilde <= 0 (outside tau's one-sided range);
    then the first (h > 0) not bracketed in cfg.max_bracket_doublings
    doublings, or not stopped after cfg.max_bisection_iters iterations.
    """
    zt = _validate_finite("z_tilde", z_tilde)
    g = np.asarray(p.g, dtype=float)
    h = np.asarray(p.h, dtype=float)
    zt, g, h = np.broadcast_arrays(zt, g, h)
    zt = zt.astype(float)
    with np.errstate(over="ignore"):  # g*zt = -inf lies outside too
        outside = (h == 0) & (1.0 + g * zt <= 0)
    if outside.any():
        raise _row_error("no root for inverse transform", outside, zt, g, h, "; the target "
                         "lies outside tau's one-sided support 1 + g*z_tilde > 0 at h = 0")

    exact = (g == 0) & (h == 0)
    end = np.copysign(np.full(zt.shape, cfg.initial_half_width), zt)
    abs_zt = np.abs(zt)
    need = ~exact
    for _ in range(cfg.max_bracket_doublings + 1):  # a pass at end, then the doublings
        if not need.any():
            break
        need &= np.abs(_tau_parts(end, g, h)[0]) < abs_zt
        end = np.ldexp(end, need)  # doubled where needed; 2 * end everywhere may overflow
    if need.any():
        raise _row_error("no bracket for inverse transform after "
                         f"{cfg.max_bracket_doublings} doublings", need, zt, g, h)

    target = np.arcsinh(zt)

    def value_and_step(z):
        t, eh = _tau_parts(z, g, h)
        # F = asinh(tau) - asinh(z_tilde), F' = tau'/sqrt(1 + tau^2); tau' cancels
        # where g*z << 0 and is inf or NaN where tau saturates, and such rows bisect.
        t_p = eh + (g + h * z) * t
        return t - zt, (np.arcsinh(t) - target) * np.sqrt(1.0 + t * t) / t_p

    # tau(0) = 0 and tau'(0) = 1 for every (g, h), so z = 0 costs nothing.
    z, done = safeguarded_newton(value_and_step, np.where(exact, zt, 0.0), -zt * ~exact,
                                 -target, np.minimum(end, 0.0), np.maximum(end, 0.0),
                                 cfg.abs_tolerance, cfg.max_bisection_iters)
    if not done.all():
        raise _row_error("inverse transform did not converge in "
                         f"{cfg.max_bisection_iters} iterations", ~done, zt, g, h)
    return _ret(z)


def z_hat(y, params: TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Solved residual tau^{-1}((y - mu)/sigma), standard normal under a
    correct model: the one solve behind every likelihood and residual.  An
    overflowing (y - mu)/sigma raises SolverError naming its row."""
    y = _validate_finite("y", y)
    with np.errstate(over="ignore", invalid="ignore"):
        zt = (y - params.mu) / params.sigma
        if not np.all(np.isfinite(zt)):  # y - mu alone may overflow where the quotient does not
            alt = y / params.sigma - params.mu / params.sigma
            zt = np.where(np.isfinite(zt) | np.isnan(alt), zt, alt)
            if not np.all(np.isfinite(zt)):
                raise _row_error("no finite target for inverse transform", ~np.isfinite(zt),
                                 zt, params.g, params.h,
                                 "; (y - mu)/sigma overflows the double range")
    return tau_inverse(zt, params, cfg)


def log_density(y, params: TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Log of the g-and-h density at y, constant included: one solve for
    z_hat, then log_density_from_z."""
    return log_density_from_z(z_hat(y, params, cfg), params)


def log_density_from_z(z_hat, params: TghParams):
    """Log density at the target whose solved residual is z_hat.

    Equals -log(sigma) - log(tau'(z_hat)) - z_hat^2/2 - log(2*pi)/2; log
    tau' is evaluated in log space so large |g*z_hat| cannot overflow.
    Callers that already hold z_hat (residual reports) skip a second solve.
    """
    z_hat = np.asarray(z_hat, dtype=float)
    sigma = np.asarray(params.sigma, dtype=float)
    h = np.asarray(params.h, dtype=float)
    log_b = _log_bracket(z_hat, np.asarray(params.g, dtype=float), h)
    out = -np.log(sigma) - log_b - 0.5 * (1.0 + h) * z_hat * z_hat - HALF_LOG_TWO_PI
    return _ret(out)


def nll_and_grad(y, params: TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Negative log-likelihood (constant dropped) and its exact gradient, as
    (value, grad): grad's last axis is (d/dmu, d/dsigma, d/dg, d/dh).

    value = log[exp(g*zh) + h*zh*(exp(g*zh)-1)/g] + log(sigma)
            + (1+h)/2 * zh^2,   zh = z_hat(y, params, cfg).

    The gradient chains the explicit partials of the three terms through
    the inverse-transform sensitivities; everything reuses the single
    inverse solve performed here and the exp/expm1 pair of _log_bracket.
    """
    zh = np.asarray(z_hat(y, params, cfg))
    sigma = np.asarray(params.sigma, dtype=float)
    g = np.asarray(params.g, dtype=float)
    h = np.asarray(params.h, dtype=float)
    log_b, u, e, m, ez = _log_bracket(zh, g, h, grad=True)     # ez = (exp(g*zh)-1)/g

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        egz = np.where(u > 0, 1.0 / e, e)                          # exp(g*zh)
        dk = _dg_kernel(zh, u, e, m)                               # [exp(u)(u-1)+1]/g^2
        bracket = egz + h * zh * ez
        value = log_b + np.log(sigma) + 0.5 * (1.0 + h) * zh * zh

        # d(bracket)/dz, d(bracket)/dg, d(bracket)/dh at fixed z.
        db_dz = g * egz + h * (ez + zh * egz)
        db_dg = zh * egz + h * zh * dk
        db_dh = zh * ez
        # total d(value)/dz at fixed (g, h), times dz/d(param) below
        a = db_dz / bracket + (1.0 + h) * zh
        eh = np.exp(0.5 * h * zh * zh)

        d_mu = a * (-1.0 / (sigma * bracket * eh))
        # dz/dsigma = -z_tilde/(sigma tau'), and z_tilde = tau(zh) = ez * eh
        d_sigma = 1.0 / sigma + d_mu * (ez * eh)
        d_g = db_dg / bracket + a * (-dk / bracket)
        d_h = db_dh / bracket + 0.5 * zh * zh + a * (-0.5 * zh * zh * ez / bracket)

    return _ret(value), np.stack([d_mu, d_sigma, d_g, d_h], axis=-1)


def gaussian_nll_and_grad(y, mu, sigma):
    """Gaussian negative log-likelihood log(sigma) + (y-mu)^2/(2 sigma^2).

    Constant dropped, matching nll_and_grad at g = h = 0, and returned as
    nll_and_grad's pair with a last gradient axis of 2, (d/dmu, d/dsigma).
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    r = y - mu
    with np.errstate(over="ignore"):
        value = np.log(sigma) + 0.5 * r * r / (sigma * sigma)
        d_mu = -r / (sigma * sigma)
        d_sigma = 1.0 / sigma - r * r / (sigma * sigma * sigma)
    return _ret(value), np.stack([d_mu, d_sigma], axis=-1)


def quantile(alpha, params: TghParams):
    """Quantile function mu + sigma * tau(Phi^{-1}(alpha)).

    Monotone non-decreasing in alpha; alpha = 0.5 gives mu exactly.
    """
    z = standard_normal_quantile(alpha)
    g, h = np.asarray(params.g, dtype=float), np.asarray(params.h, dtype=float)
    out = np.asarray(params.mu) + np.asarray(params.sigma) * _tau_parts(z, g, h)[0]
    return _ret(out)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def standard_normal_cdf(z):
    """Phi(z), the standard normal CDF, as erfc(-z/sqrt(2))/2."""
    x = np.asarray(z, dtype=float) * -math.sqrt(0.5)
    return _ret(0.5 * np.asarray(_erfc(x), dtype=float))


# AS241 (PPND16), Wichura, Applied Statistics 37(3), 1988: rational
# approximations in q = p - 1/2 for |q| <= 0.425, and in
# r = sqrt(-log(min(p, 1 - p))) for r <= 5 and beyond; coefficients from
# the constant term up.
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(coeffs, x):
    """num(x)/den(x) for one (num, den) pair of AS241, each by Horner's
    rule in place."""
    num, den = (np.full_like(x, c[-1]) for c in coeffs)
    for a, b in zip(coeffs[0][-2::-1], coeffs[1][-2::-1]):
        num *= x
        num += a
        den *= x
        den += b
    return num / den


def standard_normal_quantile(alpha):
    """Phi^{-1}(alpha) by AS241 (within a few ulp of a correctly rounded
    quantile on (0, 1)); raises on alpha outside (0, 1)."""
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr <= 0) or np.any(arr >= 1):
        raise ValueError("alpha must lie strictly inside (0, 1)")
    p = arr.ravel()
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    z = np.empty_like(r)
    z[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    z[~near] = _rational(_AS241_FAR, r[~near] - 5.0)
    out[tail] = np.copysign(z, q[tail])
    return _ret(out.reshape(arr.shape))
