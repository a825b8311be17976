"""Training losses: the link that maps a raw network head, as wide as its
loss kind (LOSS_KINDS), onto g-and-h parameters (the Gaussian model is
g = h = 0), the Gaussian baseline loss, and the two head losses, which
share one signature and one body; the g-and-h one is built on the exact
NLL and gradient in tgh.nll_and_grad.

The training loss drops the additive log(2*pi)/2 constant; reported
evaluation likelihoods (tgh.log_density) keep it.  Both read log tau' from
the same tgh kernel at the same solved residual, so by construction the
two differ by that constant per sample, up to rounding.  Which rows have
a finite loss is tgh.tau_inverse's rule alone, as in scoring: a target on
or beyond tau's one-sided support bound, where the link's h underflows to
0, raises its SolverError naming the row before any solve starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tgh import DEFAULT_SOLVER, InverseSolverConfig, LossValueAndGrad, TghParams, nll_and_grad

__all__ = [
    "LOSS_KINDS",
    "LinkConfig",
    "link",
    "gaussian_nll_and_grad",
    "tukey_head_loss",
    "gaussian_head_loss",
]


@dataclass(frozen=True)
class LinkConfig:
    """Bounds for the raw-output-to-parameter maps.

    sigma = softplus(raw) + sigma_floor, g = g_max * tanh(raw),
    h = h_max * logistic(raw).  Bounded g and h keep the inverse solver
    and the exp terms well-behaved early in training.
    """

    sigma_floor: float = 1e-4
    g_max: float = 2.0
    h_max: float = 0.5

    def __post_init__(self):
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")
        if not self.g_max > 0:
            raise ValueError("g_max must be positive")
        if not self.h_max > 0:
            raise ValueError("h_max must be positive")


DEFAULT_LINK = LinkConfig()

# each loss kind and the width of the raw head it reads; link tells the two
# apart by that width alone
LOSS_KINDS = {"tukey": 4, "gaussian": 2}


def _softplus(x):
    return np.logaddexp(0.0, x)


def _expit(x):
    """Logistic 1/(1 + exp(-x)), read as e/(1 + e) for x < 0 with
    e = exp(-|x|), so that exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def link(raw, cfg: LinkConfig = DEFAULT_LINK):
    """Map raw head outputs (..., 4) to valid g-and-h parameters.

    A (..., 2) head is the Gaussian model: it gives mu and sigma, with
    g = h = 0.  Returns (TghParams, derivs) where derivs[..., j] is the
    derivative of parameter j w.r.t. raw output j (the link is diagonal).
    A non-finite output raises NumericalError at its row (i,), i counting
    heads in row-major order.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 0 or raw.shape[-1] not in LOSS_KINDS.values():
        raise ValueError("raw head must have 2 or 4 components")
    finite = np.isfinite(raw)
    if not finite.all():
        raise NumericalError("non-finite network output at input row {row}",
                             (np.argmin(np.ravel(finite.all(axis=-1))),))
    mu = raw[..., 0]
    sigma = _softplus(raw[..., 1]) + cfg.sigma_floor
    derivs = [np.ones_like(mu), _expit(raw[..., 1])]
    if raw.shape[-1] == LOSS_KINDS["gaussian"]:
        g = h = np.zeros_like(mu)
    else:
        tg = np.tanh(raw[..., 2])
        g = cfg.g_max * tg
        sh = _expit(raw[..., 3])
        h = cfg.h_max * sh
        derivs += [cfg.g_max * (1.0 - tg * tg), cfg.h_max * sh * (1.0 - sh)]
    return TghParams(mu, sigma, g, h), np.stack(derivs, axis=-1)


def gaussian_nll_and_grad(y, mu, sigma):
    """Gaussian negative log-likelihood log(sigma) + (y-mu)^2/(2 sigma^2).

    Constant dropped, matching nll_and_grad at g = h = 0.  Gradient is the
    2-vector (d/dmu, d/dsigma).
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
    return LossValueAndGrad(value, np.stack([d_mu, d_sigma], axis=-1))


def _batch_mean(y, raw, link_cfg: LinkConfig, per_sample):
    """The body of both head losses: link the raw head, check y against it,
    and pull per_sample(y, params)'s per-sample gradients through the
    diagonal link derivatives, scaled by 1/n.  The mean (rather than the
    sum) keeps the learning rate invariant to the batch size."""
    params, derivs = link(raw, link_cfg)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    if params.mu.ndim == 1 and len(params.mu) != len(y):
        raise ValueError(f"length mismatch: {len(y)} targets vs {len(params.mu)} parameter rows")
    out = per_sample(y, params)
    values = np.asarray(out.value)
    return float(np.mean(values)), out.grad * derivs / len(values), params


def tukey_head_loss(y, raw, link_cfg: LinkConfig = DEFAULT_LINK,
                    solver_cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Mean g-and-h loss of a raw (n, 4) head, d(mean)/d(raw), and the
    linked parameters, from one vectorized nll_and_grad: the node the
    network backward pass consumes."""
    return _batch_mean(y, raw, link_cfg, lambda y, p: nll_and_grad(y, p, solver_cfg))


def gaussian_head_loss(y, raw, link_cfg: LinkConfig = DEFAULT_LINK,
                       solver_cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Mean Gaussian loss of a raw (n, 2) head, as tukey_head_loss; g = h = 0
    needs no solve, so solver_cfg is unused."""
    return _batch_mean(y, raw, link_cfg, lambda y, p: gaussian_nll_and_grad(y, p.mu, p.sigma))
