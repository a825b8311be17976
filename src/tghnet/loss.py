"""Training losses: the link layer that maps raw network outputs onto
valid parameters, the Gaussian baseline loss, and the batch and head losses
built on the exact g-and-h NLL and gradient in tgh.nll_and_grad.

The training loss drops the additive log(2*pi)/2 constant; reported
evaluation likelihoods (tgh.log_density) keep it.  Both read log tau' from
the same tgh kernel at the same solved residual, so by construction the
two differ by that constant per sample, up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericalError
from .tgh import (
    DEFAULT_SOLVER,
    InverseSolverConfig,
    LossValueAndGrad,
    TghParams,
    nll_and_grad,
)

__all__ = [
    "LinkConfig",
    "BatchLoss",
    "link",
    "link_gaussian",
    "gaussian_nll_and_grad",
    "batch_nll",
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


@dataclass(frozen=True)
class BatchLoss:
    """Mean loss over a batch plus per-sample values and gradients."""

    mean: float
    values: np.ndarray
    grads: np.ndarray


def _softplus(x):
    return np.logaddexp(0.0, x)


def link(raw, cfg: LinkConfig = DEFAULT_LINK):
    """Map raw head outputs (..., 4) to valid parameters.

    Returns (TghParams, derivs) where derivs[..., j] is the derivative of
    parameter j w.r.t. raw output j (the link is diagonal).
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1] != 4:
        raise ValueError("raw head must have 4 components")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw head must be finite")
    mu = raw[..., 0]
    sigma = _softplus(raw[..., 1]) + cfg.sigma_floor
    tg = np.tanh(raw[..., 2])
    g = cfg.g_max * tg
    sh = expit(raw[..., 3])
    h = cfg.h_max * sh
    derivs = np.stack(
        [
            np.ones_like(mu),
            expit(raw[..., 1]),
            cfg.g_max * (1.0 - tg * tg),
            cfg.h_max * sh * (1.0 - sh),
        ],
        axis=-1,
    )
    return TghParams(mu, sigma, g, h), derivs


def link_gaussian(raw, cfg: LinkConfig = DEFAULT_LINK):
    """Map raw head outputs (..., 2) to (mu, sigma) plus diagonal derivatives."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1] != 2:
        raise ValueError("raw head must have 2 components")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw head must be finite")
    mu = raw[..., 0]
    sigma = _softplus(raw[..., 1]) + cfg.sigma_floor
    derivs = np.stack([np.ones_like(mu), expit(raw[..., 1])], axis=-1)
    return mu, sigma, derivs


def gaussian_nll_and_grad(y, mu, sigma):
    """Gaussian negative log-likelihood log(sigma) + (y-mu)^2/(2 sigma^2).

    Constant dropped, matching nll_and_grad at g = h = 0.  Gradient is the
    2-vector (d/dmu, d/dsigma).
    """
    scalar = np.ndim(y) == np.ndim(mu) == np.ndim(sigma) == 0
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
    grad = np.stack([d_mu, d_sigma], axis=-1)
    if scalar:
        return LossValueAndGrad(float(value), grad.reshape(2))
    return LossValueAndGrad(value, grad)


def batch_nll(y, params: TghParams, cfg: InverseSolverConfig = DEFAULT_SOLVER) -> BatchLoss:
    """Mean per-sample loss over a batch plus per-sample gradients.

    The mean (rather than the sum) keeps the learning rate invariant to
    the batch size.  Per-sample values and gradients come from a single
    vectorized evaluation, so the result is independent of any outer
    partitioning of the batch.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(params.mu, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be one-dimensional")
    if mu.ndim == 1 and mu.shape[0] != y.shape[0]:
        raise ValueError(
            f"length mismatch: {y.shape[0]} targets vs {mu.shape[0]} parameter rows"
        )
    out = nll_and_grad(y, params, cfg)
    values = np.asarray(out.value)
    return BatchLoss(float(np.mean(values)), values, out.grad)


def tukey_head_loss(y, raw, link_cfg: LinkConfig = DEFAULT_LINK,
                    solver_cfg: InverseSolverConfig = DEFAULT_SOLVER):
    """Mean g-and-h loss of a raw (n, 4) head plus d(mean)/d(raw).

    This is the node the network backward pass consumes: the per-sample
    parameter gradients are pulled through the diagonal link derivatives
    and scaled by 1/n.

    For very negative raw h the link's h underflows to exactly 0.  The
    support of tau is then one-sided (1 + g*tau > 0), and a row whose
    z_tilde = (y - mu)/sigma lies outside it has an infinite NLL: that
    raises NumericalError naming the row, before any solve.
    """
    params, derivs = link(raw, link_cfg)
    h_zero = params.h == 0
    if np.any(h_zero):
        z_tilde = (np.asarray(y, dtype=float) - params.mu) / params.sigma
        outside = np.ravel(h_zero & (params.g * z_tilde <= -1.0))
        if np.any(outside):
            i = int(np.argmax(outside))
            raise NumericalError(
                f"infinite NLL at row {i}: the link's h underflowed to 0, and "
                f"z_tilde={float(np.ravel(z_tilde)[i])!r} lies outside the "
                f"one-sided support 1 + g*z_tilde > 0 for g={float(np.ravel(params.g)[i])!r}"
            )
    batch = batch_nll(y, params, solver_cfg)
    head_grad = batch.grads * derivs / len(batch.values)
    return batch.mean, head_grad, params


def gaussian_head_loss(y, raw, link_cfg: LinkConfig = DEFAULT_LINK):
    """Mean Gaussian loss of a raw (n, 2) head plus d(mean)/d(raw)."""
    mu, sigma, derivs = link_gaussian(raw, link_cfg)
    out = gaussian_nll_and_grad(y, mu, sigma)
    values = np.asarray(out.value)
    head_grad = out.grad * derivs / len(values)
    return float(np.mean(values)), head_grad, (mu, sigma)
