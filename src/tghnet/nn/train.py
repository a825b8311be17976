"""Mini-batch training loop for the g-and-h and Gaussian heads; the
network's head width picks the head loss (loss.LOSS_KINDS).

Shuffling is driven by a single seeded generator so a fixed seed gives a
bitwise-identical run.  Validation uses eval-mode batch norm; the
parameters with the best validation loss are restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError
from ..loss import DEFAULT_LINK, LOSS_KINDS, LinkConfig, gaussian_head_loss, tukey_head_loss
from ..tgh import DEFAULT_SOLVER, InverseSolverConfig, by_blocks
from .network import EVAL_CHUNK, Network
from .optim import Adam, AdamConfig, effective_lr


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 4096
    clip_norm: float | None = 10.0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive or None")


@dataclass
class TrainHistory:
    """Per-epoch record: epoch index, effective lr, train and val mean loss."""

    epoch: list[int]
    lr: list[float]
    train_loss: list[float]
    val_loss: list[float]
    best_epoch: int | None = None

    def __len__(self) -> int:
        return len(self.epoch)


def _head_loss(net: Network):
    """The head loss for net's head width, looked up in this module when
    called so that a wrapper installed here on either head loss sees every
    call.  A width no loss reads fails in loss.link on the first batch."""
    return tukey_head_loss if net.spec.head_dim == LOSS_KINDS["tukey"] else gaussian_head_loss


def evaluate_mean_loss(net: Network, x: np.ndarray, y: np.ndarray,
                       link_cfg: LinkConfig = DEFAULT_LINK,
                       solver_cfg: InverseSolverConfig = DEFAULT_SOLVER) -> float:
    """Mean loss of net's head over a dataset with eval-mode batch norm,
    summed as each block of EVAL_CHUNK rows' mean times its row count.  An
    error names its row of x."""
    head_loss = _head_loss(net)
    total = 0.0

    def add_block(x, y):
        nonlocal total
        total += head_loss(y, net.forward(x, train=False), link_cfg, solver_cfg)[0] * len(y)
        return ()

    by_blocks(add_block, EVAL_CHUNK, x, y)
    return total / len(y)


def train(net: Network, x: np.ndarray, y: np.ndarray,
          train_idx: np.ndarray, val_idx: np.ndarray,
          adam_cfg: AdamConfig, train_cfg: TrainConfig,
          link_cfg: LinkConfig = DEFAULT_LINK,
          solver_cfg: InverseSolverConfig = DEFAULT_SOLVER, seed: int = 0) -> TrainHistory:
    """Train the network in place under its head width's loss, shuffling the
    training rows with a generator seeded by seed; returns the history.

    After the last epoch the network is reset to the parameters (and
    batch-norm running statistics) of the epoch with the lowest
    validation loss.  Raises NumericalError with epoch/batch context if a
    batch loss turns non-finite.
    """
    head_loss = _head_loss(net)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("train and validation splits must be non-empty")

    rng = np.random.default_rng(seed)
    opt = Adam(net.params, adam_cfg)
    history = TrainHistory([], [], [], [])
    best_val = np.inf
    best_state = None

    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(train_idx))
        epoch_sum = 0.0
        for b, start in enumerate(range(0, len(order), train_cfg.batch_size)):
            rows = train_idx[order[start:start + train_cfg.batch_size]]
            raw = net.forward(x[rows], train=True)
            mean, head_grad, _ = head_loss(y[rows], raw, link_cfg, solver_cfg)
            if not np.isfinite(mean):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, batch {b}"
                )
            net.backward(head_grad)
            if train_cfg.clip_norm is not None:
                # a pairwise sum, not a BLAS dot: the same bits at any thread count
                norm = np.sqrt(np.add.reduce(net.grad * net.grad))
                if norm > train_cfg.clip_norm:
                    net.grad *= train_cfg.clip_norm / norm
            opt.step(net.params, net.grad, epoch)
            epoch_sum += mean * len(rows)
        train_loss = epoch_sum / len(train_idx)
        val_loss = evaluate_mean_loss(
            net, x[val_idx], y[val_idx], link_cfg, solver_cfg
        )
        if not np.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss at epoch {epoch}")
        history.epoch.append(epoch)
        history.lr.append(effective_lr(adam_cfg, epoch))
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_state = net.state.copy()
            history.best_epoch = epoch

    if best_state is not None:
        net.state[...] = best_state
    return history
