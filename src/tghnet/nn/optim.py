"""Adam optimizer with a step learning-rate schedule.

The effective learning rate at epoch e is
``lr / lr_drop_factor ** |{d in lr_drop_epochs : d <= e}|`` — a
non-increasing step function with drops exactly at the configured epochs
(epochs are counted from 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_drop_epochs: tuple[int, ...] = (10, 15, 20, 30, 40)
    lr_drop_factor: float = 10.0

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.lr_drop_factor > 0:
            raise ValueError("lr_drop_factor must be positive")


def effective_lr(cfg: AdamConfig, epoch: int) -> float:
    drops = sum(1 for d in cfg.lr_drop_epochs if d <= epoch)
    return cfg.lr / cfg.lr_drop_factor ** drops


class Adam:
    """Standard Adam with bias correction on one flat parameter vector (such
    as Network.params), updated in place; m and v share its layout."""

    def __init__(self, params: np.ndarray, cfg: AdamConfig):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray, epoch: int) -> None:
        cfg = self.cfg
        lr = effective_lr(cfg, epoch)
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        self.m *= cfg.beta1
        self.m += (1.0 - cfg.beta1) * grad
        self.v *= cfg.beta2
        self.v += (1.0 - cfg.beta2) * grad * grad
        params -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + cfg.eps)
