"""Dense feed-forward network: linear layers, ReLU, batch normalization,
and late-feature injection, with hand-written reverse-mode gradients.

A NetworkSpec is the whole shape: every hidden layer is linear, then
batch norm when the spec asks for it, then ReLU; the head is linear.  The
input matrix carries the base features first and the late-injected columns
last; late columns bypass the early layers and join the input of the last
hidden layer.  NetworkConfig is the "network" object of a config and of a
model header; persist.ModelHeader.spec turns it into a NetworkSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rows per eval-mode forward when scoring or validating: a chunk's
# activations stay in cache, and memory does not grow with the row count.
EVAL_CHUNK = 1024


@dataclass(frozen=True)
class NetworkConfig:
    """The "network" object: hidden-layer widths and batch norm."""

    hidden: tuple[int, ...]
    batch_norm: bool = True

    def __post_init__(self):
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden: expected a non-empty list of ints >= 1")


@dataclass(frozen=True)
class NetworkSpec:
    """input_dim columns, the last late_features of them injected late, the
    hidden widths, batch norm on every hidden layer or none, and a linear
    head of head_dim outputs."""

    input_dim: int
    hidden: tuple[int, ...]
    head_dim: int
    late_features: int = 0
    batch_norm: bool = True

    def __post_init__(self):
        if self.late_features < 0:
            raise ValueError(f"late_features: expected >= 0, got {self.late_features}")
        if self.late_features > 0 and not self.hidden:
            raise ValueError("late_features: late injection needs a hidden layer")
        if min(self.base_features, self.head_dim, *self.hidden) < 1:
            raise ValueError(f"layers: expected widths >= 1, got {self.layer_dims()}")

    @property
    def base_features(self) -> int:
        return self.input_dim - self.late_features

    def layer_dims(self) -> list[tuple[int, int]]:
        """(in_dim, out_dim) of each linear layer, the head last."""
        ins = [self.base_features, *self.hidden]
        if self.late_features > 0:
            ins[-2] += self.late_features
        return list(zip(ins, [*self.hidden, self.head_dim]))

    def state_shapes(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Shapes of the arrays in a Network's state, in its model-file order:
        the parameters, then the batch-norm running statistics."""
        shapes, stats = [], []
        for i, (n_in, n_out) in enumerate(self.layer_dims()):
            shapes += [(n_in, n_out), (n_out,)]
            if self.batch_norm and i < len(self.hidden):
                shapes += [(n_out,)] * 2
                stats += [(n_out,)] * 2
        return shapes, stats

    @property
    def state_size(self) -> int:
        """Length of the state vector, known before any array is allocated."""
        return sum(math.prod(s) for part in self.state_shapes() for s in part)


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes with the batch mean and (biased) batch variance
    and updates the running statistics in place with momentum
    ``running = (1 - m) * running + m * batch`` (unbiased variance for the
    running update).  Eval mode normalizes with the running statistics.

    ``arrays`` are the (gamma, beta, running_mean, running_var, dgamma,
    dbeta) vectors to work in, views into a Network's state and gradient;
    a stand-alone layer allocates its own.
    """

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5,
                 arrays: tuple[np.ndarray, ...] | None = None):
        self.momentum = momentum
        self.eps = eps
        (self.gamma, self.beta, self.running_mean, self.running_var,
         self.dgamma, self.dbeta) = np.empty((6, dim)) if arrays is None else arrays
        self.gamma[...], self.beta[...] = 1.0, 0.0
        self.running_mean[...], self.running_var[...] = 0.0, 1.0
        self._cache = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            n = x.shape[0]
            mean = x.mean(axis=0)
            centered = x - mean
            var = np.mean(centered * centered, axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = centered * inv_std
            m = self.momentum
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            unbiased = var * n / max(n - 1, 1)
            self.running_var[...] = (1.0 - m) * self.running_var + m * unbiased
            self._cache = (inv_std, x_hat)
            return self.gamma * x_hat + self.beta
        # gamma * (x - running_mean) / sqrt(running_var + eps) + beta as one
        # per-feature affine map: two passes over x instead of four
        self._cache = None
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        return x * scale + (self.beta - self.running_mean * scale)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Write dgamma and dbeta in place and return d(loss)/dx."""
        if self._cache is None:
            raise RuntimeError("batch-norm backward without a cached train forward")
        inv_std, x_hat = self._cache
        n = dout.shape[0]
        np.sum(dout * x_hat, axis=0, out=self.dgamma)
        np.sum(dout, axis=0, out=self.dbeta)
        # closed form of the gradient through the batch mean and variance
        return (self.gamma * inv_std / n) * (n * dout - self.dbeta - x_hat * self.dgamma)


class Linear:
    """x @ w + b on the views (w, b, dw, db); w is drawn uniform in
    +-sqrt(6 / in_dim) from rng and b starts at zero."""

    def __init__(self, w: np.ndarray, b: np.ndarray, dw: np.ndarray, db: np.ndarray,
                 rng: np.random.Generator):
        bound = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = 0.0
        self.w, self.b, self.dw, self.db = w, b, dw, db
        self._x = None

    def forward(self, x: np.ndarray, cache: bool) -> np.ndarray:
        self._x = x if cache else None
        return x @ self.w + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Write dw and db in place and return d(loss)/dx."""
        if self._x is None:
            raise RuntimeError("linear backward without a cached forward")
        np.matmul(self._x.T, dout, out=self.dw)
        np.sum(dout, axis=0, out=self.db)
        return dout @ self.w.T


def _views(vec: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of vec with the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [v.reshape(shape) for v, shape in zip(np.split(vec, ends[:-1]), shapes)]


class Network:
    """Feed-forward network assembled from a NetworkSpec.

    All parameters and batch-norm running statistics live in one float64
    vector ``state``, in model-file order: per layer W (row-major), b, and
    gamma, beta for batch-norm layers; then running_mean, running_var per
    batch-norm layer.  ``params`` is its leading parameter part, ``grad``
    (filled by backward()) has the same layout, and the layers hold views
    into both.

    forward(X, train=True) caches activations for a following backward();
    forward in eval mode uses batch-norm running statistics and caches
    nothing.  Initialization is deterministic for a fixed seed.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        shapes, stats = spec.state_shapes()
        n_params = sum(math.prod(s) for s in shapes)
        self.state = np.empty(spec.state_size)
        self.params = self.state[:n_params]
        self.grad = np.zeros(n_params)
        views = _views(self.state, shapes + stats)
        self._param_views = views[:len(shapes)]
        self._grad_views = _views(self.grad, shapes)
        p, s, g = iter(self._param_views), iter(views[len(shapes):]), iter(self._grad_views)
        rng = np.random.default_rng(seed)
        self.linears: list[Linear] = []
        self.norms: list[BatchNorm | None] = []
        n_hidden = len(spec.hidden)
        for i, (_, n_out) in enumerate(spec.layer_dims()):
            self.linears.append(Linear(next(p), next(p), next(g), next(g), rng))
            self.norms.append(BatchNorm(n_out, arrays=tuple(next(it) for it in (p, p, s, s, g, g)))
                              if spec.batch_norm and i < n_hidden else None)
        self._relu_masks: list[np.ndarray | None] = [None] * n_hidden
        self._trained_forward = False

    def parameters(self) -> list[np.ndarray]:
        """Per-array views into params: per layer W, b (, gamma, beta)."""
        return list(self._param_views)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"expected input of shape (n, {self.spec.input_dim}), got {x.shape}"
            )
        late, base = self.spec.late_features, self.spec.base_features
        h = x[:, :base]
        last = len(self.spec.hidden) - 1
        for i in range(last + 1):
            if i == last and late > 0:
                h = np.concatenate([h, x[:, base:]], axis=1)
            z = self.linears[i].forward(h, cache=train)
            if self.norms[i] is not None:
                z = self.norms[i].forward(z, train=train)
            mask = z > 0
            h = np.multiply(z, mask, out=z)  # z is this forward's own array
            self._relu_masks[i] = mask if train else None
        self._trained_forward = train
        return self.linears[-1].forward(h, cache=train)

    def backward(self, head_grad: np.ndarray) -> list[np.ndarray]:
        """Fill grad with the gradient of every parameter given d(loss)/d(head).

        Returns per-array views into grad, aligned with parameters().
        Requires a preceding train-mode forward on the same batch.
        """
        if not self._trained_forward:
            raise RuntimeError("backward requires a train-mode forward first")
        d = self.linears[-1].backward(np.asarray(head_grad, dtype=float))
        late, last = self.spec.late_features, len(self.spec.hidden) - 1
        for i in range(last, -1, -1):
            d = d * self._relu_masks[i]
            if self.norms[i] is not None:
                d = self.norms[i].backward(d)
            d = self.linears[i].backward(d)
            if i == last and late > 0:
                d = d[:, :-late]
        return list(self._grad_views)
