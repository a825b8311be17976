"""Dense feed-forward network: linear layers, ReLU, batch normalization,
and late-feature injection, with hand-written reverse-mode gradients.

The input matrix carries the base features first and the late-injected
columns last; late columns bypass the early layers and are concatenated to
the activations feeding the penultimate layer.  The final (head) layer is
always linear with no batch norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "identity")

# Rows per eval-mode forward when scoring or validating: a chunk's
# activations stay in cache, and memory does not grow with the row count.
EVAL_CHUNK = 1024


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    batch_norm: bool = False

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"in_dim, out_dim: expected >= 1, got {self.in_dim}, {self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation: expected one of {ACTIVATIONS}, got {self.activation!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer specs plus the late-injection column count.

    ``late_features`` input columns skip the early layers and are
    concatenated immediately before the penultimate layer, whose in_dim
    must account for them.  The head (last layer) must be identity with
    no batch norm and out_dim equal to head_dim.
    """

    layers: tuple[LayerSpec, ...]
    late_features: int = 0
    head_dim: int = 4

    def __post_init__(self):
        if not self.layers:
            raise ValueError("layers: expected at least one layer")
        if self.late_features < 0:
            raise ValueError(f"late_features: expected >= 0, got {self.late_features}")
        if self.late_features > 0 and len(self.layers) < 2:
            raise ValueError("late_features: late injection needs at least two layers")
        head = self.layers[-1]
        if head.activation != "identity" or head.batch_norm:
            raise ValueError("layers: the head layer must be identity without batch norm")
        if head.out_dim != self.head_dim:
            raise ValueError(f"head_dim: {self.head_dim} != head out_dim {head.out_dim}")
        penult = len(self.layers) - 2
        for i in range(1, len(self.layers)):
            expected = self.layers[i - 1].out_dim
            if i == penult:
                expected += self.late_features
            if self.layers[i].in_dim != expected:
                raise ValueError(
                    f"layers: layer {i} expects in_dim {expected}, got {self.layers[i].in_dim}"
                )

    def state_shapes(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Shapes of the arrays in a Network's state, in its model-file order:
        the parameters, then the batch-norm running statistics."""
        shapes, stats = [], []
        for layer in self.layers:
            shapes += [(layer.in_dim, layer.out_dim), (layer.out_dim,)]
            if layer.batch_norm:
                shapes += [(layer.out_dim,)] * 2
                stats += [(layer.out_dim,)] * 2
        return shapes, stats

    @property
    def state_size(self) -> int:
        """Length of the state vector, known before any array is allocated."""
        return sum(math.prod(s) for part in self.state_shapes() for s in part)

    @property
    def base_features(self) -> int:
        first = self.layers[0].in_dim
        if len(self.layers) >= 2 and len(self.layers) - 2 == 0:
            first -= self.late_features
        return first

    @property
    def input_dim(self) -> int:
        return self.base_features + self.late_features


def dense_spec(in_features: int, hidden: list[int] | tuple[int, ...], head_dim: int,
               late_features: int = 0, batch_norm: bool = True) -> NetworkSpec:
    """Build the spec for a fully connected ReLU stack with a linear head."""
    base = in_features - late_features
    if base < 1:
        raise ValueError("at least one base (non-late) feature is required")
    dims = [base] + list(hidden) + [head_dim]
    n_layers = len(dims) - 1
    layers = []
    for i in range(n_layers):
        in_dim = dims[i]
        if i == n_layers - 2:
            in_dim += late_features
        is_head = i == n_layers - 1
        layers.append(
            LayerSpec(
                in_dim=in_dim,
                out_dim=dims[i + 1],
                activation="identity" if is_head else "relu",
                batch_norm=batch_norm and not is_head,
            )
        )
    return NetworkSpec(tuple(layers), late_features=late_features, head_dim=head_dim)


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
        for layer in spec.layers:
            self.linears.append(Linear(next(p), next(p), next(g), next(g), rng))
            self.norms.append(BatchNorm(
                layer.out_dim, arrays=tuple(next(it) for it in (p, p, s, s, g, g)))
                if layer.batch_norm else None)
        self._relu_masks: list[np.ndarray | None] = [None] * len(spec.layers)
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
        late = self.spec.late_features
        base = self.spec.base_features
        h = x[:, :base]
        x_late = x[:, base:]
        penult = len(self.spec.layers) - 2
        for i, layer in enumerate(self.spec.layers):
            if i == penult and late > 0:
                h = np.concatenate([h, x_late], axis=1)
            z = self.linears[i].forward(h, cache=train)
            bn = self.norms[i]
            if bn is not None:
                z = bn.forward(z, train=train)
            if layer.activation == "relu":
                mask = z > 0
                h = np.multiply(z, mask, out=z)  # z is this forward's own array
                self._relu_masks[i] = mask if train else None
            else:
                h = z
                self._relu_masks[i] = None
        self._trained_forward = train
        return h

    def backward(self, head_grad: np.ndarray) -> list[np.ndarray]:
        """Fill grad with the gradient of every parameter given d(loss)/d(head).

        Returns per-array views into grad, aligned with parameters().
        Requires a preceding train-mode forward on the same batch.
        """
        if not self._trained_forward:
            raise RuntimeError("backward requires a train-mode forward first")
        d = np.asarray(head_grad, dtype=float)
        penult = len(self.spec.layers) - 2
        for i in range(len(self.spec.layers) - 1, -1, -1):
            if self.spec.layers[i].activation == "relu":
                d = d * self._relu_masks[i]
            if self.norms[i] is not None:
                d = self.norms[i].backward(d)
            d = self.linears[i].backward(d)
            if i == penult and self.spec.late_features > 0:
                d = d[:, : -self.spec.late_features]
        return list(self._grad_views)
