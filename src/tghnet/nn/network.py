"""Dense feed-forward network: linear layers, ReLU, batch normalization,
and late-feature injection, with hand-written reverse-mode gradients.

A NetworkSpec is the whole shape: every hidden layer is linear, then
batch norm when the spec asks for it, then ReLU; the head is linear.  The
input matrix carries the base features first and the late-injected columns
last; late columns bypass the early layers and join the input of the last
hidden layer.  Network runs the layers as one loop over views of its state
vector.  NetworkConfig is the "network" object of a config and of a model
header; persist.ModelHeader.spec turns it into a NetworkSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rows per eval-mode forward when scoring or validating: a chunk's
# activations stay in cache, and memory does not grow with the row count.
EVAL_CHUNK = 1024
# batch norm: the running statistics' update weight, and the variance offset
MOMENTUM = 0.1
EPS = 1e-5


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
            shapes += [(n_in, n_out), (n_out,)]  # W, then b or, with batch norm, gamma
            if self.batch_norm and i < len(self.hidden):
                shapes.append((n_out,))  # beta
                stats += [(n_out,)] * 2
        return shapes, stats

    @property
    def state_size(self) -> int:
        """Length of the state vector, known before any array is allocated."""
        return sum(math.prod(s) for part in self.state_shapes() for s in part)


def _views(vec: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of vec with the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [v.reshape(shape) for v, shape in zip(np.split(vec, ends[:-1]), shapes)]


class Network:
    """Feed-forward network assembled from a NetworkSpec.

    All parameters and batch-norm running statistics live in one float64
    vector ``state``, in model-file order: per layer W (row-major), then b,
    or gamma, beta for a batch-norm layer; then running_mean, running_var
    per batch-norm layer.  ``params`` is its leading parameter part and
    ``grad`` (filled by backward()) has the same layout.  ``layers`` holds
    per layer the views (w, b, dw, db, bn) into both, bn being None or
    (gamma, beta, running_mean, running_var, dgamma, dbeta) and b, db None.
    W starts uniform in +-sqrt(6 / in_dim) from the seed, b and beta at 0,
    gamma at 1.

    Batch norm normalizes with the batch mean, which would cancel a b, and
    the (biased) variance in train mode; the running statistics move
    MOMENTUM of the way to the batch's mean and unbiased variance.  In eval
    mode it is folded into its linear layer: with
    s = gamma / sqrt(running_var + EPS), the layer is
    h @ (w * s) + (beta - running_mean * s).  ReLU is np.maximum.  A
    train-mode forward replaces, layer by layer, the list of (input,
    (inv_std, xc) or None) that backward() reads; eval mode drops it.  xc
    is its layer's h @ w, centred in place, and a ReLU's mask is where the
    next layer's input, late columns left out, is > 0.  backward() writes
    only arrays it made and grad, so a second call repeats the gradients.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        shapes, stats = spec.state_shapes()
        n_params = sum(math.prod(s) for s in shapes)
        self.state = np.zeros(spec.state_size)
        self.params = self.state[:n_params]
        self.grad = np.zeros(n_params)
        views = _views(self.state, shapes + stats)
        self._param_views = views[:len(shapes)]
        self._grad_views = _views(self.grad, shapes)
        p, s, g = iter(self._param_views), iter(views[len(shapes):]), iter(self._grad_views)
        rng = np.random.default_rng(seed)
        self.layers: list[tuple] = []
        for i in range(len(spec.hidden) + 1):
            w, dw = next(p), next(g)
            bound = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            bn = None
            if spec.batch_norm and i < len(spec.hidden):
                bn = tuple(next(it) for it in (p, p, s, s, g, g))
                bn[0][...] = bn[3][...] = 1.0  # gamma, running_var; the rest starts at 0
            b, db = (None, None) if bn else (next(p), next(g))
            self.layers.append((w, b, dw, db, bn))
        self._cache: list[tuple] | None = None

    def parameters(self) -> list[np.ndarray]:
        """Per-array views into params: per layer W, then b or gamma, beta."""
        return list(self._param_views)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(f"expected input of shape (n, {self.spec.input_dim}), got {x.shape}")
        # overwritten per layer: freeing a batch at once lets malloc trim, then refault, the heap
        self._cache = cache = (self._cache or [None] * len(self.layers)) if train else None
        spec = self.spec
        late, base, n_hidden = spec.late_features, spec.base_features, len(spec.hidden)
        h, n, norm = x[:, :base], len(x), None
        for i, (w, b, _, _, bn) in enumerate(self.layers):
            if i == n_hidden - 1 and late > 0:
                h = np.concatenate([h, x[:, base:]], axis=1)
            if bn is None:
                z = h @ w
                z += b
            elif train:
                gamma, beta, running_mean, running_var = bn[:4]
                z = h @ w
                mean = np.einsum("ij->j", z) / n  # in 0.6x the time of np.add.reduce
                z -= mean
                var = np.einsum("ij,ij->j", z, z) / n
                inv_std = 1.0 / np.sqrt(var + EPS)
                running_mean[...] = (1.0 - MOMENTUM) * running_mean + MOMENTUM * mean
                unbiased = var * n / max(n - 1, 1)
                running_var[...] = (1.0 - MOMENTUM) * running_var + MOMENTUM * unbiased
                norm, z = (inv_std, z), z * (gamma * inv_std)  # the cache keeps z centred
                z += beta
            else:  # eval-mode batch norm folded into the layer, from state on every call
                gamma, beta, running_mean, running_var = bn[:4]
                scale = gamma / np.sqrt(running_var + EPS)
                z = h @ (w * scale)
                z += beta - running_mean * scale
            if i < n_hidden:
                np.maximum(z, 0.0, out=z)  # z is this forward's own array
            if train:
                cache[i] = (h, norm if bn else None)
            h = z
        return h

    def backward(self, head_grad: np.ndarray) -> list[np.ndarray]:
        """Fill grad with the gradient of every parameter given d(loss)/d(head).

        Returns per-array views into grad, aligned with parameters().
        Requires a preceding train-mode forward on the same batch.
        """
        if self._cache is None:
            raise RuntimeError("backward requires a train-mode forward first")
        d = np.asarray(head_grad, dtype=float)
        late, n_hidden = self.spec.late_features, len(self.spec.hidden)
        for i in range(n_hidden, -1, -1):
            (w, _, dw, db, bn), (h, norm) = self.layers[i], self._cache[i]
            if i < n_hidden:  # d is this backward's own array; the mask skips late columns
                np.multiply(d, self._cache[i + 1][0][:, :w.shape[1]] > 0, out=d)
            if bn is not None:
                (gamma, *_, dgamma, dbeta), (inv_std, xc), n = bn, norm, d.shape[0]
                np.multiply(np.einsum("ij,ij->j", d, xc), inv_std, out=dgamma)
                np.einsum("ij->j", d, out=dbeta)
                # through the batch mean and variance; the scale goes onto the products
                d -= xc * (inv_std * dgamma / n)
                d -= dbeta / n
                scale = gamma * inv_std
            np.matmul(h.T, d, out=dw)
            if bn is None:
                np.add.reduce(d, 0, out=db)
            else:
                w = w * scale
                dw *= scale
            if i > 0:  # nothing reads the input's gradient
                d = d @ w.T
                if i == n_hidden - 1 and late > 0:
                    d = d[:, :-late]
        return list(self._grad_views)
