"""Tiny fully-connected networks with explicit forward/backward passes.

Weights live in one flat float64 vector (per layer: row-major weight matrix,
then biases), so they can be produced by a hypernetwork, serialized to f32
blobs, and finite-difference checked component by component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below; in place, so at most two temporaries of x's size are live
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def param_count(dims) -> int:
    return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class MlpWeights:
    """Layer sizes plus the flat parameter vector."""

    dims: tuple[int, ...]
    flat: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.flat = np.asarray(self.flat, dtype=np.float64).ravel()
        want = param_count(self.dims)
        if self.flat.size != want:
            raise ContractError(f"flat size {self.flat.size} != {want} for dims {self.dims}")
        if not np.all(np.isfinite(self.flat)):
            raise ContractError("non-finite weights")

    @classmethod
    def zeros(cls, dims) -> "MlpWeights":
        return cls(tuple(dims), np.zeros(param_count(dims)))

    @classmethod
    def random(cls, dims, seed: int, scale: float | None = None) -> "MlpWeights":
        rng = np.random.default_rng(seed)
        chunks = []
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            s = scale if scale is not None else 1.0 / np.sqrt(fan_in)
            chunks.append(rng.normal(0.0, s, size=fan_in * dims[i + 1]))
            chunks.append(np.zeros(dims[i + 1]))
        return cls(tuple(dims), np.concatenate(chunks))

    def layers(self):
        """Yield (W, b) views into the flat vector."""
        off = 0
        for i in range(len(self.dims) - 1):
            din, dout = self.dims[i], self.dims[i + 1]
            w = self.flat[off:off + din * dout].reshape(dout, din)
            off += din * dout
            b = self.flat[off:off + dout]
            off += dout
            yield w, b

    def copy_with(self, flat: np.ndarray) -> "MlpWeights":
        return MlpWeights(self.dims, flat)

    def require(self, name: str, n_in: int, n_out: int) -> None:
        """ContractError naming `name` unless the network maps n_in inputs
        to n_out outputs."""
        if self.dims[0] != n_in or self.dims[-1] != n_out:
            raise ContractError(f"{name} weights shaped {self.dims}, "
                                f"need input {n_in}, output {n_out}")


def forward(weights: MlpWeights, x: np.ndarray):
    """Batched forward pass; softplus hidden units, linear output.

    Returns (y, cache) where cache is consumed by `backward`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != weights.dims[0]:
        raise ContractError(f"input dim {x.shape[-1]} != {weights.dims[0]}")
    h = x
    pre = []
    inputs = []
    n_layers = len(weights.dims) - 1
    for i, (w, b) in enumerate(weights.layers()):
        inputs.append(h)
        a = h @ w.T + b
        pre.append(a)
        h = softplus(a) if i < n_layers - 1 else a
    return h, (pre, inputs)


def backward(weights: MlpWeights, cache, dy: np.ndarray):
    """Adjoints of `forward`: returns (dx, dflat)."""
    pre, inputs = cache
    dy = np.atleast_2d(np.asarray(dy, dtype=np.float64))
    n_layers = len(weights.dims) - 1
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    ws = [w for w, _ in weights.layers()]
    da = dy
    for i in reversed(range(n_layers)):
        grads_w[i] = da.T @ inputs[i]
        grads_b[i] = da.sum(axis=0)
        dx = da @ ws[i]
        if i > 0:
            dx = dx * sigmoid(pre[i - 1])  # softplus' = sigmoid
        da = dx
    dflat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grads_w, grads_b)])
    return da, dflat
