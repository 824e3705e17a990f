"""Tiny fully-connected networks with explicit forward/backward passes.

Weights live in one flat float64 vector (per layer: row-major weight matrix,
then biases), so they can be produced by a hypernetwork, serialized to f32
blobs, and finite-difference checked component by component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError


# elements per tile of `_softplus_inplace`: 512 rows of a 64-unit layer, so
# every pass over a tile finds its operands in cache; a multiple of every
# SIMD width
_SOFTPLUS_TILE = 1 << 15


def _tiles(n: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of n elements in tiles of `_SOFTPLUS_TILE`, the
    last tile taking the remainder (one tile, maybe empty, when n is
    smaller)."""
    edges = [i * _SOFTPLUS_TILE for i in range(max(n // _SOFTPLUS_TILE, 1))] + [n]
    return list(zip(edges, edges[1:]))


def _softplus_inplace(a: np.ndarray) -> None:
    """Overwrite the C-contiguous float64 array `a` with softplus(a) =
    max(a, 0) + log1p(exp(-|a|)).

    exp(-|a|) never overflows, so the closed form holds for every a; NaN
    propagates, -inf gives 0 and +inf gives +inf.  Every pass runs over one
    tile of `_SOFTPLUS_TILE` elements before the next tile starts, so the
    tile stays in cache.  The passes are elementwise, so tiling changes no
    bit, NaN signs included: NumPy's SIMD add takes a NaN's sign from its
    first operand in the vector loop and from its second in the tail, so
    the tile is a multiple of the vector width and the last tile takes the
    remainder, and each element meets the loop part it meets over the
    whole array.  The only scratch is one (the last) tile."""
    if not a.flags.c_contiguous:
        raise ContractError("softplus works in place on a C-contiguous array")
    flat = a.reshape(-1)
    tiles = _tiles(flat.size)
    scratch = np.empty(tiles[-1][1] - tiles[-1][0])
    for lo, hi in tiles:
        t = flat[lo:hi]
        s = scratch[:hi - lo]
        np.abs(t, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.maximum(t, 0.0, out=t)
        t += np.log1p(s, out=s)


def softplus(x):
    """log(1 + exp(x)) in the closed form of `_softplus_inplace`: SIMD exp
    and log1p, within 3 ulp of np.logaddexp(0, x)."""
    out = np.array(x, dtype=np.float64, order="C")
    _softplus_inplace(out)
    return out[()]


def sigmoid(x):
    """1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, from
    e = exp(-|x|), which never overflows.  Since e <= 1, the numerator is
    max(e, x >= 0): no branch, and a NaN stays NaN."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0)
    out /= e + 1.0
    return out


def _sigmoid_from_softplus(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """softplus'(a) = sigmoid(a) from h = softplus(a) alone, as
    1 - exp(-h) = -expm1(-h): exact in math, and expm1 keeps the small
    values of a far below 0 accurate.  Within 2 ulp of `sigmoid`, and
    equal at a = +-inf, +-0 and NaN.  Written to `out`, which is
    returned."""
    out = np.negative(h, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
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


def forward(weights: MlpWeights, x: np.ndarray, keep: bool = True):
    """Batched forward pass; softplus hidden units, linear output.

    Each layer computes a = h @ W.T + b; a hidden layer then overwrites a
    with softplus(a) = max(a, 0) + log1p(exp(-|a|)) in place
    (`_softplus_inplace`).  Returns (y, cache), where the cache that
    `backward` reads is the list of layer inputs: x, then each hidden
    activation h = softplus(a).  Nothing else is kept: `backward` forms
    softplus'(a) from h (`_sigmoid_from_softplus`).  With keep=False,
    for a caller that never pulls back, the cache is None and no layer's
    input outlives the layer that reads it; y is the same to the bit.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != weights.dims[0]:
        raise ContractError(f"input dim {x.shape[-1]} != {weights.dims[0]}")
    h = x
    inputs = []
    n_layers = len(weights.dims) - 1
    for i, (w, b) in enumerate(weights.layers()):
        if keep:
            inputs.append(h)
        h = h @ w.T
        h += b
        if i < n_layers - 1:
            _softplus_inplace(h)
    return h, (inputs if keep else None)


def _hidden_adjoint(da, w, h, out, spare):
    """(da @ w) * softplus'(a), formed in the flat buffer `out` and
    returned as its (rows, width) view; softplus'(a) comes from the
    activation h = softplus(a), tile by tile, in the flat buffer `spare` of
    the same size, which is overwritten."""
    da_out = np.matmul(da, w, out=out.reshape(da.shape[0], -1))
    h = h.reshape(-1)
    for lo, hi in _tiles(out.size):
        out[lo:hi] *= _sigmoid_from_softplus(h[lo:hi], spare[lo:hi])
    return da_out


def backward(weights: MlpWeights, cache, dy: np.ndarray):
    """Adjoints of `forward`: returns (da0, dflat), where da0 is the
    adjoint of the first layer's pre-activation x @ W0.T + b0.  The input
    adjoint dx = da0 @ W0 is left to a caller that needs it; the library's
    callers need dflat only.  A hidden layer's softplus' comes from its
    kept activation, the next layer's input.  The hidden adjoints take
    turns in two (rows, width) buffers: a layer's da is formed in one by
    `np.matmul(out=)`, and its softplus' in the other, which held the
    adjoint just read, tile by tile (`_SOFTPLUS_TILE`) before each tile
    multiplies into da.  The buffer da0 does not use is freed before layer
    0's weight adjoint is formed.  The cache's first entry, the input x, may
    instead be a function that returns it: it is called then, so a caller
    may keep less than x and rebuild it.  The cache is only read, so one
    forward pass may be pulled back more than once."""
    dy = np.atleast_2d(np.asarray(dy, dtype=np.float64))
    layers = list(weights.layers())
    rows = dy.shape[0]
    size = rows * max(weights.dims[1:-1], default=0)
    bufs = [np.empty(size), np.empty(size)]
    grads = []
    da = dy
    for i in reversed(range(len(layers))):
        x = cache[i]
        if i == 0:
            bufs = None  # da keeps its own buffer alive
            if callable(x):
                x = x()
        grads.append(np.concatenate([(da.T @ x).ravel(), da.sum(axis=0)]))
        if i > 0:
            n = rows * layers[i][0].shape[1]
            da = _hidden_adjoint(da, layers[i][0], x, bufs[i % 2][:n], bufs[1 - i % 2][:n])
    return da, np.concatenate(grads[::-1])
