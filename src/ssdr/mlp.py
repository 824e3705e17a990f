"""Tiny fully-connected networks with explicit forward/backward passes.

Weights live in one flat float64 vector (per layer: row-major weight matrix,
then biases), so they can be produced by a hypernetwork, serialized to f32
blobs, and finite-difference checked component by component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError


# elements per log1p temporary in `_softplus_inplace`: 4096 rows of a
# 64-unit layer, so the temporary stays small beside an (N, 64) activation
_LOG1P_BLOCK = 1 << 18


def _softplus_inplace(a: np.ndarray, keep: bool = True, e: np.ndarray | None = None):
    """Overwrite the C-contiguous float64 array `a` with softplus(a) =
    max(a, 0) + log1p(exp(-|a|)) and return (e, pos): e = exp(-|a|) and
    pos = a >= 0 of the input, which give softplus'(a) = sigmoid(a) with no
    further exp (see `backward`).  With keep=False pos is not formed, None
    is returned, and e is scratch: the given array `e` of a's shape, or a
    new one.

    exp(-|a|) never overflows, so the closed form holds for every a; NaN
    propagates, -inf gives 0 and +inf gives +inf.  With keep, log1p runs
    over blocks of `_LOG1P_BLOCK` elements, so its temporary is one block,
    not one `a`; without, it overwrites e."""
    pos = a >= 0 if keep else None
    if e is None:
        e = np.empty_like(a)
    np.abs(a, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(a, 0.0, out=a)
    if not keep:
        a += np.log1p(e, out=e)
        return None
    flat_a, flat_e = a.reshape(-1), e.reshape(-1)
    for lo in range(0, flat_a.size, _LOG1P_BLOCK):
        flat_a[lo:lo + _LOG1P_BLOCK] += np.log1p(flat_e[lo:lo + _LOG1P_BLOCK])
    return e, pos


def softplus(x):
    """log(1 + exp(x)) in the closed form of `_softplus_inplace`: SIMD exp
    and log1p, within 3 ulp of np.logaddexp(0, x)."""
    out = np.array(x, dtype=np.float64, order="C")
    _softplus_inplace(out, keep=False)
    return out[()]


def _sigmoid_from_exp(e, pos):
    """sigmoid(x) from e = exp(-|x|) and pos = x >= 0: 1 / (1 + e) where
    pos, e / (1 + e) elsewhere.  e is only read.  Since e <= 1, the
    numerator is max(e, pos): no branch, and a NaN e stays NaN."""
    out = np.maximum(e, pos)
    out /= e + 1.0
    return out


def sigmoid(x):
    # e = exp(-|x|) never overflows
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid_from_exp(np.exp(-np.abs(x)), x >= 0)


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


def workspace(weights: MlpWeights, rows: int) -> np.ndarray:
    """The `out` of a render-only `forward` on at most `rows` rows: two
    ping-pong activation buffers and one exp(-|a|) buffer, each of
    rows x the widest layer output."""
    return np.empty((3, rows * max(weights.dims[1:])))


def forward(weights: MlpWeights, x: np.ndarray, keep: bool = True, out=None):
    """Batched forward pass; softplus hidden units, linear output.

    Each layer computes a = h @ W.T + b; a hidden layer then overwrites a
    with softplus(a) = max(a, 0) + log1p(exp(-|a|)) in place
    (`_softplus_inplace`).  Returns (y, cache), where the cache that
    `backward` reads is (inputs, acts):
      inputs  the input h of every layer: x, then each hidden activation
      acts    per hidden layer, (e, pos) with e = exp(-|a|) and pos = a >= 0
              of its pre-activation a, from which `backward` forms
              softplus'(a) = sigmoid(a) without a second exp
    With keep=False, for a caller that never pulls back, the cache is None
    and no layer's input or (e, pos) outlives the layer that made it; y is
    the same to the bit.  Such a caller may pass a `workspace` of at least
    x's rows as `out`: the layers then write into it and allocate nothing
    of an activation's size, and y is a view into it, valid until the
    workspace is written again.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != weights.dims[0]:
        raise ContractError(f"input dim {x.shape[-1]} != {weights.dims[0]}")
    if keep and out is not None:
        raise ContractError("a forward that keeps its cache has no workspace")
    n = x.shape[0]
    h = x
    inputs = []
    acts = []
    n_layers = len(weights.dims) - 1
    for i, (w, b) in enumerate(weights.layers()):
        if keep:
            inputs.append(h)
        if out is None:
            h = h @ w.T
        else:
            h = np.matmul(h, w.T, out=out[i % 2, :n * w.shape[0]].reshape(n, w.shape[0]))
        h += b
        if i < n_layers - 1:
            act = _softplus_inplace(h, keep,
                                    None if out is None else out[2, :h.size].reshape(h.shape))
            if keep:
                acts.append(act)
    return h, ((inputs, acts) if keep else None)


def backward(weights: MlpWeights, cache, dy: np.ndarray):
    """Adjoints of `forward`: returns (da0, dflat), where da0 is the
    adjoint of the first layer's pre-activation x @ W0.T + b0.  The input
    adjoint dx = da0 @ W0 is left to a caller that needs it; the library's
    callers need dflat only.  The cache is only read, so one forward pass
    may be pulled back more than once."""
    inputs, acts = cache
    dy = np.atleast_2d(np.asarray(dy, dtype=np.float64))
    n_layers = len(weights.dims) - 1
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    ws = [w for w, _ in weights.layers()]
    da = dy
    for i in reversed(range(n_layers)):
        grads_w[i] = da.T @ inputs[i]
        grads_b[i] = da.sum(axis=0)
        if i > 0:
            da = da @ ws[i]
            da *= _sigmoid_from_exp(*acts[i - 1])  # softplus' = sigmoid
    dflat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grads_w, grads_b)])
    return da, dflat
