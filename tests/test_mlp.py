import tracemalloc

import numpy as np
import pytest

from oracles import (mlp_backward_expm1, mlp_backward_sigmoid, sigmoid_masked,
                     softplus_closed_form, softplus_logaddexp)
from ssdr import mlp
from ssdr.core import ContractError
from ssdr.mlp import MlpWeights

TINY = np.finfo(np.float64).smallest_subnormal


def _ulps(a, b):
    """Distance in units in the last place between non-negative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("scale", [0.1, 5.0, 300.0])
def test_softplus_within_3_ulp_of_logaddexp(scale):
    x = np.random.default_rng(4).normal(0.0, scale, size=(4096, 64))
    before = x.copy()
    got = mlp.softplus(x)
    assert x.tobytes() == before.tobytes()  # the input is left alone
    assert got.shape == x.shape
    assert _ulps(got, softplus_logaddexp(x)).max() <= 3
    assert mlp.softplus(x.T).tobytes() == np.ascontiguousarray(got.T).tobytes()
    assert mlp.softplus(x[:, 3]).tobytes() == got[:, 3].tobytes()


def test_softplus_edge_values_match_logaddexp_bits():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, TINY, -TINY, 1e-310, -1e-310,
                      745.0, -745.0, 746.0, -746.0])
    for x in (edges, np.float64(-745.0), np.zeros((0, 4))):
        got = mlp.softplus(x)
        assert np.shape(got) == np.shape(x)
        assert np.asarray(got).tobytes() == np.asarray(softplus_logaddexp(x)).tobytes()
    assert np.isnan(mlp.softplus(np.array([np.nan, 1.0]))).tolist() == [True, False]


def _net_and_input(rows, seed=6):
    """A (7, 16, 16, 16, 3) network on inputs whose pre-activations fall on
    both sides of the softplus's bend."""
    weights = MlpWeights.random((7, 16, 16, 16, 3), seed=seed)
    rng = np.random.default_rng(seed)
    return weights, rng.normal(0.0, 2.0, (rows, 7)), rng.normal(size=(rows, 3))


def test_forward_hidden_layers_are_softplus_bytes(monkeypatch):
    """The tiles of the in-place softplus, here 1000 elements that split
    rows, give the bits of the whole-array closed form, and the cache is
    the layer inputs and nothing else: x itself, then each hidden
    activation."""
    monkeypatch.setattr(mlp, "_SOFTPLUS_TILE", 1000)
    weights, x, _ = _net_and_input(500)
    y, cache = mlp.forward(weights, x)
    assert type(cache) is list and len(cache) == len(weights.dims) - 1
    assert cache[0] is x
    h = x
    for i, (w, b) in enumerate(weights.layers()):
        assert cache[i].tobytes() == h.tobytes()
        h = h @ w.T + b
        if i < len(cache) - 1:
            h = softplus_closed_form(h)
    assert y.tobytes() == h.tobytes()


def _softplus_input(shape, seed=9):
    """Seeded entries on both sides of the bend, with inf, -inf, NaN of
    both signs and -0 among them, and NaN in the last two."""
    a = np.random.default_rng(seed).normal(0.0, 20.0, shape)
    flat = a.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = np.inf
    flat[5::13] = -np.inf
    flat[2::17] = np.nan
    flat[4::19] = -np.nan
    flat[-2:] = np.nan
    return a


def _assert_sigmoid_within_2_ulp(got, a):
    """got is within 2 ulp of the logistic sigmoid of a, has its bytes at
    +-inf and +-0, and is NaN where a is (NaN sign aside, as for
    `sigmoid_masked`)."""
    want = sigmoid_masked(a)
    nan = np.isnan(a)
    edge = np.isinf(a) | (a == 0)
    assert np.isnan(got[nan]).all()
    assert got[edge].tobytes() == want[edge].tobytes()
    assert _ulps(got[~nan & ~edge], want[~nan & ~edge]).max(initial=0) <= 2


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("shape,tile", [
    ((50, 64), 1000),        # splits rows; the last tile takes the 200 left
    ((50, 64), 640),         # divides the array, ten rows a tile
    ((50, 64), 1 << 15),     # one tile, larger than the array
    ((7, 3), 8),             # splits rows of 3; the last tile takes 5 more
    ((32775,), None),        # the module's tile, and 7 elements over it
    ((1, 64), 64), ((0, 64), 1000), ((), 8)])
def test_softplus_inplace_tiles_match_whole_array_bytes(monkeypatch, grad, shape, tile):
    """Every tiling gives the whole-array closed form's bytes in `a`, NaN
    signs too.  The tiles are multiples of 8 elements, the widest float64
    SIMD vector, as `_SOFTPLUS_TILE` is.  With grad, the softplus' that
    `backward` forms from the tiled activation is within 2 ulp of the
    logistic sigmoid of the input, and equal to it at +-inf, +-0 and
    NaN."""
    if tile is not None:
        monkeypatch.setattr(mlp, "_SOFTPLUS_TILE", tile)
    a0 = _softplus_input(shape)
    a = a0.copy()
    assert mlp._softplus_inplace(a) is None
    assert a.tobytes() == softplus_closed_form(a0).tobytes()
    if not grad:
        return
    a, a0 = np.atleast_1d(a), np.atleast_1d(a0)  # `backward` forms it on 2-d arrays
    got = mlp._sigmoid_from_softplus(a, np.empty_like(a))
    assert got.shape == a0.shape
    _assert_sigmoid_within_2_ulp(got, a0)


def test_sigmoid_from_softplus_within_2_ulp_of_logistic():
    """softplus'(a) = -expm1(-softplus(a)) stays within 2 ulp of the
    logistic sigmoid from a = -745, where sigmoid(a) is the smallest
    subnormal, to +40, where it rounds to 1, and at the edge values; the
    activation is only read."""
    a = np.concatenate([np.linspace(-745.0, 40.0, 1 << 20),
                        np.random.default_rng(5).normal(0.0, 3.0, 1 << 16),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY]])
    h = mlp.softplus(a)
    before = h.copy()
    got = mlp._sigmoid_from_softplus(h, np.empty_like(h))
    assert h.tobytes() == before.tobytes()
    _assert_sigmoid_within_2_ulp(got, a)


@pytest.mark.parametrize("tiled", [False, True])
def test_softplus_inplace_rejects_arrays_it_cannot_write_through(monkeypatch, tiled):
    """An F-order or a sliced array would be copied by its flat view, so
    the in-place writes would be lost: both are refused, untouched, also
    when the array spans many tiles, so no tile is written before the
    refusal."""
    if tiled:
        monkeypatch.setattr(mlp, "_SOFTPLUS_TILE", 64)
    a = _softplus_input((40, 64))
    for bad in (np.asfortranarray(a), a[:, ::2], a[:, 1:]):
        before = bad.copy()
        with pytest.raises(ContractError, match="C-contiguous"):
            mlp._softplus_inplace(bad)
        assert np.array_equal(bad, before, equal_nan=True)


def test_backward_matches_sigmoid_reference_bytes():
    """dflat has the bytes of the reference that forms sigmoid(a) =
    softplus'(a) as -expm1(-h) from each hidden activation h, and the
    first layer's adjoint gives its input adjoint dx = da0 @ W0."""
    weights, x, dy = _net_and_input(3000)
    _, cache = mlp.forward(weights, x)
    want_dx, want_dflat = mlp_backward_expm1(weights, x, dy)
    w0 = next(weights.layers())[0]
    for _ in range(2):  # the cache is only read, so a second pullback agrees
        da0, dflat = mlp.backward(weights, cache, dy)
        assert da0.shape == (3000, weights.dims[1])
        assert (da0 @ w0).tobytes() == want_dx.tobytes()
        assert dflat.tobytes() == want_dflat.tobytes()


def test_backward_near_the_logistic_reference():
    """Against the logistic reference, sigmoid(a) of the recomputed
    pre-activations, dflat and dx move by a few ulp: measured 3.0e-16 and
    3.3e-16 of their largest component here, bounded at 1e-15."""
    weights, x, dy = _net_and_input(3000)
    da0, dflat = mlp.backward(weights, mlp.forward(weights, x)[1], dy)
    want_dx, want_dflat = mlp_backward_sigmoid(weights, x, dy)
    for got, want in ((da0 @ next(weights.layers())[0], want_dx), (dflat, want_dflat)):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_forward_without_cache_has_the_cached_bytes():
    """A render-only forward (keep=False) gives the bytes of the forward
    that keeps its cache, on the same rows, and keeps no cache."""
    weights, x, _ = _net_and_input(3000)
    for rows in (slice(0, 3000), slice(1000, 2500)):
        y, cache = mlp.forward(weights, x[rows], keep=False)
        assert cache is None
        assert y.tobytes() == mlp.forward(weights, x[rows])[0].tobytes()


def test_forward_rejects_wrong_input_width():
    with pytest.raises(ContractError, match="input dim 5 != 4"):
        mlp.forward(MlpWeights.zeros((4, 3)), np.zeros((2, 5)))


def test_forward_temporaries_below_half_an_activation():
    """Beyond the output and cache it returns, `forward` on a volume field's
    rows of one learned render holds less than half an (N, 64) activation
    at its peak: the softplus scratch is one tile.  (A whole-array
    temporary would exceed them by one activation less the (N, 4)
    output, so "less than one activation" would not catch it.)"""
    n = 36096
    weights = MlpWeights.random((63, 64, 64, 64, 4), seed=2)
    x = np.random.default_rng(2).normal(size=(n, 63))
    tracemalloc.start()
    try:
        y, cache = mlp.forward(weights, x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < n * 64 * 8 / 2, (peak - held) / (n * 64 * 8)


def test_backward_calls_a_callable_input_once_for_layer_0():
    """A cache whose first entry is a function that returns x gives the
    bytes of the cache that holds x; the function is called once per
    pullback, so each pullback rebuilds x for layer 0's weight adjoint."""
    weights, x, dy = _net_and_input(3000)
    _, cache = mlp.forward(weights, x)
    calls = []

    def rebuild():
        calls.append(1)
        return x.copy()

    want = mlp.backward(weights, cache, dy)
    for n in (1, 2):
        got = mlp.backward(weights, [rebuild, *cache[1:]], dy)
        assert len(calls) == n
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_backward_temporaries_stay_near_two_activations():
    """Beyond dy and the cache, `backward` on a volume field's rows holds
    at most two (N, 64) activations and a little more at its peak: the
    hidden adjoints take turns in two buffers and softplus' is formed in
    the spare one, and one buffer is freed before a callable input is
    rebuilt for layer 0 (with both kept, the rebuilt (N, 63) input took it
    to almost three)."""
    n = 36096
    weights = MlpWeights.random((63, 64, 64, 64, 4), seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, 63))
    _, cache = mlp.forward(weights, x)
    dy = rng.normal(size=(n, 4))
    cache[0] = lambda: np.array(x)
    tracemalloc.start()
    try:
        da0, dflat = mlp.backward(weights, cache, dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert da0.shape == (n, 64)
    assert peak < 2.1 * n * 64 * 8, peak / (n * 64 * 8)
