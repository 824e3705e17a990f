import tracemalloc

import numpy as np
import pytest

from oracles import mlp_backward_sigmoid, softplus_closed_form, softplus_logaddexp
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
    rows, give the bits of the whole-array closed form."""
    monkeypatch.setattr(mlp, "_SOFTPLUS_TILE", 1000)
    weights, x, _ = _net_and_input(500)
    y, (inputs, acts) = mlp.forward(weights, x)
    h = x
    for i, (w, b) in enumerate(weights.layers()):
        assert inputs[i].tobytes() == h.tobytes()
        a = h @ w.T + b
        if i < len(acts):
            e, pos = acts[i]
            assert e.tobytes() == np.exp(-np.abs(a)).tobytes()
            assert np.array_equal(pos, a >= 0)
            a = softplus_closed_form(a)
        h = a
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


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("shape,tile", [
    ((50, 64), 1000),        # splits rows; the last tile takes the 200 left
    ((50, 64), 640),         # divides the array, ten rows a tile
    ((50, 64), 1 << 15),     # one tile, larger than the array
    ((7, 3), 8),             # splits rows of 3; the last tile takes 5 more
    ((32775,), None),        # the module's tile, and 7 elements over it
    ((1, 64), 64), ((0, 64), 1000), ((), 8)])
def test_softplus_inplace_tiles_match_whole_array_bytes(monkeypatch, keep, shape, tile):
    """Every tiling gives the whole-array closed form's bytes in `a`, NaN
    signs too, and with keep e = exp(-|a|) and pos = a >= 0 of the input.
    The tiles are multiples of 8 elements, the widest float64 SIMD vector,
    as `_SOFTPLUS_TILE` is."""
    if tile is not None:
        monkeypatch.setattr(mlp, "_SOFTPLUS_TILE", tile)
    a0 = _softplus_input(shape)
    a = a0.copy()
    got = mlp._softplus_inplace(a, keep)
    assert a.tobytes() == softplus_closed_form(a0).tobytes()
    if not keep:
        assert got is None
        return
    e, pos = got
    assert e.shape == pos.shape == shape
    assert e.tobytes() == np.exp(-np.abs(a0)).tobytes()
    assert pos.tobytes() == (a0 >= 0).tobytes()


@pytest.mark.parametrize("keep", [False, True])
def test_softplus_inplace_rejects_arrays_it_cannot_write_through(keep):
    """An F-order or a sliced array would be copied by its flat view, so
    the in-place writes would be lost: both are refused, untouched."""
    a = _softplus_input((40, 64))
    for bad in (np.asfortranarray(a), a[:, ::2], a[:, 1:]):
        before = bad.copy()
        with pytest.raises(ContractError, match="C-contiguous"):
            mlp._softplus_inplace(bad, keep)
        assert np.array_equal(bad, before, equal_nan=True)


def test_backward_matches_sigmoid_reference_bytes():
    """dflat has the reference's bytes, and the first layer's adjoint
    gives its input adjoint dx = da0 @ W0."""
    weights, x, dy = _net_and_input(3000)
    _, cache = mlp.forward(weights, x)
    want_dx, want_dflat = mlp_backward_sigmoid(weights, x, dy)
    w0 = next(weights.layers())[0]
    for _ in range(2):  # the cache is only read, so a second pullback agrees
        da0, dflat = mlp.backward(weights, cache, dy)
        assert da0.shape == (3000, weights.dims[1])
        assert (da0 @ w0).tobytes() == want_dx.tobytes()
        assert dflat.tobytes() == want_dflat.tobytes()


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
