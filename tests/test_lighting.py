import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_light_corner_loop, positional_encoding_rowmajor
from ssdr import lighting, mlp, scenes
from ssdr.core import ContractError, normalize, unproject
from ssdr.inverse import AdamState
from ssdr.lighting import (FeatureGrid, GridLight, SkyDiscLight, analytic_lightfield,
                           decoder_input_dim, decoder_inputs, positional_encoding,
                           traced_radiance_batch)


def test_posenc_zero():
    enc = positional_encoding(np.zeros(1), 2)
    assert np.allclose(enc, [0.0, 0.0, 1.0, 0.0, 1.0])


def test_posenc_first_band_half():
    enc = positional_encoding(np.array([0.5]), 1)
    assert np.allclose(enc, [0.5, 1.0, 0.0], atol=1e-12)  # sin(pi/2), cos(pi/2)


def test_posenc_output_length():
    enc = positional_encoding(np.zeros(3), 6)
    assert enc.shape == (39,)
    enc = positional_encoding(np.zeros((7, 3)), 4)
    assert enc.shape == (7, 27)
    assert positional_encoding(np.zeros((0, 3)), 4).shape == (0, 27)
    with pytest.raises(ContractError, match="frequency band"):
        positional_encoding(np.zeros(3), 0)


def test_posenc_component_major_layout():
    x = np.array([0.25, 0.75])
    enc = positional_encoding(x, 2)
    per = 2 * 2 + 1
    for c in range(2):
        chunk = enc[c * per:(c + 1) * per]
        assert chunk[0] == x[c]
        assert np.isclose(chunk[1], np.sin(np.pi * x[c]))
        assert np.isclose(chunk[2], np.cos(np.pi * x[c]))


def test_posenc_doubling_within_stated_bound():
    """The x column and band 0 have the bits of the direct formula
    sin/cos(x * 2^k * pi); band k >= 1, made by angle doubling, is within
    the docstring's 2^k * 4 eps of it."""
    bands = 13
    x = np.random.default_rng(5).uniform(-25.0, 25.0, (3000, 3))
    enc = positional_encoding(x, bands).reshape(3000, 3, 2 * bands + 1)
    ang = x[..., None] * ((2.0 ** np.arange(bands)) * np.pi)
    sin, cos = np.sin(ang), np.cos(ang)
    assert enc[..., 0].tobytes() == x.tobytes()
    assert enc[..., 1].tobytes() == sin[..., 0].tobytes()
    assert enc[..., 2].tobytes() == cos[..., 0].tobytes()
    eps = np.finfo(np.float64).eps
    for k in range(1, bands):
        bound = 2.0 ** k * 4 * eps
        assert np.max(np.abs(enc[..., 1 + 2 * k] - sin[..., k])) <= bound, k
        assert np.max(np.abs(enc[..., 2 + 2 * k] - cos[..., k])) <= bound, k


@pytest.mark.parametrize("bands", [1, 4, 10])
@pytest.mark.parametrize("shape", [(0, 3), (3,), (7, 3), (2, 5, 3)])
def test_posenc_has_the_row_major_bytes(shape, bands):
    """Stored batch-innermost, the encoding reads, row-major, as the
    row-major construction's bytes; 2-D input gives an F-order view."""
    x = np.random.default_rng(3).uniform(-25.0, 25.0, shape)
    enc = positional_encoding(x, bands)
    want = positional_encoding_rowmajor(x, bands)
    assert enc.shape == want.shape
    assert enc.tobytes() == want.tobytes()
    if len(shape) == 2:
        assert enc.flags.f_contiguous


@pytest.mark.parametrize("x,bands", [
    (np.array([0.5, np.nan, 0.1]), 4), (np.array([[0.5, 0.2, -np.inf]]), 4),
    (np.zeros(3), 0), (np.zeros(3), -1)])
def test_posenc_rejects_bad_input(x, bands):
    with pytest.raises(ContractError):
        positional_encoding(x, bands)


def test_feature_grid_rejects_non_3d_data():
    with pytest.raises(ContractError, match=r"\(H, W, C\)"):
        FeatureGrid(np.zeros((4, 4)))


@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
@settings(max_examples=300)
def test_posenc_injective_on_unit_interval(a, b):
    if abs(a - b) < 1e-12:
        return
    # the sinusoid columns alone, without the input column
    ea = positional_encoding(np.array([a]), 1)[1:]
    eb = positional_encoding(np.array([b]), 1)[1:]
    assert not np.allclose(ea, eb, atol=1e-15)


def test_feature_grid_exact_at_nodes():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(5, 7, 9))
    grid = FeatureGrid(data)
    for (y, x) in [(0, 0), (2, 3), (4, 6)]:
        got = grid.sample(np.array([[float(x), float(y)]]))[0]
        assert np.array_equal(got, data[y, x])


def test_feature_grid_bilinear_midpoint():
    data = np.zeros((2, 2, 1))
    data[0, 0, 0], data[0, 1, 0], data[1, 0, 0], data[1, 1, 0] = 1.0, 2.0, 3.0, 4.0
    grid = FeatureGrid(data)
    assert np.isclose(grid.sample(np.array([[0.5, 0.5]]))[0, 0], 2.5)


def test_constant_field():
    lf = analytic_lightfield("constant", value=2.0)
    out = lf.radiance(np.zeros((4, 3)), normalize(np.ones((4, 3))))
    assert np.allclose(out, 2.0)


def test_sky_gradient_zenith_exact():
    lf = analytic_lightfield("sky", zenith=[1.0, 2.0, 3.0], horizon=[0.1, 0.1, 0.1])
    up = np.array([[0.0, -1.0, 0.0]])
    assert np.allclose(lf.radiance(np.zeros((1, 3)), up), [[1.0, 2.0, 3.0]])
    side = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(lf.radiance(np.zeros((1, 3)), side), [[0.1, 0.1, 0.1]])


def test_sky_disc_adds_source():
    src = normalize(np.array([0.0, -0.8, 0.6]))
    lf = SkyDiscLight(zenith=[0.2] * 3, horizon=[0.1] * 3, disc_direction=src,
                      disc_radius=0.1, disc_color=[50.0, 40.0, 30.0])
    on = lf.radiance(np.zeros((1, 3)), src[None, :])[0]
    off = lf.radiance(np.zeros((1, 3)),
                      normalize(np.array([[0.9, 0.1, 0.4]])))[0]
    assert on[0] > 49.0
    assert off[0] < 1.0


def test_grid_light_node_exact():
    vals = np.zeros((2, 2, 2, 3, 4, 3))
    vals[1, 0, 1, 2, 3] = [1.0, 0.0, 0.0]
    gl = GridLight(vals, [[-1, -1, -1], [1, 1, 1]])
    pos, d = gl.node_position((1, 0, 1, 2, 3))
    assert np.allclose(gl.radiance(pos[None, :], d[None, :])[0], [1.0, 0.0, 0.0])


def test_grid_light_single_cell():
    vals = np.full((1, 1, 1, 1, 1, 3), 0.0)
    vals[0, 0, 0, 0, 0] = [1.0, 0.0, 0.0]
    gl = GridLight(vals, [[0, 0, 0], [1, 1, 1]])
    out = gl.radiance(np.array([[0.5, 0.5, 0.5]]), normalize(np.ones((1, 3))))
    assert np.allclose(out, [[1.0, 0.0, 0.0]])


def _grid_lanes(rng, n, gl):
    """Positions reaching past the bounds [[-1, -2, 0], [1, 2, 3]] on every
    side, some coordinates exactly on a cell face or at a bound, random
    unit directions, and the axis and phi-seam directions."""
    p = rng.uniform([-2.0, -3.0, -1.0], [2.0, 3.0, 4.0], (n, 3))
    for ax in range(3):
        faces = np.array([gl.node_position((i,) * 5)[0][ax]
                          for i in range(gl.values.shape[ax])])
        on = rng.random(n) < 0.3
        p[on, ax] = rng.choice(faces, on.sum())
    d = normalize(rng.normal(size=(n, 3)))
    special = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                        [1.0, 1e-300, 0.0], [1.0, -1e-300, 0.0], [1.0, -0.0, 0.0],
                        [-1.0, 1e-300, 0.0], [-1.0, -1e-300, 0.0], [-1.0, -0.0, 0.0],
                        [0.6, -0.0, 0.8], [0.6, 1e-300, -0.8]])
    d[:min(n, len(special))] = special[:n]
    return p, d


def _in_runs(rng, p, longest):
    """p with each position repeated over a run of 1 to `longest`
    consecutive lanes, as a render passes a pixel's lanes."""
    rows = np.repeat(np.arange(len(p)), rng.integers(1, longest + 1, len(p)))
    return p[rows[:len(p)]]


def _grid_rel_error(gl, got, want):
    """Largest error over the largest node value: the radiance is a convex
    combination of node values."""
    return np.abs(got - want).max(initial=0.0) / np.abs(gl.values).max()


@pytest.mark.parametrize("bounds", [[[-1, -2, 0], [1, 2, 3]], [[-1, -2, 1], [1, 2, 1]]],
                         ids=["box", "flat-z"])
@pytest.mark.parametrize("single", [(), (0,), (1,), (2,), (3,), (4,), (0, 1, 2, 3, 4)],
                         ids=["none", "x", "y", "z", "theta", "phi", "all"])
def test_grid_light_matches_corner_loop_bytes(single, bounds):
    """The space-first radiance is the 32-corner loop's up to rounding: a
    relative error of at most 1e-13, with distinct positions (each lane
    forms its own spatial sums), with positions in runs (the lanes of a
    run share a table) and with runs whose directions are all below the
    horizon (a table whose theta rows do not start at 0), at lane counts
    around the block size, with single-node axes and with a flat (lo ==
    hi) extent.  The two orders round differently, so only a bound holds;
    the name is kept from when the two were byte-equal."""
    rng = np.random.default_rng(len(single) * 10 + sum(single))
    shape = [1 if ax in single else n for ax, n in enumerate((3, 4, 2, 5, 8))]
    gl = GridLight(rng.uniform(-1.0, 3.0, (*shape, 3)), bounds)
    block = lighting._LANE_BLOCK
    for n in (0, 1, block - 1, block, block + 1):
        p, d = _grid_lanes(rng, n, gl)
        runs = _in_runs(rng, p, 200)
        lower = d * np.where(d[:, 2:] > 0.0, -1.0, 1.0)
        for pos, dirs in ((p, d), (runs, d), (runs, lower)):
            got, want = gl.radiance(pos, dirs), grid_light_corner_loop(gl, pos, dirs)
            assert got.shape == want.shape == (n, 3)
            assert _grid_rel_error(gl, got, want) <= 1e-13


def test_grid_light_lane_bytes_ignore_layout(monkeypatch):
    """Each lane's bytes are the same whether its position shares a long
    run (the table path; one run straddles a block edge), stands alone
    after a shuffle (the per-lane path) or is queried by itself."""
    rng = np.random.default_rng(41)
    gl = GridLight(rng.uniform(0.0, 2.0, (3, 4, 2, 5, 8, 3)), [[-1, -2, 0], [1, 2, 3]])
    run, edge = 300, lighting._LANE_BLOCK
    runs = 2 * edge // run                          # as many as two blocks hold
    assert edge % run and runs * run <= 2 * edge   # one run straddles the one edge
    pool, _ = _grid_lanes(rng, runs, gl)
    p = np.repeat(pool, run, axis=0)
    d = normalize(rng.normal(size=p.shape))
    spatial = []
    space = GridLight._space
    monkeypatch.setattr(GridLight, "_space",
                        lambda self, q, unit: spatial.append(len(q)) or space(self, q, unit))

    sorted_ = gl.radiance(p, d)
    # the table path: spatial corners once per run, in each block
    assert spatial == [edge // run + 1, runs - edge // run]
    spatial.clear()
    perm = rng.permutation(len(p))
    shuffled = np.empty_like(sorted_)
    shuffled[perm] = gl.radiance(p[perm], d[perm])
    assert sum(spatial) == len(p)           # the per-lane path
    assert shuffled.tobytes() == sorted_.tobytes()
    for i in rng.choice(len(p), 20, replace=False):
        assert gl.radiance(p[i], d[i]).tobytes() == sorted_[i].tobytes()


@pytest.mark.parametrize("bounds", [
    [0, 0, 0, 1, 1, 1], [[0, 1], [0, 1], [0, 1]], [[0, 0, 0], [1, 1, np.nan]],
    [[0, 0, -np.inf], [1, 1, 1]], [[0, 0, 0], [1, 1, "x"]], None,
    [[0, 2, 0], [1, 1, 1]]],
    ids=["flat-list", "transposed", "nan", "inf", "string", "none", "lo-above-hi"])
def test_grid_light_rejects_bad_bounds(bounds):
    with pytest.raises(ContractError, match="bounds"):
        GridLight(np.zeros((2, 2, 2, 2, 2, 3)), bounds)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 4), (2, 2, 2, 2, 3)],
                         ids=["5d", "4-channels", "rgb-5d"])
def test_grid_light_rejects_misshaped_values(shape):
    with pytest.raises(ContractError, match=r"\(nx,ny,nz,nt,np,3\)"):
        GridLight(np.zeros(shape), [[0, 0, 0], [1, 1, 1]])


def test_parameterless_light_rejects_a_parameter_vector():
    """A grid light has no parameters: an empty vector is accepted, any
    other is refused."""
    gl = GridLight(np.zeros((2, 2, 2, 2, 2, 3)), [[0, 0, 0], [1, 1, 1]])
    gl.set_params(np.zeros(0))
    with pytest.raises(ContractError, match="has no parameters"):
        gl.set_params(np.zeros(1))


@pytest.mark.parametrize("run, bytes_per_lane", [(64, 204), (1, 281)],
                         ids=["table-path", "per-lane-path"])
def test_grid_light_lane_block_peak_bytes(run, bytes_per_lane):
    """One lane block of the render-grid bench's grid shape peaks at most
    10% above the bytes per lane measured with NumPy 2.4.6 (tracemalloc's
    peak over the call and its lanes, output included), so a change cannot
    quietly re-inflate the temporaries of a wider pass: positions in pixel
    runs of 64 lanes take the table path, distinct positions the per-lane
    path in its pieces.  tracemalloc counts NumPy's allocations, so the
    figure is deterministic for one NumPy build; another build's own
    temporaries (take, cumsum, astype) may move it."""
    rng = np.random.default_rng(3)
    gl = GridLight(rng.uniform(0.0, 2.0, (4, 4, 4, 8, 16, 3)), [[-1, -1, -1], [1, 1, 1]])
    n = lighting._LANE_BLOCK
    p = np.repeat(rng.uniform(-1.0, 1.0, (n // run, 3)), run, axis=0)
    d = normalize(rng.normal(size=(n, 3)))
    gl.radiance(p, d)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        gl.radiance(p, d)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * bytes_per_lane * n, peak / n


def test_unknown_lightfield_kind():
    with pytest.raises(ContractError):
        analytic_lightfield("nope")


def test_grid_lightfield_from_file(tmp_path):
    from ssdr import io as sio
    vals = np.zeros((2, 2, 2, 3, 4, 3))
    vals[0, 1, 1, 1, 2] = [0.0, 2.0, 0.5]
    gl = GridLight(vals, [[-1, -1, 0], [1, 1, 4]])
    sio.write_grid_light(tmp_path / "light.grid", gl)
    loaded = sio.read_grid_light(tmp_path / "light.grid")
    pos, d = gl.node_position((0, 1, 1, 1, 2))
    assert np.allclose(loaded.radiance(pos[None, :], d[None, :])[0],
                       [0.0, 2.0, 0.5])


def test_analytic_grid_is_unknown_kind(tmp_path):
    """analytic_lightfield builds analytic lights only; a grid light is
    read from its file by io.read_grid_light, never by the factory."""
    with pytest.raises(ContractError, match="unknown light field kind 'grid'"):
        analytic_lightfield("grid", path=tmp_path / "light.grid",
                            bounds=[[0, 0, 0], [1, 1, 1]])


def _decoder_setup(channels=12):
    g, camera, _, _ = scenes.two_plane(24, 24)
    rng = np.random.default_rng(1)
    grid = FeatureGrid(rng.normal(size=(24, 24, channels)))
    dims = (decoder_input_dim(channels), 16, 16, 3)
    return g, camera, grid, dims


def test_traced_radiance_zero_weights():
    g, camera, grid, dims = _decoder_setup()
    weights = mlp.MlpWeights.zeros(dims)
    p = unproject(camera, np.array([12.0, 18.0]), g.depth[18, 12])
    L, _, _ = traced_radiance_batch(grid, g, weights, camera, p[None, :],
                                    normalize(np.array([[0.3, -0.5, 0.6]])))
    assert np.allclose(L, np.log(2.0), atol=1e-12)  # softplus(0)


def test_traced_radiance_pure():
    g, camera, grid, dims = _decoder_setup()
    weights = mlp.MlpWeights.random(dims, seed=5, scale=0.3)
    rng = np.random.default_rng(2)
    p = np.repeat(unproject(camera, np.array([[10.0, 20.0]]),
                            np.array([g.depth[20, 10]])), 6, axis=0)
    d = normalize(rng.normal(size=(6, 3)) + [0, -1.0, 0.2])
    a, _, _ = traced_radiance_batch(grid, g, weights, camera, p, d)
    b, _, _ = traced_radiance_batch(grid, g, weights, camera, p, d)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)  # softplus output


def test_traced_radiance_weight_shape_error():
    g, camera, grid, _ = _decoder_setup()
    bad = mlp.MlpWeights.zeros((7, 4, 3))
    with pytest.raises(ContractError):
        traced_radiance_batch(grid, g, bad, camera, np.array([[0.0, 0.0, 2.0]]),
                              np.array([[0.0, 0.0, 1.0]]))


def test_decoder_input_dimension_accounting():
    assert decoder_input_dim(64) == 39 + 64 + 10
    g, camera, grid, dims = _decoder_setup(channels=5)
    x, hits = decoder_inputs(grid, g, camera,
                             np.array([[0.0, 0.0, 2.0]]),
                             normalize(np.array([[0.1, -0.4, 0.9]])))
    assert x.shape == (1, decoder_input_dim(5))


def test_decoder_inputs_rows_are_the_concatenated_parts():
    """The rows written in place are the bytes of [encoded d, feature at
    the hit, G-buffer inputs at the hit] concatenated."""
    g, camera, grid, _ = _decoder_setup(channels=5)
    rng = np.random.default_rng(8)
    fy, fx = np.nonzero(np.isfinite(g.depth))
    idx = rng.integers(0, fy.size, 300)
    p = unproject(camera, np.stack([fx[idx], fy[idx]], -1).astype(float),
                  g.depth[fy[idx], fx[idx]])
    d = normalize(rng.normal(size=(300, 3)))
    x, hits = decoder_inputs(grid, g, camera, p, d)
    parts = [positional_encoding(d, lighting.DIRECTION_BANDS), grid.sample(hits.pixel),
             lighting.gbuffer_light_inputs(g, hits.pixel)]
    assert x.tobytes() == np.concatenate(parts, axis=1).tobytes()


def test_decoder_overfits_constant_field():
    """A one-hidden-layer decoder driven to emit constant radiance 1."""
    g, camera, grid, _ = _decoder_setup(channels=6)
    dims = (decoder_input_dim(6), 8, 3)
    weights = mlp.MlpWeights.random(dims, seed=3, scale=0.2)

    rng = np.random.default_rng(4)
    fy, fx = np.nonzero(np.isfinite(g.depth))
    idx = rng.integers(0, fy.size, 2048)
    p = unproject(camera, np.stack([fx[idx], fy[idx]], -1).astype(float),
                  g.depth[fy[idx], fx[idx]])
    d = normalize(rng.normal(size=(2048, 3)) + [0, -1.2, 0.0])
    x, _ = decoder_inputs(grid, g, camera, p, d)

    adam = AdamState.like(weights.flat)
    for _ in range(1200):
        y, cache = mlp.forward(weights, x)
        L = mlp.softplus(y)
        dy = 2.0 * (L - 1.0) * mlp.sigmoid(y) / L.size
        _, dflat = mlp.backward(weights, cache, dy)
        weights = weights.copy_with(weights.flat - adam.step(dflat, 0.05))

    # held-out queries across the scene
    idx2 = rng.integers(0, fy.size, 128)
    p2 = unproject(camera, np.stack([fx[idx2], fy[idx2]], -1).astype(float),
                   g.depth[fy[idx2], fx[idx2]])
    d2 = normalize(rng.normal(size=(128, 3)) + [0, -1.2, 0.0])
    L2, _, _ = traced_radiance_batch(grid, g, weights, camera, p2, d2)
    assert np.max(np.abs(L2 - 1.0)) < 1e-2
