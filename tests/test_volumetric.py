import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (check_hypernet, check_volume_weights, peak_rss_mb, sigmoid_masked,
                     zero_hypernet, zero_weights)
from ssdr import mlp, scenes, volumetric as vol
from ssdr.core import ContractError, normalize, unproject
from ssdr.inverse import AdamState
from ssdr.lighting import (ConstantLight, FeatureGrid, GridLight, SkyDiscLight,
                           SkyGradientLight, decoder_input_dim, positional_encoding)
from ssdr.mlp import MlpWeights


def _const_field_weights(sigma_value: float, color_rgb, scale: float = 5.0,
                         bands: int = 10) -> MlpWeights:
    """Zero-weight field whose output biases realize a homogeneous medium."""
    w = zero_weights((vol.field_input_dim(bands), 8, 8, 4))
    flat = w.flat.copy()
    flat[-4] = math.log(math.expm1(sigma_value))          # softplus^-1
    for i, c in enumerate(color_rgb):
        q = min(max(c / scale, 1e-9), 1 - 1e-9)
        flat[-3 + i] = math.log(q / (1 - q))              # logit
    return w.copy_with(flat)


def test_hypernet_zero_maps_to_zero():
    h = zero_hypernet(6, (4, 8, 4))
    out = vol.hypernet_forward(np.zeros(6), h)
    assert np.array_equal(out.flat, np.zeros_like(out.flat))


def test_hypernet_fixed_returns_its_weights():
    """The hypernetwork of an empty feature returns the weights it was
    built from, bit for bit."""
    w = MlpWeights.random((4, 8, 4), seed=0, scale=0.5)
    h = vol.HypernetParams.fixed(w)
    assert h.matrix.shape == (w.flat.size, 0)
    assert vol.hypernet_forward(np.zeros(0), h).flat.tobytes() == w.flat.tobytes()


def test_hypernet_dimension_mismatch():
    h = zero_hypernet(6, (4, 8, 4))
    with pytest.raises(ContractError):
        vol.hypernet_forward(np.zeros(5), h)


@pytest.mark.parametrize("matrix,bias", [((75, 6), (76,)), ((76 * 6,), (76,)),
                                         ((76, 6, 1), (76,)), ((76, 6), (75,))],
                         ids=["matrix-rows", "matrix-flat", "matrix-3d", "bias"])
def test_hypernet_refuses_arrays_that_do_not_fit_its_target(matrix, bias):
    """A (4, 8, 4) network has 76 weights: a matrix that is not (76, F) or
    a bias that is not (76,) is a ContractError when the hypernetwork is
    built.  F is the matrix's width."""
    h = vol.HypernetParams((4, 8, 4), np.zeros((76, 6)), np.zeros(76))
    assert vol.hypernet_forward(np.ones(6), h).dims == (4, 8, 4)
    with pytest.raises(ContractError, match=r"hypernetwork of 76 weights needs a \(76, F\)"):
        vol.HypernetParams((4, 8, 4), np.zeros(matrix), np.zeros(bias))


def test_hypernet_gradients_match_fd():
    h = vol.HypernetParams.random(6, (4, 8, 4), seed=4)
    fg = np.random.default_rng(5).normal(size=6)
    result = check_hypernet(h, fg, tol=1e-6)
    assert result.passed, str(result)


def test_field_eval_zero_weights():
    w = zero_weights((vol.field_input_dim(10), 8, 8, 4))
    sigma, color, _ = vol.field_eval(w, np.array([[0.3, -0.2, 1.0]]))
    assert np.isclose(sigma[0], math.log(2.0))
    assert np.allclose(color[0], 0.5 * 5.0)


def test_field_eval_deterministic():
    w = MlpWeights.random((vol.field_input_dim(10), 16, 16, 4), seed=1, scale=0.3)
    x = np.array([[0.1, 0.2, 0.3]])
    s1, c1, _ = vol.field_eval(w, x)
    s2, c2, _ = vol.field_eval(w, x)
    assert np.array_equal(s1, s2) and np.array_equal(c1, c2)


@pytest.mark.parametrize("rows", [4032, 564, 97, 33, 1])
def test_field_on_the_encoding_view_has_the_contiguous_bytes(rows, monkeypatch):
    """The field's GEMMs read the encoding as the F-order view that
    `positional_encoding` returns and the kept band 0 rebuilds (the
    cache's first entry); the density, the color and the weight adjoint
    have the bytes of the same field on C-contiguous copies of both."""
    w = MlpWeights.random(vol.default_field_dims(10), seed=2)
    rng = np.random.default_rng(rows)
    x = rng.uniform(-2.0, 2.0, (rows, 3))
    dy = rng.normal(size=(rows, 4))

    def field():
        sigma, color, (_, cache, _) = vol.field_eval(w, x)
        return cache[0](), (sigma, color, mlp.backward(w, cache, dy)[1])

    enc, got = field()
    for name in ("positional_encoding", "rebuild_encoding"):
        monkeypatch.setattr(vol, name,
                            lambda *args, f=getattr(vol, name): np.ascontiguousarray(f(*args)))
    copy, want = field()
    assert enc.flags.f_contiguous and copy.flags.c_contiguous
    assert enc.tobytes() == copy.tobytes()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bands", range(1, 13))
def test_kept_band0_rebuilds_the_encoding_bytes(bands):
    """A kept field query keeps x, sin(pi x) and cos(pi x) per component,
    and its cache's first entry rebuilds the other bands by the doubling
    loop: the rebuilt encoding has the bytes and the F-order layout of
    `positional_encoding`, at +-0 and at |x| up to 1e3 too."""
    rng = np.random.default_rng(bands)
    x = np.concatenate([rng.uniform(-1e3, 1e3, (300, 3)), rng.normal(size=(300, 3)),
                        [[0.0, -0.0, 1e3], [-1e3, -0.0, 0.0]]])
    w = MlpWeights.random((vol.field_input_dim(bands), 8, 4), seed=bands)
    _, _, (_, cache, _) = vol.field_eval(w, x)
    got, want = cache[0](), positional_encoding(x, bands)
    assert got.flags.f_contiguous and got.shape == want.shape == (602, 3 * (2 * bands + 1))
    assert got.tobytes() == want.tobytes()


def test_volume_render_zero_density():
    w = _const_field_weights(1e-9, (2.0, 2.0, 2.0))
    cfg = vol.VolumeConfig(t_near=0.1, t_far=5.0, n_samples=64)
    L, _ = vol.volume_render_batch(w, np.zeros(3) + [0, 0, 2], np.array([0.0, 0.0, 1.0]),
                                   cfg, 1, [0], keep=False)
    assert np.all(L < 1e-6)


def test_composite_two_sample_hand_value():
    sigma = np.array([[1.0, 1.0]])
    color = np.array([[[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]])
    deltas = np.array([[1.0, 1.0]])
    L, w = vol.composite(sigma, color, deltas)
    expect = (1 - math.exp(-1.0)) * 1.0  # second sample is black
    assert np.allclose(L[0], expect, atol=1e-12)
    assert np.allclose(w[0], [1 - math.exp(-1), math.exp(-1) * (1 - math.exp(-1))])


def test_homogeneous_medium_closed_form():
    w = _const_field_weights(0.5, (1.0, 1.0, 1.0))
    cfg = vol.VolumeConfig(t_near=0.0, t_far=4.0, n_samples=256)
    L, _ = vol.volume_render_batch(w, np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]),
                                   cfg, 0, [0], keep=False)
    expect = 1.0 * (1.0 - math.exp(-0.5 * 4.0))
    assert np.all(np.abs(L - expect) < 1e-3)


def test_compositing_weights_bounded():
    rng = np.random.default_rng(2)
    sigma = rng.uniform(0.0, 3.0, size=(32, 24))
    color = rng.uniform(0.0, 5.0, size=(32, 24, 3))
    deltas = rng.uniform(0.01, 0.4, size=(32, 24))
    _, w = vol.composite(sigma, color, deltas)
    assert np.all(w >= 0.0)
    assert np.all(w.sum(axis=-1) <= 1.0 + 1e-12)


@given(st.floats(0.1, 4.0))
@settings(max_examples=50)
def test_volume_render_monotone_in_color(k):
    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.0, 2.0, size=(4, 16))
    color = rng.uniform(0.0, 2.0, size=(4, 16, 3))
    deltas = rng.uniform(0.01, 0.3, size=(4, 16))
    base, _ = vol.composite(sigma, color, deltas)
    scaled, _ = vol.composite(sigma, k * color, deltas)
    assert np.allclose(scaled, k * base, rtol=1e-12)


def test_volume_gradients_match_fd():
    cfg = vol.VolumeConfig(t_near=0.05, t_far=6.0, n_samples=16)
    w = MlpWeights.random((vol.field_input_dim(4), 12, 12, 4), seed=3, scale=0.4)
    result = check_volume_weights(w, cfg, n_rays=3, n_components=40, tol=1e-4)
    assert result.passed, str(result)


def test_blend_endpoints_and_value():
    a = np.array([4.0, 0.0, 0.0])
    b = np.array([0.0, 4.0, 0.0])
    assert np.array_equal(vol.blend(a, b, 0.0), a)
    assert np.array_equal(vol.blend(a, b, 1.0), b)
    assert np.array_equal(vol.blend(a, b, 0.25), [3.0, 1.0, 0.0])
    with pytest.raises(ContractError):
        vol.blend(a, b, 1.5)


@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=100)
def test_blend_bounded_by_inputs(u, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 5.0, 3)
    b = rng.uniform(0.0, 5.0, 3)
    out = vol.blend(a, b, u)
    assert np.all(out >= np.minimum(a, b) - 1e-12)
    assert np.all(out <= np.maximum(a, b) + 1e-12)


def test_field_overfits_constant_box():
    """Drive the field toward sigma*=1, c*=(1,0,0) inside a box."""
    bands = 6
    dims = (vol.field_input_dim(bands), 24, 24, 4)
    w = MlpWeights.random(dims, seed=7, scale=0.3)
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, size=(512, 3))
    enc = positional_encoding(x, bands)
    target_c = np.array([1.0, 0.0, 0.0])

    adam = AdamState.like(w.flat)
    for _ in range(500):
        y, cache = mlp.forward(w, enc)
        sigma = mlp.softplus(y[:, 0])
        raw = mlp.sigmoid(y[:, 1:4])
        color = raw * vol.RADIANCE_SCALE
        dy = np.zeros_like(y)
        dy[:, 0] = 2.0 * (sigma - 1.0) * mlp.sigmoid(y[:, 0]) / sigma.size
        dcol = 2.0 * (color - target_c) / color.size
        dy[:, 1:4] = dcol * vol.RADIANCE_SCALE * raw * (1.0 - raw)
        _, dflat = mlp.backward(w, cache, dy)
        w = w.copy_with(w.flat - adam.step(dflat, 0.03))

    x2 = rng.uniform(-0.5, 0.5, size=(512, 3))
    sigma2, color2, _ = vol.field_eval(w, x2)
    assert np.mean(np.abs(sigma2 - 1.0)) < 0.05
    assert np.mean(np.abs(color2 - target_c)) < 0.1


def _blended_setup():
    g, camera, _, _ = scenes.two_plane(24, 24)
    rng = np.random.default_rng(1)
    grid = FeatureGrid(rng.normal(size=(24, 24, 8)))
    from ssdr.lighting import decoder_input_dim
    dec = MlpWeights.random((decoder_input_dim(8), 16, 16, 3), seed=3, scale=0.2)
    vw = MlpWeights.random((vol.field_input_dim(4), 12, 12, 4), seed=4, scale=0.3)
    blf = vol.BlendedLightField(grid, g, camera, dec, vol.HypernetParams.fixed(vw),
                                volume_cfg=vol.VolumeConfig(n_samples=12))
    p = np.repeat(unproject(camera, np.array([[12.0, 18.0]]),
                            np.array([g.depth[18, 12]])), 5, axis=0)
    d = normalize(rng.normal(size=(5, 3)) * [0.5, 0.5, 0.2] + [0, -0.6, 0.3])
    return blf, p, d


def test_blended_field_pure_and_nonnegative():
    blf, p, d = _blended_setup()
    a = blf.radiance(p, d)
    b = blf.radiance(p, d)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)


def test_blended_field_param_roundtrip_and_backprop():
    blf, p, d = _blended_setup()
    vec = blf.get_params()
    assert vec.size == blf.n_params
    blf.set_params(vec)
    assert np.array_equal(blf.get_params(), vec)
    with pytest.raises(ContractError, match="size mismatch"):
        blf.set_params(vec[:-1])

    rng = np.random.default_rng(9)
    dL = rng.normal(size=(5, 3))
    adj = blf.backprop(p, d, dL)
    errs = []
    for c in rng.choice(vec.size, 20, replace=False):
        vp = vec.copy(); vp[c] += 1e-5
        vm = vec.copy(); vm[c] -= 1e-5
        blf.set_params(vp); Lp = blf.radiance(p, d)
        blf.set_params(vm); Lm = blf.radiance(p, d)
        blf.set_params(vec)
        fd = float(np.sum((Lp - Lm) * dL)) / 2e-5
        errs.append(abs(fd - adj[c]) / max(abs(fd), abs(adj[c]), 1e-8))
    assert max(errs) < 1e-4


@pytest.mark.parametrize("mode", ["volume", "hypernet"])
@pytest.mark.parametrize("net,end,delta", [
    ("decoder", 0, 1), ("decoder", -1, -2), ("field", 0, -3), ("field", -1, -1),
    ("field", 0, -24)],
    ids=["decoder-input", "decoder-output", "field-input", "field-output", "field-no-bands"])
def test_blended_field_rejects_misshaped_weights(mode, net, end, delta):
    """A decoder that does not map decoder_input_dim inputs to 3 outputs,
    or a field that does not map field_input_dim(L) inputs, L >= 1, to 4,
    is a ContractError when the light is built, before any query."""
    from ssdr.lighting import decoder_input_dim
    g, camera, _, _ = scenes.two_plane(8, 8)
    dims = {"decoder": [decoder_input_dim(4), 8, 3],
            "field": [vol.field_input_dim(4), 8, 4]}
    dims[net][end] += delta
    field = ((vol.HypernetParams.fixed(zero_weights(dims["field"])), ())
             if mode == "volume" else (zero_hypernet(3, dims["field"]), np.ones(3)))
    with pytest.raises(ContractError, match=f"{net} weights shaped"):
        vol.BlendedLightField(FeatureGrid(np.zeros((8, 8, 4))), g, camera,
                              zero_weights(dims["decoder"]), *field,
                              volume_cfg=vol.VolumeConfig(n_samples=8))


@pytest.mark.parametrize("bands", [1, 3, 10])
def test_field_band_count_is_read_from_the_weights(bands):
    """A field of any band count L >= 1 is encoded with L bands: its
    radiance at a point is that of the MLP on the L-band encoding."""
    w = MlpWeights.random((vol.field_input_dim(bands), 8, 4), seed=bands, scale=0.5)
    assert vol.field_bands(w) == bands
    x = np.random.default_rng(3).normal(size=(5, 3))
    sigma, color, _ = vol.field_eval(w, x)
    y, _ = mlp.forward(w, positional_encoding(x, bands))
    assert sigma.tobytes() == mlp.softplus(y[:, 0]).tobytes()
    assert color.tobytes() == (mlp.sigmoid(y[:, 1:4]) * vol.RADIANCE_SCALE).tobytes()


def test_blended_field_needs_the_hypernet_feature():
    """A light whose hypernetwork takes a 3-long feature, built without
    one, is a ContractError at construction."""
    g, camera, _, _ = scenes.two_plane(8, 8)
    with pytest.raises(ContractError, match="feature size 0 != 3"):
        vol.BlendedLightField(FeatureGrid(np.zeros((8, 8, 4))), g, camera,
                              zero_weights((decoder_input_dim(4), 8, 3)),
                              zero_hypernet(3, (vol.field_input_dim(4), 8, 4)),
                              volume_cfg=vol.VolumeConfig(n_samples=8))


def _hypernet_setup():
    g, camera, _, _ = scenes.two_plane(16, 16)
    rng = np.random.default_rng(2)
    grid = FeatureGrid(rng.normal(size=(16, 16, 4)))
    from ssdr.lighting import decoder_input_dim
    dec = MlpWeights.random((decoder_input_dim(4), 8, 3), seed=1, scale=0.2)
    vdims = (vol.field_input_dim(4), 8, 4)
    h = vol.HypernetParams.random(5, vdims, seed=2, scale=0.05)
    fg = rng.normal(size=5)
    blf = vol.BlendedLightField(grid, g, camera, dec, h, global_feature=fg,
                                volume_cfg=vol.VolumeConfig(n_samples=8))
    p = np.tile(unproject(camera, np.array([8.0, 12.0]), g.depth[12, 8]), (3, 1))
    d = normalize(rng.normal(size=(3, 3)) + [0, -1, 0.2])
    return blf, p, d, rng


def test_blended_field_hypernet_mode():
    blf, p, d, rng = _hypernet_setup()
    vec = blf.get_params()
    dL = rng.normal(size=(3, 3))
    adj = blf.backprop(p, d, dL)
    errs = []
    for c in rng.choice(vec.size, 16, replace=False):
        vp = vec.copy(); vp[c] += 1e-5
        vm = vec.copy(); vm[c] -= 1e-5
        blf.set_params(vp); Lp = blf.radiance(p, d)
        blf.set_params(vm); Lm = blf.radiance(p, d)
        blf.set_params(vec)
        fd = float(np.sum((Lp - Lm) * dL)) / 2e-5
        errs.append(abs(fd - adj[c]) / max(abs(fd), abs(adj[c]), 1e-8))
    assert max(errs) < 1e-4


@pytest.mark.parametrize("mode", ["fixed", "hypernet"])
def test_render_adjoints_reach_learned_light_params(mode):
    """Through the full estimator, FD on the blended field's parameters
    matches the adjoints routed out of the render backward pass: the
    decoder and the fixed field weights, or the decoder and the matrix and
    bias of a hypernetwork of a 3-long feature."""
    from ssdr.gradcheck import check_light_params
    from ssdr.render import RenderConfig

    g, camera, _, _ = scenes.two_plane(8, 8)
    rng = np.random.default_rng(3)
    grid = FeatureGrid(rng.normal(size=(8, 8, 4)))
    dec = MlpWeights.random((decoder_input_dim(4), 8, 3), seed=5, scale=0.2)
    vdims = (vol.field_input_dim(4), 8, 4)
    field = ((vol.HypernetParams.fixed(MlpWeights.random(vdims, seed=6, scale=0.3)), ())
             if mode == "fixed"
             else (vol.HypernetParams.random(3, vdims, seed=6, scale=0.1), rng.normal(size=3)))
    blf = vol.BlendedLightField(grid, g, camera, dec, *field,
                                volume_cfg=vol.VolumeConfig(n_samples=8))
    result = check_light_params(g, camera, blf, RenderConfig(spp=8, seed=2),
                                n_components=10, tol=1e-4)
    assert result.passed, str(result)


def _analytic_vjp_case(light):
    rng = np.random.default_rng(11)
    p = rng.uniform(-1.0, 1.0, (7, 3))
    d = normalize(rng.normal(size=(7, 3)))
    return light, p, d


_VJP_CASES = {
    "constant": lambda: _analytic_vjp_case(ConstantLight([0.9, 1.0, 1.1])),
    "sky": lambda: _analytic_vjp_case(SkyGradientLight([1.2, 1.2, 1.4], [0.4, 0.38, 0.35])),
    "sky-disc": lambda: _analytic_vjp_case(SkyDiscLight(
        [1.2, 1.2, 1.4], [0.4, 0.38, 0.35], [0.2, -1.0, 0.3], 0.3, [6.0, 5.0, 4.0])),
    "grid": lambda: _analytic_vjp_case(GridLight(
        np.random.default_rng(5).uniform(0.0, 2.0, (3, 2, 2, 4, 6, 3)),
        [[-1, -1, -1], [1, 1, 1]])),
    "blended-volume": _blended_setup,
    "blended-hypernet": lambda: _hypernet_setup()[:3],
}


@pytest.mark.parametrize("case", list(_VJP_CASES))
def test_radiance_vjp_matches_radiance_and_backprop_bytes(case):
    """radiance_vjp's value is radiance's, and its pullback is backprop's,
    bit for bit, whether or not the light keeps its forward state."""
    light, p, d = _VJP_CASES[case]()
    dL = np.random.default_rng(4).normal(size=(p.shape[0], 3))
    L, pullback = light.radiance_vjp(p, d)
    assert L.tobytes() == light.radiance(p, d).tobytes()
    adj = pullback(dL)
    assert adj.shape == (light.n_params,)
    assert adj.tobytes() == light.backprop(p, d, dL).tobytes()


def _rays_over(light, rng, n):
    """n rays from seeded points of the light's G-buffer, in random
    directions."""
    h, w = light.gbuffer.depth.shape
    px = np.stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)], -1)
    yi, xi = px[:, 1].round().astype(int), px[:, 0].round().astype(int)
    p = unproject(light.camera, px, light.gbuffer.depth[yi, xi])
    return p, normalize(rng.normal(size=(n, 3)))


@pytest.mark.parametrize("case", ["blended-volume", "blended-hypernet"])
def test_render_only_radiance_keeps_no_mlp_state(case, monkeypatch):
    """Without `keep`, neither MLP forward keeps a cache, and the radiance
    has the bits of the query that keeps its state."""
    light, _, _ = _VJP_CASES[case]()
    p, d = _rays_over(light, np.random.default_rng(12), 200)
    caches = []
    forward = mlp.forward

    def recording_forward(weights, x, **kwargs):
        y, cache = forward(weights, x, **kwargs)
        caches.append(cache)
        return y, cache

    monkeypatch.setattr(mlp, "forward", recording_forward)
    plain = light.radiance(p, d)
    assert len(caches) == 2 and all(c is None for c in caches)
    keep = []
    kept = light.radiance(p, d, keep)
    assert len(keep) == 1 and len(caches) == 4 and None not in caches[2:]
    assert plain.tobytes() == kept.tobytes()


@pytest.mark.parametrize("n_samples,bands,n_rays,point_block,rays_per_block", [
    (12, 4, 1103, vol._POINT_BLOCK, [275, 276, 276, 276]),
    (vol._POINT_BLOCK + 5, 2, 3, vol._POINT_BLOCK, [1, 1, 1]),
    (12, 4, 11, 3 * 12, [2, 3, 3, 3])],
    ids=["uneven-split", "one-ray-per-block", "blocks-below-300-rows"])
def test_render_only_radiance_has_the_kept_bytes_across_point_blocks(
        n_samples, bands, n_rays, point_block, rays_per_block, monkeypatch):
    """A query, render-only or kept, runs its field in the same balanced
    blocks of at most `_POINT_BLOCK` points, or one ray when a ray has
    more, so both run GEMMs of the same shapes and the render-only
    radiance has the bytes of the kept one, whatever the block size."""
    monkeypatch.setattr(vol, "_POINT_BLOCK", point_block)
    g, camera, _, _ = scenes.two_plane(24, 24)
    rng = np.random.default_rng(13)
    light = vol.BlendedLightField(
        FeatureGrid(rng.normal(size=(24, 24, 4))), g, camera,
        MlpWeights.random((decoder_input_dim(4), 16, 3), seed=3, scale=0.2),
        vol.HypernetParams.fixed(MlpWeights.random((vol.field_input_dim(bands), 12, 12, 4),
                                                   seed=4, scale=0.3)),
        volume_cfg=vol.VolumeConfig(n_samples=n_samples))
    p, d = _rays_over(light, rng, n_rays)
    rows = []
    forward = mlp.forward

    def recording_forward(weights, x, **kwargs):
        y, cache = forward(weights, x, **kwargs)
        if weights is light.volume:
            rows.append(y.shape[0])
        return y, cache

    monkeypatch.setattr(mlp, "forward", recording_forward)
    plain = light.radiance(p, d)
    kept = light.radiance(p, d, [])
    assert rows == 2 * [n * n_samples for n in rays_per_block]
    assert plain.tobytes() == kept.tobytes()


def test_volume_gradients_match_fd_across_point_blocks(monkeypatch):
    """With one ray per point block, the adjoint pulls back each block's
    state and sums their weight adjoints, and matches central
    differences."""
    cfg = vol.VolumeConfig(t_near=0.05, t_far=6.0, n_samples=16)
    monkeypatch.setattr(vol, "_POINT_BLOCK", cfg.n_samples)
    w = MlpWeights.random((vol.field_input_dim(4), 12, 12, 4), seed=3, scale=0.4)
    rows = []
    backward = mlp.backward

    def recording_backward(weights, cache, dy):
        rows.append(dy.shape[0])
        return backward(weights, cache, dy)

    monkeypatch.setattr(mlp, "backward", recording_backward)
    result = check_volume_weights(w, cfg, n_rays=4, n_components=40, tol=1e-4)
    assert rows == 4 * [cfg.n_samples]
    assert result.passed, str(result)


@pytest.mark.parametrize("case", ["blended-volume", "blended-hypernet"])
def test_radiance_vjp_pullback_has_backprop_bytes_across_point_blocks(case, monkeypatch):
    """With one ray per point block, radiance_vjp's value and pullback are
    radiance's and backprop's, bit for bit."""
    light, p, d = _VJP_CASES[case]()
    n_samples = light.volume_cfg.n_samples
    monkeypatch.setattr(vol, "_POINT_BLOCK", n_samples)
    dL = np.random.default_rng(4).normal(size=(p.shape[0], 3))
    rows = []
    backward = mlp.backward

    def recording_backward(weights, cache, dy):
        if weights is light.volume:
            rows.append(dy.shape[0])
        return backward(weights, cache, dy)

    monkeypatch.setattr(mlp, "backward", recording_backward)
    L, pullback = light.radiance_vjp(p, d)
    assert L.tobytes() == light.radiance(p, d).tobytes()
    adj = pullback(dL)
    assert rows == p.shape[0] * [n_samples] and p.shape[0] > 1
    assert adj.tobytes() == light.backprop(p, d, dL).tobytes()


_LEARNED_RENDER_RSS = """
import numpy as np
from ssdr import scenes, volumetric as vol
from ssdr.lighting import FeatureGrid, default_decoder_dims
from ssdr.mlp import MlpWeights
from ssdr.render import RenderConfig, render_mc
g, camera, _, _ = scenes.two_plane(32, 32)
grid = FeatureGrid(np.random.default_rng(1).uniform(0.0, 1.0, (32, 32, 8)))
light = vol.BlendedLightField(
    grid, g, camera, MlpWeights.random(default_decoder_dims(8), 2),
    vol.HypernetParams.fixed(MlpWeights.random(vol.default_field_dims(10), 3)))
image = render_mc(g, camera, light, RenderConfig(spp=8, seed=3))
assert np.all(np.isfinite(image))
"""


_LEARNED_FIT_RSS = """
import numpy as np
from ssdr import scenes, volumetric as vol
from ssdr.inverse import LossConfig, optimize
from ssdr.lighting import FeatureGrid, default_decoder_dims
from ssdr.mlp import MlpWeights
g, camera, _, _ = scenes.two_plane({res}, {res})
grid = FeatureGrid(np.random.default_rng(1).uniform(0.0, 1.0, ({res}, {res}, 8)))
light = vol.BlendedLightField(
    grid, g, camera, MlpWeights.random(default_decoder_dims(8), 2),
    vol.HypernetParams.fixed(MlpWeights.random(vol.default_field_dims(10), 3)))
res = optimize(g, camera, light, np.full(({res}, {res}, 3), 0.3),
               LossConfig(iterations={iterations}, step_size=0.001,
                          params=("albedo", "light"), spp=4, seed=4))
assert np.all(np.isfinite(res.light_params))
"""


def test_learned_render_peak_rss_is_bounded():
    """A learned 32x32 render at spp 8, with the bench's light (decoder 8
    channels, field 10 bands, 64 volume samples), peaks at 120 MB or less
    in a process of its own: its volume queries run in point blocks.
    Queried whole, they peaked at 232 MB."""
    peak_mb = peak_rss_mb(_LEARNED_RENDER_RSS)
    assert peak_mb <= 120, peak_mb


def test_learned_fit_peak_rss_is_bounded():
    """One albedo + light `optimize` iteration on a learned 16x16 render at
    spp 4, with the bench's light, peaks at 170 MB or less in a process of
    its own: its kept volume queries run in point blocks, and their MLP
    caches keep only the hidden layers' inputs and band 0 of the encoding.
    Measured 149.5 MB with NumPy 2.4.6, so the bound leaves 13%; with the
    whole encoding and a second, scaled color kept it peaked at 178 MB,
    with each hidden layer's exp(-|a|) and sign kept too at 287 MB, and
    kept whole at 332 MB."""
    peak_mb = peak_rss_mb(_LEARNED_FIT_RSS.format(res=16, iterations=1))
    assert peak_mb <= 170, peak_mb


def test_learned_fit_32_peak_rss_is_bounded():
    """The 32x32 albedo + light iteration of `scripts/fit_memory.py` (the
    16x16 fit above at 32x32) peaks at 520 MB or less in a process of its
    own.  Measured 462 MB with NumPy 2.4.6, so the bound leaves 13%; with
    the whole encoding and a second, scaled color kept per field point it
    peaked at 578 MB."""
    peak_mb = peak_rss_mb(_LEARNED_FIT_RSS.format(res=32, iterations=1))
    assert peak_mb <= 520, peak_mb


def test_learned_fit_light_params_do_not_depend_on_blas_threads():
    """The 16x16 learned albedo + light fit above, over 2 iterations, gives
    the same `light_params` bytes in a process with OpenBLAS at 1 thread
    and in one with OpenBLAS at 2: importing ssdr sets OpenBLAS to one
    thread.  At 2 BLAS threads the field's weight adjoint, a GEMM that
    reduces over the rows, sums them in another order at row counts such
    as a fit's point blocks."""
    body = (_LEARNED_FIT_RSS.format(res=16, iterations=2)
            + "print(res.light_params.tobytes().hex())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(vol.__file__).resolve().parents[1])}
    params = []
    for threads in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", body],
                             env={**env, "OPENBLAS_NUM_THREADS": threads},
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        params.append(out.stdout.split()[-1])
    assert params[0] == params[1]


def test_kept_field_block_holds_its_layer_inputs_per_point():
    """A kept query of one `_POINT_BLOCK` of the bench's field (63, 64,
    64, 64, 4), 64 volume samples, holds at most 1.13x the 1666 bytes per
    field point measured with NumPy 2.4.6 (tracemalloc's held bytes after
    the call, radiance included): three 64-unit activations are 1536 of
    them, and band 0 of the encoding 72.  Keeping the whole encoding and
    the scaled color beside raw_col held 2146, and keeping each hidden
    layer's exp(-|a|) and sign as well 3874."""
    cfg = vol.VolumeConfig()
    w = MlpWeights.random(vol.default_field_dims(10), seed=3)
    n = vol._POINT_BLOCK // cfg.n_samples
    rng = np.random.default_rng(7)
    p, d = rng.uniform(-1.0, 1.0, (n, 3)), normalize(rng.normal(size=(n, 3)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        L, state = vol.volume_render_batch(w, p, d, cfg, 1, np.arange(n, dtype=np.uint64))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(state) == 1
    points = n * cfg.n_samples
    assert held <= 1.13 * 1666 * points, held / points


def test_render_backward_runs_the_learned_field_once_per_lane(monkeypatch):
    """With the light's adjoint asked for, every light lane's field points
    pass through the field MLP's forward exactly once, and the light
    adjoint is the bits of a separate radiance query followed by backprop."""
    import functools

    from ssdr.lighting import LightField
    from ssdr.render import PARAM_NAMES, RenderConfig, render_backward

    blf, _, _ = _blended_setup()
    cfg = RenderConfig(spp=3, seed=4)
    dI = np.random.default_rng(6).normal(size=blf.gbuffer.depth.shape + (3,))
    rows = {"field": 0, "lanes": 0}
    forward, vjp = mlp.forward, blf.radiance_vjp

    def counting_forward(weights, x, **kwargs):
        y, cache = forward(weights, x, **kwargs)
        if weights is blf.volume:
            rows["field"] += y.shape[0]
        return y, cache

    def counting_vjp(p, d):
        rows["lanes"] += p.shape[0]
        return vjp(p, d)

    monkeypatch.setattr(mlp, "forward", counting_forward)
    monkeypatch.setattr(blf, "radiance_vjp", counting_vjp)
    grad = render_backward(blf.gbuffer, blf.camera, blf, cfg, dI, params=PARAM_NAMES)
    assert rows["lanes"] > 0
    assert rows["field"] == rows["lanes"] * blf.volume_cfg.n_samples

    monkeypatch.setattr(mlp, "forward", forward)
    monkeypatch.setattr(blf, "radiance_vjp",
                        functools.partial(LightField.radiance_vjp, blf))
    replay = render_backward(blf.gbuffer, blf.camera, blf, cfg, dI, params=PARAM_NAMES)
    assert list(grad) == list(replay) == list(PARAM_NAMES)
    for name in PARAM_NAMES:
        assert grad[name].tobytes() == replay[name].tobytes(), name


def test_sigmoid_matches_masked_bytes():
    """The branch-free sigmoid is the two-branch one, bit for bit."""
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                      745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 36.8, -36.8])
    rng = np.random.default_rng(8)
    for x in (edges, rng.normal(size=(256, 64)), 40.0 * rng.normal(size=(64, 3)),
              np.float64(-2.5), np.zeros((0, 4))):
        got = mlp.sigmoid(x)
        assert got.shape == np.shape(x)
        assert got.tobytes() == sigmoid_masked(x).tobytes()


def test_volume_render_contract_errors():
    w = zero_weights((vol.field_input_dim(10), 8, 8, 4))
    with pytest.raises(ContractError):
        vol.VolumeConfig(t_near=2.0, t_far=1.0, n_samples=16)
    with pytest.raises(ContractError):
        vol.VolumeConfig(n_samples=1)
    g, camera, _, _ = scenes.two_plane(8, 8)
    for seed in (-1, 2**64, 0.5):
        with pytest.raises(ContractError, match="seed must be an integer"):
            vol.BlendedLightField(FeatureGrid(np.zeros((8, 8, 4))), g, camera,
                                  zero_weights((decoder_input_dim(4), 8, 3)),
                                  vol.HypernetParams.fixed(zero_weights((w.dims[0], 8, 4))),
                                  seed=seed)
