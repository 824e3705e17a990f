import numpy as np
import pytest

from oracles import (cosine_grid_dirs, estimate_sums_by_sample, peak_rss_mb,
                     per_pixel_material_fd)
from ssdr import render, scenes
from ssdr.core import ContractError, GBuffer, dot, normalize
from ssdr.gradcheck import (check_light_params, check_render_material, frozen_values,
                            material_differences)
from ssdr.lighting import (ConstantLight, GridLight, LightField, SkyDiscLight,
                           SkyGradientLight, analytic_lightfield)
from ssdr.render import (PARAM_NAMES, RenderConfig, RenderNanError, reference_render,
                         render_backward, render_mc)


def _lambertian_plane(h, w, albedo=0.5):
    return GBuffer(albedo=np.full((h, w, 3), albedo),
                   normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                   depth=np.full((h, w), 2.0),
                   roughness=np.ones((h, w)),
                   metallic=np.zeros((h, w)))


def _light_from_spec(spec):
    return analytic_lightfield(spec["kind"],
                               **{k: v for k, v in spec.items() if k != "kind"})


def test_lambertian_constant_light_closed_form():
    g = _lambertian_plane(16, 16, albedo=0.5)
    camera = scenes.default_camera(16, 16)
    img = render_mc(g, camera, ConstantLight(1.0),
                    RenderConfig(spp=64, seed=3, specular_scale=0.0))
    # pure-diffuse sampling makes every sample exactly A * L
    assert np.allclose(img, 0.5, atol=1e-12)


def test_black_metal_renders_zero():
    h = w = 8
    g = GBuffer(albedo=np.zeros((h, w, 3)),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.full((h, w), 0.3),
                metallic=np.ones((h, w)))
    img = render_mc(g, scenes.default_camera(w, h), ConstantLight(1.0),
                    RenderConfig(spp=32, seed=1))
    assert np.all(img == 0.0)


def test_render_deterministic_across_threads():
    g, camera, spec, _ = scenes.glossy_floor(24, 24)
    light = _light_from_spec(spec)
    cfg = RenderConfig(spp=32, seed=11)
    ref = render_mc(g, camera, light, cfg, threads=1)
    for threads in (2, 4, 16):
        assert np.array_equal(ref, render_mc(g, camera, light, cfg, threads=threads))


def test_render_seed_changes_noise():
    g, camera, spec, _ = scenes.glossy_floor(16, 16)
    light = _light_from_spec(spec)
    a = render_mc(g, camera, light, RenderConfig(spp=8, seed=1))
    b = render_mc(g, camera, light, RenderConfig(spp=8, seed=2))
    assert not np.array_equal(a, b)


def test_variance_scaling_quarter_at_4x_spp():
    g, camera, _, _ = scenes.glossy_floor(8, 8)
    g = GBuffer(albedo=g.albedo, normal=g.normal, depth=g.depth,
                roughness=np.full(g.depth.shape, 0.3), metallic=g.metallic)
    light = SkyGradientLight(zenith=[2.0, 1.8, 1.6], horizon=[0.3, 0.35, 0.4])
    runs_n = np.stack([render_mc(g, camera, light, RenderConfig(spp=16, seed=s))
                       for s in range(100)])
    runs_4n = np.stack([render_mc(g, camera, light, RenderConfig(spp=64, seed=1000 + s))
                        for s in range(100)])
    var_n = runs_n.var(axis=0, ddof=1).mean()
    var_4n = runs_4n.var(axis=0, ddof=1).mean()
    ratio = var_4n / var_n
    assert abs(ratio - 0.25) < 0.05  # within 20% of the 1/N law


def test_unbiasedness_against_quadrature(monkeypatch):
    """Seed-averaged estimates converge to the deterministic quadrature,
    with the pdf floor off so the estimator is exactly unbiased."""
    monkeypatch.setattr(render, "_PDF_FLOOR", 0.0)
    h = w = 4
    rng = np.random.default_rng(2)
    g = GBuffer(albedo=np.full((h, w, 3), 0.7),
                normal=normalize(np.tile([0.0, -0.2, -1.0], (h, w, 1))),
                depth=np.full((h, w), 2.0),
                roughness=np.full((h, w), 0.35),
                metallic=np.full((h, w), 0.6))
    camera = scenes.default_camera(w, h)
    light = SkyDiscLight(zenith=[0.8, 0.8, 1.0], horizon=[0.3, 0.25, 0.2],
                         disc_direction=normalize([0.2, -0.7, 0.4]),
                         disc_radius=0.3, disc_color=[6.0, 5.0, 4.0])
    ref = reference_render(g, camera, light, cells=(256, 512), mode="split")
    n_seeds = 400
    cfg = [RenderConfig(spp=16, seed=s) for s in range(n_seeds)]
    runs = np.stack([render_mc(g, camera, light, c) for c in cfg])
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / np.sqrt(n_seeds)
    assert np.all(np.abs(mean - ref) <= 3.0 * se + 1e-4)


def test_energy_bound_under_constant_light():
    h = w = 12
    g = GBuffer(albedo=np.ones((h, w, 3)),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.full((h, w), 0.5),
                metallic=np.full((h, w), 1.0))
    img = render_mc(g, scenes.default_camera(w, h), ConstantLight(1.0),
                    RenderConfig(spp=2048, seed=5))
    assert np.all(img <= 1.0 + 0.02)


def test_discretized_lambertian_matches_closed_form():
    g = _lambertian_plane(12, 12, albedo=0.37)
    camera = scenes.default_camera(12, 12)
    img = reference_render(g, camera, ConstantLight(1.0), cells=(16, 32),
                           specular_scale=0.0, mode="cosine")
    assert np.allclose(img, 0.37, rtol=1e-2)


@pytest.mark.parametrize("cells", [(0, 0), (-3, -6), (4, 0)])
def test_reference_rejects_cells_below_one(cells):
    """No cells would leave nothing to average (a division by zero)."""
    g = _lambertian_plane(4, 4)
    with pytest.raises(ContractError, match="reference cells"):
        reference_render(g, scenes.default_camera(4, 4), ConstantLight(1.0),
                         cells=cells)


@pytest.mark.parametrize("mode", ["Split", "cos", ""])
def test_reference_rejects_an_unknown_mode(mode):
    """A mode other than "split" and "cosine" is refused before the light
    is queried, not run as the split quadrature."""
    g = _lambertian_plane(4, 4)
    light = _PointLight()
    with pytest.raises(ContractError, match='"split" or "cosine"'):
        reference_render(g, scenes.default_camera(4, 4), light, cells=(2, 2), mode=mode)
    assert light.points == []


def test_reference_of_no_shadeable_pixel_is_black():
    """A surface that faces away from the camera everywhere has nothing to
    shade: a black image, not an empty reduction."""
    g = GBuffer(albedo=np.full((4, 4, 3), 0.5), normal=np.tile([0.0, 0.0, 1.0], (4, 4, 1)),
                depth=np.full((4, 4), 2.0), roughness=np.ones((4, 4)), metallic=np.zeros((4, 4)))
    img = reference_render(g, scenes.default_camera(4, 4), ConstantLight(1.0))
    assert img.shape == (4, 4, 3) and not img.any()


def test_mc_and_dense_grid_converge_to_same_integral():
    """With the BRDF forced diffuse and a dense grid, both estimators
    approximate the same hemisphere integral."""
    g, camera, _, _ = scenes.two_plane(16, 16)
    light = SkyGradientLight(zenith=[1.6, 1.5, 1.3], horizon=[0.4, 0.45, 0.55])
    mc = render_mc(g, camera, light,
                   RenderConfig(spp=4096, seed=0, specular_scale=0.0))
    disc = reference_render(g, camera, light, cells=(64, 128), specular_scale=0.0,
                            mode="cosine")
    assert np.max(np.abs(mc - disc)) / disc.max() < 0.01


def test_discretized_misses_mirror_peak():
    """Fixed-direction quadrature misses a sharp lobe aimed between its cell
    centers; the importance sampler does not."""
    h = w = 8
    g = GBuffer(albedo=np.full((h, w, 3), 0.9),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.full((h, w), 0.01),
                metallic=np.ones((h, w)))
    camera = scenes.default_camera(w, h)
    # compact source roughly along the mirror of the central view ray
    src = normalize(np.array([0.231, 0.113, -0.93]))
    light = SkyDiscLight(zenith=[0.02] * 3, horizon=[0.02] * 3,
                         disc_direction=src, disc_radius=0.05,
                         disc_color=[40.0, 40.0, 40.0])
    ref = reference_render(g, camera, light, cells=(128, 256), mode="split")
    mc = render_mc(g, camera, light, RenderConfig(spp=256, seed=3))
    disc = reference_render(g, camera, light, cells=(16, 32), mode="cosine")
    bright = ref[..., 0] > 0.5 * ref[..., 0].max()
    rel_mc = np.abs(mc[bright] - ref[bright]) / ref[bright]
    rel_disc = np.abs(disc[bright] - ref[bright]) / ref[bright]
    assert np.median(rel_mc) < 0.05
    assert np.median(rel_disc) > 0.5


def test_invalid_samples_count_in_n():
    """Grazing geometry produces invalid samples; they dilute the average
    rather than being resampled."""
    h = w = 4
    g = GBuffer(albedo=np.full((h, w, 3), 1.0),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.ones((h, w)),
                metallic=np.ones((h, w)))
    camera = scenes.default_camera(w, h)
    img = render_mc(g, camera, ConstantLight(1.0), RenderConfig(spp=512, seed=2))
    # rough metal: roughly half the mirrored samples fall below the horizon
    # and contribute zero, so the furnace value sits well below 1
    assert np.all(img < 0.6)
    assert np.all(img > 0.15)


class _NanLight(LightField):
    def radiance(self, p, d):
        out = np.ones((np.atleast_2d(d).shape[0], 3))
        out[0] = np.nan
        return out


def test_nan_aborts_with_pixel():
    g = _lambertian_plane(4, 4)
    with pytest.raises(RenderNanError) as exc:
        render_mc(g, scenes.default_camera(4, 4), _NanLight(),
                  RenderConfig(spp=4, seed=0, specular_scale=0.0))
    assert exc.value.pixel is not None


@pytest.mark.parametrize("mode", ["split", "cosine"])
def test_quadrature_estimators_abort_with_pixel(mode):
    """The quadrature estimators report a non-finite pixel as `render_mc`
    does, instead of returning it."""
    g = _lambertian_plane(4, 4)
    with pytest.raises(RenderNanError) as exc:
        reference_render(g, scenes.default_camera(4, 4), _NanLight(), specular_scale=0.0,
                         mode=mode)
    assert exc.value.pixel == (0, 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_render_workers_run_under_the_callers_errstate(threads):
    """The render's worker threads run under the caller's `np.errstate`, as
    its own thread does: an overflow raises at any thread count."""
    g, camera, _, _ = scenes.two_plane(8, 16)    # two row blocks
    g.albedo[...] = 0.1
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        render_mc(g, camera, ConstantLight(1e308), RenderConfig(spp=64), threads=threads)


def test_reference_modes_agree_on_smooth_scene():
    g, camera, spec, _ = scenes.two_plane(12, 12)
    light = _light_from_spec(spec)
    a = reference_render(g, camera, light, cells=(96, 192), mode="split")
    b = reference_render(g, camera, light, cells=(256, 512), mode="cosine")
    assert np.max(np.abs(a - b)) < 2e-3


def test_frozen_samples_reproduce_forward(glossy_patch):
    """The frozen-sample estimator at the base parameters equals the plain
    forward render: both consume the identical random streams."""
    camera = scenes.default_camera(8, 8)
    light = SkyGradientLight(zenith=[1.2, 1.1, 1.0], horizon=[0.3, 0.35, 0.4])
    cfg = RenderConfig(spp=48, seed=13)
    img = render_mc(glossy_patch, camera, light, cfg)
    (vals,) = frozen_values(glossy_patch, camera, [(glossy_patch, light)], cfg)
    valid = render.pixel_geometry(glossy_patch, camera)[2]
    assert np.array_equal(img[valid], vals)


@pytest.mark.parametrize("lanes", [render._CHUNK_LANES, 8 * 8 * 3])
@pytest.mark.parametrize("threads", [1, 2])
def test_frozen_values_have_the_renders_bytes(monkeypatch, threads, lanes):
    """At the base maps, every frozen value is the bytes of `render_mc`'s
    pixel, on two row blocks at threads 1 and 2, and with the chunk cap
    low enough that each row block is several sample chunks: the checks
    shade through the render's blocks and chunks."""
    g, camera, spec, _ = scenes.glossy_floor(8, 16)     # two row blocks
    light = _light_from_spec(spec)
    cfg = RenderConfig(spp=8, seed=2)
    monkeypatch.setattr(render, "_CHUNK_LANES", lanes)
    image = render_mc(g, camera, light, cfg, threads=threads)
    shifted = GBuffer(g.albedo * 0.5, g.normal, g.depth, g.roughness, g.metallic)
    vals, half = frozen_values(g, camera, [(g, light), (shifted, light)], cfg)
    valid = render.pixel_geometry(g, camera)[2]
    assert np.ascontiguousarray(vals).tobytes() == image[valid].tobytes()
    assert not np.array_equal(half, vals)


def test_gradcheck_module_classes(glossy_patch):
    camera = scenes.default_camera(8, 8)
    light = SkyGradientLight(zenith=[1.5, 1.4, 1.2], horizon=[0.4, 0.5, 0.7])
    results = check_render_material(glossy_patch, camera, light,
                                    RenderConfig(spp=32, seed=5), tol=1e-4)
    for r in results:
        assert r.passed, str(r)


def test_gradcheck_light_params_without_parameters_is_a_contract_error(glossy_patch):
    """A light without parameters has no adjoint to check: a ContractError
    that says so, not a reduction over an empty adjoint."""
    light = GridLight(np.ones((2, 2, 2, 4, 6, 3)), [[-2, -2, 0], [2, 2, 4]])
    with pytest.raises(ContractError, match="has no parameters"):
        check_light_params(glossy_patch, scenes.default_camera(8, 8), light,
                           RenderConfig(spp=2, seed=1))


def test_gradcheck_unknown_material_class_is_a_contract_error(glossy_patch):
    light = ConstantLight([0.9, 1.0, 1.1])
    with pytest.raises(ContractError, match="unknown material class 'light'"):
        check_render_material(glossy_patch, scenes.default_camera(8, 8), light,
                              RenderConfig(spp=2, seed=1), classes=("light",))


@pytest.mark.parametrize("cls", ["albedo", "roughness", "metallic", "normal"])
def test_material_differences_match_per_pixel_loop(glossy_patch, cls):
    """Shifting every pixel at once, all four classes in one pass, gives
    each pixel's own central difference, as perturbing one pixel at a time
    does."""
    camera = scenes.default_camera(8, 8)
    light = SkyGradientLight(zenith=[1.5, 1.4, 1.2], horizon=[0.4, 0.5, 0.7])
    cfg = RenderConfig(spp=32, seed=5)
    grad = render_backward(glossy_patch, camera, light, cfg, np.ones((8, 8, 3)))
    _, diffs = material_differences(glossy_patch, camera, grad, light, cfg,
                                    render.MATERIAL_NAMES)
    fd, adj = diffs[cls]
    ref = per_pixel_material_fd(glossy_patch, camera, light, cfg, cls)
    assert fd.shape == adj.shape == ref.shape
    assert np.max(np.abs(fd - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_roughness_check_passes_at_the_clip_bound():
    """Every cornell-like plane has roughness 1.0, the upper bound `brdf`
    clips to.  At specular_scale 1 under its own light the roughness
    check takes the one-sided difference below the bound and passes at
    1e-4; the central difference across the clip read half the adjoint,
    a relative error of 0.5016."""
    g, camera, spec, _ = scenes.cornell_like(16, 16)
    assert np.all(g.roughness == 1.0)
    (result,) = check_render_material(g, camera, _light_from_spec(spec),
                                      RenderConfig(spp=32, seed=3, specular_scale=1.0),
                                      tol=1e-4, classes=("roughness",))
    assert result.passed, str(result)


def test_roughness_differences_are_one_sided_only_at_the_bounds():
    """A pixel at or beyond a roughness bound gets the one-sided difference
    into [ROUGHNESS_FLOOR, 1], which is 0 beyond it, as the adjoint is;
    every pixel inside keeps its central difference's bytes, the same as
    with no pixel at a bound."""
    g, camera, spec, _ = scenes.glossy_floor(12, 12)
    levels = np.array([0.004, render.brdf.ROUGHNESS_FLOOR, 0.3, 0.7, 1.0, 1.3])
    rough = levels[np.arange(144).reshape(12, 12) % 6]
    light, cfg = _light_from_spec(spec), RenderConfig(spp=16, seed=3)
    valid = render.pixel_geometry(g, camera)[2]
    inside = (rough > levels[1]) & (rough < 1.0)

    def differences(roughness):
        gr = GBuffer(g.albedo, g.normal, g.depth, roughness, g.metallic)
        grad = render_backward(gr, camera, light, cfg, np.ones((12, 12, 3)),
                               params=("roughness",))
        fd, adj = material_differences(gr, camera, grad, light, cfg, ("roughness",))[1]["roughness"]
        return fd[:, 0], adj[:, 0]

    fd, adj = differences(rough)
    inside, beyond = inside[valid], np.isin(rough, levels[[0, 5]])[valid]
    assert inside.any() and beyond.any() and (~inside & ~beyond).any()
    assert np.all(fd[beyond] == 0.0) and np.all(adj[beyond] == 0.0)
    unbounded = differences(np.where((rough > levels[1]) & (rough < 1.0), rough, 0.5))[0]
    assert fd[inside].tobytes() == unbounded[inside].tobytes()
    assert np.max(np.abs(fd - adj)) <= 1e-4 * np.max(np.abs(adj))


def test_backward_zero_adjoint_zero_grads(glossy_patch):
    camera = scenes.default_camera(8, 8)
    light = ConstantLight(1.0)
    grad = render_backward(glossy_patch, camera, light, RenderConfig(spp=16, seed=1),
                           np.zeros((8, 8, 3)), params=PARAM_NAMES)
    assert list(grad) == list(PARAM_NAMES)
    assert all(np.all(a == 0.0) for a in grad.values())


def test_backward_lambertian_albedo_gradient():
    g = _lambertian_plane(8, 8, albedo=0.5)
    camera = scenes.default_camera(8, 8)
    grad = render_backward(g, camera, ConstantLight(1.0),
                           RenderConfig(spp=64, seed=2, specular_scale=0.0),
                           np.ones((8, 8, 3)))
    assert np.allclose(grad["albedo"], 1.0, atol=1e-3)  # d(A L)/dA = L = 1


def test_backward_normal_gradient_tangent(glossy_patch):
    camera = scenes.default_camera(8, 8)
    grad = render_backward(glossy_patch, camera, ConstantLight(1.0),
                           RenderConfig(spp=32, seed=7), np.ones((8, 8, 3)))
    dots = np.abs(np.sum(grad["normal"] * glossy_patch.normal, axis=-1))
    assert np.all(dots <= 1e-5 * (1.0 + np.linalg.norm(grad["normal"], axis=-1)))


def test_backward_threads_deterministic(glossy_patch):
    camera = scenes.default_camera(8, 8)
    light = SkyGradientLight(zenith=[1.0, 1.0, 1.2], horizon=[0.3, 0.3, 0.3])
    cfg = RenderConfig(spp=16, seed=9)
    dI = np.ones((8, 8, 3))
    g1 = render_backward(glossy_patch, camera, light, cfg, dI, threads=1,
                         params=PARAM_NAMES)
    g4 = render_backward(glossy_patch, camera, light, cfg, dI, threads=4,
                         params=PARAM_NAMES)
    assert list(g1) == list(g4) == list(PARAM_NAMES)
    assert all(g1[name].tobytes() == g4[name].tobytes() for name in PARAM_NAMES)


def test_estimate_sums_keep_their_reduction_orders(glossy_patch):
    """One row block's sums from `_estimate` have the oracle's bytes: the
    value, albedo and normal sums sequential over the samples, the
    roughness and metallic sums pairwise, as np.sum sums a row-major
    (n_pix, spp) array.  At spp 24 the two orders differ, so a sum whose
    order followed the lane layout would show."""
    camera = scenes.default_camera(8, 8)
    light = SkyDiscLight([1.2, 1.2, 1.4], [0.4, 0.38, 0.35], [0.2, -1.0, 0.3],
                         0.3, [6.0, 5.0, 4.0])
    cfg = RenderConfig(spp=24, seed=4)
    px = render._pixels(glossy_patch, *render.pixel_geometry(glossy_patch, camera),
                        slice(0, 8))
    d, ok = render._draw(px, cfg, 0, cfg.spp)
    adj = np.random.default_rng(3).normal(size=(px.gy.size, 3))
    for a, params in ((None, ()), (adj, render.MATERIAL_NAMES)):
        sums, _ = render._estimate(px, d, ok, light, cfg, a, params)
        want = estimate_sums_by_sample(px, d, ok, light, cfg, a, params)
        assert len(sums) == len(want)
        for got, ref in zip(sums, want):
            assert got.tobytes() == ref.tobytes()
    # the orders tell apart at this spp: summed sequentially, the roughness
    # and metallic sums move
    pair = estimate_sums_by_sample(px, d, ok, light, cfg, adj, render.MATERIAL_NAMES)
    seq = estimate_sums_by_sample(px, d, ok, light, cfg, adj, render.MATERIAL_NAMES,
                                  pairwise=())
    for i in (1, 2):
        assert seq[i].tobytes() != pair[i].tobytes()


def test_cosine_grid_estimates_irradiance():
    # sanity on the oracle helper itself: constant light irradiance = pi * L
    n = np.array([0.0, 0.0, 1.0])
    d = cosine_grid_dirs(n, (64, 128))
    assert np.all(dot(d, n) > 0)
    # E[L] over cosine cells approximates (1/pi) * integral(L cos)
    vals = np.full(d.shape[0], 2.0)
    assert abs(vals.mean() - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the sample tape: render_mc records its samples and light queries, and
# render_backward reads them instead of replaying the forward pass


def _tape_light(kind, g, camera):
    if kind == "sky-disc":
        return SkyDiscLight([1.2, 1.2, 1.4], [0.4, 0.38, 0.35], [0.2, -1.0, 0.3],
                            0.3, [6.0, 5.0, 4.0])
    if kind == "constant":
        return ConstantLight([0.9, 1.0, 1.1])
    if kind == "grid":
        return GridLight(np.random.default_rng(5).uniform(0.0, 2.0, (3, 2, 2, 4, 6, 3)),
                         [[-2, -2, 0], [2, 2, 4]])
    from ssdr import volumetric as vol
    from ssdr.lighting import FeatureGrid, decoder_input_dim
    from ssdr.mlp import MlpWeights
    grid = FeatureGrid(np.random.default_rng(1).normal(size=g.depth.shape + (4,)))
    dec = MlpWeights.random((decoder_input_dim(4), 8, 3), seed=3, scale=0.2)
    vw = MlpWeights.random((vol.field_input_dim(4), 8, 4), seed=4, scale=0.3)
    return vol.BlendedLightField(grid, g, camera, dec, vol.HypernetParams.fixed(vw),
                                 volume_cfg=vol.VolumeConfig(n_samples=6))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["sky-disc", "constant", "grid", "learned"])
def test_render_backward_from_tape_matches_replay_bytes(kind, threads):
    """The adjoint that reads the render's tape is the replayed adjoint,
    bit for bit, with and without the light's adjoint; the render that
    records the tape is the plain render's bits."""
    g, camera, _, _ = scenes.two_plane(12, 12)   # two row blocks
    light = _tape_light(kind, g, camera)
    cfg = RenderConfig(spp=6, seed=5)
    tape = []
    image = render_mc(g, camera, light, cfg, threads=threads, tape=tape)
    assert image.tobytes() == render_mc(g, camera, light, cfg).tobytes()
    assert len(tape) == 1 + 2
    dI = np.random.default_rng(2).normal(size=image.shape)

    def no_query(*args, **kwargs):
        raise AssertionError("the adjoint queried the light despite its tape")

    for params in (PARAM_NAMES[:4], PARAM_NAMES):
        light.radiance = light.radiance_vjp = no_query
        taped = render_backward(g, camera, light, cfg, dI, threads=threads,
                                params=params, tape=tape)
        del light.radiance, light.radiance_vjp
        replay = render_backward(g, camera, light, cfg, dI, threads=threads,
                                 params=params)
        assert list(taped) == list(replay) == list(params)
        for name in params:
            assert taped[name].tobytes() == replay[name].tobytes(), name
    if kind == "constant":
        assert np.any(taped["light"] != 0.0)


@pytest.mark.parametrize("params", [("albedo", "roughness"), ("roughness", "albedo"),
                                    ("normal",), ("metallic", "light"), ("light",), ()])
def test_render_backward_forms_only_the_asked_adjoints(params):
    """A subset of PARAM_NAMES, in any order, gives a mapping of exactly
    the asked names, in PARAM_NAMES order, each with the bytes of the call
    that asks for everything; from the tape and by replay alike."""
    g, camera, _, _ = scenes.glossy_floor(12, 12)
    light = ConstantLight([0.9, 1.0, 1.1])
    cfg = RenderConfig(spp=6, seed=5)
    dI = np.random.default_rng(2).normal(size=(12, 12, 3))
    full = render_backward(g, camera, light, cfg, dI, params=PARAM_NAMES)
    assert all(np.any(full[name] != 0.0) for name in PARAM_NAMES)
    tape = []
    render_mc(g, camera, light, cfg, tape=tape)
    for got in (render_backward(g, camera, light, cfg, dI, params=params),
                render_backward(g, camera, light, cfg, dI, params=params, tape=tape)):
        assert list(got) == [name for name in PARAM_NAMES if name in params]
        for name in params:
            assert got[name].tobytes() == full[name].tobytes(), name


def test_render_backward_default_is_the_material_maps(glossy_patch):
    camera = scenes.default_camera(8, 8)
    cfg = RenderConfig(spp=4, seed=1)
    grad = render_backward(glossy_patch, camera, ConstantLight(1.0), cfg, np.ones((8, 8, 3)))
    assert list(grad) == list(render.MATERIAL_NAMES)
    # each adjoint has its map's shape
    assert all(grad[name].shape == getattr(glossy_patch, name).shape for name in grad)


@pytest.mark.parametrize("params", [("albedo", "velocity"), "albedo", ("Light",)])
def test_render_backward_rejects_unknown_names(glossy_patch, params):
    camera = scenes.default_camera(8, 8)
    with pytest.raises(ContractError, match="unknown parameter class"):
        render_backward(glossy_patch, camera, ConstantLight(1.0), RenderConfig(spp=2),
                        np.ones((8, 8, 3)), params=params)


@pytest.mark.parametrize("dI,message", [
    (np.ones((8, 7, 3)), "shape mismatch"), (np.ones((8, 8)), "shape mismatch"),
    (np.full((8, 8, 3), np.inf), "must be finite")], ids=["width", "channels", "inf"])
def test_render_backward_rejects_a_bad_adjoint_image(glossy_patch, dI, message):
    with pytest.raises(ContractError, match=message):
        render_backward(glossy_patch, scenes.default_camera(8, 8), ConstantLight(1.0),
                        RenderConfig(spp=2), dI)


def test_render_config_rejects_spp_below_one():
    with pytest.raises(ContractError, match="spp must be >= 1"):
        RenderConfig(spp=0)


def test_render_above_the_lane_cap_records_nothing(monkeypatch):
    """A render whose valid pixels x spp exceed one chunk leaves the tape
    empty (also emptying what it held), and the adjoint given the empty
    tape replays the samples."""
    import ssdr.render as render
    g, camera, spec, _ = scenes.glossy_floor(8, 8)
    light = _light_from_spec(spec)
    cfg = RenderConfig(spp=4, seed=1)
    tape = ["stale"]
    monkeypatch.setattr(render, "_CHUNK_LANES", 8 * 8 * 4 - 1)
    image = render_mc(g, camera, light, cfg, tape=tape)
    assert tape == []
    dI = np.ones_like(image)
    got = render_backward(g, camera, light, cfg, dI, tape=tape)
    want = render_backward(g, camera, light, cfg, dI)
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes()
    monkeypatch.setattr(render, "_CHUNK_LANES", 8 * 8 * 4)
    render_mc(g, camera, light, cfg, tape=tape)
    assert len(tape) == 2


def _chunk_count(g, camera, cfg) -> int:
    """The number of sample chunks of a render, over all row blocks."""
    _, _, valid = render.pixel_geometry(g, camera)
    return sum(len(list(render._sample_chunks(np.count_nonzero(valid[rows]), cfg.spp)))
               for rows in render._row_blocks(g.depth.shape[0]))


def test_value_pass_forms_d_once_per_chunk(monkeypatch):
    """The value pass's two BRDF views read one record of the half-vector
    terms: a render forms the GGX D once per sample chunk, where each view
    forming its own took two, and still calls each view once per chunk."""
    from ssdr import brdf
    g, camera, spec, _ = scenes.glossy_floor(8, 16)     # two row blocks
    cfg = RenderConfig(spp=8, seed=2)
    monkeypatch.setattr(render, "_CHUNK_LANES", 8 * 8 * 3)
    chunks = _chunk_count(g, camera, cfg)
    assert chunks > len(render._row_blocks(g.depth.shape[0]))
    calls = dict.fromkeys(("ggx_d", "mixture_pdf", "_eval_raw"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(brdf, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(brdf, name, counted)
    render_mc(g, camera, _light_from_spec(spec), cfg)
    assert calls == dict.fromkeys(calls, chunks)


class _PointLight(LightField):
    """Radiance 1 everywhere; records the points of every query."""

    def __init__(self):
        self.points = []

    def radiance(self, p, d):
        self.points.append(p.copy())
        return np.ones_like(d)


def test_masked_radiance_gathers_each_live_lanes_point():
    """`_masked_radiance` queries the light with each live lane's pixel
    point in lane order, the bytes of `p[np.nonzero(mask)[0]]`: with every
    lane live, with pixels that have no live lane, and with none live, when
    it queries nothing.  Directions and mask are in the lane layout."""
    rng = np.random.default_rng(3)
    n_pix, ns = 40, 6
    p = rng.normal(size=(n_pix, 3))
    d = render._lane_layout(normalize(rng.normal(size=(n_pix, ns, 3))))
    some = rng.random((n_pix, ns)) < 0.5
    some[::5] = False
    masks = {"all": np.ones((n_pix, ns), bool), "some": some,
             "none": np.zeros((n_pix, ns), bool)}
    for key, mask in masks.items():
        mask = render._lane_layout(mask[..., None])[..., 0]
        light = _PointLight()
        out, _ = render._masked_radiance(light, p, d, mask)
        assert np.array_equal(out, np.broadcast_to(mask[..., None], d.shape)), key
        want = p[np.nonzero(mask)[0]]
        assert [q.tobytes() for q in light.points] == ([want.tobytes()] if want.size else [])


def _layout(a):
    """a's strides along its axes longer than one, the only ones that
    place an element."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


class _NegatedLight(LightField):
    """Radiance -d, so every live lane's value has its own bytes and a sign
    bit; the base class's pullback."""

    def radiance(self, p, d):
        return -d


@pytest.mark.parametrize("n_pix, ns", [(40, 6), (1, 6), (40, 1), (1, 1)])
def test_lane_moves_keep_bytes_and_layout(n_pix, ns):
    """The record gather of live lanes has the bytes of `a[mask]`, and the
    record scatter those of `zeros_like(d); out[mask] = rad`, in d's
    layout, for directions in the lane layout and in C order and masks
    with no, some and every lane live.  `_masked_radiance` returns an
    array in d's layout, +0.0 at the dead lanes and, with no live lane, no
    pullback."""
    rng = np.random.default_rng(5)
    d_c = normalize(rng.normal(size=(n_pix, ns, 3)))
    some = rng.random((n_pix, ns)) < 0.5
    some.flat[-1] = False
    some.flat[0] = True     # at one lane, "some" is "all"
    masks = {"none": np.zeros((n_pix, ns), bool), "some": some,
             "all": np.ones((n_pix, ns), bool)}
    p = rng.normal(size=(n_pix, 3))
    for layout, d in (("lanes", render._lane_layout(d_c)), ("C", d_c)):
        for key, mask in masks.items():
            mask = render._lane_layout(mask[..., None])[..., 0]
            case = (layout, key)
            live = render._gather_lanes(d, mask)
            assert live.flags.c_contiguous and live.tobytes() == d[mask].tobytes(), case
            rad = rng.normal(size=live.shape)
            want = np.zeros_like(d)
            want[mask] = rad
            out = render._scatter_lanes(rad, mask, d)
            assert _layout(out) == _layout(d) and out.tobytes() == want.tobytes(), case
            for vjp in (False, True):
                out, pullback = render._masked_radiance(_NegatedLight(), p, d, mask, vjp)
                assert _layout(out) == _layout(d), case
                assert out[mask].tobytes() == (-d[mask]).tobytes(), case
                dead = out[~mask]
                assert not dead.any() and not np.signbit(dead).any(), case
                assert (pullback is not None) == (vjp and key != "none"), case


def test_tape_from_another_render_is_a_contract_error():
    """A tape recorded under another RenderConfig or G-buffer shape, or for
    other shadeable pixels, is rejected instead of yielding the gradients
    of other samples."""
    g, camera, spec, _ = scenes.glossy_floor(8, 8)
    light = _light_from_spec(spec)
    cfg = RenderConfig(spp=4, seed=1)
    tape = []
    render_mc(g, camera, light, cfg, tape=tape)
    dI = np.ones((8, 8, 3))
    for other in (RenderConfig(spp=4, seed=2), RenderConfig(spp=8, seed=1),
                  RenderConfig(spp=4, seed=1, specular_scale=0.5)):
        with pytest.raises(ContractError, match="tape"):
            render_backward(g, camera, light, other, dI, tape=tape)
    g16, camera16, _, _ = scenes.glossy_floor(16, 8)
    with pytest.raises(ContractError, match="tape"):
        render_backward(g16, camera16, light, cfg, np.ones((8, 16, 3)), tape=tape)
    holed = g.copy()
    holed.depth[3, 3] = 0.0
    with pytest.raises(ContractError, match="tape"):
        render_backward(holed, camera, light, cfg, dI, tape=tape)


# Each workload runs three times to warm the heap, then five measured
# times; the script prints the mean minor-fault count of each.
_MINOR_FAULTS = """
import resource
from ssdr import scenes
from ssdr.inverse import LossConfig, optimize
from ssdr.lighting import analytic_lightfield
from ssdr.render import RenderConfig, render_mc


def mean_faults(call):
    for _ in range(3):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5


g, camera, spec, _ = scenes.glossy_floor(32, 32)
light = analytic_lightfield(**spec)
target = 0.9 * render_mc(g, camera, light, RenderConfig(spp=64, seed=9))
cfg = LossConfig(iterations=1, step_size=0.01, params=("albedo", "roughness"),
                 spp=64, seed=4)
fit = mean_faults(lambda: optimize(g, camera, light, target, cfg))
g, camera, spec, _ = scenes.glossy_floor(64, 64)
light = analytic_lightfield(**spec)
render = mean_faults(lambda: render_mc(g, camera, light, RenderConfig(spp=64, seed=3),
                                       threads=2))
print(fit, render, flush=True)
"""


def _has_mallopt() -> bool:
    import ctypes
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_warm_fit_and_render_take_few_page_faults():
    """Once the heap is warm, a glossy-floor 32x32 spp-64 albedo + roughness
    `optimize` iteration and a 64x64 spp-64 `render_mc` at threads 2 each
    take at most 500 minor page faults per call, over five calls: the row
    blocks' freed temporaries stay mapped for the next block
    (`render._keep_freed_heap`).  With the heap trimmed they took about 6k
    and 16k per call.  Most warm renders take 6; now and then one takes a
    few hundred, when the two workers' blocks interleave into a new high
    point of the heap, so the bound is on the mean.  The script runs in a
    fresh interpreter, so the heap it measures is its own."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ssdr
    env = {**os.environ, "PYTHONPATH": str(Path(ssdr.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _MINOR_FAULTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    fit, render_faults = map(float, out.stdout.split()[-2:])
    assert fit <= 500 and render_faults <= 500, (fit, render_faults)


def test_keep_freed_heap_does_nothing_without_libc(monkeypatch):
    """Where `ctypes.CDLL` cannot open libc (an OSError), the heap policy
    returns without calling `mallopt`."""
    import ctypes

    def no_libc(*args, **kwargs):
        raise OSError("no libc")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert render._keep_freed_heap() is None


_MAPS = ("7f00-7f01 r-xp 00000000 08:01 42 /lib/libopenblas.so.0\n"
         "7f02-7f03 r-xp 00000000 08:01 43 /lib/libc.so.6\n")


@pytest.mark.parametrize("symbols,called", [
    ((), []),
    (("openblas_set_num_threads",), [("openblas_set_num_threads", 1)]),
    (("openblas_set_num_threads", "scipy_openblas_set_num_threads64_"),
     [("scipy_openblas_set_num_threads64_", 1)])])
def test_one_blas_thread_calls_the_first_set_threads_symbol(monkeypatch, symbols, called):
    """The BLAS pin opens each mapped object whose line names openblas, and
    calls the first set-threads symbol it has with 1; a library with none
    of them is left alone."""
    import ctypes
    import io
    import types

    calls, opened = [], []
    lib = types.SimpleNamespace(**{name: (lambda n, name=name: calls.append((name, n)))
                                   for name in symbols})
    monkeypatch.setattr(render, "open", lambda path: io.StringIO(_MAPS), raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: opened.append(path) or lib)
    render._one_blas_thread()
    assert opened == ["/lib/libopenblas.so.0"] and calls == called


def test_one_blas_thread_does_nothing_without_the_mapped_objects(monkeypatch):
    """Where the process's mapped objects cannot be read (no /proc), the
    BLAS pin returns without opening a library."""
    import ctypes

    def no_maps(path):
        raise OSError(f"{path}: no such file")

    opened = []
    monkeypatch.setattr(render, "open", no_maps, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: opened.append(path))
    assert render._one_blas_thread() is None and opened == []


def test_gradient_checks_draw_once_per_chunk(monkeypatch):
    """A gradient check draws each sample chunk's directions once for the
    adjoint it checks and once for all its shifted maps or lights (15
    with all four material classes), not once per chunk per shift."""
    from ssdr import brdf
    g, camera, _, _ = scenes.glossy_floor(8, 16)        # two row blocks
    cfg = RenderConfig(spp=8, seed=2)
    monkeypatch.setattr(render, "_CHUNK_LANES", 8 * 8 * 3)
    chunks = _chunk_count(g, camera, cfg)
    assert chunks > len(render._row_blocks(g.depth.shape[0]))
    draws = []
    real = brdf.sample_directions

    def counted(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(brdf, "sample_directions", counted)
    light = ConstantLight([0.9, 1.0, 1.1])
    assert len(check_render_material(g, camera, light, cfg, tol=np.inf)) == 4
    assert len(draws) == 2 * chunks
    draws.clear()
    check_light_params(g, camera, light, cfg, n_components=3, tol=np.inf)
    assert len(draws) == 2 * chunks


_GRADCHECK_RSS = """
from ssdr import gradcheck, scenes
from ssdr.lighting import analytic_lightfield
from ssdr.render import RenderConfig
g, camera, spec, _ = scenes.glossy_floor(96, 96)
results = gradcheck.check_render_material(g, camera, analytic_lightfield(**spec),
                                          RenderConfig(spp=32, seed=3))
assert len(results) == 4
"""


def test_gradient_check_peak_rss_is_bounded():
    """`check_render_material` on glossy-floor 96x96 at spp 32, all four
    classes, peaks at 70 MB or less in a process of its own: it shades its
    15 shifted maps one row block and sample chunk at a time.  Shading
    every pixel's every sample in one array, it peaked at about 100 MB."""
    peak_mb = peak_rss_mb(_GRADCHECK_RSS)
    assert peak_mb <= 70, peak_mb
