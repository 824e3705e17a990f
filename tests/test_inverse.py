import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdr import inverse, render, scenes, volumetric as vol
from ssdr.core import ContractError, GBuffer, ImageBuffer
from ssdr.gradcheck import check_light_params
from ssdr.inverse import AdamState, LossConfig, loss_rerender, optimize
from ssdr.lighting import ConstantLight, FeatureGrid, SkyGradientLight, decoder_input_dim
from ssdr.mlp import MlpWeights


def test_loss_rerender_zero_at_match():
    x = np.random.default_rng(0).random((4, 4, 3))
    loss, adj = loss_rerender(x, x)
    assert loss == 0.0
    assert np.all(adj == 0.0)


def test_loss_rerender_single_pixel_value():
    pred = np.ones((1, 1, 3))
    target = np.zeros((1, 1, 3))
    loss, adj = loss_rerender(pred, target)
    assert np.isclose(loss, 1.0)
    assert np.allclose(adj, 2.0 / 3.0)


def test_loss_rerender_reads_image_buffers():
    """An ImageBuffer gives the loss and adjoint of its data array."""
    x, y = np.random.default_rng(1).random((2, 3, 2, 3))
    got = loss_rerender(ImageBuffer(2, 3, 3, x), ImageBuffer(2, 3, 3, y))
    want = loss_rerender(x, y)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


@given(st.floats(0.1, 10.0))
@settings(max_examples=50)
def test_loss_rerender_quadratic_homogeneity(k):
    rng = np.random.default_rng(1)
    target = rng.random((3, 5, 3))
    resid = rng.normal(size=(3, 5, 3))
    l1, _ = loss_rerender(target + resid, target)
    lk, _ = loss_rerender(target + k * resid, target)
    assert np.isclose(lk, k * k * l1, rtol=1e-10)


def test_loss_rerender_shape_mismatch():
    with pytest.raises(ContractError):
        loss_rerender(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))


def test_loss_rerender_fd_adjoint():
    rng = np.random.default_rng(2)
    pred = rng.random((3, 4, 3))
    target = rng.random((3, 4, 3))
    _, adj = loss_rerender(pred, target)
    eps = 1e-7
    for _ in range(20):
        i, j, c = rng.integers(3), rng.integers(4), rng.integers(3)
        p = pred.copy(); p[i, j, c] += eps
        m = pred.copy(); m[i, j, c] -= eps
        fd = (loss_rerender(p, target)[0] - loss_rerender(m, target)[0]) / (2 * eps)
        assert abs(fd - adj[i, j, c]) <= 1e-6 * max(1.0, abs(fd))


def test_adam_zero_grad_zero_step():
    state = AdamState.like(np.zeros(5))
    assert np.all(state.step(np.zeros(5), lr=0.1) == 0.0)


def _lambertian_setup(h=12, w=12, albedo_true=0.6, albedo_init=0.2):
    camera = scenes.default_camera(w, h)
    base = dict(normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.ones((h, w)),
                metallic=np.zeros((h, w)))
    g_true = GBuffer(albedo=np.full((h, w, 3), albedo_true), **base)
    g_init = GBuffer(albedo=np.full((h, w, 3), albedo_init),
                     **{k: v.copy() for k, v in base.items()})
    light = ConstantLight(1.0)
    target = render.render_mc(g_true, camera, light,
                              render.RenderConfig(spp=16, seed=99,
                                                  specular_scale=0.0))
    return g_init, camera, light, target


def test_optimize_zero_iterations_identity():
    g_init, camera, light, target = _lambertian_setup()
    before = g_init.albedo.copy()
    res = optimize(g_init, camera, light, target,
                   LossConfig(iterations=0, params=("albedo",),
                              specular_scale=0.0))
    assert np.array_equal(res.gbuffer.albedo, before)
    assert res.trace == []


def test_optimize_zero_step_identity():
    g_init, camera, light, target = _lambertian_setup()
    before = g_init.albedo.copy()
    res = optimize(g_init, camera, light, target,
                   LossConfig(iterations=5, step_size=0.0, params=("albedo",),
                              spp=4, specular_scale=0.0))
    assert np.array_equal(res.gbuffer.albedo, before)


def test_optimize_recovers_albedo():
    g_init, camera, light, target = _lambertian_setup()
    cfg = LossConfig(iterations=150, step_size=0.05, params=("albedo",),
                     spp=4, seed=1, specular_scale=0.0)
    res = optimize(g_init, camera, light, target, cfg)
    assert np.max(np.abs(res.gbuffer.albedo - 0.6)) < 0.02
    assert res.trace[-1]["loss"] < 0.01 * res.trace[0]["loss"]


def test_optimize_reproducible_bitwise():
    g_init, camera, light, target = _lambertian_setup(h=6, w=6)
    cfg = LossConfig(iterations=8, step_size=0.05, params=("albedo",),
                     spp=4, seed=5, specular_scale=0.0)
    a = optimize(g_init.copy(), camera, light, target, cfg)
    b = optimize(g_init.copy(), camera, light, target, cfg)
    assert np.array_equal(a.gbuffer.albedo, b.gbuffer.albedo)
    assert [r["loss"] for r in a.trace] == [r["loss"] for r in b.trace]


def test_roughness_sweep_has_minimum_at_truth():
    """1-D sweep oracle: the re-render loss is unimodal with its minimum at
    the true roughness, before we trust the optimizer with it."""
    h = w = 12
    camera = scenes.default_camera(w, h)
    base = dict(albedo=np.full((h, w, 3), 0.8),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                metallic=np.ones((h, w)))
    light = SkyGradientLight(zenith=[2.0, 1.8, 1.5], horizon=[0.2, 0.3, 0.5],
                             up=(0.2, -0.3, -0.93))
    g_true = GBuffer(roughness=np.full((h, w), 0.3),
                     **{k: v.copy() for k, v in base.items()})
    target = render.reference_render(g_true, camera, light, cells=(96, 192),
                                     mode="split")
    sweep = [0.1, 0.2, 0.3, 0.4, 0.6, 0.8]
    losses = []
    for r in sweep:
        g = GBuffer(roughness=np.full((h, w), r),
                    **{k: v.copy() for k, v in base.items()})
        img = render.render_mc(g, camera, light,
                               render.RenderConfig(spp=96, seed=7))
        losses.append(loss_rerender(img, target)[0])
    assert sweep[int(np.argmin(losses))] == 0.3


def test_optimize_recovers_roughness():
    h = w = 12
    camera = scenes.default_camera(w, h)
    base = dict(albedo=np.full((h, w, 3), 0.8),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                metallic=np.ones((h, w)))
    light = SkyGradientLight(zenith=[2.0, 1.8, 1.5], horizon=[0.2, 0.3, 0.5],
                             up=(0.2, -0.3, -0.93))
    g_true = GBuffer(roughness=np.full((h, w), 0.3),
                     **{k: v.copy() for k, v in base.items()})
    target = render.reference_render(g_true, camera, light, cells=(96, 192),
                                     mode="split")
    g_init = GBuffer(roughness=np.full((h, w), 0.8),
                     **{k: v.copy() for k, v in base.items()})
    cfg = LossConfig(iterations=200, step_size=0.03, params=("roughness",),
                     spp=32, seed=2)
    res = optimize(g_init, camera, light, target, cfg)
    assert np.mean(np.abs(res.gbuffer.roughness - 0.3)) < 0.05
    assert res.trace[-1]["loss"] < 0.01 * res.trace[0]["loss"]


def test_optimize_recovers_constant_light():
    h = w = 10
    camera = scenes.default_camera(w, h)
    g = GBuffer(albedo=np.full((h, w, 3), 0.6),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.ones((h, w)),
                metallic=np.zeros((h, w)))
    true_light = ConstantLight([1.4, 0.9, 0.5])
    target = render.render_mc(g, camera, true_light,
                              render.RenderConfig(spp=16, seed=42,
                                                  specular_scale=0.0))
    light = ConstantLight([0.5, 0.5, 0.5])
    cfg = LossConfig(iterations=120, step_size=0.05, params=("light",),
                     spp=4, seed=3, specular_scale=0.0)
    res = optimize(g, camera, light, target, cfg)
    assert np.max(np.abs(res.light_params - [1.4, 0.9, 0.5])) < 0.02


def test_optimize_learned_light_weights_smoke():
    """The recovery loop can descend on the learned light path's weights."""
    import ssdr.volumetric as vol
    from ssdr.lighting import FeatureGrid, decoder_input_dim
    from ssdr.mlp import MlpWeights

    g, camera, _, _ = scenes.two_plane(8, 8)
    rng = np.random.default_rng(4)
    grid = FeatureGrid(rng.normal(size=(8, 8, 4)))
    dec_true = MlpWeights.random((decoder_input_dim(4), 8, 3), seed=1, scale=0.2)
    vw = MlpWeights.random((vol.field_input_dim(4), 8, 4), seed=2, scale=0.2)
    vcfg = vol.VolumeConfig(n_samples=8, position_bands=4)
    light_true = vol.BlendedLightField(grid, g, camera, dec_true,
                                       vol.HypernetParams.fixed(vw), volume_cfg=vcfg)
    target = render.render_mc(g, camera, light_true,
                              render.RenderConfig(spp=128, seed=11))

    dec_off = dec_true.copy_with(dec_true.flat
                                 + rng.normal(0, 0.2, dec_true.flat.size))
    light = vol.BlendedLightField(grid, g, camera, dec_off, vol.HypernetParams.fixed(vw),
                                  volume_cfg=vcfg)
    cfg = LossConfig(iterations=120, step_size=0.02, params=("light",),
                     spp=16, seed=3)
    res = optimize(g, camera, light, target, cfg)
    assert res.trace[-1]["loss"] < 0.5 * res.trace[0]["loss"]


def test_optimize_rejects_unknown_param():
    with pytest.raises(ContractError):
        LossConfig(params=("velocity",))


@pytest.mark.parametrize("params", [("roughness", "albedo"), ("normal",),
                                    ("light", "metallic")])
def test_optimize_asks_the_adjoint_for_its_params_only(monkeypatch, params):
    """Each iteration's `render_backward` call asks for exactly the fitted
    parameters, so the adjoints nothing steps are never formed."""
    g, camera, light, target = _lambertian_setup(h=8, w=8)
    asked = []

    def spy(*args, params, **kwargs):
        asked.append(params)
        return render.render_backward(*args, params=params, **kwargs)

    monkeypatch.setattr(inverse, "render_backward", spy)
    cfg = LossConfig(iterations=2, step_size=0.01, params=params, spp=2, seed=1)
    optimize(g, camera, light, target, cfg)
    assert len(asked) == 2
    assert all(sorted(a) == sorted(params) for a in asked)


@pytest.mark.parametrize("field,value", [
    ("step_size", np.nan), ("step_size", np.inf), ("step_size", -0.05),
    ("specular_scale", np.nan), ("specular_scale", -np.inf)])
def test_loss_config_rejects_bad_values(field, value):
    """A step that is not finite and >= 0 (a negative one would ascend the
    loss), or a non-finite specular scale, is rejected before any render."""
    with pytest.raises(ContractError, match=field):
        LossConfig(**{field: value})


def test_optimize_aborts_on_non_finite_loss():
    """A finite target so large that the squared error overflows."""
    g_init, camera, light, target = _lambertian_setup(h=4, w=4)
    target[0, 0, 0] = 1e200
    with np.errstate(over="ignore"), pytest.raises(ContractError, match="iteration 0"):
        optimize(g_init, camera, light, target,
                 LossConfig(iterations=3, params=("albedo",), spp=4,
                            specular_scale=0.0))


@pytest.mark.parametrize("iterations", [0, 1])
@pytest.mark.parametrize("bad", ["shape", "channels", "nan", "inf"])
def test_optimize_checks_the_target_before_rendering(monkeypatch, iterations, bad):
    """A target that is not a finite (H, W, 3) image is a ContractError
    before the first render, even when no iteration would run."""
    g_init, camera, light, target = _lambertian_setup(h=4, w=4)
    target = {"shape": target[:3], "channels": target[..., :1],
              "nan": np.where(target > 0.5, np.nan, target),
              "inf": np.full_like(target, np.inf)}[bad]
    renders = []
    monkeypatch.setattr(inverse, "render_mc", lambda *a, **k: renders.append(a))
    with pytest.raises(ContractError, match="target"):
        optimize(g_init, camera, light, target,
                 LossConfig(iterations=iterations, params=("albedo",), spp=4,
                            specular_scale=0.0))
    assert renders == []


def test_optimize_light_without_parameters():
    g_init, camera, _, target = _lambertian_setup(h=4, w=4)
    from ssdr.lighting import SkyDiscLight
    fixed = SkyDiscLight(zenith=[1.0] * 3, horizon=[0.5] * 3,
                         disc_direction=[0.0, -1.0, 0.0], disc_radius=0.1,
                         disc_color=[5.0] * 3)
    with pytest.raises(ContractError):
        optimize(g_init, camera, fixed, target,
                 LossConfig(iterations=1, params=("light",)))


def test_optimize_trace_layout_independent_of_param_order():
    """Parameters are updated and reported in PARAM_NAMES order, whatever
    order `params` lists them in, so loss.csv has a fixed column order."""
    g, camera, spec, _ = scenes.glossy_floor(6, 6)
    light = SkyGradientLight(spec["zenith"], spec["horizon"])
    target = render.render_mc(g, camera, light, render.RenderConfig(spp=8, seed=1))
    g_init = g.copy()
    g_init.albedo[...] = 0.5
    g_init.roughness[...] = 0.6
    runs = [optimize(g_init, camera, light, target,
                     LossConfig(iterations=3, params=params, spp=4, seed=2))
            for params in (("roughness", "albedo"), ("albedo", "roughness"))]
    a, b = (r.gbuffer for r in runs)
    for name in ("albedo", "roughness", "metallic", "normal"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert runs[0].losses.tobytes() == runs[1].losses.tobytes()
    for run in runs:
        assert [list(row) for row in run.trace] == \
            [["iteration", "loss", "albedo_mean", "roughness_mean"]] * 3


def _fitted_light(kind, g, camera):
    """A small parameterized light of each kind that can be fitted."""
    if kind == "constant":
        return ConstantLight([0.5, 0.6, 0.7])
    if kind == "sky":
        return SkyGradientLight([1.2, 1.2, 1.4], [0.4, 0.38, 0.35])
    rng = np.random.default_rng(4)
    grid = FeatureGrid(rng.normal(size=g.depth.shape + (4,)))
    dec = MlpWeights.random((decoder_input_dim(4), 8, 3), seed=1, scale=0.2)
    vdims = (vol.field_input_dim(4), 8, 4)
    vcfg = vol.VolumeConfig(n_samples=8, position_bands=4)
    if kind == "blended-volume":
        return vol.BlendedLightField(
            grid, g, camera, dec,
            vol.HypernetParams.fixed(MlpWeights.random(vdims, seed=2, scale=0.2)),
            volume_cfg=vcfg)
    return vol.BlendedLightField(grid, g, camera, dec,
                                 vol.HypernetParams.random(5, vdims, seed=3, scale=0.05),
                                 global_feature=rng.normal(size=5), volume_cfg=vcfg)


_FITTED_KINDS = ["constant", "sky", "blended-volume", "blended-hypernet"]


@pytest.mark.parametrize("kind", _FITTED_KINDS)
def test_optimize_fits_a_copy_of_the_light(kind):
    """A light fit leaves the caller's light bitwise unchanged and returns
    the fitted parameters, so fitting the same light twice gives the same
    result."""
    g, camera, _, _ = scenes.two_plane(6, 6)
    light = _fitted_light(kind, g, camera)
    before = light.get_params()
    target = np.full(g.depth.shape + (3,), 0.3)
    cfg = LossConfig(iterations=2, step_size=0.01, params=("albedo", "light"),
                     spp=2, seed=1)
    first = optimize(g, camera, light, target, cfg)
    assert light.get_params().tobytes() == before.tobytes()
    assert not np.array_equal(first.light_params, before)
    again = optimize(g, camera, light, target, cfg)
    assert again.light_params.tobytes() == first.light_params.tobytes()
    assert again.losses.tobytes() == first.losses.tobytes()


@pytest.mark.parametrize("kind", _FITTED_KINDS)
def test_check_light_params_leaves_the_light_unchanged(kind):
    g, camera, _, _ = scenes.two_plane(6, 6)
    light = _fitted_light(kind, g, camera)
    before = light.get_params()
    result = check_light_params(g, camera, light, render.RenderConfig(spp=2, seed=1),
                                n_components=4)
    assert result.passed, str(result)
    assert light.get_params().tobytes() == before.tobytes()


def test_learned_optimize_iteration_runs_the_volume_forward_once(monkeypatch):
    """One albedo + light iteration on a learned light runs the field's
    volume forward once: the adjoint pulls back through the state the
    render kept on its sample tape instead of running the light again."""
    g, camera, _, _ = scenes.two_plane(8, 8)    # one row block
    light = _fitted_light("blended-volume", g, camera)
    target = np.full(g.depth.shape + (3,), 0.3)
    cfg = LossConfig(iterations=1, step_size=0.01, params=("albedo", "light"),
                     spp=2, seed=1)
    rays = []
    forward = vol.volume_render_batch

    def counting_forward(weights, p, *args, **kwargs):
        rays.append(p.shape[0])
        return forward(weights, p, *args, **kwargs)

    monkeypatch.setattr(vol, "volume_render_batch", counting_forward)
    fitted = optimize(g, camera, light, target, cfg)
    assert len(rays) == 1 and rays[0] > 0
    assert not np.array_equal(fitted.light_params, light.get_params())

    def replaying_backward(*args, tape=None, **kwargs):
        return render.render_backward(*args, **kwargs)

    monkeypatch.setattr(inverse, "render_backward", replaying_backward)
    replayed = optimize(g, camera, light, target, cfg)
    assert len(rays) == 3
    assert replayed.losses.tobytes() == fitted.losses.tobytes()
    assert replayed.light_params.tobytes() == fitted.light_params.tobytes()
    assert replayed.gbuffer.albedo.tobytes() == fitted.gbuffer.albedo.tobytes()
