"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (run with -s or check
the captured output).  Statistical criteria run at fixed seeds so the suite
is deterministic end to end.
"""

import math
import time

import numpy as np
from scipy import stats

from oracles import chi_square_sampler, sphere_pdf_integral, white_furnace_estimate
from ssdr import brdf, gradcheck, scenes, ssrt, volumetric as vol
from ssdr.cli import EXIT_OK, main
from ssdr.core import GBuffer, normalize, project, unproject
from ssdr.inverse import LossConfig, loss_rerender, optimize
from ssdr.lighting import ConstantLight, SkyGradientLight, analytic_lightfield
from ssdr.mlp import MlpWeights
from ssdr.render import RenderConfig, reference_render, render_discretized, render_mc

N_UP = np.array([0.0, 0.0, 1.0])
V_TILT = normalize(np.array([0.45, 0.1, 0.89]))


def _report(criterion: int, description: str, passed: bool, detail: str = ""):
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] criterion {criterion}: {description} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {description} {detail}"


def test_criterion_01_pdf_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for roughness in (0.1, 0.5, 1.0):
        for metallic in (0.0, 0.5, 1.0):
            params = brdf.BrdfParams(albedo=(0.7, 0.6, 0.5), roughness=roughness,
                                     metallic=metallic)
            integral = sphere_pdf_integral(params, V_TILT, N_UP, seed=123)
            worst = max(worst, abs(integral - 1.0))
    dt = time.perf_counter() - t0
    _report(1, "sampling density integrates to 1 +- 1% (9 material combos)",
            worst < 0.01 and dt < 30.0,
            f"(worst |I-1| = {worst:.2e}, {dt:.1f}s)")


def test_criterion_02_white_furnace():
    worst = -np.inf
    for roughness in (0.1, 0.5, 1.0):
        params = brdf.BrdfParams(albedo=(1.0, 1.0, 1.0), roughness=roughness,
                                 metallic=1.0)
        mean, se = white_furnace_estimate(params, V_TILT, N_UP,
                                          n_samples=1_000_000, seed=17)
        worst = max(worst, float(np.max(mean - (1.0 + 3.0 * se))))
    _report(2, "white furnace: reflected energy <= 1 + 3 sigma per channel",
            worst <= 0.0, f"(max excess {worst:.2e})")


def test_criterion_03_chi_square():
    params = brdf.BrdfParams(albedo=(0.6, 0.6, 0.6), roughness=0.5, metallic=0.5)
    stat, dof = chi_square_sampler(params, V_TILT, N_UP, n_samples=100_000,
                                   seed=2024)
    crit = stats.chi2.ppf(0.95, dof)
    _report(3, "sampler/pdf chi-square at 5% significance (16x32 grid)",
            stat < crit, f"(stat {stat:.1f} < {crit:.1f}, dof {dof})")


def test_criterion_04_lambertian_closed_form():
    h = w = 64
    g = GBuffer(albedo=np.full((h, w, 3), 0.5),
                normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0),
                roughness=np.ones((h, w)),
                metallic=np.zeros((h, w)))
    camera = scenes.default_camera(w, h)
    t0 = time.perf_counter()
    img = render_mc(g, camera, ConstantLight(1.0),
                    RenderConfig(spp=4096, seed=1, specular_scale=0.0), threads=1)
    dt = time.perf_counter() - t0
    err = abs(float(img.mean()) - 0.5)
    _report(4, "Lambertian plane renders to albedo * light (64x64, spp 4096)",
            err < 1e-3 and dt < 60.0, f"(|mean - 0.5| = {err:.2e}, {dt:.1f}s)")


def test_criterion_05_gradient_fidelity(glossy_patch):
    camera = scenes.default_camera(8, 8)
    light = SkyGradientLight(zenith=[1.5, 1.4, 1.2], horizon=[0.4, 0.5, 0.7])
    cfg = RenderConfig(spp=64, seed=5)
    results = gradcheck.check_render_material(glossy_patch, camera, light, cfg,
                                              tol=1e-4)
    vcfg = vol.VolumeConfig(t_near=0.05, t_far=6.0, n_samples=16, position_bands=4)
    weights = MlpWeights.random((vol.field_input_dim(4), 16, 16, 4), seed=3,
                                scale=0.4)
    results.append(gradcheck.check_volume_weights(weights, vcfg, tol=1e-4))
    h = vol.HypernetParams.random(6, (4, 8, 4), seed=4)
    results.append(gradcheck.check_hypernet(
        h, np.random.default_rng(5).normal(size=6), tol=1e-4))
    worst = max(r.max_rel_err for r in results)
    _report(5, "adjoints match central finite differences within 1e-4",
            all(r.passed for r in results),
            "(" + ", ".join(f"{r.name} {r.max_rel_err:.1e}" for r in results) + ")")


def test_criterion_06_ssrt_oracle():
    g, camera, _, (floor, wall) = scenes.two_plane(64, 64)
    rng = np.random.default_rng(7)
    n = 10_000
    floor_mask = g.normal[:, :, 1] < -0.5
    fy, fx = np.nonzero(floor_mask)
    wy, wx = np.nonzero(~floor_mask)
    si = rng.integers(0, fy.size, n)
    ti = rng.integers(0, wy.size, n)
    p = unproject(camera, np.stack([fx[si], fy[si]], -1).astype(float),
                  g.depth[fy[si], fx[si]])
    q = unproject(camera, np.stack([wx[ti], wy[ti]], -1).astype(float),
                  g.depth[wy[ti], wx[ti]])
    d = normalize(q - p)
    hits = ssrt.trace_batch(g.depth, camera, p, d, ssrt.SsrtConfig())
    analytic_px, _ = project(camera, scenes.ray_plane_point(p, d, wall))
    err = np.linalg.norm(hits.pixel - analytic_px, axis=1)
    is_hit = hits.status == int(ssrt.Status.HIT)
    frac = float(np.mean(is_hit & (err <= 1.0)))
    misses_u1 = bool(np.all(hits.u[~is_hit] == 1.0))
    _report(6, "SSRT lands within 1px of analytic intersections for >= 95%",
            frac >= 0.95 and misses_u1,
            f"(within-1px {frac:.3f}, all misses u=1: {misses_u1})")


def test_criterion_07_uncertainty():
    u0 = float(ssrt.uncertainty(0.0))
    u01 = float(ssrt.uncertainty(0.1))
    grid = np.linspace(0.0, 1.2, 241)
    uu = ssrt.uncertainty(grid)
    monotone = bool(np.all(np.diff(uu) > 0))
    ok = (u0 == 0.0) and (abs(u01 - math.tanh(1.0)) < 1e-6) and monotone
    _report(7, "uncertainty endpoints and tanh value, monotone over a grid",
            ok, f"(u(0)={u0}, |u(0.1)-tanh(1)|={abs(u01 - math.tanh(1.0)):.1e})")


def test_criterion_08_volume_closed_form():
    w = MlpWeights.zeros((vol.field_input_dim(10), 8, 8, 4))
    flat = w.flat.copy()
    flat[-4] = math.log(math.expm1(0.5))          # softplus^-1(0.5)
    flat[-3:] = math.log((1 / 5) / (1 - 1 / 5))   # sigmoid^-1(1/scale)
    w = w.copy_with(flat)
    cfg = vol.VolumeConfig(t_near=0.0, t_far=4.0, n_samples=256)
    L, _ = vol.volume_render_batch(w, np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]),
                                   cfg, 0, [0], keep=False)
    expect = 1.0 - math.exp(-2.0)
    err = float(np.max(np.abs(L - expect)))

    rng = np.random.default_rng(3)
    sigma = rng.uniform(0.0, 3.0, (64, 32))
    color = rng.uniform(0.0, 5.0, (64, 32, 3))
    deltas = rng.uniform(0.01, 0.3, (64, 32))
    _, wgt = vol.composite(sigma, color, deltas)
    sums_ok = bool(np.all(wgt.sum(axis=-1) <= 1.0 + 1e-12))
    _report(8, "homogeneous-medium compositing matches k(1-e^-2) within 1e-3",
            err < 1e-3 and sums_ok,
            f"(err {err:.2e}, weight sums <= 1: {sums_ok})")


def test_criterion_09_blend_exactness():
    a = np.array([4.0, 0.0, 0.0])
    b = np.array([0.0, 4.0, 0.0])
    ok = (np.array_equal(vol.blend(a, b, 0.0), a)
          and np.array_equal(vol.blend(a, b, 1.0), b)
          and np.array_equal(vol.blend(a, b, 0.25), np.array([3.0, 1.0, 0.0])))
    _report(9, "uncertainty blend is the exact convex combination", ok)


def test_criterion_10_mc_beats_discretized_on_gloss():
    t0 = time.perf_counter()
    g, camera, spec, _ = scenes.glossy_floor(32, 32)
    light = analytic_lightfield(spec["kind"],
                                **{k: v for k, v in spec.items() if k != "kind"})
    ref = reference_render(g, camera, light, cells=(128, 256), mode="split")
    mc = render_mc(g, camera, light, RenderConfig(spp=256, seed=0))
    disc = render_discretized(g, camera, light, grid=(16, 32))
    mse_mc, _ = loss_rerender(mc, ref)
    mse_disc, _ = loss_rerender(disc, ref)
    dt = time.perf_counter() - t0
    ratio = mse_disc / mse_mc
    _report(10, "discretized(16x32) MSE >= 5x MC(spp 256) MSE on glossy floor",
            ratio >= 5.0 and dt < 300.0, f"(ratio {ratio:.1f}, {dt:.0f}s)")


def test_criterion_11_inverse_recovery():
    # constant albedo
    h = w = 24
    camera = scenes.default_camera(w, h)
    base = dict(normal=np.tile([0.0, 0.0, -1.0], (h, w, 1)),
                depth=np.full((h, w), 2.0), roughness=np.ones((h, w)),
                metallic=np.zeros((h, w)))
    g_true = GBuffer(albedo=np.full((h, w, 3), 0.6), **base)
    light = ConstantLight(1.0)
    target = render_mc(g_true, camera, light,
                       RenderConfig(spp=16, seed=99, specular_scale=0.0))
    g_init = GBuffer(albedo=np.full((h, w, 3), 0.2),
                     **{k: v.copy() for k, v in base.items()})
    res_a = optimize(g_init, camera, light, target,
                     LossConfig(iterations=200, step_size=0.05,
                                params=("albedo",), spp=4, seed=1,
                                specular_scale=0.0))
    err_a = float(np.max(np.abs(res_a.gbuffer.albedo - 0.6)))
    drop_a = res_a.trace[-1]["loss"] / res_a.trace[0]["loss"]

    # constant roughness on a glossy metal plane
    h2 = w2 = 12
    cam2 = scenes.default_camera(w2, h2)
    base2 = dict(albedo=np.full((h2, w2, 3), 0.8),
                 normal=np.tile([0.0, 0.0, -1.0], (h2, w2, 1)),
                 depth=np.full((h2, w2), 2.0), metallic=np.ones((h2, w2)))
    light2 = SkyGradientLight(zenith=[2.0, 1.8, 1.5], horizon=[0.2, 0.3, 0.5],
                              up=(0.2, -0.3, -0.93))
    g2_true = GBuffer(roughness=np.full((h2, w2), 0.3),
                      **{k: v.copy() for k, v in base2.items()})
    target2 = reference_render(g2_true, cam2, light2, cells=(96, 192), mode="split")
    g2_init = GBuffer(roughness=np.full((h2, w2), 0.8),
                      **{k: v.copy() for k, v in base2.items()})
    res_r = optimize(g2_init, cam2, light2, target2,
                     LossConfig(iterations=200, step_size=0.03,
                                params=("roughness",), spp=32, seed=2))
    err_r = float(np.mean(np.abs(res_r.gbuffer.roughness - 0.3)))
    drop_r = res_r.trace[-1]["loss"] / res_r.trace[0]["loss"]

    ok = err_a < 0.02 and err_r < 0.05 and drop_a < 0.01 and drop_r < 0.01
    _report(11, "recovers albedo (<0.02) and roughness (<0.05) in 200 iters",
            ok, f"(albedo err {err_a:.4f}, roughness err {err_r:.4f}, "
                f"loss drops {drop_a:.2e}/{drop_r:.2e})")


def test_criterion_12_bitwise_determinism(tmp_path):
    bundle = tmp_path / "tp"
    assert main(["make-scene", "--kind", "two-plane", "--out", str(bundle),
                 "--res", "24x24"]) == EXIT_OK
    blobs = []
    for i, threads in enumerate((1, 4, 16)):
        out = tmp_path / f"r{i}"
        assert main(["render", "--bundle", str(bundle), "--out", str(out),
                     "--spp", "16", "--seed", "11",
                     "--threads", str(threads)]) == EXIT_OK
        blobs.append((out / "rerender.pfm").read_bytes())
    render_same = blobs[0] == blobs[1] == blobs[2]

    opt_blobs = []
    target = tmp_path / "r0" / "rerender.pfm"
    for i, threads in enumerate((1, 4)):
        out = tmp_path / f"o{i}"
        assert main(["optimize", "--bundle", str(bundle), "--target",
                     str(target), "--params", "a", "--iters", "4", "--spp", "4",
                     "--seed", "3", "--threads", str(threads),
                     "--out", str(out)]) == EXIT_OK
        opt_blobs.append((out / "albedo.pfm").read_bytes())
    opt_same = opt_blobs[0] == opt_blobs[1]
    _report(12, "equal seeds give bit-identical PFMs at 1/4/16 threads",
            render_same and opt_same,
            f"(render {render_same}, optimize {opt_same})")
