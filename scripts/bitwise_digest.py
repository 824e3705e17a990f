#!/usr/bin/env python3
"""Print one sha256 per renderer output, for byte-identity checks between
two versions of ssdr.

Run it once against each tree and diff the two outputs:

    PYTHONPATH=src python3 scripts/bitwise_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/bitwise_digest.py > old.txt
    diff old.txt new.txt

It covers `render_mc`, every `render_backward` field, the gradient
checks' frozen-sample values at the base maps (`gradcheck.frozen_values`,
the shadeable pixels in row-major order; its lines keep the name
`eval_frozen`) and `reference_render` (both modes) on the three canned
scenes under their own light, a `ConstantLight` and a random `GridLight`,
at threads 1 and 2, plus one run forced into many sample chunks.  The
size is fixed on purpose.  A `GridLight` queries its lanes in blocks of
`lighting._LANE_BLOCK`; at RES x RES pixels and SPP samples a row block
holds fewer lanes than that, so one more grid `render_mc` line, at 2 SPP
samples per pixel and 2 threads, has row blocks that cross a lane block
edge: a render that crossed none could hide a changed bit there.  A
`GridLight` shares one table of spatial sums between the lanes of a
pixel; one more `render_mc` line, at 1 sample per pixel, pins its
per-lane path, for lanes whose positions all differ.

It also covers the learned `BlendedLightField` in its two modes, fixed
field weights (a hypernetwork of an empty feature, F = 0; the "volume"
lines) and a hypernetwork of a 5-long feature (F = 5; the "hypernet"
lines): `render_mc` and every `render_backward` field at threads 1 and 2,
and a 3-iteration albedo + light `optimize` (maps, light parameters,
losses).  These run at the smaller LEARNED_RES and
LEARNED_SPP, since the learned field is slow.

The MLP kernel has lines of its own: `mlp.forward`'s output and
`mlp.backward`'s dflat and input adjoint dx = da0 @ W0 (from the first
layer's adjoint da0 it returns) on a fixed seeded input of MLP_ROWS rows,
more than one softplus tile, so a change to the kernel shows as a named
line and not only through the renderers.  The in-place softplus has a
line too (its name keeps the tag `scratch`): a seeded SOFTPLUS_SHAPE array
with inf, -inf and NaN entries, several tiles long, whose tile edges fall
inside rows.

The learned query's point blocks have lines of their own: a
`BlendedLightField` with the benchmark's field (`default_field_dims(10)`,
64 volume samples) queried on BLOCK_RAYS rays, which its volume splits
into four point blocks of unequal size, without and with `keep` (the two
lines agree), and the pullback of the kept query, whose weight adjoint
sums the blocks' in block order; a change to the partition or to that
order shows as a changed line.

`optimize` under analytic lights has lines too (maps, light parameters,
losses): a material fit and a material + light fit at threads 1 and 2,
each small enough that the render keeps its samples for the adjoint, and
one fit whose render is too large for that, so the adjoint replays them.

The BRDF has lines of its own: `_eval_raw`'s f, `mixture_pdf`'s pdf and
every output of `eval_pdf_with_partials` at specular 0.5 and 1, on
BRDF_LANES fixed seeded lanes that take in below-horizon directions,
back-facing half vectors, F0 inside the F90 clamp and roughness below its
floor, so a change to the BRDF shows as a named line and not only through
the renders.

The positional encoding has lines of its own: `lighting.positional_encoding`
at the decoder's 6 and the field's 10 bands on a fixed seeded point set of
ENC_ROWS rows, so a change to the encoding shows as a named line and not only through the decoder inputs and the
learned renders.

SSRT and the decoder's inputs have lines of their own too:
`ssrt.trace_batch`'s status, pixel, delta_d, u and s, and the rows of
`lighting.decoder_inputs`, for a fixed seeded ray set over each canned
scene's depth map with a few no-geometry sentinel pixels, so a change to
an image lookup shows layer by layer and not only through 12x12 learned
renders.

The adjoint as the analytic fits ask for it has lines too: albedo +
roughness only, on glossy-floor under its own light, read from the
render's sample tape at threads 1 and 2, so the benchmarked path's bits
show and not only those of the all-parameter adjoint.

Every line is `<name> <sha256>` of the float64 array's bytes, so any
changed bit shows as a changed line.
"""

import hashlib
from dataclasses import replace

import numpy as np

from ssdr import brdf, gradcheck, lighting, mlp, render, scenes, ssrt, volumetric
from ssdr.core import normalize
from ssdr.inverse import LossConfig, optimize
from ssdr.lighting import (ConstantLight, FeatureGrid, GridLight, analytic_lightfield,
                           decoder_input_dim)
from ssdr.mlp import MlpWeights
from ssdr.render import (PARAM_NAMES, RenderConfig, reference_render, render_backward,
                         render_mc)

RES = 16
SPP = 96
# two row blocks at 4 samples per pixel, with a small field, so the learned
# light's lines take seconds
LEARNED_RES = 12
LEARNED_SPP = 4
MLP_ROWS = 5000
SOFTPLUS_SHAPE = (1000, 100)
BLOCK_RAYS = 203   # 4 volume point blocks of 50, 51, 51 and 51 rays
ENC_ROWS = 4000
BRDF_LANES = 6000
# analytic fits: RES x RES at OPT_SPP samples per pixel
OPT_ITERS = 3
OPT_SPP = 16
GRAD_FIELDS = tuple("d" + name for name in PARAM_NAMES)


def digest(a) -> str:
    if a is None:
        return "none"
    a = np.ascontiguousarray(a, dtype=np.float64)
    return hashlib.sha256(str(a.shape).encode() + a.tobytes()).hexdigest()


def grid_light(g, camera, rng) -> GridLight:
    """Random grid over slightly less than the visible points' bounding
    box, so some lanes clamp at the bounds."""
    points, _, valid = render.pixel_geometry(g, camera)
    lo, hi = points[valid].min(axis=0), points[valid].max(axis=0)
    pad = 0.1 * (hi - lo)
    return GridLight(rng.uniform(0.0, 2.0, (3, 4, 2, 5, 8, 3)),
                     np.stack([lo + pad, hi - pad]))


def learned_light(g, camera, mode: str) -> volumetric.BlendedLightField:
    """A small learned light with fixed random weights, its field's weights
    fixed (F = 0, "volume") or made by a hypernetwork of a 5-long global
    feature ("hypernet")."""
    rng = np.random.default_rng(7)
    h, w = g.depth.shape
    grid = FeatureGrid(rng.normal(size=(h, w, 4)))
    dec = MlpWeights.random((decoder_input_dim(4), 16, 16, 3), seed=1, scale=0.2)
    vdims = (volumetric.field_input_dim(4), 16, 16, 4)
    vcfg = volumetric.VolumeConfig(n_samples=16, position_bands=4)
    if mode == "volume":
        return volumetric.BlendedLightField(
            grid, g, camera, dec,
            volumetric.HypernetParams.fixed(MlpWeights.random(vdims, seed=2, scale=0.3)),
            volume_cfg=vcfg)
    return volumetric.BlendedLightField(
        grid, g, camera, dec, volumetric.HypernetParams.random(5, vdims, seed=3, scale=0.05),
        global_feature=rng.normal(size=5), volume_cfg=vcfg)


def learned_lines(rng):
    g, camera, _, _ = scenes.cornell_like(LEARNED_RES, LEARNED_RES)
    dI = rng.normal(size=g.depth.shape + (3,))
    cfg = RenderConfig(spp=LEARNED_SPP, seed=3, specular_scale=0.0)
    for mode in ("volume", "hypernet"):
        tag = f"learned-{mode}"
        light = learned_light(g, camera, mode)
        for threads in (1, 2):
            yield f"{tag}/t{threads}/render_mc", render_mc(g, camera, light, cfg,
                                                           threads=threads)
            grad = render_backward(g, camera, light, cfg, dI, threads=threads,
                                   params=PARAM_NAMES)
            for field in GRAD_FIELDS:
                yield f"{tag}/t{threads}/render_backward.{field}", getattr(grad, field)

        target = render_mc(g, camera, light, replace(cfg, spp=4 * LEARNED_SPP, seed=9))
        start = g.copy()
        start.albedo[...] = 0.5
        res = optimize(start, camera, light, target,
                       LossConfig(iterations=3, step_size=0.001, params=("albedo", "light"),
                                  spp=LEARNED_SPP, seed=4, specular_scale=0.0))
        yield from optimize_result_lines(tag, res)


def optimize_result_lines(tag, res):
    for field in ("albedo", "roughness", "metallic", "normal"):
        yield f"{tag}/optimize.{field}", getattr(res.gbuffer, field)
    yield f"{tag}/optimize.light_params", res.light_params
    yield f"{tag}/optimize.losses", res.losses


def optimize_lines():
    """OPT_ITERS-iteration fits under analytic lights at threads 1 and 2:
    glossy-floor under its own sky_disc fitting all four maps, and
    two-plane under a ConstantLight fitting albedo + light.  The first is
    run once more with `_CHUNK_LANES` = 1000, where the render is too large
    to keep its samples and the adjoint replays them."""
    fits = {"glossy-floor": (None, ("albedo", "roughness", "metallic", "normal")),
            "two-plane": (ConstantLight([0.9, 1.0, 1.1]), ("albedo", "light"))}
    for kind, (light, params) in fits.items():
        g, camera, spec, _ = scenes.make_scene(kind, RES, RES)
        light = light or analytic_lightfield(**spec)
        target = render_mc(g, camera, light, RenderConfig(spp=4 * OPT_SPP, seed=9))
        start = g.copy()
        start.albedo[...] = 0.5
        start.roughness[...] = 0.5
        cfg = LossConfig(iterations=OPT_ITERS, step_size=0.05, params=params,
                         spp=OPT_SPP, seed=4)
        for threads in (1, 2):
            yield from optimize_result_lines(
                f"{kind}/t{threads}", optimize(start, camera, light, target, cfg,
                                               threads=threads))
        if kind != "glossy-floor":
            continue
        saved = render._CHUNK_LANES
        render._CHUNK_LANES = 1000
        try:
            yield from optimize_result_lines(
                f"multichunk/{kind}", optimize(start, camera, light, target, cfg,
                                               threads=2))
        finally:
            render._CHUNK_LANES = saved


def mlp_lines():
    """The reference field architecture on seeded inputs and adjoints;
    the pre-activations fall on both sides of the softplus's bend."""
    rng = np.random.default_rng(11)
    weights = MlpWeights.random(volumetric.default_field_dims(4), seed=12)
    y, cache = mlp.forward(weights, rng.normal(0.0, 2.0, (MLP_ROWS, weights.dims[0])))
    da0, dflat = mlp.backward(weights, cache, rng.normal(size=y.shape))
    yield "mlp/forward", y
    yield "mlp/backward.dx", da0 @ next(weights.layers())[0]
    yield "mlp/backward.dflat", dflat
    a = rng.normal(0.0, 20.0, SOFTPLUS_SHAPE)
    a.reshape(-1)[rng.integers(0, a.size, 30)] = [np.inf, -np.inf, np.nan] * 10
    mlp._softplus_inplace(a)
    yield "mlp/softplus.scratch.a", a


def block_lines():
    """The benchmark's learned field on BLOCK_RAYS seeded rays from the
    visible points of cornell-like, render-only and with `keep`, and the
    kept query's pullback of a seeded adjoint."""
    g, camera, _, _ = scenes.cornell_like(LEARNED_RES, LEARNED_RES)
    rng = np.random.default_rng(51)
    light = volumetric.BlendedLightField(
        FeatureGrid(rng.normal(size=(LEARNED_RES, LEARNED_RES, 4))), g, camera,
        MlpWeights.random((decoder_input_dim(4), 16, 16, 3), seed=1, scale=0.2),
        volumetric.HypernetParams.fixed(
            MlpWeights.random(volumetric.default_field_dims(10), seed=5)))
    points, _, valid = render.pixel_geometry(g, camera)
    p = points[valid][rng.integers(0, np.count_nonzero(valid), BLOCK_RAYS)]
    d = normalize(rng.normal(size=(BLOCK_RAYS, 3)))
    yield "learned-blocks/radiance", light.radiance(p, d)
    yield "learned-blocks/radiance.kept", light.radiance(p, d, [])
    _, pullback = light.radiance_vjp(p, d)
    yield "learned-blocks/backprop", pullback(rng.normal(size=(BLOCK_RAYS, 3)))


def brdf_lines():
    """Seeded lanes: a quarter of the views, and half the directions,
    uniform over the sphere, the other views near the normal and the other
    directions drawn by `sample_directions`; a quarter of the albedos zero,
    so F0 falls inside the F90 clamp where metallic is above 1/2, and an
    eighth of the roughnesses 0."""
    rng = np.random.default_rng(61)
    m = BRDF_LANES
    n = normalize(rng.normal(size=(m, 3)))
    v = np.where((rng.random(m) < 0.25)[:, None], normalize(rng.normal(size=(m, 3))),
                 normalize(n + 0.8 * rng.normal(size=(m, 3))))
    uniform = normalize(rng.normal(size=(m, 3)))
    albedo = rng.uniform(0.0, 1.0, (m, 3))
    albedo[rng.random(m) < 0.25] = 0.0
    roughness = rng.uniform(0.0, 1.0, m)
    roughness[rng.random(m) < 0.125] = 0.0
    metallic = rng.uniform(0.0, 1.0, m)
    u = rng.random((m, 3))
    for specular in (0.5, 1.0):
        args = (n, albedo, roughness, metallic, specular)
        d = np.where((np.arange(m) % 2 == 0)[:, None],
                     brdf.sample_directions(v, *args, u)[0], uniform)
        yield f"brdf/s{specular}/f", brdf._eval_raw(v, d, *args)
        yield f"brdf/s{specular}/pdf", brdf.mixture_pdf(v, d, *args)
        for key, a in brdf.eval_pdf_with_partials(v, d, *args).items():
            yield f"brdf/s{specular}/partials.{key}", a


def encoding_lines():
    """Seeded points over [-25, 25]^3 at the decoder's and the field's band
    counts."""
    x = np.random.default_rng(41).uniform(-25.0, 25.0, (ENC_ROWS, 3))
    for bands in (lighting.DIRECTION_BANDS, volumetric.VolumeConfig().position_bands):
        yield f"positional_encoding/bands{bands}", lighting.positional_encoding(x, bands)


def trace_lines():
    """Per canned scene, with four pixels set to the sentinels 0, -1, inf
    and nan: from each shadeable point, just off its surface, four seeded
    random unit directions and the direction straight away from the
    camera, whose ray projects to a single pixel.  They are traced under
    the default SsrtConfig and under one of 8 steps of 2 pixels, so rays
    also run out of steps."""
    rng = np.random.default_rng(31)
    for kind in ("two-plane", "cornell-like", "glossy-floor"):
        g, camera, _, _ = scenes.make_scene(kind, RES, RES)
        g.depth[[1, 5, 9, 14], [3, 0, 12, 7]] = [0.0, -1.0, np.inf, np.nan]
        points, _, valid = render.pixel_geometry(g, camera)
        p = points[valid] + 1e-3 * g.normal[valid]
        dirs = [normalize(rng.normal(size=p.shape)) for _ in range(4)] + [normalize(p)]
        p, d = np.concatenate([p] * len(dirs)), np.concatenate(dirs)
        for tag, cfg in (("default", ssrt.SsrtConfig()),
                         ("short", ssrt.SsrtConfig(max_steps=8, stride=2.0))):
            hits = ssrt.trace_batch(g.depth, camera, p, d, cfg)
            for field in ("status", "pixel", "delta_d", "u", "s"):
                yield f"{kind}/trace_batch.{tag}.{field}", getattr(hits, field)
        grid = lighting.FeatureGrid(rng.normal(size=(RES, RES, 4)))
        x, _ = lighting.decoder_inputs(grid, g, camera, p, d)
        yield f"{kind}/decoder_inputs", x


def fit_backward_lines():
    """albedo + roughness adjoints from the render's tape on glossy-floor
    under its own light, at threads 1 and 2; the other fields are none."""
    g, camera, spec, _ = scenes.make_scene("glossy-floor", RES, RES)
    light = analytic_lightfield(**spec)
    cfg = RenderConfig(spp=SPP, seed=3)
    dI = np.random.default_rng(17).normal(size=g.depth.shape + (3,))
    for threads in (1, 2):
        tape = []
        render_mc(g, camera, light, cfg, threads=threads, tape=tape)
        grad = render_backward(g, camera, light, cfg, dI, threads=threads,
                               params=("albedo", "roughness"), tape=tape)
        for field in GRAD_FIELDS:
            yield f"glossy-floor/fit/t{threads}/render_backward.{field}", getattr(grad, field)


def spp1_lines():
    """glossy-floor under a grid light at 1 sample per pixel, so every
    light lane has a position of its own."""
    g, camera, _, _ = scenes.glossy_floor(RES, RES)
    light = grid_light(g, camera, np.random.default_rng(5))
    yield "spp1/grid/render_mc", render_mc(g, camera, light, RenderConfig(spp=1, seed=3))


def lane_block_lines():
    """glossy-floor under a grid light at 2 SPP samples per pixel and 2
    threads: each row block queries the light on about 23k lanes (of its
    8 * RES * 2 SPP samples), more than one lane block of 2^14."""
    g, camera, _, _ = scenes.glossy_floor(RES, RES)
    light = grid_light(g, camera, np.random.default_rng(5))
    yield "lane-block/grid/t2/render_mc", render_mc(g, camera, light,
                                                    RenderConfig(spp=2 * SPP, seed=3), threads=2)


def lines():
    yield from brdf_lines()
    yield from mlp_lines()
    yield from encoding_lines()
    rng = np.random.default_rng(2024)
    for kind in ("two-plane", "cornell-like", "glossy-floor"):
        g, camera, spec, _ = scenes.make_scene(kind, RES, RES)
        lights = {"own": analytic_lightfield(**spec),
                  "constant": ConstantLight([0.9, 1.0, 1.1]),
                  "grid": grid_light(g, camera, rng)}
        dI = rng.normal(size=g.depth.shape + (3,))
        cfg = RenderConfig(spp=SPP, seed=3)
        for lname, light in lights.items():
            tag = f"{kind}/{lname}"
            for threads in (1, 2):
                yield f"{tag}/t{threads}/render_mc", render_mc(g, camera, light, cfg,
                                                               threads=threads)
                grad = render_backward(g, camera, light, cfg, dI, threads=threads,
                                       params=PARAM_NAMES)
                for field in GRAD_FIELDS:
                    yield f"{tag}/t{threads}/render_backward.{field}", getattr(grad, field)
            (values,) = gradcheck.frozen_values(g, camera, [(g, light)], cfg)
            yield f"{tag}/eval_frozen", values
            for mode in ("split", "cosine"):
                yield f"{tag}/reference_render.{mode}", reference_render(
                    g, camera, light, cells=(8, 16), mode=mode)

    # many chunks per row block: the chunk loop and its summation order
    g, camera, _, _ = scenes.glossy_floor(RES, RES)
    light = grid_light(g, camera, rng)
    dI = rng.normal(size=g.depth.shape + (3,))
    cfg = RenderConfig(spp=2 * SPP, seed=5)
    saved = render._CHUNK_LANES
    render._CHUNK_LANES = 1000
    try:
        yield "multichunk/render_mc", render_mc(g, camera, light, cfg, threads=2)
        grad = render_backward(g, camera, light, cfg, dI, threads=2)
        for field in ("dalbedo", "droughness", "dmetallic", "dnormal"):
            yield f"multichunk/render_backward.{field}", getattr(grad, field)
    finally:
        render._CHUNK_LANES = saved

    yield from learned_lines(rng)
    yield from block_lines()
    yield from optimize_lines()
    yield from trace_lines()
    yield from fit_backward_lines()
    yield from spp1_lines()
    yield from lane_block_lines()


def main():
    for name, a in lines():
        print(name, digest(a))


if __name__ == "__main__":
    main()
