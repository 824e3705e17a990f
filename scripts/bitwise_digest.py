#!/usr/bin/env python3
"""Print one sha256 per renderer output, for byte-identity checks between
two versions of ssdr.

Run it once against each tree and diff the two outputs:

    PYTHONPATH=src python3 scripts/bitwise_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/bitwise_digest.py > old.txt
    diff old.txt new.txt

It covers `render_mc`, every `render_backward` field, `eval_frozen` and
`reference_render` (both modes) on the three canned scenes under their own
light, a `ConstantLight` and a random `GridLight`, at threads 1 and 2, plus
one run forced into many sample chunks.  The size is fixed on purpose:
at RES x RES pixels and SPP samples a row block holds more lanes than one
`GridLight` lane block, so lane block edges are crossed too; a smaller
render would cross none and could hide a changed bit there.  Every line is `<name> <sha256>` of the
float64 array's bytes, so any changed bit shows as a changed line.
"""

import hashlib

import numpy as np

from ssdr import render, scenes
from ssdr.lighting import ConstantLight, GridLight, analytic_lightfield
from ssdr.render import (RenderConfig, draw_frozen_samples, eval_frozen,
                         reference_render, render_backward, render_mc)

RES = 16
SPP = 96


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


def lines():
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
                                       want_light=True)
                for field in ("dalbedo", "droughness", "dmetallic", "dnormal", "dlight"):
                    yield f"{tag}/t{threads}/render_backward.{field}", getattr(grad, field)
            fs = draw_frozen_samples(g, camera, cfg)
            yield f"{tag}/eval_frozen", eval_frozen(fs, g.albedo, g.roughness, g.metallic,
                                                     g.normal, light, cfg)
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


def main():
    for name, a in lines():
        print(name, digest(a))


if __name__ == "__main__":
    main()
