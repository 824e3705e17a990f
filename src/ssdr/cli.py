"""Command-line entry point.

Subcommands: render, gradcheck, make-scene, baseline-compare, optimize.
Exit codes: 0 success, 1 numerical failure, 2 input/usage error.
`SSDR_LOG` (quiet|info|debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck, io as ssdr_io, scenes
from .core import GBUFFER_MAPS, Camera, ContractError, GBuffer, luminance, validate_gbuffer
from .inverse import LossConfig, loss_rerender, optimize
from .lighting import analytic_lightfield
from .render import (MATERIAL_NAMES, RenderConfig, RenderNanError, reference_render,
                     render_mc)
from .volumetric import BlendedLightField, HypernetParams

log = logging.getLogger("ssdr")

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2


class UsageError(ContractError):
    pass


def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("SSDR_LOG", "info").lower(),
                                         logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# --params takes each material map by its first letter too
PARAM_ABBREVIATIONS = {name[0]: name for name in MATERIAL_NAMES}


def _parse_params(text: str) -> tuple[str, ...]:
    """Comma list of parameter classes, abbreviated or in full; the names
    are `render.check_params`'s to check."""
    names = tuple(PARAM_ABBREVIATIONS.get(p.strip(), p.strip())
                  for p in text.split(",") if p.strip())
    if not names:
        raise UsageError(f"--params selects no parameter class, got {text!r}")
    return names


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise UsageError(f"expected WxH such as 16x32, got {text!r}") from None


def load_validated_bundle(path) -> ssdr_io.Bundle:
    """Read a bundle and reject any G-buffer violation."""
    bundle = ssdr_io.read_bundle(path)
    report = validate_gbuffer(bundle.gbuffer)
    if not report.ok():
        raise UsageError(f"bundle failed validation: {report.summary()}")
    return bundle


_DEFAULT_LIGHT = {"kind": "constant", "value": [1.0, 1.0, 1.0]}
# --lighting choice -> (the bundle light kinds it takes, None for any; the
# spec it falls back to without one, None for none), in --help's order
# before "learned"
_LIGHT_CHOICES = {None: (None, _DEFAULT_LIGHT),
                  "constant": (("constant",), _DEFAULT_LIGHT),
                  "sky": (("sky", "sky_disc"), {"kind": "sky", "zenith": [1.2, 1.2, 1.4],
                                                "horizon": [0.4, 0.38, 0.35]}),
                  "grid": (("grid",), None)}


def resolve_light(bundle: ssdr_io.Bundle, choice: str | None, seed: int = 0):
    """Pick the lighting oracle: the bundle's own spec, an analytic default,
    or the learned path (feature grid + decoder + volume weights)."""
    if choice == "learned":
        if bundle.feature_grid is None or bundle.decoder_weights is None \
                or bundle.volume_weights is None:
            raise UsageError("learned lighting needs feature_grid, "
                             "decoder_weights and volume_weights in the bundle")
        return BlendedLightField(bundle.feature_grid, bundle.gbuffer, bundle.camera,
                                 bundle.decoder_weights,
                                 HypernetParams.fixed(bundle.volume_weights), seed=seed)
    if choice not in _LIGHT_CHOICES:
        raise UsageError(f"unknown lighting choice {choice!r}")
    kinds, fallback = _LIGHT_CHOICES[choice]
    spec = bundle.lighting_spec or {}
    if spec and (kinds is None or spec.get("kind") in kinds):
        return bundle.light_field()
    if fallback is None:
        raise UsageError(f"bundle carries no {choice} light field")
    return analytic_lightfield(**fallback)


def cmd_render(args) -> int:
    bundle = load_validated_bundle(args.bundle)
    light = resolve_light(bundle, args.lighting, seed=args.seed)
    cfg = RenderConfig(spp=args.spp, seed=args.seed,
                       specular_scale=bundle.specular_scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    image = render_mc(bundle.gbuffer, bundle.camera, light, cfg,
                      threads=args.threads)
    dt = time.perf_counter() - t0
    ssdr_io.write_pfm(out / "rerender.pfm", image)
    ssdr_io.write_png_preview(out / "rerender.png", image, exposure=args.exposure)
    stats = {"time_s": dt, "spp": args.spp, "seed": args.seed,
             "mean_luminance": float(luminance(image).mean())}
    (out / "stats.json").write_text(json.dumps(stats, indent=2, allow_nan=False))
    log.info("rendered %s in %.2fs, mean luminance %.5f", args.bundle, dt,
             stats["mean_luminance"])
    return EXIT_OK


def crop_patch(g: GBuffer, camera: Camera, patch: int) -> tuple[GBuffer, Camera]:
    """The window of min(patch, size) pixels per axis centred on the
    principal point (clamped to the image), with the intrinsics shifted so
    that every kept pixel unprojects to the same point as before."""
    h, w = g.depth.shape
    ph, pw = min(patch, h), min(patch, w)
    y0 = int(np.clip(np.floor(camera.cy - (ph - 1) / 2), 0, h - ph))
    x0 = int(np.clip(np.floor(camera.cx - (pw - 1) / 2), 0, w - pw))
    win = (slice(y0, y0 + ph), slice(x0, x0 + pw))
    cropped = GBuffer(**{name: getattr(g, name)[win] for name in GBUFFER_MAPS})
    return cropped, replace(camera, cx=camera.cx - x0, cy=camera.cy - y0,
                            width=pw, height=ph)


def cmd_gradcheck(args) -> int:
    bundle = load_validated_bundle(args.bundle)
    light = resolve_light(bundle, args.lighting, seed=args.seed)
    classes = _parse_params(args.params)

    g, camera = crop_patch(bundle.gbuffer, bundle.camera, args.patch)
    cfg = RenderConfig(spp=args.spp, seed=args.seed,
                       specular_scale=bundle.specular_scale)
    material = [c for c in classes if c != "light"]
    results = []
    if material:
        results += gradcheck.check_render_material(g, camera, light, cfg,
                                                   tol=args.tol, classes=material)
    if "light" in classes:
        results.append(gradcheck.check_light_params(g, camera, light, cfg,
                                                    tol=args.tol))
    report = {r.name: {"max_rel_err": r.max_rel_err, "tol": r.tol,
                       "passed": r.passed} for r in results}
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / "gradcheck.json").write_text(json.dumps(report, indent=2))
    for r in results:
        print(r)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def cmd_make_scene(args) -> int:
    width = height = None
    if args.res:
        width, height = _parse_grid(args.res)
    path = scenes.bundle_for(args.kind, args.out, width, height)
    log.info("wrote %s bundle to %s", args.kind, path)
    return EXIT_OK


def cmd_baseline_compare(args) -> int:
    bundle = load_validated_bundle(args.bundle)
    light = resolve_light(bundle, args.lighting, seed=args.seed)
    grid = _parse_grid(args.grid)
    if grid[0] < 2 or grid[1] < 4:
        raise UsageError(f"discretized grid must be at least 2x4, got {args.grid}")
    cfg = RenderConfig(spp=args.spp, seed=args.seed,
                       specular_scale=bundle.specular_scale)

    # the fixed-quadrature baseline: cosine-weighted cell centers
    disc = reference_render(bundle.gbuffer, bundle.camera, light, cells=grid,
                            specular_scale=bundle.specular_scale, mode="cosine")
    ref = reference_render(bundle.gbuffer, bundle.camera, light,
                           cells=(args.ref_cells, 2 * args.ref_cells),
                           specular_scale=bundle.specular_scale)
    mc = render_mc(bundle.gbuffer, bundle.camera, light, cfg, threads=args.threads)
    mse_mc, _ = loss_rerender(mc, ref)
    mse_disc, _ = loss_rerender(disc, ref)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ssdr_io.write_pfm(out / "reference.pfm", ref)
    ssdr_io.write_pfm(out / "mc.pfm", mc)
    ssdr_io.write_pfm(out / "discretized.pfm", disc)
    for name, img in (("reference", ref), ("mc", mc), ("discretized", disc)):
        ssdr_io.write_png_preview(out / f"{name}.png", img, exposure=args.exposure)
    (out / "compare.csv").write_text(
        "estimator,mse\n"
        f"mc_spp{args.spp},{mse_mc:.10g}\n"
        f"discretized_{grid[0]}x{grid[1]},{mse_disc:.10g}\n")
    log.info("MSE mc=%.3e discretized=%.3e (ratio %.2f)", mse_mc, mse_disc,
             mse_disc / mse_mc if mse_mc > 0 else float("inf"))
    return EXIT_OK


def cmd_optimize(args) -> int:
    bundle = load_validated_bundle(args.bundle)
    light = resolve_light(bundle, args.lighting, seed=args.seed)
    if args.target:
        target = ssdr_io.read_pfm(args.target).data
    elif bundle.target is not None:
        target = bundle.target.data
    else:
        raise UsageError("no target image: pass --target or add one to the bundle")

    params = _parse_params(args.params)
    cfg = LossConfig(iterations=args.iters, step_size=args.step, params=params,
                     spp=args.spp, seed=args.seed,
                     specular_scale=bundle.specular_scale)
    result = optimize(bundle.gbuffer, bundle.camera, light, target, cfg,
                      threads=args.threads)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in MATERIAL_NAMES:
        ssdr_io.write_pfm(out / f"{name}.pfm", getattr(result.gbuffer, name))
    ssdr_io.write_loss_trace(out / "loss.csv", result.trace)
    if result.light_params is not None:
        np.savetxt(out / "light_params.txt", result.light_params)
    if result.trace:
        log.info("loss %.4e -> %.4e over %d iterations",
                 result.trace[0]["loss"], result.trace[-1]["loss"], args.iters)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ssdr",
                                 description="screen-space differentiable "
                                             "Monte Carlo re-renderer")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, threads=True, exposure=True):
        # --threads and --exposure only where the subcommand reads them
        p.add_argument("--bundle", required=True, help="bundle directory")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if threads:
            p.add_argument("--threads", type=int, default=1)
        p.add_argument("--lighting", default=None,
                       choices=[*filter(None, _LIGHT_CHOICES), "learned"])
        if exposure:
            p.add_argument("--exposure", type=float, default=1.0)

    p = sub.add_parser("render", help="re-render a bundle")
    common(p)
    p.add_argument("--spp", type=int, default=64)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("gradcheck", help="finite-difference adjoint check")
    common(p, threads=False, exposure=False)
    p.add_argument("--spp", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--params", default="a,r,m,n")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("make-scene", help="emit an analytic test bundle")
    p.add_argument("--kind", required=True, choices=list(scenes.SCENES))
    p.add_argument("--out", required=True)
    p.add_argument("--res", default=None, help="WxH, e.g. 64x64")
    p.set_defaults(fn=cmd_make_scene)

    p = sub.add_parser("baseline-compare",
                       help="Monte Carlo vs fixed-grid estimator vs quadrature")
    common(p)
    p.add_argument("--spp", type=int, default=256)
    p.add_argument("--grid", default="16x32")
    p.add_argument("--ref-cells", type=int, default=256,
                   help="theta cells of the reference quadrature")
    p.set_defaults(fn=cmd_baseline_compare)

    p = sub.add_parser("optimize", help="recover materials from a target image")
    common(p, exposure=False)
    p.add_argument("--target", default=None, help="target PFM (default: bundle)")
    p.add_argument("--params", default="a", help="comma list: a,r,m,n,light")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--spp", type=int, default=16)
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(fn=cmd_optimize)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        for flag in ("threads", "patch"):
            if getattr(args, flag, 1) < 1:
                raise UsageError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
        if not 0.0 < getattr(args, "exposure", 1.0) < np.inf:
            raise UsageError("--exposure must be positive and finite, "
                             f"got {args.exposure}")
        if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
            raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
        # a render that overflows float64 or float32 is reported once, exit 1
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (ContractError, OSError) as e:
        log.error("%s", e)
        return EXIT_INPUT
    except MemoryError as e:
        log.error("out of memory, the request is too large: %s", e)
        return EXIT_INPUT
    except (RenderNanError, OverflowError) as e:
        log.error("%s", e)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
