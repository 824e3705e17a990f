#!/usr/bin/env python3
"""Time one `optimize` iteration and print its peak memory:

    PYTHONPATH=src python3 scripts/fit_memory.py [--res 32] [--spp 4]
        [--params albedo,light] [--lighting learned|bundle]

The iteration runs in a forked child that imports ssdr, builds its inputs
and fits, so the peak is that of one fit and of nothing the caller did
before.  The scene is two-plane at RES x RES, fitted at SPP samples per
pixel to a constant 0.3 target with step 0.001, at threads 1.  `learned`
lights it with the bench's learned `BlendedLightField` (a seeded 8-channel
feature grid, decoder `default_decoder_dims(8)`, fixed field
`default_field_dims(10)`, 64 volume samples); `bundle` with the scene's own
analytic light.  PARAMS is a comma-separated list of `render.PARAM_NAMES`
and "light".

It prints the seconds of the `optimize` call and the child's peak RSS,
`resource.getrusage`'s ru_maxrss, which counts the interpreter and the
imports too.  Set OPENBLAS_NUM_THREADS=1 to measure as the tests do.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback


def fit_once(res: int, spp: int, params: tuple[str, ...], lighting: str) -> None:
    """One fit iteration; prints its seconds and this process's peak RSS."""
    import resource
    import time

    import numpy as np

    from ssdr import scenes, volumetric as vol
    from ssdr.inverse import LossConfig, optimize
    from ssdr.lighting import FeatureGrid, analytic_lightfield, default_decoder_dims
    from ssdr.mlp import MlpWeights

    g, camera, spec, _ = scenes.two_plane(res, res)
    if lighting == "learned":
        grid = FeatureGrid(np.random.default_rng(1).uniform(0.0, 1.0, (res, res, 8)))
        light = vol.BlendedLightField(
            grid, g, camera, MlpWeights.random(default_decoder_dims(8), 2),
            vol.HypernetParams.fixed(MlpWeights.random(vol.default_field_dims(10), 3)))
    else:
        light = analytic_lightfield(spec["kind"], **{k: v for k, v in spec.items() if k != "kind"})
    cfg = LossConfig(iterations=1, step_size=0.001, params=params, spp=spp, seed=4)
    t0 = time.perf_counter()
    optimize(g, camera, light, np.full((res, res, 3), 0.3), cfg)
    print(f"seconds: {time.perf_counter() - t0:.3f}")
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB",
          flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Time one optimize iteration and print its peak RSS.")
    ap.add_argument("--res", type=int, default=32)
    ap.add_argument("--spp", type=int, default=4)
    ap.add_argument("--params", default="albedo,light")
    ap.add_argument("--lighting", choices=("learned", "bundle"), default="learned")
    args = ap.parse_args(argv)
    if min(args.res, args.spp) < 1:
        ap.error("--res and --spp must be at least 1")
    params = tuple(p for p in args.params.split(",") if p)
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fit_once(args.res, args.spp, params, args.lighting)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


if __name__ == "__main__":
    raise SystemExit(main())
