#!/usr/bin/env python3
"""Time a grid-light render at 1 and 2 threads and print how well the
second worker pays:

    PYTHONPATH=src python3 scripts/thread_scaling.py [--res 64] [--spp 64] [--repeats 7]

It renders glossy-floor at RES x RES and SPP samples per pixel under the
seeded random `GridLight` of `scripts/bitwise_digest.py` (the render-grid
bench's path: `render_mc`, dominated by `GridLight.radiance` and the BRDF),
after one warm-up render at each thread count.  The renders alternate
between the thread counts, so a drift in the machine's speed falls on both.
It prints, per thread count, the median seconds of a render and the median
voluntary context switches per render, then the efficiency t1 / (2 t2): 1
when the second worker halves the time, 0.5 when it gains nothing, and the
process's peak RSS.

As a control, once per repeat (and once to warm up), a forked second
process renders the same single-thread render at the same time as this
one: both start together, and each waits for the other to end before the
next render.  The line "threads 1, two processes" gives this process's
median tp of those renders, and the efficiency t1 / tp, printed beside the
two-thread one, is 1 when two renders run side by side as fast as one
alone and 0.5 when they take turns.  Two processes share the cores and
the memory bus as two workers do, but no GIL, so the gap between the two
efficiencies prices what sharing one process costs.

The switches and the peak come from `resource.getrusage` of this process
only (all its threads): a worker that waits for the GIL sleeps, so the
switches count the GIL handoffs.  Linux keeps `ru_maxrss` across `exec`,
so run it from a shell, not from a large process.  It never asks for more
than 2 threads or 2 processes.

The render-grid bench reports the same efficiency as `scaling_eff`, for
its own light at 64x64 spp 64.  Here RES and SPP are free, so a path the
bench never takes can be timed: `--res 256 --spp 6` runs `GridLight`'s
per-lane path, in row blocks of about 12k lanes.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import statistics
import time

import numpy as np

from bitwise_digest import grid_light
from ssdr import scenes
from ssdr.render import RenderConfig, render_mc

THREADS = (1, 2)


def _timed(render) -> tuple[float, int]:
    """Seconds and voluntary context switches of this process for one
    call of render()."""
    csw0 = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
    t0 = time.perf_counter()
    render()
    seconds = time.perf_counter() - t0
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - csw0


def _paired(render, barrier, repeats: int) -> list[tuple[float, int]]:
    """`_timed` renders, each started at `barrier` together with the
    other process's and followed by waiting for it to end."""
    runs = []
    for _ in range(repeats):
        barrier.wait()
        runs.append(_timed(render))
        barrier.wait()
    return runs


def measure(res: int, spp: int, repeats: int) -> dict:
    """Thread count, or "paired", -> (median seconds, median voluntary
    context switches) per render."""
    g, camera, _, _ = scenes.glossy_floor(res, res)
    light = grid_light(g, camera, np.random.default_rng(5))
    cfg = RenderConfig(spp=spp, seed=3)

    def render(threads=1):
        render_mc(g, camera, light, cfg, threads=threads)

    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    other = ctx.Process(target=_paired, args=(render, barrier, repeats + 1))
    other.start()
    try:
        for threads in THREADS:
            render(threads)
        _paired(render, barrier, 1)
        runs = {key: [] for key in (*THREADS, "paired")}
        for _ in range(repeats):
            for threads in THREADS:
                runs[threads].append(_timed(lambda: render(threads)))
            runs["paired"] += _paired(render, barrier, 1)
    except BaseException:
        barrier.abort()  # the other process stops waiting
        raise
    finally:
        other.join()
    return {key: tuple(statistics.median(column) for column in zip(*r))
            for key, r in runs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Time a grid-light render at 1 and 2 threads.")
    ap.add_argument("--res", type=int, default=64)
    ap.add_argument("--spp", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)
    if min(args.res, args.spp, args.repeats) < 1:
        ap.error("--res, --spp and --repeats must be at least 1")
    result = measure(args.res, args.spp, args.repeats)
    for threads, (seconds, switches) in result.items():
        name = "threads 1, two processes" if threads == "paired" else f"threads {threads}"
        print(f"{name}: {seconds:.4f} s per render, "
              f"{switches:.0f} voluntary context switches per render")
    t1, t2, tp = (result[key][0] for key in (1, 2, "paired"))
    print(f"efficiency t1 / (2 t2): {t1 / (2.0 * t2):.3f}, "
          f"two processes t1 / tp: {t1 / tp:.3f}")
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
