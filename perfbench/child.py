"""Processes run.py starts, one per phase:

- `--phase inputs`: generate the workload's bundle from the seed (with the
  frozen target for fits) and save the program's outputs that run.py
  checks against the frozen truth (`workloads.make_inputs`) as `--out`
  (.npz).
- `--phase setup`: set up from the bundle and report the set-up time only.
- `--phase run`: set up, run one warm-up operation, then run operations
  closed-loop (one caller; each starts after the previous one finishes)
  and write the raw measurements to `--out` (JSON).

    python3 perfbench/child.py --phase PHASE --workload NAME --bundle DIR \
        --seed N --seconds S --trace 0|1 --nproc N --t-spawn T --out FILE

`--t-spawn` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time includes interpreter start-up and
`import ssdr`.  Inputs are generated in a process of their own so that the
workload process's peak RSS (`getrusage`, which on Linux keeps the high
water mark across exec) does not inherit the generator's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import harness
import workloads as wl

CLOCK = time.perf_counter


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--bundle", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--phase", required=True, choices=("inputs", "setup", "run"))
    ap.add_argument("--nproc", type=int, required=True)
    return ap.parse_args(argv)


def _render_op(w, st, seed, threads, calib, image_dir=None, tag=None):
    before = calib(threads)
    t0 = CLOCK()
    try:
        img = wl.render_once(w, st, seed, threads)
    except Exception as e:  # a failed operation is counted, not fatal
        return {"threads": threads, "seconds": CLOCK() - t0, "error": repr(e)}
    dt = CLOCK() - t0
    rec = {"threads": threads, "seconds": dt,
           "probe": (before + calib(threads)) / 2,
           "finite": bool(np.all(np.isfinite(img))), "digest": wl.image_digest(img)}
    if image_dir is not None:
        np.save(image_dir / f"{tag}.npy", img)
        rec["image"] = str(image_dir / f"{tag}.npy")
    return rec


def _fit_op(w, st, seed, iterations, calib, image_dir=None, tag=None):
    try:
        durations, probes, losses, last, digest = wl.fit_once(
            w, st, seed, iterations, CLOCK, calib)
    except Exception as e:
        return {"iterations": iterations, "error": repr(e)}
    rec = {"iterations": iterations, "durations": durations, "probes": probes,
           "losses": losses,
           "finite": bool(np.all(np.isfinite(losses)) and np.all(np.isfinite(last))),
           "digest": digest}
    if image_dir is not None:
        np.save(image_dir / f"{tag}.npy", last)
        rec["image"] = str(image_dir / f"{tag}.npy")
    return rec


def _op(w, st, seed, threads, calib, image_dir=None, tag=None, iterations=None):
    if w.kind == "render":
        return _render_op(w, st, seed, threads, calib, image_dir, tag)
    return _fit_op(w, st, seed, iterations or w.iterations, calib, image_dir, tag)


def _loop(seconds, run_op, min_ops=1):
    """Closed loop: run_op(i) until `seconds` have passed and at least
    `min_ops` operations have run."""
    ops = []
    t_start = CLOCK()
    while len(ops) < min_ops or CLOCK() - t_start < seconds:
        ops.append(run_op(len(ops)))
    return ops


def _in_span(tracer, name, fn):
    def run(*args):
        tracer.enter(name)
        try:
            return fn(*args)
        finally:
            tracer.exit()
    return run


def _trace_mode_loop(w, st, seed, seconds, tracer, probes, calib, image_dir):
    """Alternate untraced and traced operations (one thread) so that both
    see the same machine conditions; at least two of each.  Returns
    (untraced ops, traced ops, per-traced-op span deltas, bindings the
    probes replaced, bindings still holding an original)."""
    untraced, traced, deltas = [], [], []
    # probes run inside optimize; a span of their own keeps them out of
    # inverse.optimize's self time
    spanned = _in_span(tracer, "harness.calibration", calib)
    first = probes.install(tracer, type(st.light))
    bindings, stale = first.bindings, first.stale_bindings()
    first.restore()

    def run_op(i):
        if i % 2 == 0:
            untraced.append(_op(w, st, seed, 1, calib,
                                image_dir if i == 0 else None, "first"))
            return
        inst = probes.install(tracer, type(st.light))
        try:
            before = tracer.snapshot()
            traced.append(_op(w, st, seed, 1, spanned))
            deltas.append(harness.snapshot_delta(tracer.snapshot(), before))
        finally:
            inst.restore()

    _loop(seconds, run_op, min_ops=4)
    return untraced, traced, deltas, bindings, stale


def main(argv=None) -> int:
    args = _parse(argv)
    w = wl.WORKLOADS[args.workload]
    import ssdr
    src = Path("src").resolve()
    if Path(ssdr.__file__).resolve().parent.parent != src:
        print(f"ssdr imported from {ssdr.__file__}, not from {src}", file=sys.stderr)
        return 2
    import ssdr.cli  # noqa: F401  (the CLI's bindings are the ones measured)
    if args.phase == "inputs":
        np.savez(args.out, **wl.make_inputs(w, args.seed, Path(args.bundle)))
        return 0

    tracer = probes = setup_inst = None
    if args.trace:
        import probes
        tracer = harness.Tracer(CLOCK)
        setup_inst = probes.install(tracer)
    try:
        st = wl.setup(w, args.bundle, args.seed)
    finally:
        if setup_inst is not None:
            setup_inst.restore()
    setup_s = time.monotonic() - args.t_spawn
    threads = w.threads(args.nproc) if not args.trace else 1
    calib = wl.Calibrator(threads)
    out = {"setup_s": setup_s, "setup_probe": calib()}
    if args.phase == "setup":
        calib.close()
        Path(args.out).write_text(json.dumps(out))
        return 0

    image_dir = Path(args.out).parent
    out.update(threads=threads, forward_lanes=wl.forward_lanes(w, st),
               seeds=wl.seeds(w, args.seed),
               env=wl.environment(args.nproc, int(os.environ["OPENBLAS_NUM_THREADS"])))
    try:
        out["warmup"] = _op(w, st, args.seed, threads, calib, image_dir, "warmup",
                            iterations=1)
        if not args.trace:
            # renders at `threads` interleave one single-thread render in
            # four, for scaling_eff and the thread-count determinism check
            cycle = [threads, threads, threads, 1] if threads > 1 else [threads]
            out["ops"] = _loop(args.seconds, lambda i: _op(
                w, st, args.seed, cycle[i % len(cycle)], calib,
                image_dir if i == 0 else None, "first"))
        else:
            setup_spans = tracer.snapshot()
            out["ops"], traced, deltas, bindings, stale = _trace_mode_loop(
                w, st, args.seed, args.seconds, tracer, probes, calib, image_dir)
            out["trace"] = {"setup": setup_spans, "ops": traced, "deltas": deltas,
                            "bindings": bindings, "stale_bindings": stale}
    finally:
        calib.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
