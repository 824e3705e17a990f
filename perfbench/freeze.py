"""Freeze the ground truth the benchmark's output checks compare with.

    python3 perfbench/freeze.py [--workload NAME ...]

Run from the root of a source checkout.  For every workload and every
input pool entry (`seed % pool`) it generates the inputs with the current
ssdr and writes, to perfbench/truth/<workload>.npz, the image -- the
quadrature reference (`render.reference_render` at the workload's
`reference_cells`) for renders, the target for fits -- and the light's
outputs at fixed queries (`workloads.query_outputs`).  The benchmark itself never computes
its ground truth with the program it measures; re-freeze only with a
commit whose change of the expected images is deliberate and explained.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import argparse  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path[:0] = [str(Path("src").resolve()), str(Path(__file__).resolve().parent)]
import workloads as wl  # noqa: E402


def truth(w: wl.Workload, index: int, bundle_dir: Path) -> dict:
    g, camera, light = wl.write_bundle(w, index, bundle_dir)
    out = wl.query_outputs(w, index, g, camera, light)
    if w.kind == "fit":
        out["image"] = wl.render_target(w, index, g, camera, light)
    else:
        from ssdr.render import reference_render
        out["image"] = reference_render(g, camera, light, cells=w.reference_cells,
                                        specular_scale=w.specular_scale)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(wl.WORKLOADS),
                    default=sorted(wl.WORKLOADS))
    args = ap.parse_args(argv)
    bundle_dir = Path(".bench_work") / f"freeze-{os.getpid()}"
    wl.TRUTH_DIR.mkdir(exist_ok=True)
    try:
        for name in args.workload:
            w = wl.WORKLOADS[name]
            arrays = {}
            for index in range(w.pool):
                t0 = time.perf_counter()
                for key, value in truth(w, index, bundle_dir).items():
                    arrays[f"{index}_{key}"] = value.astype(np.float32)
                print(f"{name} [{index}] {time.perf_counter() - t0:.1f} s", flush=True)
            np.savez(wl.TRUTH_DIR / f"{name}.npz", **arrays)
    finally:
        shutil.rmtree(bundle_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
