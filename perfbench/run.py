"""The ssdr benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/ssdr`).  For each
workload it generates the inputs from the seed and writes them as an ssdr
bundle, starts the workload process (perfbench/child.py) with the BLAS
thread count pinned, checks the outputs, and prints every metric by name
and unit; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones (spans around each layer, at one thread).  A failed
output check makes the exit code 1; a tree without `src/ssdr` exits 2.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)   # before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5          # processes whose set-up time is measured per run
DEADLINE_S = 170.0         # whole run, including input generation
LOSS_TAIL = 3              # fit_loss_ratio averages the last three losses
WORK = Path(".bench_work")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


def _spawn(args_list, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    env["SSDR_LOG"] = "quiet"
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--t-spawn", repr(t_spawn)]
            + args_list, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"workload process exited {proc.returncode}")


def _run_processes(w, seed, seconds, trace, run_dir, nproc, t_start):
    """Inputs process, then (untraced) SETUP_SAMPLES - 1 set-up-only
    processes, then the workload process.  Returns (the outputs the inputs
    process made for the truth checks, raw results)."""
    common = ["--workload", w.name, "--bundle", str(run_dir / "bundle"),
              "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
              "--nproc", str(nproc)]

    def spawn(phase, out):
        _spawn(common + ["--phase", phase, "--out", str(out)],
               DEADLINE_S - (time.monotonic() - t_start))

    def setup_seconds(rec, probe_before):
        """Set-up time, speed-normalized by a probe the parent takes just
        before the spawn and one the process takes just after set-up."""
        return rec["setup_s"] * wl.CALIB_REF_S[1] / ((probe_before + rec["setup_probe"]) / 2)

    spawn("inputs", run_dir / "generated.npz")
    with np.load(run_dir / "generated.npz") as data:
        generated = dict(data)
    calib = wl.Calibrator(1)
    setup_s = []
    for i in range(0 if trace else SETUP_SAMPLES - 1):
        probe = calib()
        spawn("setup", run_dir / f"setup{i}.json")
        setup_s.append(setup_seconds(json.loads((run_dir / f"setup{i}.json").read_text()),
                                     probe))
    probe = calib()
    spawn("run", run_dir / "result.json")
    res = json.loads((run_dir / "result.json").read_text())
    res["setup_samples"] = setup_s + [setup_seconds(res, probe)]
    return generated, res


# ---------------------------------------------------------------------------
# output checks


def check_truth(got, truth, name, rmse_rel_max, bias_max):
    """`name`_rmse, its ratio to rms(truth), `name`_bias (mean over the
    truth's mean, minus one), and a failed check for each bound exceeded."""
    rmse = float(np.sqrt(np.mean((got - truth) ** 2)))
    rel = rmse / float(np.sqrt(np.mean(truth ** 2)))
    bias = float(np.mean(got) / np.mean(truth) - 1.0)
    info = {f"{name}_rmse": rmse, f"{name}_rmse_rel": rel, f"{name}_bias": bias}
    if not rel <= rmse_rel_max:       # also catches NaN
        info[f"{name}_rmse_check"] = f"{name} relative RMSE {rel:.4g} > {rmse_rel_max}"
    if not abs(bias) <= bias_max:
        info[f"{name}_bias_check"] = f"{name} bias {bias:.4g} beyond ±{bias_max}"
    return info


def check_queries(generated, truth):
    """The BRDF's and the light's outputs at the fixed queries against the
    frozen ones, element by element: each may differ by QUERIES_RTOL of
    itself, or of a thousandth of its array's RMS when it is smaller."""
    info = {}
    for key in sorted(truth.keys() - {"image"}):
        want = truth[key]
        floor = max(1e-3 * float(np.sqrt(np.mean(want ** 2))), np.finfo(float).tiny)
        err = float(np.max(np.abs(generated[key] - want) / np.maximum(np.abs(want), floor)))
        info[f"{key}_err"] = err
        if not err <= wl.QUERIES_RTOL:       # also catches NaN
            info[f"{key}_check"] = f"{key} differs from the frozen values by {err:.3g}"
    return info


def check_render(w, res, truth, generated):
    """Per-operation pass flags: no exception, finite, bitwise equal to the
    warm-up render (same seed; any thread count), warm-up image within the
    RMSE and bias bounds of the frozen quadrature reference, query outputs
    equal to the frozen ones."""
    warm = res["warmup"]
    info = check_queries(generated, truth)
    if "error" in warm or not warm["finite"]:
        ok_ref = None
        info["warmup_error"] = warm.get("error", "non-finite warm-up render")
    else:
        info.update(check_truth(np.load(warm["image"]), truth["image"], "image",
                                w.rmse_rel_max, w.bias_max))
        ok_ref = None if any(k.endswith("_check") for k in info) else warm["digest"]
    ops = res["ops"] + res.get("trace", {}).get("ops", [])
    flags = [("error" not in o and o["finite"] and o["digest"] == ok_ref) for o in ops]
    return flags, info


def _loss_ratio(losses):
    return float(np.mean(losses[-LOSS_TAIL:]) / losses[0])


def _iters_to_tol(w, losses):
    """Iterations run until the loss first read below tol_fraction * loss[0]."""
    for i, loss in enumerate(losses):
        if loss < w.tol_fraction * losses[0]:
            return i + 1
    return None


def check_fit(w, res, truth, generated):
    """Per-iteration pass flags.  The query outputs must equal the frozen
    ones, and the program's render of the true maps must be within the RMSE
    and bias bounds of the frozen target.  An episode passes when it raised
    nothing, stayed finite and repeated the first episode bit for bit; the
    first episode must also report its last loss truthfully (recomputed
    here from its last image and the target), bring the loss below the
    workload's bound and, for fit-analytic, reach the tolerance.  Every
    iteration of a failed episode, and all of them on a failed truth check,
    count as failed."""
    episodes = res["ops"] + res.get("trace", {}).get("ops", [])
    first = episodes[0]
    info = check_queries(generated, truth)
    info.update(check_truth(generated["image"], truth["image"], "target",
                            w.rmse_rel_max, w.bias_max))
    good = "error" not in first and first["finite"]
    if good:
        losses = first["losses"]
        mse = float(np.mean((np.load(first["image"]) - truth["image"]) ** 2))
        info["fit_loss_ratio"] = _loss_ratio(losses)
        if abs(mse - losses[-1]) > 1e-9 * losses[-1]:
            info["loss_check"] = f"reported loss {losses[-1]:.6g} != recomputed {mse:.6g}"
        elif info["fit_loss_ratio"] > w.loss_ratio_max:
            info["loss_check"] = (f"fit_loss_ratio {info['fit_loss_ratio']:.4g} "
                                  f"> {w.loss_ratio_max}")
        if w.tol_fraction:
            info["iters_to_tol"] = _iters_to_tol(w, losses)
            if info["iters_to_tol"] is None:
                info["tol_check"] = f"loss never fell below {w.tol_fraction} x loss[0]"
        good = not any(k.endswith("_check") for k in info)
    else:
        info["episode_error"] = first.get("error", "non-finite loss or image")
    flags = []
    for ep in episodes:
        ok = (good and "error" not in ep and ep["finite"]
              and ep["digest"] == first["digest"])
        flags += [ok] * ep["iterations"]
    return flags, info


# ---------------------------------------------------------------------------
# metrics


def _op_times(w, op, normalized=True):
    """Times of one operation record (a render, or each iteration of a fit
    episode), each scaled by the machine-speed probe around it unless
    `normalized` is false."""
    if w.kind == "render":
        timed = [(op["seconds"], op["probe"], op["threads"])]
    else:
        timed = [(d, p, 1) for d, p in zip(op["durations"], op["probes"])]
    return [t * (wl.CALIB_REF_S[n] / p if normalized else 1.0) for t, p, n in timed]


def _op_seconds(w, ops, threads=None, normalized=True):
    return [t for o in ops if "error" not in o
            and (threads is None or o.get("threads", 1) == threads)
            for t in _op_times(w, o, normalized)]


def _speed_factor(w, op):
    """Normalized over wall time of one operation record."""
    return sum(_op_times(w, op)) / sum(_op_times(w, op, normalized=False))


def _require(times, what):
    if not times:
        raise HarnessError(f"no {what} operation completed")
    return times


def end_to_end(w, res, info):
    times = _require(_op_seconds(w, res["ops"], res["threads"]), "timed")
    tail, pct = harness.tail_percentile(times)
    p50 = harness.median(times)
    metrics = {
        "setup_s": harness.median(res["setup_samples"]),
        "op_p50_s": p50,
        "op_tail_s": tail,
        "msamples_per_s": res["forward_lanes"] / p50 / 1e6,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = _op_seconds(w, res["ops"], res["threads"], normalized=False)
    extra = {"op_samples": len(times), "op_tail_percentile": pct,
             "op_p50_wall_s": harness.median(wall),
             "op_tail_wall_s": harness.tail_percentile(wall)[0],
             "setup_samples": res["setup_samples"]}
    for key in ("image_rmse", "image_rmse_rel", "image_bias", "target_rmse_rel",
                "target_bias", "fit_loss_ratio", "iters_to_tol"):
        if key in info:
            extra[key] = info[key]
    extra["queries_err_max"] = max(v for k, v in info.items() if k.endswith("_err"))
    single = _op_seconds(w, res["ops"], 1, normalized=False)
    if res["threads"] > 1 and single:
        extra["scaling_eff"] = harness.median(single) / (
            res["threads"] * extra["op_p50_wall_s"])
        extra["scaling_samples_1_thread"] = len(single)
    if info.get("iters_to_tol"):
        k = info["iters_to_tol"]
        extra["time_to_tol_s"] = harness.median(
            [sum(_op_times(w, ep)[:k]) for ep in res["ops"] if "error" not in ep])
    return metrics, extra


def _units_per_op(w, ops):
    return len(ops) * (w.iterations if w.kind == "fit" else 1)


def _sum_deltas(deltas, factors):
    """Sum per-operation span deltas, times scaled by each operation's
    machine-speed factor (counts are summed as they are)."""
    total = {"calls": {}, "busy": {}, "self": {}, "counts": {}}
    for d, f in zip(deltas, factors):
        for kind, table in d.items():
            scale = f if kind in ("busy", "self") else 1
            for k, v in table.items():
                total[kind][k] = total[kind].get(k, 0) + v * scale
    return total


def per_layer(w, res):
    """Per-operation layer metrics of the traced run (per optimize iteration
    for fits), plus the self-checks: every expected span fired, no binding
    missed, and the work counts repeated exactly between operations."""
    tr = res["trace"]
    problems = []
    if tr["stale_bindings"]:
        problems.append(f"unwrapped bindings: {tr['stale_bindings']}")
    counts = [d["counts"] for d in tr["deltas"]]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between identical operations")
    setup = tr["setup"]
    total = _sum_deltas(tr["deltas"], [_speed_factor(w, op) for op in tr["ops"]])
    fired = {k for k, v in setup["calls"].items() if v} | \
            {k for k, v in total["calls"].items() if v}
    missing = sorted(w.expected_spans - fired)
    if missing:
        problems.append(f"expected spans never fired: {missing}")

    n = _units_per_op(w, tr["ops"])
    busy = {k: v / n for k, v in total["busy"].items()}
    self_s = {k: v / n for k, v in total["self"].items()}
    c = {k: v / n for k, v in total["counts"].items()}

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    m = {}
    for span in ("sampling.uniform_block", "brdf.sample_directions", "brdf.mixture_pdf",
                 "brdf.eval_raw", "brdf.eval_pdf_with_partials",
                 "lighting.traced_radiance_batch", "lighting.decoder_inputs",
                 "lighting.positional_encoding", "ssrt.trace_batch",
                 "volumetric.volume_render_batch", "volumetric.volume_render_backward",
                 "volumetric.composite", "volumetric.composite_backward",
                 "mlp.forward", "mlp.backward", "render.render_mc",
                 "render.render_backward", "inverse.optimize", "inverse.loss_rerender",
                 "light.radiance", "light.backprop"):
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in ("light.radiance", "light.backprop", "render.render_mc",
                 "render.render_backward"):
        m[f"{span}.busy_s"] = busy.get(span, 0.0)
    for key in ("sampling.lanes", "brdf.lanes", "light.radiance.lanes",
                "light.backprop.lanes", "ssrt.rays", "volumetric.field_points",
                "mlp.forward.rows", "mlp.backward.rows"):
        m[key] = c.get(key, 0)
    m["brdf.valid_lane_ratio"] = ratio("brdf.valid_lanes", "brdf.lanes")
    for status in ("hit", "exited", "exhausted", "u_one"):
        m[f"ssrt.{status}_ratio"] = ratio(f"ssrt.{status}", "ssrt.rays")
    for net in ("mlp.forward", "mlp.backward"):
        m[f"{net}.gflop"] = c.get(f"{net}.flop", 0) / 1e9
    m["mlp.forward.gflops"] = (m["mlp.forward.gflop"] / m["mlp.forward.self_s"]
                               if m["mlp.forward.self_s"] else 0.0)
    for span in ("io.read_bundle", "core.validate_gbuffer", "cli.resolve_light"):
        m[f"{span}.s"] = setup["busy"].get(span, 0.0)
    m["io.bytes_read"] = setup["counts"].get("io.bytes_read", 0)
    untraced = harness.median(_require(_op_seconds(w, res["ops"]), "untraced"))
    traced = harness.median(_require(_op_seconds(w, tr["ops"]), "traced"))
    m["trace_overhead_ratio"] = traced / untraced
    ranking = sorted(((v, k) for k, v in self_s.items() if not k.startswith("harness.")),
                     reverse=True)
    extra = {"self_time_ranking": [(k, v) for v, k in ranking[:8]],
             "traced_ops": len(tr["ops"]), "untraced_ops": len(res["ops"]),
             "bindings_wrapped": len(tr["bindings"]), "counts_per_op": c}
    return m, extra, problems


# ---------------------------------------------------------------------------


def _load_spec():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _source_digest() -> str:
    """Digest of the ssdr sources and the benchmark's own, so that work
    counts are compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(Path("src/ssdr").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _repeat_check(name, seed, counts):
    """The work counts of a traced run must equal those of any earlier
    traced run of the same workload and seed on the same code."""
    path = WORK / "counts" / f"{name}-seed{seed}-{_source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return [f"work counts differ from the earlier run recorded in {path}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def run_workload(name, seed, seconds, trace, nproc):
    t_start = time.monotonic()
    w = wl.WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        generated, res = _run_processes(w, seed, seconds, trace, run_dir, nproc, t_start)
        truth = wl.load_truth(w, seed)
        flags, info = (check_render if w.kind == "render" else check_fit)(
            w, res, truth, generated)
    finally:
        keep = run_dir / "result.json"
        record = json.loads(keep.read_text()) if keep.exists() else None
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = harness.count_failures(flags)
    problems = [v for k, v in info.items() if k.endswith("_check") or k.endswith("_error")]
    if trace:
        metrics, extra, layer_problems = per_layer(w, res)
        problems += layer_problems + _repeat_check(name, seed, extra["counts_per_op"])
    else:
        metrics, extra = end_to_end(w, res, info)
    extra.update(fail_ratio=harness.fail_ratio(failed, attempted),
                 env=res["env"], seeds=res["seeds"], threads=res["threads"],
                 blas_threads=BLAS_THREADS)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {"metrics": metrics, "extra": extra, "problems": problems, "raw": record},
        indent=1))
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}, extra, problems


def _print_report(name, result, extra, problems):
    print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}"
          f"  failed={result['failed']}  fail_ratio={extra['fail_ratio']:.4g}")
    env = extra["env"]
    print(f"   env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
          f" blas={env['blas']} blas_threads={env['blas_threads']}"
          f" workload_threads={extra['threads']} git_sha={env['git_sha']}")
    print(f"   seeds: {json.dumps(extra['seeds'])}")
    for key, m in result["metrics"].items():
        print(f"   {key} = {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        if key in ("env", "seeds", "counts_per_op", "fail_ratio", "threads",
                   "blas_threads"):
            continue
        print(f"   {key} = {value}")
    for p in problems:
        print(f"   CHECK FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/ssdr/__init__.py").is_file():
        print("perfbench: run from the root of an ssdr source checkout "
              "(src/ssdr not found)", file=sys.stderr)
        return 2
    e2e_units, layer_units = _load_spec()
    units = layer_units if args.trace else e2e_units
    nproc = len(os.sched_getaffinity(0))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    all_ok = True
    for name in names:
        try:
            result, extra, problems = run_workload(name, args.seed, args.seconds,
                                                   args.trace, nproc)
        except HarnessError as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            print(f"perfbench: metrics {sorted(set(result['metrics']) ^ set(units))} "
                  "disagree with BENCHMARK.json", file=sys.stderr)
            return 1
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in result["metrics"].items()}
        _print_report(name, result, extra, problems)
        print(json.dumps(result), flush=True)
        all_ok &= result["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
