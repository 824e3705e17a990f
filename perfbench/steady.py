"""Steadiness check: run the untraced benchmark on one workload once per
seed, for BENCHMARK.json's run_seconds, and report for every end-to-end
metric the median and the interquartile distance over the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound.

    python3 perfbench/steady.py --workload NAME [--seeds 1-10]

Run from the root of a source checkout, like run.py.  Appends one JSON
line per run to .bench_work/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = Path(".bench_work") / f"steady-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        wall = time.monotonic() - t0
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, "exit": proc.returncode, "wall_s": wall,
                                "result": result}) + "\n")
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
            return 1
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: {wall:.1f} s wall, " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    if len(next(iter(values.values()))) < 2:
        return 0
    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound':>6}")
    for k, vals in values.items():
        b = bounds.get(k)
        print(f"{k:<24} {harness.median(vals):>12.5g} {harness.spread(vals):>8.3f} "
              f"{'' if b is None else b:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
