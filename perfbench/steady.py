"""Steadiness report: repeat ``run.py`` on each workload with different seeds.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--workload bayes_sweep ...]

For each end-to-end metric of each workload it prints the unit, median,
quartiles, the quartile spread as a share of the median (IQR/median), the
highest percentile with at least ten samples beyond it, and the sample count.
``fail_rate`` (failed over attempted commands) is printed with them.  The
spread is compared with a third of the metric's bound in ``BENCHMARK.json``;
the regression bounds there were set from this report.  Raw results are
saved in ``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, OUT_DIR, ROOT


def percentile_with_tail(values: list[float], tail: int = 10):
    """(p, value): the highest percentile with at least ``tail`` samples above it, or None."""
    n = len(values)
    if n <= tail:
        return None
    return 100 * (n - tail) // n, sorted(values)[n - tail - 1]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                status = 1
            if result:
                result["seed"] = seed
                result["run_s"] = time.perf_counter() - started
                results.append(result)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"steady-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)

        print(f"\n{workload}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':14s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'iqr/med':>8s} {'bound/3':>8s} {'tail pct':>14s} {'n':>3s}")
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            tail = percentile_with_tail(values)
            tail_text = f"p{tail[0]}={tail[1]:.5g}" if tail else "n/a"
            flag = "" if spread <= metric["bound"] / 3 else "  <-- wide"
            print(f"  {name:14s} {metric['unit']:6s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:8.4f} {metric['bound'] / 3:8.4f} {tail_text:>14s} {len(values):3d}{flag}")
        if results:
            print(f"  each run took {min(r['run_s'] for r in results):.1f} to "
                  f"{max(r['run_s'] for r in results):.1f} s")
            rates = [r["failed"] / r["attempted"] for r in results]
            print(f"  {'fail_rate':14s} {'ratio':6s} {statistics.median(rates):11.5g} "
                  f"min {min(rates):.5g} max {max(rates):.5g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
