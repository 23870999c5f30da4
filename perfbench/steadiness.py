#!/usr/bin/env python3
"""Measures run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2]
                                    [--repeats 5] [--seconds S]

Runs every workload `repeats` times under each seed through run.py and
prints, per end-to-end metric, the median and the interquartile range
as a share of the median next to the metric's bound from BENCHMARK.json
(a spread under a third of the bound is steady). It also prints each
seed's median and the largest ratio between two of them.

Before and after every run it times a fixed CPU probe that does not use
the engine. The probe is a diagnostic, not a metric: a run whose probe
times differ from the others' shows that the host itself changed speed
during that run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_probe_ms():
    """Fixed integer work in the interpreter; no engine, no allocation."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:"
                           f"\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = p.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in a.workloads.split(","):
        runs = []  # (seed, metrics, probe_before, probe_after)
        for rep in range(a.repeats):
            for seed in seeds:
                before = cpu_probe_ms()
                t0 = time.monotonic()
                metrics = run_once(workload, seed, a.seconds)
                wall = time.monotonic() - t0
                after = cpu_probe_ms()
                runs.append((seed, metrics, before, after))
                print(f"{workload} seed {seed} rep {rep}: {wall:.1f} s, probe "
                      f"{before:.1f}/{after:.1f} ms  " +
                      "  ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                      flush=True)
        print(f"\n== {workload}: {len(runs)} runs, seeds {seeds}")
        print(f"{'metric':16} {'median':>12} {'iqr/med':>8} {'bound':>6} "
              f"{'steady':>7} {'seed ratio':>10}  seed medians")
        for name, bound in bounds.items():
            values = [m[name] for _, m, _, _ in runs]
            share = iqr_share(values)
            per_seed = [statistics.median([m[name] for s, m, _, _ in runs
                                           if s == seed]) for seed in seeds]
            steady = "yes" if share < bound / 3 else (
                "within" if share <= bound else "NO")
            print(f"{name:16} {statistics.median(values):12.5g} "
                  f"{share:8.4f} {bound:6.2f} {steady:>7} "
                  f"{max(per_seed) / min(per_seed):10.4f}  " +
                  " ".join(f"{v:.5g}" for v in per_seed))
        probes = [p for _, _, b, a2 in runs for p in (b, a2)]
        print(f"cpu probe: median {statistics.median(probes):.1f} ms, "
              f"iqr/med {iqr_share(probes):.4f}, "
              f"min {min(probes):.1f}, max {max(probes):.1f}\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
