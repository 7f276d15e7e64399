#!/usr/bin/env python3
"""Bench-baseline regression gate (stdlib only; CI-friendly).

Runs the pinned smoke spec (`fp_bench smoke`, experiments/smoke.json),
which writes BENCH_smoke.json, and compares every point's headline metrics against
the committed baseline file. The simulator is deterministic, so on an
unchanged tree every metric matches the baseline exactly; the
threshold only tolerates small *intentional* drift (e.g. a timing-
model tweak) without demanding a baseline update for noise-free
refactors.

    tools/bench_baseline.py                      # run + compare
    tools/bench_baseline.py --threshold 2        # tighter gate
    tools/bench_baseline.py --update             # reseed the baseline
    tools/bench_baseline.py --skip-run --out X   # compare existing X

Exit status 0 when every metric is within the threshold; 1 with a
per-metric report otherwise (rerun with --update and commit the new
baseline when the drift is intentional).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

#: Metrics gated per point: deterministic, scale-free enough to
#: compare run-over-run, and together covering timing (ticks,
#: latency), fork-path effectiveness (path length, buckets) and
#: request accounting (an access-count change means the pipeline
#: itself changed, not just its speed). The comparison reads ONLY
#: these keys, so provenance fields added by spec-driven runs
#: (spec_name / spec_hash) and any future RunResult additions never
#: trip the gate or force a baseline reseed.
GATED_METRICS = (
    "execution_ticks",
    "avg_llc_latency_ns",
    "avg_read_path_len",
    "avg_dram_buckets_read",
    "real_accesses",
    "dummy_accesses",
)


def fail(msg):
    sys.exit(f"bench_baseline: FAIL: {msg}")


def load(path, what):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        fail(f"{what} file '{path}' not found")
    except json.JSONDecodeError as e:
        fail(f"{what} file '{path}' is not valid JSON: {e}")
    if doc.get("schema") != "forkpath-bench-smoke-v1":
        fail(f"{what} file '{path}' has schema "
             f"{doc.get('schema')!r}, expected forkpath-bench-smoke-v1")
    return {p["name"]: p["result"] for p in doc["points"]}


def run_bench(bench, out, jobs):
    cmd = [bench, "smoke", "--csv", f"--out={out}", f"--jobs={jobs}"]
    print("bench_baseline: running:", " ".join(cmd))
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        fail(f"bench exited with status {proc.returncode}")


def compare(current, baseline, threshold_pct):
    if set(current) != set(baseline):
        fail(f"point sets differ: current {sorted(current)} vs "
             f"baseline {sorted(baseline)} "
             f"(rerun with --update if intentional)")
    failures = []
    for name in sorted(current):
        for metric in GATED_METRICS:
            if metric not in baseline[name]:
                fail(f"baseline point '{name}' lacks '{metric}' "
                     f"(rerun with --update)")
            want = baseline[name][metric]
            got = current[name].get(metric)
            if got is None:
                fail(f"current point '{name}' lacks '{metric}'")
            scale = max(abs(want), 1e-12)
            drift_pct = 100.0 * abs(got - want) / scale
            status = "ok"
            if drift_pct > threshold_pct:
                status = "DRIFT"
                failures.append(
                    f"{name}.{metric}: baseline {want:g}, "
                    f"got {got:g} ({drift_pct:+.2f}% > "
                    f"{threshold_pct:g}%)")
            print(f"bench_baseline: {name:>16s} {metric:<22s} "
                  f"base={want:<14g} got={got:<14g} "
                  f"drift={drift_pct:6.2f}%  {status}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default="build/bench/fp_bench",
                    help="fp_bench binary (default %(default)s)")
    ap.add_argument("--baseline",
                    default="tools/baselines/BENCH_smoke.baseline.json",
                    help="committed baseline (default %(default)s)")
    ap.add_argument("--out", default="BENCH_smoke.json",
                    help="where the bench writes its JSON "
                         "(default %(default)s)")
    ap.add_argument("--threshold", type=float, default=5.0,
                    help="max per-metric drift in percent "
                         "(default %(default)s)")
    ap.add_argument("--jobs", type=int, default=0,
                    help="bench --jobs (0 = hardware concurrency)")
    ap.add_argument("--update", action="store_true",
                    help="reseed the baseline from this run and exit")
    ap.add_argument("--skip-run", action="store_true",
                    help="compare an existing --out file instead of "
                         "running the bench")
    args = ap.parse_args()

    if not args.skip_run:
        run_bench(args.bench, args.out, args.jobs)
    current = load(args.out, "bench output")

    if args.update:
        os.makedirs(os.path.dirname(args.baseline) or ".",
                    exist_ok=True)
        shutil.copyfile(args.out, args.baseline)
        print(f"bench_baseline: baseline updated from {args.out} "
              f"-> {args.baseline} ({len(current)} points); "
              f"commit the new file")
        return

    baseline = load(args.baseline, "baseline")
    failures = compare(current, baseline, args.threshold)
    if failures:
        print()
        for f in failures:
            print(f"bench_baseline: REGRESSION: {f}")
        sys.exit(f"bench_baseline: FAIL: {len(failures)} metric(s) "
                 f"drifted beyond {args.threshold:g}% — investigate, "
                 f"or rerun with --update and commit the baseline if "
                 f"the change is intentional")
    print(f"bench_baseline: OK ({len(current)} points x "
          f"{len(GATED_METRICS)} metrics within "
          f"{args.threshold:g}%)")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        sys.exit(0)  # e.g. `bench_baseline.py | head`
