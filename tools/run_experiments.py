#!/usr/bin/env python3
"""Run every committed experiment spec in smoke mode (stdlib only).

The CI `experiment-specs` job runs this script. For each
experiments/*.json it launches the fp_bench driver with the spec's
own `smoke.args` (each spec declares how to shrink itself to CI
scale), validates the emitted Chrome trace with validate_trace.py
when the spec sets `smoke.trace`, checks the sha256 of the spec's
stdout against tools/baselines/spec_stdout.sha256, and finally checks
coverage: every spec file ran, and every registered scenario
(fp_bench --list-scenarios) is exercised by at least one committed
spec.

The digest check enforces the contract that a change leaves every
committed output byte-identical. A change that moves an output on
purpose (a bug fix) reseeds the digests with --update-digests and
says why in CHANGES.md.

    tools/run_experiments.py                       # all specs
    tools/run_experiments.py --only fig10,smoke    # subset
    tools/run_experiments.py --bench build/bench/fp_bench
    tools/run_experiments.py --update-digests      # reseed digests

Exit status 0 when every spec ran clean; 1 with a per-spec report
otherwise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "baselines", "spec_stdout.sha256")


def fail(msg):
    sys.exit(f"run_experiments: FAIL: {msg}")


def spec_files(exp_dir):
    if not os.path.isdir(exp_dir):
        fail(f"experiments directory '{exp_dir}' not found")
    return sorted(
        os.path.join(exp_dir, f)
        for f in os.listdir(exp_dir)
        if f.endswith(".json"))


def load_digests(path):
    """{spec name: sha256 hex} from a sha256sum-style file."""
    if not os.path.exists(path):
        return {}
    digests = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2 or len(parts[0]) != 64:
                fail(f"{path}:{lineno}: expected '<sha256>  <spec>'")
            digests[parts[1]] = parts[0]
    return digests


def write_digests(path, digests):
    with open(path, "w") as f:
        for name in sorted(digests):
            f.write(f"{digests[name]}  {name}\n")


def spec_name(path):
    with open(path) as f:
        return json.load(f).get("name", os.path.basename(path))


def run_spec(bench, path, workdir, digests):
    """Run one spec; return (ok, sha256 of its stdout or None)."""
    with open(path) as f:
        spec = json.load(f)
    name = spec_name(path)
    smoke = spec.get("smoke", {})
    args = list(smoke.get("args", []))
    want_trace = bool(smoke.get("trace", True))

    trace_path = None
    cmd = [bench, path] + args
    if want_trace:
        trace_path = os.path.join(workdir, f"{name}.trace.json")
        cmd.append(f"--trace-out={trace_path}")

    print(f"run_experiments: {name}: {' '.join(cmd)}", flush=True)
    # stderr carries host-dependent progress lines (wall seconds), so
    # only stdout is digested.
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        print(proc.stdout.decode(errors="replace"))
        print(proc.stderr.decode(errors="replace"))
        print(f"run_experiments: {name}: exit {proc.returncode}")
        return False, None
    if not proc.stdout.strip():
        print(f"run_experiments: {name}: produced no stdout")
        return False, None
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if digests is not None:
        want = digests.get(name)
        if want is None:
            print(f"run_experiments: {name}: no recorded stdout digest "
                  f"in {DIGESTS} (run with --update-digests)")
            return False, digest
        if want != digest:
            print(f"run_experiments: {name}: stdout digest {digest} "
                  f"differs from the recorded {want}: an output "
                  f"changed")
            return False, digest

    if trace_path is not None:
        if not os.path.exists(trace_path):
            print(f"run_experiments: {name}: no trace written "
                  f"(smoke.trace is true but --trace-out produced "
                  f"nothing)")
            return False, digest
        check = subprocess.run(
            [sys.executable, os.path.join(HERE, "validate_trace.py"),
             "--trace", trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if check.returncode != 0:
            print(check.stdout)
            print(f"run_experiments: {name}: trace validation failed")
            return False, digest
    return True, digest


def coverage(bench, paths):
    """Every registered scenario must be exercised by some spec."""
    out = subprocess.run([bench, "--list-scenarios"],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail("fp_bench --list-scenarios failed")
    scenarios = set(out.stdout.split())
    covered = set()
    for path in paths:
        with open(path) as f:
            spec = json.load(f)
        covered.add(spec.get("scenario", spec.get("name")))
    missing = sorted(scenarios - covered)
    if missing:
        fail(f"scenarios with no committed spec: {', '.join(missing)}"
             f" (add experiments/<name>.json or drop the scenario)")
    print(f"run_experiments: coverage OK "
          f"({len(scenarios)} scenarios, {len(paths)} specs)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench",
                    default=os.path.join(ROOT, "build", "bench",
                                         "fp_bench"),
                    help="fp_bench binary (default: build/bench/)")
    ap.add_argument("--experiments",
                    default=os.path.join(ROOT, "experiments"),
                    help="spec directory (default: experiments/)")
    ap.add_argument("--only",
                    help="comma-separated spec names to run")
    ap.add_argument("--keep-going", action="store_true",
                    help="run every spec even after a failure")
    ap.add_argument("--update-digests", action="store_true",
                    help=f"record each spec's stdout digest in "
                         f"{os.path.relpath(DIGESTS, ROOT)} instead "
                         f"of checking it")
    args = ap.parse_args()

    if not os.path.exists(args.bench):
        fail(f"bench binary '{args.bench}' not found (build first)")

    paths = spec_files(args.experiments)
    if args.only:
        wanted = set(args.only.split(","))
        paths = [p for p in paths
                 if os.path.splitext(os.path.basename(p))[0]
                 in wanted]
        if not paths:
            fail(f"--only matched no specs in {args.experiments}")

    digests = load_digests(DIGESTS)
    failures = []
    with tempfile.TemporaryDirectory(prefix="fp_experiments.") as wd:
        for path in paths:
            ok, digest = run_spec(
                args.bench, path, wd,
                None if args.update_digests else digests)
            if args.update_digests and digest is not None:
                digests[spec_name(path)] = digest
            if not ok:
                failures.append(os.path.basename(path))
                if not args.keep_going:
                    break

    if failures:
        fail(f"{len(failures)} spec(s) failed: {', '.join(failures)}")
    names = {spec_name(p) for p in paths}
    if args.update_digests:
        if not args.only:
            digests = {n: d for n, d in digests.items() if n in names}
        write_digests(DIGESTS, digests)
        print(f"run_experiments: recorded {len(paths)} digest(s) in "
              f"{DIGESTS}")
    elif not args.only:
        stale = sorted(set(digests) - names)
        if stale:
            fail(f"digests recorded for specs that no longer exist: "
                 f"{', '.join(stale)} (run with --update-digests)")
    if not args.only:
        coverage(args.bench, paths)
    print(f"run_experiments: OK ({len(paths)} specs)")


if __name__ == "__main__":
    main()
