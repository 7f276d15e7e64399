#!/usr/bin/env python3
"""Host-performance benchmark of the Fork Path simulator.

Builds the hostbench binary from this checkout's sources, runs one
workload in its own process, checks the simulated outputs and prints
every metric by name and unit. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

    python3 hostbench/run.py --workload mac_dram --seed 1 --seconds 30 --trace 0

See hostbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mac_dram", "shards_net", "kv_sync")

# name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MB",
    "sim_exec_ms": "sim_ms",
    "oram_latency_ns": "sim_ns",
    "buckets_per_access": "buckets",
}

PROBES = {
    "util.event_queue.ns_per_event": "ns",
    "workload.core_model.ns_per_retry": "ns",
    "workload.core_model.retries_per_request": "count",
    "workload.setup_s": "s",
    "core.label_queue.select_ns": "ns",
    "oram.stash.evict_ns": "ns",
    "core.mac.insert_extract_ns": "ns",
    "mem.tree_store.read_bucket_ns": "ns",
    "mem.tree_store.write_bucket_ns": "ns",
    "crypto.seal_ns": "ns",
    "crypto.unseal_ns": "ns",
    "oram.integrity.update_slice_ns": "ns",
    "dram.transaction_ns": "ns",
    "mem.net.transaction_ns": "ns",
}

# Span name -> (per-layer metric, unit, scale from microseconds).
SPAN_METRICS = {
    "sim.build": ("sim.build_s", "s", 1e-6),
    "sim.run": ("sim.run_s", "s", 1e-6),
    "sim.result_json": ("sim.result_json_s", "s", 1e-6),
    "sim.teardown": ("sim.teardown_s", "s", 1e-6),
    "sim.sync_oram.read": ("sim.sync_oram.read_us", "us", 1.0),
    "sim.sync_oram.write": ("sim.sync_oram.write_us", "us", 1.0),
}

COUNTS = {
    "core.real_accesses": "count",
    "core.dummy_accesses": "count",
    "core.dummy_replacements": "count",
    "core.read_path_len": "buckets",
    "core.merged_levels_skipped": "count",
    "core.mac_hit_rate": "ratio",
    "core.mac_lookups": "count",
    "core.shard_window_rejects": "count",
    "core.shard_busy_rejects": "count",
    "oram.stash_peak": "blocks",
    "oram.stash_shortcuts": "count",
    "dram.row_hit_rate": "ratio",
    "dram.service_ns": "sim_ns",
    "dram.energy_uj": "uJ",
    "mem.backend_bytes_read": "bytes",
    "mem.backend_bytes_written": "bytes",
    "mem.backend_latency_ns": "sim_ns",
    "mem.tree_store.reads": "count",
    "mem.tree_store.writes": "count",
}

DERIVED = {
    "trace_overhead_pct": "%",
    "share.event_core_pct": "%",
    "share.tree_crypto_pct": "%",
    "share.integrity_pct": "%",
}

PER_LAYER = {
    **PROBES,
    **{metric: unit for metric, unit, _ in SPAN_METRICS.values()},
    **COUNTS,
    **DERIVED,
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# --- statistics --------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples):
    """Median and p99 of per-operation latencies, with the sample count
    and how many samples lie beyond the p99 value."""
    p99 = percentile(samples, 99)
    return {
        "n": len(samples),
        "p50": percentile(samples, 50),
        "p99": p99,
        "beyond_p99": sum(1 for v in samples if v > p99),
    }


def self_times(spans):
    """Per span name: (count, total us, self us). A span's self time
    is its duration minus what its child spans cover."""
    child_us = {}
    for s in spans:
        parent = s["parent"]
        if parent >= 0:
            child_us[parent] = child_us.get(parent, 0.0) + s["dur"]
    out = {}
    for s in spans:
        count, total, own = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (
            count + 1,
            total + s["dur"],
            own + s["dur"] - child_us.get(s["id"], 0.0),
        )
    return out


# --- correctness -------------------------------------------------------


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def check_passes(raw, reference):
    """Count attempted and failed operations over every pass.

    A pass fails as a whole when it failed, hit its tick limit, did not
    complete every request, or produced a digest that differs from the
    first pass (the simulator is deterministic) or, at the reference
    seed, from the committed reference. Each read that differs from
    the mirror map fails on its own. Returns (attempted, failed,
    problems)."""
    passes = raw["passes"]
    expected = None
    if raw["seed"] == reference["seed"]:
        expected = reference["digests"].get(raw["workload"])
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += p["expected_ops"]
        why = []
        if p["failed"]:
            why.append("simulation failed")
        if p["hit_tick_limit"]:
            why.append("hit the tick limit")
        if p["ops"] != p["expected_ops"]:
            why.append("completed %d of %d requests"
                       % (p["ops"], p["expected_ops"]))
        if p["digest"] != passes[0]["digest"]:
            why.append("digest %s differs from pass 0" % p["digest"])
        if expected is not None and p["digest"] != expected:
            why.append("digest %s differs from reference %s"
                       % (p["digest"], expected))
        if why:
            failed += p["expected_ops"]
            problems.append("pass %d: %s" % (i, "; ".join(why)))
        elif p["mismatches"]:
            failed += p["mismatches"]
            problems.append("pass %d: %d reads differ from the mirror"
                            % (i, p["mismatches"]))
    return attempted, failed, problems


# --- metrics -----------------------------------------------------------


def timed_indices(raw):
    """Indices of the untraced passes after the first, which warms the
    process up (and feeds the layer probes); of all untraced ones if
    there is no other."""
    idx = [i for i, p in enumerate(raw["passes"]) if not p["traced"]]
    return idx[1:] if len(idx) > 1 else idx


def timed(raw):
    return [raw["passes"][i] for i in timed_indices(raw)]


def op_latencies(raw):
    """Host latency of each operation: the median, over the timed
    passes, of that operation's samples.

    Every pass makes the same samples in the same order (the simulator
    is deterministic, so the SyncOram calls and the simulated-time
    slices repeat), so sample i of each pass times the same work. The
    median per operation drops a disturbance of the host that hits one
    pass only; what stays in the tail is work that is slow in every
    pass."""
    chunks = []
    at = 0
    for p in raw["passes"]:
        chunks.append(raw["op_us"][at:at + p["op_samples"]])
        at += p["op_samples"]
    if at != len(raw["op_us"]):
        raise BenchError("passes hold %d latency samples, op_us has %d"
                         % (at, len(raw["op_us"])))
    samples = [chunks[i] for i in timed_indices(raw)]
    counts = sorted({len(s) for s in samples})
    if len(counts) != 1 or counts[0] == 0:
        raise BenchError("timed passes made different numbers of latency "
                         "samples: %s" % counts)
    return [statistics.median(column) for column in zip(*samples)]


def end_to_end_metrics(raw):
    passes = timed(raw)
    lat = latency_summary(op_latencies(raw))
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["run_s"]
                                       for p in passes),
        "op_p50_us": lat["p50"],
        "op_p99_us": lat["p99"],
        "peak_rss_mb": raw["peak_rss_mb"],
        **raw["sim"],
    }
    return {k: {"value": values[k], "unit": u}
            for k, u in END_TO_END.items()}


def per_layer_metrics(raw, spans):
    probes = raw["probes"]
    counts = raw["counts"]
    values = dict(probes)
    values.update(counts)

    # Span durations of the traced passes (the pass-level spans) and of
    # the SyncOram calls, traced passes or probe alike.
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["dur"])
    for span, (metric, _, scale) in SPAN_METRICS.items():
        if span not in by_name:
            raise BenchError("no '%s' spans were recorded" % span)
        values[metric] = statistics.median(by_name[span]) * scale

    plain = timed(raw)
    traced = [p for p in raw["passes"] if p["traced"]]
    wall_plain = statistics.median(p["wall_s"] for p in plain)
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    values["trace_overhead_pct"] = (wall_traced / wall_plain - 1) * 100

    # Estimated shares of the run phase: the cost of one operation,
    # measured alone, times how often the pass performed it.
    run_ns = statistics.median(p["run_s"] for p in plain) * 1e9
    polls = (probes["workload.core_model.retries_per_request"]
             * plain[0]["ops"])
    values["share.event_core_pct"] = (
        polls * probes["workload.core_model.ns_per_retry"] / run_ns * 100)
    values["share.tree_crypto_pct"] = (
        counts["mem.tree_store.reads"]
        * probes["mem.tree_store.read_bucket_ns"]
        + counts["mem.tree_store.writes"]
        * probes["mem.tree_store.write_bucket_ns"]) / run_ns * 100
    # With integrity on, each access verifies the slice it read and
    # updates the slice it wrote back; both rehash the same path.
    accesses = counts["core.real_accesses"] + counts["core.dummy_accesses"]
    slices = 2 * accesses if raw["integrity"] else 0
    values["share.integrity_pct"] = (
        slices * probes["oram.integrity.update_slice_ns"] / run_ns * 100)
    return {k: {"value": values[k], "unit": u}
            for k, u in PER_LAYER.items()}


# --- build and run -----------------------------------------------------


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under %s"
                         % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out_dir, "--target", "hostbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(out_dir, "hostbench")


def run_workload(exe, out_dir, args):
    raw_path = os.path.join(out_dir, "raw-%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    spans_path = os.path.join(out_dir, "spans-%s-%d.json"
                              % (args.workload, args.seed))
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + raw_path]
    if args.trace:
        cmd.append("--spans-out=" + spans_path)
    for path in (raw_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    try:
        # The last pass may overrun --seconds by one pass (about 5 s).
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        raise BenchError("hostbench did not finish in time")
    if proc.returncode:
        raise BenchError("hostbench exited with %d" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    spans = []
    if args.trace:
        with open(spans_path) as f:
            for ev in json.load(f)["traceEvents"]:
                spans.append({"name": ev["name"], "dur": ev["dur"],
                              "id": ev["args"]["id"],
                              "parent": ev["args"]["parent"]})
    return raw, spans


def print_report(raw, metrics, attempted, failed, problems, spans):
    out = sys.stdout
    out.write("hostbench %s seed=%d trace=%d: %d passes (%d traced)\n"
              % (raw["workload"], raw["seed"], raw["trace"],
                 len(raw["passes"]),
                 sum(1 for p in raw["passes"] if p["traced"])))
    out.write("digest %s (reference seed %d)\n"
              % (raw["passes"][0]["digest"], load_reference()["seed"]))
    lat = latency_summary(op_latencies(raw))
    out.write("op latency: %d operations, each the median of %d passes; "
              "%d beyond p99\n"
              % (lat["n"], len(timed_indices(raw)), lat["beyond_p99"]))
    out.write("error_rate %.6g (%d failed of %d attempted)\n"
              % (failed / attempted, failed, attempted))
    for line in problems:
        out.write("FAIL " + line + "\n")
    for name, m in metrics.items():
        out.write("%-42s %16.6g %s\n" % (name, m["value"], m["unit"]))
    if spans:
        out.write("%-30s %8s %14s %14s\n"
                  % ("span", "count", "total_us", "self_us"))
        for name, (count, total, own) in sorted(self_times(spans).items()):
            out.write("%-30s %8d %14.1f %14.1f\n"
                      % (name, count, total, own))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        out_dir = os.path.join(ROOT, ".bench_build", "hostbench")
        exe = build(out_dir)
        raw, spans = run_workload(exe, out_dir, args)
        attempted, failed, problems = check_passes(raw, load_reference())
        if args.trace:
            metrics = per_layer_metrics(raw, spans)
        else:
            metrics = end_to_end_metrics(raw)
    except BenchError as e:
        sys.stderr.write("hostbench: %s\n" % e)
        return 1
    print_report(raw, metrics, attempted, failed, problems, spans)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
