#!/usr/bin/env python3
"""Render an ASCII dashboard from profiler / bench JSON (stdlib only).

Accepts any of the three profile-bearing documents the simulator
produces and auto-detects which one it was given:

  - a full profile report written by --profile-out
    (schema "forkpath-profile-v1"),
  - a RunResult JSON containing a "profile" block
    (a run with --profile-requests),
  - a smoke-bench document written by fp_bench smoke --out
    (schema "forkpath-bench-smoke-v1"; renders every point).

    tools/report.py BENCH_smoke.json
    tools/report.py run.profile.json --out dashboard.txt

The dashboard shows the per-stage latency table (count, mean, p50,
p95, p99, p99.9, max) and the fork-path effectiveness table with the
derived savings against a naive Path ORAM doing 2*L bucket transfers
per access. --out additionally writes the text to a file (CI
artifact); stdout always gets a copy.
"""

import argparse
import json
import sys


def fail(msg):
    sys.exit(f"report: FAIL: {msg}")


def table(title, header, rows):
    """Left-aligned first column, right-aligned numbers."""
    widths = [len(h) for h in header]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [f"== {title} =="]
    out.append("  ".join(h.ljust(w) if i == 0 else h.rjust(w)
                         for i, (h, w) in enumerate(zip(header,
                                                        widths))))
    out.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in srows:
        out.append("  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                             for i, (c, w) in enumerate(zip(row,
                                                            widths))))
    out.append("")
    return "\n".join(out)


def fmt(v, digits=1):
    if isinstance(v, float):
        return f"{v:.{digits}f}"
    return str(v)


def render_stages(stages):
    rows = [[s["stage"], s["count"], fmt(s["mean_ns"]),
             fmt(s["p50_ns"]), fmt(s["p95_ns"]), fmt(s["p99_ns"]),
             fmt(s["p999_ns"]), fmt(s["max_ns"])]
            for s in stages]
    return table("per-stage latency (ns)",
                 ["stage", "count", "mean", "p50", "p95", "p99",
                  "p99.9", "max"], rows)


def render_effectiveness(eff):
    naive = eff["naive_path_buckets"]
    rows = [
        ["total accesses", eff["total_accesses"], ""],
        ["merged accesses", eff["merged_accesses"],
         pct(eff["merged_accesses"], eff["total_accesses"])],
        ["read levels skipped", eff["read_levels_skipped"], ""],
        ["write levels elided", eff["write_levels_elided"], ""],
        ["writebacks replaced", eff["writebacks_replaced"], ""],
        ["pending swaps", eff["pending_swaps"], ""],
        ["on-chip bucket reads", eff["onchip_bucket_reads"], ""],
        ["MAC data hits", eff["mac_data_hits"], ""],
        ["cache victim writes", eff["cache_victim_writes"], ""],
        ["stash shortcuts", eff["stash_shortcuts"], ""],
        ["naive path buckets", naive, "baseline"],
        ["backend buckets", eff["backend_buckets"],
         pct(eff["backend_buckets"], naive)],
        ["buckets saved", eff["buckets_saved"],
         pct(eff["buckets_saved"], naive)],
        ["bytes saved", eff["bytes_saved"],
         f"@ {eff['bucket_bytes']} B/bucket"],
    ]
    return table("fork-path effectiveness vs naive Path ORAM",
                 ["counter", "value", "share"], rows)


def pct(num, den):
    return f"{100.0 * num / den:.1f}%" if den else "n/a"


def render_profile(title, completed, stages, eff, open_requests=None):
    out = [f"### {title}"]
    out.append(f"completed requests: {completed}" +
               ("" if open_requests is None
                else f" (open at end: {open_requests})"))
    out.append("")
    out.append(render_stages(stages))
    out.append(render_effectiveness(eff))
    return "\n".join(out)


def render_run_result(name, result):
    prof = result.get("profile")
    if prof is None:
        fail(f"point '{name}' has no \"profile\" block (was the run "
             f"made with --profile-requests?)")
    head = (f"exec_ticks={result['execution_ticks']}  "
            f"llc_ns={fmt(result['avg_llc_latency_ns'])}  "
            f"path_len={fmt(result['avg_read_path_len'], 2)}  "
            f"real={result['real_accesses']}  "
            f"dummy={result['dummy_accesses']}")
    # Spec-driven runs stamp their provenance (fp_bench / wrappers).
    if "spec_name" in result:
        head += (f"\nspec={result['spec_name']}"
                 f"  spec_hash={result.get('spec_hash', '?')}")
    body = render_profile(name, prof["completed_requests"],
                          prof["stages"], prof["effectiveness"])
    return body.replace(f"### {name}\n", f"### {name}\n{head}\n", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input", help="profile / RunResult / bench JSON")
    ap.add_argument("--out", help="also write the dashboard here")
    args = ap.parse_args()

    try:
        with open(args.input) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read '{args.input}': {e}")

    schema = doc.get("schema")
    if schema == "forkpath-profile-v1":
        text = render_profile(args.input, doc["completed_requests"],
                              doc["stages"], doc["effectiveness"],
                              doc.get("open_requests"))
    elif schema == "forkpath-bench-smoke-v1":
        text = "\n".join(render_run_result(p["name"], p["result"])
                         for p in doc["points"])
    elif "profile" in doc:
        text = render_run_result(args.input, doc)
    else:
        fail(f"'{args.input}': not a profile report, a profiled "
             f"RunResult, or a bench-smoke document")

    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"report: wrote {args.out}")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        sys.exit(0)  # e.g. `report.py ... | head`
