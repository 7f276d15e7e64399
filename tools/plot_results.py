#!/usr/bin/env python3
"""Plot the figure benches' --csv output, or interval-stats series.

Each bench prints one or more CSV tables when run with --csv; pipe a
bench into a file and point this script at it to get matplotlib
figures mirroring the paper's:

    ./build/bench/fp_bench fig12 --csv > fig12.csv
    tools/plot_results.py fig12.csv -o fig12.png

The script is deliberately generic: the first column is treated as
the category axis, every following numeric column becomes a series.
Files containing several blank-line-separated tables produce one
subplot per table.

With --stats the input is instead the JSON-lines file written by the
--stats-out flag (see docs/OBSERVABILITY.md) and the output is a
time-series view of the run — stash occupancy, label-queue depth and
per-channel DRAM queue depth over simulated time:

    ./build/bench/fp_bench fig10 --quick --stats-out run.jsonl
    tools/plot_results.py --stats run.jsonl -o run.png

Use --fields to plot a custom comma-separated set of stat keys.
"""

import argparse
import csv
import io
import json
import sys

# Default --stats panels: (title, y label, key predicate).
STATS_PANELS = [
    ("Stash occupancy", "blocks",
     lambda k: k == "oram_controller.stash_depth"),
    ("Queue depth", "entries",
     lambda k: k in ("oram_controller.label_queue_total",
                     "oram_controller.label_queue_real",
                     "oram_controller.addr_queue_depth")),
    ("DRAM channel queue depth", "transactions",
     lambda k: k.startswith("dram.ch") and k.endswith(".queue_depth")),
]


def split_tables(text):
    """Split concatenated CSV tables on blank lines."""
    blocks, current = [], []
    for line in text.splitlines():
        if line.strip() == "":
            if current:
                blocks.append("\n".join(current))
                current = []
        else:
            current.append(line)
    if current:
        blocks.append("\n".join(current))
    return blocks


def parse_table(block):
    rows = list(csv.reader(io.StringIO(block)))
    if len(rows) < 2:
        return None
    header, body = rows[0], rows[1:]
    numeric_cols = []
    for ci in range(1, len(header)):
        try:
            for row in body:
                float(row[ci])
            numeric_cols.append(ci)
        except (ValueError, IndexError):
            continue
    if not numeric_cols:
        return None
    return {
        "x": [row[0] for row in body],
        "series": {
            header[ci]: [float(row[ci]) for row in body]
            for ci in numeric_cols
        },
    }


def load_stats(path):
    """Read a --stats-out JSON-lines file into {key: [values]}."""
    ticks, series = [], {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            ticks.append(obj["tick"])
            for key, value in obj.items():
                if key == "tick" or not isinstance(value, (int, float)):
                    continue
                series.setdefault(key, []).append(value)
    if not ticks:
        sys.exit(f"{path}: no samples")
    # Drop series that missed a sample so every line spans the x axis.
    series = {k: v for k, v in series.items() if len(v) == len(ticks)}
    return ticks, series


def plot_stats(args, plt):
    ticks, series = load_stats(args.csv_file)
    us = [t / 1e6 for t in ticks]  # 1 tick = 1 ps

    if args.fields:
        wanted = [f.strip() for f in args.fields.split(",")]
        missing = [f for f in wanted if f not in series]
        if missing:
            sys.exit(f"unknown stat keys: {missing}; "
                     f"available: {sorted(series)}")
        panels = [(", ".join(wanted), "", lambda k: k in wanted)]
    else:
        panels = STATS_PANELS

    panels = [(t, yl, p) for t, yl, p in panels
              if any(p(k) for k in series)]
    if not panels:
        sys.exit("no matching series in stats file")

    fig, axes = plt.subplots(len(panels), 1,
                             figsize=(9, 3 * len(panels)),
                             sharex=True, squeeze=False)
    for ax, (title, ylabel, pred) in zip(axes.flat, panels):
        for key in sorted(k for k in series if pred(k)):
            ax.plot(us, series[key], label=key, linewidth=1)
        ax.set_title(title, fontsize=10)
        ax.set_ylabel(ylabel)
        ax.legend(fontsize=8)
        ax.grid(alpha=0.3)
    axes.flat[-1].set_xlabel("simulated time (us)")
    if args.title:
        fig.suptitle(args.title)
    fig.tight_layout()

    out = args.output or args.csv_file.rsplit(".", 1)[0] + ".png"
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv_file",
                    help="bench --csv output, or with --stats an "
                         "interval-stats JSON-lines file")
    ap.add_argument("-o", "--output", default=None,
                    help="output image (default: <input>.png)")
    ap.add_argument("--kind", choices=["bar", "line"],
                    default="bar")
    ap.add_argument("--title", default=None)
    ap.add_argument("--stats", action="store_true",
                    help="treat input as --stats-out JSON lines and "
                         "plot time series")
    ap.add_argument("--fields", default=None,
                    help="with --stats: comma-separated stat keys to "
                         "plot instead of the default panels")
    args = ap.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    if args.stats:
        plot_stats(args, plt)
        return

    with open(args.csv_file) as f:
        text = f.read()

    tables = [t for t in map(parse_table, split_tables(text)) if t]
    if not tables:
        sys.exit("no parsable CSV tables found")

    fig, axes = plt.subplots(len(tables), 1,
                             figsize=(9, 4 * len(tables)),
                             squeeze=False)
    for ax, table in zip(axes.flat, tables):
        x = range(len(table["x"]))
        n = len(table["series"])
        width = 0.8 / max(n, 1)
        for i, (name, ys) in enumerate(table["series"].items()):
            if args.kind == "bar":
                ax.bar([xi + i * width for xi in x], ys,
                       width=width, label=name)
            else:
                ax.plot(list(x), ys, marker="o", label=name)
        ax.set_xticks([xi + 0.4 - width / 2 for xi in x]
                      if args.kind == "bar" else list(x))
        ax.set_xticklabels(table["x"], rotation=30, ha="right")
        ax.legend(fontsize=8)
        ax.grid(axis="y", alpha=0.3)
    if args.title:
        fig.suptitle(args.title)
    fig.tight_layout()

    out = args.output or args.csv_file.rsplit(".", 1)[0] + ".png"
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
