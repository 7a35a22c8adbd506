#!/usr/bin/env python3
"""Compares two committed perfbench result sets, run by run.

    python3 tools/bench_compare.py BASE.jsonl NEW.jsonl

Each file holds one perfbench workload's runs for one side: a header
line ({"header": {...}}: commit, build type, nproc, CPU model, the
command) and then, one per line, the last JSON line each run printed
({"correct", "attempted", "failed", "metrics"}). Run i of BASE and run i
of NEW form pair i; alternate the sides while measuring so each pair
shares the machine's state.

Per metric the script prints both medians, the change of the median,
each side's IQR/median (the spread a single run has), and how many pairs
NEW won, judged by the metric's direction in BENCHMARK.json ("better":
"lower" or "higher"). It then prints each side's failed share. It uses
only the standard library.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Returns (header, runs) of a result file."""
    header, runs = {}, []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            sys.exit(f"{path}:{number}: {error}")
        if "header" in record:
            header = record["header"]
        else:
            runs.append(record)
    if not runs:
        sys.exit(f"{path}: no runs")
    return header, runs


def directions(benchmark_json):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    spec = json.loads(Path(benchmark_json).read_text())
    return {metric["name"]: metric["better"]
            for group in ("end_to_end", "per_layer")
            for metric in spec.get(group, [])}


def spread(values):
    """IQR over median; 0 for fewer than two values or a zero median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median)


def describe(header):
    keys = ("commit", "build_type", "nproc", "cpu")
    return ", ".join(f"{key} {header[key]}" for key in keys if key in header)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="where the metric directions are read from")
    args = parser.parse_args()

    base_header, base = load(args.base)
    new_header, new = load(args.new)
    better = directions(args.benchmark)
    pairs = min(len(base), len(new))
    print(f"base: {len(base)} runs ({describe(base_header)})")
    print(f"new:  {len(new)} runs ({describe(new_header)})")
    if len(base) != len(new):
        print(f"only the first {pairs} runs of each side form pairs")

    names = [name for name in base[0]["metrics"] if name in new[0]["metrics"]]
    rows = [("metric", "unit", "base p50", "new p50", "change",
             "base IQR/p50", "new IQR/p50", "new won")]
    for name in names:
        a = [run["metrics"][name]["value"] for run in base]
        b = [run["metrics"][name]["value"] for run in new]
        a_med, b_med = statistics.median(a), statistics.median(b)
        change = (b_med - a_med) / abs(a_med) if a_med else 0.0
        direction = better.get(name)
        if direction == "lower":
            won = sum(y < x for x, y in zip(a[:pairs], b[:pairs]))
        elif direction == "higher":
            won = sum(y > x for x, y in zip(a[:pairs], b[:pairs]))
        else:
            won = None
        rows.append((name, base[0]["metrics"][name].get("unit", ""),
                     f"{a_med:.4g}", f"{b_med:.4g}", f"{change:+.1%}",
                     f"{spread(a):.3f}", f"{spread(b):.3f}",
                     "-" if won is None else f"{won}/{pairs}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) if i < 2 else cell.rjust(width)
                        for i, (cell, width) in enumerate(zip(row, widths))))

    for label, runs in (("base", base), ("new", new)):
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        wrong = sum(not run["correct"] for run in runs)
        share = failed / attempted if attempted else 0.0
        print(f"{label}: {failed} of {attempted} operations failed "
              f"({share:.2%}); {wrong} runs reported a wrong answer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
