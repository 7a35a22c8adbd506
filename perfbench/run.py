#!/usr/bin/env python3
"""Builds and runs the mmdb benchmark (perfbench/) from a source checkout.

    python3 perfbench/run.py --workload scan-100k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the mmdb library and the mmdb_perfbench binary
from source (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload, and relays its output: the last stdout line is one JSON object
with "correct", "attempted", "failed" and "metrics". The exit code is
non-zero when the build fails or an answer is wrong.

--smoke runs every workload the benchmark has (LAYER_CHECKS: those of
BENCHMARK.json and scan-100k, which is run by hand only) at toy sizes,
untraced and traced, and checks that each output parses and names
exactly the metrics BENCHMARK.json lists, with their units, and that
each traced run shows the layer its workload was chosen for. It is the
benchmark's own test.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Every workload, with the layer it was chosen to exercise as a per-layer
# metric its traced smoke run must show: (metric, test, what the test
# requires). scan-100k is not in BENCHMARK.json (see README.md).
LAYER_CHECKS = {
    "scan-100k": ("scan.accepted_per_query", lambda v: v > 0, "> 0"),
    "serve-sharded": ("net.bytes_per_query", lambda v: v > 0, "> 0"),
    "ingest-disk": ("storage.pool_hit_ratio", lambda v: v < 1, "< 1"),
}


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures and builds mmdb_perfbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no mmdb sources next to perfbench/ (src/ is missing)",
              file=sys.stderr)
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "mmdb_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: build step failed: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(done.stdout[-4000:], file=sys.stderr)
            print(f"run.py: {' '.join(step)} failed", file=sys.stderr)
            return None
    binary = out / "mmdb_perfbench"
    return binary if binary.is_file() else None


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", str(build_dir())]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    listed = {workload["name"] for workload in spec["workloads"]}
    if not listed <= set(LAYER_CHECKS):
        print(f"smoke: BENCHMARK.json lists unknown workloads "
              f"{sorted(listed - set(LAYER_CHECKS))}")
        ok = False
    for workload, (name, test, wanted) in LAYER_CHECKS.items():
        for trace in (0, 1):
            code, text = run(binary, workload, 1, 2, trace, smoke=True)
            result = last_json(text)
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if result is None:
                problems.append("last line is not the result object")
            else:
                got = {name: m.get("unit") for name, m in
                       result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    wrong = sorted(n for n in set(got) & set(expected[trace])
                                   if got[n] != expected[trace][n])
                    problems.append(f"metrics missing {missing}, extra "
                                    f"{extra}, wrong unit {wrong}")
                if not result["correct"] or result["attempted"] < 1:
                    problems.append("run reports incorrect or empty")
                if trace == 1:
                    value = result["metrics"].get(name, {}).get("value")
                    if value is None or not test(value):
                        problems.append(f"{name} = {value}, expected {wanted}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    code, text = run(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    sys.stdout.write(text)
    sys.stdout.flush()
    if last_json(text) is None:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
