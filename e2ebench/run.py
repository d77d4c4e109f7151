#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds bench_e2e from this checkout's sources (into $CARGO_TARGET_DIR,
default .bench_build), runs one workload, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  BENCHMARK.json is the one declaration of
the metric names and units; a metric bench_e2e did not print, or printed
in another unit, is an error.  Build output, bench_e2e's diagnostics and
all of its metric lines (the input of e2e_compare.py) go to stderr; trace
files are written into the build directory.

Exit status 0 after printing a result; 1 without one (build failed, the
workload could not be set up, or its output was malformed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    # Configured every time: cheap once cached, and a failed configure is
    # not left behind for the next run to trip over.
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
         "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "bench_e2e"


def result(lines, workload, declared):
    """The contract line from bench_e2e's JSON lines, or None if malformed."""
    metrics, summary = {}, None
    for line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("workload") != workload:
            continue
        if "metric" in rec:
            metrics[rec["metric"]] = rec
        elif "correct" in rec:
            summary = rec
    if summary is None:
        print("run.py: bench_e2e printed no summary", file=sys.stderr)
        return None
    out = {}
    for m in declared:
        rec = metrics.get(m["name"])
        if rec is None or rec["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} ({m['unit']}) missing or in "
                  "another unit", file=sys.stderr)
            return None
        out[m["name"]] = {"value": rec["value"], "unit": rec["unit"]}
    return {"correct": bool(summary["correct"]),
            "attempted": int(summary["attempted"]),
            "failed": int(summary["failed"]),
            "metrics": out}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        exe = build(build_dir.resolve())
        cmd = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds)]
        if args.trace:
            cmd.append("--trace")
        proc = subprocess.run(cmd, cwd=exe.parent, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stdout)  # every metric line, for e2e_compare.py
    if proc.returncode not in (0, 1):  # 2: the workload could not be set up
        print(f"run.py: bench_e2e exited {proc.returncode}", file=sys.stderr)
        return 1
    declared = bench["per_layer" if args.trace else "end_to_end"]
    res = result(proc.stdout.splitlines(), args.workload, declared)
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
