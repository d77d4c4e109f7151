#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 e2ebench/e2e_compare.py A.jsonl B.jsonl
    python3 e2ebench/e2e_compare.py --selftest

Each file holds the metric lines of several runs (one JSON object per
line: workload, metric, value, unit, n), as bench_e2e prints them on
stdout and run.py copies them to stderr; other lines are skipped.  For every workload x
metric it prints each set's median and quartiles (statistics.quantiles,
n=4) and the spread, (q3 - q1) / median.  For the end-to-end metrics,
which carry a bound, it gives a verdict on B against A:

  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  a set's spread exceeds the bound, unless every run of B
              reads better than every run of A
  ok          otherwise

Exit status 1 if any metric regressed, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): [values]} from bench_e2e metric lines."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict) and "metric" in rec:
            runs[(rec["workload"], rec["metric"])].append(float(rec["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    worse = mb < ma * (1 - bound) if better == "higher" else mb > ma * (1 + bound)
    if worse:
        return "REGRESSION"
    all_better = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def compare(a_runs, b_runs, bench, out=sys.stdout):
    """Prints the table; returns {(workload, metric): verdict} for bounded metrics."""
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    verdicts = {}
    print(f"{'workload':16} {'metric':34} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'sprA':>6} {'sprB':>6}  verdict",
          file=out)
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, metric = key
        a, b = a_runs[key], b_runs[key]
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        v = ""
        if metric in bounded:
            m = bounded[metric]
            v = verdict(a, b, m["better"], m["bound"])
            verdicts[key] = v
        print(f"{workload:16} {metric:34} "
              f"{fmt(qa):>30} {fmt(qb):>30} {change:+8.1%} "
              f"{spread(a):6.1%} {spread(b):6.1%}  {v}", file=out)
    return verdicts


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def selftest():
    bench = {"end_to_end": [
        {"name": "tput", "unit": "Mpps", "better": "higher", "bound": 0.2},
        {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1}]}
    base = [10.0, 10.2, 9.9, 10.1, 10.0]

    def runs(tput, lat):
        r = defaultdict(list)
        r[("w", "tput")] = tput
        r[("w", "lat")] = lat
        return r

    class Null:
        def write(self, _):
            pass

    cases = [
        ("identical", runs(base, base), runs(base, base),
         {"tput": "ok", "lat": "ok"}),
        ("regressed", runs(base, base),
         runs([x * 0.7 for x in base], [x * 1.3 for x in base]),
         {"tput": "REGRESSION", "lat": "REGRESSION"}),
        ("noisy", runs([6, 10, 14, 8, 12], base), runs([6, 10, 14, 8, 12], base),
         {"tput": "unresolved", "lat": "ok"}),
        ("noisy but all better", runs([6, 7, 8, 9, 8], base),
         runs([10, 14, 18, 12, 16], [x * 0.5 for x in base]),
         {"tput": "ok", "lat": "ok"}),
    ]
    failures = 0
    for name, a, b, want in cases:
        got = {k[1]: v for k, v in compare(a, b, bench, out=Null()).items()}
        if got != want:
            failures += 1
            print(f"selftest {name}: got {got}, want {want}")
    print("selftest passed" if failures == 0 else f"selftest: {failures} failed")
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    verdicts = compare(load(argv[1]), load(argv[2]), bench)
    return 1 if "REGRESSION" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
