#!/usr/bin/env python3
"""Diff two bench JSON runs and flag regressions.

Usage: bench_diff.py BASELINE CURRENT [--fail-under PCT] [--micro-fail-over PCT]

Both files are JSON-lines.  Two record shapes are understood:

* {"name": ..., "gbps": ..., "mpps": ...} — throughput rows (written by
  bench_fig11_throughput and appended to by bench_netchain).  Rows fall
  into two classes:
    - fig11*  — deterministic timing-model sweeps.  These must match the
      baseline almost exactly (1% tolerance for float formatting); any
      drift means the timing model changed and the baseline must be
      regenerated deliberately.
    - everything else (functional_*, netchain_*) — wall-clock
      measurements of the batched engine.  These vary with the host, so
      only a large drop (default 35%) against the committed baseline is
      flagged.

* {"name": ..., "ns_per_op": ...} — match-path micro costs (written by
  bench_pipeline_micro into BENCH_micro.json).  Lower is better; a row
  is flagged when ns/op grew by more than --micro-fail-over percent
  (default 80% — wide enough for shared-runner noise, tight enough to
  catch an accidental return to the linear scan, which is 3-4x).

Exit code 1 if any regression is flagged.  New rows are reported but not
fatal (they accompany intentional bench additions); a baseline row
MISSING from the candidate run is fatal — a silently dropped bench would
otherwise exempt itself from the gate — so intentional removals must
regenerate the committed baseline.

--list prints a side-by-side baseline-vs-current table for every row
(including unchanged and new/removed ones) and always exits 0 — the
inspection mode for deciding whether a baseline regeneration is
justified, e.g. when CI uploads the bench JSONs of a failed gate.

--summary prints a compact percent-change table (every common row, one
line each) followed by derived gap ratios: the ingress multi-producer
gap (each ingress_96B_4prod_* row as a percentage of the
single-dispatcher ingress_96B_1disp row) and the streaming-vs-batched
gap (each stream_* row as a multiple of the best functional_batched_96B
row), each in both the baseline and the current run.  Always exits 0;
CI runs it before the gates so the known gaps are visible on every PR
instead of buried in raw JSON.

When the candidate run contains stream_* rows, two additional
within-run acceptance gates apply (host-consistent, so they hold on
slow shared runners too): the best stream_* row must reach >= 1.5x the
best functional_batched_96B row, and stream_96B_4core_4prod must beat
ingress_96B_1disp.  These pin the run-to-completion streaming path's
advantage over the batched engine.

When the candidate run contains the micro_telemetry_off /
micro_telemetry_overhead pair, a third within-run gate applies:
overhead (histograms on) must stay <= 1.02x off — the telemetry
subsystem's <= 2% hot-path cost guarantee.

When both runs carry an fc_share field on the stream_96B_zipf row, the
candidate's flow-cache tier share must not fall more than 2 points
below the committed baseline share: an engine change that silently
pushes zipf traffic off the memoization tier fails even if raw Mpps
survives on a fast host.
"""

import argparse
import json
import sys


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            rows[row["name"]] = row
    return rows


def metric(row):
    """(value, unit) of a row's primary metric; ns/op rows are
    lower-is-better, mpps rows higher-is-better."""
    if "ns_per_op" in row:
        return row["ns_per_op"], "ns/op"
    return row["mpps"], "Mpps"


def summary(base, cur):
    """Percent-change table over common rows, then derived gap ratios."""
    common = [n for n in sorted(base) if n in cur]
    if common:
        width = max(len(n) for n in common)
        print("percent change vs committed baseline "
              "(ns/op lower is better, Mpps higher is better):")
        for name in common:
            bv, unit = metric(base[name])
            cv, _ = metric(cur[name])
            delta = (cv - bv) / bv * 100 if bv > 0 else 0.0
            print(f"  {name:<{width}}  {bv:>10.3f} -> {cv:>10.3f} {unit:<5}"
                  f" ({delta:+6.1f}%)")
    # Known perf gap (see README "Known perf gaps"): the multi-producer
    # ingress rows vs the single-dispatcher row, from the same run each.
    for label, rows in (("baseline", base), ("current", cur)):
        ref = rows.get("ingress_96B_1disp")
        if ref is None or ref.get("mpps", 0) <= 0:
            continue
        gaps = [n for n in sorted(rows) if n.startswith("ingress_96B_4prod")]
        if not gaps:
            continue
        print(f"ingress multi-producer gap ({label}, % of ingress_96B_1disp "
              f"= {ref['mpps']:.3f} Mpps):")
        for name in gaps:
            pct = rows[name]["mpps"] / ref["mpps"] * 100
            print(f"  {name}: {rows[name]['mpps']:.3f} Mpps ({pct:.1f}%)")
    # Streaming vs batched: each stream_* row as a multiple of the best
    # batched functional row — the run-to-completion path's headline.
    for label, rows in (("baseline", base), ("current", cur)):
        streams = [n for n in sorted(rows) if n.startswith("stream_")]
        batched = best_batched(rows)
        if not streams or batched is None:
            continue
        bname, bmpps = batched
        print(f"streaming vs batched ({label}, x of best "
              f"functional_batched_96B row {bname} = {bmpps:.3f} Mpps):")
        for name in streams:
            ratio = rows[name]["mpps"] / bmpps
            print(f"  {name}: {rows[name]['mpps']:.3f} Mpps ({ratio:.2f}x)")
    # Known perf gap: multi-threaded batched rows that run SLOWER than
    # their single-thread sibling of the same frame size (fork/join
    # overhead beats the parallelism at large frames on few cores).
    # Named here so the gap stays visible on every PR instead of hiding
    # inside the raw percent table.
    for label, rows in (("baseline", base), ("current", cur)):
        gap_lines = []
        for name in sorted(rows):
            if not (name.startswith("functional_batched_")
                    and name.endswith("_mt")):
                continue
            prefix = name.rsplit("_", 2)[0]  # functional_batched_<size>
            sibs = [r for n, r in rows.items()
                    if n.startswith(prefix) and not n.endswith("_mt")
                    and r.get("mpps", 0) > 0]
            if not sibs or rows[name].get("mpps", 0) <= 0:
                continue
            best_sib = max(sibs, key=lambda r: r["mpps"])
            if rows[name]["mpps"] < best_sib["mpps"]:
                pct = rows[name]["mpps"] / best_sib["mpps"] * 100
                gap_lines.append(
                    f"  {name}: {rows[name].get('gbps', 0):.1f} Gbps vs "
                    f"{best_sib['name']} {best_sib.get('gbps', 0):.1f} Gbps "
                    f"({pct:.1f}% of single-thread)")
        if gap_lines:
            print(f"mt-vs-single-thread gap ({label}, mt rows slower than "
                  f"their single-thread sibling):")
            for line in gap_lines:
                print(line)
    return 0


def best_batched(rows):
    """(name, mpps) of the fastest functional_batched_96B row, or None."""
    best = None
    for name, row in rows.items():
        if not name.startswith("functional_batched_96B"):
            continue
        if row.get("mpps", 0) <= 0:
            continue
        if best is None or row["mpps"] > best[1]:
            best = (name, row["mpps"])
    return best


def stream_gates(cur):
    """Streaming acceptance gates, evaluated within the candidate run
    (host-consistent: both sides measured on the same machine).  Only
    active when the run produced stream_* rows, so the gate cannot be
    dodged by dropping them once a baseline contains any (the
    missing-row check above already makes that fatal).

    * the best stream_* row must be >= 1.5x the best batched
      functional_batched_96B row — the run-to-completion path must beat
      the batched engine by a real margin, not round-off;
    * stream_96B_4core_4prod must beat the single-dispatcher batched
      baseline ingress_96B_1disp — multi-producer streaming may not
      regress below the old synchronous front-end.
    """
    failures = []
    streams = {n: r for n, r in cur.items() if n.startswith("stream_")}
    if not streams:
        return failures
    batched = best_batched(cur)
    if batched is not None:
        bname, bmpps = batched
        best_stream = max(streams.values(), key=lambda r: r.get("mpps", 0))
        ratio = best_stream.get("mpps", 0) / bmpps
        marker = " " if ratio >= 1.5 else "!"
        print(f"  [{marker}] streaming/batched: {best_stream['name']} "
              f"{best_stream['mpps']:.3f} Mpps vs {bname} {bmpps:.3f} Mpps "
              f"({ratio:.2f}x, need >= 1.50x)")
        if ratio < 1.5:
            failures.append(("stream-vs-batched ratio", (ratio - 1.5) * 100))
    four = cur.get("stream_96B_4core_4prod")
    disp = cur.get("ingress_96B_1disp")
    if four is not None and disp is not None and disp.get("mpps", 0) > 0:
        delta = (four["mpps"] - disp["mpps"]) / disp["mpps"] * 100
        marker = " " if four["mpps"] > disp["mpps"] else "!"
        print(f"  [{marker}] stream_96B_4core_4prod {four['mpps']:.3f} Mpps "
              f"vs ingress_96B_1disp {disp['mpps']:.3f} Mpps "
              f"({delta:+.1f}%, must be positive)")
        if four["mpps"] <= disp["mpps"]:
            failures.append(("stream 4prod vs 1disp", delta))
    return failures


def telemetry_gate(cur):
    """Telemetry-overhead acceptance gate, evaluated within the
    candidate run (host-consistent): micro_telemetry_overhead (latency
    histograms on, the default dataplane config) must stay within 2% of
    micro_telemetry_off (histograms and sampling off — no timestamp on
    the hot path at all).  This is the README's <= 2% observability
    overhead guarantee.  Only active when the run produced both rows;
    dropping them is already fatal via the missing-baseline-row check.
    """
    failures = []
    off = cur.get("micro_telemetry_off")
    on = cur.get("micro_telemetry_overhead")
    if off is None or on is None:
        return failures
    if off.get("ns_per_op", 0) <= 0:
        return failures
    ratio = on["ns_per_op"] / off["ns_per_op"]
    marker = " " if ratio <= 1.02 else "!"
    print(f"  [{marker}] telemetry overhead: {on['ns_per_op']:.2f} ns/pkt on "
          f"vs {off['ns_per_op']:.2f} ns/pkt off "
          f"({ratio:.3f}x, need <= 1.02x)")
    if ratio > 1.02:
        failures.append(("telemetry overhead ratio", (ratio - 1.0) * 100))
    return failures


def fc_share_gate(base, cur):
    """Ladder-tier mix gate on the zipf streaming row: the flow-cache
    tier share (fc_share = flow-cache hits / streamed packets, emitted
    by bench_ingress) must not drop more than 2 points below the
    committed baseline share.  Cross-run but host-independent — the
    share is a counter ratio, not a wall-clock measurement.
    """
    failures = []
    name = "stream_96B_zipf_1core_1prod"
    b, c = base.get(name), cur.get(name)
    if b is None or c is None:
        return failures
    if "fc_share" not in b or "fc_share" not in c:
        return failures
    floor = b["fc_share"] - 0.02
    marker = " " if c["fc_share"] >= floor else "!"
    print(f"  [{marker}] zipf flow-cache tier share: {c['fc_share']:.3f} vs "
          f"baseline {b['fc_share']:.3f} (need >= {floor:.3f})")
    if c["fc_share"] < floor:
        failures.append(("zipf flow-cache tier share",
                         (c["fc_share"] - b["fc_share"]) * 100))
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--fail-under", type=float, default=35.0,
                    help="flag functional throughput rows that lost more "
                         "than PCT throughput (default: 35)")
    ap.add_argument("--sim-tolerance", type=float, default=1.0,
                    help="allowed drift for simulated fig11 rows in PCT "
                         "(default: 1)")
    ap.add_argument("--micro-fail-over", type=float, default=80.0,
                    help="flag micro rows whose ns/op grew by more than "
                         "PCT (default: 80)")
    ap.add_argument("--list", action="store_true",
                    help="print baseline vs current for every row and "
                         "exit 0 (no gating)")
    ap.add_argument("--summary", action="store_true",
                    help="print a percent-change table plus derived gap "
                         "ratios (ingress 4prod vs 1disp) and exit 0")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    if args.summary:
        return summary(base, cur)

    if args.list:
        def fmt(row):
            if row is None:
                return "-"
            if "ns_per_op" in row:
                return f"{row['ns_per_op']:.2f} ns/op"
            return f"{row['mpps']:.3f} Mpps ({row.get('gbps', 0):.3f} Gbps)"

        width = max((len(n) for n in set(base) | set(cur)), default=4)
        print(f"{'row':<{width}}  {'baseline':>24}  {'current':>24}")
        for name in sorted(set(base) | set(cur)):
            b, c = base.get(name), cur.get(name)
            note = ""
            if b is None:
                note = "  [new]"
            elif c is None:
                note = "  [gone]"
            elif "ns_per_op" in b and "ns_per_op" in c and b["ns_per_op"] > 0:
                delta = (c["ns_per_op"] - b["ns_per_op"]) / b["ns_per_op"] * 100
                note = f"  ({delta:+.1f}%)"
            elif "mpps" in b and "mpps" in c and b["mpps"] > 0:
                delta = (c["mpps"] - b["mpps"]) / b["mpps"] * 100
                note = f"  ({delta:+.1f}%)"
            print(f"{name:<{width}}  {fmt(b):>24}  {fmt(c):>24}{note}")
        return 0

    regressions = []
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            # A baseline row the candidate run no longer produces is a
            # gate failure, not a note: a silently dropped bench (renamed
            # row, bench that stopped emitting, crashed suite section)
            # would otherwise exempt itself from the gate forever.
            # Intentional removals must regenerate the baseline.
            print(f"  [!] {name}: present in baseline but missing from "
                  f"the candidate run")
            regressions.append((name, None))
            continue
        if "ns_per_op" in b:
            # Micro row: wall-clock ns/op, lower is better.
            if "ns_per_op" not in c:
                print(f"  [?] {name}: row shape changed "
                      f"(baseline ns_per_op, current lacks it)")
                continue
            if b["ns_per_op"] <= 0:
                print(f"  [?] {name}: non-positive baseline ns/op, skipped")
                continue
            delta_pct = ((c["ns_per_op"] - b["ns_per_op"])
                         / b["ns_per_op"] * 100.0)
            flagged = delta_pct > args.micro_fail_over
            marker = "!" if flagged else " "
            if flagged:
                regressions.append((name, delta_pct))
            print(f"  [{marker}] {name}: {b['ns_per_op']:.1f} -> "
                  f"{c['ns_per_op']:.1f} ns/op ({delta_pct:+.1f}%)")
            continue
        if b["mpps"] <= 0:
            continue
        delta_pct = (c["mpps"] - b["mpps"]) / b["mpps"] * 100.0
        simulated = name.startswith("fig11")
        # Simulated rows are deterministic: drift in EITHER direction
        # means the timing model changed and the baseline must be
        # regenerated deliberately.  Functional rows are wall-clock and
        # only fail on a large drop.
        flagged = (abs(delta_pct) > args.sim_tolerance if simulated
                   else delta_pct < -args.fail_under)
        marker = " "
        if flagged:
            marker = "!"
            regressions.append((name, delta_pct))
        print(f"  [{marker}] {name}: {b['mpps']:.3f} -> {c['mpps']:.3f} Mpps "
              f"({delta_pct:+.1f}%)")
    for name in sorted(set(cur) - set(base)):
        row = cur[name]
        if "ns_per_op" in row:
            print(f"  [new] {name}: {row['ns_per_op']:.1f} ns/op")
        else:
            print(f"  [new] {name}: {row['mpps']:.3f} Mpps")

    regressions.extend(stream_gates(cur))
    regressions.extend(telemetry_gate(cur))
    regressions.extend(fc_share_gate(base, cur))

    if regressions:
        print("\nperf regressions against the committed baseline:")
        for name, delta in regressions:
            if delta is None:
                print(f"  {name}: missing from candidate run")
            else:
                print(f"  {name}: {delta:+.1f}%")
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
