"""Summarise benchmark runs filed in .bench_out/ (see run.py).

    python3 bench/report.py [--seeds 101-110]

Prints, per workload, each end-to-end metric's median, quartiles and
spread (q3 - q1 over the median) across the untraced runs; pooled
latency percentiles and per-operation medians; and each layer's share
of operation time from the traced runs' spans, with the durations of
the operator applications and of every index-map build (cache misses)
found in them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from tracing import Tracer

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def _percentiles(lat):
    """p95 and p99 of sorted latencies, each only with at least ten
    samples beyond it."""
    cuts = statistics.quantiles(lat, n=100) if len(lat) >= 2 else []
    return {pct: cuts[pct - 1] for pct in (95, 99) if len(lat) * (100 - pct) / 100 >= 10}


def _ms(v):
    return f"{v * 1e3:.1f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default=None, help="inclusive range, e.g. 101-110")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-")) if args.seeds else (None, None)

    runs = defaultdict(list)
    for line in (OUT / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] or rec["smoke"] or (lo is not None and not lo <= rec["seed"] <= hi):
            continue
        runs[rec["workload"]].append(rec)

    for workload, recs in runs.items():
        print(f"## {workload}: {len(recs)} runs, seeds "
              f"{sorted(r['seed'] for r in recs)}, {recs[0]['seconds']:g} s each")
        print("| metric | median | q1 | q3 | spread |\n|---|---|---|---|---|")
        for name in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = _quartiles(vals)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in recs}
        print(f"failed/attempted per run: {sorted(shares)}")
        lat = sorted(dt for r in recs for _, _, dt in r["samples"])
        tails = "".join(f", p{pct} {_ms(v)} ms" for pct, v in _percentiles(lat).items())
        print(f"pooled latency: n = {len(lat)}, p50 {_ms(statistics.median(lat))} ms{tails}")
        by_kind = defaultdict(list)
        for r in recs:
            for _, kind, dt in r["samples"]:
                by_kind[kind].append(dt)
        print("| operation | n | p50 ms |\n|---|---|---|")
        for kind in sorted(by_kind):
            print(f"| {kind} | {len(by_kind[kind])} | "
                  f"{_ms(statistics.median(by_kind[kind]))} |")
        print()

    for path in sorted(p for p in OUT.glob("trace-*.json") if "smoke" not in p.name):
        tracer = Tracer()
        tracer.spans = json.loads(path.read_text())["spans"]
        self_s = tracer.self_times(skip_root="setup")
        spans = tracer.spans
        roots = [sid for sid, parent, *_ in spans if parent < 0]
        total = sum(spans[r][5] - spans[r][4] for r in roots if spans[r][3] != "setup")
        shares = ", ".join(f"{layer} {100 * v / total:.1f}%"
                           for layer, v in sorted(self_s.items(), key=lambda kv: -kv[1]))
        print(f"{path.name}: operation time {total:.3f} s; self-time shares: {shares}")
        # durations per (function, root span) in call order, leaving out
        # index-map cache hits
        by_name = defaultdict(list)
        root = []
        for sid, parent, _, name, start, end in spans:
            root.append(sid if parent < 0 else root[parent])
            by_name[(name, spans[root[sid]][3])].append(end - start)
        for (name, where), durs in sorted(by_name.items()):
            if name in ("truncated_riesz_apply", "maximal_apply") or \
                    (name == "annulus_index_map" and max(durs) >= 1e-3):
                print(f"  {name} under {where}: "
                      + ", ".join(_ms(d) for d in durs if d >= 1e-3) + " ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
