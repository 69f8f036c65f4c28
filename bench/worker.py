"""One benchmark process: set up a workload, run it, check it, report.

Started by ``run.py`` from a fresh interpreter.  It prints ``READY`` the
moment set-up is over (``run.py`` times set-up from its own clock), then,
unless ``--setup-only``, runs whole rounds and prints one JSON line.

Untraced (``--trace 0``): rounds run until ``--seconds`` have passed and
at least ``min_rounds`` are done; each operation is timed alone.
Traced (``--trace 1``): a fixed number of rounds runs untraced, then the
same number again with spans recorded, so counts repeat exactly for a
seed and the difference in operation time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _log(msg: str) -> None:
    sys.stderr.write(f"[bench] {msg}\n")


class Tally:
    """Outcome of a set of rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # failed operations other than the extreme ones
        self.busy = 0.0         # summed latency of every attempted operation
        self.latencies = []     # of operations that passed
        self.samples = []       # (round, kind, seconds) of operations that passed
        self.rounds = []        # (operations passed, summed latency) per round
        self.reported = set()

    def fail(self, op, exc) -> None:
        self.failed += 1
        self.wrong += not op.extreme
        if op.kind not in self.reported:
            self.reported.add(op.kind)
            _log(f"{'expected ' if op.extreme else ''}failure in {op.kind}: "
                 f"{type(exc).__name__}: {exc}")


def run_rounds(wl, first: int, tally: Tally, done, call=None) -> int:
    """Run whole rounds from round ``first`` until done(rounds run)."""
    r = first
    while True:
        c = wl.scales(r)
        passed0, busy0 = len(tally.latencies), tally.busy
        for op in wl.ops:
            args = op.prepare(c)
            t0 = time.perf_counter()
            try:
                out = call(op, args) if call else op.run(*args)
            except Exception as exc:  # a failing operation is counted, not fatal
                tally.busy += time.perf_counter() - t0
                tally.attempted += 1
                tally.fail(op, exc)
                continue
            dt = time.perf_counter() - t0
            tally.busy += dt
            tally.attempted += 1
            try:
                op.check(c, args, out)
            except Exception as exc:
                tally.fail(op, exc)
                continue
            tally.latencies.append(dt)
            tally.samples.append((r, op.kind, dt))
        tally.rounds.append((len(tally.latencies) - passed0, tally.busy - busy0))
        r += 1
        if done(r - first):
            return r


def verify(wl, tally: Tally) -> None:
    """Deep checks of each operation's first output, after timing ends."""
    for op in wl.ops:
        try:
            op.verify()
        except Exception as exc:
            tally.fail(op, exc)


def timed(wl, seconds: float, spawner) -> tuple[Tally, dict]:
    tally = Tally()
    start = time.perf_counter()
    run_rounds(wl, 0, tally,
               lambda n: n >= wl.min_rounds and time.perf_counter() - start >= seconds)
    peak_kb = spawner.peak_kb if spawner else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kb / 1024.0
    verify(wl, tally)
    # the median over rounds shrugs off a burst of host load in one round
    rate = statistics.median(passed / busy for passed, busy in tally.rounds)
    metrics = {
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(tally.latencies) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return tally, metrics


def traced(wl, tracer, args, import_s: float) -> tuple[Tally, dict]:
    import tracing

    setup_counts = Counter(tracer.counts)
    tally = Tally()
    rounds = wl.trace_rounds
    nxt = run_rounds(wl, 0, tally, lambda n: n >= rounds)
    busy_plain = tally.busy

    tracing.install(tracer)
    is_cli = wl.cli_prefix is not None
    spans_dir = OUT / f"spans-{os.getpid()}"
    if is_cli:
        # spans come from the CLI processes, started through clitrace.py
        spans_dir.mkdir(parents=True, exist_ok=True)
        wl.cli_prefix[:] = [sys.executable, str(Path(__file__).with_name("clitrace.py")),
                            str(spans_dir)]
        call = None
    else:
        call = lambda op, op_args: tracer.op(op.kind, op.run, *op_args)  # noqa: E731
    run_rounds(wl, nxt, tally, lambda n: n >= rounds, call)
    busy_traced = tally.busy - busy_plain

    if is_cli:
        import_s = 0.0
        for path in sorted(spans_dir.glob("*.json")):
            data = json.loads(path.read_text())
            tracer.merge(data["spans"], data["counts"])
            import_s += data["import_s"]
            path.unlink()
        spans_dir.rmdir()
    verify(wl, tally)

    OUT.mkdir(exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}{smoke}.json")
    self_s = tracer.self_times(skip_root="setup")
    metrics = {}
    for layer in ("dilation", "varlebesgue", "grandseq", "herz", "operators"):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for name in tracing.COUNTERS:
        metrics[name] = (tracer.counts[name] - setup_counts[name], "count")
    metrics["operators.conv_s"] = (self_s.get("conv", 0.0), "s")
    # cli-cold: imports inside the timed CLI runs; otherwise this process's
    metrics["cli.import_s"] = (import_s, "s")
    metrics["grid.csv_load_s"] = (self_s.get("csv_load", 0.0), "s")
    metrics["grid.csv_save_s"] = (self_s.get("csv_save", 0.0), "s")
    attributed = sum(v for k, v in self_s.items() if k != "op") + (import_s if is_cli else 0.0)
    metrics["setup.dilation_s"] = (
        tracer.self_times().get("dilation", 0.0) - self_s.get("dilation", 0.0), "s")
    metrics["trace.op_s"] = (busy_traced, "s")
    metrics["trace.untraced_op_s"] = (busy_plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (busy_traced / busy_plain - 1.0), "%")
    metrics["trace.unattributed_pct"] = (100.0 * (1.0 - attributed / busy_traced), "%")
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # cli-cold's children are measured from a process started while
    # this one is still small
    spawner = Spawner() if args.workload == "cli-cold" else None
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import herzlab  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t0
    import workloads

    workdir = OUT / f"run-{os.getpid()}"
    extra = {"spawner": spawner} if spawner else {}
    build = functools.partial(workloads.WORKLOADS[args.workload], args.seed, args.smoke,
                              workdir, **extra)
    if args.trace:
        # set-up is traced as its own tree, then the wrappers come off so
        # the untraced pass runs the bare library
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        wl = tracer.op("setup", build)
        restore()
    else:
        wl = build()
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        if args.trace:
            tally, metrics = traced(wl, tracer, args, import_s)
        else:
            tally, metrics = timed(wl, args.seconds, spawner)
    finally:
        wl.cleanup()
        if spawner:
            spawner.close()
    # per-operation latencies for bench/report.py; run.py files them away
    print("SAMPLES " + json.dumps(tally.samples))
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
