"""herzlab benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload norm-shear --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each run is one closed-loop client in
a single worker process (``worker.py``), started from a fresh
interpreter with native thread pools fixed to one thread.

--trace 0 prints the end-to-end metrics: ``ops_per_s``, ``op_p50_ms``,
``peak_rss_mb`` and ``setup_s``, the median over SETUPS fresh
interpreters of the wall time from process start to the first timed
operation.  --trace 1 prints the per-layer metrics of a traced run and
writes its spans to .bench_out/.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Each run also
appends its result and per-operation latencies to
.bench_out/results.jsonl, which ``report.py`` summarises.

--smoke shrinks every size so a run takes seconds; the benchmark's own
tests use it.  Exits 2 without a result when the library source is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("norm-shear", "operator-sweep", "dyadic-seq", "cli-cold")
SETUPS = 3


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (start to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []) + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.stdout.close()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "herzlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no herzlab source under {ROOT / 'src'}\n")
        return 2
    # Pin this process, and so every process it starts, to one CPU: on
    # the 2-vCPU test host a pinned loop varied about half as much as an
    # unpinned one that the scheduler moved between vCPUs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    try:
        proc, setup_s = _start(args, [])
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        samples = [json.loads(ln[len("SAMPLES "):]) for ln in lines
                   if ln.startswith("SAMPLES ")]
        if not args.trace:
            # set up again in fresh interpreters; the median steadies setup_s
            setups = [setup_s]
            for _ in range(SETUPS - 1):
                extra, s = _start(args, ["--setup-only"])
                extra.communicate()
                setups.append(s)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                            "unit": "s"}
    except (RuntimeError, ValueError, IndexError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "smoke": args.smoke, "result": result,
                             "samples": samples[0] if samples else []}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
