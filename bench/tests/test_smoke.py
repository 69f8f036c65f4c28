"""End-to-end checks of the benchmark itself, in smoke mode (tiny sizes).

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ["norm-shear", "operator-sweep", "dyadic-seq", "cli-cold"]
END_TO_END = {"ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s"}


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seconds", "1", "--smoke",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_and_reports(workload):
    res = _result("--workload", workload, "--seed", "3", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    if workload == "norm-shear":
        # four extreme-scale requests in a smoke round of 32 fail every time
        assert res["failed"] * 8 == res["attempted"]
    else:
        assert res["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res = _result("--workload", workload, "--seed", "3", "--trace", "1")
    assert res["correct"] is True
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    assert units == _declared("per_layer")


def test_traced_counts_repeat_for_a_seed():
    runs = [_result("--workload", "norm-shear", "--seed", "5", "--trace", "1")
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["varlebesgue.solves"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "dyadic-seq", "--seed", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
