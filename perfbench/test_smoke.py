"""Smoke test of the benchmark itself: each workload, briefly.

Run from the root of the repository::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts made at layer boundaries: identical inputs must repeat them exactly
COUNTS = (
    "linalg.svd_calls_per_op",
    "linalg.eig_calls_per_op",
    "linalg.coerce_calls_per_op",
    "feasibility.check_calls_per_op",
    "solvers.bordering_svds_per_solve",
    "verify.audit_calls_per_solve",
)


def bench(workload, trace, seed=7, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, detail


def assert_emitted(result, specs):
    metrics = result["metrics"]
    assert set(metrics) == {s["name"] for s in specs}
    for s in specs:
        assert metrics[s["name"]]["unit"] == s["unit"], s["name"]
        assert isinstance(metrics[s["name"]]["value"], float), s["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_failed_share(workload):
    result, detail = bench(workload, trace=0)
    assert_emitted(result, SPEC["end_to_end"])
    share = result["failed"] / result["attempted"]
    assert detail["failed_share"] == pytest.approx(share)
    assert result["metrics"]["correct_share"]["value"] == pytest.approx(1.0 - share)
    assert result["correct"] == (result["failed"] == 0)
    assert len(detail["input_digest"]) == 16
    if workload == "small-mixed":
        # the c = 1e-6 infeasible slice runs apart from the timed operations
        probe = detail["scale_probe"]
        assert probe["attempted"] > 0
        assert probe["failed_share"] == pytest.approx(probe["failed"] / probe["attempted"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, d1 = bench(workload, trace=1)
    second, d2 = bench(workload, trace=1)
    assert_emitted(first, SPEC["per_layer"])
    # the same seed and number of rounds: the same bytes reach the library
    assert d1["input_digest"] == d2["input_digest"]
    assert d1["rounds"] == d2["rounds"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert d1["bordering_by_branch"] == d2["bordering_by_branch"]
    if workload in ("small-mixed", "bordered"):
        assert set(d1["bordering_by_branch"]) == {"|L|>|H|", "|L|<|H|"}


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    argv = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
