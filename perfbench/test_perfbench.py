"""Smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
workload runs at smoke scale (tiny inputs) at the default seed and at a
second seed, untraced and traced, and must print a well-formed, correct
result carrying exactly the metrics BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The gated workloads, and plan-offload, which runs but is not gated
#: (README.md, "Workloads").
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["plan-offload"]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("seed", [2000, 7])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace, seed):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_answer():
    answers = []
    for _ in range(2):
        proc = run_bench(
            ROOT, "--workload", "plan-paper", "--seed", "3", "--seconds", "0",
            "--scale", "smoke",
        )
        answers.append(json.loads(proc.stdout.strip().splitlines()[-2])["details"]["answer"])
    assert answers[0] == answers[1]


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
