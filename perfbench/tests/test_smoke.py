"""A short run of every workload, end to end, and the refusal to run
without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)],
)
def test_workload_runs_and_checks_its_outputs(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        tmp_path, "--workload", "serve", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
