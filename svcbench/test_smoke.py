"""Smoke self-test of the service benchmark.

Runs every workload for one second in both modes and checks the result
contract: every end-to-end metric named in ``BENCHMARK.json`` is printed
with its unit, every per-layer metric is emitted in traced mode, and no
item failed against the oracle.  Run from the root of a checkout::

    python3 -m pytest svcbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(metrics: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    metrics = _result(workload, 0)["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload: str) -> None:
    metrics = _result(workload, 1)["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: entry["value"] for name, entry in metrics.items()}
    if workload == "batch-unique":
        assert value["service.cache_hit_share"] == 0
    if workload == "check-repeat":
        assert 0.5 < value["service.cache_hit_share"] < 1
        assert value["service.cache_evictions_per_kdoc"] > 0
    if workload == "ring-schema-mix":
        assert value["ring.compiles"] == 6
    assert value["trace.overhead_ratio"] > 0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
