"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def results_file(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".bench_build" / "perfbench" / "results" / (
        f"{workload}-seed{seed}-trace{trace}.json")
    return json.loads(path.read_text())


def check_result(proc, result, names):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run(workload):
    proc, result = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "1", "--size", "tiny")
    check_result(proc, result, [m["name"] for m in SPEC["per_layer"]])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["ldpc.make_code.misses_in_ops"]["value"] == 0
    record = results_file(workload, 5, 1)
    assert record["spans"] and record["self_time_table"]
    assert all(o["digests"] for o in record["ops"])


def test_untraced_runs_repeat_digests():
    digests = []
    for _ in range(2):
        proc, result = bench("--workload", "recorded", "--seed", "5", "--seconds",
                             "1", "--trace", "0", "--size", "tiny")
        check_result(proc, result, [m["name"] for m in SPEC["end_to_end"]])
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(m["value"] > 0 for m in result["metrics"].values())
        ops = results_file("recorded", 5, 0)["ops"]
        digests.append({o["kind"]: o["digests"] for o in ops})
    assert len(digests[0]) == 4  # two tiny recordings x two formats
    assert digests[0] == digests[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
