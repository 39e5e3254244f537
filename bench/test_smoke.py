"""Smoke test of the benchmark harness at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric declared in BENCHMARK.json is emitted with its
unit, that the outputs pass their checks, and that the benchmark refuses to
run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def declared(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared(trace)
    values = [m["value"] for m in metrics.values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert {"python", "nproc", "cpu", "loadavg", "commit", "seed", "why"} <= set(record)


def test_all_runs_every_workload():
    proc = bench("--workload", "all", "--seed", "1", "--seconds", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{name}" for w in WORKLOADS for name in declared(0)}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
