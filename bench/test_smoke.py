"""Smoke test of the benchmark harness at its tiny size.

Checks that every metric is emitted, by name and unit, for every workload in
both modes, and that the harness refuses to run without the program's sources.
It asserts no timing. Run it with ``python -m pytest bench/test_smoke.py``; it
is not part of the tier-1 suite under ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the harness runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ["lab-cli", "small-oracle", "many-seg"]

sys.path.insert(0, str(BENCH))
from run import END_TO_END, PER_LAYER  # noqa: E402

#: End-to-end metrics that only a workload with an exact oracle can report.
ORACLE_ONLY = {"exact_run_s", "ga_optimum_hit_rate"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))

    table = "\n".join(lines[:-1])
    printed = PER_LAYER if trace else END_TO_END
    for name in printed:
        if name in ORACLE_ONLY and workload != "small-oracle":
            continue
        assert f"\n{name} " in table, f"{name} missing from the {workload} table"
    if trace:
        assert "tracing overhead:" in table


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
