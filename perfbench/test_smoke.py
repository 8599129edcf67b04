"""Smoke test of the benchmark at tiny sizes: every workload, untraced and traced.

    python -m pytest perfbench/test_smoke.py

It shares ``.perfbench_out/`` with full runs, so do not run both at once.
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
WORKLOADS = ("landscape-10k", "smooth-curves", "tabular-cli")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke", "--seconds", "0"]
    argv += ["--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = bench(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    counts = [k for k, m in first["metrics"].items() if k.endswith("_calls")]
    counts += ["core.units_charged", "core.candidates_probed", "cli.files_written", "cli.bytes_written"]
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["instances.oracle_query_calls"]["value"] > 0
    assert first["metrics"]["core.units_charged"]["value"] > 0
    if workload == "tabular-cli":
        # 2 seeds x 7 algorithms of traces, summary, mean rank, epsilon.csv
        assert first["metrics"]["cli.files_written"]["value"] == 17


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "landscape-10k", "--seed", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
