"""Smoke test of the benchmark on tiny configs of each workload shape.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no run fails on the current program, and that the benchmark refuses
to run in a directory without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_GA = {"population": 6, "trials": 2, "hidden_units": 8, "generations": 1}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    *_, report_line, result_line = out.getvalue().splitlines()
    assert code == 0, report_line
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, cfg in run.WORKLOADS.items():
        tiny = dict(cfg, ga=TINY_GA)
        tiny["task_params"] = dict(cfg.get("task_params", {}), max_steps=20)
        monkeypatch.setitem(run.WORKLOADS, name, tiny)


def test_workloads_match_the_declaration():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace):
    report, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert report["failed_frac"] == 0.0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk-sharing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
