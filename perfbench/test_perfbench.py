"""Smoke tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench -q
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from noneq import cli, sde  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from noneq.model import QuadraticPotential  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_reduced_size(workload):
    forward, grad = sde.simulate_forward, QuadraticPotential.grad
    result = run.measure(workload, run.DEFAULT_SEED, 0.0, trace=True)

    # every check passes, reruns included
    assert result["attempted"] > 0 and result["failed"] == 0

    # exactly the metrics BENCHMARK.json lists are measured, and all are reported
    for group, trace in (("end_to_end", False), ("per_layer", True)):
        names = [m["name"] for m in BENCH[group]]
        assert sorted(result[group]) == sorted(names)
        assert list(run._report(result, trace)["metrics"]) == names

    # children lie inside their parent and never cover more than it
    spans = [json.loads(line) for line in (ROOT / result["span_file"]).read_text().splitlines()]
    assert spans and {s["workload"] for s in spans} == {workload}
    covered = {}
    for pos, s in enumerate(spans):
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = spans[pos - s["id"] + s["parent"]]
            assert parent["pass"] == s["pass"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            key = (s["pass"], s["parent"])
            covered[key] = covered.get(key, 0.0) + s["end"] - s["start"]
    for s in spans:
        assert s["end"] - s["start"] - covered.get((s["pass"], s["id"]), 0.0) >= 0.0

    # the wrappers are gone again, from the home module and from importers
    assert sde.simulate_forward is forward
    assert cli.simulate_forward is forward
    assert QuadraticPotential.grad is grad


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
