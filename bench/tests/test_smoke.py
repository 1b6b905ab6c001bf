"""Tiny-N smoke run of every benchmark workload, outside the tier-1 suite.

Run from the repository root:  python3 -m pytest -q bench/tests
Each case runs bench/run.py itself (fresh worker interpreters, real CLI
stages, output checks) at small N and checks the printed result.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=BENCH.parent):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(spans.GROUPS) | set(spans.CATCH_ALL.values()) <= layer_names
    assert "trace.overhead_share" in layer_names


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if trace:
        assert result["metrics"]["linalg.factor_calls"]["value"] > 0
        assert result["metrics"]["transform.build_calls"]["value"] > 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_same_seed_same_config(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.make_config(name, 3, str(tmp_path))
        assert first == workloads.make_config(name, 3, str(tmp_path))
        assert first != workloads.make_config(name, 4, str(tmp_path))


def test_gain_check_flags_a_wrong_law():
    system = {"branches": [{"i": 1, "eigenvalues": [[-1.0, 0.0], [-4.0, 0.0]]}]}
    ev = np.array([-1.0, -4.0])
    C = 1.0 / (ev[None, :] - ev[:, None] + 1.0)
    x = np.linalg.solve(C, np.ones(2))
    law = {"lambda": 1.0, "branches": [{"i": 1, "products_x": [[v, 0.0] for v in x]}]}
    assert checks.normalization_defect(system, law) < 1e-12
    law["branches"][0]["products_x"][0][0] += 1e-6
    assert checks.normalization_defect(system, law) > 1e-8


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark files: exit nonzero, print no result."""
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline-heat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
