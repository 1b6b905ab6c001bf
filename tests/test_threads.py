"""Artifacts do not depend on the BLAS thread count.

Every stage of a heat and of a Schrodinger config runs once with
OPENBLAS_NUM_THREADS=1 and once with 2, one fresh process per model and
thread count, and every artifact must have the same bytes.  OpenBLAS splits
a dot over threads above 10 000 elements, so a reduction over all of an
N x N array at N = 128 can change its bits.  On a one-core host OpenBLAS
may run one thread either way: the test then passes and proves nothing.
"""

import json
import os
import subprocess
import sys

import fredstab
from fredstab.jsonio import write_json

STAGES = ("synthesize", "verify", "simulate", "report", "sweep")

_RUN_STAGES = """
import sys
from fredstab.cli_io import main
for stage in {stages!r}:
    if main([stage, "--config", sys.argv[1]] + (["--jobs", "1"] if stage == "sweep" else [])):
        sys.exit(f"{{stage}} failed")
"""


def _config(kind, method):
    scenarios = [{"name": "lin", "u0": {"kind": "random", "seed": 0}, "t_end": 1.0,
                  "samples": 16}]
    if kind == "heat_torus":
        scenarios += [
            {"name": "rk4", "u0": {"kind": "random", "seed": 1}, "t_end": 0.01,
             "samples": 4, "dt": 1e-4, "integrator": "rk4"},
            {"name": "semi", "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": 2},
             "t_end": 0.01, "samples": 4, "dt": 1e-3, "nonlinear": True}]
    return {"model": {"kind": kind, "N": 128, "params": {}}, "N": 128, "lambda0": 2.5,
            "delta": 0.25, "method": method, "r_list": [0.0, 0.5], "scenarios": scenarios,
            "sweep": {"lambda0": [2.0, 3.0]}, "output_dir": "out"}


def _artifacts(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_artifacts_same_at_one_and_two_blas_threads(tmp_path):
    src = os.path.dirname(os.path.dirname(fredstab.__file__))
    code = _RUN_STAGES.format(stages=STAGES)
    runs = {}
    for kind, method in (("heat_torus", "direct"), ("schrodinger_ground", "both")):
        for threads in ("1", "2"):
            # one config document, so one config_hash: each run has its own cwd
            cwd = tmp_path / f"{kind}-{threads}"
            cwd.mkdir()
            write_json(cwd / "config.json", _config(kind, method))
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            runs[kind, threads] = (cwd / "out", subprocess.Popen(
                [sys.executable, "-c", code, "config.json"], cwd=cwd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for (kind, threads), (_, proc) in runs.items():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (kind, threads, err.decode())
    for kind in ("heat_torus", "schrodinger_ground"):
        one, two = _artifacts(runs[kind, "1"][0]), _artifacts(runs[kind, "2"][0])
        assert {"transform.json", "report.json", "sweep.csv"} <= set(one)
        assert sorted(one) == sorted(two)
        differ = [name for name in sorted(one) if one[name] != two[name]]
        assert not differ, (kind, differ)
        assert json.loads(one["transform.json"])["branches"][0]["N"] == 128
