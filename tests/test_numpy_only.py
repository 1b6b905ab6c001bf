"""The CLI runs on numpy alone; its numpy replacements match scipy.

The package imports nothing from scipy on the CLI path (scipy stays a
dependency of the sturm_liouville model).  Each numpy replacement is
checked here against the scipy routine it stands for: bit for bit, except
the Simpson weights, whose sums run in another order.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.fft
import scipy.integrate

import fredstab
from fredstab import diagnostics, models, simulate
from fredstab.models import SturmLiouvilleProblem

_STAGES_SCRIPT = textwrap.dedent("""
    import json, os, sys
    import fredstab
    from fredstab.cli_io import main
    from fredstab.jsonio import write_json

    tmp = sys.argv[1]
    heat = {
        "model": {"kind": "heat_torus", "N": 16, "params": {}}, "N": 16,
        "lambda0": 2.5, "r_list": [0.0, 0.5],
        "scenarios": [
            {"name": "semigroup", "u0": {"kind": "random", "seed": 3},
             "t_end": 1.0, "samples": 8},
            {"name": "rk4", "u0": {"kind": "random", "seed": 4},
             "t_end": 0.01, "samples": 4, "dt": 1e-4, "integrator": "rk4"},
            {"name": "burgers", "u0": {"kind": "burgers_random", "seed": 5},
             "t_end": 0.01, "samples": 4, "dt": 1e-4, "nonlinear": True}],
        "sweep": {"lambda0": [2.2, 2.7], "N": [16]}}
    schrodinger = {
        "model": {"kind": "schrodinger_ground", "N": 16,
                  "params": {"points": 511}}, "N": 16,
        "lambda0": 2.0, "method": "both",
        "scenarios": [{"name": "linear", "u0": {"kind": "random", "seed": 6},
                       "t_end": 1.0, "samples": 8}],
        "sweep": {"lambda0": [1.5, 3.0], "N": [16]}}
    loaded = set(sys.modules)
    codes = []
    for name, doc in (("heat", heat), ("schrodinger", schrodinger)):
        cfg = os.path.join(tmp, name + ".json")
        write_json(cfg, dict(doc, output_dir=os.path.join(tmp, name)))
        for stage in ("synthesize", "verify", "simulate", "report", "sweep"):
            codes.append(main([stage, "--config", cfg, "--jobs", "1"]))
    print(json.dumps({
        "codes": codes,
        "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
        "late": sorted(m for m in set(sys.modules) - loaded
                       if m.split(".")[0] == "numpy"),
    }))
""")


def test_cli_stages_run_on_numpy_alone(tmp_path):
    """All five stages on heat and Schrodinger: no scipy, no lazy numpy load.

    numpy loads numpy.random, numpy.fft and numpy.ma on first use; a stage
    that is first to use one pays for its import in the stage's time.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(fredstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _STAGES_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 10
    assert result["scipy"] == []
    assert result["late"] == []


def test_next_fast_len_matches_scipy():
    got = [simulate._next_fast_len(n) for n in range(1, 20001)]
    want = [scipy.fft.next_fast_len(n, real=False) for n in range(1, 20001)]
    assert got == want


def _assert_simpson_weights_match_scipy(y, x):
    """sum(W * y) equals scipy's Simpson to 4 eps sum|W y|: same rule, other order."""
    wy = models._simpson_weights(x) * y
    got = np.sum(wy)
    want = scipy.integrate.simpson(y, x=x)
    assert abs(got - want) <= 4 * np.finfo(float).eps * np.sum(np.abs(wy))


@pytest.mark.parametrize("points", [2048, 2047, 600])
def test_simpson_weights_match_scipy_on_schrodinger_integrands(points):
    """Odd (2049, 601) and even (2048) sample counts, projection integrands."""
    x = np.linspace(0.0, 1.0, points + 1)
    mu = x ** 2
    phi1 = np.sqrt(2.0) * np.sin(np.pi * x)
    for k in (*range(1, 65), points // 2, points - 1):
        _assert_simpson_weights_match_scipy(
            mu * phi1 * np.sqrt(2.0) * np.sin(k * np.pi * x), x)


def test_simpson_weights_match_scipy_on_small_and_uneven_grids():
    rng = np.random.default_rng(11)
    for n in range(3, 12):
        x = np.cumsum(rng.uniform(0.1, 1.0, n))
        _assert_simpson_weights_match_scipy(rng.standard_normal(n), x)


def test_trapezoid_rules_match_scipy_on_sturm_liouville_grid():
    grid = 2000
    x = np.linspace(0.0, 1.0, grid + 1)
    problem = SturmLiouvilleProblem(a_values=1.0 + 0.5 * np.sin(3 * x) ** 2,
                                    b_values=np.zeros_like(x), L=1.0,
                                    c1=1.0, c2=0.0, c3=1.0, c4=0.0,
                                    grid_size=grid)
    y = 1.0 / np.sqrt(problem.a_values)
    got = models._cumulative_trapezoid(y, x)
    want = scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)
    assert got.tobytes() == want.tobytes()
    _, modes = models.sturm_liouville_model(problem, 8, 1.0 + x)
    for j in range(8):
        f = (1.0 + x) * modes.modes_x[:, j]
        assert (np.float64(np.trapezoid(f, x)).tobytes()
                == np.float64(scipy.integrate.trapezoid(f, x)).tobytes())


def test_sort_median_matches_np_median():
    rng = np.random.default_rng(5)
    for n in range(1, 201):
        d = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 3, n)
        if n > 3:
            d[: n // 3] = d[-1]          # ties
        got = diagnostics._median(d)
        assert np.float64(got).tobytes() == np.float64(np.median(d)).tobytes(), n
    assert np.isnan(diagnostics._median(np.array([1.0, np.nan, 2.0])))
