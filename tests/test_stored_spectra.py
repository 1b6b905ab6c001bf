"""Stored spectral data through every CLI stage.

The config side is fuzzed in test_cli.py; here the system itself is drawn:
one or two branches of up to 16 modes, growth orders in (1, 3], real,
imaginary and complex spectra, near-collisions, and |b| from 1e-150 to
1e150.  Each system is stored as system.json and run through synthesize,
verify, simulate, report and sweep.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fredstab import errors
from fredstab.jsonio import write_json
from fredstab.spectral_core import SpectralBranch, SpectralSystem, system_to_json

from conftest import run_stage

STAGES = (("synthesize",), ("verify",), ("simulate",), ("report",), ("sweep", "--jobs", "1"))


@st.composite
def stored_systems(draw):
    """A SpectralSystem of 1-2 branches, N <= 16, with a drawn spectrum and scale of b."""
    branches = []
    for index in range(1, draw(st.integers(1, 2)) + 1):
        N = draw(st.integers(1, 16))
        alpha = draw(st.floats(1.0, 3.0, exclude_min=True))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        n = np.arange(1, N + 1, dtype=float)
        kind = draw(st.sampled_from(["real", "imaginary", "complex"]))
        eigenvalues = {"real": -n ** alpha + 0j, "imaginary": -1j * n ** alpha,
                       "complex": -n ** alpha + 1j * rng.uniform(-1.0, 1.0, N) * n}[kind]
        if N > 1 and draw(st.booleans()):
            j = draw(st.integers(0, N - 2))
            gap = draw(st.sampled_from([1e-12, 1e-8, 1e-4]))
            eigenvalues[j + 1] = eigenvalues[j] * (1.0 + gap)
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, N)) if draw(st.booleans()) else 1.0
        scale = 10.0 ** draw(st.integers(-150, 150))
        b = scale * rng.uniform(0.5, 2.0, N) * phase
        branches.append(SpectralBranch(index, eigenvalues, b, alpha=alpha))
    return SpectralSystem(branches=tuple(branches), label="stored")


def _documented_code(name: str) -> int:
    """The exit code cli_io documents for an error type named in the stderr JSON."""
    error = getattr(errors, name, None)
    return error.exit_code if isinstance(error, type) else 1


@given(system=stored_systems(), lambda0=st.sampled_from([1.0, 2.5, 8.0]),
       method=st.sampled_from(["direct", "both"]))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_every_stage_exits_cleanly_on_stored_spectra(system, lambda0, method):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_json(tmp / "system.json", system_to_json(system))
        write_json(tmp / "config.json", {
            "model": {"path": str(tmp / "system.json")}, "lambda0": lambda0,
            "method": method, "output_dir": str(tmp / "out"),
            "scenarios": [{"name": "lin", "u0": {"kind": "random", "seed": 0},
                           "t_end": 1.0, "samples": 8}],
            "sweep": {"lambda0": [lambda0]}})
        codes = {}
        for stage, *extra in STAGES:
            code, err, caught = run_stage(stage, "--config", str(tmp / "config.json"), *extra)
            assert caught == [], (stage, caught)
            if code == 0:
                assert err == "", stage
            else:
                assert len(err.splitlines()) == 1, (stage, err)
                assert code == _documented_code(json.loads(err)["error"]), (stage, err)
            codes[stage] = code
        if codes["synthesize"] == codes["sweep"] == 0:
            # a sweep point certifies as synthesize does at the same lambda0 and N
            doc = json.loads((tmp / "out" / "transform.json").read_text())
            with open(tmp / "out" / "sweep.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            for key in ("tb_residual", "opeq_residual"):
                assert float(row[key]) == max(bd[key] for bd in doc["branches"]), key
