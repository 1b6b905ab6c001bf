"""Benchmark workloads: seeded fredstab CLI configs.

Every workload runs all five CLI stages, because every end-to-end metric
must have a value on every workload; the sizes decide which path carries
the weight.
The seed produces the config document and the program sees only that
document.  Inputs are chosen so that no operation fails at the parent
commit (for example, no gribov shift at lambda0 = 8, where the fixed-point
route diverges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

STAGES = ("synthesize", "verify", "simulate", "report", "sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, bool], dict]
    sweep_jobs: int       # --jobs for the sweep stage, before the core cap


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One draw per equal sub-interval, so every seed covers [lo, hi] alike."""
    width = (hi - lo) / count
    return [round(lo + (k + rng.random()) * width, 6) for k in range(count)]


def _heat(N: int, scenarios: list, tiny: bool, rng: random.Random,
          r_list=(0.0,)) -> dict:
    # The sweep is a side stage here: four serial points (sweep_jobs=1).
    # With two threads the same points took longer and their times spread
    # about twice as wide on a 2-core host.
    return {
        "model": {"kind": "heat_torus", "N": N, "params": {}},
        "N": N,
        "lambda0": 2.5,
        "delta": 0.25,
        "method": "direct",
        "r_list": list(r_list),
        "scenarios": scenarios,
        "sweep": {"lambda0": _stratified(rng, 2.0, 3.0, 4), "N": [16 if tiny else 192]},
    }


def pipeline_heat(rng: random.Random, tiny: bool) -> dict:
    # The paper's flagship model on the full user path: canonical JSON of
    # the N x N transform and the O(N^3) certificates share the time.
    N = 24 if tiny else 320
    scenarios = [
        {"name": "linear", "u0": {"kind": "random", "seed": _seed(rng)},
         "t_end": 6.0, "samples": 64, "integrator": "semigroup_exact"},
        {"name": "burgers",
         "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": _seed(rng)},
         "t_end": 1.0, "samples": 50, "dt": 2.5e-4,
         "nonlinear": True},
    ]
    return _heat(N, scenarios, tiny, rng)


def sweep_schrodinger(rng: random.Random, tiny: bool) -> dict:
    # Purely imaginary spectrum, method "both" (direct plus the fixed-point
    # route) and dense linear algebra at the sweep's largest N; the sweep
    # writes only sweep.csv, so JSON artifact work is small here.
    N = 16 if tiny else 384
    return {
        "model": {"kind": "schrodinger_ground", "N": N, "params": {}},
        "N": N,
        "lambda0": _stratified(rng, 1.0, 4.0, 1)[0],
        "delta": 0.25,
        "method": "both",
        "r_list": [0.0],
        "scenarios": [
            {"name": "linear", "u0": {"kind": "random", "seed": _seed(rng)},
             "t_end": 6.0, "samples": 64, "integrator": "semigroup_exact"},
        ],
        "sweep": {"lambda0": _stratified(rng, 1.0, 4.0, 2 if tiny else 4),
                  "N": [16] if tiny else [256, 512]},
    }


def simulate_heat(rng: random.Random, tiny: bool) -> dict:
    # Time stepping, the per-sample lu_solve loop and the CSV writer carry
    # the time; synthesis, certificates and JSON are small at N = 256.
    # 1024 semigroup samples on [0, 6], 4000 RK4 steps, 10k IMEX steps.
    N = 16 if tiny else 256
    scenarios = [
        {"name": "semigroup", "u0": {"kind": "random", "seed": _seed(rng)},
         "t_end": 6.0, "samples": 16 if tiny else 1024,
         "integrator": "semigroup_exact"},
        {"name": "rk4", "u0": {"kind": "random", "seed": _seed(rng)},
         "t_end": 0.01 if tiny else 0.1, "samples": 16, "dt": 2.5e-5,
         "integrator": "rk4"},
        {"name": "burgers",
         "u0": {"kind": "burgers_random", "l2": 1e-3, "seed": _seed(rng)},
         "t_end": 0.1 if tiny else 1.0, "samples": 100, "dt": 1e-4,
         "nonlinear": True},
    ]
    return _heat(N, scenarios, tiny, rng, r_list=(0.0, 0.5))


WORKLOADS = {
    w.name: w for w in (
        Workload("pipeline-heat",
                 "heat torus N=320 through all stages: canonical transform.json "
                 "IO and O(N^3) certificates share the time (the paper's flagship)",
                 pipeline_heat, sweep_jobs=1),
        Workload("sweep-schrodinger",
                 "purely imaginary spectrum, sweep over N in {256, 512} x 4 "
                 "lambda0 with direct plus fixed-point gains; no large JSON",
                 sweep_schrodinger, sweep_jobs=2),
        Workload("simulate-heat",
                 "heat torus N=256, 1024 semigroup samples, RK4 and 10k IMEX-Burgers "
                 "steps: time stepping, per-sample solves and the CSV writer dominate",
                 simulate_heat, sweep_jobs=1),
    )
}


def make_config(workload: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """The config document for one workload and seed (same seed, same inputs)."""
    rng = random.Random(f"{workload}:{seed}")
    doc = WORKLOADS[workload].build(rng, tiny)
    doc["output_dir"] = out_dir
    return doc


def sweep_points(config: dict) -> int:
    sweep = config["sweep"]
    return len(sweep["lambda0"]) * len(sweep["N"])
