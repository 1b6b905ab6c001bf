"""Command-line pipeline: synthesize -> verify -> simulate -> sweep -> report.

One JSON config document drives everything.  parse_config reads it against
one table, _SCHEMA (section -> key -> default and kind of value), before any
model is built: a section that is not an object, an unknown key or a value
of the wrong kind is a ConfigError that names the key, and every stage reads
the filled-in, typed values.  config.model.params is the section of its
model kind, and _model hands those values to the kind's generator in
models.  The rules that tie keys together follow in parse_config.  A model
that cannot be read or built and a u0 index past the system are
ConfigErrors naming the key too.  Artifacts land in
out/{system.json, law.json, transform.json, report.json, traces/, plots/}
and are byte-identical across runs of the same config and version, at any
BLAS thread count.  synthesize and sweep create out only once their inputs
have passed, so a refused stage leaves no empty directory.  Every writer,
sweep.csv's too, opens with jsonio.overwrite: a rerun writes each file over
in place and cuts it to its new length, never truncating it to zero first.

No stage forms the transform T: transform.json stores the O(N) certificate
that transform.build_transform takes in one row-blocked pass over C (schema
fredstab-transform/2: per branch its diagonal, column norms, Frobenius norm
sqrt(sum of squared column norms) and residuals).
Stages pass certificates keyed by branch index; verify rebuilds them from
system.json and law.json and compares them, and law.json's tb_residual,
with the stored ones; the spectrum check, the spectrum plots and the sweep
read the secular steps of the rebuilt ones, and the report (the top level
of its kappa_0 plateau too) and the sweep's kappa_0 the conditioning of
branch 1's certificate (the admissible r of config.r_list; the sweep's
r = 0).  A stage builds one synthesis.BranchKernel per branch once it
knows the shift, and every consumer reads its C and the w of the
closed-form T^-1: both gain routes, the certificates, the semigroup and
the report.  No stage runs an SVD or a factorization;
transform.transform_matrix is a test oracle only.
The sweep builds and gates each distinct (N, gamma) model once, then maps
its points on --jobs (>= 1) threads, or in the calling thread for one; a
point that fails synthesize's residual gates keeps its certificate columns
and gets synthesize's message as its error.

verify, simulate and report build report.json with one function, _report,
from the output directory and the config alone, so the three stages write
the same bytes for the same directory.  report and simulate refuse a law
with a non-finite gain or product, naming the branch and field, before any
work.  simulate checks every scenario, with the integrators' own checks
(simulate.check_run, its time grid included), and builds its u0 before
the first integrates.  It writes each traces/<name>_modes.csv in
sample-range pieces (_TraceWriters), forking a writer for a piece while a
core is free and writing it in the parent otherwise, and integrates the
next scenario while they run; report.json is written once the one join
has found every piece written.  A failed writer leaves the exit code and
files of an inline run.

Exit codes: 0 success, 2 assumption-verdict failure, 3 solver failure,
4 integrator guard violation, 1 anything else.  Failures print a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
# argparse's gettext imports locale when main() builds its first parser;
# importing it here keeps that cost out of the first stage
import locale  # noqa: F401
import math
import os
import pickle
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diagnostics, models, simulate, synthesis, transform
from .errors import (AssumptionError, ConfigError, FredstabError,
                     IntegratorError, SolverError)
from .jsonio import canonical_json, overwrite, read_json, write_json
from .spectral_core import (SpectralSystem, system_from_json, system_to_json,
                            verify_assumptions)
from .synthesis import law_from_json, law_tb_residual, law_to_json
from .transform import transform_from_json, transform_to_json

TB_GATE = 1e-8
OPEQ_GATE = 1e-8
VERIFY_TOL = 1e-6
# Peak RSS growth of one stage, in N x N complex matrices (N = 1024, one
# 64-sample semigroup scenario, one stage per process; synthesize, verify,
# simulate, report, sweep): heat torus 1.2, 1.7, 1.8, 1.7 and 1.4, one of
# them its two real kernels held to the stage's end; Schrodinger 1.4, 1.7,
# 1.8, 1.7 and 1.4, one of them its complex kernel.  With LIVE_MATRICES of
# them in the budget, MAX_N is 3344.  A larger truncation is refused before
# any model or matrix is built.
MATRIX_BUDGET_BYTES = 2 << 30
LIVE_MATRICES = 12
MAX_N = math.isqrt(MATRIX_BUDGET_BYTES // (16 * LIVE_MATRICES))


def _number(low=-math.inf, kind=float):
    """Test: a finite JSON number > low (no bool; for kind int an integer), as a kind."""
    return lambda v: (kind(v) if isinstance(v, (int, kind)) and not isinstance(v, bool)
                      and low < v and abs(v) <= sys.float_info.max else None)


def _of(kind, choices=None):
    """Test: a dict, list, str or bool (kind), and one of choices when given."""
    return lambda v: v if isinstance(v, kind) and (choices is None or v in choices) else None


def _path_component(name):
    # the stem of the scenario's trace files and its decay-fit key
    if isinstance(name, str) and name and "\0" not in name and os.path.basename(name) == name:
        return name


def _complex(v):
    """Test: a finite number or an [re, im] pair of them, of finite modulus, as a complex."""
    re, im = map(_FINITE[0], v if isinstance(v, list) and len(v) == 2 else (v, 0.0))
    if None not in (re, im) and math.hypot(re, im) <= sys.float_info.max:
        return complex(re, im)


def _numbers(v):
    """Test: a list of finite numbers, as floats."""
    if isinstance(v, list) and None not in (typed := list(map(_FINITE[0], v))):
        return typed


def _sampled(v):
    """Test: a finite number, a list of them, or exactly {"grid": [...], "values": [...]}."""
    if not isinstance(v, dict):
        return (_numbers if isinstance(v, list) else _FINITE[0])(v)
    typed = {key: _numbers(values) for key, values in v.items()}
    if set(typed) == {"grid", "values"} and None not in typed.values():
        return typed


# a kind of value: (test, what the value must be); a test returns the typed
# value, or None to refuse it
_POSITIVE, _FINITE = (_number(0), "a finite number > 0"), (_number(), "a finite number")
_COUNT, _SEED = (_number(0, int), "a positive integer"), (_number(-1, int), "an integer >= 0")
_TRUNCATION = (_number(3, int), "an integer >= 4")
_OBJECT, _STRING = (_of(dict), "an object"), (_of(str), "a string")
_COMPLEX = (_complex, "a complex number (a finite number or an [re, im] pair)")
_SAMPLED = (_sampled, 'a sampled function (a finite number, a list of them or '
                      '{"grid": [...], "values": [...]})')


def _each(kind):
    """The kind of a list whose every entry is of kind."""
    return [kind[0]], kind[1]


def _choice(*choices):
    return _of(str, choices), "|".join(choices)


# model kind -> its params, the section of config.model.params; a None
# default is the model's own (n^gamma controls, mu = x^2, phi = 1 + x)
_PARAMS = {
    "heat_torus": {
        "m": (0.0, _FINITE), "gamma": (0.0, _FINITE),
        "phi1_coeffs": (None, _each(_COMPLEX)), "phi2_coeffs": (None, _each(_COMPLEX))},
    "schrodinger_ground": {"points": (2048, _COUNT), "mu": (None, _SAMPLED)},
    "sturm_liouville": {
        "L": (1.0, _POSITIVE), "grid_size": (2000, _COUNT),
        "a": (None, _SAMPLED), "b": (None, _SAMPLED), "phi": (None, _SAMPLED),
        "c1": (1.0, _FINITE), "c2": (0.0, _FINITE), "c3": (1.0, _FINITE), "c4": (0.0, _FINITE)},
    "gribov": {"eps": (0j, _COMPLEX), "r": (0.0, _FINITE), "gamma": (0.0, _FINITE)},
}
# section -> key -> (default, kind).  parse_config fills in the None defaults
# that other keys decide (N and the model's kind, the sweep's lambda0 and N);
# a scenario's u0 is a "u0", or a "u0 (nonlinear)" in a nonlinear scenario,
# and config.model.params the section of config.model.kind.
_SCHEMA = {
    "config": {
        "model": (None, _OBJECT), "N": (None, _TRUNCATION),
        "lambda0": (2.0, _POSITIVE), "delta": (0.25, _POSITIVE),
        "method": ("direct", _choice("direct", "iterative", "both")),
        "r_list": ((0.0,), _each(_FINITE)), "scenarios": ((), _each(_OBJECT)),
        "sweep": (None, _OBJECT),
        "output_dir": ("out", (lambda v: _of(str)(v) or None, "a non-empty string"))},
    "config.model": {
        "kind": (None, _choice(*_PARAMS)), "N": (None, _TRUNCATION),
        "params": ({}, _OBJECT), "path": (None, _STRING)},
    **_PARAMS,
    "scenario": {
        "name": ("scenario", (_path_component, "one path component")), "u0": ({}, _OBJECT),
        "t_end": (1.0, _POSITIVE), "samples": (64, _COUNT), "dt": (1e-4, _POSITIVE),
        "integrator": ("semigroup_exact", _STRING),
        "nonlinear": (False, (_of(bool), "true or false"))},
    "u0": {
        "kind": ("random", _choice("random", "basis")), "seed": (0, _SEED),
        "scale": (1.0, _FINITE), "branch": (1, _COUNT), "n": (1, _COUNT),
        "amplitude": (1.0, _FINITE)},
    "u0 (nonlinear)": {
        "kind": ("burgers_random", _choice("burgers_random", "burgers_sine")),
        "seed": (0, _SEED), "l2": (1e-3, _POSITIVE), "mode": (1, _COUNT),
        "amplitude": (1e-3, _FINITE)},
    "config.sweep": {
        "lambda0": (None, _each(_POSITIVE)),
        "N": (None, _each(_TRUNCATION)),
        "gamma": ((None,), _each(_FINITE))},
}
# config.N and model.N are one N
_LABELS = dict.fromkeys(("config.N", "config.model.N"), "config.N (or model.N)")


def _tested(test, value, where: str, what: str):
    if (typed := test(value)) is None:
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return typed


def _fill(section: str, doc, at: str, label=None) -> dict:
    """doc's tested, typed values and the other defaults of _SCHEMA[section]; a refusal
    names the section by at and a key by label(key, filled so far), by default at.key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{at} must be an object, got {doc!r}")
    if unknown := set(doc) - set(_SCHEMA[section]):
        raise ConfigError(f"unknown keys in {at}: {sorted(unknown)}")
    filled = {}
    for key, (default, (test, what)) in _SCHEMA[section].items():
        where = label(key, filled) if label else _LABELS.get(f"{at}.{key}", f"{at}.{key}")
        value = doc.get(key, default)
        if key in doc and isinstance(test, list):
            value = [_tested(test[0], v, f"{where}[{i}]", what)
                     for i, v in enumerate(_tested(_of(list), value, where, "a list"))]
        elif key in doc:
            value = _tested(test, value, where, what)
        filled[key] = value
    return filled


@dataclass(frozen=True)
class RunConfig:
    model: dict
    lambda0: float
    delta: float
    N: Optional[int]                # None for a stored system (model.path)
    method: str
    r_list: tuple
    scenarios: tuple
    sweep: Optional[dict]
    output_dir: str
    raw: dict = field(default_factory=dict)


def parse_config(doc: dict) -> RunConfig:
    """The RunConfig of a config document; _fill tests each key, the rules here tie keys."""
    cfg = _fill("config", doc, "config")
    model = _fill("config.model", cfg["model"], "config.model")
    N = model["N"] if cfg["N"] is None else cfg["N"]
    stored = model["path"] is not None
    if stored and (len(cfg["model"]) > 1 or cfg["N"] is not None):
        raise ConfigError("config.model.path stands alone: a stored system brings its own "
                          "model and N, so config.N and config.model's other keys are refused")
    if not stored and (model["kind"] is None or N is None):
        raise ConfigError("config.model needs a path, or a kind and config.N (or model.N)")
    if model["N"] not in (None, N):
        raise ConfigError(f"config.N {N} and config.model.N {model['N']} differ")
    if not stored:
        model["params"] = _fill(model["kind"], model["params"], "config.model.params")
    scenarios = []
    for i, given in enumerate(cfg["scenarios"]):
        sc = _fill("scenario", given, f"config.scenarios[{i}]", lambda key, sc: (
            f"config.scenarios[{i}].name" if key == "name"
            else f"config.scenarios[{i}] ({sc['name']!r}): {key}"))
        where = f"config.scenarios[{i}] ({sc['name']!r})"
        if sc["name"] in [other["name"] for other in scenarios]:
            raise ConfigError(f"config.scenarios[{i}].name {sc['name']!r} is already taken")
        if not sc["nonlinear"] and sc["integrator"] not in simulate.LINEAR_INTEGRATORS:
            raise ConfigError(f"{where}: unknown linear integrator {sc['integrator']!r}")
        sc["u0"] = _fill("u0 (nonlinear)" if sc["nonlinear"] else "u0", sc["u0"],
                         f"config.scenarios[{i}].u0", lambda key, _: f"{where}: u0.{key}")
        scenarios.append(sc)
    sweep = cfg["sweep"] and _fill("config.sweep", cfg["sweep"], "config.sweep")
    if sweep:
        for key in ("N", "gamma"):
            if stored and key in cfg["sweep"]:
                raise ConfigError(f"config.sweep.{key} cannot vary a stored system "
                                  "(config.model.path): it has one N and gamma")
        if not stored and "gamma" in cfg["sweep"] and "gamma" not in model["params"]:
            raise ConfigError(f"config.sweep.gamma cannot vary a {model['kind']} model: "
                              "its params have no gamma")
        # the grid takes the config's shift and truncation unless it varies them
        for key, value in (("lambda0", cfg["lambda0"]), ("N", N)):
            sweep[key] = [value] if sweep[key] is None else sweep[key]
    if not cfg["r_list"]:
        raise ConfigError("config.r_list must hold at least one r")
    # the norm columns of the traces and the conditioning keys of the
    # report are named by f"{r:g}", so two r with one label would collide
    labels = {}
    for r in cfg["r_list"]:
        if (label := f"{r:g}") in labels:
            raise ConfigError(f"config.r_list values {labels[label]!r} and {r!r} "
                              f"share the label {label!r}")
        labels[label] = r
    return RunConfig(model=model, lambda0=cfg["lambda0"], delta=cfg["delta"], N=N,
                     method=cfg["method"], r_list=tuple(cfg["r_list"]),
                     scenarios=tuple(scenarios), sweep=sweep or None,
                     output_dir=cfg["output_dir"], raw=dict(doc))


def _check_matrix_budget(N: int) -> None:
    if N > MAX_N:
        need = LIVE_MATRICES * 16 * N * N
        raise ConfigError(
            f"N={N} would need {need} bytes for {LIVE_MATRICES} {N}x{N} complex "
            f"matrices; the budget is {MATRIX_BUDGET_BYTES} bytes (N <= {MAX_N})")


def _sampled_param(value, x: np.ndarray, default):
    """Sampled-function parameter: scalar, value array, or {grid, values}."""
    if value is None:
        return default * np.ones_like(x)
    if isinstance(value, dict):
        grid = np.asarray(value["grid"], dtype=float)
        vals = np.asarray(value["values"], dtype=float)
        return np.interp(x, grid, vals)
    return np.asarray(value, dtype=float) * np.ones_like(x)


def _model(kind: str, N: int, p: dict) -> SpectralSystem:
    """The built-in model of kind at truncation N, from its filled-in params."""
    if kind == "heat_torus":
        return models.heat_torus_model(N, p["m"], p["phi1_coeffs"], p["phi2_coeffs"],
                                       p["gamma"])
    if kind == "schrodinger_ground":
        x = np.linspace(0.0, 1.0, p["points"] + 1)
        return models.schrodinger_model(
            N, x ** 2 if p["mu"] is None else _sampled_param(p["mu"], x, 0.0))
    if kind == "gribov":
        return models.gribov_model(N, p["eps"], p["r"], p["gamma"])
    x = np.linspace(0.0, p["L"], p["grid_size"] + 1)
    problem = models.SturmLiouvilleProblem(
        a_values=_sampled_param(p["a"], x, 1.0), b_values=_sampled_param(p["b"], x, 0.0),
        L=p["L"], c1=p["c1"], c2=p["c2"], c3=p["c3"], c4=p["c4"], grid_size=p["grid_size"])
    phi = (1.0 + x) if p["phi"] is None else _sampled_param(p["phi"], x, 1.0)
    return models.sturm_liouville_model(problem, N, phi)[0]


def _build_system(cfg: RunConfig, N: Optional[int] = None,
                  gamma: Optional[float] = None) -> SpectralSystem:
    """config.model's gated system, at N and gamma when given; a failed build is a ConfigError."""
    try:
        if cfg.model["path"] is not None:
            system = system_from_json(read_json(cfg.model["path"]))
        else:
            params = cfg.model["params"] if gamma is None else {**cfg.model["params"],
                                                                 "gamma": gamma}
            N = cfg.N if N is None else N
            _check_matrix_budget(N)
            system = _model(cfg.model["kind"], N, params)
    except (OSError, ValueError, TypeError, KeyError, MemoryError) as exc:
        raise ConfigError(f"config.model: {type(exc).__name__}: {exc}") from exc
    for b in system.branches:
        _check_matrix_budget(b.N)
    if bad := [b.index for b in system.branches if not verify_assumptions(b).ok]:
        raise AssumptionError(f"standing assumptions failed on branch(es) {bad}; "
                              "see the verdict details in the report")
    return system


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _out_dir(cfg: RunConfig, override: Optional[str]) -> str:
    """The stage's output directory, not created here: synthesize and sweep make it
    only once their inputs have passed, so a refused stage leaves no empty one."""
    return override or cfg.output_dir


def _synthesize_pipeline(cfg: RunConfig, system: SpectralSystem, r_list, lambda0: float):
    """Shared synthesis path of a gated system: shift -> kernels -> gains -> certificates.

    Returns (law, kernels, {branch index: BranchCertificate}).
    """
    kernels = _kernels(system, synthesis.select_shift(system, lambda0, cfg.delta))
    method = "direct" if cfg.method == "both" else cfg.method
    law = synthesis.synthesize_feedback(kernels, method=method)
    if cfg.method == "both":
        other = synthesis.synthesize_feedback(kernels, method="iterative")
        for bg, bo in zip(law.branches, other.branches):
            gap = float(np.max(np.abs(bg.products - bo.products)))
            if gap > 1e-8:
                raise SolverError(
                    f"direct and iterative gains disagree by {gap:.3e} on "
                    f"branch {bg.branch_index}")
    return law, kernels, _build_certificates(kernels, law, r_list)


def _worst_residuals(certs) -> tuple:
    """The worst tb_residual and opeq_residual over the certificates, a NaN kept."""
    return (diagnostics.worst(c.tb_residual for c in certs.values()),
            diagnostics.worst(c.opeq_residual for c in certs.values()))


def _gate_failure(tb: float, opeq: float) -> Optional[str]:
    """synthesize's residual-gate message, or None when tb and opeq pass (a NaN fails)."""
    if tb <= TB_GATE and opeq <= OPEQ_GATE:
        return None
    return (f"residual gates failed: tb={tb:.3e} (gate {TB_GATE:.0e}), "
            f"opeq={opeq:.3e} (gate {OPEQ_GATE:.0e})")


def _kernels(system: SpectralSystem, lam: float) -> tuple:
    """The stage's BranchKernel of every branch at lam, in branch order."""
    return tuple(synthesis.BranchKernel(b, lam) for b in system.branches)


def _build_certificates(kernels, law, r_list) -> dict:
    """One certificate per branch kernel; kappa_r of r_list on branch 1 only."""
    return {k.branch.index: transform.build_transform(k, law.branch(k.branch.index),
                                                      r_list if k is kernels[0] else ())
            for k in kernels}


def cmd_synthesize(cfg: RunConfig, out: Optional[str] = None) -> int:
    out = _out_dir(cfg, out)
    system = _build_system(cfg)
    law, _, certs = _synthesize_pipeline(cfg, system, (), cfg.lambda0)
    worst_tb, worst_opeq = _worst_residuals(certs)
    failed = _gate_failure(worst_tb, worst_opeq)
    if failed:                          # before the JSON writer meets a NaN
        raise SolverError(failed)
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "system.json"), system_to_json(system))
    write_json(os.path.join(out, "law.json"), law_to_json(law, certs.values()))
    write_json(os.path.join(out, "transform.json"),
               transform_to_json(law.lam, certs.values()))
    print(f"synthesized {system.label}: lambda={law.lam:g} "
          f"tb={worst_tb:.3e} opeq={worst_opeq:.3e} -> {out}")
    return 0


def _load_artifacts(out: str):
    """System, law, stored certificates and law document of an output directory."""
    for name in ("system.json", "law.json", "transform.json"):
        if not os.path.exists(os.path.join(out, name)):
            raise ConfigError(f"missing artifact {name} in {out}")
    system = system_from_json(read_json(os.path.join(out, "system.json")))
    law_doc = read_json(os.path.join(out, "law.json"))
    stored = transform_from_json(read_json(os.path.join(out, "transform.json")))
    return system, law_from_json(law_doc), stored, law_doc


def _drifts(stored, rebuilt, tol: float) -> bool:
    """True when stored and rebuilt differ by more than tol anywhere, or by NaN."""
    off = np.abs(np.asarray(stored) - np.asarray(rebuilt))
    return not np.all(off <= tol)


def _certificate_drift(stored, rebuilt) -> list[str]:
    """How the stored certificate disagrees with the rebuild: it is missing, has another N,
    or names the fields that drift."""
    if stored is None:
        return ["certificate missing from transform.json"]
    if stored.N != rebuilt.N:
        return [f"certificate has N={stored.N}, the system has N={rebuilt.N}"]
    checks = (("diagonal", stored.diagonal, rebuilt.diagonal),
              ("column_norms", stored.column_norms, rebuilt.column_norms),
              ("frobenius", stored.frobenius, rebuilt.frobenius),
              ("lambda", stored.lam, rebuilt.lam),
              ("tb_residual", stored.tb_residual, rebuilt.tb_residual),
              ("opeq_residual", stored.opeq_residual, rebuilt.opeq_residual))
    return [f"{name} drift" for name, a, b in checks if _drifts(a, b, VERIFY_TOL)]


def cmd_verify(cfg: RunConfig, out: Optional[str] = None) -> int:
    """Recompute every residual from the stored system and law.

    Stored residuals are never trusted; any disagreement beyond 1e-6
    between a stored number (gains, law.json's tb_residual, or a field of
    the transform certificate) and its recomputation, a NaN in either, or
    a missing tb_residual flags tampering or version drift.
    """
    out = _out_dir(cfg, out)
    system, law, stored, law_doc = _load_artifacts(out)
    kernels = _kernels(system, law.lam)
    certs = _build_certificates(kernels, law, cfg.r_list)
    law_tb = {int(bd["i"]): bd.get("tb_residual") for bd in law_doc["branches"]}
    drift = []
    for b in system.branches:
        bg = law.branch(b.index)
        scale = max(1.0, np.max(np.abs(bg.gains)))
        if _drifts(-bg.products / b.control_coeffs, bg.gains, VERIFY_TOL * scale):
            drift.append(f"branch {b.index}: gains inconsistent with products")
        tb = law_tb.get(b.index)
        if (not isinstance(tb, (int, float))
                or _drifts(tb, law_tb_residual(certs[b.index].residual), VERIFY_TOL)):
            drift.append(f"branch {b.index}: law.json tb_residual drift")
        drift.extend(f"branch {b.index}: {what}"
                     for what in _certificate_drift(stored.get(b.index), certs[b.index]))
    if drift:
        raise ConfigError("verification failed: " + "; ".join(drift))
    report = _report(cfg, out, system, law, kernels, certs)
    write_json(os.path.join(out, "report.json"), report)
    print(f"verified artifacts in {out}: tb={report['tb_residual']:.3e} "
          f"opeq={report['opeq_residual']:.3e} "
          f"match={report['spectrum_match_error']:.3e}")
    return 0


def _finite_law(law) -> None:
    """Refuse a law with a non-finite gain or product, naming its branch and field.

    report and simulate check this before any work; verify instead names
    each field of the rebuild that the NaN makes drift.
    """
    bad = [f"branch {bg.branch_index}: {name}" for bg in law.branches
           for name, values in (("gains", bg.gains), ("products_x", bg.products))
           if not np.all(np.isfinite(values))]
    if bad:
        raise ValueError("law.json holds non-finite values: " + "; ".join(bad))


def _report(cfg: RunConfig, out: str, system, law, kernels, certs) -> dict:
    """The report.json document of verify, simulate and report.

    certs are rebuilt from the kernels and law, the conditioning and the
    kernel of the gap tail and compactness proxy are branch 1's, and the
    decay fits are refit from out/traces.
    """
    return diagnostics.make_report(system, law, certs.values(), kernels[0],
                                   _refit_decay(cfg, os.path.join(out, "traces")), cfg.raw)


def _u0_index(u0: dict, key: str, size: int, where: str) -> int:
    """The 0-based index u0[key] - 1; past size (the table refuses < 1) a ConfigError."""
    if u0[key] > size:
        raise ConfigError(f"{where}: u0.{key} must be at most {size}, got {u0[key]}")
    return u0[key] - 1


def _linear_u0(system: SpectralSystem, u0: dict, where: str):
    if u0["kind"] == "random":
        return simulate.random_state(system, seed=u0["seed"], scale=u0["scale"])
    blocks = [np.zeros(b.N, dtype=complex) for b in system.branches]
    block = blocks[_u0_index(u0, "branch", len(blocks), where)]
    block[_u0_index(u0, "n", len(block), where)] = u0["amplitude"]
    return blocks


def _burgers_u0(system: SpectralSystem, u0: dict, where: str) -> np.ndarray:
    N = system.branches[0].N
    c = np.zeros(2 * N + 1, dtype=complex)
    if u0["kind"] == "burgers_sine":
        mode = _u0_index(u0, "mode", N, where) + 1
        c[N + mode] = -0.5j * u0["amplitude"]
        c[N - mode] = 0.5j * u0["amplitude"]
        return c
    rng = np.random.default_rng(u0["seed"])
    k = np.arange(1, N + 1, dtype=float)
    amp = rng.standard_normal(N) / (1.0 + k ** 2)
    phase = rng.uniform(0, 2 * np.pi, N)
    c[N] = 0.3 * abs(rng.standard_normal())
    c[N + 1:] = 0.5 * amp * np.exp(1j * phase)
    c[:N] = np.conj(c[N + 1:])[::-1]
    norm = np.sqrt(2 * np.pi * np.sum(np.abs(c) ** 2))
    if norm == 0:
        raise ConfigError("degenerate random initial state")
    return c * (u0["l2"] / norm)


class _TraceWriters:
    """Writer children for the traces/<name>_modes.csv files of simulate.

    start() cuts a file into min(usable cores, len(trace.times)) contiguous
    sample ranges of near-equal length, its pieces.  Piece 0 is written
    into the file itself and piece j > 0 into the part file <file>.part<j>
    next to it.  start() creates the file and every part file in the parent,
    so an unwritable path fails where the inline writer would, without
    truncating them (each writer writes its file over in place).  It then
    reaps the exited children and forks each piece while fewer writers than
    usable cores are alive, and otherwise writes the piece itself at once.
    A child runs simulate.write_modes_csv(trace, path, start, stop), looked
    up when it is forked, which is pure Python and file writes, and leaves
    through os._exit, so no atexit handler runs and no inherited stdio
    buffer is flushed twice.  A failing child pickles its exception into a
    pipe.  join() is the one place that waits and cleans up, and start()
    hands over to it as soon as it meets an error: it waits for every
    child, appends the part files, in order, to the file of every scenario
    before the earliest failing one and removes every part file.  After an
    error it also removes the trace files of the later scenarios (the files
    their start() was given and created) and raises the error of the
    failing scenario's first failing piece, so the traces left behind are
    those an inline run stops with.  A second join() does nothing.  Without
    os.fork, start() runs the writer inline.
    """

    def __init__(self):
        self.limit = _usable_cores()
        self.files = []     # start order -> (its files already written, its pieces)
        self.pipes = {}     # pid -> ((start order, piece), read end of its error pipe)
        self.errors = {}    # (start order, piece) -> exception

    def start(self, trace, path, written) -> None:
        """Write trace to path; written are the scenario's files already on disk."""
        if not hasattr(os, "fork"):
            simulate.write_modes_csv(trace, path)
            return
        order, samples = len(self.files), len(trace.times)
        count, pieces = min(self.limit, samples), []
        self.files.append((list(written), pieces))
        try:
            for j in range(count):
                open(piece := f"{path}.part{j}" if j else path, "ab").close()
                pieces.append(piece)
            for j, piece in enumerate(pieces):
                for pid in list(self.pipes):
                    self._reap(pid, wait=False)
                if self.errors:
                    break
                args = (trace, piece, samples * j // count, samples * (j + 1) // count)
                if len(self.pipes) == self.limit:
                    simulate.write_modes_csv(*args)
                    continue
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        os.close(read_fd)
                        simulate.write_modes_csv(*args)
                        os._exit(0)
                    except BaseException as exc:
                        with os.fdopen(write_fd, "wb") as pipe:
                            pickle.dump(exc, pipe)
                    finally:
                        os._exit(1)
                os.close(write_fd)
                self.pipes[pid] = ((order, j), read_fd)
        except Exception as exc:
            self.errors[order, j] = exc
        if self.errors:
            self.join()

    def _reap(self, pid: int, wait: bool) -> None:
        """Reap one child and keep its error; without wait, only if it has exited."""
        status = None
        if not wait:
            done, status = os.waitpid(pid, os.WNOHANG)
            if not done:
                return
        key, read_fd = self.pipes.pop(pid)
        # read before waiting: EOF comes when the child exits
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
        if status is None:
            status = os.waitpid(pid, 0)[1]
        if payload:
            try:
                self.errors[key] = pickle.loads(payload)
            except Exception as exc:
                self.errors[key] = exc
        elif status:
            self.errors[key] = ChildProcessError(
                f"trace writer {pid} ended with wait status {status}")

    def join(self) -> None:
        """Wait for every child, append and remove the part files; raise the earliest error."""
        for pid in list(self.pipes):
            self._reap(pid, wait=True)
        files, self.files = self.files, []
        for order, (_, pieces) in enumerate(files):
            if self.errors and min(self.errors)[0] <= order:
                break
            try:
                with open(pieces[0], "ab") as out:
                    for part in pieces[1:]:
                        with open(part, "rb") as fh:
                            shutil.copyfileobj(fh, out)
            except OSError as exc:
                self.errors[order, self.limit] = exc        # after its pieces
        _remove(part for _, pieces in files for part in pieces[1:])
        if self.errors:
            first = min(self.errors)
            error, self.errors = self.errors[first], {}
            _remove(path for written, pieces in files[first[0] + 1:]
                    for path in written + pieces)
            raise error


def _remove(paths) -> None:
    """Remove the files paths, those that exist."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def cmd_simulate(cfg: RunConfig, out: Optional[str] = None) -> int:
    """Integrate every scenario and write its traces and the report.

    The parent writes each <name>_norms.csv and starts <name>_modes.csv
    (_TraceWriters: one piece per usable core, forked while a core is free,
    written in the parent otherwise), then integrates the next scenario;
    the report reads only the norms files, so it and the certificates it
    needs are computed while the writers run.  The one join waits for every
    child, and report.json is written once it has found every piece
    written.  The semigroups, certificates and report share the kernels.
    """
    out = _out_dir(cfg, out)
    system, law, *_ = _load_artifacts(out)
    _finite_law(law)
    # check every scenario and build its time grid and u0 before any integrates: a
    # refusal leaves no trace
    runs = []
    for i, sc in enumerate(cfg.scenarios):
        where = f"config.scenarios[{i}] ({sc['name']!r})"
        width = (2 * system.branches[0].N + 1 if sc["nonlinear"]
                 else sum(b.N for b in system.branches))
        need = (sc["samples"] + 1) * width * 16
        if need > MATRIX_BUDGET_BYTES:
            raise ConfigError(
                f"{where}: samples={sc['samples']} would need {need} bytes for the "
                f"trace; the budget is {MATRIX_BUDGET_BYTES} bytes")
        if sc["nonlinear"] and not system.label.startswith("heat_torus"):
            raise ConfigError(f"{where}: nonlinear scenarios need the heat_torus model")
        times = np.linspace(0.0, sc["t_end"], sc["samples"] + 1)
        try:
            simulate.check_run(system.branches, law, times, sc["dt"], sc["integrator"],
                               sc["nonlinear"])
        except (ValueError, IntegratorError) as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        runs.append((times, _burgers_u0(system, sc["u0"], where) if sc["nonlinear"]
                     else _linear_u0(system, sc["u0"], where)))
    kernels = _kernels(system, law.lam)
    traces_dir = os.path.join(out, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    writers = _TraceWriters()
    try:
        for sc, (times, u0) in zip(cfg.scenarios, runs):
            if sc["nonlinear"]:
                trace = simulate.simulate_burgers(system, law, u0, times, dt=sc["dt"],
                                                  r_list=cfg.r_list)
            else:
                trace = simulate.simulate_closed_loop(kernels, law, u0, times,
                                                      integrator=sc["integrator"],
                                                      dt=sc["dt"], r_list=cfg.r_list)
            norms_path = os.path.join(traces_dir, f"{sc['name']}_norms.csv")
            simulate.write_norms_csv(trace, norms_path)
            writers.start(trace, os.path.join(traces_dir, f"{sc['name']}_modes.csv"),
                          (norms_path,))
            del trace
        report = _report(cfg, out, system, law, kernels,
                         _build_certificates(kernels, law, cfg.r_list))
    finally:
        writers.join()
    write_json(os.path.join(out, "report.json"), report)
    for name, fit in (report["decay_fits"] or {}).items():
        msg = "no fit" if fit is None else f"mu_hat={fit['mu_hat']:.4f} r2={fit['r2']:.4f}"
        print(f"scenario {name}: {msg}")
    return 0


_SWEEP_FIELDS = ("lambda0", "N", "gamma", "lambda", "tb_residual", "opeq_residual",
                 "spectrum_match", "sup_product", "kappa_0", "mu_hat", "error")


def cmd_sweep(cfg: RunConfig, out: Optional[str] = None,
              jobs: Optional[int] = None) -> int:
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    out = _out_dir(cfg, out)
    if not cfg.sweep:
        raise ConfigError("config.sweep is empty")
    grid = [(l0, n, g) for l0 in cfg.sweep["lambda0"] for n in cfg.sweep["N"]
            for g in cfg.sweep["gamma"]]
    if not grid:
        raise ConfigError("sweep grid is empty")

    def error_text(exc: Exception) -> str:
        return f"{type(exc).__name__}: {exc}"

    # A model and its standing assumptions depend on (N, gamma) only, not on the
    # shift: each is built and gated here once, in grid order; a failure is its rows' error.
    systems = {}
    for _, n, g in grid:
        if (n, g) not in systems:
            try:
                systems[n, g] = _build_system(cfg, N=n, gamma=g)
            except FredstabError as exc:
                systems[n, g] = error_text(exc)

    def run_point(point):
        l0, n, g = point
        row = dict.fromkeys(_SWEEP_FIELDS, "")
        row.update(lambda0=l0, N=n, gamma="" if g is None else g)
        system = systems[n, g]
        if isinstance(system, str):
            row["error"] = system
            return row
        try:
            law, kernels, certs = _synthesize_pipeline(cfg, system, [0.0], l0)
            match = diagnostics.worst(diagnostics.secular_match_error(b, certs[b.index])
                                      for b in system.branches)
            worst_tb, worst_opeq = _worst_residuals(certs)
            kappas = certs[system.branches[0].index].conditioning
            row.update({
                "N": system.branches[0].N,       # a stored system's own, not config.N
                "lambda": law.lam,
                "tb_residual": worst_tb,
                "opeq_residual": worst_opeq,
                "spectrum_match": match,
                "sup_product": diagnostics.worst(bg.sup_product for bg in law.branches),
                "kappa_0": kappas.get(0.0, ""),
            })
            # a point that fails synthesize's gates keeps its certificates, not a decay rate
            failed = _gate_failure(worst_tb, worst_opeq)
            if failed:
                row["error"] = error_text(SolverError(failed))
                return row
            u0 = simulate.random_state(system, seed=0)
            times = np.linspace(0.0, 1.0, 65)
            trace = simulate.simulate_closed_loop(kernels, law, u0, times)
            try:
                row["mu_hat"] = simulate.fit_decay(trace.times, trace.norms[0.0]).mu_hat
            except ValueError as exc:           # say, a norm that underflowed to 0
                row["error"] = f"decay fit failed: {error_text(exc)}"
        except FredstabError as exc:
            row["error"] = error_text(exc)
        return row

    workers = jobs if jobs is not None else _usable_cores()
    if workers == 1:
        # no worker thread: its own malloc arena would lift the peak RSS
        rows = [run_point(point) for point in grid]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_point, grid))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "sweep.csv")
    with overwrite(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    failures = sum(1 for r in rows if r["error"])
    print(f"sweep: {len(rows)} points, {failures} failed -> {path}")
    return 0


def _decay_traces(cfg: RunConfig, traces_dir: str):
    """(name, column, t, norms) of each configured scenario with a norms file.

    column is norm_r of config.r_list[0]; t or norms is None if the file
    lacks it.  A file with no header, or a row that is not one number per
    header field, is a ValueError naming the file and the row.
    """
    column = f"norm_r{cfg.r_list[0]:g}"
    for sc in cfg.scenarios:
        path = os.path.join(traces_dir, f"{sc['name']}_norms.csv")
        if os.path.exists(path):
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh)) or [[]]
            if not header:
                raise ValueError(f"{path}: empty file, no header row")
            try:
                table = np.array(rows, dtype=float).reshape(len(rows), len(header))
            except ValueError:
                # name the first row that is not one number (float()) per header field
                for i, row in enumerate(rows, 2):
                    if len(row) != len(header):
                        raise ValueError(f"{path} row {i}: {len(row)} fields, "
                                         f"the header has {len(header)}") from None
                    try:
                        list(map(float, row))
                    except ValueError as exc:
                        raise ValueError(f"{path} row {i}: {exc}") from None
                raise
            columns = dict(zip(header, table.T.copy()))
            yield sc["name"], column, columns.get("t"), columns.get(column)


def _refit_decay(cfg: RunConfig, traces_dir: str) -> Optional[dict]:
    """Decay fits of the configured scenarios, refit from their norm traces.

    The traces hold repr floats, so each fit equals the one simulate made.
    None when no configured scenario has a norms file.
    """
    fits = {}
    for name, _, t, y in _decay_traces(cfg, traces_dir):
        fits[name] = None
        if t is not None and y is not None:
            with contextlib.suppress(ValueError):        # too few or nonpositive norms
                fits[name] = simulate.fit_decay(t, y)
    return fits or None


def cmd_report(cfg: RunConfig, out: Optional[str] = None) -> int:
    out = _out_dir(cfg, out)
    system, law, *_ = _load_artifacts(out)
    _finite_law(law)
    kernels = _kernels(system, law.lam)
    certs = _build_certificates(kernels, law, cfg.r_list)
    write_json(os.path.join(out, "report.json"),
               _report(cfg, out, system, law, kernels, certs))
    plots = os.path.join(out, "plots")
    os.makedirs(plots, exist_ok=True)
    for b in system.branches:
        bg = law.branch(b.index)
        n = np.arange(1, bg.N + 1)
        diagnostics.svg_line_plot(
            os.path.join(plots, f"gains_branch{b.index}.svg"),
            {"|x_n|": (n, np.abs(bg.products)),
             "|x_n - lambda|": (n, np.abs(bg.corrections))},
            f"gain profile, branch {b.index}", "n", "magnitude", logy=True)
        target = b.eigenvalues - law.lam
        # the spectrum plot and the report's spectrum check share the steps
        roots = target + certs[b.index].secular_steps
        diagnostics.svg_line_plot(
            os.path.join(plots, f"spectrum_branch{b.index}.svg"),
            {"closed-loop Re": (n, np.sort(roots.real)),
             "shifted target Re": (n, np.sort(target.real))},
            f"spectrum shift, branch {b.index}", "mode (sorted)", "Re")
    b0 = system.branches[0]
    conditioning = certs[b0.index].conditioning
    if conditioning:
        rs = sorted(conditioning)
        diagnostics.svg_line_plot(
            os.path.join(plots, "conditioning.svg"),
            {"kappa_r": (np.array(rs), np.array([conditioning[r] for r in rs]))},
            "weighted conditioning", "r", "kappa")
    lo, hi = transform.admissible_r_interval(b0.alpha, b0.gamma, beta=b0.beta)
    if lo < 0.0 < hi and b0.N >= 8:
        plateau = transform.conditioning_vs_truncation(kernels[0], certs[b0.index])
        levels = sorted(plateau)
        diagnostics.svg_line_plot(
            os.path.join(plots, "conditioning_vs_N.svg"),
            {"kappa_0": (np.array(levels, dtype=float),
                         np.array([plateau[n] for n in levels]))},
            "conditioning plateau", "truncation N", "kappa")
    # the traces and the column that report.json's decay fits read
    for name, column, t, y in _decay_traces(cfg, os.path.join(out, "traces")):
        if t is not None and y is not None and len(y) > 1:
            diagnostics.svg_line_plot(os.path.join(plots, f"{name}_decay.svg"),
                                      {column: (t, y)}, f"decay: {name}", "t", "norm",
                                      logy=True)
    print(f"report written to {os.path.join(out, 'report.json')}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fredstab",
        description="spectral feedback synthesis, certification, and simulation")
    parser.add_argument("command",
                        choices=["synthesize", "verify", "simulate", "sweep", "report"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers for sweep, >= 1 (default: usable cores)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(read_json(args.config))
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, jobs=args.jobs)
        return {"synthesize": cmd_synthesize, "verify": cmd_verify, "simulate": cmd_simulate,
                "report": cmd_report}[args.command](cfg, args.out)
    except (FredstabError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(canonical_json(payload), file=sys.stderr)
        return exc.exit_code if isinstance(exc, FredstabError) else 1


if __name__ == "__main__":
    sys.exit(main())
