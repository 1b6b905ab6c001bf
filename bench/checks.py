"""Output checks that read only the artifacts' documented fields.

Nothing here imports fredstab.  The gain check recomputes C x = 1 with
numpy from system.json and law.json; transform.json is never read, since
its contents are expected to change.  Each check returns a list of
failure messages keyed to the stage whose output it checks.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

TB_GATE = 1e-8           # the CLI's own residual gates
OPEQ_GATE = 1e-8
MATCH_GATE = 1e-6        # closed-loop spectrum vs shifted eigenvalues
NORMALIZATION_GATE = 1e-8
DECAY_GATE = 1e-3        # |mu_hat - lambda| on purely imaginary spectra


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def normalization_defect(system: dict, law: dict) -> float:
    """max over branches of max_p |sum_n x_n / (lambda_n - lambda_p + lambda) - 1|."""
    lam = float(law["lambda"])
    products = {int(b["i"]): _complex(b["products_x"]) for b in law["branches"]}
    worst = 0.0
    for branch in system["branches"]:
        ev = _complex(branch["eigenvalues"])
        x = products[int(branch["i"])]
        C = 1.0 / (ev[None, :] - ev[:, None] + lam)
        worst = max(worst, float(np.max(np.abs(C @ x - 1.0))))
    return worst


def check_synthesize(out: str) -> list:
    try:
        defect = normalization_defect(_load(os.path.join(out, "system.json")),
                                      _load(os.path.join(out, "law.json")))
    except (OSError, ValueError, KeyError) as exc:
        return [f"synthesize: unreadable system/law artifacts ({exc})"]
    if not defect <= NORMALIZATION_GATE:
        return [f"synthesize: max|C x - 1| = {defect:.3e} > {NORMALIZATION_GATE:.0e}"]
    return []


def check_report(path: str, stage: str) -> list:
    try:
        report = _load(path)
    except (OSError, ValueError) as exc:
        return [f"{stage}: unreadable report.json ({exc})"]
    errors = []
    for key, gate in (("tb_residual", TB_GATE), ("opeq_residual", OPEQ_GATE),
                      ("spectrum_match_error", MATCH_GATE)):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not value <= gate:
            errors.append(f"{stage}: report {key} = {value!r} exceeds {gate:.0e}")
    return errors


def check_simulate(out: str, snapshot: str, config: dict) -> list:
    errors = check_report(snapshot, "simulate")
    try:
        fits = _load(snapshot).get("decay_fits") or {}
    except (OSError, ValueError):
        fits = {}
    for sc in config["scenarios"]:
        name = sc["name"]
        fit = fits.get(name)
        mu = fit.get("mu_hat") if isinstance(fit, dict) else None
        if not isinstance(mu, (int, float)) or not math.isfinite(mu):
            errors.append(f"simulate: no decay fit for scenario {name} ({fit!r})")
        for suffix in ("_modes.csv", "_norms.csv"):
            path = os.path.join(out, "traces", name + suffix)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                errors.append(f"simulate: missing trace {name}{suffix}")
    return errors


def check_report_stage(out: str) -> list:
    errors = check_report(os.path.join(out, "report.json"), "report")
    plots = os.path.join(out, "plots")
    if not os.path.isdir(plots) or not any(f.endswith(".svg") for f in os.listdir(plots)):
        errors.append("report: no SVG plots written")
    return errors


def check_sweep(out: str, config: dict, expected: int) -> tuple:
    """(failed points, messages).  Every missing or bad row is a failed point.

    Every row must have residuals within the CLI's gates and a closed-loop
    spectrum within MATCH_GATE of the shifted eigenvalues.  The decay check
    |mu_hat - lambda| <= 1e-3 holds when every closed-loop mode decays at
    exactly lambda, i.e. on a purely imaginary spectrum.  On the heat
    spectra the modes decay at lambda or faster, but the fit over [0, 1]
    sees the non-normal transient and read up to 14 % below lambda, so
    there it only has to show decay; the spectrum check pins the rate.
    """
    path = os.path.join(out, "sweep.csv")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return expected, [f"sweep: unreadable sweep.csv ({exc})"]
    exact_rate = config["model"]["kind"] == "schrodinger_ground"
    errors = []
    bad = 0
    for row in rows:
        where = f"sweep point lambda0={row.get('lambda0')} N={row.get('N')}"
        if row.get("error"):
            errors.append(f"{where}: {row['error']}")
            bad += 1
            continue
        try:
            lam = float(row["lambda"])
            mu = float(row["mu_hat"])
            tb = float(row["tb_residual"])
            opeq = float(row["opeq_residual"])
            match = float(row["spectrum_match"])
        except (KeyError, ValueError) as exc:
            errors.append(f"{where}: malformed row ({exc})")
            bad += 1
            continue
        bad_rate = abs(mu - lam) > DECAY_GATE if exact_rate else not mu > 0
        if bad_rate or not tb <= TB_GATE or not opeq <= OPEQ_GATE or not match <= MATCH_GATE:
            errors.append(f"{where}: mu_hat={mu} lambda={lam} tb={tb} opeq={opeq} "
                          f"spectrum_match={match}")
            bad += 1
    missing = max(0, expected - len(rows))
    if missing:
        errors.append(f"sweep: {len(rows)} rows, expected {expected}")
    return min(expected, bad + missing), errors
