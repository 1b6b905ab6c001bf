"""Aggregated certification reports and plot/table rendering.

The report collects everything a reviewer needs to re-derive the run:
assumption verdicts, normalization and intertwining residuals, the
spectrum-shift match, gain-profile statistics, conditioning and
compactness proxies, and decay fits.  Reports serialize canonically and
embed the configuration hash so every number is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# numpy loads numpy.random on first use; load it with the package, not
# inside the first stage that draws (compactness_proxy's default_rng)
import numpy.random

from .jsonio import canonical_json, config_hash, write_json
from .spectral_core import (AssumptionVerdict, SpectralBranch, SpectralSystem,
                            verify_assumptions)
from .synthesis import BranchGains, FeedbackLaw
from .transform import secular_newton_steps

__all__ = [
    "REPORT_SCHEMA",
    "GainTrend",
    "DiagnosticsReport",
    "compactness_proxy",
    "gain_trend",
    "spectrum_match_error",
    "secular_match_error",
    "make_report",
    "svg_line_plot",
]

REPORT_SCHEMA = "fredstab-report/2"
"""Schema tag of report.json.

Since fredstab-report/2, "spectrum_match_error" is the secular certificate
(secular_match_error): the largest Newton distance from a shifted target
lambda_p - lam to the nearest closed-loop root, relative to |lambda_p - lam|,
over all branches.  fredstab-report/1 matched a dense eigvals spectrum to the
targets (spectrum_match_error, now a test oracle).
"""


def compactness_proxy(S_c: np.ndarray, r: float, eps: float, alpha: float,
                      power_iters: int = 50, seed: int = 0) -> float:
    """Operator-norm estimate of diag(n^(r+eps)) S_c diag(n^-r).

    eps must lie in the open interval (0, min((alpha-1)/2, alpha+r-1/2)).
    Power iteration on the normal matrix; a bounded-in-N profile of this
    estimate is the finite-truncation compactness proxy.
    """
    hi = min((alpha - 1.0) / 2.0, alpha + r - 0.5)
    if not 0.0 < eps < hi:
        raise ValueError(f"eps={eps} outside the open interval (0, {hi})")
    N = S_c.shape[0]
    n = np.arange(1, N + 1, dtype=float)
    A = (n[:, None] ** (r + eps)) * S_c * (n[None, :] ** (-r))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    v /= np.linalg.norm(v)
    AH = A.conj().T
    sigma = 0.0
    for _ in range(power_iters):
        w = AH @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        sigma = nw
    return float(np.sqrt(sigma))


@dataclass(frozen=True)
class GainTrend:
    """Boundedness evidence for the gain products x_n = -K_n b_n."""

    sup_product: float
    sup_correction: float
    quartile_ratio: float


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit, from a sort.

    np.median goes through np.partition and loads np.ma; a sort and the
    mean (a + b) / 2 of the middle pair give the same bits.
    """
    s = np.sort(values)
    if np.isnan(s[-1]):           # sort puts NaN last; np.median returns NaN
        return float("nan")
    mid = len(s) // 2
    if len(s) % 2:
        return float(s[mid])
    return float((s[mid - 1] + s[mid]) / 2.0)


def gain_trend(gains: BranchGains) -> GainTrend:
    """Boundedness statistics of the gain products.

    Reports sup |x_n|, sup |x_n - lam|, and the quartile ratio: median of
    |x_n - lam| over the last index quartile divided by the median over
    the first.  A ratio below 1 is the decay trend of the corrections.
    Requires N >= 16.
    """
    N = gains.N
    if N < 16:
        raise ValueError(f"gain trend needs N >= 16, got {N}")
    d = np.abs(gains.corrections)
    head = _median(d[: N // 4])
    tail = _median(d[3 * N // 4:])
    ratio = float("inf") if head == 0 else tail / head
    return GainTrend(sup_product=gains.sup_product,
                     sup_correction=float(np.max(d)),
                     quartile_ratio=ratio)


def spectrum_match_error(spectrum: np.ndarray, eigenvalues: np.ndarray,
                         lam: float) -> float:
    """Max relative distance from the spectrum to the shifted eigenvalues.

    Pairs each target lambda_n - lam greedily with its nearest remaining
    computed eigenvalue, largest magnitude first.
    """
    target = np.asarray(eigenvalues, dtype=complex) - lam
    got = list(np.asarray(spectrum, dtype=complex))
    worst = 0.0
    for tv in sorted(target, key=lambda z: abs(z), reverse=True):
        j = int(np.argmin([abs(g - tv) for g in got]))
        worst = max(worst, abs(got[j] - tv) / max(abs(tv), 1e-30))
        got.pop(j)
    return float(worst)


def secular_match_error(branch: SpectralBranch, gains: BranchGains,
                        steps: Optional[np.ndarray] = None) -> float:
    """Max over p of |step_p| / |lambda_p - lam|, the secular spectrum certificate.

    step_p is the Newton step from lambda_p - lam to the nearest root of the
    closed-loop secular equation (transform.secular_newton_steps), so this is
    the relative distance from each target to the spectrum, in O(N^2).
    Pass steps when the caller already has them.
    """
    target = branch.eigenvalues - gains.lam
    if steps is None:
        steps = secular_newton_steps(branch, gains)
    return float(np.max(np.abs(steps) / np.maximum(np.abs(target), 1e-30)))


def _verdict_json(v: AssumptionVerdict) -> dict:
    doc: dict = {"ok": v.ok}
    if v.growth is not None:
        doc["growth"] = {
            "ok": v.growth.ok, "c_low": v.growth.c_low, "c_high": v.growth.c_high,
            "ratio": v.growth.ratio, "alpha_hat": v.growth.alpha_hat,
            "witness_low": v.growth.witness_low, "witness_high": v.growth.witness_high,
        }
    if v.gap is not None:
        doc["gap"] = {
            "ok": v.gap.ok, "constant": v.gap.constant,
            "witness": list(v.gap.witness), "floor": v.gap.floor,
        }
    if v.control is not None:
        doc["control"] = {
            "ok": v.control.ok, "c1_hat": v.control.c1_hat, "c2_hat": v.control.c2_hat,
            "beta_hat": v.control.beta_hat, "gamma_hat": v.control.gamma_hat,
        }
    return doc


@dataclass(frozen=True)
class DiagnosticsReport:
    """Full certification record; serialize with .to_json()."""

    label: str
    lam: float
    config_digest: str
    verdicts: tuple
    tb_residual: float
    opeq_residual: float
    spectrum_match: float
    gain: dict
    conditioning: dict
    gap_sum_tail_max: Optional[float] = None
    compactness: Optional[dict] = None
    decay_fits: Optional[dict] = None
    classification: Optional[dict] = None

    def to_json(self) -> dict:
        doc = {
            "schema": REPORT_SCHEMA,
            "label": self.label,
            "lambda": float(self.lam),
            "config_hash": self.config_digest,
            "assumptions": [_verdict_json(v) for v in self.verdicts],
            "tb_residual": float(self.tb_residual),
            "opeq_residual": float(self.opeq_residual),
            "spectrum_match_error": float(self.spectrum_match),
            "gain_profile": self.gain,
            "conditioning": {f"{r:g}": kappa for r, kappa in self.conditioning.items()},
            "gap_sum_tail_max": self.gap_sum_tail_max,
            "compactness": self.compactness,
            "decay_fits": self.decay_fits,
            "classification": self.classification,
        }
        return doc


_MANDATORY = ("system", "shift", "law", "transforms")


def make_report(system: Optional[SpectralSystem] = None, shift=None,
                law: Optional[FeedbackLaw] = None, transforms=None,
                conditioning: Optional[dict] = None,
                gap_sum_tail_max: Optional[float] = None,
                compactness: Optional[dict] = None, decay_fits=None,
                classification=None,
                config: Optional[dict] = None,
                secular_steps: Optional[dict] = None) -> DiagnosticsReport:
    """Assemble the certification record from pipeline outputs.

    system, shift, law and transforms are mandatory; transforms is an
    iterable of the branch certificates (transform.BranchCertificate) whose
    worst tb and opeq residuals the report carries.  The spectrum match is
    the worst secular_match_error over the branches of system and law.
    Simulation sections are marked absent (null) when not supplied.
    decay_fits maps scenario names to DecayFit objects or plain dicts.
    secular_steps maps branch indices to their secular_newton_steps, for a
    caller that needs them too; they are computed here otherwise.
    """
    missing = [name for name, val in
               zip(_MANDATORY, (system, shift, law, transforms)) if val is None]
    if missing:
        raise ValueError(f"report is missing mandatory sections: {', '.join(missing)}")
    lam = shift.lam if hasattr(shift, "lam") else float(shift)
    verdicts = tuple(verify_assumptions(b) for b in system.branches)
    certificates = tuple(transforms)
    tb = max(c.tb_residual for c in certificates)
    opeq = max(c.opeq_residual for c in certificates)
    steps = secular_steps or {}
    match = max(secular_match_error(b, law.branch(b.index), steps.get(b.index))
                for b in system.branches)
    trends = [gain_trend(bg) if bg.N >= 16 else None for bg in law.branches]
    gain_doc = {
        "sup_product": max(bg.sup_product for bg in law.branches),
        "per_branch": [
            None if tr is None else {
                "sup_product": tr.sup_product,
                "sup_correction": tr.sup_correction,
                "quartile_ratio": tr.quartile_ratio,
            }
            for tr in trends
        ],
    }
    fits_doc = None
    if decay_fits is not None:
        fits_doc = {}
        for name, fit in dict(decay_fits).items():
            if hasattr(fit, "mu_hat"):
                fits_doc[name] = {"mu_hat": fit.mu_hat, "c_hat": fit.c_hat,
                                  "r2": fit.r2, "window": list(fit.window)}
            else:
                fits_doc[name] = fit
    cls_doc = None
    if classification is not None:
        cls_doc = {
            "labels": sorted(classification.labels),
            "admissibility_necessary_ok": classification.admissibility_necessary_ok,
            "exact_controllability_necessary_ok":
                classification.exact_controllability_necessary_ok,
        }
    digest = config_hash(config if config is not None else {})
    return DiagnosticsReport(
        label=system.label, lam=lam, config_digest=digest, verdicts=verdicts,
        tb_residual=tb, opeq_residual=opeq, spectrum_match=match,
        gain=gain_doc, conditioning=conditioning or {},
        gap_sum_tail_max=gap_sum_tail_max, compactness=compactness,
        decay_fits=fits_doc, classification=cls_doc)


# ---------------------------------------------------------------------------
# standalone SVG plots (no plotting dependency; data embedded as comments)
# ---------------------------------------------------------------------------

def _svg_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def svg_line_plot(path, series: dict, title: str, xlabel: str, ylabel: str,
                  logy: bool = False, width: int = 640, height: int = 420) -> None:
    """Write a minimal SVG 1.1 polyline chart.

    series maps a legend label to (x, y) arrays.  The raw data table is
    embedded in an XML comment so the artifact stays diffable and
    self-describing.
    """
    margin = 60
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    clean = {}
    for label, (x, y) in series.items():
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if logy:
            keep = y > 0
            x, y = x[keep], np.log10(y[keep])
        keep = np.isfinite(x) & np.isfinite(y)
        clean[label] = (x[keep], y[keep])
    xs = np.concatenate([v[0] for v in clean.values() if len(v[0])] or [np.zeros(1)])
    ys = np.concatenate([v[1] for v in clean.values() if len(v[1])] or [np.zeros(1)])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        "<!-- data table",
    ]
    for label, (x, y) in clean.items():
        lines.append(f"  series: {label}")
        for xv, yv in zip(x.tolist(), y.tolist()):
            lines.append(f"    {xv!r},{yv!r}")
    lines.append("-->")
    lines.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    lines.append(
        f'<text x="{width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_svg_escape(title)}</text>')
    axis = (f'M {margin} {margin} L {margin} {height - margin} '
            f'L {width - margin} {height - margin}')
    lines.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    ylab = _svg_escape(ylabel + (" (log10)" if logy else ""))
    lines.append(
        f'<text x="{width // 2}" y="{height - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_svg_escape(xlabel)}</text>')
    lines.append(
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {height // 2})">{ylab}</text>')
    for tick in np.linspace(x_lo, x_hi, 5):
        px = sx(tick)
        lines.append(f'<line x1="{px:.1f}" y1="{height - margin}" x2="{px:.1f}" '
                     f'y2="{height - margin + 5}" stroke="black"/>')
        lines.append(f'<text x="{px:.1f}" y="{height - margin + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tick:.3g}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        py = sy(tick)
        lines.append(f'<line x1="{margin - 5}" y1="{py:.1f}" x2="{margin}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        lines.append(f'<text x="{margin - 8}" y="{py + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{tick:.3g}</text>')
    for i, (label, (x, y)) in enumerate(clean.items()):
        color = palette[i % len(palette)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        lines.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                     f'font-family="sans-serif" font-size="10" fill="{color}">'
                     f'{_svg_escape(label)}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_report(report: DiagnosticsReport, path) -> None:
    write_json(path, report.to_json())


def report_roundtrip_identical(report: DiagnosticsReport) -> bool:
    """Canonical serialization is a fixed point: serialize, parse, re-serialize."""
    import json as _json
    text = canonical_json(report.to_json())
    return canonical_json(_json.loads(text)) == text
