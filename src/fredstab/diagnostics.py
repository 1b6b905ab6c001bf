"""The certification report and plot rendering.

make_report returns the report.json document: everything needed to
re-derive the run, namely assumption verdicts, normalization and
intertwining residuals, the spectrum-shift match, gain-profile
statistics, conditioning and compactness proxies, decay fits and the
controllability classification, stamped with the configuration hash.  It
is a pure function of the system, the law, branch 1's kernel, the
certificates of transform.build_transform and the numbers the caller
derived from them (conditioning, decay fits); cli_io's report builder is
its one production caller, and jsonio.write_json serializes it canonically.
The inverse-gap tail and the compactness proxy read the kernel's C itself:
the proxy is transform's Lanczos norm estimate with the diagonal shift
-1/lam, so the off-diagonal resolvent S_c = C - I / lam is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import config_hash, overwrite
from .spectral_core import (AssumptionVerdict, SpectralBranch, SpectralSystem,
                            classify_controllability, verify_assumptions)
from .synthesis import (BranchGains, BranchKernel, FeedbackLaw,
                        inverse_gap_sum_profile)
from .transform import BranchCertificate, _spectral_norm

__all__ = [
    "REPORT_SCHEMA",
    "GainTrend",
    "compactness_proxy",
    "gain_trend",
    "spectrum_match_error",
    "secular_match_error",
    "make_report",
    "worst",
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


PLOT_WIDTH = 640     # SVG canvas, pixels
PLOT_HEIGHT = 420


def compactness_proxy(kernel: BranchKernel, r: float, eps: float) -> float:
    """||diag(n^(r+eps)) S_c diag(n^-r)||_2 of the kernel's S_c = C - I / lam.

    eps must lie in the open interval (0, min((alpha-1)/2, alpha+r-1/2)),
    alpha the growth order of the kernel's branch.  The Lanczos estimate
    of transform's certificates, on C with the diagonal shift -1/lam, so
    S_c is never formed; a bounded-in-N profile of this norm is the
    finite-truncation compactness proxy.
    """
    alpha = kernel.branch.alpha
    hi = min((alpha - 1.0) / 2.0, alpha + r - 0.5)
    if not 0.0 < eps < hi:
        raise ValueError(f"eps={eps} outside the open interval (0, {hi})")
    n = kernel.branch.mode_indices.astype(float)
    return _spectral_norm(kernel.C, n ** (r + eps), n ** (-r), shift=-1.0 / kernel.lam)


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


def secular_match_error(branch: SpectralBranch, certificate: BranchCertificate) -> float:
    """Max over p of |step_p| / |lambda_p - lam|, the secular spectrum certificate.

    step_p is the Newton step from lambda_p - lam to the nearest root of the
    closed-loop secular equation that transform.build_transform puts in the
    certificate, so this is the relative distance from each target to the
    spectrum.  A certificate read back from transform.json has no steps.
    """
    target = branch.eigenvalues - certificate.lam
    return float(np.max(np.abs(certificate.secular_steps)
                        / np.maximum(np.abs(target), 1e-30)))


def worst(values) -> float:
    """The largest of the per-branch values; a NaN among them is the result.

    The builtin max keeps whichever value comes first when one is NaN, so a
    NaN branch could hide behind a clean one; np.max propagates it.
    """
    return float(np.max(list(values)))


def _verdict_json(v: AssumptionVerdict) -> dict:
    doc = {
        "ok": v.ok,
        "growth": {
            "ok": v.growth.ok, "c_low": v.growth.c_low, "c_high": v.growth.c_high,
            "ratio": v.growth.ratio, "alpha_hat": v.growth.alpha_hat,
            "witness_low": v.growth.witness_low, "witness_high": v.growth.witness_high,
        },
        "gap": {
            "ok": v.gap.ok, "constant": v.gap.constant,
            "witness": list(v.gap.witness), "floor": v.gap.floor,
        },
        "control": {
            "ok": v.control.ok, "c1_hat": v.control.c1_hat, "c2_hat": v.control.c2_hat,
            "beta_hat": v.control.beta_hat, "gamma_hat": v.control.gamma_hat,
        },
    }
    # too few modes for a fit (N < 3) leaves NaN slopes, and N = 1 an infinite gap
    for section in doc.values():
        if isinstance(section, dict):
            section.update({k: None for k, x in section.items()
                            if isinstance(x, float) and not np.isfinite(x)})
    return doc


def make_report(system: SpectralSystem, law: FeedbackLaw, certificates,
                kernel: BranchKernel, decay_fits, config: dict) -> dict:
    """The report.json document of a system, its law and its certificates.

    certificates holds one transform.build_transform certificate per
    branch; the report carries their worst tb and opeq residuals and, as
    the spectrum match, their worst secular_match_error (worst: a NaN
    branch makes the value NaN, which the JSON writer refuses).
    The conditioning, r -> kappa_r, is that of kernel's branch certificate.
    decay_fits maps scenario names to a DecayFit or None (no fit); None for
    the whole section means no scenario was simulated.  The verdicts, gain
    trends, inverse-gap tail, compactness proxy and classification are
    derived here from branch 1 and the law, the tail and the proxy from
    kernel (branch 1's) without forming its S_c; config is hashed into config_hash.
    """
    lam = law.lam
    b0 = system.branches[0]
    certificates = {c.branch_index: c for c in certificates}
    trends = [gain_trend(bg) if bg.N >= 16 else None for bg in law.branches]
    _, tail_max = inverse_gap_sum_profile(kernel)
    eps_hi = min((b0.alpha - 1.0) / 2.0, b0.alpha - 0.5)
    try:
        classification = classify_controllability(b0, 0.0)
    except ValueError:
        classification = None
    return {
        "schema": REPORT_SCHEMA,
        "label": system.label,
        "lambda": float(lam),
        "config_hash": config_hash(config),
        "assumptions": [_verdict_json(verify_assumptions(b)) for b in system.branches],
        "tb_residual": worst(c.tb_residual for c in certificates.values()),
        "opeq_residual": worst(c.opeq_residual for c in certificates.values()),
        "spectrum_match_error": worst(
            secular_match_error(b, certificates[b.index]) for b in system.branches),
        "gain_profile": {
            "sup_product": worst(bg.sup_product for bg in law.branches),
            "per_branch": [
                None if tr is None else {
                    "sup_product": tr.sup_product,
                    "sup_correction": tr.sup_correction,
                    "quartile_ratio": tr.quartile_ratio,
                }
                for tr in trends
            ],
        },
        "conditioning": {f"{r:g}": kappa for r, kappa
                         in certificates[kernel.branch.index].conditioning.items()},
        "gap_sum_tail_max": tail_max,
        "compactness": {"eps": eps_hi / 2.0,
                        "norm": compactness_proxy(kernel, 0.0, eps_hi / 2.0)},
        "decay_fits": None if decay_fits is None else {
            name: None if fit is None else {"mu_hat": fit.mu_hat, "c_hat": fit.c_hat,
                                            "r2": fit.r2, "window": list(fit.window)}
            for name, fit in decay_fits.items()},
        "classification": None if classification is None else {
            "labels": sorted(classification.labels),
            "admissibility_necessary_ok": classification.admissibility_necessary_ok,
            "exact_controllability_necessary_ok":
                classification.exact_controllability_necessary_ok,
        },
    }


# ---------------------------------------------------------------------------
# standalone SVG plots (no plotting dependency; data embedded as comments)
# ---------------------------------------------------------------------------

def _svg_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def svg_line_plot(path, series: dict, title: str, xlabel: str, ylabel: str,
                  logy: bool = False) -> None:
    """Write a minimal SVG 1.1 polyline chart of PLOT_WIDTH x PLOT_HEIGHT pixels.

    series maps a legend label to (x, y) arrays.  The raw data table is
    embedded in an XML comment so the artifact stays diffable and
    self-describing.
    """
    width, height = PLOT_WIDTH, PLOT_HEIGHT
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
        # sx and sy on whole arrays round each point as on a scalar
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx(x).tolist(), sy(y).tolist()))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        lines.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                     f'font-family="sans-serif" font-size="10" fill="{color}">'
                     f'{_svg_escape(label)}</text>')
    lines.append("</svg>")
    with overwrite(path) as fh:
        fh.write("\n".join(lines))
        fh.write("\n")

