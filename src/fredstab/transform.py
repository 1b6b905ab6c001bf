"""Truncated transform assembly and certification of the operator identities.

The transform column for mode n is the gain-weighted, coefficient-weighted
resolvent sum: T[p][n] = -K_n b_p / (lambda_n - lambda_p + lam).  At
truncation it satisfies T b = b and the intertwining identity
T (A + b K^T) = (A - lam I) T exactly, so both residuals are rounding-level
certificates of a correct build.

T is fixed by O(N) data per branch, and no object keeps it: transform_matrix
builds it on demand, and build_transform returns its O(N) certificate
(BranchCertificate), the record transform.json stores.  Every reader that
needs T rebuilds it from the branch and its gains.

The closed loop A_cl = diag(lambda) + b K^T is a rank-one update, so its
certificates need no N x N closed-loop matrix: the intertwining defect is
T diag(lambda) + (T b) K^T - (diag(lambda) - lam) T, and the spectrum check
is the secular equation det(z - A_cl) = det(z - diag(lambda)) (1 + sum_n
x_n / (z - lambda_n)), whose value at z_p = lambda_p - lam is 1 - (C x)_p.
closed_loop_matrix and operator_equality_residual are the dense O(N^3)
forms, kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .jsonio import cpairs, from_cpairs
from .spectral_core import SpectralBranch, admissible_r_interval
from .synthesis import BranchGains, cauchy_system_matrix, solve_gains_direct

__all__ = [
    "ClosedLoopMatrix",
    "BranchCertificate",
    "TRANSFORM_SCHEMA",
    "transform_matrix",
    "build_transform",
    "secular_newton_steps",
    "closed_loop_matrix",
    "operator_equality_residual",
    "conditioning_profile",
    "admissible_conditioning",
    "conditioning_vs_truncation",
    "transform_to_json",
    "transform_from_json",
]


@dataclass(frozen=True)
class BranchCertificate:
    """O(N) certificate of one branch transform, as transform.json stores it.

    T itself is not kept: it is a pure function of the branch and its gains
    (transform_matrix), so a reader rebuilds it from system.json and
    law.json and compares the rebuild against this certificate.
    """

    branch_index: int
    lam: float
    diagonal: np.ndarray
    column_norms: np.ndarray
    frobenius: float
    tb_residual: float
    opeq_residual: float

    @property
    def N(self) -> int:
        return len(self.diagonal)


@dataclass(frozen=True)
class ClosedLoopMatrix:
    """diag(lambda) + outer(b, K) for one branch, with its full spectrum."""

    branch_index: int
    matrix: np.ndarray
    spectrum: np.ndarray
    open_loop: np.ndarray

    def __post_init__(self):
        for name in ("matrix", "spectrum", "open_loop"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def closed_loop_matrix(branch: SpectralBranch, gains: BranchGains) -> ClosedLoopMatrix:
    """Assemble diag(lambda_n) + b K^T and compute its dense spectrum (oracle)."""
    if gains.N != branch.N:
        raise ValueError("gains and branch truncation differ")
    A = np.diag(branch.eigenvalues) + np.outer(branch.control_coeffs, gains.gains)
    spectrum = np.linalg.eigvals(A)
    return ClosedLoopMatrix(branch_index=branch.index, matrix=A, spectrum=spectrum,
                            open_loop=branch.eigenvalues)


def operator_equality_residual(T: np.ndarray, A_cl: np.ndarray,
                               branch: SpectralBranch, lam: float) -> float:
    """Frobenius-normalized residual of T A_cl = (diag(lambda_p) - lam I) T.

    Dense O(N^3) oracle of the opeq_residual that build_transform computes.
    """
    shifted = np.diag(branch.eigenvalues - lam)
    num = np.linalg.norm(T @ A_cl - shifted @ T)
    den = np.linalg.norm(T) * np.linalg.norm(A_cl)
    return float(num / den) if den > 0 else 0.0


def transform_matrix(branch: SpectralBranch, gains: BranchGains) -> np.ndarray:
    """Uncertified transform matrix T[p][n] = -K_n b_p / (lambda_n - lambda_p + lam).

    Real when the spectrum, coefficients and gains are real.
    """
    if gains.N != branch.N:
        raise ValueError("gains and branch truncation differ")
    # In place (one N x N temporary fewer), keeping the operand order of
    # (-K) * (b C): with complex gains, the bytes of transform.json depend on it.
    T = branch.control_coeffs[:, None] * cauchy_system_matrix(branch, gains.lam)
    return np.multiply(-gains.gains[None, :], T, out=T)


def build_transform(branch: SpectralBranch, gains: BranchGains) -> BranchCertificate:
    """Build T from the gains and return its O(N) certificate; T is not kept.

    tb_residual is ||T b - b|| / ||b||.  opeq_residual is the intertwining
    defect ||T diag(lambda) + (T b) K^T - (diag(lambda) - lam) T||_F divided
    by ||T||_F ||A_cl||_F, in O(N^2): ||A_cl||_F^2 = ||lambda||^2
    + 2 Re sum conj(lambda_n) b_n K_n + ||b||^2 ||K||^2, so A_cl is never formed.
    """
    T = transform_matrix(branch, gains)
    lam = gains.lam
    b = branch.control_coeffs
    ev = branch.eigenvalues
    K = gains.gains
    Tb = T @ b
    tb = float(np.linalg.norm(Tb - b) / np.linalg.norm(b))
    diagonal = np.diagonal(T).copy()
    column_norms = np.linalg.norm(T, axis=0)
    frobenius = float(np.linalg.norm(T))
    # The defect overwrites T, so at most two N x N matrices are live.
    tmp = T * (ev - lam)[:, None]
    defect = np.multiply(T, ev[None, :], out=T)
    defect -= tmp
    defect += np.multiply(Tb[:, None], K[None, :], out=tmp)
    a_cl_sq = (np.linalg.norm(ev) ** 2 + 2.0 * float(np.real(np.sum(np.conj(ev) * b * K)))
               + (np.linalg.norm(b) * np.linalg.norm(K)) ** 2)
    den = frobenius * np.sqrt(max(a_cl_sq, 0.0))
    opeq = float(np.linalg.norm(defect) / den) if den > 0 else 0.0
    return BranchCertificate(branch_index=branch.index, lam=lam, diagonal=diagonal,
                             column_norms=column_norms, frobenius=frobenius,
                             tb_residual=tb, opeq_residual=opeq)


def secular_newton_steps(branch: SpectralBranch, gains: BranchGains) -> np.ndarray:
    """Newton steps from each target lambda_p - lam to the nearest closed-loop root.

    With f(z) = 1 + sum_n x_n / (z - lambda_n), the secular function of
    A_cl = diag(lambda) + b K^T, f(z_p) = 1 - (C x)_p and f'(z_p) =
    -((C o C) x)_p at z_p = lambda_p - lam, so step_p = (1 - (C x)_p) /
    ((C o C) x)_p and z_p + step_p is the Newton-refined root.  O(N^2).
    """
    if gains.N != branch.N:
        raise ValueError("gains and branch truncation differ")
    C = cauchy_system_matrix(branch, gains.lam)
    x = gains.products
    residual = 1.0 - C @ x
    slope = np.square(C, out=C) @ x
    return residual / slope


def conditioning_profile(T: np.ndarray, r_list, alpha: float, gamma: float,
                         beta: float = 0.0) -> dict:
    """Condition numbers of the weighted conjugations diag(n^r) T diag(n^-r).

    Every r must lie inside the open isomorphism interval; a bounded,
    N-stable profile is the finite-truncation proxy for the isomorphism
    property.
    """
    lo, hi = admissible_r_interval(alpha, gamma, beta=beta)
    N = T.shape[0]
    n = np.arange(1, N + 1, dtype=float)
    profile = {}
    for r in r_list:
        if not lo < r < hi:
            raise ValueError(
                f"r={r} outside the admissible open interval ({lo}, {hi})")
        weighted = (n[:, None] ** r) * T * (n[None, :] ** (-r))
        profile[float(r)] = float(np.linalg.cond(weighted))
    return profile


def admissible_conditioning(branch: SpectralBranch, gains: BranchGains, r_list) -> dict:
    """Condition numbers of the branch transform at the admissible r of r_list.

    conditioning_profile at the r inside the branch's admissible interval;
    the others are left out, and T is not built when none is inside.
    """
    lo, hi = admissible_r_interval(branch.alpha, branch.gamma, beta=branch.beta)
    inside = [r for r in r_list if lo < r < hi]
    if not inside:
        return {}
    return conditioning_profile(transform_matrix(branch, gains), inside,
                                branch.alpha, branch.gamma, beta=branch.beta)


def conditioning_vs_truncation(branch: SpectralBranch, lam: float, r: float) -> dict:
    """Weighted condition number re-synthesized at the truncations N/4, N/2, N.

    A plateau (small variation between levels) is the finite-truncation
    proxy for the isomorphism property.
    """
    levels = sorted({max(1, branch.N // 4), max(1, branch.N // 2), branch.N})
    profile = {}
    for n in levels:
        sub = branch.truncated(int(n))
        T = transform_matrix(sub, solve_gains_direct(sub, lam))
        profile[int(n)] = conditioning_profile(
            T, [r], branch.alpha, branch.gamma, beta=branch.beta)[float(r)]
    return profile


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TRANSFORM_SCHEMA = "fredstab-transform/2"


def transform_to_json(lam: float, certificates) -> dict:
    """transform.json document of the branch certificates, in the given order."""
    branches = [{
        "i": cert.branch_index,
        "N": cert.N,
        "diagonal": cpairs(cert.diagonal),
        "column_norms": cert.column_norms,
        "frobenius": cert.frobenius,
        "tb_residual": float(cert.tb_residual),
        "opeq_residual": float(cert.opeq_residual),
    } for cert in certificates]
    return {"schema": TRANSFORM_SCHEMA, "lambda": float(lam), "branches": branches}


def transform_from_json(doc: dict) -> dict[int, BranchCertificate]:
    """Stored branch certificates of a transform document, keyed by branch index.

    Documents without the current schema tag, including the schema-1 files
    that stored all of T, are refused with a ConfigError.
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TRANSFORM_SCHEMA:
        raise ConfigError(
            f"transform document has schema {schema!r}, expected "
            f"{TRANSFORM_SCHEMA!r}; run synthesize again")
    certs = {}
    try:
        lam = float(doc["lambda"])
        for bd in doc["branches"]:
            cert = BranchCertificate(
                branch_index=int(bd["i"]), lam=lam,
                diagonal=from_cpairs(bd["diagonal"]),
                column_norms=np.asarray(bd["column_norms"], dtype=float),
                frobenius=float(bd["frobenius"]),
                tb_residual=float(bd["tb_residual"]),
                opeq_residual=float(bd["opeq_residual"]))
            if not int(bd["N"]) == cert.N == cert.column_norms.size:
                raise ValueError(
                    f"transform branch {cert.branch_index}: N={bd['N']} but "
                    f"{cert.N} diagonal entries and {cert.column_norms.size} "
                    "column norms")
            certs[cert.branch_index] = cert
    except KeyError as exc:
        raise ValueError(f"transform document missing field {exc}") from exc
    return certs
