"""Truncated transform assembly and certification of the operator identities.

The transform column for mode n is the gain-weighted, coefficient-weighted
resolvent sum: T[p][n] = -K_n b_p / (lambda_n - lambda_p + lam).  At
truncation it satisfies T b = b and the intertwining identity
T (A + b K^T) = (A - lam I) T exactly, so both residuals are rounding-level
certificates of a correct build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jsonio import matrix_from_json, matrix_to_json
from .spectral_core import SpectralBranch, admissible_r_interval
from .synthesis import (BranchGains, FeedbackLaw, cauchy_system_matrix,
                        solve_gains_direct)

__all__ = [
    "BranchTransform",
    "FredholmTransform",
    "ClosedLoopMatrix",
    "AssembledTransform",
    "transform_matrix",
    "build_transform",
    "build_system_transform",
    "control_diagonal",
    "normalized_resolvent",
    "closed_loop_matrix",
    "operator_equality_residual",
    "conditioning_profile",
    "conditioning_vs_truncation",
    "assemble_system_transform",
    "transform_to_json",
    "transform_from_json",
]


@dataclass(frozen=True)
class BranchTransform:
    """Truncated transform of one branch plus its certification residuals."""

    branch_index: int
    lam: float
    matrix: np.ndarray
    tb_residual: float
    opeq_residual: float
    conditioning: Optional[dict] = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("transform matrix must be square")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def N(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FredholmTransform:
    lam: float
    branches: tuple

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))

    def branch(self, index: int) -> BranchTransform:
        for bt in self.branches:
            if bt.branch_index == index:
                return bt
        raise KeyError(f"no transform for branch {index}")


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

    @property
    def rank_one_defect(self) -> float:
        """Second singular value of A_cl - diag(lambda).

        Zero to rounding certifies the rank-one feedback structure (all
        2x2 minors of the feedback part vanish).
        """
        feedback_part = self.matrix - np.diag(self.open_loop)
        svals = np.linalg.svd(feedback_part, compute_uv=False)
        return float(svals[1]) if len(svals) > 1 else 0.0


def control_diagonal(branch: SpectralBranch) -> np.ndarray:
    """Diagonal coefficient operator diag(b_n) in eigenvector coordinates."""
    return np.diag(branch.control_coeffs)


def normalized_resolvent(branch: SpectralBranch, lam: float):
    """Coefficient-ratio resolvent with entries b_p / (b_n (lambda_n - lambda_p + lam)).

    Returns the matrix and its zero-diagonal part; the diagonal is the
    constant 1/lam, so the operator is a compact perturbation of the
    scaled identity.
    """
    C = cauchy_system_matrix(branch, lam)
    b = branch.control_coeffs
    mat = (b[:, None] / b[None, :]) * C
    np.fill_diagonal(mat, 1.0 / lam)      # b_n/b_n cancels exactly
    compact = mat - np.eye(branch.N) / lam
    np.fill_diagonal(compact, 0.0)
    return mat, compact


def closed_loop_matrix(branch: SpectralBranch, gains: BranchGains) -> ClosedLoopMatrix:
    """Assemble diag(lambda_n) + b K^T and compute its dense spectrum."""
    if gains.N != branch.N:
        raise ValueError("gains and branch truncation differ")
    A = np.diag(branch.eigenvalues) + np.outer(branch.control_coeffs, gains.gains)
    spectrum = np.linalg.eigvals(A)
    return ClosedLoopMatrix(branch_index=branch.index, matrix=A, spectrum=spectrum,
                            open_loop=branch.eigenvalues)


def operator_equality_residual(T: np.ndarray, A_cl: np.ndarray,
                               branch: SpectralBranch, lam: float) -> float:
    """Frobenius-normalized residual of T A_cl = (diag(lambda_p) - lam I) T."""
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


def build_transform(branch: SpectralBranch, gains: BranchGains) -> BranchTransform:
    """Fill the transform matrix from the gains and certify it.

    tb_residual is ||T b - b|| / ||b||; opeq_residual is the normalized
    intertwining defect against the closed-loop matrix.
    """
    T = transform_matrix(branch, gains)
    lam = gains.lam
    b = branch.control_coeffs
    tb = float(np.linalg.norm(T @ b - b) / np.linalg.norm(b))
    A_cl = np.diag(branch.eigenvalues) + np.outer(b, gains.gains)
    opeq = operator_equality_residual(T, A_cl, branch, lam)
    return BranchTransform(branch_index=branch.index, lam=lam, matrix=T,
                           tb_residual=tb, opeq_residual=opeq)


def build_system_transform(system, law: FeedbackLaw) -> FredholmTransform:
    branches = tuple(build_transform(b, law.branch(b.index)) for b in system.branches)
    return FredholmTransform(lam=law.lam, branches=branches)


def conditioning_profile(T: np.ndarray, r_list, alpha: float, gamma: float,
                         beta: float = 0.0, convention: str = "symmetric") -> dict:
    """Condition numbers of the weighted conjugations diag(n^r) T diag(n^-r).

    Every r must lie inside the open isomorphism interval; a bounded,
    N-stable profile is the finite-truncation proxy for the isomorphism
    property.
    """
    lo, hi = admissible_r_interval(alpha, gamma, beta=beta, convention=convention)
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


def conditioning_vs_truncation(branch: SpectralBranch, lam: float, r: float,
                               levels=None, convention: str = "symmetric") -> dict:
    """Weighted condition number re-synthesized at nested truncations.

    Defaults to N/4, N/2, N.  A plateau (small variation between levels)
    is the finite-truncation proxy for the isomorphism property.
    """
    if levels is None:
        levels = sorted({max(1, branch.N // 4), max(1, branch.N // 2), branch.N})
    profile = {}
    for n in levels:
        sub = branch.truncated(int(n))
        T = build_transform(sub, solve_gains_direct(sub, lam))
        profile[int(n)] = conditioning_profile(
            T.matrix, [r], branch.alpha, branch.gamma,
            beta=branch.beta, convention=convention)[float(r)]
    return profile


@dataclass(frozen=True)
class AssembledTransform:
    """Block-diagonal transform over all branches, with branch-wise inverse."""

    lam: float
    matrix: np.ndarray
    inverse: np.ndarray
    block_sizes: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).copy()
        mi = np.asarray(self.inverse, dtype=complex).copy()
        m.flags.writeable = False
        mi.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", mi)


def assemble_system_transform(transforms) -> AssembledTransform:
    """Stack branch transforms into one block-diagonal operator.

    All branches must share the shift and the truncation level; the
    inverse is assembled branch-wise.
    """
    transforms = list(transforms)
    if not transforms:
        raise ValueError("nothing to assemble")
    lam = transforms[0].lam
    N = transforms[0].N
    for bt in transforms[1:]:
        if bt.lam != lam:
            raise ValueError(f"mismatched shift: {bt.lam} != {lam}")
        if bt.N != N:
            raise ValueError(f"mismatched truncation: {bt.N} != {N}")
    total = sum(bt.N for bt in transforms)
    big = np.zeros((total, total), dtype=complex)
    big_inv = np.zeros_like(big)
    offset = 0
    for bt in transforms:
        sl = slice(offset, offset + bt.N)
        big[sl, sl] = bt.matrix
        big_inv[sl, sl] = np.linalg.inv(bt.matrix)
        offset += bt.N
    return AssembledTransform(lam=lam, matrix=big, inverse=big_inv,
                              block_sizes=tuple(bt.N for bt in transforms))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def transform_to_json(transform: FredholmTransform) -> dict:
    return {
        "lambda": float(transform.lam),
        "branches": [
            {
                "i": bt.branch_index,
                "matrix": matrix_to_json(bt.matrix),
                "tb_residual": float(bt.tb_residual),
                "opeq_residual": float(bt.opeq_residual),
            }
            for bt in transform.branches
        ],
    }


def transform_from_json(doc: dict) -> FredholmTransform:
    try:
        lam = float(doc["lambda"])
        branches = tuple(
            BranchTransform(branch_index=int(bd["i"]), lam=lam,
                            matrix=matrix_from_json(bd["matrix"]),
                            tb_residual=float(bd["tb_residual"]),
                            opeq_residual=float(bd["opeq_residual"]))
            for bd in doc["branches"]
        )
    except KeyError as exc:
        raise ValueError(f"transform document missing field {exc}") from exc
    return FredholmTransform(lam=lam, branches=branches)
