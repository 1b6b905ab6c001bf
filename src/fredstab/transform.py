"""Truncated transform assembly and certification of the operator identities.

The transform column for mode n is the gain-weighted, coefficient-weighted
resolvent sum: T[p][n] = -K_n b_p / (lambda_n - lambda_p + lam), so
T = diag(b) C diag(-K) with the Cauchy matrix C.  At truncation it
satisfies T b = b and the intertwining identity T (A + b K^T) = (A - lam I) T
exactly, so both residuals are rounding-level certificates of a correct
build.

T is fixed by O(N) data per branch, and no stage forms it whole:
build_transform returns its O(N) certificate (BranchCertificate, the record
transform.json stores) from one row-blocked pass over the Cauchy matrix C
of the branch's synthesis.BranchKernel; transform_matrix, all of T, is the
dense oracle of the tests.  The certificate rests on the residual
r = 1 - C x of the gain products x.  The closed loop A_cl = diag(lambda) +
b K^T is a rank-one update, so T b - b = -b o r, the intertwining defect is
(T b - b) K^T, and the secular equation det(z - A_cl) = det(z -
diag(lambda)) (1 + sum_n x_n / (z - lambda_n)) has the value r_p at
z_p = lambda_p - lam: tb, opeq and the spectrum check are three weightings
of r, and law.json's tb_residual is ||r|| / sqrt(N).

T has the explicit inverse T^-1 = diag(b) C^T diag(w / b), where w = C^-T 1
is the closed-form product of the negated spectrum (the kernel's w), so
neither the weighted condition number kappa_r nor simulate's semigroup
factorizes: build_transform takes ||W T W^-1||_2 and ||W T^-1 W^-1||_2,
W = diag(n^r), for the admissible r it is given, from Golub-Kahan-Lanczos
bidiagonalizations that only multiply by C and C^T.  On a skew-adjoint
branch (a purely imaginary spectrum at a real shift) C is Hermitian and
w = conj(x), so T^-1 is conj(T) up to the unitary diagonal similarity
diag(b / conj(b)), ||W T^-1 W^-1||_2 = ||W T W^-1||_2, and one Lanczos norm
gives kappa_r.  closed_loop_matrix and conditioning_profile (an SVD per r)
are the dense O(N^3) forms, kept as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .jsonio import cpairs, from_cpairs, from_number, from_numbers
from .spectral_core import SpectralBranch, admissible_r_interval, row_blocks
from .synthesis import BranchGains, BranchKernel, cauchy_system_matrix, _matvec

__all__ = [
    "ClosedLoopMatrix",
    "BranchCertificate",
    "TRANSFORM_SCHEMA",
    "transform_matrix",
    "build_transform",
    "closed_loop_matrix",
    "conditioning_profile",
    "conditioning_vs_truncation",
    "transform_to_json",
    "transform_from_json",
]


@dataclass(frozen=True)
class BranchCertificate:
    """O(N) certificate of one branch transform, as transform.json stores it.

    T itself is not kept: it is a pure function of the branch and its gains
    (transform_matrix), so a reader rebuilds it from system.json and
    law.json and compares the rebuild against this certificate.  The
    residual r = 1 - C x, the secular_steps and the conditioning of
    build_transform are not stored (None when read back).
    """

    branch_index: int
    lam: float
    diagonal: np.ndarray
    column_norms: np.ndarray
    frobenius: float
    tb_residual: float
    opeq_residual: float
    residual: np.ndarray | None = None
    secular_steps: np.ndarray | None = None
    conditioning: dict | None = None

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


def transform_matrix(branch: SpectralBranch, gains: BranchGains) -> np.ndarray:
    """Uncertified transform matrix T[p][n] = -K_n b_p / (lambda_n - lambda_p + lam)."""
    if gains.N != branch.N:
        raise ValueError("gains and branch truncation differ")
    # (-K) * (b C), in this operand order, as build_transform forms its rows:
    # with complex gains, the bytes of transform.json depend on it
    return -gains.gains * (branch.control_coeffs[:, None]
                           * cauchy_system_matrix(branch, gains.lam))


def build_transform(kernel: BranchKernel, gains: BranchGains,
                    r_list=()) -> BranchCertificate:
    """Certify a branch from its kernel's C and r = 1 - C x, x = gains.products.

    One pass over C, in the blocks of spectral_core.row_blocks, forms each
    block of T = diag(b) C diag(-K) and fills r, (C o C) x and the column
    sums of |T|^2: no N x N array.  T's diagonal, -K_n (b_n C_nn), comes
    from O(N) data with the bits of T's entries.  A real C (a real
    spectrum) takes x in real products (synthesis._matvec), and its blocks
    of T are real when b and K are.  Stacking each block under the running
    sums keeps the row order, so column_norms has the bits of
    np.linalg.norm(T, axis=0).  frobenius = sqrt(sum(column_norms^2)) is a
    numpy sum, not the BLAS dot of np.linalg.norm(T) that OpenBLAS splits
    over threads.  tb_residual = ||b o r|| / ||b|| = ||T b - b|| / ||b||;
    opeq_residual = ||K|| ||b o r|| / (||T||_F ||A_cl||_F) is the norm of
    the intertwining defect (T b - b) K^T, with ||A_cl||_F^2 = ||lambda||^2
    + 2 Re sum conj(lambda_n) b_n K_n + ||b||^2 ||K||^2.  secular_steps =
    r / ((C o C) x) are the Newton steps from each target lambda_p - lam to
    the nearest root of the closed-loop secular function.  conditioning
    maps each r of r_list inside the admissible interval to kappa_r =
    ||W T W^-1||_2 ||W T^-1 W^-1||_2, W = diag(n^r), from two Lanczos norm
    estimates, or from one squared on a skew-adjoint branch
    (_weighted_conditioning; about 10 steps per norm on Schrodinger, 30 on
    heat), and is empty when none is.  It agrees with the
    dense conditioning_profile to 1e-12 * max(1, kappa) relative on random
    admissible branches (N <= 32), and to about 1e-15 at the benchmark sizes.

    T, tb and opeq are taken from b 2^-k and K 2^k, k the binary exponent
    of max |b| (_ldexp, exact): they leave T as it is, and no norm of b or
    K under- or overflows, so the certificate does not see the scale of b.
    """
    branch, C = kernel.branch, kernel.C
    if gains.N != branch.N or gains.lam != kernel.lam:
        raise ValueError("gains and kernel differ in truncation or shift")
    ev, N, x = branch.eigenvalues, branch.N, gains.products
    k = int(np.frexp(np.max(np.abs(branch.control_coeffs)))[1])
    b, K = _ldexp(branch.control_coeffs, -k), _ldexp(gains.gains, k)
    real = np.isrealobj(C) and not (np.any(b.imag) or np.any(K.imag))
    bT, KT = (b.real, K.real) if real else (b, K)
    Cx, CCx, sums = [], [], np.zeros(N)
    for i, j in row_blocks(N):
        rows = C[i:j]
        Cx.append(_matvec(rows, x))
        CCx.append(_matvec(np.square(rows), x))
        T = -KT * (bT[i:j, None] * rows)        # the operand order of transform_matrix
        sums = np.add.reduce(np.vstack((sums, (T.conj() * T).real)), axis=0)
    residual = 1.0 - np.concatenate(Cx)
    with np.errstate(invalid="ignore"):     # NaN gains give NaN steps, refused downstream
        steps = residual / np.concatenate(CCx)
    # from the complex b and K even when the blocks are real: their products
    # give T's diagonal, signed zeros of the imaginary parts included
    diagonal = -K * (b * np.diagonal(C))
    column_norms = np.sqrt(sums)
    frobenius = float(np.sqrt(np.sum(column_norms ** 2)))
    lo, hi = admissible_r_interval(branch.alpha, branch.gamma, beta=branch.beta)
    conditioning = _weighted_conditioning(kernel, gains.gains,
                                          [r for r in r_list if lo < r < hi])
    defect = np.linalg.norm(b * residual)     # ||T b - b|| = ||b o r||
    tb = float(defect / np.linalg.norm(b))
    a_cl_sq = (np.linalg.norm(ev) ** 2 + 2.0 * float(np.real(np.sum(np.conj(ev) * b * K)))
               + (np.linalg.norm(b) * np.linalg.norm(K)) ** 2)
    den = frobenius * np.sqrt(max(a_cl_sq, 0.0))
    opeq = float(np.linalg.norm(K) * defect / den) if den > 0 else 0.0
    return BranchCertificate(branch_index=branch.index, lam=gains.lam, diagonal=diagonal,
                             column_norms=column_norms, frobenius=frobenius,
                             tb_residual=tb, opeq_residual=opeq, residual=residual,
                             secular_steps=steps, conditioning=conditioning)


def _ldexp(z: np.ndarray, k: int) -> np.ndarray:
    """z 2^k, from np.ldexp on the float view: exact unless a part underflows.

    z * 2.0 ** k would go through numpy's complex-by-real loop, which flips
    the sign of some zero imaginary parts.
    """
    return np.ldexp(np.ascontiguousarray(z).view(float), k).view(complex)


def conditioning_profile(T: np.ndarray, r_list, alpha: float, gamma: float,
                         beta: float = 0.0) -> dict:
    """Condition numbers of the weighted conjugations diag(n^r) T diag(n^-r).

    Every r must lie inside the open isomorphism interval; a bounded,
    N-stable profile is the finite-truncation proxy for the isomorphism
    property.  Dense O(N^3) oracle (an SVD per r) of build_transform's
    conditioning.
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


# Lanczos stops when the top Ritz value moves by at most this many ulps.
RITZ_ULPS = 4


def _start_vector(N: int) -> np.ndarray:
    """Fixed unit start vector: the golden-ratio Weyl sequence, centred."""
    v = (np.arange(1, N + 1) * 0.6180339887498949 + 0.5) % 1.0 - 0.5
    return v / np.linalg.norm(v)


def _spectral_norm(M: np.ndarray, left: np.ndarray, right: np.ndarray,
                   shift: float = 0.0) -> float:
    """||diag(left) (M + shift I) diag(right)||_2 by Golub-Kahan-Lanczos bidiagonalization.

    A is applied as left * (M x + shift x), x = right * v, and A^H as
    conj(right * (M^T y + shift y)), y = left * conj(u), so neither A nor
    M + shift I is formed; a real M takes complex x and y in real products
    (synthesis._matvec).  Both Lanczos bases are fully reorthogonalized
    (two Gram-Schmidt passes) and start from _start_vector, so every run
    gives the same bits.  After k steps A V_k = U_k B_k with B_k upper
    bidiagonal; the top Ritz value is the square root of the largest
    eigenvalue of the tridiagonal B_k^T B_k.  The iteration stops when that
    value moves by at most RITZ_ULPS ulps, when the Krylov space is
    invariant, or after N steps; a zero alpha (the zero operator) ends it
    with the Ritz value so far, 0.0 at the first step.
    """
    N = M.shape[0]
    eps = np.finfo(float).eps
    v = _start_vector(N)
    U, V = [], [v]
    alphas, betas = [], []
    sigma = 0.0
    for _ in range(N):
        x = right * v
        u = left * (_matvec(M, x) + shift * x)
        if U:
            u -= betas[-1] * U[-1]
            u = _orthogonalized(u, U)
        alpha = float(np.linalg.norm(u))
        if alpha == 0.0:
            return sigma
        u /= alpha
        U.append(u)
        alphas.append(alpha)
        y = left * np.conj(u)
        z = np.conj(right * (_matvec(M.T, y) + shift * y)) - alpha * v
        z = _orthogonalized(z, V)
        beta = float(np.linalg.norm(z))
        a, b = np.array(alphas), np.array(betas)
        gram = np.diag(a ** 2 + np.concatenate(([0.0], b ** 2)))
        gram += np.diag(a[:-1] * b, 1) + np.diag(a[:-1] * b, -1)
        prev, sigma = sigma, float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
        if sigma - prev <= RITZ_ULPS * eps * sigma or beta <= eps * sigma:
            break
        v = z / beta
        V.append(v)
        betas.append(beta)
    return sigma


def _orthogonalized(z: np.ndarray, basis: list) -> np.ndarray:
    """z with its components along the orthonormal rows of basis removed, twice."""
    Q = np.array(basis)
    for _ in range(2):
        z = z - (Q.conj() @ z) @ Q
    return z


def _weighted_conditioning(kernel: BranchKernel, gains: np.ndarray, r_list) -> dict:
    """kappa_r = ||W T W^-1||_2 ||W T^-1 W^-1||_2, W = diag(n^r), for each r.

    T = diag(b) C diag(-K) and its explicit inverse T^-1 = diag(b) C^T
    diag(w / b) share the kernel's C and w, which are left as they are;
    both norms are Lanczos estimates (_spectral_norm), real when C (a real
    spectrum), b and K are.  On a skew-adjoint branch (kernel.skew_adjoint)
    the two norms are equal, so kappa_r is the first one squared and w is
    not read.
    Nothing is computed for an empty r_list.
    """
    if not r_list:
        return {}
    branch, C = kernel.branch, kernel.C
    b, K = branch.control_coeffs, gains
    w = None if kernel.skew_adjoint else kernel.w
    if np.isrealobj(C) and not (np.any(b.imag) or np.any(K.imag)):
        b, K, w = b.real, K.real, w.real
    n = branch.mode_indices.astype(float)
    profile = {}
    for r in r_list:
        scale = n ** r
        norm = _spectral_norm(C, scale * b, -K / scale)
        profile[float(r)] = (norm ** 2 if w is None
                             else norm * _spectral_norm(C.T, scale * b, w / (b * scale)))
    return profile


def conditioning_vs_truncation(kernel: BranchKernel, certificate: BranchCertificate) -> dict:
    """kappa_0 re-synthesized at the truncations N/4, N/2, N.

    A plateau (small variation between levels) is the finite-truncation
    proxy for the isomorphism property.  certificate is build_transform's
    of the kernel's branch: the level N is its kappa_0 when it has one.
    Every other level takes the closed-form gains of its truncation and
    the structured kappa_0 of build_transform from kernel.truncated, whose
    C is the leading block of the kernel's and whose cached products give
    the gains (at the full level, the kernel's own).  r = 0 outside the
    admissible interval raises ValueError.
    """
    branch = kernel.branch
    lo, hi = admissible_r_interval(branch.alpha, branch.gamma, beta=branch.beta)
    if not lo < 0.0 < hi:
        raise ValueError(f"r=0 outside the admissible open interval ({lo}, {hi})")
    levels = sorted({max(1, branch.N // 4), max(1, branch.N // 2), branch.N})
    profile = {}
    for n in levels:
        if n == branch.N and 0.0 in certificate.conditioning:
            profile[n] = certificate.conditioning[0.0]
            continue
        sub = kernel.truncated(n)
        gains = -sub.products / sub.branch.control_coeffs     # as solve_gains_direct
        profile[n] = _weighted_conditioning(sub, gains, [0.0])[0.0]
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
        "column_norms": cert.column_norms.tolist(),
        "frobenius": cert.frobenius,
        "tb_residual": float(cert.tb_residual),
        "opeq_residual": float(cert.opeq_residual),
    } for cert in certificates]
    return {"schema": TRANSFORM_SCHEMA, "lambda": float(lam), "branches": branches}


def transform_from_json(doc: dict) -> dict[int, BranchCertificate]:
    """Stored branch certificates of a transform document, keyed by branch index.

    Documents without the current schema tag, including the schema-1 files
    that stored all of T, are refused with a ConfigError.  Every field must
    have its JSON type: a number lambda, frobenius and residual, an integer
    i and N, a list of numbers for the column norms; a refusal (ValueError)
    names the field and, by its position, the branch.
    """
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TRANSFORM_SCHEMA:
        raise ConfigError(
            f"transform document has schema {schema!r}, expected "
            f"{TRANSFORM_SCHEMA!r}; run synthesize again")
    certs = {}
    try:
        lam = from_number(doc["lambda"], float, "transform lambda")
        for k, bd in enumerate(doc["branches"]):
            at = f"transform branches[{k}]."
            cert = BranchCertificate(
                branch_index=from_number(bd["i"], int, at + "i"), lam=lam,
                diagonal=from_cpairs(bd["diagonal"], at + "diagonal"),
                column_norms=from_numbers(bd["column_norms"], at + "column_norms"),
                **{name: from_number(bd[name], float, at + name)
                   for name in ("frobenius", "tb_residual", "opeq_residual")})
            if not from_number(bd["N"], int, at + "N") == cert.N == cert.column_norms.size:
                raise ValueError(
                    f"transform branch {cert.branch_index}: N={bd['N']} but "
                    f"{cert.N} diagonal entries and {cert.column_norms.size} "
                    "column norms")
            certs[cert.branch_index] = cert
    except KeyError as exc:
        raise ValueError(f"transform document missing field {exc}") from exc
    return certs
