"""Shift selection and feedback-gain synthesis.

The normalization T B = B pins the gains: with x_n = -K_n b_n, projecting
on the bi-orthogonal family and cancelling b_p gives the linear system

    sum_n x_n / (lambda_n - lambda_p + lambda) = 1   for every p <= N,

whose matrix is the same Cauchy-like matrix whose columns are the shifted
resolvent sums.  Its solution has a closed form (the Cauchy determinant),

    x_n = lambda * prod_{p != n} (1 + lambda / (lambda_n - lambda_p)),

which the direct method evaluates in log space in O(N^2) without C.  On a
purely imaginary spectrum lambda_n = i y_n at a real shift (a skew-adjoint
branch, such as Schrodinger's) each factor is 1 - i s with s = lambda /
(y_n - y_p) real, so the log-sum is real arithmetic, ½ log1p(s^2) -
i atan(s), with no branch cut and no zero factor.  The fixed-point
accumulation x = lambda * 1 + sum of correction sweeps is the independent
iterative route.  It and every other consumer read C from the branch's
BranchKernel, which a stage builds once; the kernel also holds the closed
form's products, computed once on first use.  On a real spectrum (heat,
Sturm-Liouville, gribov at real eps) C is real, and every consumer applies
it in real arithmetic (_matvec), never through a complex copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import IterationDiverged, SolverError
from .jsonio import cpairs, from_cpairs, from_number
from .spectral_core import SpectralBranch, SpectralSystem, _real_view, row_blocks

__all__ = [
    "BranchGains",
    "BranchKernel",
    "FeedbackLaw",
    "select_shift",
    "cauchy_system_matrix",
    "solve_gains_direct",
    "solve_gains_iterative",
    "synthesize_feedback",
    "beta_reduced_gains",
    "inverse_gap_sum_profile",
    "law_tb_residual",
    "law_to_json",
    "law_from_json",
]

SHIFT_SEARCH_WIDTH = 100.0   # select_shift scans [lambda0, lambda0 + this * delta]
ITERATION_TOL = 1e-12        # sup of the last correction sweep at convergence
MAX_SWEEPS = 500             # correction sweeps of solve_gains_iterative before it gives up


def select_shift(system: SpectralSystem, lambda0: float, delta: float) -> float:
    """Smallest admissible shift >= lambda0 on a delta/2 scan grid.

    Accepts lam when min over branches and n, p of |lambda_n - lambda_p
    + lam| >= delta; the grid step delta/2 cannot skip an admissible
    window of width delta.  The scan ends at lambda0 + SHIFT_SEARCH_WIDTH * delta.
    """
    if lambda0 <= 0 or delta <= 0:
        raise ValueError("lambda0 and delta must be positive")
    steps = int(2 * SHIFT_SEARCH_WIDTH) + 1        # delta / 2 apart, over WIDTH * delta
    for j in range(steps):
        lam = lambda0 + j * delta / 2.0
        if _clearance(system, lam, delta) >= delta:
            return lam
    raise SolverError(
        f"no admissible shift in [{lambda0}, {lambda0 + SHIFT_SEARCH_WIDTH * delta}]: "
        "eigenvalue differences cluster too densely for the requested margin")


def _clearance(system: SpectralSystem, lam: float, delta: float) -> float:
    """min over branches and n, p of |(lambda_n - lambda_p) + lam|, row block by row block.

    Stops at the first block below delta, whose minimum it then returns.  A
    real spectrum takes real differences (_real_view), with the same moduli.
    """
    dist = np.inf
    for b in system.branches:
        ev = _real_view(b.eigenvalues)
        for i, j in row_blocks(b.N):
            d = ev[i:j, None] - ev[None, :]
            d += lam
            dist = min(dist, float(np.min(np.abs(d))))
            del d                                   # before the next block's d exists
            if dist < delta:
                return dist
    return dist


def cauchy_system_matrix(branch: SpectralBranch, lam: float) -> np.ndarray:
    """Matrix C[p][n] = 1 / (lambda_n - lambda_p + lam).

    Column n is the shifted resolvent sum of mode n; the diagonal is the
    constant 1/lam.  C is real (float64) when the spectrum is (_real_view),
    with the entries of the complex build as its real parts, and complex
    otherwise.
    """
    ev = _real_view(branch.eigenvalues)
    denom = ev[None, :] - ev[:, None]
    denom += lam
    if np.any(denom == 0):
        raise SolverError(f"shift {lam} hits an eigenvalue difference exactly")
    return np.divide(1.0, denom, out=denom)       # in place, as in the products


def _matvec(M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """M @ z, in real arithmetic when M is real and z complex.

    For M @ z numpy would cast a real M to a complex copy.  Here the real
    and imaginary parts of z each take one real product, written into the
    matching view of one complex result; the second is skipped, leaving
    zeros, when z has no imaginary part.
    """
    if np.iscomplexobj(M) or not np.iscomplexobj(z):
        return M @ z
    out = np.zeros(M.shape[:-1], dtype=complex)
    np.matmul(M, z.real, out=out.real)
    if np.any(z.imag):
        np.matmul(M, z.imag, out=out.imag)
    return out


def _products_to_gains(branch: SpectralBranch, lam: float, x: np.ndarray,
                       method: str, iterations: Optional[int] = None,
                       history: Optional[np.ndarray] = None) -> "BranchGains":
    gains = -x / branch.control_coeffs
    return BranchGains(branch_index=branch.index, lam=float(lam), method=method,
                       gains=gains, products=x, iterations=iterations, history=history)


@dataclass(frozen=True)
class BranchGains:
    """Feedback gains for one branch.

    gains     : K_n = K(phi_n).
    products  : x_n = -K_n b_n, the b-free normalization unknowns.
    corrections k_n = x_n - lam measure the distance from the single-mode
    exact value; their supremum is reported by the diagnostics module.
    """

    branch_index: int
    lam: float
    method: str
    gains: np.ndarray
    products: np.ndarray
    iterations: Optional[int] = None
    history: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("gains", "products"):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.gains.shape != self.products.shape:
            raise ValueError("gains and products must align")

    @property
    def N(self) -> int:
        return len(self.gains)

    @property
    def corrections(self) -> np.ndarray:
        return self.products - self.lam

    @property
    def sup_product(self) -> float:
        return float(np.max(np.abs(self.products)))


@dataclass(frozen=True)
class FeedbackLaw:
    lam: float
    method: str
    branches: tuple

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        for bg in self.branches:
            if abs(bg.lam - self.lam) > 0:
                raise ValueError("all branch gains must share the law's shift")

    def branch(self, index: int) -> BranchGains:
        for bg in self.branches:
            if bg.branch_index == index:
                return bg
        raise KeyError(f"no gains for branch {index}")


def _real_pairs(eigenvalues: np.ndarray, lam) -> bool:
    """True on a skew-adjoint branch: a purely imaginary spectrum, not all zero, at a
    real nonzero shift.  There every closed-form factor is 1 - i s with s real."""
    return (np.isrealobj(lam) and lam != 0 and not np.any(eigenvalues.real)
            and bool(np.any(eigenvalues.imag)))


def _closed_form_products(branch: SpectralBranch, lam: float) -> np.ndarray:
    """Products x = C^-1 1 from the Cauchy determinant, summed in log space.

    x_n = lam * prod_{p != n} (1 + lam / (lambda_n - lambda_p)), one block
    of rows n at a time.  A real spectrum takes real logs log|1 + q| and a
    count of negative factors for the sign, so its products are exactly
    real.  A skew-adjoint branch (_real_pairs: lambda_n = i y_n, a real
    shift) takes the real pair s = lam / (y_n - y_p): its factor 1 - i s has
    log ½ log1p(s^2) - i atan(s), whose real part 1 puts it off the branch
    cut and away from zero.  Raises SolverError on a shift that hits an
    eigenvalue difference exactly (a zero factor) and when a log-sum or a
    product is not finite or a product vanishes, which covers a repeated
    eigenvalue (an infinite factor).
    """
    pairs = _real_pairs(branch.eigenvalues, lam)
    ev = _real_view(branch.eigenvalues)
    real = np.isrealobj(ev)
    if pairs:
        ev = ev.imag
    log_sum = np.empty(branch.N, dtype=float if real else complex)
    odd = np.zeros(branch.N, dtype=bool)            # an odd count of negative factors
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i, j in row_blocks(branch.N):
            d = ev[i:j, None] - ev[None, :]         # d[n - i][p] = lambda_n - lambda_p
            np.fill_diagonal(d[:, i:], np.inf)      # p == n contributes log 1 = 0
            if not pairs and np.any(d == -lam):
                raise SolverError(f"shift {lam} hits an eigenvalue difference exactly")
            # in place: a fresh temporary per step costs more than the logs
            q = np.divide(lam, d, out=d)
            if real:
                neg = q < -1.0
                # log1p(-2 - q) = log|1 + q| on the negative factors
                np.subtract(-2.0, q, out=q, where=neg)
                log_sum[i:j] = np.sum(np.log1p(q, out=q), axis=1)
                odd[i:j] = np.count_nonzero(neg, axis=1) % 2
            elif pairs:
                # q = s: log(1 - i s) = ½ log1p(s^2) - i atan(s).  The terms are
                # good to an ulp; summed in double, their rounding left the
                # products less accurate than the complex logs', so long double
                log_sum.imag[i:j] = -np.sum(np.arctan(q), axis=1, dtype=np.longdouble)
                log_sum.real[i:j] = 0.5 * np.sum(np.log1p(np.square(q, out=q), out=q),
                                                 axis=1, dtype=np.longdouble)
            else:
                # numpy's complex log1p loses digits that log(1 + q) keeps
                log_sum[i:j] = np.sum(np.log(np.add(q, 1.0, out=q), out=q), axis=1)
            del d, q                                # before the next block's d exists
        if real:
            x = (lam * np.where(odd, -1.0, 1.0) * np.exp(log_sum)).astype(complex)
        else:
            x = lam * np.exp(log_sum)
    if not (np.all(np.isfinite(log_sum)) and np.all(np.isfinite(x))
            and np.all(x != 0)):
        raise SolverError(
            f"gain products on branch {branch.index} are not finite or vanish at "
            f"shift {lam} (N={branch.N}): max |log-sum| "
            f"{float(np.max(np.abs(log_sum))):.4g}; a repeated eigenvalue or a "
            "factor past the float range")
    return x


class BranchKernel:
    """A branch's Cauchy matrix C at lam, from one build and read-only, and the
    closed form's products x and T^-1's w, each computed once on first use.

    C is float64 on a real spectrum (heat, Sturm-Liouville, gribov at real
    eps), half the bytes of a complex C, and complex otherwise; consumers
    apply a real C to a complex vector with _matvec.
    """

    def __init__(self, branch: SpectralBranch, lam: float):
        self.branch, self.lam = branch, float(lam)
        self.C = cauchy_system_matrix(branch, lam)
        self.C.flags.writeable = False

    @cached_property
    def skew_adjoint(self) -> bool:
        """True on a purely imaginary spectrum, not all zero (_real_pairs at lam)."""
        return _real_pairs(self.branch.eigenvalues, self.lam)

    @cached_property
    def products(self) -> np.ndarray:
        """x = C^-1 1, the closed form of the branch at lam (read-only)."""
        x = _closed_form_products(self.branch, self.lam)
        x.flags.writeable = False
        return x

    @cached_property
    def w(self) -> np.ndarray:
        """w = C^-T 1 of T^-1 = diag(b) C^T diag(w / b): the closed form on -lambda_n.

        On a skew-adjoint branch -lambda_n = conj(lambda_n), so w = conj(x).
        """
        if self.skew_adjoint:
            return np.conj(self.products)
        negated = replace(self.branch, eigenvalues=-self.branch.eigenvalues)
        return _closed_form_products(negated, self.lam)

    def truncated(self, n: int) -> "BranchKernel":
        """Kernel of the first n modes; its C is the view C[:n, :n], nothing is built."""
        if n == self.branch.N:
            return self
        sub = object.__new__(BranchKernel)
        sub.branch, sub.lam, sub.C = self.branch.truncated(n), self.lam, self.C[:n, :n]
        return sub


def solve_gains_direct(branch: SpectralBranch, lam: float) -> BranchGains:
    """Exact products of the truncated normalization system, in closed form.

    Raises SolverError where _closed_form_products does.
    """
    return _products_to_gains(branch, lam, _closed_form_products(branch, lam), "direct")


def solve_gains_iterative(kernel: BranchKernel) -> BranchGains:
    """Fixed-point gain accumulation x = lam + sum of correction sweeps, on the kernel's C.

    Starting from the single-mode value x == lam, each sweep applies
    e <- e - lam * (C @ e) and accumulates: since C_pp = 1/lam, the diagonal
    term cancels e up to rounding, so this is the off-diagonal sweep
    -lam * offdiag(C) @ e with no copy of C.  Converges when a sweep falls
    below ITERATION_TOL.  Otherwise, after MAX_SWEEPS sweeps or at the first
    sweep that is not finite (contraction ratio inf), raises
    IterationDiverged carrying the observed contraction ratio.
    """
    lam, C = kernel.lam, kernel.C
    e = np.full(kernel.branch.N, lam, dtype=complex)
    x = e.copy()
    sup_history = [float(np.max(np.abs(e)))]
    # a sweep that does not contract overflows; it stops at the first non-finite sup
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, MAX_SWEEPS + 1):
            e = e - lam * _matvec(C, e)
            x = x + e
            sup_history.append(float(np.max(np.abs(e))))
            if sup_history[-1] < ITERATION_TOL:
                return _products_to_gains(kernel.branch, lam, x, "iterative",
                                          iterations=i, history=np.asarray(sup_history))
            if not np.isfinite(sup_history[-1]):
                break
        history = np.asarray(sup_history)
        tail = history[max(1, len(history) - 6):]
        ratio = (float(np.exp(np.mean(np.diff(np.log(tail)))))
                 if np.all(tail > 0) and np.isfinite(tail[-1]) else float("inf"))
    raise IterationDiverged(
        f"gain iteration did not reach tol={ITERATION_TOL} in {i} sweeps "
        f"(MAX_SWEEPS = {MAX_SWEEPS}; observed contraction ratio {ratio:.4f})",
        contraction_ratio=ratio, history=history)


def synthesize_feedback(kernels, method: str = "direct") -> FeedbackLaw:
    """Per-branch gain synthesis on a stage's kernels, at their common shift.

    kernels are the BranchKernel of every branch, in branch order; the
    direct route reads their closed-form products.
    """
    if method not in ("direct", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    gains = tuple(_products_to_gains(k.branch, k.lam, k.products, "direct")
                  if method == "direct" else solve_gains_iterative(k) for k in kernels)
    return FeedbackLaw(lam=kernels[0].lam, method=method, branches=gains)


def beta_reduced_gains(branch: SpectralBranch, lam: float) -> BranchGains:
    """Synthesize through the beta = 0 reduction and map the gains back.

    Pre-scales the coefficients to n^beta b_n (flattening the declared
    decay), solves the flattened problem, then post-scales the gains by
    n^beta.  Agrees with the direct path to rounding because the
    normalization matrix does not involve the coefficients.
    """
    n = branch.mode_indices.astype(float)
    flat = SpectralBranch(branch.index, branch.eigenvalues,
                          branch.control_coeffs * n ** branch.beta,
                          branch.alpha, 0.0, branch.gamma)
    reduced = solve_gains_direct(flat, lam)
    gains = reduced.gains * n ** branch.beta
    x = -gains * branch.control_coeffs
    return BranchGains(branch_index=branch.index, lam=float(lam),
                       method="direct", gains=gains, products=x)


def inverse_gap_sum_profile(kernel: BranchKernel):
    """Off-diagonal inverse-gap sums of a kernel's branch measured against their envelope.

    For each p computes sum_{n != p} 1 / |lambda_n - lambda_p + lam| from
    the kernel's C at the shift lam, as |C| 1 - 1 / |lam| (|C_pp| = 1 / |lam|
    exactly), divided by p^(1-alpha) log(max(p,2)) + p^-alpha.  Returns
    (ratios, max over p in [8, N]).
    """
    branch = kernel.branch
    n = branch.mode_indices.astype(float)
    ones = np.ones(branch.N)
    # |C| @ 1 rather than a row sum: the matvec gives report.json's bits
    lhs = np.abs(kernel.C) @ ones - ones / abs(kernel.lam)
    envelope = n ** (1.0 - branch.alpha) * np.log(np.maximum(n, 2.0)) + n ** (-branch.alpha)
    ratios = lhs / envelope
    return ratios, float(np.max(ratios[7:] if branch.N >= 8 else ratios))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def law_tb_residual(residual: np.ndarray) -> float:
    """law.json's tb_residual of a branch: ||r|| / sqrt(N) of its certificate's r = 1 - C x."""
    return float(np.linalg.norm(residual) / np.sqrt(len(residual)))


def law_to_json(law: FeedbackLaw, certificates) -> dict:
    """law.json document; tb_residual is law_tb_residual of each branch's certificate."""
    residuals = {c.branch_index: c.residual for c in certificates}
    return {
        "lambda": float(law.lam),
        "method": law.method,
        "branches": [
            {
                "i": bg.branch_index,
                "gains": cpairs(bg.gains),
                "products_x": cpairs(bg.products),
                "tb_residual": law_tb_residual(residuals[bg.branch_index]),
            }
            for bg in law.branches
        ],
    }


def law_from_json(doc: dict) -> FeedbackLaw:
    """The law of a law.json document.

    lambda must be a number, method a string and each branch's i an
    integer; a refusal names the field and, by its position, the branch.
    """
    try:
        lam = from_number(doc["lambda"], float, "law lambda")
        if not isinstance(method := doc["method"], str):
            raise ValueError(f"law method must be a string, got {method!r}")
        branches = tuple(
            BranchGains(branch_index=from_number(bd["i"], int, f"law branches[{k}].i"),
                        lam=lam, method=method,
                        gains=from_cpairs(bd["gains"], f"law branches[{k}].gains"),
                        products=from_cpairs(bd["products_x"], f"law branches[{k}].products_x"))
            for k, bd in enumerate(doc["branches"])
        )
    except KeyError as exc:
        raise ValueError(f"law document missing field {exc}") from exc
    return FeedbackLaw(lam=lam, method=method, branches=branches)
