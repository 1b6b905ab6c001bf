"""Domain types for diagonalizable control systems in spectral coordinates.

A system is described branch by branch: each branch carries a simple
(pairwise-distinct) eigenvalue sequence, the control coefficients obtained
by pairing the input shape with the bi-orthogonal eigenvector family, and
the growth exponents (alpha, beta, gamma) the synthesis relies on.  All
computation downstream works on these coefficient sequences; eigenvectors
never appear explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import AssumptionError
from .jsonio import cpairs, from_cpairs, from_number

__all__ = [
    "SpectralBranch",
    "SpectralSystem",
    "GrowthCheck",
    "GapCheck",
    "ControlCheck",
    "AssumptionVerdict",
    "ControllabilityClassification",
    "sobolev_norm",
    "verify_growth",
    "verify_gap",
    "verify_control",
    "verify_assumptions",
    "classify_controllability",
    "admissible_r_interval",
    "system_to_json",
    "system_from_json",
]

GROWTH_RATIO_CAP = 100.0     # largest accepted c_high / c_low of the growth sandwich
GAP_FLOOR = 1e-6             # smallest accepted separation constant
CLASSIFY_SLOPE_TOL = 0.05    # flatness tolerance of the coefficient-ratio trend
ROW_BLOCK = 64               # most rows in a block of row_blocks
ROW_ALIGN = 8                # every edge of row_blocks but N is a multiple of this


def row_blocks(N: int) -> list:
    """(start, stop) row ranges of at most ROW_BLOCK rows, covering range(N).

    Every pairwise O(N^2) pass goes over its N rows in these blocks, so
    none forms an N x N array.  The blocks are near-equal runs of
    ROW_ALIGN-row groups, the last one cut at N.  A block edge inside a
    group would move bits: OpenBLAS's real gemv (its Haswell kernel) takes
    the rows of a product four at a time and sums the rows left over at
    its end in another order, so only blocks that start and stop on the
    groups of the full product keep its bits.  No block is a single row
    when N >= 2: numpy takes a one-row (1, N) @ (N,) product with a dot,
    whose sum order differs from the matrix-vector product of the longer
    blocks.
    """
    groups = -(-N // ROW_ALIGN)
    blocks = max(1, -(-groups * ROW_ALIGN // ROW_BLOCK))
    edges = [min(N, groups * k // blocks * ROW_ALIGN) for k in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


def _real_view(values: np.ndarray) -> np.ndarray:
    """values.real, a float view, when every imaginary part is zero; else values itself.

    A real spectrum's differences, their moduli and its Cauchy matrix then
    take real arithmetic: the real difference is the real part of the
    complex one, and |x + 0j| == |x| exactly.
    """
    return values if np.any(values.imag) else values.real


def _as_readonly_complex(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex).copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralBranch:
    """One simple-spectrum component of a diagonalizable system.

    index          : 1-based branch label within the parent system.
    eigenvalues    : lambda_1..lambda_N, pairwise distinct (units 1/time).
    control_coeffs : b_1..b_N, projections of the input shape on the
                     bi-orthogonal family; all nonzero (approximate
                     controllability).
    alpha          : eigenvalue growth order, |lambda_n| ~ n^alpha, > 1.
    beta           : coefficient decay order, |b_n| ~ n^(-beta).
    gamma          : allowed upward slack in |b_n| n^beta, in [0, (alpha-1)/2).
    """

    index: int
    eigenvalues: np.ndarray
    control_coeffs: np.ndarray
    alpha: float
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           _as_readonly_complex(self.eigenvalues, "eigenvalues"))
        object.__setattr__(self, "control_coeffs",
                           _as_readonly_complex(self.control_coeffs, "control_coeffs"))
        if self.index < 1:
            raise ValueError("branch index must be >= 1")
        if len(self.eigenvalues) != len(self.control_coeffs):
            raise ValueError("eigenvalues and control_coeffs must have equal length")
        if len(self.eigenvalues) < 1:
            raise ValueError("a branch needs at least one mode")
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not 0.0 <= self.gamma < (self.alpha - 1.0) / 2.0:
            raise ValueError(
                f"gamma={self.gamma} outside [0, (alpha-1)/2) = [0, {(self.alpha - 1) / 2})")
        lam = self.eigenvalues
        # pairwise distinctness; duplicated eigenvalues break the branch decomposition
        order = np.lexsort((lam.imag, lam.real))
        sorted_lam = lam[order]
        dup = np.nonzero(np.diff(sorted_lam) == 0)[0]
        if dup.size:
            n, p = int(order[dup[0]]) + 1, int(order[dup[0] + 1]) + 1
            raise ValueError(
                f"eigenvalues at positions n={n}, p={p} coincide ({sorted_lam[dup[0]]})")
        zero = np.nonzero(self.control_coeffs == 0)[0]
        if zero.size:
            raise AssumptionError(
                f"control coefficient b_{zero[0] + 1} is zero: "
                "approximate controllability is lost on this branch")

    @property
    def N(self) -> int:
        return len(self.eigenvalues)

    @property
    def mode_indices(self) -> np.ndarray:
        return np.arange(1, self.N + 1)

    def rescaled(self, factor: complex) -> "SpectralBranch":
        """Same branch with all control coefficients multiplied by factor."""
        if factor == 0:
            raise ValueError("rescaling factor must be nonzero")
        return SpectralBranch(self.index, self.eigenvalues,
                              self.control_coeffs * factor,
                              self.alpha, self.beta, self.gamma)

    def truncated(self, n: int) -> "SpectralBranch":
        """Same branch restricted to the first n modes."""
        if not 1 <= n <= self.N:
            raise ValueError(f"truncation {n} outside 1..{self.N}")
        return SpectralBranch(self.index, self.eigenvalues[:n],
                              self.control_coeffs[:n],
                              self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class SpectralSystem:
    """A labelled collection of branches X = X_1 + ... + X_m."""

    branches: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("a system needs at least one branch")
        indices = [b.index for b in self.branches]
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError(f"branch indices must be 1..m without gaps, got {indices}")

    @property
    def m(self) -> int:
        return len(self.branches)


def sobolev_norm(coeffs, r: float) -> float:
    """Weighted coefficient norm (sum_n n^{2r} |f_n|^2)^{1/2}, n starting at 1.

    r = 0 reduces to the Euclidean norm of the coefficient vector.
    """
    arr = np.asarray(coeffs, dtype=complex).ravel()
    if arr.size == 0:
        return 0.0
    n = np.arange(1, arr.size + 1, dtype=float)
    return float(np.sqrt(np.sum(n ** (2.0 * r) * np.abs(arr) ** 2)))


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (positive entries only)."""
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        return float("nan")
    lx, ly = np.log(x[mask]), np.log(y[mask])
    return float(np.polyfit(lx, ly, 1)[0])


def _fit_window(N: int) -> slice:
    # asymptotic conditions: fit on the upper three quarters of the indices
    return slice(max(N // 4, 1), N)


@dataclass(frozen=True)
class GrowthCheck:
    ok: bool
    c_low: float
    c_high: float
    ratio: float
    alpha_hat: float
    witness_low: int
    witness_high: int
    ratio_cap: float


@dataclass(frozen=True)
class GapCheck:
    ok: bool
    constant: float
    witness: tuple
    floor: float


@dataclass(frozen=True)
class ControlCheck:
    ok: bool
    c1_hat: float
    c2_hat: float
    beta_hat: float
    gamma_hat: float


@dataclass(frozen=True)
class AssumptionVerdict:
    growth: GrowthCheck
    gap: GapCheck
    control: ControlCheck

    @property
    def ok(self) -> bool:
        return self.growth.ok and self.gap.ok and self.control.ok


def verify_growth(branch: SpectralBranch) -> GrowthCheck:
    """Check |lambda_n| + 1 against the declared n^alpha envelope.

    Reports the empirical sandwich constants, their ratio as a stability
    indicator (at most GROWTH_RATIO_CAP), and a fitted growth order from a
    log-log regression on the upper three quarters of indices.
    """
    lam = branch.eigenvalues
    n = branch.mode_indices.astype(float)
    scaled = (np.abs(lam) + 1.0) / n ** branch.alpha
    i_low = int(np.argmin(scaled))
    i_high = int(np.argmax(scaled))
    c_low = float(scaled[i_low])
    c_high = float(scaled[i_high])
    ratio = float("inf") if c_low == 0 else c_high / c_low
    win = _fit_window(branch.N)
    alpha_hat = _loglog_slope(n[win], np.abs(lam[win]))
    ok = c_low > 0 and np.isfinite(c_high) and ratio <= GROWTH_RATIO_CAP
    return GrowthCheck(ok=bool(ok), c_low=c_low, c_high=c_high, ratio=ratio,
                       alpha_hat=alpha_hat, witness_low=i_low + 1,
                       witness_high=i_high + 1, ratio_cap=GROWTH_RATIO_CAP)


def verify_gap(branch: SpectralBranch) -> GapCheck:
    """Check the separation |lambda_n - lambda_p| >= C n^(alpha-1) |n-p|.

    Returns the worst empirical constant over all ordered pairs and the
    minimizing pair (n, p); the check passes above GAP_FLOOR.
    """
    lam = _real_view(branch.eigenvalues)
    N = branch.N
    if N < 2:
        return GapCheck(ok=True, constant=float("inf"), witness=(0, 0), floor=GAP_FLOOR)
    n = branch.mode_indices.astype(float)
    constant, witness = np.inf, (0, 0)
    # the first minimum in row order wins
    for i, j in row_blocks(N):
        rows = n[i:j, None]
        diff = np.abs(lam[i:j, None] - lam[None, :])   # |lambda_n - lambda_p|
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = diff / ((rows ** (branch.alpha - 1.0)) * np.abs(rows - n[None, :]))
        np.fill_diagonal(quot[:, i:], np.inf)
        k, p = divmod(int(np.argmin(quot)), N)
        if quot[k, p] < constant:
            constant, witness = float(quot[k, p]), (i + k + 1, p + 1)
    return GapCheck(ok=bool(constant > GAP_FLOOR), constant=constant, witness=witness,
                    floor=GAP_FLOOR)


def verify_control(branch: SpectralBranch) -> ControlCheck:
    """Check the declared coefficient envelope c1 n^-beta <= |b_n| <= c2 n^(gamma-beta).

    Zero coefficients were already rejected at construction; this reports
    the empirical constants, the fitted decay order beta_hat, and the
    fitted slack gamma_hat of |b_n| n^beta.
    """
    b = np.abs(branch.control_coeffs)
    n = branch.mode_indices.astype(float)
    low = b * n ** branch.beta
    high = b * n ** (branch.beta - branch.gamma)
    c1_hat, c2_hat = float(np.min(low)), float(np.max(high))
    win = _fit_window(branch.N)
    beta_hat = -_loglog_slope(n[win], b[win])
    gamma_hat = max(0.0, _loglog_slope(n[win], low[win])) if branch.N >= 4 else 0.0
    return ControlCheck(ok=c1_hat > 0, c1_hat=c1_hat, c2_hat=c2_hat, beta_hat=beta_hat,
                        gamma_hat=gamma_hat)


def verify_assumptions(branch: SpectralBranch) -> AssumptionVerdict:
    """Run all three standing-assumption checks on a branch."""
    return AssumptionVerdict(growth=verify_growth(branch), gap=verify_gap(branch),
                             control=verify_control(branch))


# ---------------------------------------------------------------------------
# controllability classification
# ---------------------------------------------------------------------------

def admissible_r_interval(alpha: float, gamma: float, beta: float = 0.0) -> tuple:
    """Open interval of scale indices r on which the transform is an isomorphism.

    Both ends of (beta + 1/2 - alpha, beta + alpha - 1/2) shrink by gamma.
    """
    return (beta + 0.5 - alpha + gamma, beta + alpha - 0.5 - gamma)


@dataclass(frozen=True)
class ControllabilityClassification:
    labels: frozenset
    admissibility_necessary_ok: bool
    exact_controllability_necessary_ok: bool
    ratio_slope: float


def classify_controllability(branch: SpectralBranch, r: float) -> ControllabilityClassification:
    """Classify the regime of the control coefficients at scale index r.

    The two necessary-condition flags test whether |b_n| stays within
    (1 + |Re lambda_n|)^{1/2} envelopes: the growth trend of the ratio
    |b_n| / (1 + |Re lambda_n|)^{1/2} must be flat (within CLASSIFY_SLOPE_TOL)
    from above for admissibility and from below for exact controllability.
    Both flags are invariant under rescaling b by a nonzero scalar.
    """
    lo, hi = admissible_r_interval(branch.alpha, branch.gamma, beta=0.0)
    if not lo < r < hi:
        raise ValueError(
            f"r={r} outside the admissible open interval ({lo}, {hi}) "
            f"for alpha={branch.alpha}, gamma={branch.gamma}")
    ratio = np.abs(branch.control_coeffs) / np.sqrt(
        1.0 + np.abs(branch.eigenvalues.real))
    slope = _loglog_slope(branch.mode_indices.astype(float), ratio)
    admissible = bool(slope <= CLASSIFY_SLOPE_TOL)
    exact = bool(slope >= -CLASSIFY_SLOPE_TOL)
    if r == 0.0 and branch.gamma == 0.0:
        labels = frozenset({"classical"})
    elif r > 0.0:
        labels = frozenset({"not-necessarily-admissible"})
    else:
        labels = frozenset({"not-exactly-controllable-in-X"})
    return ControllabilityClassification(
        labels=labels, admissibility_necessary_ok=admissible,
        exact_controllability_necessary_ok=exact, ratio_slope=slope)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def system_to_json(system: SpectralSystem) -> dict:
    return {
        "label": system.label,
        "m": system.m,
        "branches": [
            {
                "i": b.index,
                "alpha": float(b.alpha),
                "beta": float(b.beta),
                "gamma": float(b.gamma),
                "eigenvalues": cpairs(b.eigenvalues),
                "control_coeffs": cpairs(b.control_coeffs),
            }
            for b in system.branches
        ],
    }


def system_from_json(doc: dict) -> SpectralSystem:
    """The system of a system.json document.

    Every field must have its JSON type: an integer i and m, numbers alpha,
    beta and gamma, [re, im] pairs of numbers and a string label.  A refusal
    names the field and, by its position, the branch.
    """
    try:
        branches = []
        for k, bd in enumerate(doc["branches"]):
            at = f"system branches[{k}]."
            branches.append(SpectralBranch(
                from_number(bd["i"], int, at + "i"),
                *(from_cpairs(bd[name], at + name) for name in ("eigenvalues", "control_coeffs")),
                *(from_number(bd[name], float, at + name) for name in ("alpha", "beta", "gamma"))))
    except KeyError as exc:
        raise ValueError(f"system document missing field {exc}") from exc
    if not isinstance(label := doc.get("label", ""), str):
        raise ValueError(f"system label must be a string, got {label!r}")
    system = SpectralSystem(branches=branches, label=label)
    if from_number(doc.get("m", system.m), int, "system m") != system.m:
        raise ValueError("declared m does not match the number of branches")
    return system
