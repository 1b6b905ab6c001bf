"""Generators for the built-in example systems.

Four families: the heat equation on the torus (two branches, multiplicity
two except the constant mode), the linearized Schrodinger system around
the ground state, a general diffusion operator d/dx(a du/dx) + b u solved
numerically through its normal-form reduction, and a cubic-spectrum
non-self-adjoint model.

Only the diffusion-operator functions need scipy (eigh_tridiagonal); they
import it when they run, so importing this module loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverError
from .spectral_core import SpectralBranch, SpectralSystem

__all__ = [
    "SturmLiouvilleProblem",
    "LiouvilleData",
    "SturmLiouvilleModes",
    "heat_torus_model",
    "schrodinger_model",
    "liouville_transform",
    "sturm_liouville_model",
    "sturm_liouville_eigs_direct",
    "gribov_model",
]

SCHRODINGER_FLOOR = 1e-10    # smallest nonzero projection, relative to the largest
SL_B_FLOOR = 1e-12           # smallest nonzero control projection of a diffusion mode
SL_DEGENERACY_GAP = 1e-8     # smallest relative gap of a simple numerical spectrum
GRIBOV_EPS_CAP = 0.1         # largest |eps| that keeps the spectrum cubic


# ---------------------------------------------------------------------------
# quadrature on sample grids (numpy only; scipy.integrate's rules)
# ---------------------------------------------------------------------------

def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights W with sum(W * y) = scipy.integrate.simpson(y, x=x) up to rounding.

    x is a 1-D grid of at least 3 distinct nodes.  The formulas are
    scipy's: composite Simpson over pairs of intervals and, for an even
    sample count, Cartwright's correction for the last interval.
    """
    n = len(x)
    h = np.diff(x)
    stop = n - 2 if n % 2 else n - 3
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    w = np.zeros(n)
    w[0:stop:2] += hsum / 6.0 * (2.0 - h1 / h0)
    w[1:stop + 1:2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
    w[2:stop + 2:2] += hsum / 6.0 * (2.0 - h0 / h1)
    if n % 2 == 0:
        h0, h1 = h[-2], h[-1]
        w[-1] += (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        w[-2] += (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        w[-3] -= h1 ** 3 / (6 * h0 * (h0 + h1))
    return w


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.integrate.cumulative_trapezoid(y, x, initial=0.0), bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


# ---------------------------------------------------------------------------
# heat equation on the torus
# ---------------------------------------------------------------------------

def heat_torus_model(N: int, sobolev_index: float = 0.0,
                     phi1_coeffs=None, phi2_coeffs=None,
                     gamma: float = 0.0) -> SpectralSystem:
    """Two-branch torus Laplacian with scalar controls on each parity class.

    Branch 1 holds the sine modes (eigenvalues -n^2, n >= 1), branch 2 the
    constant mode followed by the cosine modes (0, -1, -4, ...).  The
    control coefficients are the projections of the two control shapes on
    the respective eigenvector families; when omitted they default to
    n^gamma (and 1 for the constant mode), matching the declared slack.
    The eigenvector normalization n^-sobolev_index is absorbed into the
    coefficients and only recorded in the label.
    """
    if N < 4:
        raise ValueError("heat model needs N >= 4")
    n = np.arange(1, N + 1, dtype=float)
    if phi1_coeffs is None:
        phi1_coeffs = n ** gamma
    if phi2_coeffs is None:
        phi2_coeffs = np.concatenate([[1.0], n[: N - 1] ** gamma])
    b1 = np.asarray(phi1_coeffs, dtype=complex)
    b2 = np.asarray(phi2_coeffs, dtype=complex)
    if len(b1) != N or len(b2) != N:
        raise ValueError("control coefficient sequences must have length N")
    eig1 = -(n ** 2)
    eig2 = np.concatenate([[0.0], -(n[: N - 1] ** 2)])
    branch1 = SpectralBranch(1, eig1.astype(complex), b1, alpha=2.0, gamma=gamma)
    branch2 = SpectralBranch(2, eig2.astype(complex), b2, alpha=2.0, gamma=gamma)
    return SpectralSystem(branches=(branch1, branch2),
                          label=f"heat_torus(m={sobolev_index:g})")


# ---------------------------------------------------------------------------
# linearized Schrodinger equation around the ground state
# ---------------------------------------------------------------------------

def schrodinger_model(N: int, mu_values) -> SpectralSystem:
    """Single-branch model of the ground-state-linearized Schrodinger system.

    Eigenvalues are purely imaginary, -i pi^2 (n^2 - 1); the control
    coefficients are the graph-norm projections sigma_n^{3/2} <mu Phi_1,
    Phi_n> with Phi_n the Dirichlet sine modes, evaluated by composite
    Simpson quadrature on the supplied samples of mu at the M + 1 nodes
    j / M of [0, 1].  All N projections come from one real FFT of length
    2M: sum_j g_j sin(pi j k / M) is a sine transform of the
    Simpson-weighted samples g.  A projection at or below
    SCHRODINGER_FLOOR times the largest one is refused; so N >= M is
    refused at b_M, whose sine vanishes at every node.
    """
    mu = np.asarray(mu_values, dtype=float).ravel()
    if len(mu) < 512:
        raise ValueError("mu must be sampled on at least 512 quadrature points")
    if N < 4:
        raise ValueError("schrodinger model needs N >= 4")
    M = len(mu) - 1
    x = np.linspace(0.0, 1.0, M + 1)
    phi1 = np.sqrt(2.0) * np.sin(np.pi * x)
    g = _simpson_weights(x) * mu * phi1 * np.sqrt(2.0)
    # -Im of the length-2M DFT of g at k; odd with period 2M in k
    s = -np.fft.rfft(g, 2 * M).imag
    n = np.arange(1, N + 1)
    inner = np.concatenate((s, -s[-2:0:-1]))[n % (2 * M)]
    zero = np.nonzero(np.abs(inner) <= SCHRODINGER_FLOOR * max(1.0, np.max(np.abs(inner))))[0]
    if zero.size:
        raise SolverError(
            f"quadrature projection b_{zero[0] + 1} vanishes; "
            "the chosen mu does not excite every mode")
    sigma = (np.pi * n.astype(float)) ** 2
    b = sigma ** 1.5 * inner
    lam = -1j * (sigma - sigma[0])      # lambda_1 = 0: the shifted ground state
    branch = SpectralBranch(1, lam.astype(complex), b.astype(complex), alpha=2.0)
    return SpectralSystem(branches=(branch,), label="schrodinger_ground")


# ---------------------------------------------------------------------------
# general diffusion operator via its normal-form reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """Diffusion operator d/dx(a du/dx) + b u on [0, L] with Robin ends.

    a and b are sampled on a uniform grid of grid_size + 1 points (both
    endpoints included); a must be strictly positive.  Boundary rows are
    c1 u(0) + c2 u'(0) = 0 and c3 u(L) + c4 u'(L) = 0 with c1^2+c2^2 > 0
    and c3^2+c4^2 > 0.
    """

    a_values: np.ndarray
    b_values: np.ndarray
    L: float
    c1: float
    c2: float
    c3: float
    c4: float
    grid_size: int

    def __post_init__(self):
        a = np.asarray(self.a_values, dtype=float).copy()
        b = np.asarray(self.b_values, dtype=float).copy()
        if self.grid_size < 200:
            raise ValueError("grid_size must be at least 200")
        if len(a) != self.grid_size + 1 or len(b) != self.grid_size + 1:
            raise ValueError("a and b must be sampled on grid_size + 1 points")
        if np.any(a <= 0):
            bad = int(np.argmax(a <= 0))
            raise ValueError(f"a must be strictly positive (a[{bad}] = {a[bad]})")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if math.hypot(self.c1, self.c2) == 0 or math.hypot(self.c3, self.c4) == 0:
            raise ValueError("degenerate boundary coefficients")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a_values", a)
        object.__setattr__(self, "b_values", b)

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.grid_size + 1)

    @classmethod
    def from_callables(cls, a: Callable, b: Callable, L: float,
                       c1: float, c2: float, c3: float, c4: float,
                       grid_size: int = 2000) -> "SturmLiouvilleProblem":
        x = np.linspace(0.0, L, grid_size + 1)
        return cls(a_values=np.asarray(a(x), dtype=float) * np.ones_like(x),
                   b_values=np.asarray(b(x), dtype=float) * np.ones_like(x),
                   L=L, c1=c1, c2=c2, c3=c3, c4=c4, grid_size=grid_size)


@dataclass(frozen=True)
class LiouvilleData:
    """Normal form of a diffusion operator: potential Q on [0, M].

    y_grid holds the uniform grid on [0, M]; Q_values samples the reduced
    potential b(x(y)) - (d^2/dy^2 a^{1/4}) / a^{1/4}; c_tilde are the
    transformed boundary coefficients.
    """

    M: float
    y_grid: np.ndarray
    Q_values: np.ndarray
    c_tilde: tuple


def _first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Centered first difference with one-sided second-order ends."""
    d1 = np.empty_like(values)
    d1[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d1[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2.0 * h)
    d1[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2.0 * h)
    return d1


def _second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Centered second difference with one-sided second-order ends."""
    d2 = np.empty_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / h ** 2
    if len(values) >= 4:
        d2[0] = (2 * values[0] - 5 * values[1] + 4 * values[2] - values[3]) / h ** 2
        d2[-1] = (2 * values[-1] - 5 * values[-2] + 4 * values[-3] - values[-4]) / h ** 2
    else:
        d2[0] = d2[1]
        d2[-1] = d2[-2]
    return d2


def liouville_transform(problem: SturmLiouvilleProblem) -> LiouvilleData:
    """Reduce d/dx(a du/dx) + b to d^2/dy^2 + Q on [0, M], M = int a^{-1/2}.

    The y grid has as many intervals as the problem's x grid.  The change
    of variables y(x) = int_0^x a^{-1/2}, phi = a^{1/4} u keeps the
    eigenvalues and maps the Robin data to
        c~1 = c1 a(0)^{-1/4} - c2 a'(0) / (4 a(0)^{5/4}),  c~2 = c2 a(0)^{-3/4},
    and symmetrically at x = L.
    """
    x = problem.x_grid
    a = problem.a_values
    b = problem.b_values
    y_of_x = _cumulative_trapezoid(1.0 / np.sqrt(a), x)
    M = float(y_of_x[-1])
    y = np.linspace(0.0, M, problem.grid_size + 1)
    x_of_y = np.interp(y, y_of_x, x)
    # curvature (d^2/dy^2 a^{1/4}) / a^{1/4} in x coordinates via the chain
    # rule d/dy = sqrt(a) d/dx: equals a''/4 - (a')^2/(16 a).  Differentiating
    # the smooth samples of a (not an interpolant) keeps the result O(h^2).
    h = x[1] - x[0]
    a1 = _first_derivative(a, h)
    a2 = _second_derivative(a, h)
    curvature_x = a2 / 4.0 - a1 ** 2 / (16.0 * a)
    Q = np.interp(x_of_y, x, b - curvature_x)
    # boundary data transforms through u = a^{-1/4} phi(y(x))
    a_prime_0 = a1[0]
    a_prime_L = a1[-1]
    ct1 = problem.c1 * a[0] ** -0.25 - problem.c2 * a_prime_0 / (4 * a[0] ** 1.25)
    ct2 = problem.c2 * a[0] ** -0.75
    ct3 = problem.c3 * a[-1] ** -0.25 - problem.c4 * a_prime_L / (4 * a[-1] ** 1.25)
    ct4 = problem.c4 * a[-1] ** -0.75
    return LiouvilleData(M=M, y_grid=y, Q_values=Q, c_tilde=(ct1, ct2, ct3, ct4))


def _tridiag_robin_eigs(diag_potential: np.ndarray, h: float,
                        left: tuple, right: tuple, n_modes: int):
    """Eigenpairs of d^2/dy^2 + potential with Robin ends, kept symmetric.

    Dirichlet ends drop the boundary node; Robin/Neumann ends keep it with
    a ghost-point closure, andambiguity in symmetry is removed by the
    diagonal similarity scaling the kept end nodes by 1/sqrt(2) (the
    trapezoid-weight square root).  Returns the n_modes largest
    eigenvalues (slowest modes) in decreasing order with eigenvectors on
    the full node set, normalized in the trapezoid inner product.
    """
    c_l1, c_l2 = left
    c_r1, c_r2 = right
    G = len(diag_potential) - 1
    keep_left = c_l2 != 0.0
    keep_right = c_r2 != 0.0
    start = 0 if keep_left else 1
    stop = G + 1 if keep_right else G
    idx = np.arange(start, stop)
    size = len(idx)
    if n_modes > size:
        raise SolverError(f"requested {n_modes} modes but only {size} grid unknowns")
    main = -2.0 / h ** 2 + diag_potential[idx]
    off = np.full(size - 1, 1.0 / h ** 2)
    scale = np.ones(size)
    if keep_left:
        main[0] = -2.0 / h ** 2 + 2.0 * c_l1 / (c_l2 * h) + diag_potential[0]
        off[0] = np.sqrt(2.0) / h ** 2
        scale[0] = np.sqrt(2.0)
    if keep_right:
        main[-1] = -2.0 / h ** 2 - 2.0 * c_r1 / (c_r2 * h) + diag_potential[G]
        off[-1] = np.sqrt(2.0) / h ** 2
        scale[-1] = np.sqrt(2.0)
    from scipy.linalg import eigh_tridiagonal
    try:
        vals, vecs = eigh_tridiagonal(
            main, off, select="i", select_range=(size - n_modes, size - 1))
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise SolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order] * scale[:, None]        # undo the similarity
    full = np.zeros((G + 1, n_modes))
    full[idx, :] = vecs
    # trapezoid normalization on the y grid
    w = np.ones(G + 1)
    w[0] = w[-1] = 0.5
    norms = np.sqrt(h * (w[:, None] * full ** 2).sum(axis=0))
    full = full / norms[None, :]
    return vals, full


@dataclass(frozen=True)
class SturmLiouvilleModes:
    """Numerical eigendata of a diffusion operator, back in x coordinates."""

    eigenvalues: np.ndarray
    modes_x: np.ndarray          # (grid_size + 1, N), L2(0, L)-normalized
    x_grid: np.ndarray


def sturm_liouville_model(problem: SturmLiouvilleProblem, N: int, phi_values):
    """Spectral system of a diffusion operator with a distributed control shape.

    Solves the normal-form eigenproblem for the N slowest modes, maps the
    eigenfunctions back, and pairs them with the control shape by
    trapezoid quadrature.  Near-degenerate numerical spectra (relative gap
    below SL_DEGENERACY_GAP) and projections at or below SL_B_FLOOR are
    rejected; multi-branch boundary configurations are out of scope of
    this generator.

    Returns (system, modes).
    """
    if N < 1:
        raise ValueError("N must be positive")
    data = liouville_transform(problem)
    hy = data.y_grid[1] - data.y_grid[0]
    vals, vecs_y = _tridiag_robin_eigs(data.Q_values, hy,
                                       (data.c_tilde[0], data.c_tilde[1]),
                                       (data.c_tilde[2], data.c_tilde[3]), N)
    rel_gap = np.abs(np.diff(vals)) / np.maximum(np.abs(vals[:-1]), 1.0)
    if np.any(rel_gap < SL_DEGENERACY_GAP):
        j = int(np.argmin(rel_gap))
        raise SolverError(
            f"near-degenerate modes {j + 1}, {j + 2} "
            f"(relative gap {rel_gap[j]:.2e}); this generator only supports "
            "simple-spectrum boundary configurations")
    x = problem.x_grid
    y_of_x = _cumulative_trapezoid(1.0 / np.sqrt(problem.a_values), x)
    a_quarter_x = problem.a_values ** 0.25
    modes_x = np.empty((len(x), N))
    for j in range(N):
        phi_j = np.interp(y_of_x, data.y_grid, vecs_y[:, j])
        modes_x[:, j] = phi_j / a_quarter_x
    phi = np.asarray(phi_values, dtype=float).ravel()
    if len(phi) != len(x):
        raise ValueError("control shape must be sampled on the problem grid")
    b = np.array([np.trapezoid(phi * modes_x[:, j], x) for j in range(N)])
    small = np.nonzero(np.abs(b) <= SL_B_FLOOR)[0]
    if small.size:
        raise SolverError(
            f"control projection b_{small[0] + 1} = {b[small[0]]:.2e} vanishes "
            f"within {SL_B_FLOOR:.0e}")
    branch = SpectralBranch(1, vals.astype(complex), b.astype(complex), alpha=2.0)
    system = SpectralSystem(branches=(branch,), label="sturm_liouville")
    modes = SturmLiouvilleModes(eigenvalues=vals, modes_x=modes_x, x_grid=x)
    return system, modes


def sturm_liouville_eigs_direct(problem: SturmLiouvilleProblem, N: int) -> np.ndarray:
    """Reference eigenvalues from a conservative discretization in x.

    Uses flux form (a u')' with midpoint coefficients and the same
    ghost-point Robin closure as the normal-form path; serves as the
    independent check that the reduction preserves the spectrum.
    """
    x = problem.x_grid
    a = problem.a_values
    b = problem.b_values
    h = x[1] - x[0]
    G = problem.grid_size
    a_mid = 0.5 * (a[:-1] + a[1:])               # a at half nodes i+1/2
    # a Dirichlet end drops its node; a kept one has the ghost-point row
    start = 0 if problem.c2 != 0.0 else 1
    stop = G + 1 if problem.c4 != 0.0 else G
    size = stop - start
    main = -(a_mid[:-1] + a_mid[1:]) / h ** 2 + b[1:G]      # interior nodes 1..G-1
    off = a_mid[start:stop - 1] / h ** 2
    if start == 0:
        left = -2.0 * a_mid[0] / h ** 2 + 2.0 * a[0] * problem.c1 / (problem.c2 * h) + b[0]
        main = np.concatenate(([left], main))
        off[0] *= np.sqrt(2.0)
    if stop == G + 1:
        right = -2.0 * a_mid[-1] / h ** 2 - 2.0 * a[-1] * problem.c3 / (problem.c4 * h) + b[G]
        main = np.concatenate((main, [right]))
        off[-1] *= np.sqrt(2.0)
    from scipy.linalg import eigh_tridiagonal
    vals = eigh_tridiagonal(
        main, off, select="i", select_range=(size - N, size - 1))[0]
    return vals[np.argsort(vals)[::-1]]


# ---------------------------------------------------------------------------
# cubic-spectrum non-self-adjoint model
# ---------------------------------------------------------------------------

def gribov_model(N: int, eps: complex = 0.0, r: float = 0.0,
                 gamma: float = 0.0) -> SpectralSystem:
    """Single-branch model with eigenvalues -n^3 + eps / n.

    The coupling eps is capped at GRIBOV_EPS_CAP to keep the spectrum in
    the cubic-growth regime.  The control coefficients are n^r, matching
    the declared envelope c1 n^r <= |b_n| <= c2 n^(r+gamma).
    """
    if abs(eps) > GRIBOV_EPS_CAP:
        raise ValueError(f"|eps| = {abs(eps)} exceeds the cap {GRIBOV_EPS_CAP}")
    if N < 4:
        raise ValueError("gribov model needs N >= 4")
    n_idx = np.arange(1, N + 1)
    eig = -(n_idx.astype(float) ** 3) + eps * (1.0 / n_idx).astype(complex)
    # a large r overflows to inf, which SpectralBranch refuses: no warning first
    with np.errstate(over="ignore"):
        b = (n_idx.astype(float) ** r).astype(complex)
    branch = SpectralBranch(1, eig.astype(complex), b, alpha=3.0,
                            beta=-r, gamma=gamma)
    return SpectralSystem(branches=(branch,), label="gribov")

