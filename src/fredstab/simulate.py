"""Closed-loop dynamics in spectral coordinates.

Linear trajectories come either from the conjugated semigroup, with the
closed-form inverse of the transform, or from fixed-step RK4 as an
independent cross-check.  The semilinear torus model is integrated by a
Fourier-Galerkin scheme with implicit diagonal diffusion and explicit
convection and feedback.

Cost for a branch of N modes and S samples:

- semigroup_exact: O(N^2 S) for one product of all S samples with the
  Cauchy matrix C of the branch's synthesis.BranchKernel, and O(N^2) for
  its weights w of T^-1 = diag(b) C^T diag(w / b).  No factorization.  On
  a real spectrum C and the exponentials are real, and the product is two
  real ones, for the real and the imaginary parts of the samples, written
  into the views of one complex result: no complex copy of C.
- rk4: O(N) per stage, since the closed loop diag(lambda) + b K^T acts as
  lambda * u + b (K . u).  It agrees with a dense matvec to rounding.
- imex_euler (Burgers): O(N log N) per step on the N + 1 coefficients
  c_0..c_N of the real field: u^2 is an irfft, a square and an rfft of
  length next_fast_len(3N + 1), and the feedback two real dot products.
  A run allocates its work arrays once (the field, its half spectrum, the
  right-hand side and one scratch vector), and every step writes into
  them through the pocketfft gufuncs and in-place ufuncs, with the bytes
  of the allocating np.fft.irfft/rfft step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# numpy loads numpy.fft and numpy.random on first use; load them with the
# package, not inside the first simulate stage (random_state draws)
import numpy.fft
import numpy.random
# the gufuncs behind np.fft.irfft/rfft, called with out= on preallocated
# buffers (tests/test_simulate.py pins them to the public functions)
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import IntegratorError
from .jsonio import overwrite
from .spectral_core import SpectralSystem
from .synthesis import FeedbackLaw, _matvec

__all__ = [
    "SimulationTrace",
    "DecayFit",
    "simulate_closed_loop",
    "simulate_burgers",
    "fit_decay",
    "random_state",
    "write_modes_csv",
    "write_norms_csv",
]


LINEAR_INTEGRATORS = ("semigroup_exact", "rk4")   # of simulate_closed_loop


@dataclass(frozen=True)
class SimulationTrace:
    """Time grid, per-branch modal coefficients, and tracked norms.

    states[i] has shape (len(times), N_i).  norms maps each r of r_list to
    the combined norm sequence (sum over branches in quadrature).
    real_defect is the Burgers run's distance from a real field.
    """

    times: np.ndarray
    states: tuple
    norms: dict
    real_defect: Optional[float] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        states = tuple(np.asarray(s, dtype=complex) for s in self.states)
        for s in states:
            if s.shape[0] != len(t):
                raise ValueError("state history length must match the time grid")
            if not np.all(np.isfinite(s)):
                raise IntegratorError("non-finite state in trace (blow-up?)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a norm history."""

    mu_hat: float
    c_hat: float
    r2: float
    window: tuple


def _norm_table(states, r_list):
    """Per-sample norms: each branch's sobolev_norm, combined in quadrature.

    Rows are summed one per sample (pairwise, as sobolev_norm sums a vector)
    and squared with libm pow like Python's float ** (np.square rounds
    differently in rare cases), so each value equals
    sqrt(sum_i sobolev_norm(states[i][k], r) ** 2) bit for bit.
    """
    table = {}
    for r in r_list:
        total = 0.0
        for s in states:
            s = np.ascontiguousarray(s)
            n = np.arange(1, s.shape[1] + 1, dtype=float)
            branch_norm = np.sqrt(np.sum(n ** (2.0 * r) * np.abs(s) ** 2, axis=1))
            total = total + np.float_power(branch_norm, 2)
        table[float(r)] = np.sqrt(total)
    return table


def _states_for(branches, v0) -> list:
    parts = [np.asarray(p, dtype=complex) for p in v0]
    if len(parts) != len(branches):
        raise ValueError(f"initial state needs {len(branches)} branch blocks")
    for part, b in zip(parts, branches):
        if len(part) != b.N:
            raise ValueError(
                f"branch {b.index} initial block has {len(part)} entries, expected {b.N}")
    return parts


def random_state(system: SpectralSystem, seed: int = 0, scale: float = 1.0) -> list:
    """Reproducible complex Gaussian initial state, one block per branch.

    A leading coefficient below 0.3 in modulus is set to 1, so slow modes
    (the constant torus mode in particular) participate.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for b in system.branches:
        z = rng.standard_normal(b.N) + 1j * rng.standard_normal(b.N)
        if abs(z[0]) < 0.3:
            z[0] = 1.0 + 0.0j
        blocks.append(scale * z)
    return blocks


def _rk4_march(eigenvalues: np.ndarray, b: np.ndarray, K: np.ndarray,
               u0: np.ndarray, times: np.ndarray, dt: float):
    """Fixed-step RK4 for du/dt = diag(lambda) u + b (K . u), O(N) per stage."""

    def A(u):
        return eigenvalues * u + b * (K @ u)

    out = np.empty((len(times), len(u0)), dtype=complex)
    u = u0.astype(complex)
    t = times[0]
    out[0] = u
    for k in range(1, len(times)):
        target = times[k]
        while t < target - 1e-12 * max(1.0, abs(target)):
            step = min(dt, target - t)
            k1 = A(u)
            k2 = A(u + 0.5 * step * k1)
            k3 = A(u + 0.5 * step * k2)
            k4 = A(u + step * k3)
            u = u + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += step
        out[k] = u
    return out


def check_run(branches, law: FeedbackLaw, times, dt: float,
              integrator: str = "semigroup_exact", nonlinear: bool = False) -> None:
    """Refuse a run of simulate_closed_loop, or with nonlinear of simulate_burgers, up front.

    Both integrators call it first, and so can a caller that must refuse a
    run before any other starts.  A ValueError names a time grid that is
    not strictly increasing, an unknown integrator, a step dt of rk4 or
    Burgers that is not finite and > 0 or is below the spacing of the
    doubles at the grid's largest |t| (t + dt would stop moving t before
    the march ends), a torus system that is not two branches of one N, or
    Burgers gains that are not exactly real; an rk4 step past the guard
    2 / max |lambda_n| is an IntegratorError.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    if not nonlinear and integrator not in LINEAR_INTEGRATORS:
        raise ValueError(f"unknown linear integrator {integrator!r}")
    rk4 = not nonlinear and integrator == "rk4"
    if (nonlinear or rk4) and not 0 < dt < np.inf:      # dt = 0 never advances t
        raise ValueError(f"step dt={dt} must be finite and > 0")
    t_max = float(np.max(np.abs(times), initial=0.0))
    if (nonlinear or rk4) and dt < np.spacing(t_max):
        raise ValueError(f"step dt={dt} is below the spacing {np.spacing(t_max):.3g} of "
                         f"the doubles at t={t_max:g}: the march would stop advancing")
    if nonlinear and (len(branches) != 2 or branches[1].N != branches[0].N):
        raise ValueError("semilinear simulation expects the two-branch torus model, "
                         "with one N on both branches")
    if nonlinear and any(np.any(law.branch(i).gains.imag != 0) for i in (1, 2)):
        raise ValueError("semilinear simulation needs exactly real gains")
    stiff = max(float(np.max(np.abs(b.eigenvalues))) for b in branches) if rk4 else 0.0
    if stiff > 0 and dt > 2.0 / stiff:
        raise IntegratorError(
            f"rk4 step dt={dt} exceeds the stability guard 2/|lambda_N| = "
            f"{2.0 / stiff:.3e}; reduce dt or the truncation")


def simulate_closed_loop(kernels, law: FeedbackLaw, u0, times,
                         integrator: str = "semigroup_exact",
                         dt: float = 1e-4, r_list=(0.0,)) -> SimulationTrace:
    """Closed-loop trajectories under the synthesized feedback.

    kernels are the synthesis.BranchKernel of every branch at law.lam, in
    branch order, and u0 holds one block per branch.  semigroup_exact
    evaluates u(t) = T^{-1} diag(e^{(lambda_n - lam) t}) T u0 branch by
    branch with the closed-form T^{-1} of the exact products (iterative
    gains move u by up to about kappa_0 ||1 - C x||), all samples in one
    product; rk4 integrates du/dt = (diag(lambda) + b K^T) u with a fixed
    step as an independent check.  The step must
    satisfy 0 < dt <= 2 / max |lambda_N| or the run is refused, and so is
    a time grid that check_run refuses.
    """
    branches = [kernel.branch for kernel in kernels]
    times = np.asarray(times, dtype=float)
    check_run(branches, law, times, dt, integrator)
    blocks = _states_for(branches, u0)
    states = []
    if integrator == "semigroup_exact":
        for kernel, block in zip(kernels, blocks):
            # T = diag(b) C diag(-K) and T^-1 = diag(b) C^T diag(w / b) share C:
            # T^-1 e^{(lambda - lam) t_k} T u0 = b o (v_k C), one product for all k
            b, C = kernel.branch, kernel.C
            y = _matvec(C, -law.branch(b.index).gains * block) * kernel.w
            if np.iscomplexobj(C):
                v = np.exp(np.outer(times, b.eigenvalues - law.lam))
                v *= y
                states.append(np.multiply(v @ C, b.control_coeffs, out=v))
                continue
            # a real spectrum: v and C are real, and Re y and Im y take one
            # real product each, into the parts of one complex result
            v = np.exp(np.outer(times, b.eigenvalues.real - law.lam))
            state = np.empty(v.shape, dtype=complex)
            part = np.multiply(v, y.real)
            np.matmul(part, C, out=state.real)
            np.matmul(np.multiply(v, y.imag, out=part), C, out=state.imag)
            del v, part                 # before the next branch's v exists
            states.append(np.multiply(state, b.control_coeffs, out=state))
    else:
        for b, block in zip(branches, blocks):
            states.append(_rk4_march(b.eigenvalues, b.control_coeffs,
                                     law.branch(b.index).gains, block, times, dt))
    norms = _norm_table(states, r_list)
    return SimulationTrace(times=times, states=tuple(states), norms=norms)


# ---------------------------------------------------------------------------
# semilinear torus dynamics
# ---------------------------------------------------------------------------

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _branch_coords(c: np.ndarray, N: int):
    """Sine/cosine modal blocks of Fourier coefficients on the last axis.

    Sine block a1[n-1] = <u, sin(nx)/sqrt(pi)>, n = 1..N; cosine block
    a2[0] = <u, 1/sqrt(2 pi)>, a2[j] = <u, cos(jx)/sqrt(pi)>, j = 1..N-1.
    """
    kp = c[..., N + 1:]             # c_k, k = 1..N
    km = c[..., N - 1::-1]          # c_{-k}, k = 1..N
    a1 = 1j * _SQRT_PI * (kp - km)
    a2 = np.empty(c.shape[:-1] + (N,), dtype=complex)
    a2[..., 0] = _SQRT_2PI * c[..., N]
    a2[..., 1:] = _SQRT_PI * (kp[..., : N - 1] + km[..., : N - 1])
    return a1, a2


def _control_fourier(system: SpectralSystem, N: int):
    """Fourier footprints of the two control shapes.

    The shapes are synthesized from the branch coefficient sequences, so
    their modal pairings reproduce the system's control_coeffs exactly.
    """
    b1 = system.branches[0].control_coeffs
    b2 = system.branches[1].control_coeffs
    # Adding onto zeros (not assigning) turns any -0.0 part into +0.0.
    phi1 = np.zeros(2 * N + 1, dtype=complex)
    phi2 = np.zeros(2 * N + 1, dtype=complex)
    phi1[N + 1:] += b1[:N] * (-1j) / (2 * _SQRT_PI)
    phi1[N - 1::-1] += b1[:N] * 1j / (2 * _SQRT_PI)
    phi2[N] = b2[0] / _SQRT_2PI
    phi2[N + 1:2 * N] += b2[1:N] / (2 * _SQRT_PI)
    phi2[N - 1:0:-1] += b2[1:N] / (2 * _SQRT_PI)
    return phi1, phi2


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n, as scipy.fft.next_fast_len(n, real=False).

    pocketfft is fastest on lengths whose prime factors are all at most 11.
    """
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _square_half(h: np.ndarray, u: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Coefficients k = 0..N of u^2 for the real field u with coefficients h = c_0..c_N.

    The buffer u, of a length L >= 3N + 1 that leaves those indices free of
    wrap-around, receives the field and then its square; spec, of length
    L // 2 + 1, its half spectrum, of which the first N + 1 entries are
    returned as a view.  The pocketfft gufuncs write in place the bytes of
    np.fft.rfft(v * v, norm="forward")[:N + 1] for
    v = np.fft.irfft(h, L, norm="forward"), with no array allocated; the
    factors 1 and 1 / L are those that norm="forward" passes them.
    """
    length = len(u)
    _pocketfft.irfft(h, 1.0, out=u)
    np.multiply(u, u, out=u)
    rfft = _pocketfft.rfft_n_even if length % 2 == 0 else _pocketfft.rfft_n_odd
    rfft(u, 1.0 / length, out=spec)
    return spec[:len(h)]


def _linear_step_radius(system: SpectralSystem, law: FeedbackLaw, dt: float) -> float:
    """Spectral radius of the linear IMEX step map D^{-1} (I + dt Phi Psi^T).

    D = diag(1 + dt k^2) is the implicit diffusion, Phi = [phi1 phi2] the
    control footprints and Psi^T c = (K1 . a1(c), K2 . a2(c)) the explicit
    feedback read-out; convection is dropped.  Above 1, the step itself
    amplifies small data.  Dense O(N^3): call it on the failure path only.
    """
    N = system.branches[0].N
    k_axis = np.arange(-N, N + 1)
    phi1, phi2 = _control_fourier(system, N)
    a1, a2 = _branch_coords(np.eye(2 * N + 1), N)     # row j: coordinates of e_j
    step_map = np.eye(2 * N + 1) + dt * (np.outer(phi1, a1 @ law.branch(1).gains)
                                         + np.outer(phi2, a2 @ law.branch(2).gains))
    step_map /= (1.0 + dt * k_axis.astype(float) ** 2)[:, None]
    return float(np.max(np.abs(np.linalg.eigvals(step_map))))


def _blow_up_error(system: SpectralSystem, law: FeedbackLaw, dt: float,
                   t: float) -> IntegratorError:
    """Blame the step size if the linear step map expands, else the basin."""
    radius = _linear_step_radius(system, law, dt)
    if radius > 1.0:
        return IntegratorError(
            f"semilinear state blew up near t={t:.4g}: the step dt={dt:g} is "
            f"unstable (the linear step map with the explicit feedback has "
            f"spectral radius {radius:.3f} > 1); reduce dt")
    return IntegratorError(
        f"semilinear state blew up near t={t:.4g}: initial data "
        "outside the local stability basin")


def simulate_burgers(system: SpectralSystem, law: FeedbackLaw, u0, times,
                     dt: float = 1e-4, r_list=(0.0,)) -> SimulationTrace:
    """Semilinear torus simulation with quadratic convection and feedback.

    Requires the two-branch torus system and real gains.  The state is the
    half spectrum c_0..c_N of the real field's torus Fourier coefficients
    (c_{-k} = conj(c_k)); the convection term (u^2 / 2)_x is exact at
    truncation; diffusion is implicit, convection and feedback explicit,
    first-order in time with a finite step dt > 0 (else ValueError).  u0 is
    the exactly Hermitian coefficient vector c_{-N}..c_N (else ValueError);
    the open loop is a law of zero gains.  The run allocates the field, its
    half spectrum, the right-hand side and one scratch vector once, and
    each step updates them and c in place (_square_half) with the bytes
    of the allocating step.  Non-finite growth, checked after every step,
    aborts the run.  The error names the step size when the linear step map
    (diffusion plus explicit feedback) has spectral radius above 1, and
    otherwise the local stability basin, which the initial data left.
    """
    times = np.asarray(times, dtype=float)
    check_run(system.branches, law, times, dt, nonlinear=True)
    N = system.branches[0].N
    u0 = np.asarray(u0)
    if u0.shape != (2 * N + 1,) or not np.array_equal(u0, np.conj(u0[::-1])):
        raise ValueError(f"u0 is not exactly Hermitian: it must be the {2 * N + 1} "
                         "coefficients c_-N..c_N of a real field")
    c = u0[N:].astype(complex)
    k_axis = np.arange(N + 1)
    half_dk = -0.5j * k_axis
    fft_len = _next_fast_len(3 * N + 1)
    phi1, phi2 = (phi[N:] for phi in _control_fourier(system, N))
    K1, K2 = (law.branch(i).gains for i in (1, 2))
    # K1 . a1 = g1 . Im c_{1..N} and K2 . a2 = g2 . Re c_{0..N-1} (_branch_coords)
    g1 = -2.0 * _SQRT_PI * K1.real
    g2 = np.r_[_SQRT_2PI * K2[0].real, 2.0 * _SQRT_PI * K2[1:].real]
    im_tail, re_head = c.imag[1:], c.real[:N]       # views of c, updated in place
    u = np.empty(fft_len)
    spec = np.empty(fft_len // 2 + 1, dtype=complex)
    rhs = np.empty(N + 1, dtype=complex)
    scratch = np.empty(N + 1, dtype=complex)

    k_sq = k_axis.astype(float) ** 2
    implicit = 1.0 / (1.0 + dt * k_sq)
    hist = np.empty((len(times), N + 1), dtype=complex)
    hist[0] = c
    t = times[0]
    # Overflow is expected on blow-up and caught by the finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            target = times[k]
            while t < target - 1e-12 * max(1.0, abs(target)):
                step = min(dt, target - t)
                scale = implicit if step == dt else 1.0 / (1.0 + step * k_sq)
                # c = (c + step * (nl + (g1 . Im c) phi1 + (g2 . Re c) phi2)) * scale,
                # in place and in that order of operations, so the bytes stay
                np.multiply(half_dk, _square_half(c, u, spec), out=rhs)  # -(i k / 2) (u^2)_k
                rhs += np.multiply(np.dot(g1, im_tail), phi1, out=scratch)
                rhs += np.multiply(np.dot(g2, re_head), phi2, out=scratch)
                c += np.multiply(step, rhs, out=rhs)
                c *= scale
                t += step
                if not np.isfinite(c).all():
                    raise _blow_up_error(system, law, dt, t)
            hist[k] = c
    hist = np.concatenate([np.conj(hist[:, :0:-1]), hist], axis=1)
    defect = float(np.max(np.abs(hist - np.conj(hist[:, ::-1]))))
    states1, states2 = _branch_coords(hist, N)
    norms = _norm_table((states1, states2), r_list)
    return SimulationTrace(times=times, states=(states1, states2), norms=norms,
                           real_defect=defect)


def fit_decay(times, norms, window: Optional[tuple] = None) -> DecayFit:
    """Fit ||u(t)|| ~ c e^{-mu t} to the norms sampled at times on a window.

    Default window drops the first 10% of the horizon to let the
    conjugation transient settle.  Requires at least 4 samples with
    strictly positive norms.
    """
    t = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if window is None:
        span = t[-1] - t[0]
        window = (t[0] + 0.1 * span, t[-1])
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 4:
        raise ValueError(f"decay window {window} holds {int(mask.sum())} samples (< 4)")
    if np.any(norms[mask] <= 0):
        raise ValueError("nonpositive norms in the fit window (zero state?)")
    tt = t[mask]
    yy = np.log(norms[mask])
    slope, intercept = np.polyfit(tt, yy, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((yy - pred) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(mu_hat=float(-slope), c_hat=float(np.exp(intercept)),
                    r2=r2, window=(float(lo), float(hi)))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_modes_csv(trace: SimulationTrace, path, start: int = 0,
                    stop: Optional[int] = None) -> None:
    """Modal history, header t,branch,n,re,im, one row per (sample, branch, n).

    Writes the rows of samples start..stop-1, all of them by default, and
    the header when start is 0, so the files of contiguous sample ranges,
    concatenated in order, are the file of the whole history.  The bytes
    are those of csv.writer with repr floats (no field needs quoting).
    Each branch has one template of its rows, "{t},{i},{n},%r,%r\\r\\n" for
    every n, and each (sample, branch) block is one % of it, with the
    sample's repr(t) put in, on the row's re and im interleaved (%r is
    float.__repr__), so memory stays at one block of strings.  Pure Python
    and file writes: no BLAS call and no thread, so a forked child may run it.
    The file is written over in place and cut to its new length
    (jsonio.overwrite), so a piece file simulate created a moment before,
    or a stale one, is never truncated to zero.
    """
    templates = ["".join([f"{{t}},{i},{n},%r,%r\r\n" for n in range(1, block.shape[1] + 1)])
                 for i, block in enumerate(trace.states, start=1)]
    with overwrite(path, newline="") as fh:
        if start == 0:
            fh.write("t,branch,n,re,im\r\n")
        for k, t in enumerate(trace.times[start:stop].tolist(), start):
            lead = repr(t)
            for template, block in zip(templates, trace.states):
                row = np.ascontiguousarray(block[k]).view(float)
                fh.write(template.replace("{t}", lead) % tuple(row.tolist()))


def write_norms_csv(trace: SimulationTrace, path) -> None:
    """Norm summary, header t,norm_r{value},... with the r in ascending order."""
    r_keys = sorted(trace.norms)
    columns = [trace.times.tolist()] + [
        np.asarray(trace.norms[r], dtype=float).tolist() for r in r_keys]
    with overwrite(path, newline="") as fh:
        fh.write(",".join(["t"] + [f"norm_r{r:g}" for r in r_keys]) + "\r\n")
        fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in zip(*columns)]))
