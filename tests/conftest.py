import numpy as np
import pytest

from fredstab import BranchKernel, SimulationTrace, SpectralBranch, SpectralSystem
from fredstab.models import heat_torus_model
from fredstab.simulate import _norm_table, _states_for, write_modes_csv, write_norms_csv


def heat_branch(N, lam_scale=1.0, b=None):
    """Torus-heat sine branch: eigenvalues -n^2, unit coefficients by default."""
    n = np.arange(1, N + 1, dtype=float)
    coeffs = np.ones(N, dtype=complex) if b is None else np.asarray(b, dtype=complex)
    return SpectralBranch(1, -lam_scale * n ** 2, coeffs, alpha=2.0)


def schrodinger_branch(N, b=None):
    """Purely imaginary spectrum -i pi^2 (n^2 - 1), unit coefficients."""
    n = np.arange(1, N + 1, dtype=float)
    coeffs = np.ones(N, dtype=complex) if b is None else np.asarray(b, dtype=complex)
    return SpectralBranch(1, -1j * np.pi ** 2 * (n ** 2 - 1), coeffs, alpha=2.0)


def kernels(system, lam):
    """The BranchKernel of every branch of system at lam, in branch order."""
    return tuple(BranchKernel(b, lam) for b in system.branches)


def worked_branch():
    """The hand-checkable 2x2 case: eigenvalues (-1, -4), unit coefficients."""
    return SpectralBranch(1, [-1.0, -4.0], [1.0, 1.0], alpha=2.0)


def simulate_target(system, lam, v0, times, r_list=(0.0,)):
    """Exact modal solution of the shifted system: v_n(t) = e^{(lambda_n - lam) t} v_n(0)."""
    times = np.asarray(times, dtype=float)
    states = [np.exp((b.eigenvalues[None, :] - lam) * times[:, None]) * block[None, :]
              for b, block in zip(system.branches, _states_for(system.branches, v0))]
    return SimulationTrace(times=times, states=tuple(states), norms=_norm_table(states, r_list))


def trace_to_csv(trace, modes_path, norms_path):
    """The modes and norms files of a trace, written inline: the bytes of simulate's writers."""
    write_modes_csv(trace, modes_path)
    write_norms_csv(trace, norms_path)


def operator_equality_residual(T, A_cl, branch, lam):
    """Frobenius-normalized residual of T A_cl = (diag(lambda_p) - lam I) T.

    Dense O(N^3) oracle of the opeq_residual that build_transform computes.
    """
    shifted = np.diag(branch.eigenvalues - lam)
    num = np.linalg.norm(T @ A_cl - shifted @ T)
    den = np.linalg.norm(T) * np.linalg.norm(A_cl)
    return float(num / den) if den > 0 else 0.0


@pytest.fixture
def heat32():
    return heat_torus_model(32)


@pytest.fixture
def single_mode():
    return SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
