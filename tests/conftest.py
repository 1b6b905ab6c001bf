import numpy as np
import pytest

from fredstab import BranchKernel, SpectralBranch, SpectralSystem
from fredstab.models import heat_torus_model


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


@pytest.fixture
def heat32():
    return heat_torus_model(32)


@pytest.fixture
def single_mode():
    return SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
