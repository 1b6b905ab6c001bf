import contextlib
import importlib.util
import io
import os
import sys
import warnings
from pathlib import Path

# a checkout runs without an install; an installed or PYTHONPATH fredstab comes first
if importlib.util.find_spec("fredstab") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fredstab import (BranchGains, BranchKernel, FeedbackLaw,  # noqa: E402
                      SimulationTrace, SpectralBranch, SpectralSystem)
from fredstab.cli_io import main  # noqa: E402
from fredstab.models import heat_torus_model  # noqa: E402
from fredstab.simulate import (_norm_table, _states_for,  # noqa: E402
                               write_modes_csv, write_norms_csv)


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


def zero_law(system, lam=1.0):
    """The open loop as a law: zero gains and products on every branch."""
    return FeedbackLaw(lam=lam, method="direct", branches=tuple(
        BranchGains(branch_index=b.index, lam=lam, method="direct",
                    gains=np.zeros(b.N), products=np.zeros(b.N))
        for b in system.branches))


def fourier_from_samples(u_phys, N):
    """Exactly Hermitian torus coefficients c_-N..c_N of real samples on a uniform grid.

    The FFT of real data is Hermitian only to rounding, so c_k, k >= 0, are
    kept and c_-k = conj(c_k).
    """
    chat = np.fft.fft(u_phys) / len(u_phys)
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N:] = chat[:N + 1]
    c[:N] = np.conj(chat[1:N + 1])[::-1]
    return c


def real_products(M, z):
    """M @ z on the route of the package's products: a real M takes the real and the
    imaginary part of a complex z in one real product each, the second only when z
    has an imaginary part; a complex M takes z in one complex product."""
    if np.iscomplexobj(M):
        return M @ z
    out = np.zeros(M.shape[0], dtype=complex)
    out.real = M @ z.real
    if np.any(z.imag):
        out.imag = M @ z.imag
    return out


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


def run_stage(*argv):
    """fredstab's CLI on argv: (exit code, stderr text, messages of the warnings raised).

    Every warning is recorded, not shown, so stderr holds only what main prints.
    """
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, err.getvalue(), [str(w.message) for w in caught]


def operator_equality_residual(T, A_cl, branch, lam):
    """Frobenius-normalized residual of T A_cl = (diag(lambda_p) - lam I) T.

    Dense O(N^3) oracle of the opeq_residual that build_transform computes.
    """
    shifted = np.diag(branch.eigenvalues - lam)
    num = np.linalg.norm(T @ A_cl - shifted @ T)
    den = np.linalg.norm(T) * np.linalg.norm(A_cl)
    return float(num / den) if den > 0 else 0.0


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, no child process is left running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def heat32():
    return heat_torus_model(32)


@pytest.fixture
def single_mode():
    return SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
