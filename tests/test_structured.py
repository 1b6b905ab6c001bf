"""Oracles and properties of the structured O(N^2) certificates.

The direct gains are the closed form of the Cauchy determinant; tb, opeq
and the spectrum check (the secular equation of the rank-one closed loop)
all come from the one residual r = 1 - C x of build_transform; and the
weighted conditioning comes from the closed-form inverse of T and Lanczos
norm estimates.  Their references here are the dense routes they
replaced: pivoted LU on the Cauchy matrix, mpmath at 40 digits, eigvals
of the assembled closed loop with the greedy matching of
spectrum_match_error, the dense product T b, the dense T @ A_cl of
operator_equality_residual and the SVDs of conditioning_profile.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fredstab as fs
from fredstab.cli_io import TB_GATE, main
from fredstab.diagnostics import secular_match_error, spectrum_match_error
from fredstab.models import gribov_model, heat_torus_model, schrodinger_model
from fredstab.synthesis import _closed_form_products, cauchy_system_matrix

from conftest import (heat_branch, kernels, operator_equality_residual,
                      schrodinger_branch, worked_branch)
from test_cli import write_config

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def lu_products(branch, lam):
    """The replaced direct route: pivoted LU on the Cauchy matrix."""
    return scipy.linalg.solve(cauchy_system_matrix(branch, lam),
                              np.ones(branch.N, dtype=complex))


def certify(branch, gains, r_list=()):
    """build_transform on a fresh kernel of the branch at the gains' shift."""
    return fs.build_transform(fs.BranchKernel(branch, gains.lam), gains, r_list)


def mpmath_products(branch, lam, digits=40):
    """Cauchy system solved by LU in mpmath at the given precision."""
    with mpmath.workdps(digits):
        ev = [mpmath.mpc(complex(v)) for v in branch.eigenvalues]
        C = mpmath.matrix([[1 / (ev_n - ev_p + lam) for ev_n in ev] for ev_p in ev])
        x = mpmath.lu_solve(C, mpmath.matrix([1] * branch.N))
        return np.array([complex(v) for v in x])


def _small_branches():
    x = np.linspace(0.0, 1.0, 1025)
    heat = heat_torus_model(24)
    return [
        pytest.param(heat.branches[0], 2.5, id="heat-sine"),
        pytest.param(heat.branches[1], 2.5, id="heat-constant"),
        pytest.param(schrodinger_model(24, x ** 2).branches[0], 1.0, id="schrodinger"),
        pytest.param(gribov_model(24, eps=0.05 + 0.05j).branches[0], 2.0, id="gribov"),
    ]


class TestClosedFormOracles:
    @pytest.mark.parametrize("branch, lam", _small_branches())
    def test_matches_lu_and_mpmath(self, branch, lam):
        x = fs.solve_gains_direct(branch, lam).products
        scale = np.max(np.abs(x))
        assert np.max(np.abs(x - lu_products(branch, lam))) <= 1e-13 * scale
        assert np.max(np.abs(x - mpmath_products(branch, lam))) <= 1e-13 * scale

    def test_real_spectrum_gives_exactly_real_products(self):
        for branch in heat_torus_model(64).branches:
            g = fs.solve_gains_direct(branch, 2.5)
            assert np.all(g.products.imag == 0.0)
            assert np.all(g.gains.imag == 0.0)


class TestTypedErrors:
    def test_shift_on_eigenvalue_difference(self):
        with pytest.raises(fs.SolverError, match="hits an eigenvalue difference exactly"):
            fs.solve_gains_direct(worked_branch(), 3.0)

    @pytest.mark.parametrize("eigenvalues", [[-1.0, -4.0, -1.0], [-1j, -4j, -1j]])
    def test_repeated_eigenvalue(self, eigenvalues):
        # SpectralBranch refuses a repeat; a branch-like record that carries
        # one still gets a typed error from the solver, never NaN or 0
        with pytest.raises(ValueError, match="coincide"):
            fs.SpectralBranch(1, eigenvalues, [1.0, 1.0, 1.0], alpha=2.0)
        record = SimpleNamespace(index=1, N=3, eigenvalues=np.array(eigenvalues, complex),
                                 control_coeffs=np.ones(3, dtype=complex))
        with pytest.raises(fs.SolverError, match="repeated eigenvalue"):
            fs.solve_gains_direct(record, 2.5)

    def test_log_sum_not_finite(self):
        # lam / (lambda_n - lambda_p) overflows to infinity
        br = fs.SpectralBranch(1, [0.0, 5e-324], [1.0, 1.0], alpha=2.0)
        with pytest.raises(fs.SolverError, match="not finite"):
            fs.solve_gains_direct(br, 1e10)

    def test_product_overflow_exits_three(self, tmp_path, capsys):
        # at lambda0 = 1e8 the log-sums of heat N=64 pass exp's range
        cfg = tmp_path / "config.json"
        write_config(cfg, lambda0=1e8, N=64,
                     model={"kind": "heat_torus", "N": 64, "params": {}})
        assert main(["synthesize", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError"
        assert "not finite" in err["message"]


# Random admissible branches: |lambda_n| ~ n^2 with jittered gaps, on the
# negative real axis, the imaginary axis, or a ray in the open left half
# plane; unit-order complex coefficients; the shift from select_shift.
@st.composite
def admissible_branches(draw, kind, max_n=24):
    N = draw(st.integers(1, max_n))
    n = np.arange(1, N + 1, dtype=float)
    jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=N, max_size=N)))
    base = draw(st.floats(0.5, 3.0)) * (n ** 2 + jitter * n)
    if kind == "real":
        ev = -base
    elif kind == "imaginary":
        ev = -1j * base
    else:
        ev = -base * np.exp(1j * draw(st.floats(-1.2, 1.2)))
    mags = draw(st.lists(st.floats(0.5, 2.0), min_size=N, max_size=N))
    phases = draw(st.lists(st.floats(0.0, 6.28), min_size=N, max_size=N))
    b = np.array(mags) * np.exp(1j * np.array(phases))
    branch = fs.SpectralBranch(1, ev, b, alpha=2.0)
    system = fs.SpectralSystem((branch,), "random")
    lam = fs.select_shift(system, draw(st.floats(0.5, 5.0)), 0.25)
    return branch, lam


any_branch = st.sampled_from(["real", "imaginary", "complex"]).flatmap(admissible_branches)
branch_to_32 = st.sampled_from(["real", "imaginary", "complex"]).flatmap(
    lambda kind: admissible_branches(kind, max_n=32))
# inside the admissible interval (-3/2, 3/2) of alpha = 2
admissible_r = st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True)


class TestStructuredProperties:
    @PROPERTY
    @given(any_branch)
    def test_closed_form_equals_lu(self, case):
        branch, lam = case
        x = fs.solve_gains_direct(branch, lam).products
        assert np.max(np.abs(x - lu_products(branch, lam))) <= 1e-12 * np.max(np.abs(x))

    @PROPERTY
    @given(any_branch)
    def test_secular_and_dense_spectrum_at_rounding_level(self, case):
        branch, lam = case
        g = fs.solve_gains_direct(branch, lam)
        assert secular_match_error(branch, certify(branch, g)) <= 1e-12
        dense = fs.closed_loop_matrix(branch, g).spectrum
        assert spectrum_match_error(dense, branch.eigenvalues, lam) <= 1e-9

    @PROPERTY
    @given(any_branch)
    def test_edited_product_fails_the_secular_certificate(self, case):
        branch, lam = case
        x = fs.solve_gains_direct(branch, lam).products.copy()
        x[0] *= 1.0 + 1e-3
        edited = fs.BranchGains(1, lam, "direct", -x / branch.control_coeffs, x, 0.0)
        cert = certify(branch, edited)
        assert secular_match_error(branch, cert) > 1e-6
        assert cert.tb_residual > TB_GATE

    @PROPERTY
    @given(any_branch)
    def test_structured_tb_matches_dense(self, case):
        branch, lam = case
        g = fs.solve_gains_direct(branch, lam)
        b = branch.control_coeffs
        dense = np.linalg.norm(fs.transform_matrix(branch, g) @ b - b) / np.linalg.norm(b)
        assert abs(certify(branch, g).tb_residual - dense) <= 1e-14

    @PROPERTY
    @given(any_branch)
    def test_structured_opeq_matches_dense(self, case):
        branch, lam = case
        g = fs.solve_gains_direct(branch, lam)
        dense = operator_equality_residual(
            fs.transform_matrix(branch, g), fs.closed_loop_matrix(branch, g).matrix,
            branch, lam)
        assert abs(certify(branch, g).opeq_residual - dense) <= 1e-14

    @PROPERTY
    @given(any_branch, st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                                          allow_nan=False, allow_infinity=False))
    def test_coefficient_scaling(self, case, c):
        branch, lam = case
        g0 = fs.solve_gains_direct(branch, lam)
        g1 = fs.solve_gains_direct(branch.rescaled(c), lam)
        assert np.array_equal(g1.products, g0.products)
        np.testing.assert_allclose(g1.gains, g0.gains / c, rtol=1e-14)


class TestStructuredConditioning:
    """kappa_r from the closed-form inverse of T against the dense SVD oracle."""

    @PROPERTY
    @given(branch_to_32, admissible_r)
    def test_matches_dense_profile(self, case, r):
        branch, lam = case
        g = fs.solve_gains_direct(branch, lam)
        kappa = certify(branch, g, [r]).conditioning[r]
        dense = fs.conditioning_profile(fs.transform_matrix(branch, g), [r], 2.0, 0.0)[r]
        assert abs(kappa - dense) <= 1e-12 * max(1.0, dense) * dense

    @pytest.mark.parametrize("lam", [2.5, 10.0, 40.25])
    def test_explicit_inverse_on_heat_256(self, lam):
        # T^-1 = diag(b) C^T diag(w / b), w the closed form on -lambda_n
        branch = heat_torus_model(256).branches[0]
        g = fs.solve_gains_direct(branch, lam)
        kernel = fs.BranchKernel(branch, lam)
        b = branch.control_coeffs
        T_inv = b[:, None] * cauchy_system_matrix(branch, lam).T * (kernel.w / b)[None, :]
        kappa = fs.build_transform(kernel, g, [0.0]).conditioning[0.0]
        defect = np.max(np.abs(T_inv @ fs.transform_matrix(branch, g) - np.eye(256)))
        assert defect <= 10 * 256 * kappa * np.finfo(float).eps

    def test_single_mode_is_one(self, single_mode):
        g = fs.solve_gains_direct(single_mode, 2.0)
        kappas = certify(single_mode, g, [-1.0, 0.0, 1.0]).conditioning
        assert kappas == pytest.approx({-1.0: 1.0, 0.0: 1.0, 1.0: 1.0},
                                       rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("make_branch", [heat_branch, schrodinger_branch],
                             ids=["real", "imaginary"])
    def test_same_bits_on_every_call(self, make_branch):
        branch = make_branch(64)
        g = fs.solve_gains_direct(branch, 2.5)
        first, second = (certify(branch, g, [0.0, 0.5]).conditioning
                         for _ in range(2))
        assert first == second

    def test_only_admissible_r_are_kept(self):
        # heat branch 1: the admissible interval is (-3/2, 3/2)
        branch = heat_branch(32)
        g = fs.solve_gains_direct(branch, 2.5)
        assert list(certify(branch, g, [-2.0, 0.5, 1.5]).conditioning) == [0.5]
        assert certify(branch, g, [2.0]).conditioning == {}
        assert certify(branch, g).conditioning == {}


# Skew-adjoint branches: a purely imaginary spectrum -i c (n^alpha - 1 + jitter),
# alpha in (1, 3], with the shift from select_shift.
@st.composite
def imaginary_branches(draw, max_n=32):
    N = draw(st.integers(2, max_n))
    n = np.arange(1, N + 1, dtype=float)
    alpha = draw(st.floats(1.0, 3.0, exclude_min=True))
    jitter = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=N, max_size=N)))
    ev = -1j * draw(st.floats(0.5, 10.0)) * (n ** alpha - 1.0 + jitter)
    b = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=N, max_size=N)))
    branch = fs.SpectralBranch(1, ev, b * np.exp(1j * draw(st.floats(0.0, 6.28))),
                               alpha=alpha)
    lam = fs.select_shift(fs.SpectralSystem((branch,), "random"),
                          draw(st.floats(0.5, 5.0)), 0.25)
    return branch, lam


def complex_log_products(branch, lam):
    """The generic closed form on any spectrum: numpy's complex log per factor, one table."""
    d = branch.eigenvalues[:, None] - branch.eigenvalues[None, :]
    np.fill_diagonal(d, np.inf)
    return lam * np.exp(np.sum(np.log(1.0 + lam / d), axis=1))


def mpmath_closed_form(branch, lam, digits=60):
    """x_n = lam prod_{p != n} (1 + lam / (lambda_n - lambda_p)) at the given precision."""
    with mpmath.workdps(digits):
        ev = [mpmath.mpc(complex(v)) for v in branch.eigenvalues]
        return [lam * mpmath.fprod(1 + lam / (ev_n - ev_p) for ev_p in ev if ev_p != ev_n)
                for ev_n in ev]


class TestSkewAdjointBranches:
    """The real-pair closed form, w = conj(x) and the one-norm kappa_r."""

    @PROPERTY
    @given(imaginary_branches())
    def test_hermitian_kernel_and_conjugate_weights(self, case):
        branch, lam = case
        kernel = fs.BranchKernel(branch, lam)
        assert kernel.skew_adjoint
        assert np.array_equal(kernel.C, kernel.C.conj().T)
        negated = replace(branch, eigenvalues=-branch.eigenvalues)
        assert kernel.w.tobytes() == _closed_form_products(negated, lam).tobytes()
        assert kernel.products.tobytes() == fs.solve_gains_direct(branch, lam).products.tobytes()

    @PROPERTY
    @given(imaginary_branches(), st.sampled_from([0.0, 0.5]))
    def test_one_norm_kappa_matches_dense_profile(self, case, r):
        branch, lam = case
        g = fs.solve_gains_direct(branch, lam)
        kernel = fs.BranchKernel(branch, lam)
        kappa = fs.build_transform(kernel, g, [r]).conditioning[r]
        assert "w" not in vars(kernel)             # T^-1 was not needed
        dense = fs.conditioning_profile(fs.transform_matrix(branch, g), [r],
                                        branch.alpha, 0.0)[r]
        assert abs(kappa - dense) <= 1e-12 * max(1.0, dense) * dense

    @pytest.mark.parametrize("lam", [2.5, 40.25])
    def test_no_less_accurate_than_the_complex_log(self, lam):
        branch = schrodinger_branch(48)
        exact = mpmath_closed_form(branch, lam)

        def error(x):
            return max(float(abs(mpmath.mpc(complex(v)) - e) / abs(e)) for v, e in zip(x, exact))

        real_pair = error(fs.solve_gains_direct(branch, lam).products)
        assert real_pair <= error(complex_log_products(branch, lam))
        assert real_pair <= 2 * np.finfo(float).eps

    def test_other_spectra_keep_their_path(self):
        # a real part anywhere keeps the complex logs, an all-zero spectrum the real ones
        for ev in ([-1.0 - 1j, -4j, -9j], [0.0]):
            branch = fs.SpectralBranch(1, ev, np.ones(len(ev)), alpha=2.0)
            kernel = fs.BranchKernel(branch, 2.5)
            assert not kernel.skew_adjoint
            assert kernel.products.tobytes() == complex_log_products(branch, 2.5).tobytes()


class TestHeatGainLimits:
    """Closed limits of x_1 for the heat torus at lambda = 2.5 (criterion 4).

    Branch 1 (eigenvalues -n^2): x_1 -> 2 sinh(pi a) / (pi a), a = sqrt(lambda - 1).
    Branch 2 (eigenvalues -(n-1)^2): x_1 -> lambda sinh(pi a) / (pi a), a = sqrt(lambda).
    The truncated products approach them from below at the rate O(1/N).
    Both limits exceed 2 lambda = 5, so sup|x_n| <= 2 lambda cannot hold.
    """

    LAM = 2.5

    def limits(self):
        a1, a2 = np.sqrt(self.LAM - 1.0), np.sqrt(self.LAM)
        return (2.0 * np.sinh(np.pi * a1) / (np.pi * a1),
                self.LAM * np.sinh(np.pi * a2) / (np.pi * a2))

    def shortfalls(self, N):
        law = fs.synthesize_feedback(kernels(heat_torus_model(N), self.LAM))
        return [(lim - bg.products[0].real) / lim
                for bg, lim in zip(law.branches, self.limits())]

    def test_limits_exceed_twice_lambda(self):
        assert self.limits() == pytest.approx((12.179, 36.144), abs=1e-3)
        assert min(self.limits()) > 2.0 * self.LAM

    def test_products_approach_limits_at_rate_one_over_N(self):
        at_256, at_1024 = self.shortfalls(256), self.shortfalls(1024)
        for short, coarse in zip(at_1024, at_256):
            assert 0.0 < short < 5e-3
            assert 0.2 <= short / coarse <= 0.3
