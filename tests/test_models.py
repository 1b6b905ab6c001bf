import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from fredstab import AssumptionError, SolverError, verify_control, verify_growth
from fredstab.models import (SturmLiouvilleProblem, _simpson_weights, gribov_model,
                             heat_torus_model, liouville_transform, schrodinger_model,
                             sturm_liouville_eigs_direct, sturm_liouville_model)
from fredstab.spectral_core import classify_controllability


def uniform_problem(a_fun, b_fun, L, bc, grid_size=2000):
    c1, c2, c3, c4 = bc
    return SturmLiouvilleProblem.from_callables(a_fun, b_fun, L, c1, c2, c3, c4,
                                                grid_size=grid_size)


class TestHeatTorus:
    def test_eigenvalue_layout(self):
        system = heat_torus_model(4)
        np.testing.assert_allclose(system.branches[0].eigenvalues.real,
                                   [-1, -4, -9, -16])
        np.testing.assert_allclose(system.branches[1].eigenvalues.real,
                                   [0, -1, -4, -9])

    def test_multiplicity_structure(self):
        system = heat_torus_model(8)
        flat = [z.real for b in system.branches for z in b.eigenvalues]
        assert flat.count(0.0) == 1
        for n in range(1, 8):           # -N^2 appears once, cut by truncation
            assert flat.count(-float(n ** 2)) == 2

    def test_zero_coefficient_rejected(self):
        b1 = np.ones(8)
        b1[1] = 0.0
        with pytest.raises(AssumptionError, match="b_2"):
            heat_torus_model(8, phi1_coeffs=b1)

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError, match="N >= 4"):
            heat_torus_model(3)

    def test_gamma_slack_passes_control_check(self):
        system = heat_torus_model(64, gamma=0.3)
        check = verify_control(system.branches[0])
        assert check.ok
        assert check.gamma_hat <= 0.3 + 0.02


def projections(system):
    """The pairings <mu Phi_1, Phi_n> of a Schrodinger system: b_n / sigma_n^1.5."""
    sigma = (np.pi * system.branches[0].mode_indices) ** 2.0
    return system.branches[0].control_coeffs.real / sigma ** 1.5


class TestSchrodinger:
    def test_third_eigenvalue(self):
        x = np.linspace(0, 1, 1025)
        system = schrodinger_model(8, x ** 2)
        assert system.branches[0].eigenvalues[2] == pytest.approx(
            -1j * np.pi ** 2 * 8.0, abs=1e-12)

    def test_purely_imaginary_spectrum(self):
        x = np.linspace(0, 1, 1025)
        system = schrodinger_model(16, x ** 2)
        assert np.max(np.abs(system.branches[0].eigenvalues.real)) == 0.0

    def test_projections_against_high_resolution_oracle(self):
        # oracle: same integrals at 2^16 + 1 quadrature points
        x_hi = np.linspace(0, 1, 2 ** 16 + 1)
        mu_hi = x_hi ** 2
        phi1 = np.sqrt(2) * np.sin(np.pi * x_hi)
        oracle = np.array([
            scipy.integrate.simpson(mu_hi * phi1 * np.sqrt(2) * np.sin(n * np.pi * x_hi),
                                    x=x_hi)
            for n in range(1, 33)])
        x = np.linspace(0, 1, 4097)
        np.testing.assert_allclose(projections(schrodinger_model(32, x ** 2)), oracle,
                                   rtol=1e-7)

    def test_cubic_decay_rate_for_quadratic_mu(self):
        x = np.linspace(0, 1, 8193)
        inner = projections(schrodinger_model(64, x ** 2))
        n = np.arange(2, 65, dtype=float)
        scaled = np.abs(inner[1:]) * n ** 3
        # classical integration-by-parts rate: n^3 |<mu Phi_1, Phi_n>| settles
        assert scaled.max() / scaled.min() < 3.0

    def test_zero_mu_rejected(self):
        x = np.linspace(0, 1, 1025)
        with pytest.raises(SolverError, match="vanishes"):
            schrodinger_model(8, np.zeros_like(x))

    def test_coarse_sampling_rejected(self):
        with pytest.raises(ValueError, match="512"):
            schrodinger_model(8, np.ones(100))

    def test_projections_against_mpmath_sine_sums(self):
        # the same Simpson sum sum_j g_j sin(pi j k / M) at 40 digits; the
        # per-mode np.sin(k pi x) route missed k = 511 by 2.4e-7 relative
        M = 2048
        x = np.linspace(0.0, 1.0, M + 1)
        g = _simpson_weights(x) * x ** 2 * np.sqrt(2.0) * np.sin(np.pi * x) * np.sqrt(2.0)
        floor = 64 * np.finfo(float).eps * np.sum(np.abs(g))
        inner = projections(schrodinger_model(512, x ** 2))
        with mpmath.workdps(40):
            for k in (1, 2, 64, 256, 384, 511, 512):
                want = mpmath.fsum(mpmath.mpf(float(gj)) * mpmath.sinpi(mpmath.mpf(j * k) / M)
                                   for j, gj in enumerate(g))
                err = abs(mpmath.mpf(float(inner[k - 1])) - want)
                assert err <= floor, k
                if k == 511:
                    assert err < 1e-8 * abs(want)

    @pytest.mark.parametrize("points", [2048, 2047, 600])
    def test_truncation_at_the_grid_size_rejected(self, points):
        # sin(pi j M / M) vanishes at every node, so b_M does
        x = np.linspace(0, 1, points + 1)
        for N in (points, points + 3):
            with pytest.raises(SolverError, match=f"b_{points} vanishes"):
                schrodinger_model(N, x ** 2)

    def test_build_allocates_no_mode_by_sample_table(self):
        # a 512 x 2049 table of floats would take 8.4 MB
        x = np.linspace(0, 1, 2049)
        mu = x ** 2
        tracemalloc.start()
        try:
            schrodinger_model(512, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestLiouvilleTransform:
    def test_identity_coefficients(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            1.0, (3.0, 2.0, 1.0, 4.0))
        data = liouville_transform(p)
        assert data.M == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(data.Q_values)) < 1e-10
        np.testing.assert_allclose(data.c_tilde, (3.0, 2.0, 1.0, 4.0), atol=1e-10)

    def test_constant_stiffness_rescales_length(self):
        p = uniform_problem(lambda x: 4.0 * np.ones_like(x),
                            lambda x: np.zeros_like(x), 2.0, (1.0, 0.0, 1.0, 0.0))
        data = liouville_transform(p)
        # closed-form: M = integral of 1/2 over [0, 2] = 1
        assert data.M == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(data.Q_values)) < 1e-10

    def test_quadratic_stiffness_symbolic_oracle(self):
        # a = (1+x)^2: a^{1/4} = e^{y/2} in the stretched variable, so the
        # curvature term is identically 1/4 and Q = -1/4; M = log 2
        p = uniform_problem(lambda x: (1 + x) ** 2, lambda x: np.zeros_like(x),
                            1.0, (1.0, 0.0, 1.0, 0.0))
        data = liouville_transform(p)
        assert data.M == pytest.approx(np.log(2.0), abs=1e-7)
        np.testing.assert_allclose(data.Q_values, -0.25 * np.ones_like(data.Q_values),
                                   atol=1e-7)

    def test_nonpositive_stiffness_rejected(self):
        x = np.linspace(0, 1, 256)
        with pytest.raises(ValueError, match="strictly positive"):
            SturmLiouvilleProblem(a_values=x, b_values=np.zeros_like(x), L=1.0,
                                  c1=1.0, c2=0.0, c3=1.0, c4=0.0, grid_size=255)


def looped_eigs_direct(problem, N):
    """sturm_liouville_eigs_direct as it was written first, one row per loop pass."""
    x = problem.x_grid
    a = problem.a_values
    b = problem.b_values
    h = x[1] - x[0]
    G = problem.grid_size
    a_mid = 0.5 * (a[:-1] + a[1:])
    keep_left = problem.c2 != 0.0
    keep_right = problem.c4 != 0.0
    idx = np.arange(0 if keep_left else 1, G + 1 if keep_right else G)
    size = len(idx)
    main = np.empty(size)
    off = np.empty(size - 1)
    for row, i in enumerate(idx):
        if i == 0:
            main[row] = -2.0 * a_mid[0] / h ** 2 + 2.0 * a[0] * problem.c1 / (problem.c2 * h) + b[0]
        elif i == G:
            main[row] = -2.0 * a_mid[-1] / h ** 2 - 2.0 * a[-1] * problem.c3 / (problem.c4 * h) + b[G]
        else:
            main[row] = -(a_mid[i - 1] + a_mid[i]) / h ** 2 + b[i]
    for row in range(size - 1):
        off[row] = a_mid[idx[row]] / h ** 2
    if keep_left:
        off[0] *= np.sqrt(2.0)
    if keep_right:
        off[-1] *= np.sqrt(2.0)
    vals = scipy.linalg.eigh_tridiagonal(
        main, off, select="i", select_range=(size - N, size - 1))[0]
    return vals[np.argsort(vals)[::-1]]


class TestSturmLiouvilleModel:
    def test_x_grid_spans_zero_to_L(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            2.5, (1.0, 0.0, 1.0, 0.0), grid_size=400)
        assert p.x_grid[0] == 0.0 and p.x_grid[-1] == p.L and len(p.x_grid) == 401

    @pytest.mark.parametrize("a_fun, b_fun, bc, N", [
        # acceptance criterion 11: Dirichlet Laplacian on [0, 1]
        (lambda x: np.ones_like(x), lambda x: np.zeros_like(x), (1.0, 0.0, 1.0, 0.0), 10),
        (lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), lambda x: np.cos(2 * np.pi * x),
         (1.0, 0.5, 2.0, 0.3), 12),
        (lambda x: (1 + x) ** 2, lambda x: np.zeros_like(x), (1.0, 0.0, 0.0, 1.0), 8),
    ], ids=["criterion-11", "robin", "dirichlet-neumann"])
    def test_direct_eigenvalues_keep_the_bits_of_the_row_loop(self, a_fun, b_fun, bc, N):
        p = uniform_problem(a_fun, b_fun, 1.0, bc)
        got = sturm_liouville_eigs_direct(p, N)
        assert got.tobytes() == looped_eigs_direct(p, N).tobytes()

    def test_dirichlet_laplacian_oracle(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            1.0, (1.0, 0.0, 1.0, 0.0))
        system, _ = sturm_liouville_model(p, 10, 1.0 + p.x_grid)
        exact = -(np.arange(1, 11) * np.pi) ** 2
        rel = np.abs(system.branches[0].eigenvalues.real - exact) / np.abs(exact)
        assert rel.max() < 1e-3

    def test_neumann_includes_zero_mode(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            1.0, (0.0, 1.0, 0.0, 1.0))
        vals = sturm_liouville_eigs_direct(p, 6)
        exact = -((np.arange(6)) * np.pi) ** 2
        np.testing.assert_allclose(vals, exact, atol=5e-3)

    def test_transform_invariance(self):
        p = uniform_problem(lambda x: (1 + x) ** 2, lambda x: np.zeros_like(x),
                            1.0, (1.0, 0.0, 1.0, 0.0))
        system, _ = sturm_liouville_model(p, 10, np.ones_like(p.x_grid))
        direct = sturm_liouville_eigs_direct(p, 10)
        rel = np.abs(system.branches[0].eigenvalues.real - direct) / np.abs(direct)
        assert rel.max() < 1e-3

    def test_quadratic_growth_trend(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            1.0, (1.0, 0.0, 1.0, 0.0))
        system, _ = sturm_liouville_model(p, 32, 1.0 + p.x_grid)
        lam = system.branches[0].eigenvalues.real
        n = np.arange(1, 33, dtype=float)
        ratios = lam[15:] / n[15:] ** 2
        spread = (ratios.max() - ratios.min()) / np.abs(ratios.mean())
        assert spread < 0.05

    def test_spectrum_real_and_decreasing(self):
        p = uniform_problem(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x),
                            lambda x: np.cos(2 * np.pi * x),
                            1.0, (1.0, 0.0, 0.0, 1.0))
        system, _ = sturm_liouville_model(p, 12, 1.0 + p.x_grid)
        lam = system.branches[0].eigenvalues
        assert np.max(np.abs(lam.imag)) == 0.0
        assert np.all(np.diff(lam.real) < 0)

    def test_orthogonal_control_shape_rejected(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            1.0, (1.0, 0.0, 1.0, 0.0))
        # sin(2 pi x) pairs with the n = 2 Dirichlet mode only
        with pytest.raises(SolverError, match="vanishes"):
            sturm_liouville_model(p, 4, np.sin(2 * np.pi * p.x_grid))

    def test_mode_normalization(self):
        p = uniform_problem(lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
                            1.0, (1.0, 0.0, 1.0, 0.0))
        _, modes = sturm_liouville_model(p, 5, 1.0 + p.x_grid)
        for j in range(5):
            norm = scipy.integrate.trapezoid(modes.modes_x[:, j] ** 2, p.x_grid)
            assert norm == pytest.approx(1.0, abs=1e-6)


class TestGribov:
    def test_unperturbed_cubes(self):
        system = gribov_model(6)
        np.testing.assert_allclose(system.branches[0].eigenvalues.real,
                                   [-1, -8, -27, -64, -125, -216], atol=0)

    def test_perturbed_growth_fit(self):
        system = gribov_model(64, eps=0.05)
        check = verify_growth(system.branches[0])
        assert check.alpha_hat == pytest.approx(3.0, abs=0.05)

    def test_eps_cap(self):
        with pytest.raises(ValueError, match="cap"):
            gribov_model(8, eps=0.2)

    def test_overflowing_r_is_refused_without_a_warning(self):
        # n ** r overflows to inf; the non-finite refusal is the only signal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="control_coeffs contains non-finite"):
                gribov_model(16, r=400.0)

    def test_r_outside_interval_rejected_by_classifier(self):
        system = gribov_model(16, r=2.6)
        with pytest.raises(ValueError, match="admissible open interval"):
            classify_controllability(system.branches[0], r=2.6)

    def test_r_inside_interval_accepted(self):
        system = gribov_model(16, r=2.0)
        cls = classify_controllability(system.branches[0], r=2.0)
        assert "not-necessarily-admissible" in cls.labels

