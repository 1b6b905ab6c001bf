import numpy as np
import pytest

from fredstab import (SpectralBranch, assemble_system_transform,
                      build_system_transform, build_transform,
                      closed_loop_matrix, conditioning_profile,
                      control_diagonal, normalized_resolvent,
                      operator_equality_residual, solve_gains_direct,
                      synthesize_feedback)
from fredstab.models import heat_torus_model
from fredstab.synthesis import cauchy_system_matrix, resolvent_matrix

from conftest import heat_branch, schrodinger_branch, worked_branch


class TestBuildTransform:
    def test_single_mode_identity(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        g = solve_gains_direct(br, 2.0)
        T = build_transform(br, g)
        np.testing.assert_allclose(T.matrix, [[1.0]], atol=1e-15)

    @pytest.mark.parametrize("branch", [heat_branch(24), schrodinger_branch(24)])
    def test_matrix_bits_match_defining_product(self, branch):
        # transform.json stores these bytes; complex gains make them depend
        # on the operand order of (-K) * (b C)
        g = solve_gains_direct(branch, 2.5)
        C = cauchy_system_matrix(branch, 2.5)
        want = (-g.gains[None, :]) * (branch.control_coeffs[:, None] * C)
        assert build_transform(branch, g).matrix.tobytes() == want.astype(complex).tobytes()

    def test_worked_matrix_and_fixed_vector(self):
        br = worked_branch()
        g = solve_gains_direct(br, 2.0)
        T = build_transform(br, g)
        expected = np.array([[5.0 / 3.0, -2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
        np.testing.assert_allclose(T.matrix, expected, atol=1e-12)
        # hand matrix-vector oracle: T (1,1)^T = (1,1)^T
        np.testing.assert_allclose(T.matrix @ [1.0, 1.0], [1.0, 1.0], atol=1e-14)

    def test_heat_tb_residual(self):
        br = heat_branch(64)
        T = build_transform(br, solve_gains_direct(br, 2.5))
        assert T.tb_residual <= 1e-10


class TestDiagonalOperators:
    def test_unit_coefficients_identity(self):
        br = heat_branch(8)
        np.testing.assert_allclose(control_diagonal(br), np.eye(8), atol=0)

    def test_integer_coefficients(self):
        br = SpectralBranch(1, [-1, -4, -9], [1, 2, 3], alpha=2.0)
        np.testing.assert_allclose(control_diagonal(br),
                                   np.diag([1.0, 2.0, 3.0]), atol=0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(16) + 1j * rng.standard_normal(16) + 2.0
        br = SpectralBranch(1, -np.arange(1, 17.0) ** 2, b, alpha=2.0)
        tau = control_diagonal(br)
        np.testing.assert_allclose(tau @ np.linalg.inv(tau), np.eye(16), atol=1e-13)


class TestNormalizedResolvent:
    def test_unit_coefficients_collapse_to_resolvent(self):
        br = heat_branch(16)
        mat, _ = normalized_resolvent(br, 2.5)
        S, _ = resolvent_matrix(br, 2.5)
        np.testing.assert_allclose(mat, S, atol=0)

    def test_diagonal_is_inverse_shift(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(24) + 2.5
        br = SpectralBranch(1, -np.arange(1, 25.0) ** 2, b, alpha=2.0)
        mat, compact = normalized_resolvent(br, 2.5)
        np.testing.assert_allclose(np.diag(mat), np.full(24, 1 / 2.5), atol=1e-15)
        np.testing.assert_allclose(np.diag(compact), np.zeros(24), atol=0)

    def test_column_reconstruction_of_transform(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(64) + 2.0
        br = SpectralBranch(1, -np.arange(1, 65.0) ** 2, b, alpha=2.0)
        g = solve_gains_direct(br, 2.5)
        T = build_transform(br, g).matrix
        mat, _ = normalized_resolvent(br, 2.5)
        np.testing.assert_allclose(T, g.products[None, :] * mat, atol=1e-12)


class TestClosedLoop:
    def test_single_mode_shift(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        cl = closed_loop_matrix(br, solve_gains_direct(br, 2.0))
        np.testing.assert_allclose(cl.matrix, [[-3.0]], atol=1e-15)

    def test_worked_spectrum_char_poly_oracle(self):
        br = worked_branch()
        cl = closed_loop_matrix(br, solve_gains_direct(br, 2.0))
        # characteristic polynomial oracle: z^2 - tr z + det
        tr = cl.matrix[0, 0] + cl.matrix[1, 1]
        det = cl.matrix[0, 0] * cl.matrix[1, 1] - cl.matrix[0, 1] * cl.matrix[1, 0]
        roots = np.roots([1.0, -tr, det])
        np.testing.assert_allclose(sorted(roots.real), [-6.0, -3.0], atol=1e-12)
        np.testing.assert_allclose(sorted(cl.spectrum.real), [-6.0, -3.0], atol=1e-12)

    def test_heat_spectrum_matches_shift(self):
        br = heat_branch(32)
        cl = closed_loop_matrix(br, solve_gains_direct(br, 2.5))
        got = np.sort(cl.spectrum.real)
        want = np.sort(br.eigenvalues.real - 2.5)
        rel = np.max(np.abs(got - want) / np.abs(want))
        assert rel <= 1e-6

    def test_rank_one_structure(self):
        br = heat_branch(24)
        cl = closed_loop_matrix(br, solve_gains_direct(br, 2.5))
        assert cl.rank_one_defect <= 1e-10 * np.linalg.norm(cl.matrix)


class TestOperatorEquality:
    def test_single_mode_zero(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        g = solve_gains_direct(br, 2.0)
        T = build_transform(br, g)
        assert T.opeq_residual == pytest.approx(0.0, abs=1e-16)

    def test_worked_case_rounding_level(self):
        br = worked_branch()
        T = build_transform(br, solve_gains_direct(br, 2.0))
        assert T.opeq_residual <= 1e-15

    def test_heat_128(self):
        br = heat_branch(128)
        g = solve_gains_direct(br, 2.5)
        T = build_transform(br, g)
        assert T.opeq_residual <= 1e-8
        cl = closed_loop_matrix(br, g)
        manual = operator_equality_residual(T.matrix, cl.matrix, br, 2.5)
        assert manual == pytest.approx(T.opeq_residual, abs=1e-14)


class TestConditioning:
    def test_single_mode_unit(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        T = build_transform(br, solve_gains_direct(br, 2.0))
        prof = conditioning_profile(T.matrix, [-1.0, 0.0, 1.0], 2.0, 0.0)
        assert all(k == pytest.approx(1.0) for k in prof.values())

    def test_heat_plateau(self):
        kappas = {}
        for N in (32, 64, 128):
            br = heat_branch(N)
            T = build_transform(br, solve_gains_direct(br, 2.5))
            kappas[N] = conditioning_profile(T.matrix, [0.0], 2.0, 0.0)[0.0]
        assert kappas[64] / kappas[32] < 2.0
        assert kappas[128] / kappas[64] < 2.0

    def test_boundary_r_rejected(self):
        br = heat_branch(8)
        T = build_transform(br, solve_gains_direct(br, 2.5))
        with pytest.raises(ValueError, match="admissible open interval"):
            conditioning_profile(T.matrix, [1.5], 2.0, 0.0)

    def test_nested_truncation_plateau(self):
        from fredstab import conditioning_vs_truncation
        prof = conditioning_vs_truncation(heat_branch(128), 2.5, 0.0)
        assert sorted(prof) == [32, 64, 128]
        vals = [prof[n] for n in sorted(prof)]
        assert max(vals) / min(vals) < 2.0


class TestAssembly:
    def test_two_branch_block_diagonal(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(system, 2.5)
        tr = build_system_transform(system, law)
        assembled = assemble_system_transform(tr.branches)
        assert assembled.matrix.shape == (32, 32)
        np.testing.assert_allclose(assembled.matrix[:16, 16:], np.zeros((16, 16)),
                                   atol=0)
        np.testing.assert_allclose(assembled.matrix @ assembled.inverse,
                                   np.eye(32), atol=1e-10)

    def test_single_branch_passthrough(self):
        br = heat_branch(8)
        T = build_transform(br, solve_gains_direct(br, 2.5))
        assembled = assemble_system_transform([T])
        np.testing.assert_allclose(assembled.matrix, T.matrix, atol=0)

    def test_mismatched_shift_rejected(self):
        br = heat_branch(8)
        T1 = build_transform(br, solve_gains_direct(br, 2.5))
        T2 = build_transform(br, solve_gains_direct(br, 2.0))
        with pytest.raises(ValueError, match="mismatched shift"):
            assemble_system_transform([T1, T2])

    def test_mismatched_truncation_rejected(self):
        T1 = build_transform(heat_branch(8), solve_gains_direct(heat_branch(8), 2.5))
        T2 = build_transform(heat_branch(16), solve_gains_direct(heat_branch(16), 2.5))
        with pytest.raises(ValueError, match="mismatched truncation"):
            assemble_system_transform([T1, T2])


class TestScalingCovariance:
    def test_transform_invariant_under_coefficient_scaling(self):
        br = heat_branch(32)
        c = 7.0 + 3.0j
        scaled = br.rescaled(c)
        T0 = build_transform(br, solve_gains_direct(br, 2.5))
        T1 = build_transform(scaled, solve_gains_direct(scaled, 2.5))
        np.testing.assert_allclose(T1.matrix, T0.matrix, atol=1e-12)
