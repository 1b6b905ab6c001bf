import numpy as np
import pytest

from fredstab import (BranchKernel, SolverError, SpectralBranch, SpectralSystem,
                      beta_reduced_gains, build_transform, compactness_proxy,
                      conditioning_vs_truncation, inverse_gap_sum_profile,
                      random_state, select_shift, simulate_closed_loop,
                      solve_gains_direct, solve_gains_iterative, synthesize_feedback)
from fredstab.errors import IterationDiverged
from fredstab.models import gribov_model, heat_torus_model
from fredstab.synthesis import SHIFT_SEARCH_WIDTH, cauchy_system_matrix

from conftest import heat_branch, kernels, schrodinger_branch, worked_branch


def normalization_residual(branch, gains):
    """||C x - 1|| / sqrt(N) of the gain products against the Cauchy matrix."""
    C = cauchy_system_matrix(branch, gains.lam)
    return np.linalg.norm(C @ gains.products - 1.0) / np.sqrt(branch.N)


class TestSelectShift:
    def test_single_mode(self):
        system = SpectralSystem(
            branches=(SpectralBranch(1, [-1.0], [1.0], alpha=2.0),), label="s")
        sel = select_shift(system, 5.0, 0.1)
        assert sel.lam == pytest.approx(5.0)

    def test_heat_accepts_two(self):
        system = SpectralSystem(branches=(heat_branch(32),), label="h")
        sel = select_shift(system, 2.0, 0.25)
        assert sel.lam == pytest.approx(2.0)
        # brute-force oracle over all pairs
        lam = system.branches[0].eigenvalues
        worst = min(abs(lam[n] - lam[p] + 2.0) for n in range(32) for p in range(32))
        assert sel.min_distance == pytest.approx(worst, rel=1e-12)
        assert sel.min_distance == pytest.approx(1.0)

    def test_imaginary_differences_clear_immediately(self):
        system = SpectralSystem(branches=(schrodinger_branch(32),), label="s")
        sel = select_shift(system, 1.0, 0.25)
        assert sel.lam == pytest.approx(1.0)
        assert sel.min_distance == pytest.approx(1.0)

    def test_exhaustion_on_dense_differences(self):
        # integer eigenvalue differences cover every grid point at delta = 1
        n = np.arange(1, 301, dtype=float)
        br = SpectralBranch(1, -n, np.ones(300), alpha=2.0)
        system = SpectralSystem(branches=(br,), label="dense")
        with pytest.raises(SolverError, match="no admissible shift"):
            select_shift(system, 1.0, 1.0)


    @pytest.mark.parametrize("system, lambda0, rejects", [
        (heat_torus_model(32), 2.5, False),
        (heat_torus_model(32), 3.0, True),          # 3 = 2^2 - 1^2
        (SpectralSystem(branches=(schrodinger_branch(32),), label="s"), 1.0, False),
        (gribov_model(24, eps=0.05 + 0.05j), 2.0, False),
        (gribov_model(24, eps=0.05 + 0.05j), 7.0, True),   # 7 = 2^3 - 1^3, off by eps/2
    ], ids=["heat", "heat-rejects", "schrodinger", "gribov", "gribov-rejects"])
    def test_bits_of_the_brute_force_over_all_branches(self, system, lambda0, rejects):
        # the minimum over one table of every branch's differences
        diffs = np.concatenate([(b.eigenvalues[:, None] - b.eigenvalues[None, :]).ravel()
                                for b in system.branches])
        for j in range(int(2 * SHIFT_SEARCH_WIDTH) + 1):
            lam = lambda0 + j * 0.25 / 2.0
            dist = float(np.min(np.abs(diffs + lam)))
            if dist >= 0.25:
                break
        sel = select_shift(system, lambda0, 0.25)
        assert (sel.lam > lambda0) == rejects
        assert sel.lam.hex() == lam.hex()
        assert sel.min_distance.hex() == dist.hex()


class TestResolvent:
    def test_single_mode_column(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        np.testing.assert_allclose(cauchy_system_matrix(br, 2.0)[:, 0], [0.5])

    def test_worked_column(self):
        q1 = cauchy_system_matrix(worked_branch(), 2.0)[:, 0]
        np.testing.assert_allclose(q1, [0.5, 0.2], atol=1e-15)

    def test_matrix_and_split(self):
        S = cauchy_system_matrix(worked_branch(), 2.0)
        np.testing.assert_allclose(S, [[0.5, -1.0], [0.2, 0.5]], atol=1e-15)
        np.testing.assert_allclose(np.diag(S), [0.5, 0.5], atol=1e-15)
        # C = I / lam + S_c with |C_pp| = 1 / |lam| exactly: the gap sums
        # and the compactness proxy take S_c from C on that identity
        for branch in (worked_branch(), heat_branch(16), schrodinger_branch(16)):
            assert np.all(np.abs(np.diag(cauchy_system_matrix(branch, 2.5))) == 1.0 / 2.5)


class TestDirectSolve:
    def test_single_mode_exact(self):
        br = SpectralBranch(1, [-1.0], [2.0], alpha=2.0)
        g = solve_gains_direct(br, 2.0)
        assert g.products[0] == pytest.approx(2.0, abs=1e-15)
        assert g.gains[0] == pytest.approx(-1.0, abs=1e-15)
        # closed-loop eigenvalue lambda_1 + b_1 K_1 = lambda_1 - lam
        assert br.eigenvalues[0] + br.control_coeffs[0] * g.gains[0] == \
            pytest.approx(-3.0, abs=1e-15)

    def test_worked_case_against_cramer(self):
        br = worked_branch()
        g = solve_gains_direct(br, 2.0)
        # Cramer oracle on [[0.5, -1], [0.2, 0.5]] x = (1, 1)
        det = 0.5 * 0.5 - (-1.0) * 0.2
        x1 = (1.0 * 0.5 - (-1.0) * 1.0) / det
        x2 = (0.5 * 1.0 - 1.0 * 0.2) / det
        np.testing.assert_allclose(g.products, [x1, x2], atol=1e-14)
        np.testing.assert_allclose(g.products, [10.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(g.gains, [-10.0 / 3.0, -2.0 / 3.0], atol=1e-12)

    def test_heat_tail_flattens(self):
        br = heat_branch(256)
        g = solve_gains_direct(br, 2.5)
        d = np.abs(g.products - 2.5)
        assert d[-1] < d[0]
        assert normalization_residual(br, g) < 1e-12

    def test_singularity_guard(self):
        # shift exactly on an eigenvalue difference
        with pytest.raises(SolverError):
            solve_gains_direct(worked_branch(), 3.0)


class TestIterativeSolve:
    def test_single_mode(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        g = solve_gains_iterative(br, 2.0)
        assert g.products[0] == pytest.approx(2.0, abs=1e-14)

    def test_worked_case_matches_direct(self):
        br = worked_branch()
        gi = solve_gains_iterative(br, 2.0)
        gd = solve_gains_direct(br, 2.0)
        assert np.max(np.abs(gi.products - gd.products)) < 1e-8

    def test_imaginary_spectrum_converges_fast(self):
        br = schrodinger_branch(64)
        gi = solve_gains_iterative(br, 1.0)
        gd = solve_gains_direct(br, 1.0)
        assert np.max(np.abs(gi.products - gd.products)) < 1e-8
        assert gi.iterations < 20

    def test_divergence_reports_contraction_ratio(self):
        # heat at this shift has an expanding sweep operator; the failure
        # must carry the observed ratio instead of returning garbage
        with pytest.raises(IterationDiverged) as info:
            solve_gains_iterative(heat_branch(64), 2.5, max_iters=80)
        assert info.value.contraction_ratio > 1.0
        assert info.value.history is not None

    def test_history_decays_when_contractive(self):
        g = solve_gains_iterative(schrodinger_branch(32), 1.0)
        assert g.history[-1] < g.history[1]


class TestShiftLowerBound:
    def test_accepted_shift_keeps_difference_proportionality(self):
        br = heat_branch(32)
        system = SpectralSystem(branches=(br,), label="h")
        sel = select_shift(system, 2.0, 0.25)
        lam_seq = br.eigenvalues
        diffs = np.array([
            lam_seq[n] - lam_seq[p]
            for n in range(32) for p in range(32) if n != p])
        min_gap = np.min(np.abs(diffs))
        c_lambda = 1.0 - sel.lam / min_gap
        if c_lambda > 0:
            assert np.all(np.abs(diffs + sel.lam) >= c_lambda * np.abs(diffs) - 1e-12)


class TestScalingCovariance:
    def test_products_and_spectrum_invariant(self):
        br = heat_branch(32)
        c = 7.0 + 3.0j
        scaled = br.rescaled(c)
        g0 = solve_gains_direct(br, 2.5)
        g1 = solve_gains_direct(scaled, 2.5)
        np.testing.assert_allclose(g1.products, g0.products, atol=1e-12)
        np.testing.assert_allclose(g1.gains, g0.gains / c, atol=1e-12)


class TestBetaReduction:
    def test_matches_direct_path(self):
        n = np.arange(1, 49, dtype=float)
        br = SpectralBranch(1, -n ** 2, (2.0 + 0.3j) / n, alpha=2.0, beta=1.0)
        reduced = beta_reduced_gains(br, 2.5)
        direct = solve_gains_direct(br, 2.5)
        assert np.max(np.abs(reduced.gains - direct.gains)) < 1e-10
        assert np.max(np.abs(reduced.products - direct.products)) < 1e-10


class TestInverseGapProfile:
    def test_heat_profile_bounded(self):
        ratios, tail_max = inverse_gap_sum_profile(BranchKernel(heat_branch(256), 2.5), 0.0)
        assert np.isfinite(tail_max)
        assert ratios[127] <= 2.0 * ratios[15]

    def test_s_at_alpha_minus_one_rejected(self):
        with pytest.raises(ValueError, match="alpha-1"):
            inverse_gap_sum_profile(BranchKernel(heat_branch(16), 2.5), 1.0)

    def test_single_mode_empty_sum(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        ratios, _ = inverse_gap_sum_profile(BranchKernel(br, 2.0), 0.0)
        assert ratios[0] == 0.0


class TestBranchKernel:
    @pytest.mark.parametrize("system", [
        heat_torus_model(32),
        SpectralSystem(branches=(schrodinger_branch(32),), label="schrodinger")],
        ids=["heat", "schrodinger"])
    def test_consumers_leave_the_kernel_intact(self, system):
        law = synthesize_feedback(system, 2.5)
        ks = kernels(system, law.lam)
        for k in ks:
            with pytest.raises(ValueError, match="read-only"):
                k.C[0, 0] = 0.0
        for k in ks:
            build_transform(k, law.branch(k.branch.index), [0.0, 0.5])
        for integrator in ("semigroup_exact", "rk4"):
            simulate_closed_loop(ks, law, random_state(system), [0.0, 0.01, 0.02],
                                 integrator=integrator, dt=1e-4)
        inverse_gap_sum_profile(ks[0], 0.0)
        compactness_proxy(ks[0], 0.0, 0.25, ks[0].branch.alpha)
        conditioning_vs_truncation(ks[0], 0.0)
        for k in ks:
            assert k.C.tobytes() == cauchy_system_matrix(k.branch, law.lam).tobytes()

    def test_truncation_is_a_view_of_the_leading_block(self):
        branch = schrodinger_branch(24)
        kernel = BranchKernel(branch, 2.5)
        assert kernel.truncated(24) is kernel
        sub = kernel.truncated(6)
        assert sub.branch.N == 6 and sub.lam == kernel.lam
        assert np.shares_memory(sub.C, kernel.C)
        assert sub.C.tobytes() == cauchy_system_matrix(branch.truncated(6), 2.5).tobytes()
        assert sub.w.tobytes() == BranchKernel(branch.truncated(6), 2.5).w.tobytes()
        assert len(kernel.w) == 24


class TestSynthesizeFeedback:
    def test_two_branch_law(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(system, 2.5)
        assert law.lam == 2.5
        assert {bg.branch_index for bg in law.branches} == {1, 2}
        for b, bg in zip(system.branches, law.branches):
            assert normalization_residual(b, bg) < 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            synthesize_feedback(heat_torus_model(8), 2.5, method="magic")
