import contextlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fredstab import cli_io
from fredstab import (BranchKernel, SolverError, SpectralBranch, SpectralSystem,
                      beta_reduced_gains, build_transform, compactness_proxy,
                      conditioning_vs_truncation, inverse_gap_sum_profile,
                      random_state, select_shift, simulate_closed_loop,
                      solve_gains_direct, solve_gains_iterative, synthesize_feedback)
from fredstab.errors import IterationDiverged
from fredstab.models import gribov_model, heat_torus_model
from fredstab.synthesis import (MAX_SWEEPS, SHIFT_SEARCH_WIDTH, _clearance,
                                _closed_form_products, cauchy_system_matrix)

from conftest import heat_branch, kernels, schrodinger_branch, worked_branch


def normalization_residual(branch, gains):
    """||C x - 1|| / sqrt(N) of the gain products against the Cauchy matrix."""
    C = cauchy_system_matrix(branch, gains.lam)
    return np.linalg.norm(C @ gains.products - 1.0) / np.sqrt(branch.N)


def dense_select_shift(system, lambda0, delta):
    """(lam, min_distance) of the shift scan over one N x N difference table per branch."""
    diffs = [b.eigenvalues[:, None] - b.eigenvalues[None, :] for b in system.branches]
    for j in range(int(2 * SHIFT_SEARCH_WIDTH) + 1):
        lam = lambda0 + j * delta / 2.0
        dist = float(np.min([np.min(np.abs(d + lam)) for d in diffs]))
        if dist >= delta:
            return lam, dist
    raise SolverError("no admissible shift")


def dense_closed_form_products(branch, lam):
    """The closed-form products from one N x N log table (no error checks).

    A purely imaginary spectrum i y, not all zero, takes the real pairs
    s = lam / (y_n - y_p) and log(1 - i s) = ½ log1p(s^2) - i atan(s).
    """
    ev = branch.eigenvalues
    real = bool(np.all(ev.imag == 0))
    pairs = not real and not np.any(ev.real)
    ev = ev.real if real else ev.imag if pairs else ev
    d = ev[:, None] - ev[None, :]
    np.fill_diagonal(d, np.inf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = np.divide(lam, d, out=d)
        if pairs:
            log_sum = np.empty(len(ev), dtype=complex)
            log_sum.imag = -np.sum(np.arctan(q), axis=1, dtype=np.longdouble)
            log_sum.real = 0.5 * np.sum(np.log1p(q * q), axis=1, dtype=np.longdouble)
            return lam * np.exp(log_sum)
        if real:
            neg = q < -1.0
            np.subtract(-2.0, q, out=q, where=neg)
            log_sum = np.sum(np.log1p(q, out=q), axis=1)
            sign = np.where(np.count_nonzero(neg, axis=1) % 2, -1.0, 1.0)
            return (lam * sign * np.exp(log_sum)).astype(complex)
        log_sum = np.sum(np.log(np.add(q, 1.0, out=q), out=q), axis=1)
        return lam * np.exp(log_sum)


# Models of every spectrum kind: real (heat, gribov at real eps), purely
# imaginary (Schrodinger) and complex (gribov at complex eps).
ORACLE_MODELS = {
    "heat": heat_torus_model,
    "schrodinger": lambda N: SpectralSystem(branches=(schrodinger_branch(N),), label="s"),
    "gribov-real": lambda N: gribov_model(N, eps=0.05),
    "gribov-complex": lambda N: gribov_model(N, eps=0.05 + 0.05j),
}
ORACLE_SIZES = [4, 5, 63, 64, 65, 129, 257, 513]


def peak_matrices(fn, *args) -> float:
    """tracemalloc peak of fn(*args), in 512 x 512 complex matrices."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * 512 ** 2)


class TestRowBlockedPasses:
    """The closed form keeps the bits of its dense table; no pass holds an N x N table."""

    @pytest.mark.parametrize("N", ORACLE_SIZES)
    @pytest.mark.parametrize("model", ORACLE_MODELS)
    @pytest.mark.parametrize("lam", [2.5, 40.25])
    def test_products_and_weights(self, model, N, lam):
        # the gains' products, and the kernel's w: those of the negated spectrum
        for branch in ORACLE_MODELS[model](N).branches:
            for br in (branch, replace(branch, eigenvalues=-branch.eigenvalues)):
                got = _closed_form_products(br, lam)
                assert got.tobytes() == dense_closed_form_products(br, lam).tobytes()

    def test_schrodinger_512_holds_no_table(self):
        # each pass holds a few row blocks, not an N x N table (the dense
        # forms peak at 2.5 and 1.06 N x N complex matrices)
        system = ORACLE_MODELS["schrodinger"](512)
        assert peak_matrices(select_shift, system, 1.0, 0.25) <= 0.25
        assert peak_matrices(_closed_form_products, system.branches[0], 2.5) <= 0.25

    def test_schrodinger_512_pipeline_peak(self, tmp_path):
        # the fixed-point route's C is freed before the kernel's C is built:
        # the kernel, one row-blocked pass and O(N) data, not two C at once
        cfg = cli_io.parse_config({
            "model": {"kind": "schrodinger_ground", "N": 512, "params": {}},
            "N": 512, "lambda0": 2.5, "delta": 0.25, "method": "both",
            "r_list": [0.0], "output_dir": str(tmp_path)})
        system = cli_io._build_system(cfg)
        assert peak_matrices(cli_io._synthesize_pipeline, cfg, system, [0.0], 2.5) <= 1.6


class TestSelectShift:
    def test_single_mode(self):
        system = SpectralSystem(
            branches=(SpectralBranch(1, [-1.0], [1.0], alpha=2.0),), label="s")
        assert select_shift(system, 5.0, 0.1) == pytest.approx(5.0)

    def test_heat_accepts_two(self):
        system = SpectralSystem(branches=(heat_branch(32),), label="h")
        shift = select_shift(system, 2.0, 0.25)
        assert shift == pytest.approx(2.0)
        # brute-force oracle over all pairs
        lam = system.branches[0].eigenvalues
        worst = min(abs(lam[n] - lam[p] + 2.0) for n in range(32) for p in range(32))
        assert _clearance(system, shift, 0.25) == pytest.approx(worst, rel=1e-12)
        assert _clearance(system, shift, 0.25) == pytest.approx(1.0)

    def test_imaginary_differences_clear_immediately(self):
        system = SpectralSystem(branches=(schrodinger_branch(32),), label="s")
        shift = select_shift(system, 1.0, 0.25)
        assert shift == pytest.approx(1.0)
        assert _clearance(system, shift, 0.25) == pytest.approx(1.0)

    def test_exhaustion_on_dense_differences(self):
        # integer eigenvalue differences cover every grid point at delta = 1
        n = np.arange(1, 301, dtype=float)
        br = SpectralBranch(1, -n, np.ones(300), alpha=2.0)
        system = SpectralSystem(branches=(br,), label="dense")
        with pytest.raises(SolverError, match="no admissible shift"):
            select_shift(system, 1.0, 1.0)


    @pytest.mark.parametrize("N", ORACLE_SIZES)
    @pytest.mark.parametrize("model, lambda0, rejects", [
        ("heat", 2.5, False),
        ("heat", 3.0, True),                    # 3 = 2^2 - 1^2
        ("schrodinger", 1.0, False),
        ("gribov-real", 7.0, True),             # 7 = 2^3 - 1^3, off by eps/2
        ("gribov-complex", 2.0, False),
        ("gribov-complex", 7.0, True),
    ], ids=["heat", "heat-rejects", "schrodinger", "gribov", "gribov-complex",
            "gribov-complex-rejects"])
    def test_bits_of_the_brute_force_over_all_branches(self, model, lambda0, rejects, N):
        # the scan over one N x N difference table per branch, row blocks or not
        system = ORACLE_MODELS[model](N)
        lam, dist = dense_select_shift(system, lambda0, 0.25)
        shift = select_shift(system, lambda0, 0.25)
        assert (shift > lambda0) == rejects
        assert shift.hex() == lam.hex()
        assert _clearance(system, shift, 0.25).hex() == dist.hex()


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
        g = solve_gains_iterative(BranchKernel(br, 2.0))
        assert g.products[0] == pytest.approx(2.0, abs=1e-14)

    def test_worked_case_matches_direct(self):
        br = worked_branch()
        gi = solve_gains_iterative(BranchKernel(br, 2.0))
        gd = solve_gains_direct(br, 2.0)
        assert np.max(np.abs(gi.products - gd.products)) < 1e-8

    def test_imaginary_spectrum_converges_fast(self):
        br = schrodinger_branch(64)
        gi = solve_gains_iterative(BranchKernel(br, 1.0))
        gd = solve_gains_direct(br, 1.0)
        assert np.max(np.abs(gi.products - gd.products)) < 1e-8
        assert gi.iterations < 20

    def test_divergence_reports_contraction_ratio(self):
        # heat at this shift has an expanding sweep operator; the failure
        # must carry the observed ratio instead of returning garbage
        with pytest.raises(IterationDiverged) as info:
            solve_gains_iterative(BranchKernel(heat_branch(64), 2.5))
        assert info.value.contraction_ratio > 1.0
        assert info.value.history is not None

    def test_overflowing_sweep_stops_with_ratio_inf(self):
        # heat N=64 at lambda0 = 40 expands until the sweep overflows; it went
        # on sweeping NaN to the last sweep, with numpy warnings on stderr
        system = heat_torus_model(64)
        kernel = BranchKernel(system.branches[0], select_shift(system, 40.0, 0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationDiverged, match="ratio inf") as info:
                solve_gains_iterative(kernel)
        history = info.value.history
        assert info.value.contraction_ratio == np.inf
        assert len(history) < MAX_SWEEPS + 1
        assert np.all(np.isfinite(history[:-1])) and not np.isfinite(history[-1])

    @pytest.mark.parametrize("N, lam", [(1, 2.0), (16, 1.0), (256, 3.7)])
    def test_kernel_sweep_matches_the_zero_diagonal_sweep(self, N, lam):
        # e - lam C e cancels the diagonal term up to rounding, so it keeps
        # the step count and the products of a sweep by -lam offdiag(C)
        kernel = BranchKernel(schrodinger_branch(N), lam)
        sweep = -lam * np.array(kernel.C)
        np.fill_diagonal(sweep, 0.0)
        e = np.full(N, lam, dtype=complex)
        x, steps = e.copy(), 0
        while np.max(np.abs(e)) >= 1e-12:
            e = sweep @ e
            x, steps = x + e, steps + 1
        g = solve_gains_iterative(kernel)
        assert g.iterations == steps
        assert np.max(np.abs(g.products - x) / np.abs(x)) <= 1e-14

    def test_history_decays_when_contractive(self):
        g = solve_gains_iterative(BranchKernel(schrodinger_branch(32), 1.0))
        assert g.history[-1] < g.history[1]


class TestShiftLowerBound:
    def test_accepted_shift_keeps_difference_proportionality(self):
        br = heat_branch(32)
        system = SpectralSystem(branches=(br,), label="h")
        shift = select_shift(system, 2.0, 0.25)
        lam_seq = br.eigenvalues
        diffs = np.array([
            lam_seq[n] - lam_seq[p]
            for n in range(32) for p in range(32) if n != p])
        min_gap = np.min(np.abs(diffs))
        c_lambda = 1.0 - shift / min_gap
        if c_lambda > 0:
            assert np.all(np.abs(diffs + shift) >= c_lambda * np.abs(diffs) - 1e-12)


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
        ratios, tail_max = inverse_gap_sum_profile(BranchKernel(heat_branch(256), 2.5))
        assert np.isfinite(tail_max)
        assert ratios[127] <= 2.0 * ratios[15]

    def test_single_mode_empty_sum(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        ratios, _ = inverse_gap_sum_profile(BranchKernel(br, 2.0))
        assert ratios[0] == 0.0


class TestBranchKernel:
    @pytest.mark.parametrize("system", [
        heat_torus_model(32),
        SpectralSystem(branches=(schrodinger_branch(32),), label="schrodinger")],
        ids=["heat", "schrodinger"])
    def test_consumers_leave_the_kernel_intact(self, system):
        ks = kernels(system, 2.5)
        law = synthesize_feedback(ks)
        for k in ks:
            with pytest.raises(ValueError, match="read-only"):
                k.C[0, 0] = 0.0
        with contextlib.suppress(IterationDiverged):      # heat's sweeps do not contract
            synthesize_feedback(ks, method="iterative")
        certs = [build_transform(k, law.branch(k.branch.index), [0.0, 0.5]) for k in ks]
        for integrator in ("semigroup_exact", "rk4"):
            simulate_closed_loop(ks, law, random_state(system), [0.0, 0.01, 0.02],
                                 integrator=integrator, dt=1e-4)
        inverse_gap_sum_profile(ks[0])
        compactness_proxy(ks[0], 0.0, 0.25)
        conditioning_vs_truncation(ks[0], certs[0])
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
        law = synthesize_feedback(kernels(system, 2.5))
        assert law.lam == 2.5
        assert {bg.branch_index for bg in law.branches} == {1, 2}
        for b, bg in zip(system.branches, law.branches):
            assert normalization_residual(b, bg) < 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            synthesize_feedback(kernels(heat_torus_model(8), 2.5), method="magic")
