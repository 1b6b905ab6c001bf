"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line.  Each
criterion carries its tolerances inline; sub-checks are collected first so
a failure message lists everything that was measured.
"""

import numpy as np
import pytest

import fredstab as fs
from fredstab.errors import IterationDiverged
from fredstab.models import (SturmLiouvilleProblem, gribov_model,
                             heat_torus_model, schrodinger_model,
                             sturm_liouville_eigs_direct, sturm_liouville_model)
from fredstab.diagnostics import gain_trend, spectrum_match_error

from conftest import kernels


def _finish(k, label, checks):
    ok = all(passed for _, passed, _ in checks)
    print(f"ACCEPTANCE {k:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    for name, passed, detail in checks:
        print(f"    {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {k} ({label}): " + "; ".join(
        f"{name}: {detail}" for name, passed, detail in checks if not passed)


def test_criterion_01_single_mode_exactness():
    br = fs.SpectralBranch(1, [-1.0], [2.0], alpha=2.0)
    lam = 2.0
    g = fs.solve_gains_direct(br, lam)
    T = fs.transform_matrix(br, g)
    cl = fs.closed_loop_matrix(br, g)
    checks = [
        ("x_1 = lambda", abs(g.products[0] - lam) <= 1e-14,
         f"|x_1 - lambda| = {abs(g.products[0] - lam):.2e}"),
        ("T = identity", abs(T[0, 0] - 1.0) <= 1e-14,
         f"|T - 1| = {abs(T[0, 0] - 1.0):.2e}"),
        ("closed-loop eigenvalue", abs(cl.spectrum[0] - (-3.0)) <= 1e-14,
         f"|eig - (lambda_1 - lambda)| = {abs(cl.spectrum[0] + 3.0):.2e}"),
    ]
    _finish(1, "single-mode exactness", checks)


def test_criterion_02_worked_two_by_two():
    br = fs.SpectralBranch(1, [-1.0, -4.0], [1.0, 1.0], alpha=2.0)
    lam = 2.0
    g = fs.solve_gains_direct(br, lam)
    # Cramer oracle on the hand-built matrix [[0.5, -1], [0.2, 0.5]]
    det = 0.5 * 0.5 + 1.0 * 0.2
    oracle_x = np.array([(0.5 + 1.0) / det, (0.5 - 0.2) / det])
    T = fs.transform_matrix(br, g)
    T_expected = np.array([[5 / 3, -2 / 3], [2 / 3, 1 / 3]])
    cl = fs.closed_loop_matrix(br, g)
    # characteristic-polynomial oracle for the spectrum
    tr_ = cl.matrix[0, 0] + cl.matrix[1, 1]
    det_ = cl.matrix[0, 0] * cl.matrix[1, 1] - cl.matrix[0, 1] * cl.matrix[1, 0]
    poly_roots = np.sort(np.roots([1.0, -tr_, det_]).real)
    checks = [
        ("x vs Cramer oracle", np.max(np.abs(g.products - oracle_x)) <= 1e-12,
         f"max dev = {np.max(np.abs(g.products - oracle_x)):.2e}"),
        ("x = (10/3, 2/3)",
         np.max(np.abs(g.products - [10 / 3, 2 / 3])) <= 1e-12,
         f"max dev = {np.max(np.abs(g.products - [10 / 3, 2 / 3])):.2e}"),
        ("T matrix", np.max(np.abs(T - T_expected)) <= 1e-12,
         f"max dev = {np.max(np.abs(T - T_expected)):.2e}"),
        ("spectrum {-3, -6}",
         np.max(np.abs(np.sort(cl.spectrum.real) - [-6.0, -3.0])) <= 1e-12,
         f"got {np.sort(cl.spectrum.real)}"),
        ("char-poly oracle agrees",
         np.max(np.abs(poly_roots - [-6.0, -3.0])) <= 1e-12,
         f"roots {poly_roots}"),
    ]
    _finish(2, "worked 2x2 case", checks)


def test_criterion_03_truncated_conjugacy():
    checks = []

    def run(label, system):
        lam = fs.select_shift(system, 2.0, 0.25)
        law = fs.synthesize_feedback(kernels(system, lam))
        worst_eig = worst_opeq = worst_tb = 0.0
        for b in system.branches:
            bg = law.branch(b.index)
            T = fs.build_transform(fs.BranchKernel(b, law.lam), bg)
            cl = fs.closed_loop_matrix(b, bg)
            worst_eig = max(worst_eig,
                            spectrum_match_error(cl.spectrum, b.eigenvalues, law.lam))
            worst_opeq = max(worst_opeq, T.opeq_residual)
            worst_tb = max(worst_tb, T.tb_residual)
        checks.append((f"{label} eig match", worst_eig <= 1e-6,
                       f"max rel = {worst_eig:.2e} (tol 1e-6)"))
        checks.append((f"{label} opeq", worst_opeq <= 1e-8,
                       f"{worst_opeq:.2e} (tol 1e-8)"))
        checks.append((f"{label} tb", worst_tb <= 1e-10,
                       f"{worst_tb:.2e} (tol 1e-10)"))

    for N in (32, 64, 128):
        run(f"heat N={N}", heat_torus_model(N))
    x = np.linspace(0, 1, 4097)
    run("schrodinger N=64", schrodinger_model(64, x ** 2))
    p = SturmLiouvilleProblem.from_callables(
        lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
        1.0, 1.0, 0.0, 1.0, 0.0, grid_size=2000)
    run("sturm-liouville N=32", sturm_liouville_model(p, 32, 1.0 + p.x_grid)[0])
    run("gribov N=32", gribov_model(32, eps=0.05))
    _finish(3, "truncated conjugacy across models", checks)


def test_criterion_04_gain_structure_heat_256():
    lam = 2.5
    system = heat_torus_model(256)
    ks = kernels(system, lam)
    law = fs.synthesize_feedback(ks)
    sup_x = max(bg.sup_product for bg in law.branches)
    ratios = [gain_trend(bg).quartile_ratio for bg in law.branches]
    try:
        other = fs.synthesize_feedback(ks, method="iterative")
        agreement = max(
            float(np.max(np.abs(a.products - b.products)))
            for a, b in zip(law.branches, other.branches))
        agree_detail = f"max dev = {agreement:.2e} (tol 1e-8)"
        agree_ok = agreement <= 1e-8
    except IterationDiverged as exc:
        agree_ok = False
        agree_detail = (f"iteration diverged, observed contraction ratio "
                        f"{exc.contraction_ratio:.3f}")
    checks = [
        ("sup|x_n| <= 2 lambda", sup_x <= 2 * lam,
         f"sup|x_n| = {sup_x:.4f} vs 2*lambda = {2 * lam}"),
        ("quartile trend ratio < 0.5", all(r < 0.5 for r in ratios),
         f"per-branch ratios = {[round(r, 4) for r in ratios]}"),
        ("direct vs iterative 1e-8", agree_ok, agree_detail),
    ]
    _finish(4, "gain structure, heat N=256 lambda=2.5", checks)


def test_criterion_05_scaling_covariance_and_beta_reduction():
    br = heat_torus_model(32).branches[0]
    lam = 2.5
    c = 7.0 + 3.0j
    scaled = br.rescaled(c)
    g0, g1 = fs.solve_gains_direct(br, lam), fs.solve_gains_direct(scaled, lam)
    T0 = fs.transform_matrix(br, g0)
    T1 = fs.transform_matrix(scaled, g1)
    e0 = np.sort(fs.closed_loop_matrix(br, g0).spectrum.real)
    e1 = np.sort(fs.closed_loop_matrix(scaled, g1).spectrum.real)
    eig_rel = float(np.max(np.abs(e1 - e0) / np.maximum(np.abs(e0), 1.0)))
    n = np.arange(1, 49, dtype=float)
    br_beta = fs.SpectralBranch(1, -n ** 2, (2.0 + 0.3j) / n, alpha=2.0, beta=1.0)
    reduced = fs.beta_reduced_gains(br_beta, lam)
    direct = fs.solve_gains_direct(br_beta, lam)
    beta_dev = max(float(np.max(np.abs(reduced.gains - direct.gains))),
                   float(np.max(np.abs(reduced.products - direct.products))))
    checks = [
        ("x unchanged", np.max(np.abs(g1.products - g0.products)) <= 1e-12,
         f"max dev = {np.max(np.abs(g1.products - g0.products)):.2e}"),
        ("K scales by 1/c", np.max(np.abs(g1.gains - g0.gains / c)) <= 1e-12,
         f"max dev = {np.max(np.abs(g1.gains - g0.gains / c)):.2e}"),
        ("T unchanged", np.max(np.abs(T1 - T0)) <= 1e-12,
         f"max dev = {np.max(np.abs(T1 - T0)):.2e}"),
        ("spectrum unchanged", eig_rel <= 1e-12,
         f"max rel dev = {eig_rel:.2e}"),
        ("pre/post-scaled synthesis equivalence", beta_dev <= 1e-10,
         f"max dev = {beta_dev:.2e}"),
    ]
    _finish(5, "scaling covariance and decay-order reduction", checks)


def test_criterion_06_inverse_gap_sum_envelope():
    br = heat_torus_model(256).branches[0]
    ratios, tail_max = fs.inverse_gap_sum_profile(fs.BranchKernel(br, 2.5))
    checks = [
        ("profile finite", bool(np.isfinite(tail_max)),
         f"max ratio over p in [8, 256] = {tail_max:.4f}"),
        ("ratio(128) <= 2 ratio(16)", ratios[127] <= 2.0 * ratios[15],
         f"ratio(128) = {ratios[127]:.4f}, ratio(16) = {ratios[15]:.4f}"),
    ]
    _finish(6, "off-diagonal resolvent sum envelope", checks)


def test_criterion_07_isomorphism_proxy():
    lam = 2.5
    kappas = {}
    for N in (64, 128):
        br = heat_torus_model(N).branches[0]
        T = fs.transform_matrix(br, fs.solve_gains_direct(br, lam))
        kappas[N] = fs.conditioning_profile(T, [-1.0, 0.0, 1.0], 2.0, 0.0)
    factors = {r: kappas[128][r] / kappas[64][r] for r in (-1.0, 0.0, 1.0)}
    br = heat_torus_model(16).branches[0]
    T16 = fs.transform_matrix(br, fs.solve_gains_direct(br, lam))
    try:
        fs.conditioning_profile(T16, [1.5], 2.0, 0.0)
        rejected = False
    except ValueError:
        rejected = True
    checks = [
        ("kappa stable between N=64 and N=128",
         all(1 / 2 < f < 2 for f in factors.values()),
         f"factors = { {r: round(f, 4) for r, f in factors.items()} }"),
        ("out-of-interval r rejected", rejected, "r = 1.5 rejected"),
    ]
    _finish(7, "weighted conditioning plateau", checks)


def test_criterion_08_closed_loop_decay():
    lam = 2.5
    system = heat_torus_model(32)
    ks = kernels(system, lam)
    law = fs.synthesize_feedback(ks)
    u0 = fs.random_state(system, seed=0)     # leading entries kept nonzero
    times = np.linspace(0, 6, 385)
    trace = fs.simulate_closed_loop(ks, law, u0, times)
    fit = fs.fit_decay(trace.times, trace.norms[0.0], window=(3.0, 6.0))
    times1 = np.linspace(0, 1, 33)
    tr_ex = fs.simulate_closed_loop(ks, law, u0, times1)
    tr_rk = fs.simulate_closed_loop(ks, law, u0, times1,
                                    integrator="rk4", dt=1e-4)
    dev = 0.0
    for a, b in zip(tr_rk.states, tr_ex.states):
        for k in range(len(times1)):
            dev = max(dev, float(np.linalg.norm(a[k] - b[k])
                                 / max(np.linalg.norm(b[k]), 1e-30)))
    lo, hi = 0.95 * lam, 1.05 * (lam + 1.0)
    checks = [
        ("mu_hat in [0.95 lambda, 1.05 (lambda+1)]", lo <= fit.mu_hat <= hi,
         f"mu_hat = {fit.mu_hat:.4f}, window [{lo}, {hi}], r2 = {fit.r2:.5f}"),
        ("mu_hat >= 0.95 lambda", fit.mu_hat >= lo,
         f"mu_hat = {fit.mu_hat:.4f} >= {lo}"),
        ("semigroup vs rk4 <= 1e-4", dev <= 1e-4, f"max rel dev = {dev:.2e}"),
    ]
    _finish(8, "closed-loop decay, heat N=32", checks)


def test_criterion_09_imaginary_spectrum_shift():
    x = np.linspace(0, 1, 4097)
    system = schrodinger_model(64, x ** 2)
    lam = fs.select_shift(system, 1.0, 0.25)
    law = fs.synthesize_feedback(kernels(system, lam))
    cl = fs.closed_loop_matrix(system.branches[0], law.branch(1))
    worst = float(np.max(np.abs(cl.spectrum.real + lam)))
    checks = [
        ("all Re(eig) = -lambda", worst <= 1e-6,
         f"max |Re + lambda| = {worst:.2e} at lambda = {lam}"),
    ]
    _finish(9, "imaginary-spectrum real-part shift", checks)


def test_criterion_10_semilinear_local_stabilization():
    N = 32
    system = heat_torus_model(N)
    lam = fs.select_shift(system, 3.0, 0.25)        # 3.0 itself hits a difference
    law = fs.synthesize_feedback(kernels(system, lam))
    rng = np.random.default_rng(0)
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N] = 0.4
    for k in range(1, 4):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + k ** 2)
        c[N + k] = z
        c[N - k] = np.conj(z)
    c *= 1e-3 / np.sqrt(2 * np.pi * np.sum(np.abs(c) ** 2))
    times = np.linspace(0, 1, 101)
    trace = fs.simulate_burgers(system, law, c, times, dt=1e-4)
    fit = fs.fit_decay(trace.times, trace.norms[0.0], window=(0.1, 1.0))
    zero_trace = fs.simulate_burgers(system, law, np.zeros(2 * N + 1, dtype=complex),
                                     np.linspace(0, 0.1, 6), dt=1e-3)
    zero_max = max(float(np.max(np.abs(s))) for s in zero_trace.states)
    checks = [
        ("fitted decay >= 1.9", fit.mu_hat >= 1.9,
         f"mu_hat = {fit.mu_hat:.4f} at lambda = {lam} (ask >= 1.9)"),
        ("zero state stays zero", zero_max <= 1e-14, f"max = {zero_max:.2e}"),
        ("real-valuedness defect", trace.real_defect <= 1e-10,
         f"defect = {trace.real_defect:.2e}"),
    ]
    _finish(10, "semilinear local stabilization", checks)


def test_criterion_11_diffusion_pipeline():
    p = SturmLiouvilleProblem.from_callables(
        lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
        1.0, 1.0, 0.0, 1.0, 0.0, grid_size=2000)
    system, _ = sturm_liouville_model(p, 32, 1.0 + p.x_grid)
    lam = system.branches[0].eigenvalues.real
    exact = -(np.arange(1, 33) * np.pi) ** 2
    rel10 = float(np.max(np.abs(lam[:10] - exact[:10]) / np.abs(exact[:10])))
    direct = sturm_liouville_eigs_direct(p, 10)
    inv = float(np.max(np.abs(lam[:10] - direct) / np.abs(direct)))
    n = np.arange(1, 33, dtype=float)
    ratios = lam[15:] / n[15:] ** 2
    spread = float((ratios.max() - ratios.min()) / abs(ratios.mean()))
    checks = [
        ("eigenvalues vs -(n pi)^2 (n <= 10)", rel10 <= 1e-3,
         f"max rel = {rel10:.2e}"),
        ("normal-form vs conservative solve", inv <= 1e-3,
         f"max rel = {inv:.2e}"),
        ("lambda_n / n^2 spread < 5% on upper half", spread < 0.05,
         f"spread = {spread:.4f}"),
    ]
    _finish(11, "diffusion-operator pipeline", checks)


def test_criterion_12_controllability_classifier():
    x = np.linspace(0, 1, 4097)
    system = schrodinger_model(64, x ** 2)
    n = np.arange(1, 65, dtype=float)
    unit = fs.SpectralBranch(1, system.branches[0].eigenvalues, np.ones(64),
                             alpha=2.0)
    growing = fs.SpectralBranch(1, system.branches[0].eigenvalues, n, alpha=2.0)
    cls_unit = fs.classify_controllability(unit, r=0.0)
    cls_grow = fs.classify_controllability(growing, r=1.0)
    cls_unit_scaled = fs.classify_controllability(unit.rescaled(3.0 - 4.0j), r=0.0)
    cls_grow_scaled = fs.classify_controllability(growing.rescaled(0.01j), r=1.0)
    checks = [
        ("unit coefficients labeled classical",
         cls_unit.labels == frozenset({"classical"})
         and cls_unit.admissibility_necessary_ok
         and cls_unit.exact_controllability_necessary_ok,
         f"labels = {sorted(cls_unit.labels)}"),
        ("growing coefficients violate admissibility",
         not cls_grow.admissibility_necessary_ok,
         f"slope = {cls_grow.ratio_slope:.3f}"),
        ("labels invariant under rescaling",
         cls_unit.labels == cls_unit_scaled.labels
         and cls_grow.labels == cls_grow_scaled.labels
         and cls_grow.admissibility_necessary_ok
         == cls_grow_scaled.admissibility_necessary_ok,
         "scaled by 3-4i and 0.01j"),
    ]
    _finish(12, "controllability classifier", checks)
