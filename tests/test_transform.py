import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fredstab import (BranchKernel, ConfigError, SpectralBranch, SpectralSystem,
                      build_transform, closed_loop_matrix,
                      conditioning_profile,
                      solve_gains_direct, synthesize_feedback, transform_matrix)
from fredstab.jsonio import canonical_json
from fredstab.models import gribov_model, heat_torus_model, schrodinger_model
from fredstab.synthesis import cauchy_system_matrix
from fredstab.transform import (TRANSFORM_SCHEMA, transform_from_json,
                                transform_to_json)

from conftest import (heat_branch, kernels, operator_equality_residual, real_products,
                      schrodinger_branch, worked_branch)


class TestBuildTransform:
    def test_single_mode_identity(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        g = solve_gains_direct(br, 2.0)
        np.testing.assert_allclose(transform_matrix(br, g), [[1.0]], atol=1e-15)

    @pytest.mark.parametrize("branch", [heat_branch(24), schrodinger_branch(24)])
    def test_matrix_bits_match_defining_product(self, branch):
        # transform.json stores bytes of T; complex gains make them depend
        # on the operand order of (-K) * (b C)
        g = solve_gains_direct(branch, 2.5)
        C = cauchy_system_matrix(branch, 2.5)
        want = (-g.gains[None, :]) * (branch.control_coeffs[:, None] * C)
        assert transform_matrix(branch, g).tobytes() == want.astype(complex).tobytes()

    def test_worked_matrix_and_fixed_vector(self):
        br = worked_branch()
        g = solve_gains_direct(br, 2.0)
        T = transform_matrix(br, g)
        expected = np.array([[5.0 / 3.0, -2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
        np.testing.assert_allclose(T, expected, atol=1e-12)
        # hand matrix-vector oracle: T (1,1)^T = (1,1)^T
        np.testing.assert_allclose(T @ [1.0, 1.0], [1.0, 1.0], atol=1e-14)

    def test_heat_tb_residual(self):
        br = heat_branch(64)
        T = build_transform(BranchKernel(br, 2.5), solve_gains_direct(br, 2.5))
        assert T.tb_residual <= 1e-10


class TestBlockedPass:
    @pytest.mark.parametrize("N", [63, 64, 65, 200])
    def test_bits_match_dense_route(self, N):
        # the row-blocked pass keeps every bit of the full-matrix products,
        # on real and complex b, real, imaginary and complex spectra, a real C
        # taking x in real products; N = 65 would leave a one-row block of
        # 64-row blocks
        rng = np.random.default_rng(N)
        b = rng.standard_normal(N) + 1j * rng.standard_normal(N) + 2.0
        for br in (heat_branch(N), heat_branch(N, b=b), schrodinger_branch(N),
                   gribov_model(N, eps=0.05 + 0.05j).branches[0]):
            g = solve_gains_direct(br, 2.5)
            cert = build_transform(BranchKernel(br, 2.5), g)
            C = cauchy_system_matrix(br, 2.5)
            T = transform_matrix(br, g)
            residual = 1.0 - real_products(C, g.products)
            assert cert.residual.tobytes() == residual.tobytes()
            assert cert.diagonal.tobytes() == np.diagonal(T).tobytes()
            assert cert.column_norms.tobytes() == np.linalg.norm(T, axis=0).tobytes()
            steps = residual / real_products(np.square(C), g.products)
            assert cert.secular_steps.tobytes() == steps.tobytes()
            assert cert.frobenius == float(np.sqrt(np.sum(cert.column_norms ** 2)))

    def test_peak_memory_below_one_matrix(self):
        # no N x N array: the pass holds a few row blocks at a time
        br = heat_branch(512)
        g = solve_gains_direct(br, 2.5)
        kernel = BranchKernel(br, 2.5)
        tracemalloc.start()
        try:
            build_transform(kernel, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * br.N ** 2


class TestNormalizedResolvent:
    def test_column_reconstruction_of_transform(self):
        # T[p][n] = x_n b_p / (b_n (lambda_n - lambda_p + lam))
        rng = np.random.default_rng(3)
        b = rng.standard_normal(64) + 2.0
        br = SpectralBranch(1, -np.arange(1, 65.0) ** 2, b, alpha=2.0)
        g = solve_gains_direct(br, 2.5)
        T = transform_matrix(br, g)
        mat = (b[:, None] / b[None, :]) * cauchy_system_matrix(br, 2.5)
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
        # second singular value of A_cl - diag(lambda)
        svals = np.linalg.svd(cl.matrix - np.diag(cl.open_loop), compute_uv=False)
        assert svals[1] <= 1e-10 * np.linalg.norm(cl.matrix)


class TestOperatorEquality:
    def test_single_mode_zero(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        g = solve_gains_direct(br, 2.0)
        T = build_transform(BranchKernel(br, g.lam), g)
        assert T.opeq_residual == pytest.approx(0.0, abs=1e-16)

    def test_worked_case_rounding_level(self):
        br = worked_branch()
        T = build_transform(BranchKernel(br, 2.0), solve_gains_direct(br, 2.0))
        assert T.opeq_residual <= 1e-15

    def test_heat_128(self):
        br = heat_branch(128)
        g = solve_gains_direct(br, 2.5)
        T = build_transform(BranchKernel(br, g.lam), g)
        assert T.opeq_residual <= 1e-8
        cl = closed_loop_matrix(br, g)
        manual = operator_equality_residual(transform_matrix(br, g), cl.matrix, br, 2.5)
        assert manual == pytest.approx(T.opeq_residual, abs=1e-14)


class TestConditioning:
    def test_single_mode_unit(self):
        br = SpectralBranch(1, [-1.0], [1.0], alpha=2.0)
        T = transform_matrix(br, solve_gains_direct(br, 2.0))
        prof = conditioning_profile(T, [-1.0, 0.0, 1.0], 2.0, 0.0)
        assert all(k == pytest.approx(1.0) for k in prof.values())

    def test_heat_plateau(self):
        kappas = {}
        for N in (32, 64, 128):
            br = heat_branch(N)
            T = transform_matrix(br, solve_gains_direct(br, 2.5))
            kappas[N] = conditioning_profile(T, [0.0], 2.0, 0.0)[0.0]
        assert kappas[64] / kappas[32] < 2.0
        assert kappas[128] / kappas[64] < 2.0

    def test_boundary_r_rejected(self):
        br = heat_branch(8)
        T = transform_matrix(br, solve_gains_direct(br, 2.5))
        with pytest.raises(ValueError, match="admissible open interval"):
            conditioning_profile(T, [1.5], 2.0, 0.0)

    def test_nested_truncation_plateau(self):
        from fredstab import conditioning_vs_truncation
        kernel = BranchKernel(heat_branch(128), 2.5)
        cert = build_transform(kernel, solve_gains_direct(kernel.branch, 2.5))
        prof = conditioning_vs_truncation(kernel, cert)
        assert sorted(prof) == [32, 64, 128]
        vals = [prof[n] for n in sorted(prof)]
        assert max(vals) / min(vals) < 2.0


def _two_systems():
    heat = heat_torus_model(24)
    schr = SpectralSystem(branches=(schrodinger_branch(24),), label="schrodinger")
    return [(heat, synthesize_feedback(kernels(heat, 2.5))),
            (schr, synthesize_feedback(kernels(schr, 2.5)))]


def _certificates(system, law):
    return [build_transform(BranchKernel(b, law.lam), law.branch(b.index))
            for b in system.branches]


def _round_trip(law, certs):
    doc = json.loads(canonical_json(transform_to_json(law.lam, certs)))
    assert doc["schema"] == TRANSFORM_SCHEMA
    return transform_from_json(doc)


class TestCertificate:
    @pytest.mark.parametrize("system, law", _two_systems())
    def test_stored_summary_bits_match_transform_matrix(self, system, law):
        certs = _certificates(system, law)
        stored = _round_trip(law, certs)
        for b, cert in zip(system.branches, certs):
            T = transform_matrix(b, law.branch(b.index))
            for c in (cert, stored[b.index]):
                assert c.branch_index == b.index and c.N == b.N
                assert c.diagonal.tobytes() == np.diagonal(T).tobytes()
                assert c.column_norms.tobytes() == np.linalg.norm(T, axis=0).tobytes()
                assert c.frobenius == float(np.sqrt(np.sum(np.linalg.norm(T, axis=0) ** 2)))

    def test_residuals_round_trip(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(kernels(system, 2.5))
        certs = _certificates(system, law)
        stored = _round_trip(law, certs)
        for cert in certs:
            assert stored[cert.branch_index].tb_residual == cert.tb_residual
            assert stored[cert.branch_index].opeq_residual == cert.opeq_residual
            assert stored[cert.branch_index].lam == cert.lam == law.lam

    def test_no_matrix_stored(self):
        system = heat_torus_model(8)
        law = synthesize_feedback(kernels(system, 2.5))
        doc = transform_to_json(law.lam, _certificates(system, law))
        assert all(set(bd) == {"i", "N", "diagonal", "column_norms", "frobenius",
                               "tb_residual", "opeq_residual"}
                   for bd in doc["branches"])

    @pytest.mark.parametrize("schema", [None, "fredstab-transform/1"])
    def test_other_schema_rejected(self, schema):
        doc = {"lambda": 2.5, "branches": [
            {"i": 1, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
             "tb_residual": 0.0, "opeq_residual": 0.0}]}
        if schema is not None:
            doc["schema"] = schema
        with pytest.raises(ConfigError, match=TRANSFORM_SCHEMA):
            transform_from_json(doc)

    def test_inconsistent_lengths_rejected(self):
        system = heat_torus_model(8)
        law = synthesize_feedback(kernels(system, 2.5))
        doc = transform_to_json(law.lam, _certificates(system, law))
        doc["branches"][0]["column_norms"] = doc["branches"][0]["column_norms"][:-1]
        with pytest.raises(ValueError, match="column norms"):
            transform_from_json(doc)


class TestScalingCovariance:
    def test_transform_invariant_under_coefficient_scaling(self):
        br = heat_branch(32)
        c = 7.0 + 3.0j
        scaled = br.rescaled(c)
        T0 = transform_matrix(br, solve_gains_direct(br, 2.5))
        T1 = transform_matrix(scaled, solve_gains_direct(scaled, 2.5))
        np.testing.assert_allclose(T1, T0, atol=1e-12)

    @pytest.mark.parametrize("k", [-500, -300, -1, 1, 300, 500])
    @pytest.mark.parametrize("system", [
        heat_torus_model(16),
        schrodinger_model(16, np.linspace(0.0, 1.0, 1025) ** 2)], ids=["heat", "schrodinger"])
    def test_certificates_do_not_see_the_scale_of_b(self, system, k):
        # b -> 2^k b, K -> 2^-k K leaves T as it is; numpy's unscaled vector
        # norm of b under- and overflowed past 1e+-154, so tb and opeq read
        # exactly 0 at |b| ~ 1e-150 and opeq NaN at 1e-160
        def certificates(branches):
            return [build_transform(BranchKernel(b, 2.5), solve_gains_direct(b, 2.5))
                    for b in branches]

        scaled = [replace(b, control_coeffs=np.ldexp(b.control_coeffs.view(float), k)
                          .view(complex)) for b in system.branches]
        for want, got in zip(certificates(system.branches), certificates(scaled)):
            for name in ("tb_residual", "opeq_residual", "frobenius"):
                assert np.float64(getattr(got, name)).tobytes() == \
                    np.float64(getattr(want, name)).tobytes(), name
            assert got.diagonal.tobytes() == want.diagonal.tobytes()
            assert got.column_norms.tobytes() == want.column_norms.tobytes()
