import numpy as np
import pytest

from fredstab import (AssumptionError, SpectralBranch, SpectralSystem,
                      classify_controllability, sobolev_norm,
                      system_from_json, system_to_json, verify_control,
                      verify_gap, verify_growth)
from fredstab.spectral_core import ROW_ALIGN, ROW_BLOCK, row_blocks

from conftest import heat_branch, schrodinger_branch


class TestSobolevNorm:
    def test_single_mode_weight_one(self):
        assert sobolev_norm([1, 0, 0], 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_second_mode_weight(self):
        # 2^{2*1} * 1 = 4, sqrt = 2
        assert sobolev_norm([0, 1], 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_negative_exponent_direct_summation(self):
        # oracle: 1 + 1/4 + 1/9 summed by hand = 49/36, sqrt = 7/6
        oracle = np.sqrt(sum(k ** -2.0 * 1.0 for k in (1, 2, 3)))
        assert oracle == pytest.approx(7.0 / 6.0, abs=1e-15)
        assert sobolev_norm([1, 1, 1], -1.0) == pytest.approx(7.0 / 6.0, abs=1e-15)

    def test_r_zero_is_euclidean(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        assert sobolev_norm(z, 0.0) == pytest.approx(float(np.linalg.norm(z)), abs=0)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for r, r2 in [(-1.0, 0.0), (0.0, 0.5), (0.5, 2.0)]:
            assert sobolev_norm(z, r) <= sobolev_norm(z, r2) + 1e-12


class TestBranchInvariants:
    def test_duplicate_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            SpectralBranch(1, [-1.0, -4.0, -4.0], [1, 1, 1], alpha=2.0)

    def test_zero_coefficient_rejected_with_index(self):
        b = np.ones(8)
        b[4] = 0.0
        with pytest.raises(AssumptionError, match="b_5"):
            heat_branch(8, b=b)

    def test_nonfinite_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SpectralBranch(1, [-1.0, np.inf], [1, 1], alpha=2.0)

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            SpectralBranch(1, [-1, -4], [1, 1], alpha=2.0, gamma=0.5)


class TestGrowth:
    def test_heat_constants(self):
        check = verify_growth(heat_branch(64))
        assert check.ok
        assert check.c_low >= 1.0
        assert check.c_high <= 2.0
        assert check.alpha_hat == pytest.approx(2.0, abs=0.05)

    def test_cubic_spectrum_fit(self):
        n = np.arange(1, 65, dtype=float)
        br = SpectralBranch(1, -n ** 3, np.ones(64), alpha=3.0)
        assert verify_growth(br).alpha_hat == pytest.approx(3.0, abs=0.05)

    def test_declared_alpha_mismatch_flags(self):
        n = np.arange(1, 257, dtype=float)
        br = SpectralBranch(1, -n, np.ones(256), alpha=2.0)
        check = verify_growth(br)
        assert not check.ok
        assert check.ratio > check.ratio_cap


class TestGap:
    def test_heat_constant_at_least_one(self):
        br = heat_branch(48)
        check = verify_gap(br)
        # exhaustive scan oracle: |p^2 - n^2| / (n |n - p|) = (n + p) / n >= 1
        worst = min(
            abs(br.eigenvalues[i] - br.eigenvalues[j])
            / ((i + 1) ** 1.0 * abs(i - j))
            for i in range(48) for j in range(48) if i != j)
        assert check.constant == pytest.approx(worst, rel=1e-12)
        assert check.constant >= 1.0
        assert check.ok

    def test_schrodinger_constant_pi_squared(self):
        br = schrodinger_branch(32)
        check = verify_gap(br)
        worst = min(
            abs(br.eigenvalues[i] - br.eigenvalues[j])
            / ((i + 1) ** 1.0 * abs(i - j))
            for i in range(32) for j in range(32) if i != j)
        assert check.constant == pytest.approx(worst, rel=1e-12)
        assert check.constant >= np.pi ** 2 - 1e-9

    @pytest.mark.parametrize("N", [63, 64, 65, 200])
    @pytest.mark.parametrize("kind", ["heat", "schrodinger", "random"])
    def test_row_blocks_keep_the_bits_of_one_table(self, kind, N):
        # the dense table of all quotients: same constant, bit for bit,
        # and the first minimizing pair in row order
        rng = np.random.default_rng(N)
        br = {"heat": heat_branch(N), "schrodinger": schrodinger_branch(N),
              "random": SpectralBranch(1, rng.standard_normal(N) + 1j * np.arange(N),
                                       np.ones(N), alpha=1.5)}[kind]
        lam, n = br.eigenvalues, np.arange(1.0, N + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (np.abs(lam[:, None] - lam[None, :])
                    / (n[:, None] ** (br.alpha - 1.0) * np.abs(n[:, None] - n[None, :])))
        np.fill_diagonal(quot, np.inf)
        i, j = divmod(int(np.argmin(quot)), N)
        check = verify_gap(br)
        assert check.constant.hex() == float(quot[i, j]).hex()
        assert check.witness == (i + 1, j + 1)


class TestRowBlocks:
    def test_cover_every_row_in_order(self):
        for N in [*range(1, 600), 1023, 1024, 1025, 3344]:
            blocks = row_blocks(N)
            assert [k for i, j in blocks for k in range(i, j)] == list(range(N))
            sizes = [j - i for i, j in blocks]
            assert max(sizes) <= ROW_BLOCK
            # every edge but N on the row groups of a full real gemv
            assert all(j % ROW_ALIGN == 0 for _, j in blocks[:-1])
            # near-equal runs of groups, the last cut at N, and never one
            # row (numpy's dot) past N = 1
            assert max(sizes) - min(sizes) < 2 * ROW_ALIGN
            assert N < 2 or min(sizes) >= 2


class TestControl:
    def test_unit_coefficients(self):
        check = verify_control(heat_branch(32))
        assert check.ok
        assert check.c1_hat == pytest.approx(1.0)
        assert check.c2_hat == pytest.approx(1.0)

    def test_quarter_power_slack(self):
        n = np.arange(1, 33, dtype=float)
        br = SpectralBranch(1, -n ** 2, n ** 0.25, alpha=2.0, gamma=0.25)
        check = verify_control(br)
        assert check.c1_hat == pytest.approx(1.0)
        assert check.c2_hat == pytest.approx(1.0)
        assert check.gamma_hat == pytest.approx(0.25, abs=0.02)

    def test_beta_fit(self):
        n = np.arange(1, 65, dtype=float)
        br = SpectralBranch(1, -n ** 2, 3.0 / n, alpha=2.0, beta=1.0)
        check = verify_control(br)
        assert check.beta_hat == pytest.approx(1.0, abs=0.05)
        assert check.c1_hat == pytest.approx(3.0)


class TestClassify:
    def test_classical_regime(self):
        cls = classify_controllability(schrodinger_branch(64), r=0.0)
        assert cls.labels == frozenset({"classical"})
        assert cls.admissibility_necessary_ok
        assert cls.exact_controllability_necessary_ok

    def test_growing_coefficients_violate_admissibility(self):
        n = np.arange(1, 65, dtype=float)
        cls = classify_controllability(schrodinger_branch(64, b=n), r=1.0)
        assert not cls.admissibility_necessary_ok
        assert cls.labels == frozenset({"not-necessarily-admissible"})

    def test_negative_r_label(self):
        cls = classify_controllability(schrodinger_branch(64), r=-1.0)
        assert cls.labels == frozenset({"not-exactly-controllable-in-X"})

    def test_out_of_range_r(self):
        with pytest.raises(ValueError, match="admissible open interval"):
            classify_controllability(schrodinger_branch(16), r=2.0)

    def test_scalar_rescaling_invariance(self):
        br = schrodinger_branch(64)
        scaled = br.rescaled(2.0 - 5.0j)
        a = classify_controllability(br, r=0.0)
        b = classify_controllability(scaled, r=0.0)
        assert a.labels == b.labels
        assert a.admissibility_necessary_ok == b.admissibility_necessary_ok
        assert (a.exact_controllability_necessary_ok
                == b.exact_controllability_necessary_ok)


class TestSerialization:
    def test_roundtrip_exact(self):
        n = np.arange(1, 9, dtype=float)
        br1 = SpectralBranch(1, -n ** 2, (1 + 0.5j) * np.ones(8), alpha=2.0)
        br2 = SpectralBranch(2, -1j * n ** 3, 1.0 / n, alpha=3.0, beta=1.0, gamma=0.5)
        system = SpectralSystem(branches=(br1, br2), label="roundtrip")
        doc = system_to_json(system)
        back = system_from_json(doc)
        assert back.label == "roundtrip"
        for a, b in zip(system.branches, back.branches):
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.control_coeffs, b.control_coeffs)
            assert (a.alpha, a.beta, a.gamma) == (b.alpha, b.beta, b.gamma)

    def test_declared_m_mismatch(self):
        system = SpectralSystem(branches=(heat_branch(4),), label="x")
        doc = system_to_json(system)
        doc["m"] = 3
        with pytest.raises(ValueError, match="m does not match"):
            system_from_json(doc)

    def test_branch_index_gap_rejected(self):
        br = SpectralBranch(2, [-1.0, -4.0], [1, 1], alpha=2.0)
        with pytest.raises(ValueError, match="without gaps"):
            SpectralSystem(branches=(br,), label="bad")
