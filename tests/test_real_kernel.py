"""A real spectrum's Cauchy matrix C is real, and every consumer applies it in real arithmetic.

Heat, Sturm-Liouville and gribov at real eps have real spectra, so their
kernels hold a float64 C, and a complex vector meets it as two real
products (synthesis._matvec).  The reference here is the complex route: the
same kernel with its C cast to complex, which every consumer then applies
in complex arithmetic, as before the real kernel.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fredstab as fs
from fredstab.diagnostics import compactness_proxy
from fredstab.models import (SturmLiouvilleProblem, gribov_model, heat_torus_model,
                             schrodinger_model, sturm_liouville_model)
from fredstab.simulate import random_state
from fredstab.synthesis import inverse_gap_sum_profile, _matvec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TOL = 1e-14


def complex_route(kernel):
    """The kernel with C cast to complex: every consumer takes its complex products."""
    twin = object.__new__(fs.BranchKernel)
    twin.branch, twin.lam, twin.C = kernel.branch, kernel.lam, kernel.C.astype(complex)
    return twin


def peak_bytes(run):
    """tracemalloc peak of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def real_branches(draw, lambda0=(0.5, 5.0)):
    """Real spectra -s (n^2 + jitter n), N <= 48, with real or complex b; lam from select_shift."""
    N = draw(st.integers(2, 48))
    n = np.arange(1, N + 1, dtype=float)
    jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=N, max_size=N)))
    ev = -draw(st.floats(0.5, 3.0)) * (n ** 2 + jitter * n)
    b = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=N, max_size=N)))
    if draw(st.booleans()):
        b = b * np.exp(1j * np.array(draw(st.lists(st.floats(0.0, 6.28),
                                                   min_size=N, max_size=N))))
    branch = fs.SpectralBranch(1, ev, b, alpha=2.0)
    lam = fs.select_shift(fs.SpectralSystem((branch,)), draw(st.floats(*lambda0)), 0.25)
    return fs.BranchKernel(branch, lam)


def close(got, want, scale):
    """|got - want| <= TOL * scale, entry by entry."""
    return bool(np.all(np.abs(got - want) <= TOL * scale))


def _sturm_liouville():
    p = SturmLiouvilleProblem.from_callables(
        lambda x: np.ones_like(x), lambda x: np.zeros_like(x),
        1.0, 1.0, 0.0, 1.0, 0.0, grid_size=400)
    return sturm_liouville_model(p, 16, 1.0 + p.x_grid)[0]


class TestKernelDtype:
    @pytest.mark.parametrize("system, real", [
        (heat_torus_model(16), True),
        (_sturm_liouville(), True),
        (gribov_model(16, eps=0.05), True),
        (schrodinger_model(16, np.linspace(0.0, 1.0, 1025) ** 2), False),
        (gribov_model(16, eps=0.05 + 0.05j), False),
    ], ids=["heat", "sturm-liouville", "gribov-real", "schrodinger", "gribov-complex"])
    def test_real_exactly_on_a_real_spectrum(self, system, real):
        for branch in system.branches:
            C = fs.BranchKernel(branch, 2.5).C
            assert C.dtype == (np.float64 if real else np.complex128)

    def test_real_entries_are_the_complex_build_bit_for_bit(self):
        for branch in heat_torus_model(64).branches:
            C = fs.BranchKernel(branch, 2.5).C
            ev = branch.eigenvalues
            built = 1.0 / (ev[None, :] - ev[:, None] + 2.5)
            assert C.tobytes() == built.real.tobytes()
            assert not np.any(built.imag)


class TestMatvec:
    def test_real_parts_in_place_of_a_complex_copy(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((300, 300))
        z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        got = _matvec(M, z)
        assert got.real.tobytes() == (M @ z.real).tobytes()
        assert got.imag.tobytes() == (M @ z.imag).tobytes()
        # numpy's M @ z would hold a complex copy of M, 16 N^2 bytes
        assert peak_bytes(lambda: _matvec(M, z)) < 0.05 * 16 * 300 ** 2
        assert peak_bytes(lambda: M @ z) > 16 * 300 ** 2

    def test_real_vector_and_complex_matrix_take_one_product(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((40, 40))
        x = rng.standard_normal(40)
        assert _matvec(M, x).tobytes() == (M @ x).tobytes()
        z = x + 0j
        assert _matvec(M, z).tobytes() == ((M @ x) + 0j).tobytes()
        Mc = M + 1j * rng.standard_normal((40, 40))
        assert _matvec(Mc, z).tobytes() == (Mc @ z).tobytes()


class TestAgainstTheComplexRoute:
    @PROPERTY
    @given(real_branches())
    def test_certificate(self, kernel):
        g = fs.synthesize_feedback([kernel]).branches[0]
        real = fs.build_transform(kernel, g, [0.0, 0.5])
        ref = fs.build_transform(complex_route(kernel), g, [0.0, 0.5])
        absC, x = np.abs(kernel.C), np.abs(g.products)
        # r = 1 - C x to the rounding of C x's terms
        assert close(real.residual, ref.residual, absC @ x)
        assert real.diagonal.tobytes() == ref.diagonal.tobytes()
        assert real.column_norms.tobytes() == ref.column_norms.tobytes()
        assert real.frobenius == ref.frobenius
        assert real.conditioning.keys() == ref.conditioning.keys()
        for r, kappa in ref.conditioning.items():
            assert abs(real.conditioning[r] - kappa) <= TOL * kappa

    @PROPERTY
    @given(real_branches(), st.integers(0, 2 ** 32 - 1))
    def test_products(self, kernel, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(kernel.branch.N) + 1j * rng.standard_normal(kernel.branch.N)
        Cc = kernel.C.astype(complex)
        for M, Mc in ((kernel.C, Cc), (np.square(kernel.C), np.square(Cc)),
                      (kernel.C.T, Cc.T)):
            for v in (z, kernel.products):
                assert close(_matvec(M, v), Mc @ v, np.abs(M) @ np.abs(v))

    @PROPERTY
    @given(real_branches())
    def test_semigroup_states(self, kernel):
        system = fs.SpectralSystem((kernel.branch,))
        law = fs.synthesize_feedback([kernel])
        u0, times = random_state(system, seed=kernel.branch.N), np.linspace(0.0, 2.0, 9)
        real = fs.simulate_closed_loop([kernel], law, u0, times).states[0]
        ref = fs.simulate_closed_loop([complex_route(kernel)], law, u0, times).states[0]
        assert close(real, ref, np.max(np.abs(ref), axis=1, keepdims=True))

    @PROPERTY
    @given(real_branches(lambda0=(0.25, 1.0)))
    def test_iterative_products(self, kernel):
        try:
            ref = fs.solve_gains_iterative(complex_route(kernel))
        except fs.IterationDiverged:
            assume(False)
        real = fs.solve_gains_iterative(kernel)
        assert real.iterations == ref.iterations
        assert close(real.products, ref.products, np.max(np.abs(ref.products)))

    @PROPERTY
    @given(real_branches())
    def test_compactness_and_gap_tail(self, kernel):
        ref = complex_route(kernel)
        norm = compactness_proxy(kernel, 0.0, 0.25)
        assert abs(norm - compactness_proxy(ref, 0.0, 0.25)) <= TOL * norm
        ratios, tail = inverse_gap_sum_profile(kernel)
        ref_ratios, ref_tail = inverse_gap_sum_profile(ref)
        assert ratios.tobytes() == ref_ratios.tobytes() and tail == ref_tail


class TestPeakMemory:
    def test_build_transform_holds_no_complex_copy(self):
        # a silent complex cast of a real block would bring the real
        # route's peak up to the complex route's
        kernel = fs.BranchKernel(heat_torus_model(512).branches[0], 2.5)
        g = fs.synthesize_feedback([kernel]).branches[0]
        ref = complex_route(kernel)
        real_peak = peak_bytes(lambda: fs.build_transform(kernel, g))
        assert real_peak <= 0.6 * peak_bytes(lambda: fs.build_transform(ref, g))

    def test_semigroup_peaks_no_higher(self):
        system = heat_torus_model(256)
        kernels = [fs.BranchKernel(b, 2.5) for b in system.branches]
        law = fs.synthesize_feedback(kernels)
        refs = [complex_route(k) for k in kernels]
        for k in (*kernels, *refs):
            k.w                 # the weights are the kernel's, not the stage's
        u0, times = random_state(system, seed=1), np.linspace(0.0, 6.0, 1025)

        def run(ks):
            return lambda: fs.simulate_closed_loop(ks, law, u0, times)
        assert peak_bytes(run(kernels)) <= peak_bytes(run(refs))
