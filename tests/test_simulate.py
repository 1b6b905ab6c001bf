import csv
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fredstab import (BranchKernel, IntegratorError, SimulationTrace, SpectralBranch,
                      SpectralSystem, fit_decay, random_state, simulate_burgers,
                      simulate_closed_loop, synthesize_feedback,
                      build_transform, transform_matrix)
from fredstab import simulate
from fredstab.models import heat_torus_model
from fredstab.spectral_core import sobolev_norm

from conftest import (fourier_from_samples, heat_branch, kernels, schrodinger_branch,
                      simulate_target, trace_to_csv, zero_law)


def single_mode_system():
    return SpectralSystem(
        branches=(SpectralBranch(1, [-1.0], [1.0], alpha=2.0),), label="one")


class TestTarget:
    def test_scalar_exponential(self):
        system = SpectralSystem(branches=(heat_branch(4),), label="h")
        trace = simulate_target(system, 2.5, [np.array([1, 0, 0, 0], dtype=complex)],
                                [0.0, 1.0])
        assert trace.states[0][1, 0] == pytest.approx(np.exp(-3.5), abs=1e-15)

    def test_imaginary_spectrum_modulus_identity(self):
        system = SpectralSystem(branches=(schrodinger_branch(8),), label="s")
        v0 = [np.ones(8, dtype=complex)]
        trace = simulate_target(system, 1.0, v0, [0.0, 0.5, 1.0])
        for k, t in enumerate(trace.times):
            np.testing.assert_allclose(np.abs(trace.states[0][k]),
                                       np.exp(-1.0 * t) * np.ones(8), atol=1e-14)

    def test_monotone_norm_decay_real_spectrum(self):
        system = SpectralSystem(branches=(heat_branch(8),), label="h")
        v0 = [np.ones(8, dtype=complex)]
        trace = simulate_target(system, 2.0, v0, np.linspace(0, 1, 17))
        norms = trace.norms[0.0]
        assert np.all(np.diff(norms) < 0)


class TestClosedLoop:
    def test_single_mode_both_integrators(self):
        system = single_mode_system()
        law = synthesize_feedback(kernels(system, 2.0))
        times = np.linspace(0, 1, 11)
        u0 = [np.array([1.0 + 0.0j])]
        exact = np.exp(-3.0 * times)
        for integrator in ("semigroup_exact", "rk4"):
            trace = simulate_closed_loop(kernels(system, law.lam), law, u0, times,
                                         integrator=integrator, dt=1e-3)
            np.testing.assert_allclose(trace.states[0][:, 0], exact, atol=1e-6)

    def test_exact_vs_rk4_heat(self):
        system = heat_torus_model(32)
        law = synthesize_feedback(kernels(system, 2.5))
        u0 = random_state(system, seed=0)
        times = np.linspace(0, 1, 33)
        tr_ex = simulate_closed_loop(kernels(system, law.lam), law, u0, times)
        tr_rk = simulate_closed_loop(kernels(system, law.lam), law, u0, times,
                                     integrator="rk4", dt=1e-4)
        for a, b in zip(tr_rk.states, tr_ex.states):
            for k in range(len(times)):
                denom = max(np.linalg.norm(b[k]), 1e-30)
                assert np.linalg.norm(a[k] - b[k]) / denom < 1e-4

    def test_conjugacy_to_target(self):
        # T u(t) must follow the shifted diagonal flow started from T u0
        system = heat_torus_model(16)
        law = synthesize_feedback(kernels(system, 2.5))
        u0 = random_state(system, seed=1)
        times = np.linspace(0, 1, 9)
        trace = simulate_closed_loop(kernels(system, law.lam), law, u0, times)
        for b, block0, hist in zip(system.branches, u0, trace.states):
            T = transform_matrix(b, law.branch(b.index))
            w0 = T @ block0
            for k, t in enumerate(times):
                v = np.exp((b.eigenvalues - 2.5) * t) * w0
                assert np.linalg.norm(T @ hist[k] - v) <= 1e-8 * np.linalg.norm(block0)

    def test_rk4_step_guard(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(kernels(system, 2.5))
        with pytest.raises(IntegratorError, match="stability guard"):
            simulate_closed_loop(kernels(system, law.lam), law, random_state(system),
                                 [0.0, 1.0], integrator="rk4", dt=0.1)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
    def test_rk4_refuses_a_step_that_never_advances(self, dt):
        # a zero step left t where it was and the march never returned
        system = heat_torus_model(8)
        law = synthesize_feedback(kernels(system, 2.5))
        with pytest.raises(ValueError, match="dt"):
            simulate_closed_loop(kernels(system, law.lam), law, random_state(system),
                                 [0.0, 1.0], integrator="rk4", dt=dt)

    def test_decay_rate_bounded_by_spectral_abscissa(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(kernels(system, 2.5))
        u0 = random_state(system, seed=2)
        times = np.linspace(0, 6, 193)
        trace = simulate_closed_loop(kernels(system, law.lam), law, u0, times)
        fit = fit_decay(trace.times, trace.norms[0.0], window=(3.0, 6.0))
        assert fit.mu_hat >= 2.5 - 0.05


class TestCheckRun:
    """check_run refuses a run before it starts; simulate calls it for every scenario
    before the first one integrates."""

    @pytest.mark.parametrize("times", [[0.0, 0.0, 1.0], [0.0, 1.0, 0.5], [0.0, np.nan],
                                       np.linspace(0.0, 5e-324, 9)],
                             ids=["repeated", "decreasing", "nan", "below-resolution"])
    @pytest.mark.parametrize("integrator, nonlinear", [
        ("semigroup_exact", False), ("rk4", False), ("semigroup_exact", True)])
    def test_time_grid_must_be_strictly_increasing(self, times, integrator, nonlinear):
        system = heat_torus_model(8)
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            simulate.check_run(system.branches, zero_law(system), times, 1e-3,
                               integrator, nonlinear)

    @pytest.mark.parametrize("dt, t_end", [(1e-17, 1.0), (np.spacing(1.0) / 2, 1.0),
                                           (1e-4, 1e300)])
    @pytest.mark.parametrize("nonlinear", [False, True], ids=["rk4", "burgers"])
    def test_step_below_the_time_resolution_refused(self, dt, t_end, nonlinear):
        # t += dt stopped moving t short of t_end, and the march never ended
        system = heat_torus_model(8)
        with pytest.raises(ValueError, match=f"step dt={dt} is below the spacing"):
            simulate.check_run(system.branches, zero_law(system), [0.0, t_end], dt, "rk4",
                               nonlinear)

    @pytest.mark.parametrize("integrator, nonlinear, dt", [
        ("rk4", False, np.spacing(1.0)), ("rk4", True, np.spacing(1.0)),
        ("semigroup_exact", False, 1e-17)], ids=["rk4", "burgers", "semigroup"])
    def test_step_at_the_time_resolution_accepted(self, integrator, nonlinear, dt):
        # the semigroup takes no step, so its dt is not read
        system = heat_torus_model(8)
        simulate.check_run(system.branches, zero_law(system), [0.0, 0.5, 1.0], dt,
                           integrator, nonlinear)


class TestFitDecay:
    def test_single_exponential_exact(self):
        system = SpectralSystem(branches=(heat_branch(4),), label="h")
        trace = simulate_target(system, 2.5, [np.array([1, 0, 0, 0], dtype=complex)],
                                np.linspace(0, 1, 33))
        fit = fit_decay(trace.times, trace.norms[0.0])
        assert fit.mu_hat == pytest.approx(3.5, abs=1e-6)
        assert fit.r2 > 1 - 1e-12

    def test_zero_state_rejected(self):
        system = SpectralSystem(branches=(heat_branch(4),), label="h")
        trace = simulate_target(system, 2.5, [np.zeros(4, dtype=complex)],
                                np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="nonpositive norms"):
            fit_decay(trace.times, trace.norms[0.0])

    def test_too_few_samples_rejected(self):
        system = SpectralSystem(branches=(heat_branch(4),), label="h")
        trace = simulate_target(system, 2.5, [np.ones(4, dtype=complex)],
                                np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="< 4"):
            fit_decay(trace.times, trace.norms[0.0], window=(0.9, 1.0))


@pytest.fixture(scope="module")
def heat_system_and_law():
    system = heat_torus_model(16)
    law = synthesize_feedback(kernels(system, 3.25))
    return system, law


class TestBurgers:
    def test_zero_stays_zero(self, heat_system_and_law):
        system, law = heat_system_and_law
        u0 = np.zeros(33, dtype=complex)
        trace = simulate_burgers(system, law, u0, np.linspace(0, 0.1, 6), dt=1e-3)
        assert max(np.max(np.abs(s)) for s in trace.states) <= 1e-14

    def test_open_loop_linear_regime(self, heat_system_and_law):
        system, _ = heat_system_and_law
        # u0 = delta sin(x): mode -1 dominates, constant mode absent
        u0 = np.zeros(33, dtype=complex)
        u0[17] = -0.5e-3 * 1j
        u0[15] = 0.5e-3 * 1j
        trace = simulate_burgers(system, zero_law(system), u0, np.linspace(0, 1, 51),
                                 dt=1e-3)
        fit = fit_decay(trace.times, trace.norms[0.0], window=(0.1, 1.0))
        assert fit.mu_hat == pytest.approx(1.0, abs=0.02)

    def test_open_loop_constant_mode_undamped(self, heat_system_and_law):
        system, _ = heat_system_and_law
        u0 = np.zeros(33, dtype=complex)
        u0[16] = 1e-3          # constant mode
        u0[17] = -0.25e-3 * 1j
        u0[15] = 0.25e-3 * 1j
        trace = simulate_burgers(system, zero_law(system), u0, np.linspace(0, 1, 11),
                                 dt=1e-3)
        const = trace.states[1][:, 0]
        np.testing.assert_allclose(const, const[0] * np.ones_like(const), rtol=1e-6)

    def test_closed_loop_small_data_decay(self, heat_system_and_law):
        system, law = heat_system_and_law
        u0_phys = 1e-3 * np.sin(np.linspace(0, 2 * np.pi, 128, endpoint=False))
        trace = simulate_burgers(system, law, fourier_from_samples(u0_phys, 16),
                                 np.linspace(0, 1, 41), dt=2e-4)
        fit = fit_decay(trace.times, trace.norms[0.0], window=(0.1, 1.0))
        assert fit.mu_hat >= 3.25 - 1.0 - 0.1
        assert trace.real_defect <= 1e-10

    def test_halving_amplitude_does_not_hurt_rate(self, heat_system_and_law):
        system, law = heat_system_and_law
        x = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        shape = np.sin(x) + 0.3 * np.cos(x)
        times = np.linspace(0, 1, 41)
        fits = []
        for amp in (1e-3, 0.5e-3):
            trace = simulate_burgers(system, law, fourier_from_samples(amp * shape, 16),
                                     times, dt=2e-4)
            fits.append(fit_decay(trace.times, trace.norms[0.0], window=(0.1, 1.0)).mu_hat)
        assert fits[1] >= fits[0] - 0.05

    def test_blow_up_detected(self, heat_system_and_law):
        system, _ = heat_system_and_law
        # large data in the open loop: convection outruns the diffusion
        x = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        with pytest.raises(IntegratorError, match="outside the local stability basin"):
            simulate_burgers(system, zero_law(system), fourier_from_samples(2e3 * np.sin(x), 16),
                             np.linspace(0, 2.0, 21), dt=5e-3)

    def test_unstable_step_blamed_not_basin(self, heat_system_and_law):
        # small data decay at dt = 2e-4 (test_closed_loop_small_data_decay);
        # at dt = 0.1 the explicit feedback makes the linear step map expand
        system, law = heat_system_and_law
        assert simulate._linear_step_radius(system, law, 0.1) > 1.0
        x = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        with pytest.raises(IntegratorError, match="blew up.*step dt=0.1 is unstable"):
            simulate_burgers(system, law, fourier_from_samples(1e-3 * np.sin(x), 16),
                             np.linspace(0, 50.0, 11), dt=0.1)

    def test_non_hermitian_coefficients_rejected(self, heat_system_and_law):
        system, law = heat_system_and_law
        c = 1e-3 * hermitian_coeffs(np.random.default_rng(11), 16)
        c[20] += 1e-9j
        with pytest.raises(ValueError, match="not exactly Hermitian"):
            simulate_burgers(system, law, c, [0.0, 0.1], dt=1e-3)

    def test_complex_gains_rejected(self, heat_system_and_law):
        system, law = heat_system_and_law
        gains = {i: SimpleNamespace(gains=law.branch(i).gains + 1e-12j) for i in (1, 2)}
        with pytest.raises(ValueError, match="exactly real gains"):
            simulate_burgers(system, SimpleNamespace(branch=gains.__getitem__),
                             np.zeros(33, dtype=complex), [0.0, 0.1], dt=1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
    def test_step_must_be_finite_and_positive(self, heat_system_and_law, dt):
        # dt = 0 never advanced t; dt = nan ended in a LinAlgError
        system, law = heat_system_and_law
        with pytest.raises(ValueError, match="dt"):
            simulate_burgers(system, law, np.zeros(33, dtype=complex), [0.0, 0.1], dt=dt)

    def test_wrong_branch_count_rejected(self):
        system = SpectralSystem(branches=(heat_branch(8),), label="h")
        with pytest.raises(ValueError, match="two-branch"):
            simulate_burgers(system, zero_law(system), np.zeros(17, dtype=complex), [0.0, 0.1])

    @pytest.mark.parametrize("u0", [
        pytest.param(np.zeros(32, dtype=complex), id="2N-coefficients"),
        pytest.param(np.zeros(128), id="physical-samples"),
        pytest.param(np.zeros((1, 33), dtype=complex), id="a-row")])
    def test_only_hermitian_coefficients_accepted(self, heat_system_and_law, u0):
        system, law = heat_system_and_law
        message = "not exactly Hermitian: it must be the 33 coefficients"
        with pytest.raises(ValueError, match=message):
            simulate_burgers(system, law, u0, [0.0, 0.1], dt=1e-3)


class TestCsvExport:
    def test_headers_and_shape(self, tmp_path):
        system = heat_torus_model(4)
        law = synthesize_feedback(kernels(system, 2.5))
        trace = simulate_closed_loop(kernels(system, law.lam), law, random_state(system),
                                     [0.0, 0.5, 1.0], r_list=(0.0, 1.0))
        modes = tmp_path / "m.csv"
        norms = tmp_path / "n.csv"
        trace_to_csv(trace, modes, norms)
        lines = modes.read_text().splitlines()
        assert lines[0] == "t,branch,n,re,im"
        assert len(lines) == 1 + 3 * 2 * 4
        nlines = norms.read_text().splitlines()
        assert nlines[0] == "t,norm_r0,norm_r1"

    @pytest.mark.parametrize("samples", [1, 2, 3, 17])
    def test_sample_ranges_concatenate_to_the_whole_file(self, tmp_path, samples):
        # a strided branch (every other column of a wider array) and a
        # branch of Burgers' kind, with an all-0.0 im column
        rng = np.random.default_rng(samples)
        wide = rng.standard_normal((samples, 10)) + 1j * rng.standard_normal((samples, 10))
        wide[0, 0], wide[-1, 2] = complex(-0.0, 5e-324), complex(1e16, -1e-05)
        real = np.asarray(rng.standard_normal((samples, 3)), dtype=complex)
        trace = SimulationTrace(times=np.cumsum(rng.uniform(0.1, 1.0, samples)),
                                states=(wide[:, ::2], real), norms={0.0: np.ones(samples)})
        assert not trace.states[0].flags.c_contiguous
        whole = _csv_bytes(trace, tmp_path / "whole.csv")
        assert b",0.0\r\n" in whole
        legacy_trace_to_csv(trace, tmp_path / "legacy.csv", tmp_path / "norms.csv")
        assert whole == (tmp_path / "legacy.csv").read_bytes()
        for cuts in range(min(3, samples - 1) + 1):
            for inner in itertools.combinations(range(1, samples), cuts):
                edges = (0, *inner, samples)
                pieces = b"".join(_csv_bytes(trace, tmp_path / "piece.csv", lo, hi)
                                  for lo, hi in zip(edges, edges[1:]))
                assert pieces == whole, edges


def _csv_bytes(trace, path, start=0, stop=None):
    simulate.write_modes_csv(trace, path, start, stop)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# reference implementations: the straightforward loops the fast paths replace
# ---------------------------------------------------------------------------

def legacy_trace_to_csv(trace, modes_path, norms_path):
    with open(modes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "branch", "n", "re", "im"])
        for k, t in enumerate(trace.times):
            for i, block in enumerate(trace.states, start=1):
                for n, z in enumerate(block[k], start=1):
                    writer.writerow([repr(float(t)), i, n,
                                     repr(float(z.real)), repr(float(z.imag))])
    r_keys = sorted(trace.norms)
    with open(norms_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"norm_r{r:g}" for r in r_keys])
        for k, t in enumerate(trace.times):
            writer.writerow([repr(float(t))] +
                            [repr(float(trace.norms[r][k])) for r in r_keys])


def legacy_norm_series(times, states, r):
    return np.array([
        np.sqrt(sum(sobolev_norm(s[k], r) ** 2 for s in states))
        for k in range(len(times))
    ])


def legacy_semigroup(system, law, blocks, times):
    states = []
    for b, block in zip(system.branches, blocks):
        T = transform_matrix(b, law.branch(b.index))
        lu = scipy.linalg.lu_factor(T)
        w = T @ block
        hist = np.empty((len(times), b.N), dtype=complex)
        for k, t in enumerate(times):
            hist[k] = scipy.linalg.lu_solve(lu, np.exp((b.eigenvalues - law.lam) * t) * w)
        states.append(hist)
    return states


def legacy_rk4_march(A, u0, times, dt):
    out = np.empty((len(times), len(u0)), dtype=complex)
    u = u0.astype(complex)
    t = times[0]
    out[0] = u
    for k in range(1, len(times)):
        target = times[k]
        while t < target - 1e-12 * max(1.0, abs(target)):
            step = min(dt, target - t)
            k1 = A @ u
            k2 = A @ (u + 0.5 * step * k1)
            k3 = A @ (u + 0.5 * step * k2)
            k4 = A @ (u + step * k3)
            u = u + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += step
        out[k] = u
    return out


def legacy_convolve(work, N, length=None):
    return np.convolve(work, work)[N: 3 * N + 1]


def legacy_fft_convolve(work, N, length):
    """Complex FFTs of the full spectrum, symmetrised on Hermitian data."""
    spec = np.fft.fft(work, n=length)
    conv = np.fft.ifft(spec * spec)[N: 3 * N + 1]
    if np.array_equal(work, np.conj(work[::-1])):
        conv = 0.5 * (conv + np.conj(conv[::-1]))
    return conv


def legacy_burgers(system, law, c, times, dt, convolve=legacy_fft_convolve):
    """The full-spectrum IMEX step on c_{-N}..c_N; returns the (a1, a2) histories."""
    N = system.branches[0].N
    k_axis = np.arange(-N, N + 1)
    half_dk = -0.5j * k_axis
    length = simulate._next_fast_len(3 * N + 1)
    phi1, phi2 = simulate._control_fourier(system, N)

    def rhs(cv):
        nl = half_dk * convolve(cv, N, length)
        a1, a2 = simulate._branch_coords(cv, N)
        return (nl + np.dot(law.branch(1).gains, a1) * phi1
                + np.dot(law.branch(2).gains, a2) * phi2)

    k_sq = k_axis.astype(float) ** 2
    c = np.asarray(c, dtype=complex)
    hist = [c]
    t = times[0]
    for target in times[1:]:
        while t < target - 1e-12 * max(1.0, abs(target)):
            step = min(dt, target - t)
            c = (c + step * rhs(c)) * (1.0 / (1.0 + step * k_sq))
            t += step
        hist.append(c)
    return simulate._branch_coords(np.array(hist), N)


def legacy_imex_burgers(system, law, u0, times, dt, r_list):
    """The allocating half-spectrum step: a new c, rhs and FFT arrays per step.

    Returns the (a1, a2) histories, the norm table and the real defect as
    simulate_burgers computes them.
    """
    N = system.branches[0].N
    c = np.asarray(u0)[N:].astype(complex)
    k_axis = np.arange(N + 1)
    half_dk = -0.5j * k_axis
    fft_len = simulate._next_fast_len(3 * N + 1)
    phi1, phi2 = (phi[N:] for phi in simulate._control_fourier(system, N))
    K1, K2 = (law.branch(i).gains for i in (1, 2))
    g1 = -2.0 * np.sqrt(np.pi) * K1.real
    g2 = np.r_[np.sqrt(2.0 * np.pi) * K2[0].real, 2.0 * np.sqrt(np.pi) * K2[1:].real]

    def rhs_explicit(cv):
        v = np.fft.irfft(cv, fft_len, norm="forward")
        nl = half_dk * np.fft.rfft(v * v, norm="forward")[:N + 1]
        return nl + np.dot(g1, cv.imag[1:]) * phi1 + np.dot(g2, cv.real[:N]) * phi2

    k_sq = k_axis.astype(float) ** 2
    implicit = 1.0 / (1.0 + dt * k_sq)
    hist = np.empty((len(times), N + 1), dtype=complex)
    hist[0] = c
    t = times[0]
    for k in range(1, len(times)):
        target = times[k]
        while t < target - 1e-12 * max(1.0, abs(target)):
            step = min(dt, target - t)
            scale = implicit if step == dt else 1.0 / (1.0 + step * k_sq)
            c = (c + step * rhs_explicit(c)) * scale
            t += step
        hist[k] = c
    hist = np.concatenate([np.conj(hist[:, :0:-1]), hist], axis=1)
    defect = float(np.max(np.abs(hist - np.conj(hist[:, ::-1]))))
    states = simulate._branch_coords(hist, N)
    return states, simulate._norm_table(states, r_list), defect


def legacy_control_fourier(system, N):
    sqrt_pi, sqrt_2pi = np.sqrt(np.pi), np.sqrt(2.0 * np.pi)
    b1 = system.branches[0].control_coeffs
    b2 = system.branches[1].control_coeffs
    phi1 = np.zeros(2 * N + 1, dtype=complex)
    phi2 = np.zeros(2 * N + 1, dtype=complex)
    for n in range(1, N + 1):
        phi1[N + n] += b1[n - 1] * (-1j) / (2 * sqrt_pi)
        phi1[N - n] += b1[n - 1] * 1j / (2 * sqrt_pi)
    phi2[N] = b2[0] / sqrt_2pi
    for n in range(1, N):
        phi2[N + n] += b2[n] / (2 * sqrt_pi)
        phi2[N - n] += b2[n] / (2 * sqrt_pi)
    return phi1, phi2


def hermitian_coeffs(rng, N):
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N + 1:] = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / (1.0 + np.arange(N))
    c[:N] = np.conj(c[N + 1:])[::-1]
    c[N] = rng.standard_normal()
    return c


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def hermitian_step_cases(draw):
    """A heat torus of 4 <= N <= 32 modes, real gains, a Hermitian state and a step."""
    N = draw(st.integers(4, 32))

    def reals(size, bound):
        return np.array(draw(st.lists(st.floats(-bound, bound), min_size=size,
                                      max_size=size)))

    c = np.zeros(2 * N + 1, dtype=complex)
    c[N + 1:] = reals(N, 1.0) + 1j * reals(N, 1.0)
    c[:N] = np.conj(c[N + 1:])[::-1]
    c[N] = draw(st.floats(-1.0, 1.0))
    gains = {i: SimpleNamespace(gains=reals(N, 10.0).astype(complex)) for i in (1, 2)}
    law = SimpleNamespace(lam=1.0, branch=gains.__getitem__)
    return heat_torus_model(N), law, c, draw(st.floats(1e-4, 1e-2))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFastPathsMatchReferences:
    def test_csv_bytes_match_csv_writer(self, tmp_path):
        special = [-0.0, 5e-324, 1e-05, 1e16, 123.0, 1 / 3]
        b1 = np.array([complex(x, y) for x in special for y in special[:3]]).reshape(3, 6)
        b2 = np.array([[complex(-x, x) for x in special[::-1][:4]]] * 3)
        times = np.array([0.0, 1e-05, 1 / 3])
        trace = SimulationTrace(times=times, states=(b1, b2),
                                norms={0.0: np.array(special[1:4]),
                                       0.5: np.array([-0.0, 1e16, 1 / 3])})
        trace_to_csv(trace, tmp_path / "m.csv", tmp_path / "n.csv")
        legacy_trace_to_csv(trace, tmp_path / "m0.csv", tmp_path / "n0.csv")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "m0.csv").read_bytes()
        assert (tmp_path / "n.csv").read_bytes() == (tmp_path / "n0.csv").read_bytes()
        assert b"\r\n" in (tmp_path / "m.csv").read_bytes()

    # rel None: the closed-form T^-1 and the LU of T both err by about
    # kappa_0 eps, so the bound is 10 N kappa_0 eps (kappa_0 is 7.6e6 and
    # 1.6e8 on the two branches of heat N=64 at lambda 40.25)
    @pytest.mark.parametrize("system, lam, rel", [
        pytest.param(heat_torus_model(24), 2.5, 1e-13, id="system0"),
        pytest.param(SpectralSystem(branches=(schrodinger_branch(24),), label="s"), 2.5,
                     1e-13, id="system1"),
        pytest.param(heat_torus_model(64), 40.25, None, id="heat64-lam40.25")])
    def test_batched_semigroup_matches_per_sample(self, system, lam, rel):
        law = synthesize_feedback(kernels(system, lam))
        u0 = random_state(system, seed=5)
        times = np.linspace(0, 2, 17)
        trace = simulate_closed_loop(kernels(system, law.lam), law, u0, times,
                                     r_list=(0.0, 0.5))
        ref = legacy_semigroup(system, law, u0, times)
        for b, got, want in zip(system.branches, trace.states, ref):
            bound = rel or 10 * b.N * np.finfo(float).eps * build_transform(
                BranchKernel(b, lam), law.branch(b.index), [0.0]).conditioning[0.0]
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
        for r in (0.0, 0.5):
            want = legacy_norm_series(times, trace.states, r)
            assert same_bits(trace.norms[r], want)
            assert same_bits(simulate._norm_table(trace.states, (r,))[r], want)
        assert same_bits(simulate._norm_table(trace.states, (1.5,))[1.5],
                         legacy_norm_series(times, trace.states, 1.5))

    def test_norm_table_matches_per_sample_loop_bitwise(self):
        # enough samples that a square rounded differently from Python's
        # float ** (about 1 in 1000 values) would show
        rng = np.random.default_rng(10)
        times = np.arange(3000.0)
        blocks = (rng.standard_normal((3000, 7)) + 1j * rng.standard_normal((3000, 7)),
                  np.asfortranarray(rng.standard_normal((3000, 12))))
        table = simulate._norm_table(blocks, (0.0, 0.5, 1.25))
        for r, got in table.items():
            assert same_bits(got, legacy_norm_series(times, blocks, r))

    def test_structured_rk4_matches_dense(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(kernels(system, 2.5))
        u0 = random_state(system, seed=6)
        times = np.array([0.0, 0.004, 0.0105])   # 0.0105 ends on a half step
        trace = simulate_closed_loop(kernels(system, law.lam), law, u0, times,
                                     integrator="rk4", dt=1e-3)
        for b, block, got in zip(system.branches, u0, trace.states):
            A = np.diag(b.eigenvalues) + np.outer(b.control_coeffs, law.branch(b.index).gains)
            want = legacy_rk4_march(A, block, times, 1e-3)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_rfft_convolution_matches_direct(self, dealias):
        N = 256                                   # 3N + 1 = 769 is prime
        c = hermitian_coeffs(np.random.default_rng(7), N)
        if dealias:
            c = c * (np.abs(np.arange(-N, N + 1)) <= (2 * N) // 3)
        length = scipy.fft.next_fast_len(3 * N + 1)
        got = simulate._square_half(c[N:], np.empty(length),
                                    np.empty(length // 2 + 1, dtype=complex))
        want = legacy_convolve(c, N)[N:]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(c) ** 2)

    @pytest.mark.parametrize("N, length", [(4, 14), (8, 25), (16, 49), (256, 770),
                                           (320, 968)])
    def test_square_half_gufuncs_match_public_fft(self, N, length):
        # _square_half calls the gufuncs behind np.fft.irfft/rfft with out=;
        # a numpy that renames or changes them fails here.  Even and odd
        # lengths run rfft_n_even and rfft_n_odd.
        assert simulate._next_fast_len(3 * N + 1) == length
        h = hermitian_coeffs(np.random.default_rng(N), N)[N:]
        u = np.empty(length)
        spec = np.empty(length // 2 + 1, dtype=complex)
        v = np.fft.irfft(h, length, norm="forward")
        got = simulate._square_half(h, u, spec)
        assert same_bits(got, np.fft.rfft(v * v, norm="forward")[:N + 1])

    # each run ends on a half step (0.0205 = 20.5 dt, 0.00205 = 20.5 dt)
    @pytest.mark.parametrize("N, dt, times", [
        (4, 1e-3, [0.0, 0.01, 0.0205]), (8, 1e-3, [0.0, 0.01, 0.0205]),
        (16, 1e-3, [0.0, 0.01, 0.0205]), (256, 1e-4, [0.0, 0.001, 0.00205]),
        (320, 1e-4, [0.0, 0.001, 0.00205])], ids=["N4", "N8", "N16", "N256", "N320"])
    @pytest.mark.parametrize("closed", [True, False], ids=["law", "open"])
    def test_in_place_step_matches_allocating_step(self, N, dt, times, closed):
        system = heat_torus_model(N)
        law = synthesize_feedback(kernels(system, 3.25)) if closed else zero_law(system)
        u0 = 1e-2 * hermitian_coeffs(np.random.default_rng(13), N)
        trace = simulate_burgers(system, law, u0, times, dt=dt, r_list=(0.0, 0.5))
        states, norms, defect = legacy_imex_burgers(system, law, u0, np.array(times), dt,
                                                    (0.0, 0.5))
        for got, want in zip(trace.states, states):
            assert same_bits(got, want)
        for r in (0.0, 0.5):
            assert same_bits(trace.norms[r], norms[r])
        assert same_bits(trace.real_defect, defect)

    def test_fft_burgers_matches_direct_convolution(self):
        system = heat_torus_model(16)
        law = synthesize_feedback(kernels(system, 3.25))
        u0 = 1e-2 * hermitian_coeffs(np.random.default_rng(8), 16)
        times = np.linspace(0, 0.05, 6)
        fast = simulate_burgers(system, law, u0, times, dt=1e-3)
        ref = legacy_burgers(system, law, u0, times, 1e-3, convolve=legacy_convolve)
        assert fast.real_defect == 0.0
        for got, want in zip(fast.states, ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.all(got.imag == 0.0)

    @pytest.mark.parametrize("N, dt, times", [
        (16, 1e-3, [0.0, 0.02, 0.0405]),          # the last step is a half step
        (256, 1e-4, [0.0, 0.002, 0.00425])], ids=["N16", "N256"])
    @pytest.mark.parametrize("closed", [True, False], ids=["law", "open"])
    def test_half_spectrum_matches_full_spectrum_step(self, N, dt, times, closed):
        system = heat_torus_model(N)
        law = synthesize_feedback(kernels(system, 3.25)) if closed else zero_law(system)
        u0 = 1e-2 * hermitian_coeffs(np.random.default_rng(12), N)
        trace = simulate_burgers(system, law, u0, times, dt=dt)
        ref = legacy_burgers(system, law, u0, np.array(times), dt)
        assert trace.real_defect == 0.0
        for got, want in zip(trace.states, ref):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.all(got.imag == 0.0)

    @given(case=hermitian_step_cases())
    @PROPERTY
    def test_one_step_matches_full_spectrum_step(self, case):
        system, law, c, dt = case
        trace = simulate_burgers(system, law, c, [0.0, dt], dt=dt)
        ref = legacy_burgers(system, law, c, np.array([0.0, dt]), dt)
        scale = max(np.max(np.abs(want)) for want in ref)
        for got, want in zip(trace.states, ref):
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale

    def test_burgers_helpers_are_bitwise_unchanged(self):
        N = 16
        system = heat_torus_model(N)
        rng = np.random.default_rng(9)
        for got, want in zip(simulate._control_fourier(system, N),
                             legacy_control_fourier(system, N)):
            assert same_bits(got, want)
        hist = rng.standard_normal((5, 2 * N + 1)) + 1j * rng.standard_normal((5, 2 * N + 1))
        a1, a2 = simulate._branch_coords(hist, N)
        for k in range(len(hist)):
            r1, r2 = simulate._branch_coords(hist[k], N)
            assert same_bits(a1[k], r1) and same_bits(a2[k], r2)
