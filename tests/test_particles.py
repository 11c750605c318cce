"""Particle dynamics: forces, noise, reproducibility, mean-field limit."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import iv

import torusmf as tm
from torusmf.errors import NoClosedForm
from torusmf.particles import (
    chaos_check,
    drift,
    em_step,
    empirical_fourier,
    init_state,
    simulate,
    _normals,
    _wrap,
)


@pytest.fixture(scope="module")
def do128():
    return tm.doi_onsager(truncation=128)


class TestDrift:
    def test_all_at_one_point_is_zero(self, do128):
        pos = np.zeros(16)
        assert np.abs(drift(pos, do128, 1.5, "pairwise_exact")).max() == 0.0
        assert np.abs(drift(pos, do128, 1.5, "fourier_truncated")).max() < 1e-12

    def test_two_particle_hand_value(self, do128):
        coupling = 1.3
        pos = np.array([0.125, 0.0])
        d = drift(pos, do128, coupling, "pairwise_exact")
        assert abs(d[0] - (-coupling * np.pi / np.sqrt(2))) < 1e-14
        assert abs(d[1] - (+coupling * np.pi / np.sqrt(2))) < 1e-14

    def test_modes_agree_on_smooth_kernel(self, rng):
        w = tm.transformer(1.0, truncation=64)
        coupling = 0.8
        # derivative tail: 4 pi K sum_{k>M} k I_k(beta)/beta, geometric
        r = 1.0 / (2 * 65)
        tail = (4 * np.pi * coupling / 1.0 * 65 * iv(65, 1.0)
                / (1 - r))
        for _ in range(20):
            pos = rng.uniform(-0.5, 0.5, 100)
            d1 = drift(pos, w, coupling, "pairwise_exact")
            d2 = drift(pos, w, coupling, "fourier_truncated")
            assert np.abs(d1 - d2).max() <= tail + 1e-12

    def test_translation_equivariance(self, do128, rng):
        pos = rng.uniform(-0.5, 0.5, 50)
        d = drift(pos, do128, 1.1, "fourier_truncated")
        shifted = _wrap(pos + 0.27)
        d2 = drift(shifted, do128, 1.1, "fourier_truncated")
        assert np.abs(d - d2).max() < 1e-10

    def test_permutation_equivariance(self, do128, rng):
        pos = rng.uniform(-0.5, 0.5, 50)
        perm = rng.permutation(50)
        d = drift(pos, do128, 1.1, "fourier_truncated")
        d2 = drift(pos[perm], do128, 1.1, "fourier_truncated")
        assert np.abs(d[perm] - d2).max() < 1e-13

    def test_equispaced_lattice_cancellation(self, do128):
        for n in (8, 12):
            pos = _wrap(-0.5 + np.arange(n) / n + 0.123)
            d = drift(pos, do128, 2.0, "fourier_truncated")
            assert np.abs(d).max() < 1e-10

    def test_no_closed_form_for_log_gas(self):
        w = tm.log_gas(32)
        with pytest.raises(NoClosedForm):
            drift(np.zeros(4), w, 1.0, "pairwise_exact")


class TestEmStep:
    def test_deterministic_given_seed(self, do128):
        s1 = init_state(None, 64, seed=5)
        s2 = init_state(None, 64, seed=5)
        for _ in range(10):
            s1 = em_step(s1, do128, 1.0, 1e-3)
            s2 = em_step(s2, do128, 1.0, 1e-3)
        assert np.array_equal(s1.positions, s2.positions)

    def test_noise_is_counter_addressable(self):
        # same (seed, step) always yields the same increments, independent
        # of how many draws happened before
        a = _normals(9, 0, step=7, n=32)
        b = _normals(9, 0, step=7, n=32)
        assert np.array_equal(a, b)
        c = _normals(9, 0, step=8, n=32)
        assert not np.array_equal(a, c)

    def test_zero_noise_free_variance(self, do128):
        # K = 0: wrapped Brownian motion; single-particle variance after
        # t = 0.01 equals t within Monte Carlo error (1e4 replicates)
        n = 10**4
        state = init_state(None, n, seed=11)
        x0 = state.positions.copy()
        for _ in range(10):
            state = em_step(state, do128, 0.0, 1e-3)
        incr = _wrap(state.positions - x0)
        var = incr.var()
        t = 0.01
        # var of sample variance ~ 2 t^2 / n; allow 3 sigma
        assert abs(var - t) < 3 * t * np.sqrt(2.0 / n)

    def test_deterministic_two_particles(self, do128):
        # zero noise by construction: compare one drift-only Euler step
        pos = np.array([0.125, -0.125])
        f = drift(pos, do128, 1.0)
        expect = _wrap(pos + f * 1e-3)
        state = init_state(None, 2, seed=3)
        state = type(state)(pos, 0.0, 3, 0, 0)
        out = em_step(state, do128, 1.0, 1e-3)
        noise = out.positions - expect
        # subtracting the deterministic part leaves pure N(0, dt) noise
        assert np.all(np.abs(noise) < 6 * np.sqrt(1e-3))

    @pytest.mark.parametrize("n_steps", [1, 2, 10])
    def test_free_displacement_is_averaged_noise_sum(self, do128, n_steps):
        # K = 0: the noise-averaged scheme telescopes to
        # sqrt(dt) (sqrt(3)/2 xi_0 + xi_1 + ... + xi_{n-1} + xi_n / 2),
        # whose variance is exactly n dt
        n, seed, dt = 64, 13, 1e-3
        state = init_state(None, n, seed=seed)
        x0 = state.positions.copy()
        for _ in range(n_steps):
            state = em_step(state, do128, 0.0, dt)
        xi = [_normals(seed, 0, s, n) for s in range(n_steps + 1)]
        expect = np.sqrt(dt) * (np.sqrt(3.0) / 2 * xi[0] + sum(xi[1:-1])
                                + 0.5 * xi[-1])
        assert np.abs(_wrap(state.positions - x0) - expect).max() < 1e-14

    def test_each_step_draws_its_normals_once(self, do128, monkeypatch):
        # xi_{s+1} rides from step s to step s + 1: n steps, n + 1 draws
        import torusmf.particles as particles

        calls = []
        monkeypatch.setattr(particles, "_normals",
                            lambda *a: calls.append(a[2]) or _normals(*a))
        state = init_state(None, 32, seed=4)
        for _ in range(7):
            state = em_step(state, do128, 1.0, 1e-3)
        assert calls == list(range(8))

    def test_carried_normals_match_fresh_draws(self, do128):
        # dropping the carried draw redraws it: bit-identical paths
        carried = fresh = init_state(None, 64, seed=21)
        for _ in range(6):
            carried = em_step(carried, do128, 1.0, 1e-3)
            fresh = em_step(replace(fresh, normals=None), do128, 1.0, 1e-3)
            assert np.array_equal(carried.positions, fresh.positions)
        assert np.array_equal(carried.normals, _normals(21, 0, 6, 64))
        assert not carried.normals.flags.writeable

    def test_dt_guard(self, do128):
        state = init_state(None, 8, seed=1)
        with pytest.raises(ValueError):
            em_step(state, do128, 1.0, 2e-3)

    def test_strong_order_coupled_paths(self):
        # additive noise makes Euler-Maruyama strong order 1.0 on a smooth
        # kernel; the refinement slope against a common Brownian path
        # sits near 1 (not the generic 1/2)
        w = tm.transformer(1.0, truncation=32)
        coupling = 0.8
        n = 64
        seed = 17
        fine_dt = 1.25e-4
        levels = (8, 4, 2, 1)  # multiples of fine_dt
        n_fine = 160
        xi = np.stack([_normals(seed, 0, s, n) for s in range(n_fine)])
        x0 = init_state(None, n, seed=seed).positions
        finals = {}
        for lev in levels:
            dt = fine_dt * lev
            x = x0.copy()
            for j in range(n_fine // lev):
                block = xi[j * lev:(j + 1) * lev]
                incr = block.sum(axis=0) * np.sqrt(fine_dt)
                x = _wrap(x + drift(x, w, coupling) * dt + incr)
            finals[lev] = x
        errs = [np.sqrt(np.mean(_wrap(finals[lev] - finals[1]) ** 2))
                for lev in levels[:-1]]
        slopes = np.diff(np.log(errs)) / np.diff(np.log([8, 4, 2]))
        slope = np.mean(slopes)
        assert 0.7 < slope < 1.3


class TestEmpiricalFourier:
    def test_zero_mode(self, rng):
        pos = rng.uniform(-0.5, 0.5, 100)
        assert empirical_fourier(pos, 0) == 1.0

    def test_equispaced_vanishes(self):
        n = 64
        pos = -0.5 + np.arange(n) / n
        for k in (1, 5, 63):
            assert abs(empirical_fourier(pos, k)) < 1e-13

    def test_iid_uniform_clt_scale(self):
        n = 10**5
        pos = init_state(None, n, seed=123).positions
        for k in range(1, 11):
            assert abs(empirical_fourier(pos, k)) <= 4.0 / np.sqrt(n)


class TestChaos:
    def test_free_case_consistent(self, do128):
        rep = chaos_check(do128, 0.0, n=2000, horizon=1.0, replicates=16,
                          dt=1e-3, seed=42, m_pde=256)
        assert abs(rep.z_score) <= 3.0
        assert abs(rep.particle_mean_sq) < 5e-4

    def test_subcritical_transformer(self):
        w = tm.transformer(1.0, truncation=64)
        ks, _ = tm.k_sharp(w)
        rep = chaos_check(w, 0.5 * ks, n=2000, horizon=1.0, replicates=8,
                          dt=1e-3, seed=7, m_pde=256)
        assert abs(rep.z_score) <= 3.0

    def test_supercritical_rod_consistent(self, do128):
        # C10 scaled down: near the clustered minimizer the drift slope
        # reaches about -180, where Euler-Maruyama's first-order bias in
        # the stationary law shows as z = -9; noise averaging removes it
        rep = chaos_check(do128, 1.2 * 3 * np.pi / 4, n=2000, horizon=1.0,
                          replicates=8, dt=1e-3,
                          q0=tm.cosine_profile({2: 0.2}, 512), seed=2024,
                          m_pde=512, dt_pde=1e-4)
        assert abs(rep.z_score) <= 3.0

    def test_q0_grid_must_match_flow_grid(self, do128):
        q0 = tm.cosine_profile({2: 0.2}, 256)
        with pytest.raises(ValueError, match="m_pde"):
            chaos_check(do128, 1.0, n=100, horizon=0.01, replicates=2,
                        q0=q0, m_pde=1024)

    def test_fewer_than_two_replicates_rejected(self, do128):
        with pytest.raises(ValueError, match="replicates"):
            chaos_check(do128, 1.0, n=100, horizon=0.01, replicates=1)

    def test_flow_side_is_one_integrate_call(self, do128, monkeypatch):
        from torusmf import particles

        calls, traces = [], []
        real = particles.integrate

        def counting(*args, **kw):
            calls.append(kw["dt"])
            traces.append(real(*args, **kw))
            return traces[-1]

        monkeypatch.setattr(particles, "integrate", counting)
        rep = chaos_check(do128, 1.2 * 3 * np.pi / 4, n=100, horizon=0.5,
                          replicates=2, dt=1e-3,
                          q0=tm.cosine_profile({2: 0.2}, 512), seed=2024,
                          m_pde=512, dt_pde=1e-4)
        assert calls == [1e-4]
        assert rep.flow_steps == traces[0].meta["steps"] > 0
