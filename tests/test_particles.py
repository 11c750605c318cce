"""Particle dynamics: forces, noise, reproducibility, mean-field limit."""

import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from scipy.special import iv, ndtri

import torusmf as tm
import torusmf.particles as particles
from oracles import (closed_form, mode_sum_drift, pairwise_drift,
                     philox_normals, philox_uniforms)
from torusmf.particles import (
    ParticleState,
    chaos_check,
    drift,
    em_step,
    empirical_fourier,
    init_state,
    simulate,
    _StepPlan,
    _wrap,
)
from torusmf.potentials import Potential


def _one_mode_kernel() -> Potential:
    # 2 what(3) cos(6 pi theta) with what(3) = 1/4: lead mode 3, one power
    coeffs = np.zeros(12)
    coeffs[2] = 0.25
    return Potential("one_mode", {}, coeffs, lambda m: 0.0)


#: name -> (kernel, and where the kernel is its own truncation to rounding
#: its derivative W', so that the pairwise sum ``pairwise_drift`` is an
#: oracle for the truncated drift too)
DRIFT_KERNELS = {
    "rod_L64": (lambda: tm.doi_onsager(truncation=128), None),
    "transformer3_lead1": (lambda: tm.transformer(3.0, truncation=64),
                           closed_form(tm.transformer(3.0, truncation=64),
                                       derivative=True)),
    "hk_R1_L128_padded": (lambda: tm.hegselmann_krause(1.0, 128), None),
    "one_mode_L1": (_one_mode_kernel,
                    lambda th: -3 * np.pi * np.sin(6 * np.pi * th)),
    "custom_L7_padded": (lambda: tm.custom_potential(
        [0, 0.3, 0, 0.1, 0, 0.05, 0, 0.02, 0, 0.01, 0, 0.005, 0, 0.002]),
        None),
}


@pytest.fixture(scope="module")
def do128():
    return tm.doi_onsager(truncation=128)


def _lm_step(state, w, coupling, dt):
    """``em_step`` from the oracle's addressed draws xi_s and xi_{s+1}."""
    seed, rep, step, n = state.seed, state.replicate, state.step, state.n
    xi, xi_next = (philox_normals(seed, rep, s, n) for s in (step, step + 1))
    a = math.sqrt(0.75) if step == 0 else 0.5
    pos = drift(state.positions, w, coupling) * dt + state.positions
    pos = _wrap(pos + (a * xi + 0.5 * xi_next) * math.sqrt(dt))
    return ParticleState(pos, state.time + dt, seed, rep, step + 1)


def _key(state):
    return state.seed, state.replicate, state.step, state.time


def _counting_streams(monkeypatch):
    """The keys at which plans set their Philox stream, in call order."""
    keys = []
    real = particles._stream
    monkeypatch.setattr(particles, "_stream",
                        lambda *a: keys.append(a) or real(*a))
    return keys


class TestDrift:
    def test_all_at_one_point_is_zero(self, do128):
        pos = np.zeros(16)
        dw = closed_form(do128, derivative=True)
        assert np.abs(pairwise_drift(pos, dw, 1.5)).max() == 0.0
        assert np.abs(drift(pos, do128, 1.5)).max() < 1e-12

    def test_two_particle_hand_value(self, do128):
        coupling = 1.3
        pos = np.array([0.125, 0.0])
        d = pairwise_drift(pos, closed_form(do128, derivative=True), coupling)
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
            d1 = pairwise_drift(pos, closed_form(w, derivative=True), coupling)
            d2 = drift(pos, w, coupling)
            assert np.abs(d1 - d2).max() <= tail + 1e-12

    def test_translation_equivariance(self, do128, rng):
        pos = rng.uniform(-0.5, 0.5, 50)
        d = drift(pos, do128, 1.1)
        shifted = _wrap(pos + 0.27)
        d2 = drift(shifted, do128, 1.1)
        assert np.abs(d - d2).max() < 1e-10

    def test_permutation_equivariance(self, do128, rng):
        pos = rng.uniform(-0.5, 0.5, 50)
        perm = rng.permutation(50)
        d = drift(pos, do128, 1.1)
        d2 = drift(pos[perm], do128, 1.1)
        assert np.abs(d[perm] - d2).max() < 1e-13

    def test_equispaced_lattice_cancellation(self, do128):
        for n in (8, 12):
            pos = _wrap(-0.5 + np.arange(n) / n + 0.123)
            d = drift(pos, do128, 2.0)
            assert np.abs(d).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 101, 2000])
    @pytest.mark.parametrize("kernel", sorted(DRIFT_KERNELS))
    def test_matches_blocked_mode_sum_and_pairwise_sum(self, kernel, n, rng):
        make, dw = DRIFT_KERNELS[kernel]
        w, coupling = make(), 1.3
        ks = w.active_modes
        for pos in (rng.uniform(-0.5, 0.5, n),
                    _wrap(0.03 * rng.standard_normal(n))):
            d = drift(pos, w, coupling)
            refs = [mode_sum_drift(pos, w, coupling)]
            if dw is not None:
                refs.append(pairwise_drift(pos, dw, coupling))
            for ref in refs:
                # one particle feels no force: scale by |F|'s bound there
                scale = (np.abs(ref).max() if n > 1 else 4 * np.pi * coupling
                         * np.abs(ks * w.coeffs[ks - 1]).sum())
                assert np.abs(d - ref).max() <= 1e-13 * scale

    def test_reused_work_rows_change_no_result(self, do128, rng):
        plan = _StepPlan(101, do128)
        for _ in range(3):
            pos = rng.uniform(-0.5, 0.5, 101)
            assert np.array_equal(drift(pos, do128, 1.3, plan=plan),
                                  drift(pos, do128, 1.3))

    def test_no_closed_form_for_log_gas(self):
        # the pairwise drift's oracle has no closed-form derivative for the
        # singular log-gas kernel, nor for a custom one
        for w in (tm.log_gas(32), tm.custom_potential([0.0, 0.3])):
            with pytest.raises(ValueError):
                closed_form(w, derivative=True)


class TestEmStep:
    def test_deterministic_given_seed(self, do128):
        s1 = init_state(None, 64, seed=5)
        s2 = init_state(None, 64, seed=5)
        for _ in range(10):
            s1 = em_step(s1, do128, 1.0, 1e-3)
            s2 = em_step(s2, do128, 1.0, 1e-3)
        assert np.array_equal(s1.positions, s2.positions)

    def test_noise_is_counter_addressable(self, do128):
        # same (seed, step) always yields the same increments, independent
        # of how many draws happened before
        a = _StepPlan(32, do128).normals(9, 0, 7)[0]
        plan = _StepPlan(32, do128)
        for step in range(7):
            plan.normals(9, 0, step)
        b, c = plan.normals(9, 0, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 31, 32])
    def test_steps_draw_disjoint_slices_of_one_stream(self, do128, n):
        # one word per draw from the key's stream: init_state takes the
        # first n words, step s the n from word 4 (s + 1) ceil(n/2)
        seed, rep, steps = 9, 3, 4
        reserve = 4 * ((n + 1) // 2)
        words = np.random.Philox(key=(seed, rep)).random_raw(
            reserve * (steps + 1) + n)
        x0 = init_state(None, n, seed, rep).positions
        assert np.array_equal(x0, _wrap(philox_uniforms(words[:n]) - 0.5))
        used = np.zeros(len(words), dtype=int)
        used[:n] += 1
        plan = _StepPlan(n, do128)
        for s in range(steps):
            start = reserve * (s + 1)
            assert np.array_equal(
                plan.normals(seed, rep, s)[0],
                ndtri(philox_uniforms(words[start:start + n])))
            used[start:start + n] += 1
        assert used.max() == 1

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
        xi = [philox_normals(seed, 0, s, n) for s in range(n_steps + 1)]
        expect = np.sqrt(dt) * (np.sqrt(3.0) / 2 * xi[0] + sum(xi[1:-1])
                                + 0.5 * xi[-1])
        assert np.abs(_wrap(state.positions - x0) - expect).max() < 1e-14

    def test_each_step_draws_its_normals_once(self, do128, monkeypatch):
        # simulate sets each replicate's stream once, at step 0, and
        # xi_{s+1} rides from step s to step s + 1: n steps, n + 1 draws
        keys = _counting_streams(monkeypatch)
        reads = []
        real = _StepPlan._read
        monkeypatch.setattr(_StepPlan, "_read",
                            lambda plan: reads.append(1) or real(plan))
        for rep in (0, 1):
            simulate(do128, 1.0, 32, 0.007, dt=1e-3, seed=4, replicate=rep)
        assert keys == [(4, 0, 0, 32), (4, 1, 0, 32)]
        assert len(reads) == 2 * 8

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
        xi = np.stack([philox_normals(seed, 0, s, n) for s in range(n_fine)])
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


class TestStepPlan:
    @pytest.mark.parametrize("n", [1, 7, 31, 32, 2001])
    def test_stream_reads_the_addressed_normals(self, do128, n, monkeypatch):
        # from step 0, as ``simulate`` starts, from mid-stream, and at keys
        # elsewhere, where the plan sets its stream to the key it is given
        keys = _counting_streams(monkeypatch)
        seed, rep = 9, 3
        plan = _StepPlan(n, do128)
        for start in (0, 40):
            for step in range(start, start + 6):
                xi, xi_next = plan.normals(seed, rep, step)
                assert np.array_equal(xi, philox_normals(seed, rep, step, n))
                assert np.array_equal(
                    xi_next, philox_normals(seed, rep, step + 1, n))
            assert plan.cursor == (seed, rep, start + 6)
        assert keys == [(seed, rep, 0, n), (seed, rep, 40, n)]
        elsewhere = ((9, 3, 47), (9, 3, 3), (8, 3, 4), (9, 2, 4))
        for key in elsewhere:
            xi, xi_next = plan.normals(*key)
            assert np.array_equal(xi, philox_normals(*key, n))
            assert np.array_equal(
                xi_next, philox_normals(*key[:2], key[2] + 1, n))
            assert plan.cursor == key[:2] + (key[2] + 1,)
        assert keys[2:] == [key + (n,) for key in elsewhere]
        # and reads on from the last of them without setting it again
        assert np.array_equal(plan.normals(9, 2, 5)[1],
                              philox_normals(9, 2, 6, n))
        assert len(keys) == 6

    def test_em_step_with_a_plan_changes_no_bit(self, do128, monkeypatch):
        # one plan carried along one replicate, then moved to another
        # replicate's state and back: every step is the oracle's, with or
        # without the plan, and the plan sets its stream at each move only
        keys = _counting_streams(monkeypatch)
        n, seed, coupling, dt = 33, 6, 1.0, 1e-3
        plan = _StepPlan(n, do128)
        states = [init_state(None, n, seed, r) for r in (0, 1)]
        moves = []
        for r in (0, 0, 1, 0):
            for _ in range(3):
                state = states[r]
                before = len(keys)
                planned = em_step(state, do128, coupling, dt, plan)
                moves += keys[before:]
                plain = em_step(state, do128, coupling, dt)
                oracle = _lm_step(state, do128, coupling, dt)
                assert np.array_equal(planned.positions, oracle.positions)
                assert np.array_equal(plain.positions, oracle.positions)
                assert _key(planned) == _key(plain) == _key(oracle)
                states[r] = planned
        assert moves == [(seed, 0, 0, n), (seed, 1, 0, n), (seed, 0, 6, n)]
        assert len(keys) == 3 + 12  # each plain em_step sets its own
        assert plan.cursor == (seed, 0, 9)
        assert states[0].step == 9
        assert not states[0].positions.flags.writeable

    def test_simulate_matches_a_plain_em_step_loop(self, do128):
        n, seed, rep, coupling, dt = 101, 4, 2, 1.3, 1e-3
        q0 = tm.cosine_profile({2: 0.2}, 256)
        traj = simulate(do128, coupling, n, 0.03, dt=dt, seed=seed,
                        replicate=rep, q0=q0)
        state = oracle = init_state(q0, n, seed, rep)
        for _ in range(30):
            state = em_step(state, do128, coupling, dt)
            oracle = _lm_step(oracle, do128, coupling, dt)
        assert np.array_equal(traj.final.positions, state.positions)
        assert np.array_equal(traj.final.positions, oracle.positions)
        assert _key(traj.final) == _key(state) == _key(oracle)

    def test_plan_for_another_kernel_or_count_raises(self, do128, rng):
        pos = rng.uniform(-0.5, 0.5, 20)
        plan = _StepPlan(20, do128)
        other = tm.doi_onsager(truncation=128)
        with pytest.raises(ValueError, match="step plan"):
            drift(pos, other, 1.0, plan=plan)
        with pytest.raises(ValueError, match="step plan"):
            drift(pos[:-1], do128, 1.0, plan=plan)
        with pytest.raises(ValueError, match="step plan"):
            em_step(init_state(None, 21, seed=1), do128, 1.0, 1e-3, plan)

    def test_simulate_calls_em_step_and_drift_once_a_step(self, do128,
                                                          monkeypatch):
        # the benchmark paces at em_step and traces both by name
        import torusmf.particles as particles

        counts = {"em_step": 0, "drift": 0}
        for name in counts:
            def counting(*args, _real=getattr(particles, name), _name=name,
                         **kw):
                counts[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(particles, name, counting)
        simulate(do128, 1.0, 50, 0.013, dt=1e-3)
        assert counts == {"em_step": 13, "drift": 13}

    @pytest.mark.parametrize("horizon", [0.0015, 0.0004, 0.0, -0.002,
                                         math.inf, math.nan])
    def test_horizon_not_a_whole_number_of_steps_rejected(self, do128,
                                                          horizon):
        # at 0.0015 the particles stopped at t = 0.002, and at 0.0004
        # they never moved, while a flow run to the horizon stops there
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(do128, 1.0, 50, horizon, dt=1e-3)

    def test_record_every_below_one_rejected(self, do128):
        with pytest.raises(ValueError, match="record_every"):
            simulate(do128, 1.0, 50, 0.002, dt=1e-3, record_every=0)


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

    def test_worker_count_changes_no_result(self, do128):
        # each replicate owns its drift's work rows: two threads switching
        # every microsecond give bit-identical results to one
        def run(workers):
            return chaos_check(do128, 1.2 * 3 * np.pi / 4, n=300,
                               horizon=0.05, replicates=4, dt=1e-3,
                               seed=5, m_pde=256, workers=workers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            one, two = run(1), run(2)
        finally:
            sys.setswitchinterval(interval)
        assert one.particle_mean_sq == two.particle_mean_sq
        assert one.z_score == two.z_score
        for a, b in zip(one.trajectories, two.trajectories):
            assert np.array_equal(a.final.positions, b.final.positions)
        # the trajectories hold only their own real arrays, no work rows
        arrays = [a for t in two.trajectories for a in _arrays_in(t)]
        assert arrays
        assert all(a.base is None and a.dtype == float for a in arrays)

    def test_q0_grid_must_match_flow_grid(self, do128):
        q0 = tm.cosine_profile({2: 0.2}, 256)
        with pytest.raises(ValueError, match="m_pde"):
            chaos_check(do128, 1.0, n=100, horizon=0.01, replicates=2,
                        q0=q0, m_pde=1024)

    def test_fewer_than_two_replicates_rejected(self, do128):
        with pytest.raises(ValueError, match="replicates"):
            chaos_check(do128, 1.0, n=100, horizon=0.01, replicates=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, do128, workers):
        with pytest.raises(ValueError, match="workers"):
            chaos_check(do128, 1.0, n=100, horizon=0.01, replicates=2,
                        m_pde=256, workers=workers)

    def test_horizon_checked_before_the_flow_runs(self, do128, monkeypatch):
        def no_flow(*args, **kw):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(particles, "integrate", no_flow)
        with pytest.raises(ValueError, match="whole number of steps"):
            chaos_check(do128, 1.0, n=200, horizon=0.0015, replicates=2,
                        dt=1e-3, m_pde=256)

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
        assert rep.particle_steps == 2 * 500


def _arrays_in(obj):
    """Every ndarray reachable through dataclass fields, dicts and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if is_dataclass(obj):
        return [a for f in fields(obj)
                for a in _arrays_in(getattr(obj, f.name))]
    if isinstance(obj, dict):
        return [a for v in obj.values() for a in _arrays_in(v)]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _arrays_in(v)]
    return []
