"""Log-gas Fourier hierarchy: stationarity, heat limit, flow consistency."""

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate._ivp import bdf

import torusmf as tm
from torusmf.errors import BlowUp
from torusmf.flow import RecordPolicy, integrate
from torusmf.loggas import integrate_hierarchy, loggas_rhs, stationary_coeffs


class TestRhs:
    def test_zero_is_stationary(self):
        assert np.abs(loggas_rhs(np.zeros(16, dtype=complex), 0.7)).max() == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c", [0.3, 0.5, 0.7])
    def test_stationary_family(self, n, c):
        q0 = stationary_coeffs(c, n, 32)
        assert np.abs(loggas_rhs(q0, n)).max() <= 1e-14

    def test_family_not_stationary_off_integer(self):
        q0 = stationary_coeffs(0.5, 1, 32)
        assert np.abs(loggas_rhs(q0, 1.3)).max() > 1e-3

    def test_heat_decay_at_zero_coupling(self):
        # K = 0: modes decay like exp(-2 pi^2 k^2 t)
        m = 4
        q0 = np.full(m, 0.1, dtype=complex)
        dt = 1e-4
        times, traj = integrate_hierarchy(q0, 0.0, 0.02, dt=dt,
                                          record_every=1)
        k = np.arange(1, m + 1)
        expect = 0.1 * np.exp(-2 * np.pi**2 * k**2 * times[-1])
        assert np.abs(traj[-1] - expect).max() < 1e-10

    def test_stiff_heat_decay_from_a_large_first_step(self):
        # 64 modes from a first step of 1e-3, 29 times the stability bound
        # of explicit RK4: the solve is implicit, so accuracy sets its steps
        m = 64
        times, traj = integrate_hierarchy(np.full(m, 0.1, dtype=complex),
                                          0.0, 0.1, dt=1e-3, record_every=10)
        k = np.arange(1, m + 1)
        expect = 0.1 * np.exp(-2 * np.pi**2 * np.outer(times, k**2))
        assert len(times) == 11
        assert np.abs(traj - expect).max() < 1e-10

    @pytest.mark.parametrize("horizon, dt, every", [
        (1.0, 2e-5, 10**6), (1.0, 2e-5, 12500), (0.4, 5e-5, 2000)])
    def test_records_fall_on_whole_steps(self, horizon, dt, every):
        # the record times of C07 and demo 08 are step * dt, bit for bit,
        # for every ``every``-th step and the last
        q0 = stationary_coeffs(0.5, 1, 8).astype(complex)
        times, _ = integrate_hierarchy(q0, 1.0, horizon, dt=dt,
                                       record_every=every)
        n = int(round(horizon / dt))
        assert times.tolist() == [0.0] + [
            step * dt for step in range(1, n + 1)
            if step % every == 0 or step == n]


    @pytest.mark.parametrize("horizon, dt", [
        (0.0015, 1e-3), (4e-6, 1e-5), (0.0, 1e-3), (-1e-3, 1e-3)])
    def test_horizon_off_the_step_grid_rejected(self, horizon, dt):
        # the solve used to stop at round(horizon / dt) dt: 0.0015 gave
        # times [0, 0.002], and 4e-6 the initial state alone
        q0 = stationary_coeffs(0.5, 1, 8).astype(complex)
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate_hierarchy(q0, 0.8, horizon, dt=dt)

    @pytest.mark.parametrize("every", [0, -1])
    def test_record_every_below_one_rejected(self, every):
        q0 = stationary_coeffs(0.5, 1, 8).astype(complex)
        with pytest.raises(ValueError, match="record_every"):
            integrate_hierarchy(q0, 0.8, 0.002, dt=1e-3, record_every=every)

    def test_unset_bdf_table_bytes_raise_no_warning(self, monkeypatch):
        # scipy's BDF subtracts a row of its np.empty difference table
        # before writing it; leftover bytes that form a signalling NaN
        # flag "invalid" there, which the suite turns into an error
        class SignallingEmpty:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, dtype=float):
                out = np.empty(shape, dtype)
                out.view(np.uint64)[...] = 0x7FF0000000000001
                return out

        q0 = stationary_coeffs(0.5, 1, 16).astype(complex)
        ref = integrate_hierarchy(q0, 0.8, 0.002, dt=1e-4, record_every=5)
        monkeypatch.setattr(bdf, "np", SignallingEmpty())
        times, traj = integrate_hierarchy(q0, 0.8, 0.002, dt=1e-4,
                                          record_every=5)
        assert np.array_equal(times, ref[0])
        assert np.array_equal(traj, ref[1])

    def test_non_finite_trajectory_raises(self, monkeypatch):
        # with "invalid" ignored inside the solve, a NaN that reaches the
        # trajectory must still fail
        solve_ivp = scipy.integrate.solve_ivp

        def poisoned(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            sol.y[3, -1] = np.nan
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", poisoned)
        q0 = stationary_coeffs(0.5, 1, 8).astype(complex)
        with pytest.raises(BlowUp):
            integrate_hierarchy(q0, 0.8, 0.002, dt=1e-3)


class TestFlowConsistency:
    def test_hierarchy_matches_pde(self):
        # same truncated kernel on both sides: the grid flow's first 64
        # modes follow the hierarchy
        m_modes = 64
        w = tm.log_gas(m_modes)
        c = 0.5
        q0 = tm.extremal(c, 0, 0.0, 512)
        horizon = 1.0
        tr = integrate(q0, w, 1.0, horizon, dt=5e-5,
                       record=RecordPolicy("uniform", 4, snapshot_every=1))
        hier0 = stationary_coeffs(c, 1, m_modes).astype(complex)
        times, traj = integrate_hierarchy(hier0, 1.0, horizon, dt=2e-5,
                                          record_every=10**6)
        pde_final = tr.snapshots[-1].fourier[1:m_modes + 1]
        assert np.abs(pde_final - traj[-1]).max() < 1e-6

    def test_decaying_mode_consistency(self):
        # subcritical coupling: modes relax toward uniform in both pictures
        m_modes = 32
        w = tm.log_gas(m_modes)
        q0 = tm.extremal(0.4, 0, 0.0, 256)
        tr = integrate(q0, w, 0.5, 0.3, dt=5e-5,
                       record=RecordPolicy("uniform", 3, snapshot_every=1))
        hier0 = stationary_coeffs(0.4, 1, m_modes).astype(complex)
        _, traj = integrate_hierarchy(hier0, 0.5, 0.3, dt=2e-5,
                                      record_every=10**6)
        pde_final = tr.snapshots[-1].fourier[1:m_modes + 1]
        assert np.abs(pde_final - traj[-1]).max() < 1e-6

    def test_moving_state_matches_pde(self):
        # off integer coupling the Poisson state moves: mode 1 falls by
        # about 0.35 by t = 0.3, and both pictures follow it
        m_modes = 64
        q0 = tm.extremal(0.5, 0, 0.0, 512)
        tr = integrate(q0, tm.log_gas(m_modes), 0.8, 0.3, dt=5e-5,
                       record=RecordPolicy("uniform", 3, snapshot_every=1))
        hier0 = stationary_coeffs(0.5, 1, m_modes).astype(complex)
        _, traj = integrate_hierarchy(hier0, 0.8, 0.3, dt=2e-5,
                                      record_every=10**6)
        assert np.abs(traj[-1] - hier0).max() > 0.3
        pde_final = tr.snapshots[-1].fourier[1:m_modes + 1]
        assert np.abs(pde_final - traj[-1]).max() < 1e-8
