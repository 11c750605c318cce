"""Gradient-flow integrator: exactness, dissipation, rates."""

import numpy as np
import pytest

import torusmf as tm
from torusmf.density import theta_grid
from torusmf.errors import BlowUp, DegenerateWindow, TimeStepTooLarge
from torusmf.flow import (
    FlowTrace,
    RecordPolicy,
    _transport_hat,
    _velocity_symbol,
    fit_rate,
    integrate,
    mv_step,
    stationarity_residual,
)


class TestStep:
    def test_uniform_stationary(self, do_kernel):
        q = tm.uniform(256)
        out = mv_step(q, do_kernel, 1.7, 1e-3)
        assert np.abs(out.grid_values - 1.0).max() < 1e-14

    def test_pure_heat_exact(self, do_kernel):
        dt = 1e-3
        q = tm.from_grid(1 + np.cos(2 * np.pi * theta_grid(256)))
        out = mv_step(q, do_kernel, 0.0, dt)
        expect = 1 + np.exp(-2 * np.pi**2 * dt) * np.cos(
            2 * np.pi * theta_grid(256))
        assert np.abs(out.grid_values - expect).max() < 1e-12

    def test_mass_exact(self, do_kernel):
        q = tm.extremal(0.6, 1, 0.0, 256)
        out = mv_step(q, do_kernel, 1.5, 1e-4)
        assert out.fourier[0] == 1.0

    def test_free_energy_dissipates(self, do_normalized):
        q = tm.from_grid(1 + 0.2 * np.cos(4 * np.pi * theta_grid(256)))
        coupling = 1.2
        f_prev = tm.free_energy(q, do_normalized, coupling)
        for _ in range(200):
            q = mv_step(q, do_normalized, coupling, 1e-4)
            f = tm.free_energy(q, do_normalized, coupling)
            assert f <= f_prev + 1e-9
            f_prev = f

    def test_cfl_guard(self, do_kernel):
        q = tm.extremal(0.9, 1, 0.0, 256)
        with pytest.raises(TimeStepTooLarge):
            mv_step(q, do_kernel, 5.0, 1e-2)

    def test_nonfinite_velocity_blows_up(self, do_kernel):
        # an infinite velocity gives a CFL bound of 0, which no split meets
        m = 256
        qhat = tm.cosine_profile({2: 0.2}, m).fourier.copy()
        qhat[2] = np.inf
        with pytest.raises(BlowUp), np.errstate(invalid="ignore"):
            _transport_hat(qhat, _velocity_symbol(do_kernel, m), 1.0, m, 1e-4)


class TestResidual:
    def test_uniform_zero(self, do_kernel):
        assert stationarity_residual(tm.uniform(256), do_kernel, 1.3) < 1e-13

    def test_converged_critical_point_is_stationary(self, do_normalized):
        rep = tm.solve_fixed_point(
            do_normalized, 1.2,
            tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512))),
            tol=1e-12,
        )
        # fixed points of the self-consistency map are flow equilibria
        assert stationarity_residual(rep.density, do_normalized, 1.2) < 1e-8

    def test_heat_only_residual_positive(self, do_kernel):
        q = tm.from_grid(1 + 0.5 * np.cos(2 * np.pi * theta_grid(256)))
        # mode 1 is inactive for this kernel: pure diffusion acts
        r = stationarity_residual(q, do_kernel, 1.0)
        expect = 2 * np.pi**2 * 0.25 * np.sqrt(2)  # |L qhat(1)| both signs
        assert abs(r - expect) / expect < 1e-10


class TestIntegrate:
    def test_subcritical_relaxes_to_uniform(self, do_kernel):
        q0 = tm.from_grid(1 + 0.1 * np.cos(4 * np.pi * theta_grid(256)))
        tr = integrate(q0, do_kernel, 3 * np.pi / 8, 2.0, dt=1e-4,
                       record=RecordPolicy("uniform", 50))
        assert tr.mode_abs[2][-1] < 1e-8
        assert tr.mass_defect.max() <= 1e-11
        assert np.all(np.diff(tr.free_energy) <= 1e-9)

    def test_zero_coupling_any_start(self, do_kernel, rng):
        vals = np.exp(rng.normal(0, 0.3, 256))
        q0 = tm.from_grid(vals / vals.mean())
        tr = integrate(q0, do_kernel, 0.0, 1.5, dt=1e-4,
                       record=RecordPolicy("uniform", 30))
        assert tr.l2[-1] < 1e-6

    def test_supercritical_matches_minimizer(self, do_kernel):
        coupling = 1.2 * 3 * np.pi / 4
        q0 = tm.from_grid(1 + 0.3 * np.cos(4 * np.pi * theta_grid(256)))
        tr = integrate(q0, do_kernel, coupling, 6.0, dt=5e-5,
                       record=RecordPolicy("uniform", 60),
                       stop_residual=1e-10)
        assert tr.terminated_early
        best, _ = tm.find_minimizer(do_kernel, coupling, m=256)
        q = tr.snapshots[-1]
        # align phases before comparing (the orbit is a circle of states)
        k = 2
        shift = (np.angle(q.coeff(k)) - np.angle(best.density.coeff(k))) / (
            2 * np.pi * k)
        aligned = best.density.shift(-shift)
        assert tm.distance(q, aligned, "L2") < 1e-6

    def test_linearized_mode_rate(self, do_kernel):
        coupling = 3 * np.pi / 8
        eps = 1e-4
        q0 = tm.from_grid(1 + eps * np.cos(4 * np.pi * theta_grid(256)))
        tr = integrate(q0, do_kernel, coupling, 0.1, dt=1e-5,
                       record=RecordPolicy("uniform", 100))
        amp = tr.mode_abs[2]
        rate = -(np.log(amp[-1]) - np.log(amp[0])) / (tr.times[-1] - tr.times[0])
        lam = tm.lambda_star(do_kernel, coupling)
        assert abs(rate - lam.rate) / lam.rate < 0.01

    def test_dt_refinement_second_order(self, do_kernel):
        coupling = 1.1 * 3 * np.pi / 4
        q0 = tm.from_grid(1 + 0.2 * np.cos(4 * np.pi * theta_grid(256)))
        finals = []
        for dt in (1e-4, 5e-5, 2.5e-5):
            tr = integrate(q0, do_kernel, coupling, 0.5, dt=dt,
                           record=RecordPolicy("uniform", 2,
                                               snapshot_every=1))
            finals.append(tr.snapshots[-1].grid_values)
        e1 = np.abs(finals[0] - finals[2]).max()
        e2 = np.abs(finals[1] - finals[2]).max()
        # halving dt should cut the error by about 4 (second order, with
        # Richardson slack since the reference is the finest grid)
        assert e2 < e1 / 2.5

    def test_below_the_bound_takes_one_step_per_dt(self, do_kernel):
        q0 = tm.cosine_profile({2: 0.2}, 256)
        tr = integrate(q0, do_kernel, 3 * np.pi / 8, 0.05, dt=1e-4,
                       record=RecordPolicy("uniform", 5), stop_residual=0.0)
        assert tr.meta["substeps"] == 1
        assert tr.meta["steps"] == 500

    def test_step_split_at_the_cfl_bound(self):
        # the flow side of the scaled-down C10 check: dt = 1e-4 breaks the
        # CFL bound at t = 0.065 and 5e-5 at t = 0.137, so the run ends on
        # quarter steps and agrees with a fixed 2.5e-5 run from t = 0
        w = tm.doi_onsager(truncation=128)
        q0 = tm.cosine_profile({2: 0.2}, 512)
        coupling = 1.2 * 3 * np.pi / 4
        record = RecordPolicy("uniform", 10, snapshot_every=10**9)
        split, fixed = (integrate(q0, w, coupling, 0.5, dt=dt, record=record,
                                  track_modes=[2], stop_residual=0.0)
                        for dt in (1e-4, 2.5e-5))
        assert split.meta["substeps"] == 4
        assert fixed.meta["substeps"] == 1
        assert split.meta["steps"] < fixed.meta["steps"]
        np.testing.assert_allclose(split.times, np.linspace(0.0, 0.5, 11))
        assert abs(split.mode_abs[2][-1] ** 2
                   - fixed.mode_abs[2][-1] ** 2) < 1e-9


class TestFitRate:
    def test_synthetic_exponential_exact(self):
        t = np.linspace(0, 5, 120)
        tr = FlowTrace(times=t, l2=np.exp(-3 * t), w2=np.exp(-3 * t),
                       mode_abs={}, free_energy=np.zeros_like(t),
                       mass_defect=np.zeros_like(t))
        fit = fit_rate(tr, "w2", "exponential")
        assert abs(fit.rate - 3.0) < 1e-6
        assert fit.goodness > 0.999999

    def test_synthetic_algebraic_exact(self):
        t = np.geomspace(0.1, 100, 80)
        tr = FlowTrace(times=t, l2=t**-0.5, w2=t**-0.5,
                       mode_abs={}, free_energy=np.zeros_like(t),
                       mass_defect=np.zeros_like(t))
        fit = fit_rate(tr, "w2", "algebraic")
        assert abs(fit.rate + 0.5) < 1e-8

    def test_subcritical_w2_rate_matches_gap(self, do_kernel):
        coupling = 3 * np.pi / 8
        q0 = tm.from_grid(1 + 0.01 * np.cos(4 * np.pi * theta_grid(256)))
        tr = integrate(q0, do_kernel, coupling, 0.7, dt=1e-4,
                       record=RecordPolicy("uniform", 350),
                       stop_residual=1e-13)
        fit = fit_rate(tr, "w2", "exponential")
        lam = tm.lambda_star(do_kernel, coupling)
        assert abs(fit.rate - lam.rate) / lam.rate < 0.05

    def test_degenerate_window(self):
        t = np.linspace(0, 1, 10)
        tr = FlowTrace(times=t, l2=np.exp(-t), w2=np.exp(-t), mode_abs={},
                       free_energy=np.zeros_like(t),
                       mass_defect=np.zeros_like(t))
        with pytest.raises(DegenerateWindow):
            fit_rate(tr, "w2", "exponential")
