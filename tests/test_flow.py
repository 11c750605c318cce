"""Gradient-flow integrator: exactness, dissipation, rates."""

import math
import time
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import torusmf as tm
from torusmf import density as dens
from torusmf import flow
from torusmf.density import fourier_to_grid, theta_grid, w2_circle, w2_rows
from torusmf.errors import BlowUp, DegenerateWindow, PositivityLoss
from torusmf.flow import (
    FlowTrace,
    RecordPolicy,
    _etd_tables,
    fit_rate,
    integrate,
)

import oracles


def _critical_flow(w):
    """The benchmark's critical flow: the rod kernel at K_# = 3 pi / 4 from
    q0 = 1 + 0.3 cos 4 pi theta, M = 128, to t = 20 with geometric
    records."""
    return integrate(tm.cosine_profile({2: 0.3}, 128), w, 3 * np.pi / 4,
                     20.0, dt=5e-4,
                     record=RecordPolicy("geometric", t0=0.05, factor=1.06),
                     stop_residual=0.0)


def _c10_flow_side(horizon):
    """C10's flow side: the rod kernel truncated at 128 at K = 1.2 K_#
    from q0 = 1 + 0.2 cos 4 pi theta, M = 512, with ten records."""
    return integrate(tm.cosine_profile({2: 0.2}, 512),
                     tm.doi_onsager(truncation=128), 1.2 * 3 * np.pi / 4,
                     horizon, dt=1e-4,
                     record=RecordPolicy("uniform", 10, snapshot_every=10**9),
                     track_modes=[2], stop_residual=0.0)


def _clipped_start_flow(w):
    """The rod kernel at K = K_# / 2 from q0 = max(0, cos 2 pi theta)
    normalised, M = 128, to t = 0.2 with 20 records: q0's zeros come back
    from the inverse transform as 16 values down to -4.4e-16, so the first
    record is clipped and renormalised."""
    q0 = tm.from_grid(np.maximum(0.0, np.cos(2 * np.pi * theta_grid(128))))
    return integrate(q0, w, 3 * np.pi / 8, 0.2, dt=1e-4,
                     record=RecordPolicy("uniform", 20, snapshot_every=3),
                     stop_residual=0.0)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


def _clustered_flow(w):
    """The rod kernel at K = 1.2 K_# from q0 = 1 + 0.3 cos 4 pi theta,
    M = 256, to t = 6 with 60 records: the state clusters by t = 1 and
    then stands still to rounding."""
    return integrate(tm.cosine_profile({2: 0.3}, 256), w,
                     1.2 * 3 * np.pi / 4, 6.0, dt=5e-5,
                     record=RecordPolicy("uniform", 60), stop_residual=0.0)


class TestStep:
    def test_uniform_stationary(self, do_kernel):
        q = tm.uniform(256)
        out = oracles.flow_step(q, do_kernel, 1.7, 1e-3)
        assert np.abs(out.grid_values - 1.0).max() < 1e-14

    def test_pure_heat_exact(self, do_kernel):
        dt = 1e-3
        q = tm.from_grid(1 + np.cos(2 * np.pi * theta_grid(256)))
        out = oracles.flow_step(q, do_kernel, 0.0, dt)
        expect = 1 + np.exp(-2 * np.pi**2 * dt) * np.cos(
            2 * np.pi * theta_grid(256))
        assert np.abs(out.grid_values - expect).max() < 1e-12

    def test_mass_exact(self, do_kernel):
        q = tm.extremal(0.6, 1, 0.0, 256)
        out = oracles.flow_step(q, do_kernel, 1.5, 1e-4)
        assert out.fourier[0] == 1.0

    def test_free_energy_dissipates(self, do_normalized):
        q = tm.from_grid(1 + 0.2 * np.cos(4 * np.pi * theta_grid(256)))
        coupling = 1.2
        f_prev = tm.free_energy(q, do_normalized, coupling)
        for _ in range(200):
            q = oracles.flow_step(q, do_normalized, coupling, 1e-4)
            f = tm.free_energy(q, do_normalized, coupling)
            assert f <= f_prev + 1e-9
            f_prev = f

    @pytest.mark.parametrize("m", [128, 512])
    def test_folded_transport_matches_the_public_transforms(self, do_kernel,
                                                            m):
        # the grid phase folded into the symbols rounds exactly as the
        # unfolded product: the same bits on random states and along a run
        coupling = 1.2 * 3 * np.pi / 4
        split = flow._Split(do_kernel, coupling, m)
        rng = np.random.default_rng(m)
        k = np.arange(m // 2 + 1)
        states = [tm.cosine_profile({2: 0.3}, m).fourier]
        for _ in range(20):
            qhat = (rng.standard_normal(len(k))
                    + 1j * rng.standard_normal(len(k))) * np.exp(-0.1 * k)
            qhat[0] = 1.0
            states.append(qhat)
        tables = _etd_tables(split.lin, 1e-3)
        qhat = states[0]
        n0 = split.rest(qhat)
        for _ in range(5):
            qhat, n0, _, _ = split.step(qhat, n0, tables)
            states.append(qhat)
        for qhat in states:
            assert np.array_equal(
                split.rest(qhat),
                oracles.unfolded_rest(qhat, do_kernel, coupling, m))

    def test_etd_tables_match_mpmath(self):
        # the series below |z| = 1, the recurrence above it, z = 0 and
        # strong damping, against 80-digit arithmetic
        lin = np.array([0.0, 1e-9, -3e-4, 0.9, -1.3, 1.6, 5.0, -40.0, -3e3])
        h = 0.7
        got = _etd_tables(lin, h)

        def phis(z):
            if z == 0:
                return 1, mpmath.mpf(1) / 2, mpmath.mpf(1) / 6
            phi1 = mpmath.expm1(z) / z
            phi2 = (phi1 - 1) / z
            return phi1, phi2, (phi2 - mpmath.mpf(1) / 2) / z

        with mpmath.workdps(80):
            for col, z in enumerate(lin * h):
                z = mpmath.mpf(z)
                phi1, phi2, phi3 = phis(z)
                phi1h, phi2h, _ = phis(z / 2)
                ref = [mpmath.exp(z / 2), mpmath.exp(z), h / 2 * phi1h,
                       h * phi1, h * phi2h, 2 * h * phi2,
                       h * (2 * phi2 - 4 * phi3), h * (4 * phi3 - phi2)]
                assert len(ref) == len(got)
                for row, r in enumerate(ref):
                    r = float(r)
                    assert abs(got[row, col] - r) <= 1e-14 * abs(r) + 1e-16

    def test_etd_tables_keep_the_formula_bits(self, do_kernel):
        # the one-array builder rounds each row as its formula does: on
        # ladder rungs, on the cut steps that land on the geometric record
        # times and their halves, for symbols with z = 0 (k = 0 and, at
        # K_#, the neutral mode k = 2), |z| < 1 and strong damping
        lins = [flow._Split(do_kernel, coupling, m).lin
                for coupling, m in ((3 * np.pi / 4, 128),
                                    (1.2 * 3 * np.pi / 4, 256))]
        lins.append(np.array([0.0, 1e-9, -3e-4, 0.9, -1.3, 1.6, 5.0, -40.0,
                              -3e3]))
        assert lins[0][2] == 0.0
        rungs = 2.0 ** (np.arange(-17 * flow.STEP_LADDER, 1, 5)
                        / flow.STEP_LADDER)
        gaps = np.diff(RecordPolicy("geometric", t0=0.05,
                                    factor=1.06).times(20.0))
        for lin in lins:
            small = 0
            for h in [*rungs, *gaps, *(0.5 * gaps), 1e-4, 3e-3, 7e-2]:
                got = _etd_tables(lin, h)
                assert np.array_equal(got, oracles.etd_tables(lin, h))
                small += np.count_nonzero(np.abs(lin * h) < 1.0)
            assert small > 0

    def test_stable_share_admits_only_stable_steps(self):
        # at L = 0 the step is classical RK4 on y' = lambda y, z = h lambda:
        # change R(z) - 1 with R the degree-4 Taylor polynomial of e^z, and
        # estimate z^4 (z - 2) / 144.  Every unstable step with Re z <= 0
        # must have a share of at least STABLE_SHARE, so that the bound
        # rejects it; the share's infimum there is 0.82, near
        # z = -1.66 +- 2.06 i, and it grows like |z| / 6 far out
        def share(z):
            change = z + z**2 / 2 + z**3 / 6 + z**4 / 24
            return np.abs(z**4 * (z - 2) / 144) / np.abs(change), change + 1

        x, y = np.meshgrid(np.linspace(-12.0, 0.0, 601),
                           np.linspace(-12.0, 12.0, 1200))
        ratio, amp = share(x + 1j * y)
        unstable = np.abs(amp) > 1.0
        assert unstable.sum() > 10**5
        assert ratio[unstable].min() > flow.STABLE_SHARE
        assert 0.8 < ratio[unstable].min() < 0.85

        # the step itself gives the same change and estimate
        tables = _etd_tables(np.zeros(2), 1.0)
        for z in (-1.66 + 2.06j, -2.9, 0.3j, -0.5 - 3.1j, -7.0 + 1.0j):
            # mode 1 carries y; mode 0 is the mass, which N leaves alone
            linear = SimpleNamespace(rest=lambda q, z=z: z * q * [0.0, 1.0])
            out, n_out, change, err = flow._Split.step(
                linear, np.ones(2, complex), linear.rest(np.ones(2)), tables)
            ratio, amp = share(z)
            assert abs(out[1] - amp) <= 1e-14 * abs(amp)
            assert n_out[1] == z * out[1]
            assert abs(err / change - ratio) <= 1e-12 * ratio

    @staticmethod
    def _poison(monkeypatch, calls):
        """Make the transport evaluations numbered in ``calls`` (from 1,
        the initial state's) non-finite."""
        real, count = flow._Split.rest, []

        def poisoned(split, qhat):
            count.append(None)
            return real(split, qhat) * (np.inf if len(count) in calls
                                        else 1.0)

        monkeypatch.setattr(flow._Split, "rest", poisoned)

    def test_nonfinite_stage_is_rejected(self, do_kernel, monkeypatch):
        # evaluations 2-5 are the first step's stages a, b, c and its new
        # state; 6 is the half-step stage a of the second step: that step
        # is redone smaller, and the run goes on
        self._poison(monkeypatch, {6})
        with np.errstate(invalid="ignore"):
            tr = integrate(tm.cosine_profile({2: 0.2}, 256), do_kernel,
                           3 * np.pi / 8, 0.05, dt=1e-4,
                           record=RecordPolicy("uniform", 5),
                           stop_residual=0.0)
        assert tr.meta["rejected"] == 1
        assert tr.times[-1] == 0.05
        assert np.all(np.isfinite(tr.l2)) and np.all(np.isfinite(tr.w2))

    def test_nonfinite_velocity_blows_up(self, do_kernel, monkeypatch):
        # from evaluation 5 on, the transport of the first step's new state
        # and every later one is non-finite: every retry fails, and the
        # step falls below 1e-14 of the horizon
        self._poison(monkeypatch, range(5, 10**6))
        with pytest.raises(BlowUp), np.errstate(invalid="ignore"):
            integrate(tm.cosine_profile({2: 0.2}, 256), do_kernel,
                      3 * np.pi / 8, 0.05, dt=1e-4,
                      record=RecordPolicy("uniform", 5), stop_residual=0.0)

    def test_lost_positivity_raises_after_the_run(self, do_kernel,
                                                  monkeypatch):
        # the first step's new state is accepted with a mode-1 cosine of
        # amplitude 4 added: mode 1 is inactive for this kernel and decays
        # like exp(-2 pi^2 t), so the record at t = 0.01 is negative far
        # beyond CLIP_TOL; the run still reaches all six records, and the
        # record pass raises
        real, calls, records = flow._Split.step, [], []

        def poisoned(split, qhat, n0, tables):
            out, n_out, change, err = real(split, qhat, n0, tables)
            calls.append(None)
            if len(calls) == 1:
                out[1] += 2.0
                err = 0.0
            return out, n_out, change, err

        def residual(split, qhat, nq):
            records.append(None)
            return 1.0

        monkeypatch.setattr(flow._Split, "step", poisoned)
        monkeypatch.setattr(flow._Split, "residual", residual)
        with pytest.raises(PositivityLoss):
            integrate(tm.cosine_profile({2: 0.2}, 256), do_kernel,
                      3 * np.pi / 8, 0.05, dt=1e-4,
                      record=RecordPolicy("uniform", 5), stop_residual=0.0)
        assert len(records) == 6


class TestRecordPass:
    """``integrate`` evaluates its records' observables once, on the
    stacked record states, after the run."""

    @pytest.mark.parametrize("run, kernel, block", [
        (_critical_flow, tm.doi_onsager, flow.RECORD_BLOCK),
        # 11 blocks of 10 records, the last of 5, across the snapshots
        (_critical_flow, tm.doi_onsager, 10 * 128),
        (lambda w: _c10_flow_side(5.0),
         lambda: tm.doi_onsager(truncation=128), flow.RECORD_BLOCK),
        (_clipped_start_flow, tm.doi_onsager, flow.RECORD_BLOCK),
    ], ids=["critical", "critical_in_blocks", "c10_flow_side",
            "clipped_start"])
    def test_records_match_the_single_density_functions(self, run, kernel,
                                                        block, monkeypatch):
        # each record rebuilt alone from the state that the stationarity
        # check saw, with the single-density functions, gives the trace's
        # bits
        real, states = flow._Split.residual, []

        def logged(split, qhat, nq):
            states.append(qhat.copy())
            return real(split, qhat, nq)

        monkeypatch.setattr(flow._Split, "residual", logged)
        monkeypatch.setattr(flow, "RECORD_BLOCK", block)
        w = kernel()
        tr = run(w)
        m, coupling = tr.meta["grid_size"], tr.meta["coupling"]
        qs = [tm.density.from_fourier(qhat, m) for qhat in states]
        assert len(qs) == len(tr.times)
        l2 = [np.sqrt(((q.grid_values - 1.0) ** 2).mean()) for q in qs]
        assert _same_bits(tr.l2, l2)
        assert _same_bits(tr.w2, [w2_circle(q) for q in qs])
        assert _same_bits(tr.free_energy,
                          [tm.free_energy(q, w, coupling) for q in qs])
        assert _same_bits(tr.mass_defect,
                          [abs(qhat[0].real - 1.0) for qhat in states])
        for k, amps in tr.mode_abs.items():
            assert _same_bits(amps, [q.order_parameter(k) for q in qs])
        for t, snap in zip(tr.snapshot_times, tr.snapshots):
            q = qs[tr.times.tolist().index(t)]
            assert _same_bits(snap.grid_values, q.grid_values)
            assert _same_bits(snap.fourier, q.fourier)

    def test_a_row_of_a_stack_matches_the_single_density_call(self, do_kernel,
                                                              rng):
        # rows of a stack, and a one-row stack, against the 1-D calls
        m = 64
        noise = rng.normal(0.0, 0.3, (4, m))
        qs = [tm.from_grid(np.exp(row)) for row in noise]
        qs.append(tm.from_grid(np.maximum(0.0, np.cos(
            2 * np.pi * theta_grid(m)))))  # from_fourier clips this one
        raw = np.stack([q.fourier for q in qs])
        raw[1] *= 1.0 + 1e-14  # off unit mass: renormalised
        for rows in (raw, raw[:1]):
            values, spectra = dens.from_fourier_rows(rows, m)
            energies = dens.free_energy_rows(values, spectra, do_kernel, 1.3)
            w2s = w2_rows(values)
            for i, qhat in enumerate(rows):
                q = dens.from_fourier(qhat, m)
                assert _same_bits(values[i], q.grid_values)
                assert _same_bits(spectra[i], q.fourier)
                assert _same_bits(energies[i],
                                  tm.free_energy(q, do_kernel, 1.3))
                assert _same_bits(w2s[i], w2_circle(q))
                for k in (1, 2, m // 2):
                    assert _same_bits(dens.mode_amplitude(spectra, k)[i],
                                      q.order_parameter(k))

    def test_critical_flow_transforms_its_records_once(self, do_kernel,
                                                       monkeypatch):
        # one inverse transform a state check (every 200 steps) and one a
        # block of records (64 at M = 128, so two for the 105), not one a
        # record
        real, calls = dens.fourier_to_grid, []

        def counted(fourier, m):
            calls.append(fourier.shape)
            return real(fourier, m)

        monkeypatch.setattr(dens, "fourier_to_grid", counted)
        monkeypatch.setattr(flow, "fourier_to_grid", counted)
        tr = _critical_flow(do_kernel)
        assert len(tr.times) == 105
        assert len(calls) <= tr.meta["steps"] // 200 + 2


class TestResidual:
    def test_uniform_zero(self, do_kernel):
        q = tm.uniform(256)
        assert oracles.stationarity_residual(q, do_kernel, 1.3) < 1e-13

    def test_converged_critical_point_is_stationary(self, do_normalized):
        rep = tm.solve_fixed_point(
            do_normalized, 1.2,
            tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512))),
            tol=1e-12,
        )
        # fixed points of the self-consistency map are flow equilibria
        r = oracles.stationarity_residual(rep.density, do_normalized, 1.2)
        assert r < 1e-8

    def test_heat_only_residual_positive(self, do_kernel):
        q = tm.from_grid(1 + 0.5 * np.cos(2 * np.pi * theta_grid(256)))
        # mode 1 is inactive for this kernel: pure diffusion acts
        r = oracles.stationarity_residual(q, do_kernel, 1.0)
        expect = 2 * np.pi**2 * 0.25 * np.sqrt(2)  # |L qhat(1)| both signs
        assert abs(r - expect) / expect < 1e-10


class TestRecordPolicy:
    # with factor <= 1 or t0 <= 0 times() never reaches the horizon;
    # n_records = 0 ends integrate at t = 0, snapshot_every = 0 divides
    # by zero in it
    @pytest.mark.parametrize("fields", [
        {"kind": "log"},
        {"kind": "geometric", "t0": 0.05, "factor": 1.0},
        {"kind": "geometric", "factor": 0.9},
        {"kind": "geometric", "t0": 0.0},
        {"kind": "geometric", "t0": -1.0},
        {"kind": "uniform", "n_records": 0},
        {"snapshot_every": 0},
    ], ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()))
    def test_rejects_an_invalid_field(self, fields):
        with pytest.raises(ValueError):
            RecordPolicy(**fields)


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
        shift = (np.angle(q.fourier[k])
                 - np.angle(best.density.fourier[k])) / (2 * np.pi * k)
        aligned = oracles.shift(best.density, -shift)
        d = q.grid_values - aligned.grid_values
        assert np.sqrt((d * d).mean()) < 1e-6

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

    def test_dt_refinement_order(self, do_kernel):
        coupling = 1.1 * 3 * np.pi / 4
        q0 = tm.from_grid(1 + 0.2 * np.cos(4 * np.pi * theta_grid(256)))
        finals = []
        for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            q = q0
            for _ in range(int(round(0.5 / dt))):
                q = oracles.flow_step(q, do_kernel, coupling, dt)
            finals.append(q.grid_values)
        diffs = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
        # steps this large keep the differences far above rounding: they
        # fall about tenfold a halving (2.8e-5, 2.8e-6, 2.8e-7), and a
        # factor of 8 is third order, which no lower-order step reaches
        assert diffs[0] / diffs[1] >= 8.0
        assert diffs[1] / diffs[2] >= 8.0

    def test_subcritical_run_rejects_no_step(self, do_kernel):
        q0 = tm.cosine_profile({2: 0.2}, 256)
        tr = integrate(q0, do_kernel, 3 * np.pi / 8, 0.05, dt=1e-4,
                       record=RecordPolicy("uniform", 5), stop_residual=0.0)
        meta = tr.meta
        assert meta["rejected"] == 0
        assert meta["dt"] == 1e-4
        assert 0.0 < meta["step_min"] <= meta["step_max"]
        # the accepted steps fill the horizon
        assert 0.05 / meta["step_max"] <= meta["steps"] <= 0.05 / meta["step_min"]

    @pytest.mark.parametrize("horizon, dt, record", [
        (0.055, 1e-2, RecordPolicy("uniform", 200)),
        (1.0, 0.1, RecordPolicy("geometric", t0=0.05, factor=1.5)),
        # the CLI's geometric policy for --records 7, whose last product
        # falls 3e-16 short of the horizon
        (1.0, 1e-3, RecordPolicy("geometric", t0=0.01,
                                 factor=(1.0 / 0.01) ** (1 / 7))),
    ])
    def test_records_land_on_the_policy_times(self, do_kernel, horizon, dt,
                                              record):
        q0 = tm.cosine_profile({2: 0.2}, 128)
        tr = integrate(q0, do_kernel, 3 * np.pi / 8, horizon, dt=dt,
                       record=record, stop_residual=0.0)
        assert tr.times.tolist() == np.unique(record.times(horizon)).tolist()
        assert tr.times[-1] == horizon
        assert tr.meta["step_min"] > 1e-9  # no sliver step between records

    @pytest.mark.parametrize("m, tracked", [(4, [2]), (8, [2, 4]),
                                            (16, [2, 4, 6, 8])])
    def test_default_modes_stop_at_half_the_grid(self, do_kernel, m,
                                                 tracked):
        tr = integrate(tm.cosine_profile({2: 0.01}, m), do_kernel, 1.0,
                       0.01, record=RecordPolicy("uniform", 2))
        assert sorted(tr.mode_abs) == tracked
        assert all(len(a) == len(tr.times) for a in tr.mode_abs.values())

    @pytest.mark.parametrize("modes", [[2, 6], [-5]])
    def test_tracked_mode_past_half_the_grid_rejected(self, do_kernel,
                                                      modes, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("integrate stepped before checking modes")

        monkeypatch.setattr(flow, "_Split", unreachable)
        with pytest.raises(ValueError, match="track_modes"):
            integrate(tm.cosine_profile({2: 0.01}, 8), do_kernel, 1.0, 0.01,
                      track_modes=modes)

    def test_c10_flow_side_matches_a_fine_fixed_step_run(self):
        # the flow side of the scaled-down C10 check agrees with the
        # oracle's BDF solve, which lies 1.4e-11 from a fixed 2.5e-5 run
        # of an explicit-transport ETD2 scheme
        w = tm.doi_onsager(truncation=128)
        q0 = tm.cosine_profile({2: 0.2}, 512)
        coupling = 1.2 * 3 * np.pi / 4
        record = RecordPolicy("uniform", 10, snapshot_every=10**9)
        tr = integrate(q0, w, coupling, 0.5, dt=1e-4, record=record,
                       track_modes=[2], stop_residual=0.0)
        assert tr.meta["steps"] <= 1200
        np.testing.assert_allclose(tr.times, np.linspace(0.0, 0.5, 11))
        ref = oracles.bdf_flow(q0, w, coupling, 0.5)
        assert abs(tr.mode_abs[2][-1] ** 2
                   - ref.order_parameter(2) ** 2) < 1e-9

    def test_steps_grow_past_the_cfl_bound(self):
        # the exponential damps the explicit transport, so accuracy alone
        # sets the step: on the way to the clustered state it grows well
        # past the transport CFL bound, with no rejected step
        w = tm.doi_onsager(truncation=128)
        coupling, m = 1.2 * 3 * np.pi / 4, 512
        tr = integrate(tm.cosine_profile({2: 0.2}, m), w, coupling, 0.2,
                       dt=1e-4, record=RecordPolicy("uniform", 4),
                       stop_residual=0.0)
        q = tr.snapshots[-1]
        velocity = fourier_to_grid(
            q.fourier * oracles.transport_symbols(w, coupling, m)[1], m)
        cfl_bound = oracles.CFL_SAFETY / (m * np.abs(velocity).max())
        assert tr.meta["step_max"] > 5.0 * cfl_bound
        assert tr.meta["rejected"] == 0
        assert np.all(np.diff(tr.free_energy) <= 1e-12)

    def test_critical_flow_step_and_table_counts(self, do_kernel,
                                                 monkeypatch):
        # the benchmark's critical flow: every step is bound by STEP_TOL,
        # and the run takes 1,066 steps and builds 161 tables; ``tables``
        # counts the builds
        real, builds = flow._etd_tables, []

        def counted(lin, h):
            builds.append(h)
            return real(lin, h)

        monkeypatch.setattr(flow, "_etd_tables", counted)
        tr = _critical_flow(do_kernel)
        assert tr.meta["tables"] == len(builds)
        assert tr.meta["steps"] <= 1080
        assert tr.meta["tables"] <= 170

    @pytest.mark.parametrize("run, tables", [
        (lambda w: _c10_flow_side(5.0), 100),
        (_clustered_flow, 120),
    ], ids=["c10_flow_side", "clustered"])
    def test_clustered_state_rejects_few_steps(self, do_kernel, run, tables):
        # once the state stands still, a step's change and error estimate
        # are rounding and their ratio is noise, which must not reject
        # trial steps at random (each wastes four transports) nor make the
        # run rebuild the tables of sizes it keeps coming back to
        meta = run(do_kernel).meta
        assert meta["rejected"] <= 0.04 * (meta["steps"] + meta["rejected"])
        assert meta["tables"] <= tables

    def test_clustered_flow_matches_the_bdf_oracle(self, do_kernel):
        # where the controller changes most: in the transient at t = 0.5
        # (mode 2 measured 2.4e-10 off) and at the clustered state the
        # run stands at from t = 1 on (4.0e-13 off in the sup norm)
        q0, coupling = tm.cosine_profile({2: 0.3}, 256), 1.2 * 3 * np.pi / 4
        tr = _clustered_flow(do_kernel)
        mid = oracles.bdf_flow(q0, do_kernel, coupling, 0.5)
        i = tr.times.tolist().index(0.5)
        assert abs(tr.mode_abs[2][i] - mid.order_parameter(2)) < 2e-9
        end = oracles.bdf_flow(q0, do_kernel, coupling, 6.0)
        assert tr.snapshot_times[-1] == 6.0
        assert np.abs(tr.snapshots[-1].grid_values
                      - end.grid_values).max() < 1e-11

    def test_records_are_reached_in_at_most_two_even_cut_steps(
            self, do_kernel, monkeypatch):
        # a cut step lies off the ladder 2^(j / STEP_LADDER); a record is
        # reached by ladder steps and then one cut step, or two of the
        # same size, on the benchmark's critical flow
        real, calls = flow._Split.step, []

        def logged(split, qhat, n0, tables):
            result = real(split, qhat, n0, tables)
            calls.append((qhat, tables[3, 0].real, result[0]))  # h phi1(0)
            return result

        monkeypatch.setattr(flow._Split, "step", logged)
        tr = _critical_flow(do_kernel)
        # a step is accepted when the next one starts from its new state
        starts = [qhat for qhat, _, _ in calls[1:]] + [calls[-1][2]]
        taken = [h for (_, h, out), nxt in zip(calls, starts) if nxt is out]
        assert len(taken) == tr.meta["steps"]
        t, cuts, lands = 0.0, [], iter(tr.times[1:])
        t_next = next(lands)
        for h in taken:
            rung = flow.STEP_LADDER * np.log2(h)
            if abs(rung - round(rung)) > 1e-6:
                cuts.append(h)
            t += h
            if t >= t_next * (1.0 - 1e-12):
                assert len(cuts) <= 2 and len(set(cuts)) <= 1
                t, cuts = t_next, []
                t_next = next(lands, math.inf)
        assert t == tr.times[-1] and t_next == math.inf

    def test_critical_flow_matches_a_fine_fixed_step_run(self, do_kernel):
        # the benchmark's critical flow: W2 at t = 20 against the oracle's
        # BDF solve, which lies 3.1e-10 (1e-7 relative) from the Richardson
        # extrapolation of fixed ETD2 runs at dt = 2.5e-4 and 1.25e-4, and
        # 5.9e-12 from its own solve at rtol 1e-10
        m = 128
        q0 = tm.cosine_profile({2: 0.3}, m)
        tr = _critical_flow(do_kernel)
        ref = w2_circle(oracles.bdf_flow(q0, do_kernel, 3 * np.pi / 4,
                                            20.0))
        assert tr.meta["steps"] <= 1500
        assert abs(tr.w2[-1] - ref) < 5e-5 * ref

    def test_rod_c11_setting_is_cheap(self, do_kernel):
        t0 = time.perf_counter()
        tr = integrate(tm.cosine_profile({2: 0.3}, 128), do_kernel,
                       3 * np.pi / 4, 400.0, dt=5e-4,
                       record=RecordPolicy("geometric", t0=0.05, factor=1.06),
                       stop_residual=0.0)
        elapsed = time.perf_counter() - t0
        fit = fit_rate(tr, "algebraic")
        assert tr.meta["steps"] <= 100_000
        assert elapsed <= 30.0
        assert -0.6 <= fit.rate <= -0.4

    def test_attention_c11_setting_is_cheap(self):
        # C11's tricritical attention run; the work counter, not the wall
        # time, since the host runs at two speeds
        wt = tm.transformer(tm.beta_star())
        ks, _ = tm.k_sharp(wt)
        tr = integrate(tm.cosine_profile({1: 0.4}, 128), wt, ks, 2000.0,
                       dt=1e-3,
                       record=RecordPolicy("geometric", t0=0.05, factor=1.06),
                       stop_residual=0.0)
        fit = fit_rate(tr, "algebraic")
        assert tr.meta["steps"] <= 20_000
        assert abs(fit.rate - (-0.22885)) < 1e-3


class TestFitRate:
    def test_synthetic_exponential_exact(self):
        t = np.linspace(0, 5, 120)
        tr = FlowTrace(times=t, l2=np.exp(-3 * t), w2=np.exp(-3 * t),
                       mode_abs={}, free_energy=np.zeros_like(t),
                       mass_defect=np.zeros_like(t))
        fit = fit_rate(tr, "exponential")
        assert abs(fit.rate - 3.0) < 1e-6
        assert fit.goodness > 0.999999

    def test_synthetic_algebraic_exact(self):
        t = np.geomspace(0.1, 100, 80)
        tr = FlowTrace(times=t, l2=t**-0.5, w2=t**-0.5,
                       mode_abs={}, free_energy=np.zeros_like(t),
                       mass_defect=np.zeros_like(t))
        fit = fit_rate(tr, "algebraic")
        assert abs(fit.rate + 0.5) < 1e-8

    def test_subcritical_w2_rate_matches_gap(self, do_kernel):
        coupling = 3 * np.pi / 8
        q0 = tm.from_grid(1 + 0.01 * np.cos(4 * np.pi * theta_grid(256)))
        tr = integrate(q0, do_kernel, coupling, 0.7, dt=1e-4,
                       record=RecordPolicy("uniform", 350),
                       stop_residual=1e-13)
        fit = fit_rate(tr, "exponential")
        lam = tm.lambda_star(do_kernel, coupling)
        assert abs(fit.rate - lam.rate) / lam.rate < 0.05

    def test_degenerate_window(self):
        t = np.linspace(0, 1, 10)
        tr = FlowTrace(times=t, l2=np.exp(-t), w2=np.exp(-t), mode_abs={},
                       free_energy=np.zeros_like(t),
                       mass_defect=np.zeros_like(t))
        with pytest.raises(DegenerateWindow):
            fit_rate(tr, "exponential")
