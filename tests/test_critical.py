"""Fixed-point solver, stability quantities, and the scanner internals."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import torusmf as tm
from torusmf import critical
from torusmf.critical import (_best_gap, _gibbs, _lu_solve, _map_exponent,
                              _scan_row, multistart, standard_seeds)
from torusmf.density import (fourier_to_grid, free_energy, grid_to_fourier,
                             kernel_spectrum, theta_grid)
from torusmf.errors import BracketNotStraddling, ExpOverflow

from oracles import anderson_fixed_point, picard_fixed_point


def _check_witness_rows(w, tol_K, seeds, tol_F=1e-10):
    """Scan, then re-solve every row: a witness row's last seed stopped at
    a density below -tol_F, and the full multistart there agrees that the
    coupling is supercritical; every other row is the full multistart's."""
    pd = tm.scan_kc(w, m=512, tol_K=tol_K, tol_F=tol_F, seeds=seeds)
    assert any(r.witness for r in pd.rows)
    for row in pd.rows:
        full = multistart(w, row.coupling, 512, seeds, tol=1e-11)
        if not row.witness:
            assert row == _scan_row(row.coupling, full)
            continue
        reports = multistart(w, row.coupling, 512, seeds, tol=1e-11,
                             stop_below=-tol_F)
        assert row == _scan_row(row.coupling, reports)
        rep = reports[-1]
        assert rep.witness and not rep.converged
        assert not any(r.witness for r in reports[:-1])
        assert free_energy(rep.density, w, row.coupling) == rep.free_energy
        assert rep.free_energy < -tol_F
        assert _best_gap(full)[0] > tol_F


class TestKmMap:
    """The self-consistency map T(q) = e^{2K W*q} / Z, as the solver's
    first map application."""

    def test_uniform_fixed_for_any_coupling(self, do_kernel):
        q = tm.uniform(256)
        for coupling in (0.0, 1.0, 5.0):
            out = tm.solve_fixed_point(do_kernel, coupling, q,
                                       max_iter=1).density
            assert np.abs(out.grid_values - 1.0).max() < 1e-14

    def test_zero_coupling_maps_to_uniform(self, do_kernel, rng):
        vals = np.exp(rng.normal(0, 0.4, 256))
        q = tm.from_grid(vals / vals.mean())
        out = tm.solve_fixed_point(do_kernel, 0.0, q, max_iter=1).density
        assert np.abs(out.grid_values - 1.0).max() < 1e-14

    @pytest.mark.parametrize("c", [0.2, 0.5])
    def test_log_gas_family_fixed(self, c):
        w = tm.log_gas(64)
        q = tm.extremal(c, 0, 0.0, 512)
        out = tm.solve_fixed_point(w, 1.0, q, max_iter=1).density
        assert np.abs(out.grid_values - q.grid_values).max() < 1e-8

    def test_output_positive(self, do_kernel):
        q = tm.extremal(0.9, 1, 0.0, 256)
        out = tm.solve_fixed_point(do_kernel, 2.0, q, max_iter=1).density
        assert out.grid_values.min() > 0.0

    def test_exp_overflow(self):
        w = tm.custom_potential([400.0])
        q = tm.from_grid(1 + 0.9 * np.cos(2 * np.pi * theta_grid(256)))
        with pytest.raises(ExpOverflow):
            tm.solve_fixed_point(w, 2.0, q, max_iter=1)


class TestMapKernels:
    """The solver's map runs on raw real-FFT spectra and calls numpy's LU
    gufunc directly; both give the bits of the public routes."""

    @pytest.mark.parametrize("m", [8, 64, 512, 4096])
    def test_phase_free_exponent_and_interaction(self, m, do_kernel):
        rng = np.random.default_rng(m)
        kernels = (do_kernel, tm.transformer(0.5), tm.transformer(3.0),
                   tm.hegselmann_krause(1.0))
        for w in kernels:
            for _ in range(50):
                v = np.exp(rng.normal(0.0, rng.uniform(0.01, 2.0), m))
                v /= v.mean()
                coupling = rng.uniform(0.1, 2.0) * tm.k_sharp(w)[0]
                wk2 = 2.0 * coupling * kernel_spectrum(w, m)
                raw, ck, expo = _map_exponent(v, wk2, m)
                qhat = grid_to_fourier(v)
                ref = fourier_to_grid(qhat * wk2, m)
                assert expo.tobytes() == ref.tobytes()
                interaction = np.vdot(raw, ck).real / (m * m)
                ref = np.vdot(qhat, qhat * wk2).real
                assert np.float64(interaction).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lu_kernel_matches_numpy_solve(self, n):
        # Gram systems as the solver forms them, a view of the 5 x 5 ring,
        # over ten decades of scale
        rng = np.random.default_rng(n)
        gram = np.empty((5, 5))
        for _ in range(300):
            a = rng.normal(size=(n, 512)) * 10.0 ** rng.uniform(-8.0, 2.0)
            gram[:n, :n] = a @ a.T
            rhs = a @ rng.normal(size=512)
            x = _lu_solve(gram[:n, :n], rhs)
            assert x.shape == (n,)
            assert x.tobytes() == np.linalg.solve(gram[:n, :n],
                                                  rhs).tobytes()

    def test_singular_history_takes_the_plain_step(self, monkeypatch):
        # the first solve with two or more secants gets its last secant
        # zeroed, as two equal residuals make it: an exactly zero row and
        # column of the Gram matrix, so LU meets a zero pivot and gives
        # NaN (two equal nonzero secants need not: LAPACK scales by the
        # pivot's reciprocal, so their difference can round to a tiny
        # nonzero pivot).  The solve must forget the history and map the
        # plain step T(q) next, never a NaN trial, spending no map and
        # warning nothing
        w = tm.transformer(3.0)
        seed = dict(standard_seeds(w, 512))["cos_a0.6"]
        mapped, singular = [], []

        def recording_map(values, wk2, m):
            raw, ck, expo = _map_exponent(values, wk2, m)
            mapped.append((values.copy(), expo.copy()))
            return raw, ck, expo

        def zero_secant(gram, rhs):
            if len(rhs) >= 2 and not singular:
                gram, rhs = gram.copy(), rhs.copy()
                gram[-1], gram[:, -1], rhs[-1] = 0.0, 0.0, 0.0
                gamma = _lu_solve(gram, rhs)
                singular.append((len(mapped), gamma))
                return gamma
            return _lu_solve(gram, rhs)

        monkeypatch.setattr(critical, "_map_exponent", recording_map)
        monkeypatch.setattr(critical, "_lu_solve", zero_secant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = tm.solve_fixed_point(w, 0.37634, seed)
        ((k, gamma),) = singular
        assert np.isnan(gamma).all()
        assert all(np.isfinite(v).all() for v, _ in mapped)
        plain = _gibbs(mapped[k - 1][1], 512)[0]
        assert mapped[k][0].tobytes() == plain.tobytes()
        assert rep.converged and rep.iterations == len(mapped)
        assert rep.free_energy < 0.0


class TestSolve:
    def test_uniform_seed_immediate(self, do_kernel):
        rep = tm.solve_fixed_point(do_kernel, 1.0, tm.uniform(256))
        assert rep.converged and rep.iterations == 1
        assert rep.residual < 1e-14

    def test_subcritical_converges_to_uniform(self, do_normalized):
        q0 = tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512)))
        rep = tm.solve_fixed_point(do_normalized, 0.9, q0, tol=1e-12)
        assert rep.converged
        assert rep.order_parameter < 1e-8

    def test_supercritical_nonuniform_negative_f(self, do_normalized):
        q0 = tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512)))
        rep = tm.solve_fixed_point(do_normalized, 1.2, q0, tol=1e-12)
        assert rep.converged
        assert rep.order_parameter > 0.1
        assert rep.free_energy < 0.0

    def test_first_variation_at_fixed_point(self, do_normalized):
        q0 = tm.extremal(0.5, 1, 0.0, 512)
        rep = tm.solve_fixed_point(do_normalized, 1.3, q0, tol=1e-12)
        q = rep.density
        logq = np.log(q.grid_values)
        pot = _map_exponent(q.grid_values,
                            2 * 1.3 * kernel_spectrum(do_normalized, 512),
                            512)[2]
        resid = logq - pot
        assert resid.max() - resid.min() <= 10 * 1e-12 * 1e3  # sup-var of log residual
        # sharper: compare against the map residual scale
        mapped = tm.solve_fixed_point(do_normalized, 1.3, q, max_iter=1)
        assert np.abs(q.grid_values - mapped.density.grid_values).max() <= 1e-11

    def test_periodicity_inherited(self, do_normalized):
        rep = tm.solve_fixed_point(
            do_normalized, 1.2,
            tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512))),
            tol=1e-12,
        )
        odd = np.abs(rep.density.fourier[1::2])
        assert odd.max() <= 1e-11

    def test_translation_covariance(self, do_normalized):
        # rolls of M/(4 lead) cells, the quarter lead period: a solve from
        # a rotated seed is the seed's solve rotated, so the standard seed
        # set needs no rotated copies
        m = 512
        attention, hk = tm.transformer(3.0), tm.hegselmann_krause(1.0)
        cases = [
            (do_normalized, 1.2, tm.extremal(0.5, 1, 0.0, m)),
            (do_normalized, 1.3,
             dict(standard_seeds(do_normalized, m))["extremal_c0.7"]),
            (attention, 0.37634,
             dict(standard_seeds(attention, m))["cos_a0.6"]),
            (hk, 1.05 * tm.k_sharp(hk)[0],
             dict(standard_seeds(hk, m))["cos_a0.2"]),
        ]
        for w, coupling, base in cases:
            shift = m // (4 * w.lead_mode)
            r1 = tm.solve_fixed_point(w, coupling, base, tol=1e-12)
            rolled = tm.from_grid(np.roll(base.grid_values, shift))
            r2 = tm.solve_fixed_point(w, coupling, rolled, tol=1e-12)
            assert r1.converged and r2.converged
            assert abs(r1.free_energy - r2.free_energy) < 1e-11
            assert np.abs(np.roll(r1.density.grid_values, shift)
                          - r2.density.grid_values).max() < 1e-8

    @pytest.mark.parametrize("case", ["rod_1.2", "rod_1.3", "attention",
                                      "hk"])
    def test_agrees_with_picard_oracle(self, case, do_normalized):
        m = 512
        hk = tm.hegselmann_krause(1.0)
        w, coupling, seed = {
            "rod_1.2": (do_normalized, 1.2, "extremal_c0.7"),
            "rod_1.3": (do_normalized, 1.3, "extremal_c0.7"),
            "attention": (tm.transformer(3.0), 0.37634, "extremal_c0.7"),
            "hk": (hk, 1.05 * tm.k_sharp(hk)[0], "cos_a0.2"),
        }[case]
        q0 = dict(standard_seeds(w, m))[seed]
        ref = picard_fixed_point(w, coupling, q0, tol=1e-12)
        rep = tm.solve_fixed_point(w, coupling, q0, tol=1e-12)
        assert ref.converged and rep.converged
        assert np.abs(rep.density.grid_values
                      - ref.density.grid_values).max() < 1e-9
        assert abs(rep.free_energy - ref.free_energy) < 1e-11
        assert rep.iterations <= ref.iterations

    def test_unreached_energy_stop_keeps_the_bits(self, do_normalized):
        # no iterate of a subcritical solve dips to F < -1e-10, so the stop
        # never fires and the report is the default one
        q0 = tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512)))
        ref = tm.solve_fixed_point(do_normalized, 0.9, q0)
        rep = tm.solve_fixed_point(do_normalized, 0.9, q0, stop_below=-1e-10)
        assert not rep.witness and rep.converged
        assert np.array_equal(rep.density.grid_values, ref.density.grid_values)
        assert replace(rep, density=None) == replace(ref, density=None)

    def test_energy_stop_returns_the_witness_iterate(self, do_normalized):
        q0 = tm.from_grid(1 + 0.5 * np.cos(4 * np.pi * theta_grid(512)))
        full = tm.solve_fixed_point(do_normalized, 1.2, q0)
        rep = tm.solve_fixed_point(do_normalized, 1.2, q0, stop_below=-1e-10)
        assert rep.witness and not rep.converged
        assert 2 <= rep.iterations < full.iterations
        assert free_energy(rep.density, do_normalized, 1.2) == rep.free_energy
        assert full.free_energy <= rep.free_energy < -1e-10
        # its residual is that of the returned density itself
        mapped = tm.solve_fixed_point(do_normalized, 1.2, rep.density,
                                      max_iter=1).density
        assert rep.residual == pytest.approx(
            np.abs(mapped.grid_values - rep.density.grid_values).max(),
            rel=1e-9)

    def test_kernel_without_positive_coefficient(self):
        # the minimizer of a purely repulsive kernel is the uniform state;
        # the order parameter sits on the mode of the largest what(k)
        w = tm.custom_potential([-0.25, -0.1])
        rep = tm.solve_fixed_point(w, 1.0, tm.cosine_profile({1: 0.3}, 64))
        assert rep.converged
        assert rep.order_parameter < 1e-12

    def test_max_iter_below_one_rejected(self, do_kernel):
        with pytest.raises(ValueError, match="max_iter"):
            tm.solve_fixed_point(do_kernel, 1.0, tm.uniform(64), max_iter=0)

    def test_degenerate_threshold_within_500_maps(self, do_kernel):
        # at K_# = 3 pi/4 the map's linear rate is 1; Picard is capped at
        # 20000 maps from this seed
        seed = dict(standard_seeds(do_kernel, 512))["cos_a0.6"]
        rep = tm.solve_fixed_point(do_kernel, 3 * np.pi / 4, seed)
        assert rep.converged and rep.iterations <= 500

    def test_degenerate_threshold_within_60_maps(self, do_kernel):
        # F moves by about residual^2 here, so a guard that counted
        # rounding-level rises as rises dropped 83 of 307 maps
        seed = dict(standard_seeds(do_kernel, 512))["cos_a0.6"]
        rep = tm.solve_fixed_point(do_kernel, 3 * np.pi / 4, seed)
        assert rep.converged and rep.iterations <= 60


class TestAttentionAboveKc:
    """transformer(3.0) just above its first-order K_c.  The cosine seed
    starts next to the unstable branch (order parameter 0.27, F about
    +2.7e-4), which mixing without the free-energy guard converges onto."""

    coupling = 0.37634
    bench_seeds = ("uniform", "cos_a0.6", "bump_c0.99")

    @pytest.fixture(scope="class")
    def setup(self):
        w = tm.transformer(3.0)
        return w, dict(standard_seeds(w, 512))

    def test_cosine_seed_converges(self, setup):
        w, seeds = setup
        rep = tm.solve_fixed_point(w, self.coupling, seeds["cos_a0.6"],
                                   tol=1e-11)
        assert rep.converged and rep.iterations < 20000
        assert rep.free_energy < 0.0

    @pytest.mark.parametrize("coupling", [0.3762, 0.37634])
    @pytest.mark.parametrize("seed", ["cos_a0.6", "bump_c0.99"])
    def test_guard_keeps_off_the_saddle(self, setup, coupling, seed):
        w, seeds = setup
        rep = tm.solve_fixed_point(w, coupling, seeds[seed])
        assert rep.converged
        if (coupling, seed) == (0.3762, "cos_a0.6"):
            # below K_# the uniform state is a local minimum, and this
            # seed lies in its basin (Picard ends there too)
            assert rep.order_parameter < 1e-6
            assert abs(rep.free_energy) < 1e-12
        else:
            assert rep.free_energy < 0.0
            assert rep.order_parameter > 0.45

    def test_cosine_seed_escapes_the_saddle(self, setup):
        # the seed settles next to the unstable branch and leaves it by
        # doubling along the growing plain step (469 maps at Picard's rate)
        w, seeds = setup
        rep = tm.solve_fixed_point(w, self.coupling, seeds["cos_a0.6"])
        assert rep.converged and rep.iterations <= 100
        assert rep.free_energy < 0.0
        assert rep.order_parameter > 0.45

    def test_cosine_seed_below_k_sharp_within_150_maps(self, setup):
        # ends at the uniform state, as in test_guard_keeps_off_the_saddle
        # (514 maps at Picard's rate)
        w, seeds = setup
        rep = tm.solve_fixed_point(w, 0.3762, seeds["cos_a0.6"])
        assert rep.converged and rep.iterations <= 150
        assert rep.order_parameter < 1e-6
        assert abs(rep.free_energy) < 1e-12

    def test_benchmark_seeds_scan_within_1500_maps(self, setup):
        # the scan_attention_b3 setting, unrotated; K_c and the verdict are
        # those of the solver before the saddle escape (3,474 maps)
        w, seeds = setup
        pd = tm.scan_kc(w, m=512, tol_K=2e-4,
                        seeds=[(s, seeds[s]) for s in
                               ("uniform", "cos_a0.6", "bump_c0.99")])
        assert sum(r.map_applications for r in pd.rows) <= 1500
        assert pd.continuity == "discontinuous"
        assert abs(pd.k_c_estimate - 0.37604711064975527) < 1e-12

    def test_benchmark_seeds_scan_within_720_maps(self, setup):
        # the bisection solves stop at their first witness below -tol_F:
        # 681 maps (691 with a guard at 16 ulps of the energy's terms, 905
        # when every seed ran to the residual tolerance)
        w, seeds = setup
        pd = tm.scan_kc(w, m=512, tol_K=2e-4,
                        seeds=[(s, seeds[s]) for s in self.bench_seeds])
        assert sum(r.map_applications for r in pd.rows) <= 720
        assert abs(pd.k_c_estimate - 0.37604711064975527) < 1e-12

    def test_benchmark_seeds_scan_same_maps_at_every_roll(self, setup):
        # the map commutes with whole-cell rolls, so only rounding differs
        # between these scans; a guard that took rounding-level rises for
        # rises made them take 732 to 774 maps
        w, seeds = setup
        counts = []
        for roll in (0, 1, 171, 256, 389):
            rolled = [(s, tm.from_grid(np.roll(seeds[s].grid_values, roll)))
                      for s in self.bench_seeds]
            pd = tm.scan_kc(w, m=512, tol_K=2e-4, seeds=rolled)
            counts.append(sum(r.map_applications for r in pd.rows))
        assert len(set(counts)) == 1 and counts[0] <= 690, counts

    def test_benchmark_seeds_witness_rows(self, setup):
        w, seeds = setup
        _check_witness_rows(w, 2e-4,
                            [(s, seeds[s]) for s in self.bench_seeds])

    def test_witness_endpoint_is_solved_again_at_the_probe(self, setup):
        # with K_# as the upper endpoint its first solve stops at a witness;
        # the continuity probe there needs the full multistart
        w, seeds = setup
        ks, _ = tm.k_sharp(w)
        bench = [(s, seeds[s]) for s in self.bench_seeds]
        pd = tm.scan_kc(w, bracket=(0.33, ks), m=512, tol_K=2e-3,
                        seeds=bench)
        full = multistart(w, ks, 512, bench, tol=1e-11)
        stopped = multistart(w, ks, 512, bench, tol=1e-11, stop_below=-1e-10)
        assert stopped[-1].witness
        (row,) = [r for r in pd.rows if r.coupling == ks]
        assert not row.witness
        assert pd.probe_gap == row.best_gap == _best_gap(full)[0]
        assert row.map_applications == sum(
            r.iterations for r in full + stopped)

    @pytest.mark.parametrize("seed", ["cos_a0.6", "bump_c0.99"])
    def test_history_matches_list_oracle(self, setup, seed):
        # the guard drops trial iterates here (6 of the cosine seed's 46
        # maps, mixed or extrapolated; 151 of 469 before the saddle
        # escape), each dropped mixed step emptying the secant history;
        # the ring buffers must then hold exactly what a freshly rebuilt
        # history holds
        w, seeds = setup
        ref, rejected = anderson_fixed_point(w, self.coupling, seeds[seed])
        rep = tm.solve_fixed_point(w, self.coupling, seeds[seed])
        assert rejected > 0
        assert rep.converged and ref.converged
        assert rep.iterations == ref.iterations
        assert rep.rejected == rejected
        # not bitwise: the ring stores the history rotated, so its least
        # squares round differently
        assert np.abs(rep.density.grid_values
                      - ref.density.grid_values).max() < 1e-12

    def test_minimizer_is_nonuniform(self, setup):
        w, seeds = setup
        best, _ = tm.find_minimizer(
            w, self.coupling, 512,
            [("uniform", seeds["uniform"]), ("cos_a0.6", seeds["cos_a0.6"])])
        assert best.seed_id == "cos_a0.6"
        assert best.free_energy < 0.0
        assert best.order_parameter > 0.1


class TestFindMinimizer:
    def test_zero_coupling_uniform(self, do_kernel):
        best, _ = tm.find_minimizer(do_kernel, 0.0, m=256)
        assert best.order_parameter < 1e-12

    def test_default_seeds_are_the_standard_set(self, do_kernel):
        _, reports = tm.find_minimizer(do_kernel, 0.5, m=256)
        ids = [sid for sid, _ in standard_seeds(do_kernel, 256)]
        assert len(ids) == 8
        assert [r.seed_id for r in reports] == ids

    def test_just_subcritical_uniform_wins(self, do_normalized):
        best, reports = tm.find_minimizer(do_normalized, 0.99, m=512,
                                          max_iter=40000)
        assert -best.free_energy <= 1e-10
        assert best.order_parameter < 1e-6

    def test_transformer_below_threshold_nonuniform(self):
        beta = 4.0
        w = tm.transformer(beta)
        ks, _ = tm.k_sharp(w)
        best, _ = tm.find_minimizer(w, 0.97 * ks, m=512)
        assert best.order_parameter > 0.1
        assert best.free_energy < 0.0

    def test_seed_off_the_grid_rejected(self, do_kernel):
        seeds = standard_seeds(do_kernel, 512)[:2]
        with pytest.raises(ValueError, match="'uniform'.*512.*256"):
            multistart(do_kernel, 1.0, 256, seeds)

    def test_gap_monotone_in_coupling(self, do_normalized):
        gaps = []
        for coupling in (0.8, 1.05, 1.2, 1.4):
            reports = multistart(do_normalized, coupling, 512, "standard",
                                 tol=1e-11, max_iter=20000)
            gaps.append(_best_gap(reports)[0])
        arr = np.array(gaps)
        assert np.all(np.diff(arr) >= -1e-10)
        assert arr.min() >= -1e-10


class TestScan:
    def test_rows_count_map_applications(self, do_kernel):
        seeds = standard_seeds(do_kernel, 128)[:2]
        pd = tm.scan_kc(do_kernel, m=128, tol_K=0.05, seeds=seeds)
        row = pd.rows[0]
        reports = multistart(do_kernel, row.coupling, 128, seeds, tol=1e-11)
        assert row.map_applications == sum(r.iterations for r in reports)

    def test_standard_seeds_built_once_per_scan(self, do_kernel,
                                                monkeypatch):
        built = []

        def counted(w, m=512):
            built.append(m)
            return standard_seeds(w, m)

        monkeypatch.setattr(critical, "standard_seeds", counted)
        pd = tm.scan_kc(do_kernel, m=128, tol_K=0.05)
        assert len(pd.rows) > 1 and built == [128]

    def test_c01_witness_rows(self, do_kernel):
        _check_witness_rows(do_kernel, 5e-3, "standard")

    @pytest.mark.parametrize("tol_k", [0.0, -1e-3, float("nan")])
    def test_nonpositive_tol_k_rejected(self, do_kernel, tol_k,
                                        monkeypatch):
        # a bisection to zero width would never end; fail instead of hanging
        def unreachable(*args, **kwargs):
            raise AssertionError("scan_kc solved before checking tol_K")

        monkeypatch.setattr(critical, "multistart", unreachable)
        with pytest.raises(ValueError, match="tol_K"):
            tm.scan_kc(do_kernel, m=128, tol_K=tol_k)

    @pytest.mark.parametrize("tol_f", [0.0, 1e-16, 9.9e-15, -1e-10,
                                       float("nan")])
    def test_tol_f_below_rounding_rejected(self, do_kernel, tol_f,
                                           monkeypatch):
        # at 0.95 K_*, below the proven K_*, F of about -1e-17 is rounding;
        # a tol_F under that level would read it as a witness
        def unreachable(*args, **kwargs):
            raise AssertionError("scan_kc solved before checking tol_F")

        monkeypatch.setattr(critical, "multistart", unreachable)
        with pytest.raises(ValueError, match="tol_F"):
            tm.scan_kc(do_kernel, m=128, tol_F=tol_f)

    def test_bad_bracket_rejected(self, do_kernel):
        with pytest.raises(BracketNotStraddling):
            tm.scan_kc(do_kernel, bracket=(3.0, 2.0))
        with pytest.raises(BracketNotStraddling):
            # both endpoints subcritical
            tm.scan_kc(do_kernel, bracket=(1.0, 1.5), tol_K=0.25)


class TestLandau:
    def test_half_gives_zero(self):
        cstar, pstar = tm.landau_min(0.5)
        assert pstar == 0.0
        assert cstar == 0.5

    def test_point_six(self):
        cstar, pstar = tm.landau_min(0.6)
        assert abs(cstar - 0.625) < 1e-15
        assert abs(pstar - (-0.0078125)) < 1e-17

    def test_zero(self):
        cstar, pstar = tm.landau_min(0.0)
        assert cstar == 0.25
        assert abs(pstar - 1.0 / 64.0) < 1e-18

    @pytest.mark.parametrize("w2", [0.0, 0.3, 0.5, 0.6, 0.9])
    def test_min_consistent_with_p(self, w2):
        cstar, pstar = tm.landau_min(w2)
        assert abs(tm.landau_p(w2, cstar) - pstar) < 1e-14
        for c in np.linspace(0, 3, 40):
            assert tm.landau_p(w2, c) >= pstar - 1e-14

    def test_quartic_expansion_cross_check(self):
        # p(c) from the closed form matches the quartic coefficient of the
        # free energy along q_eps = 1 + eps cos + c eps^2 cos2 at K = K_#
        w2 = 0.6
        w = tm.custom_potential([0.5, 0.5 * w2])
        eps = 1e-2
        th = theta_grid(4096)
        for c in (0.2, 0.625, 1.0):
            q = tm.from_grid(1 + eps * np.cos(2 * np.pi * th)
                             + c * eps**2 * np.cos(4 * np.pi * th))
            f = tm.free_energy(q, w, 1.0)
            assert abs(f / eps**4 - tm.landau_p(w2, c)) < 2e-2 * max(
                1.0, abs(tm.landau_p(w2, c)))

    def test_degenerate_w2(self):
        cstar, pstar = tm.landau_min(1.0)
        assert np.isinf(cstar) and pstar == -np.inf


class TestSpectralGap:
    def test_do_closed_form(self, do_kernel):
        lam = tm.lambda_star(do_kernel, 3 * np.pi / 8)
        # (2 pi)^2 times the radian-units value 1, attained on mode 2
        assert abs(lam.rate - 4 * np.pi**2) < 1e-10
        assert lam.mode == 2
        assert lam.rate > 0.0

    def test_zero_coupling_lead_mode(self):
        w = tm.transformer(1.0)
        lam = tm.lambda_star(w, 0.0)
        assert lam.mode == 1
        assert abs(lam.rate - 2 * np.pi**2) < 1e-12

    def test_gap_closes_at_threshold(self, do_kernel):
        ks, mode = tm.k_sharp(do_kernel)
        lam = tm.lambda_star(do_kernel, ks)
        assert abs(lam.rate) < 1e-9
        assert lam.mode == mode
        lam2 = tm.lambda_star(do_kernel, 1.01 * ks)
        assert lam2.rate <= 0.0


class TestKStar:
    def test_do_equals_k_sharp(self, do_kernel):
        assert abs(tm.k_star(do_kernel) - 3 * np.pi / 4) < 1e-12

    def test_transformer_strictly_below(self):
        w = tm.transformer(4.0)
        ks, _ = tm.k_sharp(w)
        assert tm.k_star(w) < ks - 1e-3

    def test_log_gas_unity(self):
        assert abs(tm.k_star(tm.log_gas(64)) - 1.0) < 1e-14
