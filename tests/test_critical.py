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
                             interaction_energy, kernel_spectrum, theta_grid)
from torusmf.errors import EnclosureNotVerified, ExpOverflow

from oracles import anderson_fixed_point, picard_fixed_point


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

    @pytest.fixture(scope="class")
    def degenerate(self, do_kernel):
        # at K_# = 3 pi/4 the map's linear rate is 1
        seed = dict(standard_seeds(do_kernel, 512))["cos_a0.6"]
        return tm.solve_fixed_point(do_kernel, 3 * np.pi / 4, seed)

    def test_degenerate_threshold_within_500_maps(self, degenerate):
        # Picard is capped at 20000 maps from this seed
        assert degenerate.converged and degenerate.iterations <= 500

    def test_degenerate_threshold_within_60_maps(self, degenerate):
        # F moves by about residual^2 here, so a guard that counted
        # rounding-level rises as rises dropped 83 of 307 maps
        assert degenerate.converged and degenerate.iterations <= 60


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

    @pytest.fixture(scope="class")
    def bench_scan(self, setup):
        # the scan_attention_b3 setting, unrotated
        w, seeds = setup
        return tm.scan_kc(w, m=512, tol_K=2e-4,
                          seeds=[(s, seeds[s]) for s in self.bench_seeds])

    def test_benchmark_seeds_scan_within_1500_maps(self, bench_scan):
        # the verdict of the solver before the saddle escape (3,474 maps
        # with the bisection); K_c is the root of Newton's method in K
        pd = bench_scan
        assert sum(r.map_applications for r in pd.rows) <= 1500
        assert pd.continuity == "discontinuous"
        assert abs(pd.k_c_estimate - 0.37609388318365555) < 1e-12

    def test_benchmark_seeds_scan_within_170_maps(self, bench_scan):
        # the K_# probe, four Newton steps and the multistart at K_c - e:
        # 154 maps (163 with a solve at K_c + e, 533 when a bisection
        # stopped its solves at their first iterate below -TOL_F, 905 when
        # every seed ran to the tolerance)
        pd = bench_scan
        assert sum(r.map_applications for r in pd.rows) <= 170
        assert pd.continuity == "discontinuous"
        assert abs(pd.k_c_estimate - 0.37609388318365555) < 1e-12

    def test_benchmark_seeds_scan_same_maps_at_every_roll(self, setup):
        # the map commutes with whole-cell rolls, so only rounding differs
        # between these scans; a guard that took rounding-level rises for
        # rises made the bisection take 732 to 774 maps, the bisection took
        # 523 at the end, and Newton with a solve at K_c + e 163
        w, seeds = setup
        counts = []
        for roll in (0, 1, 171, 256, 389):
            rolled = [(s, tm.from_grid(np.roll(seeds[s].grid_values, roll)))
                      for s in self.bench_seeds]
            pd = tm.scan_kc(w, m=512, tol_K=2e-4, seeds=rolled)
            counts.append(sum(r.map_applications for r in pd.rows))
        assert len(set(counts)) == 1 and counts[0] <= 160, counts

    def test_first_row_is_the_k_sharp_probe(self, setup, bench_scan):
        # the probe's full multistart at K_#, 44 maps, gives the first row
        # and the probe gap
        w, seeds = setup
        ks, _ = tm.k_sharp(w)
        full = multistart(w, ks, 512, [(s, seeds[s]) for s in self.bench_seeds],
                          tol=1e-11)
        row = bench_scan.rows[0]
        assert row == _scan_row(ks, full)
        assert bench_scan.probe_gap == row.best_gap == _best_gap(full)[0]
        assert row.map_applications == 44

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


#: direction 22's Newton column (ROADMAP): K_# - K_c and the jump, to the
#: digits it prints, for the six discontinuous C02 and C03 scans
NEWTON_TABLE = [
    (tm.transformer(2.6), 512, 3.884152e-4, 0.2797),
    (tm.transformer(3.0), 512, 3.329221e-3, 0.4815),
    (tm.transformer(4.0), 512, 9.191712e-3, 0.6688),
    (tm.hegselmann_krause(0.5, truncation=1024), 2048, 20.103271, 0.9615),
    (tm.hegselmann_krause(1.0), 1024, 1.233708, 0.8879),
    (tm.hegselmann_krause(1.5), 512, 0.1230055, 0.7466),
]
NEWTON_IDS = ["transformer2.6", "transformer3", "transformer4", "hk0.5",
              "hk1", "hk1.5"]


class TestScan:
    @pytest.fixture(scope="class")
    def newton_runs(self):
        # each scan of the table with its root state, the warm Newton solve
        # at K_c (a multistart's solves carry a seed id)
        warm = {}
        real = critical.solve_fixed_point

        def kept(w, coupling, q0, *args, **kwargs):
            rep = real(w, coupling, q0, *args, **kwargs)
            if "seed_id" not in kwargs:
                warm[coupling] = rep
            return rep

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(critical, "solve_fixed_point", kept)
            scans = [tm.scan_kc(w, m=m) for w, m, _, _ in NEWTON_TABLE]
        return [(pd, warm[pd.k_c_estimate]) for pd in scans]

    @pytest.fixture(scope="class")
    def newton_scans(self, newton_runs):
        return [pd for pd, _ in newton_runs]

    def test_rows_count_map_applications(self, do_kernel):
        seeds = standard_seeds(do_kernel, 128)[:2]
        pd = tm.scan_kc(do_kernel, m=128, tol_K=0.05, seeds=seeds)
        row = pd.rows[0]
        reports = multistart(do_kernel, row.coupling, 128, seeds, tol=1e-11)
        assert row.map_applications == sum(r.iterations for r in reports)

    def test_standard_seeds_built_once_per_scan(self, monkeypatch):
        # a discontinuous scan runs the multistart at K_# and at K_c - e
        built = []

        def counted(w, m=512):
            built.append(m)
            return standard_seeds(w, m)

        monkeypatch.setattr(critical, "standard_seeds", counted)
        pd = tm.scan_kc(tm.transformer(3.0), m=128)
        assert pd.continuity == "discontinuous" and built == [128]

    @pytest.mark.parametrize("w", [tm.doi_onsager(), tm.transformer(2.0),
                                   tm.hegselmann_krause(2.5)],
                             ids=["rod", "transformer2", "hk2.5"])
    def test_continuous_k_c_is_k_sharp(self, w):
        # the probe finds no state below -TOL_F at K_#, so no coupling
        # below it is supercritical, and every one above it is
        pd = tm.scan_kc(w, m=512, tol_K=5e-3)
        assert pd.continuity == "continuous"
        assert pd.k_c_estimate == pd.k_sharp == tm.k_sharp(w)[0]
        assert pd.bracket_width == 5e-3
        assert pd.newton_steps == 0 and len(pd.rows) == 1
        # every seed's F is rounding at K_#, and ties in F go to the
        # smaller order parameter: the uniform state's, not that of the
        # seed whose F rounds lowest (1.3e-5 to 1.2e-4)
        assert pd.jump_estimate == 0.0
        # the interval's ends: subcritical below, supercritical above
        lo, hi = (_best_gap(multistart(w, pd.k_sharp + d, 512, tol=1e-11))[0]
                  for d in (-2.5e-3, 2.5e-3))
        assert lo <= critical.TOL_F < hi

    def test_newton_iterates_fall_onto_k_c(self, newton_scans):
        # the least F is concave in K, so each tangent root lies at or
        # above K_c: the iterates fall strictly from K_# and stop at K_c
        for pd in newton_scans:
            iterates = [r.coupling for r in pd.rows[1:1 + pd.newton_steps]]
            assert pd.rows[0].coupling == pd.k_sharp
            assert 3 <= len(iterates) == len(pd.rows) - 2
            assert all(a > b for a, b in
                       zip([pd.k_sharp] + iterates, iterates))
            assert iterates[-1] == pd.k_c_estimate
            # F < 0 at every iterate before the root, |F| < 1e-13 there
            assert all(r.best_gap > 0.0 for r in pd.rows[:pd.newton_steps])
            assert abs(pd.rows[pd.newton_steps].best_gap) < 1e-13
            # the width covers the enclosure and the last step
            e = pd.k_c_estimate - pd.rows[-1].coupling
            last_step = iterates[-2] - iterates[-1]
            assert pd.bracket_width == pytest.approx(2.0 * max(e, last_step),
                                                     rel=1e-6)

    @pytest.mark.parametrize("case", [0, 5], ids=["transformer2.6", "hk1.5"])
    def test_enclosure_holds(self, newton_scans, case):
        # the full standard multistart at K_c - e, the last row, finds no
        # state below -TOL_F
        w, m, _, _ = NEWTON_TABLE[case]
        pd = newton_scans[case]
        lo = pd.rows[-1]
        e = pd.k_c_estimate - lo.coupling
        assert 0.0 < e < 1e-7
        full = multistart(w, lo.coupling, m, tol=1e-11)
        assert min(r.free_energy for r in full) >= -critical.TOL_F
        assert lo == _scan_row(lo.coupling, full)

    @pytest.mark.parametrize("case", range(6), ids=NEWTON_IDS)
    def test_root_state_is_supercritical_above_k_c(self, newton_runs, case):
        # F is affine in K for a fixed density, so the root state itself
        # shows F < -TOL_F at the enclosure's upper end, K_c + e:
        # F_{K_c + e}(q_c) = F_c - e E(q_c) = F_c - 20 TOL_F
        w = NEWTON_TABLE[case][0]
        pd, root = newton_runs[case]
        energy = interaction_energy(root.density, w)
        e = 20.0 * critical.TOL_F / energy
        assert pd.k_c_estimate - pd.rows[-1].coupling == pytest.approx(
            e, rel=1e-6)
        upper = free_energy(root.density, w, pd.k_c_estimate + e)
        assert upper < -critical.TOL_F
        assert abs(upper - (root.free_energy - e * energy)) < 1e-15

    @pytest.mark.parametrize("case", range(6), ids=NEWTON_IDS)
    def test_discontinuous_k_c_and_jump_match_the_newton_table(
            self, newton_scans, case):
        # K_c to 1e-7 of itself: the table prints seven significant
        # digits of the margin; a bisection to 2e-4 read the jump at
        # transformer(2.6) 8% high, 0.3013
        _, _, margin, jump = NEWTON_TABLE[case]
        pd = newton_scans[case]
        assert pd.continuity == "discontinuous"
        assert pd.k_c_estimate == pytest.approx(pd.k_sharp - margin,
                                                rel=1e-7)
        assert abs(pd.jump_estimate - jump) < 5e-5

    @pytest.mark.parametrize("w", [tm.transformer(2.0),
                                   tm.hegselmann_krause(2.5)],
                             ids=["transformer2", "hk2.5"])
    def test_continuous_jump_is_the_k_sharp_state(self, w):
        # a continuous K_c is K_#, where the probe's best state is the
        # uniform one up to the solves' tolerance; a fit of |qhat|^2 above
        # K_c read jumps of 0.118 and 0.156 here
        pd = tm.scan_kc(w, m=512, tol_K=5e-3)
        (row,) = [r for r in pd.rows if r.coupling == pd.k_sharp]
        assert pd.continuity == "continuous"
        assert pd.jump_estimate == row.order_parameter
        assert pd.jump_estimate < 1e-3

    def test_discontinuous_jump_is_the_root_state(self, newton_scans):
        # the order parameter of the branch at Newton's K_c, 0.2797 at
        # transformer(2.6); a fit of |qhat|^2 above K_c read 0.313
        pd = newton_scans[0]
        (root,) = [r for r in pd.rows if r.coupling == pd.k_c_estimate]
        assert pd.jump_estimate == root.order_parameter
        assert abs(pd.jump_estimate - 0.2797) < 5e-5

    def test_rod_benchmark_seeds_scan_within_85_maps(self, do_kernel):
        # the scan_rod setting at five rolls: the K_# probe alone, 46 to
        # 82 maps (89 to 125 when a bisection solved its couplings above
        # K_#, 195 to 231 when it solved those below K_# too)
        seeds = dict(standard_seeds(do_kernel, 512))
        for roll in (0, 1, 171, 256, 389):
            rolled = [(s, tm.from_grid(np.roll(seeds[s].grid_values, roll)))
                      for s in ("uniform", "cos_a0.6")]
            pd = tm.scan_kc(do_kernel, m=512, tol_K=5e-3, seeds=rolled)
            maps = sum(r.map_applications for r in pd.rows)
            assert pd.continuity == "continuous"
            assert maps <= 85, (roll, maps)
            # the uniform seed's state, whichever seed's F rounds lowest
            assert pd.jump_estimate == 0.0, roll

    @pytest.mark.parametrize("tol_k", [0.0, -1e-3, float("nan")])
    def test_nonpositive_tol_k_rejected(self, do_kernel, tol_k,
                                        monkeypatch):
        # a zero interval is no enclosure; fail before any solve
        def unreachable(*args, **kwargs):
            raise AssertionError("scan_kc solved before checking tol_K")

        monkeypatch.setattr(critical, "multistart", unreachable)
        with pytest.raises(ValueError, match="tol_K"):
            tm.scan_kc(do_kernel, m=128, tol_K=tol_k)

    def test_state_below_the_enclosure_restarts_newton(self, monkeypatch):
        # the first Newton descent reads F raised by 1e-6, so it stops at a
        # false root above K_c, where F = -1e-6; the multistart below it
        # finds that state, and Newton from it reaches the true K_c
        w = tm.transformer(3.0)
        true = tm.scan_kc(w, m=128)
        real_solve, real_multistart = (critical.solve_fixed_point,
                                       critical.multistart)
        couplings = []

        def counted(w, coupling, *args, **kwargs):
            couplings.append(coupling)
            return real_multistart(w, coupling, *args, **kwargs)

        def raised(w, coupling, q0, *args, **kwargs):
            rep = real_solve(w, coupling, q0, *args, **kwargs)
            if len(couplings) == 1 and "seed_id" not in kwargs:
                return replace(rep, free_energy=rep.free_energy + 1e-6)
            return rep

        monkeypatch.setattr(critical, "multistart", counted)
        monkeypatch.setattr(critical, "solve_fixed_point", raised)
        pd = tm.scan_kc(w, m=128)
        assert len(couplings) == 3
        assert couplings[1] > true.k_c_estimate + 1e-7 > couplings[2]
        assert abs(pd.k_c_estimate - true.k_c_estimate) < 1e-11
        assert pd.newton_steps > true.newton_steps
        assert len(pd.rows) == pd.newton_steps + 3
        assert pd.jump_estimate == pytest.approx(true.jump_estimate,
                                                 abs=1e-9)

    def test_newton_without_a_root_raises(self, monkeypatch):
        # transformer(3) takes four steps to |F| < 1e-13
        monkeypatch.setattr(critical, "NEWTON_MAX_STEPS", 2)
        with pytest.raises(EnclosureNotVerified, match="Newton in K"):
            tm.scan_kc(tm.transformer(3.0), m=128)

    def test_tol_f_sits_above_the_rounding_of_f(self, do_kernel):
        # below the proven K_*, every seed converges to the uniform state,
        # whose F is rounding (about 1e-16 here); a threshold under 1e-14
        # would read that rounding as a supercritical state
        reports = multistart(do_kernel, 0.95 * tm.k_star(do_kernel), 128,
                             tol=1e-11)
        assert all(r.converged for r in reports)
        assert max(abs(r.free_energy) for r in reports) < 1e-14
        assert critical.TOL_F >= 1e-14


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
