"""W2 on the circle, the flow's L2 record, and the quantile-coupling W2
oracle."""

import numpy as np
import pytest

import torusmf as tm
from torusmf.density import theta_grid, w2_circle
from torusmf.flow import RecordPolicy, integrate

import oracles


def random_density(rng, m=256):
    vals = np.exp(rng.normal(0, 0.4, m))
    return tm.from_grid(vals / vals.mean())


#: metric -> distance between any two densities, by the oracle
DISTANCES = {"W2_circle": oracles.w2_circle_brent}


class TestBasicAxioms:
    @pytest.mark.parametrize("metric", sorted(DISTANCES))
    def test_identity_gives_zero(self, rng, metric):
        q = random_density(rng)
        # the W2 offset search resolves the minimizer to 1e-10, which caps
        # the identity at ~1e-10 rather than machine zero
        assert DISTANCES[metric](q, q) <= 1e-9

    @pytest.mark.parametrize("metric", sorted(DISTANCES))
    def test_axioms_on_random_triples(self, rng, metric):
        dist = DISTANCES[metric]
        for _ in range(8):
            p, q, r = (random_density(rng) for _ in range(3))
            dpq = dist(p, q)
            dqp = dist(q, p)
            dpr = dist(p, r)
            dqr = dist(q, r)
            assert dpq >= 0.0
            assert abs(dpq - dqp) < 1e-9
            assert dpr <= dpq + dqr + 1e-9


class TestL2:
    def test_parseval_value(self, do_kernel):
        # the flow's first record is the L2 distance of its start to uniform
        eps = 0.1
        q = tm.from_grid(1 + eps * np.cos(2 * np.pi * theta_grid(512)))
        tr = integrate(q, do_kernel, 0.0, 1e-6,
                       record=RecordPolicy("uniform", 1))
        assert abs(tr.l2[0] - eps / np.sqrt(2)) < 1e-10


class TestW2Circle:
    def test_uniform_vs_peak_bound(self):
        q = tm.extremal(0.99, 0, 0.0, 512)
        d = w2_circle(q)
        assert d <= 1 / np.sqrt(12) + 0.05
        assert d > 0.2

    def test_rotated_copy(self):
        p = tm.extremal(0.5, 0, 0.0, 256)
        q = tm.extremal(0.5, 0, 0.25, 256)
        d = oracles.w2_circle_brent(p, q)
        # rigid rotation by 1/4 is admissible but not optimal on the circle
        assert 0.1 < d <= 0.25 + 1e-6
        assert abs(d - oracles.w2_circle_atoms(p, q)) < 2e-2

    def test_against_atom_oracle(self, rng):
        for _ in range(5):
            p = random_density(rng, 256)
            q = random_density(rng, 256)
            lib = oracles.w2_circle_brent(p, q)
            brute = oracles.w2_circle_atoms(p, q)
            assert abs(lib - brute) < 2e-2  # atoms vs cells differ at O(1/M)

    def test_small_perturbation_scaling(self):
        # W2 to uniform of 1 + eps cos scales linearly in eps
        ds = []
        for eps in (1e-2, 1e-3):
            q = tm.from_grid(1 + eps * np.cos(2 * np.pi * theta_grid(512)))
            ds.append(w2_circle(q))
        assert abs(ds[0] / ds[1] - 10.0) < 0.1

    def test_uniform_closed_form_matches_brent(self, rng):
        # against the exactly uniform state w2_circle takes the closed
        # form; the offset cost is then smooth, so Brent's minimum agrees
        # to rounding, also where the density has empty cells
        for i in range(24):
            m = (64, 128, 512)[i % 3]
            q = (random_density(rng, m) if i % 2
                 else step_density(rng, m, 0.0 if i % 4 else 0.3))
            ref = oracles.w2_circle_brent(q, tm.uniform(m))
            assert abs(w2_circle(q) - ref) < 1e-12 * ref
        assert w2_circle(tm.uniform(64)) == 0.0

    @pytest.mark.parametrize("m, k", [(64, 3), (128, 2), (512, 1)])
    def test_uniform_closed_form_matches_the_linear_value(self, m, k):
        # W2(1 + eps cos 2 pi k (theta - s), 1) = eps / (2 pi k sqrt 2) to
        # O(eps^2) relative, times the cell factors of the left-point CDF
        # sum, (d/2) / sin(d/2), and of the quantile's linear pieces,
        # sqrt((2 + cos d) / 3), d = 2 pi k / M.  Rounding of the grid
        # values leaves ~1e-16 / eps relative; Brent's offset search is up
        # to 1.4e-7 off at eps = 1e-8
        d = 2 * np.pi * k / m
        cells = (d / 2) / np.sin(d / 2) * np.sqrt((2 + np.cos(d)) / 3)
        for eps in (1e-8, 1e-6, 1e-4):
            lin = eps / (2 * np.pi * k * np.sqrt(2)) * cells
            for shift in (0.0, 0.3):
                q = tm.from_grid(1 + eps * np.cos(
                    2 * np.pi * k * (theta_grid(m) - shift)))
                got = w2_circle(q)
                assert abs(got / lin - 1) < 1e-15 / eps


def step_density(rng, m, floor):
    # piecewise-constant two-level density on random arcs; floor 0 leaves
    # empty cells, where the quantile function jumps
    levels = np.where(rng.random(m // 8) < 0.5, floor, rng.uniform(1.0, 3.0, m // 8))
    vals = np.roll(levels.repeat(8), rng.integers(m))
    return tm.from_grid(vals / vals.mean())


class TestW2Minimization:
    def random_pairs(self, rng, n=120):
        pairs = []
        for i in range(n):
            m = (64, 128, 512)[i % 3]
            kind = i % 4
            if kind == 0:
                pairs.append((random_density(rng, m), random_density(rng, m)))
            elif kind == 1:
                pairs.append((step_density(rng, m, rng.uniform(0.05, 0.5)),
                              random_density(rng, m)))
            elif kind == 2:
                pairs.append((step_density(rng, m, 0.2),
                              step_density(rng, m, 0.5)))
            else:
                # a flow's relaxation to uniform; below W2 ~ 1e-4 the
                # rounding of the cost itself nears 1e-12 relative
                eps = 10.0 ** rng.uniform(-3, -1)
                q = tm.from_grid(1 + eps * np.cos(2 * np.pi * (theta_grid(m)
                                                               - rng.random())))
                pairs.append((tm.uniform(m), q))
        return pairs

    def test_against_ternary_oracle(self, rng, monkeypatch):
        # the offset search itself, on every pair: the program's w2_circle
        # takes the closed form for the pairs with a uniform side, which is
        # within 3e-16 of a 40-digit evaluation there while both searches'
        # costs round to ~6e-13
        pairs = self.random_pairs(rng)
        ref = [oracles.w2_circle_ternary(p, q) for p, q in pairs]
        calls = []
        cost = oracles._offset_cost
        monkeypatch.setattr(oracles, "_offset_cost",
                            lambda *a: calls.append(1) or cost(*a))
        got, evals = [], []
        for p, q in pairs:
            before = len(calls)
            got.append(oracles.w2_circle_brent(p, q))
            evals.append(len(calls) - before)
        assert np.max(np.abs(np.subtract(got, ref)) / np.asarray(ref)) < 1e-12
        # the ternary search makes 119 evaluations a call
        assert np.mean(evals) <= 20 and max(evals) <= 40

    def test_empty_cells_keep_the_cost_convex(self, rng):
        # densities that vanish on whole cells: the offset cost stays
        # convex, and the minimizer is not above a dense offset grid.  The
        # cost has kinks here, so the distance error is linear in the
        # offset error: the ternary oracle's default offset tolerance 1e-10
        # leaves it up to ~1e-10 relative high, hence the tighter one
        from oracles import _cdf_nodes, _offset_cost

        alphas = np.linspace(-1.0, 1.0, 2001)
        for m in (64, 128, 512):
            p, q = step_density(rng, m, 0.0), step_density(rng, m, 0.0)
            nodes = (*_cdf_nodes(p), *_cdf_nodes(q))
            costs = np.array([_offset_cost(a, *nodes) for a in alphas])
            assert np.diff(costs, 2).min() > -1e-12
            d = oracles.w2_circle_brent(p, q)
            assert d <= np.sqrt(costs.min()) * (1 + 1e-9)
            ref = oracles.w2_circle_ternary(p, q, tol=1e-13)
            assert abs(d - ref) < 1e-12 * d
