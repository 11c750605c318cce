"""Sharp inequality lab: extremizers, positivity, coercivity split."""

import numpy as np
import pytest
from scipy.special import i0

import torusmf as tm
from torusmf.density import theta_grid
from torusmf.errors import ConstraintViolated, PeriodicityViolated
from torusmf.inequalities import (
    coercivity_gap,
    entropy_seminorm_gap,
    extremal_phi,
    lebedev_milin_gap,
    random_tilted_density,
    run_entropy_suite,
    run_exponential_suite,
)


class TestLebedevMilin:
    def test_constant_phi_zero_gap(self):
        assert abs(lebedev_milin_gap(np.full(512, 0.7), 0)) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.2, 0.5, 0.9])
    def test_extremal_family_saturates(self, n, c):
        phi = extremal_phi(c, n, theta0=0.11, m=2048)
        assert abs(lebedev_milin_gap(phi, n)) <= 1e-8

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cosine_probe_against_closed_form(self, n):
        # phi = a cos(2 pi (n+1) theta): the left side is log I_0(a) and
        # the quadratic term is a^2/4(n+1) * (n+1) = a^2/4
        a = 0.3
        phi = a * np.cos(2 * np.pi * (n + 1) * theta_grid(2048))
        gap = lebedev_milin_gap(phi, n)
        oracle = a**2 / 4.0 - np.log(i0(a))
        assert gap > 0
        assert abs(gap - oracle) < 1e-9

    def test_constraint_violation_detected(self):
        phi = 0.4 * np.cos(2 * np.pi * theta_grid(512))  # mode 1 active
        with pytest.raises(ConstraintViolated):
            lebedev_milin_gap(phi, 1)

    def test_grid_not_a_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            lebedev_milin_gap(np.zeros(6), 0)

    def test_random_admissible_nonnegative(self, rng):
        from torusmf.inequalities import random_tilted_phi
        for n in (0, 1, 2):
            for _ in range(40):
                phi = random_tilted_phi(n, 1024, rng)
                assert lebedev_milin_gap(phi, n) >= -1e-9


class TestEntropySeminorm:
    def test_uniform_zero(self):
        assert entropy_seminorm_gap(tm.uniform(512), 3) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_extremal_family_saturates(self, n, c):
        q = tm.extremal(c, n, theta0=0.21, m=2048)
        assert abs(entropy_seminorm_gap(q, n)) <= 1e-8

    def test_closed_form_identities(self):
        for n in (0, 1, 2):
            for c in (0.3, 0.6, 0.9):
                q = tm.extremal(c, n, 0.0, 1024 if c < 0.9 else 4096)
                target = -np.log(1 - c * c)
                assert abs(tm.relative_entropy(q) - target) <= 1e-8
                assert abs(tm.dual_dirichlet_sum(q, n) - target) <= 1e-8

    def test_mixture_strictly_positive(self):
        a = tm.extremal(0.3, 1, 0.0, 1024).grid_values
        b = tm.extremal(0.6, 1, 0.25, 1024).grid_values
        q = tm.from_grid(0.5 * a + 0.5 * b)
        assert entropy_seminorm_gap(q, 1) > 1e-4

    def test_periodicity_enforced(self):
        q = tm.from_grid(1 + 0.3 * np.cos(2 * np.pi * theta_grid(512)))
        with pytest.raises(PeriodicityViolated):
            entropy_seminorm_gap(q, 1)

    def test_sharp_constant_quartic_approach(self):
        # gap of 1 + eps cos on the lead mode decays like eps^4: the
        # linear coefficient (n+1) cannot be improved
        for n in (0, 1):
            eps = np.array([1e-2, 1e-3, 1e-4])
            gaps = []
            for e in eps:
                q = tm.from_grid(
                    1 + e * np.cos(2 * np.pi * (n + 1) * theta_grid(512)))
                gaps.append(entropy_seminorm_gap(q, n))
            gaps = np.array(gaps)
            assert np.all(gaps > 0)
            slope = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
            assert slope > 2.5

    def test_randomized_suites(self):
        for n in (0, 1, 2):
            rep = run_entropy_suite(n, samples=120, m=1024, seed=3 + n)
            assert rep.violations == 0
            rep = run_exponential_suite(n, samples=120, m=1024, seed=9 + n)
            assert rep.violations == 0

    @pytest.mark.parametrize("suite", [run_entropy_suite,
                                       run_exponential_suite])
    def test_no_samples_rejected(self, suite):
        with pytest.raises(ValueError, match="samples"):
            suite(0, samples=0, m=256)

    def test_atomic_limit_diverges(self):
        # as c -> 1 both sides of the entropy inequality blow up together
        prev_h, prev_d = -1.0, -1.0
        for c in (0.9, 0.99, 0.999):
            q = tm.extremal(c, 0, 0.0, 8192)
            h = tm.relative_entropy(q)
            d = tm.dual_dirichlet_sum(q, 0)
            assert h > prev_h and d > prev_d
            prev_h, prev_d = h, d
        assert prev_h > 5.0


class TestCoercivity:
    def test_uniform_all_zero(self, do_normalized):
        t1, t2, tot = coercivity_gap(tm.uniform(512), do_normalized, 1.0)
        assert t1 == 0.0 and t2 == 0.0 and tot == 0.0

    def test_extremal_at_unit_coupling(self, do_normalized):
        q = tm.extremal(0.4, 1, 0.0, 1024)
        t1, t2, tot = coercivity_gap(q, do_normalized, 1.0)
        assert abs(t1) <= 1e-8  # equality case of the entropy inequality
        assert t2 > 1e-4
        assert tot > 0.0
        assert abs(t1 + t2 - tot) <= 1e-9

    def test_supercritical_minimizer_negative_total(self, do_normalized):
        best, _ = tm.find_minimizer(do_normalized, 1.3, m=512)
        t1, t2, tot = coercivity_gap(best.density, do_normalized, 1.3)
        assert tot < -1e-4
        assert abs(t1 + t2 - tot) <= 1e-9

    @pytest.mark.parametrize("model,n", [
        ("doi_onsager", 1), ("transformer", 0),
        ("hegselmann_krause", 0), ("log_gas", 0),
    ])
    def test_identity_randomized(self, model, n, rng):
        kw = {"beta": 1.5} if model == "transformer" else (
            {"radius": 2.5} if model == "hegselmann_krause" else {})
        w = tm.normalize(tm.make_potential(model, 256, **kw))
        kstar = tm.k_star(w)
        for _ in range(40):
            q = random_tilted_density(n, 512, rng)
            coupling = rng.uniform(0.0, 1.5)
            t1, t2, tot = coercivity_gap(q, w, coupling)
            assert abs(t1 + t2 - tot) <= 1e-9
            if coupling <= kstar:
                assert t1 >= -1e-9 and t2 >= -1e-9

    def test_requires_normalized_kernel(self, do_kernel):
        with pytest.raises(ValueError):
            coercivity_gap(tm.uniform(256), do_kernel, 1.0)
