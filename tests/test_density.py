"""Density representation and spectral functionals."""

import json

import numpy as np
import pytest

import torusmf as tm
from torusmf.critical import _map_exponent
from torusmf.density import from_fourier, kernel_spectrum, theta_grid
from torusmf.errors import NegativeDensity, NonPositiveMass, NotFinite
from torusmf.io import save_density_json

import oracles


class TestConstruction:
    def test_uniform_has_flat_spectrum(self):
        q = tm.uniform(64)
        assert q.fourier[0] == 1.0
        assert np.abs(q.fourier[1:]).max() == 0.0

    def test_single_mode_identity(self):
        q = tm.from_grid(1 + np.cos(2 * np.pi * theta_grid(128)))
        assert abs(q.fourier[1] - 0.5) < 1e-12
        assert abs(np.conj(q.fourier[1]) - 0.5) < 1e-12
        others = np.abs(q.fourier[2:])
        assert others.max() < 1e-12

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_order_parameter_at_every_mode(self, m):
        # a cosine of amplitude 0.01 reads 0.005 at every mode, the
        # Nyquist mode M/2 included, whose stored coefficient carries both
        # the +M/2 and -M/2 terms
        for k in range(1, m // 2 + 1):
            q = tm.from_grid(1 + 0.01 * np.cos(2 * np.pi * k * theta_grid(m)))
            assert q.order_parameter(k) == pytest.approx(0.005, abs=1e-15)
            assert q.order_parameter(-k) == q.order_parameter(k)

    def test_extremal_family_coefficients(self):
        q = tm.extremal(0.5, 1, 0.0, 256)
        for ell in range(1, 8):
            assert abs(q.fourier[2 * ell] - 0.5**ell) < 1e-10
            assert abs(q.fourier[2 * ell - 1]) < 1e-12

    def test_extremal_family_shift_phase(self):
        theta0 = 0.1875  # 3/16, exact in binary
        q = tm.extremal(0.5, 1, theta0, 256)
        for ell in (1, 2, 3):
            expect = 0.5**ell * np.exp(-2j * np.pi * 2 * ell * theta0)
            assert abs(q.fourier[2 * ell] - expect) < 1e-10

    def test_round_trip(self, rng):
        vals = np.exp(rng.normal(0, 0.3, 256))
        q = tm.from_grid(vals / vals.mean())
        back = from_fourier(q.fourier, 256)
        assert np.abs(back.grid_values - q.grid_values).max() < 1e-12

    def test_hermitian_symmetry_via_coeff(self, rng):
        # qhat(-k), kept as conj(qhat(k)), is mode k of the reflection
        # theta -> -theta, which sends node j to node -j mod M
        vals = np.exp(rng.normal(0, 0.3, 128))
        q = tm.from_grid(vals / vals.mean())
        mirror = tm.from_grid(np.roll(q.grid_values[::-1], 1))
        assert np.abs(mirror.fourier - np.conj(q.fourier)).max() < 1e-15

    def test_renormalization_flag(self):
        q = tm.from_grid(np.full(64, 1.5))
        assert abs(q.grid_values.mean() - 1.0) < 1e-15

    def test_rejects_bad_input(self):
        with pytest.raises(NotFinite):
            tm.from_grid(np.array([1.0, np.nan, 1.0, 1.0]))
        with pytest.raises(NegativeDensity):
            tm.from_grid(np.array([1.0, -0.5, 1.0, 1.0]))
        with pytest.raises(NonPositiveMass):
            tm.from_grid(np.zeros(8))
        with pytest.raises(ValueError):
            tm.from_grid(np.ones(100))  # not a power of two

    def test_clip_accounting(self):
        q = tm.uniform(64)
        f = q.fourier.copy()
        f[10] = 1e-9  # introduces a tiny negative excursion
        d = from_fourier(f, 64)
        assert d.grid_values.min() >= 0.0


class TestEntropy:
    def test_uniform_is_zero(self):
        assert tm.relative_entropy(tm.uniform(128)) == 0.0

    def test_extremal_closed_form(self):
        q = tm.extremal(0.5, 1, 0.0, 1024)
        assert abs(tm.relative_entropy(q) - np.log(4.0 / 3.0)) < 1e-12

    def test_against_quadrature_oracle(self):
        q = tm.from_grid(1 + 0.3 * np.cos(2 * np.pi * theta_grid(1024)))
        oracle = oracles.entropy_quad(
            lambda th: 1 + 0.3 * np.cos(2 * np.pi * th)
        )
        assert abs(tm.relative_entropy(q) - oracle) < 1e-9

    def test_nonnegative_and_identifies_uniform(self, rng):
        for _ in range(25):
            vals = np.exp(rng.normal(0, 0.4, 256))
            q = tm.from_grid(vals / vals.mean())
            h = tm.relative_entropy(q)
            assert h >= -1e-10
        qsmall = tm.from_grid(1 + 1e-6 * np.cos(2 * np.pi * theta_grid(256)))
        assert tm.relative_entropy(qsmall) < 1e-10
        assert np.abs(qsmall.grid_values - 1).max() < 1e-4

    def test_zero_cells_contribute_zero(self):
        vals = np.zeros(64)
        vals[:32] = 2.0
        q = tm.from_grid(vals)
        assert np.isfinite(tm.relative_entropy(q))
        assert abs(tm.relative_entropy(q) - np.log(2.0)) < 1e-12


class TestDualDirichlet:
    def test_uniform_zero(self):
        assert tm.dual_dirichlet_sum(tm.uniform(64), 3) == 0.0

    def test_extremal_closed_form(self):
        q = tm.extremal(0.5, 1, 0.0, 1024)
        assert abs(tm.dual_dirichlet_sum(q, 1) - np.log(4.0 / 3.0)) < 1e-12

    def test_single_mode_hand_value(self):
        q = tm.from_grid(1 + 0.4 * np.cos(4 * np.pi * theta_grid(256)))
        # (n+1) * |qhat(2)|^2 / 2 = 2 * 0.04/2 = 0.04
        assert abs(tm.dual_dirichlet_sum(q, 1) - 0.04) < 1e-12


class TestInteraction:
    def test_uniform_zero(self, do_kernel):
        assert tm.interaction_energy(tm.uniform(256), do_kernel) == 0.0

    def test_one_term_parseval(self, do_kernel):
        q = tm.from_grid(1 + np.cos(4 * np.pi * theta_grid(256)))
        assert abs(tm.interaction_energy(q, do_kernel) - 1 / (3 * np.pi)) < 1e-12

    def test_inactive_mode_gives_zero(self, do_kernel):
        q = tm.from_grid(1 + np.cos(2 * np.pi * theta_grid(256)))
        assert abs(tm.interaction_energy(q, do_kernel)) < 1e-14

    @pytest.mark.parametrize("model,kw", [
        ("doi_onsager", {}),
        ("transformer", {"beta": 1.0}),
        ("hegselmann_krause", {"radius": 2.0}),
        ("log_gas", {}),
        ("doi_onsager", {"truncation": 8}),  # coarse: the kernel all the same
    ])
    def test_parseval_vs_double_sum(self, rng, model, kw):
        w = tm.make_potential(model, **{"truncation": 128, **kw})
        vals = np.exp(rng.normal(0, 0.3, 256))
        q = tm.from_grid(vals / vals.mean())
        direct = oracles.interaction_double_sum(q, w)
        spectral = tm.interaction_energy(q, w)
        assert abs(direct - spectral) < 1e-8

    def test_exact_kernel_agreement_smooth(self, rng):
        # analytic kernel: the truncation tail is far below the tolerance
        w = tm.transformer(1.0, truncation=128)
        vals = np.exp(rng.normal(0, 0.3, 256))
        q = tm.from_grid(vals / vals.mean())
        direct = oracles.interaction_double_sum(q, w, oracles.closed_form(w))
        assert abs(direct - tm.interaction_energy(q, w)) < 1e-9


class TestFreeEnergy:
    def test_uniform_zero(self, do_kernel):
        assert tm.free_energy(tm.uniform(256), do_kernel, 2.0) == 0.0

    def test_zero_coupling_is_entropy(self, do_kernel, rng):
        vals = np.exp(rng.normal(0, 0.2, 256))
        q = tm.from_grid(vals / vals.mean())
        assert tm.free_energy(q, do_kernel, 0.0) == tm.relative_entropy(q)

    def test_matches_coercivity_total(self, do_normalized):
        # decomposition cross-check lives in the inequality tests; here the
        # plain definition H - K E
        q = tm.extremal(0.3, 1, 0.0, 512)
        f = tm.free_energy(q, do_normalized, 1.0)
        expect = tm.relative_entropy(q) - tm.interaction_energy(
            q, do_normalized)
        assert f == expect


class TestConvolve:
    """W*q as the solver forms it: the exponent 2K W*q of its map at
    K = 1/2."""

    def test_uniform_gives_zero_profile(self, do_kernel):
        q = tm.uniform(256)
        prof = _map_exponent(q.grid_values, kernel_spectrum(do_kernel, 256),
                             256)[2]
        assert np.abs(prof).max() < 1e-14

    def test_diagonal_action_single_mode(self):
        w = tm.custom_potential([0.5])
        q = tm.from_grid(1 + np.cos(2 * np.pi * theta_grid(128)))
        prof = _map_exponent(q.grid_values, kernel_spectrum(w, 128), 128)[2]
        expect = 0.5 * np.cos(2 * np.pi * theta_grid(128))
        assert np.abs(prof - expect).max() < 1e-13

    def test_against_direct_convolution(self):
        w = tm.transformer(1.0, truncation=128)
        q = tm.extremal(0.5, 0, 0.0, 256)
        direct = oracles.convolve_direct(w, q)
        prof = _map_exponent(q.grid_values, kernel_spectrum(w, 256), 256)[2]
        assert np.abs(prof - direct).max() < 1e-10


class TestInvariance:
    def test_translation_invariance_exact_cells(self, do_kernel, rng):
        vals = np.exp(rng.normal(0, 0.3, 256))
        q = tm.from_grid(vals / vals.mean())
        r = tm.from_grid(np.roll(q.grid_values, 37))
        assert abs(tm.relative_entropy(q) - tm.relative_entropy(r)) < 1e-12
        assert abs(tm.dual_dirichlet_sum(q, 1) - tm.dual_dirichlet_sum(r, 1)) < 1e-12
        assert abs(tm.interaction_energy(q, do_kernel)
                   - tm.interaction_energy(r, do_kernel)) < 1e-12
        assert abs(tm.free_energy(q, do_kernel, 1.1)
                   - tm.free_energy(r, do_kernel, 1.1)) < 1e-12

    def test_spectral_shift_matches_roll(self):
        q = tm.extremal(0.4, 0, 0.0, 256)
        assert np.abs(oracles.shift(q, 32 / 256).grid_values
                      - np.roll(q.grid_values, 32)).max() < 1e-11


class TestSerialization:
    def test_json_round_trip(self, rng, tmp_path):
        vals = np.exp(rng.normal(0, 0.3, 128))
        q = tm.from_grid(vals / vals.mean())
        save_density_json(tmp_path / "q.json", q)
        rec = json.loads((tmp_path / "q.json").read_text())
        assert rec["grid_size"] == len(rec["grid_values"]) == 128
        q2 = tm.from_grid(rec["grid_values"])
        assert np.abs(q.grid_values - q2.grid_values).max() < 1e-15
