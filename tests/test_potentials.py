"""Kernel catalog: coefficient laws, thresholds, decay condition."""

import numpy as np
import pytest
from scipy.special import iv

import torusmf as tm
from torusmf.errors import BadParams, NoAttractivePart, ZeroLeadCoefficient

import oracles


class TestCoefficientLaws:
    def test_doi_onsager(self):
        w = tm.doi_onsager()
        assert abs(w.coeff(2) - 2 / (3 * np.pi)) < 1e-15
        assert abs(w.coeff(4) - 2 / (15 * np.pi)) < 1e-15
        assert w.coeff(1) == 0.0 and w.coeff(3) == 0.0
        assert w.periodicity == 1

    def test_direct_build_reads_the_lattice_from_coeffs(self):
        w = tm.Potential("direct", {}, tm.doi_onsager().coeffs)
        assert w.periodicity == 1 and w.lead_mode == 2
        for sid, q in tm.standard_seeds(w, 64):
            if sid.startswith("cos"):
                amps = np.abs(q.fourier[1:])
                assert amps[1] >= 0.1 - 1e-15  # a/2, a >= 0.2
                assert np.delete(amps, 1).max() < 1e-15

    def test_transformer_bessel_ratio(self):
        beta = 2.0
        w = tm.transformer(beta)
        for ell in (1, 2, 5):
            assert abs(w.coeff(ell) - iv(ell, beta) / beta) < 1e-14
        assert w.periodicity == 0

    def test_hk_closed_form(self):
        w = tm.hegselmann_krause(np.pi)
        # at R = pi the lead coefficient is (2/pi)(pi - sin pi) = 2
        assert abs(w.coeff(1) - 2.0) < 1e-14
        r = 2.5
        w = tm.hegselmann_krause(r)
        for ell in (1, 2, 7):
            expect = 2.0 / (np.pi * ell**3) * (ell * r - np.sin(ell * r))
            assert abs(w.coeff(ell) - expect) < 1e-15

    def test_log_gas(self):
        w = tm.log_gas(64)
        ks = np.arange(1, 65)
        assert np.abs(w.coeff(ks) - 0.5 / ks).max() == 0.0

    def test_bad_params(self):
        with pytest.raises(BadParams):
            tm.transformer(-1.0)
        with pytest.raises(BadParams):
            tm.hegselmann_krause(0.0)
        with pytest.raises(BadParams):
            tm.hegselmann_krause(3.5)
        with pytest.raises(BadParams):
            tm.make_potential("nope")
        with pytest.raises(BadParams):
            tm.doi_onsager(truncation=4)

    def test_pointwise_matches_truncated_sum(self):
        # analytic kernels agree with their cosine polynomials within the
        # stated tail bound on a 1024-point grid
        th = -0.5 + np.arange(1024) / 1024
        for w in (tm.doi_onsager(),
                  tm.transformer(2.0),
                  tm.hegselmann_krause(1.3)):
            direct = oracles.kernel_pointwise_truncated(w, th)
            # dropped part is 2 sum_{k>M} what(k) cos(...), so twice the
            # coefficient-sum bound in sup norm
            bound = 2 * oracles.tail_bound(w, w.truncation) + 1e-12
            exact = oracles.closed_form(w)(th)
            assert np.abs(exact - direct).max() <= bound

    def test_tail_bound_decreasing_and_valid(self):
        for w in (tm.doi_onsager(truncation=64),
                  tm.transformer(2.0, truncation=64),
                  tm.hegselmann_krause(1.3, truncation=64)):
            tails = [oracles.tail_bound(w, m) for m in (16, 32, 64)]
            assert tails[0] >= tails[1] >= tails[2] >= 0.0
            # the dropped coefficients really are below the bound
            big = tm.make_potential(w.name, 512, **w.params)
            dropped = np.abs(big.coeffs[64:]).sum()
            assert dropped <= oracles.tail_bound(w, 64) + 1e-15


class TestKSharp:
    def test_doi_onsager(self):
        ks, mode = tm.k_sharp(tm.doi_onsager())
        assert abs(ks - 3 * np.pi / 4) < 1e-12
        assert mode == 2

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.447, 4.0])
    def test_transformer_closed_form(self, beta):
        ks, mode = tm.k_sharp(tm.transformer(beta))
        assert abs(ks - beta / (2 * iv(1, beta))) < 1e-12
        assert mode == 1

    def test_hk_closed_form(self):
        r = 2.5
        ks, mode = tm.k_sharp(tm.hegselmann_krause(r))
        assert abs(ks - np.pi / (4 * (r - np.sin(r)))) < 1e-12
        assert abs(ks - 0.4130) < 1e-3
        assert mode == 1

    def test_no_attractive_part(self):
        w = tm.custom_potential([-0.5, -0.1])
        with pytest.raises(NoAttractivePart):
            tm.k_sharp(w)


class TestDecay:
    def test_doi_onsager_passes_strictly(self):
        w = tm.doi_onsager()
        rep = tm.check_decay(w)
        assert rep.passed and rep.tail_certified
        # strict from the second active mode on
        lead = 2 * w.coeff(2)
        for ell in range(2, 200):
            assert 2 * w.coeff(2 * ell) / lead < 2 / (2 * ell)

    @pytest.mark.parametrize("beta,expect", [(1.0, True), (2.0, True),
                                             (2.6, False), (3.0, False)])
    def test_transformer_dichotomy(self, beta, expect):
        rep = tm.check_decay(tm.transformer(beta))
        assert rep.passed == expect
        if not expect:
            assert rep.first_violation == 2

    def test_transformer_at_beta_star_passes(self):
        rep = tm.check_decay(tm.transformer(tm.beta_star()))
        assert rep.passed and rep.tail_certified

    @pytest.mark.parametrize("radius,expect", [(1.0, False), (2.5, True),
                                               (3.0, True)])
    def test_hk_dichotomy(self, radius, expect):
        rep = tm.check_decay(tm.hegselmann_krause(radius))
        assert rep.passed == expect
        if not expect:
            assert rep.first_violation == 2

    def test_hk_monotone_lemma(self):
        # what_R(l) <= what_R(1) across the parameter range
        for r in np.linspace(0.03, np.pi, 100):
            w = tm.hegselmann_krause(r, truncation=64)
            assert np.all(w.coeffs[:50] <= w.coeffs[0] * (1 + 1e-12))

    @pytest.mark.parametrize("radius", [None, 2.5, 3.0])
    def test_hk_decay_lemma(self, radius):
        r = tm.r_star() if radius is None else radius
        w = tm.hegselmann_krause(r, truncation=64)
        lead = w.coeffs[0]
        ks = np.arange(1, 51)
        vals = w.coeffs[:50]
        assert np.all(vals <= lead / ks * (1 + 1e-12))
        assert np.all(vals[2:] < lead / ks[2:])

    def test_hk_below_r_star_fails_at_two(self):
        w = tm.hegselmann_krause(1.0, truncation=64)
        assert 2 * w.coeff(2) > 2 * w.coeff(1) / 2

    def test_log_gas_equality_everywhere(self):
        w = tm.log_gas(64)
        rep = tm.check_decay(w)
        assert rep.passed and rep.tail_certified
        ks = np.arange(1, 65)
        assert np.abs(2 * w.coeff(ks) - 1.0 / ks).max() == 0.0


class TestNormalize:
    def test_doi_onsager_scale(self):
        w = tm.normalize(tm.doi_onsager())
        assert abs(w.params["scale"] - 4 / (3 * np.pi)) < 1e-15
        assert abs(2 * w.coeff(2) - 1.0) < 1e-15
        ks, _ = tm.k_sharp(w)
        assert abs(ks - 1.0) < 1e-12

    def test_log_gas_identity(self):
        w = tm.log_gas(64)
        assert tm.normalize(w) is w

    def test_custom_identity(self):
        w = tm.custom_potential([0.5])
        assert tm.normalize(w) is w

    def test_zero_lead_rejected(self):
        w = tm.custom_potential([0.0, -0.3])
        with pytest.raises(ZeroLeadCoefficient):
            tm.normalize(w)

    def test_normalized_k_sharp_is_one_when_decay_passes(self):
        for w0 in (tm.doi_onsager(), tm.transformer(1.5),
                   tm.hegselmann_krause(2.5), tm.log_gas(64)):
            assert tm.check_decay(w0).passed
            w = tm.normalize(w0)
            ks, _ = tm.k_sharp(w)
            assert abs(ks - 1.0) < 1e-12
