"""The Bessel numbers the program uses, against independent oracles.

The attention kernel takes what(l) = I_l(beta)/beta and I_0(beta) from
``scipy.special.iv``; beta_* solves I_2 = I_1/2 and the certified tail rests
on an upper bound for I_l.  Each is checked here against mpmath or a
bounded power series.
"""

import functools

import mpmath
import numpy as np
import pytest

import torusmf as tm
from torusmf.errors import BadParams
from torusmf.potentials import _log_bessel_i_upper

import oracles

mpmath.mp.dps = 30


def mp_iv(order, x):
    return float(mpmath.besseli(order, x))


@functools.lru_cache(maxsize=None)
def kernel(beta, truncation=256):
    return tm.transformer(beta, truncation=truncation)


def program_iv(order, beta, truncation=256):
    """I_order(beta) as the attention kernel holds it.

    Orders >= 1 are beta * what(order); I_0 comes back from the pointwise
    kernel, W(1/4) = (1 - I_0(beta)) / beta.
    """
    w = kernel(beta, truncation)
    if order == 0:
        return 1.0 - beta * float(oracles.closed_form(w)(0.25))
    return beta * float(w.coeff(order))


class TestValues:
    def test_at_zero(self):
        # beta -> 0: I_1(beta)/beta -> 1/2 and every higher mode vanishes
        with pytest.raises(BadParams):
            tm.transformer(0.0)
        w = tm.transformer(1e-8, truncation=8)
        assert abs(w.coeff(1) - 0.5) < 1e-15
        assert w.coeffs[1:].max() < 1e-8
        assert program_iv(0, 1e-8, 8) == pytest.approx(1.0, abs=1e-15)

    def test_i1_of_1_vs_series_oracle(self):
        val, bound = oracles.bessel_series_30(1, 1.0)
        assert bound < 1e-30
        assert abs(program_iv(1, 1.0) - val) < 1e-14
        assert abs(val - 0.5651591039924851) < 1e-15

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 17, 40, 41, 90, 200])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.447, 10.0, 30.0, 50.0])
    def test_relative_error_vs_mpmath(self, order, x):
        ref = mp_iv(order, x)
        got = program_iv(order, x)
        if ref == 0.0 or ref < 1e-280:
            assert got < 1e-270
        else:
            assert abs(got - ref) / ref < 1e-12

    def test_array_consistency(self):
        for x in (0.7, 4.0, 25.0):
            w = tm.transformer(x, truncation=60)
            assert w.truncation == 60
            for ell in (1, 13, 60):
                ref = mp_iv(ell, x)
                if ref > 1e-280:
                    assert abs(x * w.coeff(ell) - ref) / ref < 1e-12
            assert abs(program_iv(0, x, 60) - mp_iv(0, x)) / mp_iv(0, x) < 1e-12

    def test_range_guard(self):
        # the kernel accepts exactly beta in (0, 50]
        assert tm.transformer(50.0).coeff(1) > 0.0
        for beta in (51.0, 50.0 + 1e-9, -1.0, float("nan")):
            with pytest.raises(BadParams):
                tm.transformer(beta)

    def test_log_upper_bound_is_upper(self):
        for ell in (5, 20, 80):
            for x in (0.5, 3.0, 20.0):
                assert np.log(mp_iv(ell, x)) <= _log_bessel_i_upper(ell, x) + 1e-12
        # the certified tail it feeds bounds the discarded modes
        w = tm.transformer(3.0, truncation=16)
        tail = sum(mp_iv(k, 3.0) / 3.0 for k in range(17, 80))
        assert tail <= w.tail_bound(16)


class TestThresholds:
    def test_beta_star_value_and_residual(self):
        bs = tm.beta_star()
        assert 2.4 < bs < 2.5
        assert abs(bs - 2.447) <= 2e-3
        assert abs(mp_iv(2, bs) - 0.5 * mp_iv(1, bs)) <= 1e-10

    def test_r_star_value_and_residual(self):
        rs = tm.r_star()
        assert 2.1 < rs < 2.2
        assert abs(rs - 2.139) <= 2e-3
        assert abs(rs - np.sin(rs) * (2 - np.cos(rs))) <= 1e-10

    def test_bessel_ratio_at_beta_star(self):
        bs = tm.beta_star()
        assert abs(mp_iv(2, bs) / mp_iv(1, bs) - 0.5) < 1e-10
        w = tm.transformer(bs)
        assert abs(w.coeff(2) / w.coeff(1) - 0.5) < 1e-10


class TestDecayLemma:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, None])
    def test_bessel_decay_below_beta_star(self, beta):
        # I_l(beta) <= I_1(beta)/l for beta <= beta*, strict from l = 3,
        # on the kernel's coefficients and on mpmath's values
        if beta is None:
            beta = tm.beta_star()
        coeffs = tm.transformer(beta, truncation=30).coeffs
        for ell in range(1, 31):
            assert coeffs[ell - 1] <= coeffs[0] / ell * (1 + 1e-12)
        for ell in range(3, 31):
            assert coeffs[ell - 1] < coeffs[0] / ell
            assert mp_iv(ell, beta) < mp_iv(1, beta) / ell
        assert tm.check_decay(tm.transformer(beta)).passed
