import math

import numpy as np
import pytest

from delange.errors import LogOfZeroConstantTerm, OrderTooHigh, ParameterOutOfRange, TruncationMismatch
from delange.series import (
    PowerSeries,
    g_lambda_coeffs,
    ps_exp,
    ps_log,
    ps_mul,
    ps_scale,
    shifted_zeta_series,
    z_coeffs,
)
from delange.special import stieltjes

from test_special import gamma0_limit_oracle, gamma1_limit_oracle


def series(*coeffs):
    return PowerSeries(tuple(complex(c) for c in coeffs))


class TestArithmetic:
    def test_mul_telescopes(self):
        a = series(1, 1, 0)  # 1 + X
        b = series(1, -1, 0)  # 1 - X
        assert ps_mul(a, b).coeffs == (1, 0, -1)

    def test_mul_identity(self):
        a = series(1, 1)
        assert ps_mul(a, series(1, 0)).coeffs == a.coeffs

    def test_mul_hand_cauchy_square(self):
        a = series(1, 1, 0.5)  # 1 + X + X^2/2
        assert ps_mul(a, a).coeffs == (1, 2, 2)

    def test_truncation_mismatch(self):
        with pytest.raises(TruncationMismatch):
            ps_mul(series(1, 0), series(1, 0, 0))

    def test_exp_of_zero(self):
        assert ps_exp(series(0, 0, 0)).coeffs == (1, 0, 0)

    def test_exp_series(self):
        got = ps_exp(series(0, 1, 0, 0, 0))
        want = (1, 1, 0.5, 1 / 6, 1 / 24)
        assert np.allclose(got.coeffs, want, atol=1e-15)

    def test_log_mercator(self):
        got = ps_log(series(1, 1, 0, 0))
        want = (0, 1, -0.5, 1 / 3)
        assert np.allclose(got.coeffs, want, atol=1e-15)

    def test_log_needs_nonzero_constant(self):
        with pytest.raises(LogOfZeroConstantTerm):
            ps_log(series(0, 1))

    def test_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            c = rng.normal(size=9) + 1j * rng.normal(size=9)
            c[0] = c[0] + 3.0  # keep the constant term well away from 0
            a = PowerSeries(tuple(c))
            back = ps_exp(ps_log(a))
            assert np.max(np.abs(np.array(back.coeffs) - np.array(a.coeffs))) < 1e-12
            b = PowerSeries(tuple(rng.normal(size=9) + 1j * rng.normal(size=9)))
            back2 = ps_log(ps_exp(b))
            assert np.max(np.abs(np.array(back2.coeffs) - np.array(b.coeffs))) < 1e-12


class TestShiftedZeta:
    def test_constant_term(self):
        assert shifted_zeta_series(6)[0] == 1.0

    def test_first_coefficient_is_gamma0(self):
        assert shifted_zeta_series(6)[1].real == pytest.approx(gamma0_limit_oracle(), abs=1e-10)

    def test_second_coefficient_is_minus_gamma1(self):
        assert shifted_zeta_series(6)[2].real == pytest.approx(-gamma1_limit_oracle(), abs=1e-10)

    def test_order_cap(self):
        with pytest.raises(OrderTooHigh):
            shifted_zeta_series(66)


class TestZCoeffs:
    def test_zero_exponent_is_one(self):
        zc = z_coeffs(0.0, 8)
        assert zc[0] == 1.0
        assert all(c == 0.0 for c in zc.coeffs[1:])

    def test_exponent_one_matches_base(self):
        zc = z_coeffs(1.0, 10)
        base = shifted_zeta_series(10)
        assert np.max(np.abs(np.array(zc.coeffs) - np.array(base.coeffs))) < 1e-14

    def test_exponent_two_matches_hand_square(self):
        zc = z_coeffs(2.0, 10)
        sq = ps_mul(shifted_zeta_series(10), shifted_zeta_series(10))
        assert np.max(np.abs(np.array(zc.coeffs) - np.array(sq.coeffs))) < 1e-12
        assert zc[1].real == pytest.approx(2.0 * stieltjes(0), abs=1e-12)

    def test_bound_on_z(self):
        with pytest.raises(ParameterOutOfRange, match="exceeds the bound 20"):
            z_coeffs(25.0, 8)

    def test_additive_homomorphism(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = z_coeffs(z1 + z2, 12)
            rhs = ps_mul(z_coeffs(z1, 12), z_coeffs(z2, 12))
            assert np.max(np.abs(np.array(lhs.coeffs) - np.array(rhs.coeffs))) < 1e-10

    def test_against_mpmath_taylor(self):
        # Oracle: the Cauchy integral of ((s-1) zeta(s))^z in mpmath at 20
        # digits (at 40 digits the errors below move by under 1%, at four times
        # the cost).  Measured worst over these z and seven others in (0, 4]:
        # 4.4e-16 absolute and 3.7e-12 relative (a coefficient near 2e-7); the
        # bounds leave 4.5x and 5.4x.
        import mpmath

        rng = np.random.default_rng(23)
        for z in 4.0 - 4.0 * rng.random(3):  # in (0, 4]
            with mpmath.workdps(20):
                ref = mpmath.taylor(
                    lambda s: ((s - 1) * mpmath.zeta(s)) ** z, 1, 12, method="quad", radius=1
                )
            got = z_coeffs(z, 12)
            for j in range(13):
                err = abs(got[j] - complex(ref[j]))
                assert err <= 2e-15 and err <= 2e-11 * abs(complex(ref[j])), (z, j)

    def test_growth_bound(self):
        rng = np.random.default_rng(17)
        growth = 1.25 ** np.arange(61)
        worst = 0.0
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) > 2:
                continue
            entries = np.abs(np.array(z_coeffs(z, 60).coeffs))
            worst = max(worst, float(np.max(entries / growth)))
        assert worst <= 10.0


class TestExpansionCoefficients:
    def test_constant_one(self, fam_one):
        co = g_lambda_coeffs(fam_one, 20)
        assert co.lambda_l[0] == 1.0
        assert all(co.lambda_l[l] == 0.0 for l in range(1, 21))

    def test_divisor_two(self, fam_div2):
        co = g_lambda_coeffs(fam_div2, 8)
        assert abs(co.lambda_l[0] - 1.0) < 1e-10
        assert abs(co.lambda_l[1] - 2.0 * stieltjes(0)) < 1e-10
        assert all(co.lambda_l[l] == 0.0 for l in range(2, 9))

    def test_lambda_vanishing_at_integer_kappa(self):
        from delange.families import builtin_family

        for m in (1, 2, 3):
            fam = builtin_family("divisor_kappa", float(m))
            co = g_lambda_coeffs(fam, 10)
            assert all(co.lambda_l[l] == 0.0 for l in range(m, 11))
            assert co.lambda_l[m - 1] != 0.0

    def test_squarefree_density(self, fam_sqfree):
        co = g_lambda_coeffs(fam_sqfree, 8)
        assert co.lambda_l[0].real == pytest.approx(6.0 / math.pi**2, abs=1e-6)

    def test_lambda_matches_recip_gamma_product(self, fam_sqfree):
        from delange.special import recip_gamma

        co = g_lambda_coeffs(fam_sqfree, 8)
        for l in range(9):
            assert co.lambda_l[l] == co.g_l[l] * recip_gamma(co.kappa - l)


def test_ps_scale():
    assert ps_scale(PowerSeries((1, 2, 3)), 2.0).coeffs == (2, 4, 6)
