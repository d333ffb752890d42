import dataclasses
import math

import numpy as np
import pytest

from delange.errors import (
    DuplicatePrime,
    NonconvergentProduct,
    ParameterOutOfRange,
    UnknownFamily,
)
from delange.families import (
    LocalModel,
    _tail_integrals,
    builtin_family,
    euler_product_value,
    f_value,
    family_from_spec,
    g_series_by_euler_product,
)
from delange.series import g_lambda_coeffs
from delange.sieve import primes_up_to
from delange.special import zeta

N_SCAN = 10**6


def reference_f_arrays():
    """Independent constructions of d_2, mu^2, omega over [1, N_SCAN]."""
    n = N_SCAN
    d2 = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        d2[i::i] += 1
    sqfree = np.ones(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n).tolist():
        omega[p::p] += 1
        q = p * p
        if q <= n:
            sqfree[q::q] = 0
    return d2, sqfree, omega


@pytest.fixture(scope="module")
def f_refs():
    return reference_f_arrays()


class TestBuiltins:
    def test_divisor_local_values(self, fam_div2):
        assert [f_value(fam_div2, [(2, a)]).real for a in (1, 2, 3)] == [2.0, 3.0, 4.0]

    def test_squarefree_local_values(self, fam_sqfree):
        assert f_value(fam_sqfree, [(5, 1)]) == 1.0
        assert f_value(fam_sqfree, [(5, 2)]) == 0.0

    def test_omega_power_value(self, fam_omega2):
        assert f_value(fam_omega2, [(2, 2), (3, 1)]) == 4.0  # 12 = 2^2*3, omega = 2

    @pytest.mark.parametrize("param", [0.5, 1.5, 2.5, 3.7])
    def test_local_factor_at_a_prime_is_prime_local_value(self, param):
        # the sieve multiplies struck primes by local_factor(p, 1) and prime
        # cofactors by prime_local_value; f(p) must not depend on which
        fams = [builtin_family("divisor_kappa", param), builtin_family("omega_power", param),
                builtin_family("constant_one"), builtin_family("squarefree_omega_power")]
        for fam in fams:
            for p in (2, 3, 4099, 999_983):
                assert fam.local_factor(p, 1) == fam.prime_local_value, (fam.name, param, p)

    @pytest.mark.parametrize("kappa", [0.5, 1.5, 2.5, 3.7])
    def test_divisor_local_factor_is_the_binomial(self, kappa):
        import mpmath

        lf = builtin_family("divisor_kappa", kappa).local_factor
        for a in range(1, 40):
            want = float(mpmath.binomial(mpmath.mpf(kappa) + a - 1, a))
            assert lf(7, a).real == pytest.approx(want, rel=1e-14)

    def test_f_at_one_is_empty_product(self, fam_div2):
        assert f_value(fam_div2, []) == 1.0

    def test_divisor_count_at_12(self, fam_div2):
        assert f_value(fam_div2, [(2, 2), (3, 1)]).real == 6.0

    def test_mu_squared_at_12(self, fam_sqfree):
        assert f_value(fam_sqfree, [(2, 2), (3, 1)]) == 0.0

    def test_duplicate_prime(self, fam_div2):
        with pytest.raises(DuplicatePrime):
            f_value(fam_div2, [(2, 1), (2, 2)])

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            builtin_family("liouville")

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            builtin_family("omega_power", -1.0)
        with pytest.raises(ParameterOutOfRange):
            builtin_family("omega_power", complex(1, 1))
        with pytest.raises(ParameterOutOfRange):
            builtin_family("divisor_kappa")

    def test_spec_parsing(self):
        assert family_from_spec("divisor:2").parameter == 2.0
        assert family_from_spec("sqfree").name == "squarefree_omega_power"
        assert family_from_spec("omega:3").parameter == 3.0
        assert family_from_spec("one").name == "constant_one"
        with pytest.raises(UnknownFamily):
            family_from_spec("nope:1")
        with pytest.raises(ParameterOutOfRange):
            family_from_spec("sqfree:2")


class TestBackgroundSeries:
    def test_trivial_background_is_exact_one(self, fam_one, fam_div2):
        for fam in (fam_one, fam_div2):
            s, bound = g_series_by_euler_product(fam, 6)
            assert s.coeffs == (1.0,) + (0.0,) * 6
            assert bound == 0.0

    def test_omega_one_background_is_one(self):
        s, _ = g_series_by_euler_product(builtin_family("omega_power", 1.0), 6)
        assert s.coeffs == (1.0,) + (0.0,) * 6

    def test_squarefree_constant_term(self, fam_sqfree):
        s, bound = g_series_by_euler_product(fam_sqfree, 8)
        assert abs(s[0].real - 6.0 / math.pi**2) < bound + 1e-9
        assert abs(s[0].real - 6.0 / math.pi**2) < 1e-6

    def test_cutoff_floor(self, fam_sqfree):
        with pytest.raises(ParameterOutOfRange):
            g_series_by_euler_product(fam_sqfree, 4, prime_cutoff=100)

    def test_cutoff_past_the_sieve_reach(self, fam_sqfree):
        # refused before the prime mask (one byte per integer) is allocated
        with pytest.raises(ParameterOutOfRange):
            g_series_by_euler_product(fam_sqfree, 4, prime_cutoff=10**12)
        with pytest.raises(ParameterOutOfRange):
            euler_product_value(fam_sqfree, 2.0, prime_cutoff=10**12)

    def test_tail_vector_against_mpmath(self):
        import mpmath

        worst = 0.0
        with mpmath.workdps(40):
            for m in (2, 3):
                for cutoff in (10**3, 10**5, 10**7, 10**8):
                    x0 = (m - 1) * mpmath.log(cutoff)
                    want = [mpmath.e1(x0)] + [
                        mpmath.gammainc(k, x0) / (m - 1) ** k for k in range(1, 66)
                    ]
                    got = _tail_integrals(m, 65, cutoff).tolist()
                    worst = max(worst, max(float(abs(g - w) / w) for g, w in zip(got, want)))
        assert worst <= 5e-15

    def test_squarefree_g_against_taylor_oracle(self, fam_sqfree):
        # g_l of mu^2 is the Taylor data of (s-1) zeta(s) / zeta(2s) at s = 1;
        # the li-density tail past the prime cutoff leaves about 2e-7 at l = 2
        # and grows with l (README, numerical contracts)
        import mpmath

        ref = mpmath.taylor(
            lambda s: (s - 1) * mpmath.zeta(s) / mpmath.zeta(2 * s), 1, 2, method="quad", radius=0.5
        )
        g = g_lambda_coeffs(fam_sqfree, 8).g_l
        for l in range(3):
            assert abs(g[l] - complex(ref[l])) <= 1e-6, l

    def test_constant_term_stabilizes_under_cutoff_doubling(self, fam_sqfree, fam_omega2):
        for fam in (fam_sqfree, fam_omega2):
            s1, b1 = g_series_by_euler_product(fam, 6, 10_000)
            s2, _ = g_series_by_euler_product(fam, 6, 20_000)
            assert abs(s1[0] - s2[0]) < b1

    def test_cache_follows_the_local_model(self, fam_omega2):
        # a family replaced with another local model under the same name and
        # parameter must not get the cached omega:2 series back
        stale, _ = g_series_by_euler_product(fam_omega2, 8)
        fam = dataclasses.replace(
            builtin_family("omega_power", 2.0), local_model=LocalModel(a=0.5, c=0.5)
        )
        fresh, bound = g_series_by_euler_product(fam, 8)
        assert abs(fresh[0] - euler_product_value(fam, 1.0)) < 1e-5
        assert abs(fresh[0] - stale[0]) > 0.1

    def test_divergent_local_model_rejected(self):
        with pytest.raises(NonconvergentProduct):
            LocalModel(a=1.0, c=0.0, w2=0.0).log_u_coeffs(10)

    def test_series_matches_pointwise_product_off_center(self, fam_sqfree, fam_omega2):
        # evaluate the Taylor data away from s = 1 and compare against the
        # pointwise truncated product (an entirely separate evaluation route);
        # the pointwise side is itself tail-limited by sum_{p>P} p^(-2s)
        cutoff = 100_000
        lnp = math.log(cutoff)
        for fam in (fam_sqfree, fam_omega2):
            s16, _ = g_series_by_euler_product(fam, 16)
            for h in (0.05, 0.1, -0.08):
                s = 1.0 + h
                series_val = sum(c * h**j for j, c in enumerate(s16.coeffs))
                point_val = euler_product_value(fam, s, cutoff)
                point_tail = cutoff ** (1.0 - 2.0 * s) / ((2.0 * s - 1.0) * lnp)
                tol = 3.0 * point_tail + 1e-9
                assert abs(series_val - point_val) < tol * abs(point_val), (fam.name, h)


class TestTypePConditions:
    def test_pointwise_growth_condition(self, f_refs):
        d2, sqfree, omega = f_refs
        n = np.arange(1, N_SCAN + 1, dtype=np.float64)
        scale = n**0.1
        for arr in (d2, sqfree, 2.0**omega):
            fitted = float(np.max(np.abs(arr[1:]) / scale))
            assert fitted <= 100.0

    def test_dirichlet_partial_sum_growth(self, f_refs):
        d2, sqfree, omega = f_refs
        n = np.arange(1, N_SCAN + 1, dtype=np.float64)
        cases = [
            (d2[1:], 2.0),
            (sqfree[1:], 1.0),
            ((2.0**omega)[1:], 2.0),
        ]
        for arr, alpha in cases:
            for sigma in (1.05, 1.1, 1.2):
                s = float(np.sum(np.abs(arr) * n**-sigma))
                assert s * (sigma - 1.0) ** alpha <= 100.0

    def test_factorization_decomposition_identity(self, fam_one, fam_div2, fam_sqfree):
        # closed_form_F(s) = G_euler(s) * zeta(s)^kappa * zeta(2s)^-w on [1.5, 3]
        for fam in (fam_one, fam_div2, fam_sqfree):
            for s in (1.5, 2.0, 3.0):
                kappa, w = fam.params.kappa, complex(fam.params.w)
                lhs = complex(fam.closed_form_F(np.array([complex(s)]))[0])
                g_val = euler_product_value(fam, s)  # includes the zeta(2s)^-w part
                rhs = g_val * zeta(s) ** kappa
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs), (fam.name, s, w)

    def test_omega_product_against_background(self, fam_omega2):
        # direct Euler product of F against G_euler * zeta^z at s = 2, with the
        # truncation allowance of the direct product
        s = 2.0
        ps = primes_up_to(100_000).astype(np.float64)
        u = ps**-s
        lhs = float(np.exp(np.sum(np.log1p(2.0 * u / (1.0 - u)))))
        rhs = (euler_product_value(fam_omega2, s) * zeta(s) ** 2).real
        assert abs(lhs - rhs) / rhs < 5e-6
