import cmath
import dataclasses
import math

import numpy as np
import pytest

from delange import perron
from delange.errors import (
    DuplicatePrime,
    NonconvergentProduct,
    OrderTooHigh,
    ParameterOutOfRange,
    UnknownFamily,
)
from delange.families import (
    LocalModel,
    _background,
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


def cauchy_taylor(f, order: int, radius: float, nodes: int) -> list[complex]:
    """Taylor coefficients of f at s = 1 by the trapezoid rule on |s - 1| = radius,
    in mpmath at the working precision."""
    import mpmath

    vals = [f(1 + radius * mpmath.expjpi(mpmath.mpf(2 * k) / nodes)) for k in range(nodes)]
    return [
        complex(mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(-2 * k * l) / nodes) for k, v in enumerate(vals))
                / (nodes * mpmath.mpf(radius) ** l))
        for l in range(order + 1)
    ]


def omega_background_oracle(z: float, s):
    """G(s) of z^omega(n) from mpmath: the exact local factors
    (1 + a p^-s)(1 - p^-s)^a, a = z - 1, for p < p0, and for the rest
    exp(sum_m d_m (primezeta(ms) - sum_{p<p0} p^-ms)) with
    d_m = -((-a)^m + a)/m.  p0 puts |a| p0^-Re s below 1/8, so the m-series
    converges like 8^-m; over all primes it diverges at s = 1 once |a| >= 2.
    The difference primezeta(ms) - sum_{p<p0} p^-ms is near p0^-m Re s but
    is formed from terms near 2^-m Re s, so the working precision grows by
    log10(|a| 2^-Re s) digits per term."""
    import mpmath

    a = mpmath.mpf(z) - 1
    sigma = float(mpmath.re(s))
    p0 = max(30, math.ceil((8 * max(abs(z - 1), 1)) ** (1 / sigma)))
    terms = math.ceil(math.log(1e-20) / math.log(max(abs(z - 1), 1e-3) / p0**sigma))
    digits = 20 + math.ceil(terms * math.log10(max(abs(z - 1) / 2**sigma, 1)))
    small = [int(p) for p in primes_up_to(p0 - 1)]
    with mpmath.workdps(max(mpmath.mp.dps, digits)):
        val = mpmath.mpf(1)
        for p in small:
            u = mpmath.power(p, -s)
            val *= (1 + a * u) * (1 - u) ** a
        tail = mpmath.mpf(0)
        for m in range(2, terms + 1):
            rest = mpmath.primezeta(m * s) - mpmath.fsum(mpmath.power(p, -m * s) for p in small)
            tail += -((-a) ** m + a) / m * rest
        return val * mpmath.exp(tail)


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

    @pytest.mark.parametrize("name", ["divisor_kappa", "omega_power"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, complex(1, math.inf)])
    def test_non_finite_parameter_is_refused(self, name, value):
        with pytest.raises(ParameterOutOfRange, match="finite"):
            builtin_family(name, value)

    @pytest.mark.parametrize("spec", ["divisor:inf", "omega:nan", "divisor:-inf"])
    def test_non_finite_spec_is_refused(self, spec):
        with pytest.raises(ParameterOutOfRange, match="finite"):
            family_from_spec(spec)

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

    def test_squarefree_g_against_taylor_oracle(self, fam_sqfree, fam_omega2):
        # g_l is the Taylor data of ((s-1) zeta(s))^kappa / zeta(2s) at s = 1
        # for mu^2 (kappa = 1) and for 2^omega (kappa = 2); the oracle is
        # mpmath's zeta at 30 digits on |s - 1| = 1, where the trapezoid rule's
        # aliasing is 2^-64 (mpmath.taylor(method='quad') gives the same
        # doubles but takes 30 s)
        import mpmath

        for fam in (fam_sqfree, fam_omega2):
            kappa = fam.params.kappa
            with mpmath.workdps(30):
                ref = cauchy_taylor(
                    lambda s: ((s - 1) * mpmath.zeta(s)) ** kappa / mpmath.zeta(2 * s), 24, 1, 64
                )
            g = g_lambda_coeffs(fam, 24).g_l
            for l in range(25):
                assert abs(g[l] - ref[l]) <= 1e-8 * abs(ref[l]), (fam.name, l)

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.0])
    def test_omega_background_against_primezeta_oracle(self, z):
        import mpmath

        fam = builtin_family("omega_power", z)
        with mpmath.workdps(30):
            for s in (1.0, 1.5, 2.0, 3.0):
                want = complex(omega_background_oracle(z, s))
                assert abs(euler_product_value(fam, s) - want) <= 1e-12 * abs(want), s
            # aliasing (0.02/0.5)^8 = 7e-12 on the radius-0.5 series
            ref = cauchy_taylor(lambda s: omega_background_oracle(z, s), 3, 0.02, 8)
        series, _ = g_series_by_euler_product(fam, 3)
        for l in range(4):
            assert abs(series[l] - ref[l]) <= 1e-9 * abs(ref[l]), l

    @pytest.mark.parametrize("z, bound", [(6.0, 3e-11), (10.0, 1e-9)])
    def test_large_z_background_near_the_left_of_the_circle(self, z, bound):
        # the series circle |s - 1| = 0.4 reaches Re s = 0.6, where e_q ~ (z-1)^q/q
        # multiplies the rounding of every zeta(qs) route; measured 3.0e-12
        # (z = 6) and 1.5e-10 (z = 10), where 1e-9 is the engine's own limit
        fam = builtin_family("omega_power", z)
        for s in (0.6, 1 + 0.4 * cmath.exp(2j * math.pi * 120 / 256)):
            want = complex(omega_background_oracle(z, s))
            assert abs(euler_product_value(fam, s) - want) <= bound * abs(want), s

    def test_z_past_the_double_precision_reach_is_refused(self):
        # omega:20 would lose all but a few digits on the series circle
        g_series_by_euler_product(family_from_spec("omega:11"), 4)
        with pytest.raises(ParameterOutOfRange, match="estimated error"):
            g_series_by_euler_product(family_from_spec("omega:20"), 4)
        with pytest.raises(ParameterOutOfRange, match="estimated error"):
            euler_product_value(family_from_spec("omega:1000"), 1.0)

    def test_every_order_up_to_the_stieltjes_limit_fits_the_circle(self):
        for spec in ("sqfree", "omega:2", "omega:0.5", "omega:1.5", "omega:3"):
            series, err = g_series_by_euler_product(family_from_spec(spec), 65)
            assert series.order == 65 and math.isfinite(err), spec
        # every order sits below half the node count, so dropping every other
        # node measures aliasing and rounding, never a wrapped-around order;
        # measured 2.1e-13 (sqfree) and 4.2e-8 |g_65| (omega:1.5)
        _, err = g_series_by_euler_product(family_from_spec("sqfree"), 65)
        assert err < 1e-12
        series, err = g_series_by_euler_product(family_from_spec("omega:1.5"), 65)
        assert err < 1e-6 * abs(series[65])
        with pytest.raises(OrderTooHigh):
            g_series_by_euler_product(family_from_spec("sqfree"), 128)
        for spec in ("one", "sqfree", "omega:1.5"):
            with pytest.raises(ParameterOutOfRange, match="J=-1"):
                g_series_by_euler_product(family_from_spec(spec), -1)

    def test_split_at_p0_needs_re_s_above_one_half(self, fam_sqfree):
        with pytest.raises(ParameterOutOfRange, match="Re s > 1/2"):
            euler_product_value(builtin_family("omega_power", 1.5), 0.5)
        # 1/zeta(2s) is evaluated wherever zeta(2s) is
        assert euler_product_value(fam_sqfree, 0.2) == pytest.approx(1.0 / zeta(0.4), rel=1e-14)

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

    @pytest.mark.parametrize("coeffs", [dict(a=0.5j), dict(c=1 + 1e-9j), dict(w2=-1j)])
    def test_complex_local_model_rejected(self, coeffs):
        # the Taylor data mirror the upper half of the circle, B(conj s) = conj B(s)
        with pytest.raises(ParameterOutOfRange, match="real"):
            LocalModel(**coeffs)

    def test_series_matches_pointwise_product_off_center(self, fam_sqfree, fam_omega2):
        # evaluate the Taylor data away from s = 1 and compare against the
        # pointwise zeta product (no DFT on that side); the order-24 remainder
        # is below 1e-16 at |h| <= 0.1 inside either radius of convergence
        for fam in (fam_sqfree, fam_omega2, builtin_family("omega_power", 1.5)):
            s24, _ = g_series_by_euler_product(fam, 24)
            for h in (0.05, 0.1, -0.08):
                s = 1.0 + h
                series_val = sum(c * h**j for j, c in enumerate(s24.coeffs))
                point_val = euler_product_value(fam, s)
                assert abs(series_val - point_val) < 1e-12 * abs(point_val), (fam.name, h)

    @pytest.mark.parametrize("z", [0.5, 3.0])
    def test_background_on_a_perron_panel(self, grid_calls, z):
        # the (21, 300) nodes of 300 of the T = 1000 line's uniform Gauss-Kronrod
        # panels, as the panel engine hands them to the closed form
        b = 1.0 + perron.DEFAULT_B_OFFSET / math.log(1e5)
        edges = perron._line_edges(1000.0, perron.DEFAULT_QUADRATURE)[1][100:401]
        nodes = []
        perron._panel_pair(lambda t: nodes.append(t) or np.zeros_like(t), edges)
        s = b + 1j * nodes[0]
        assert s.shape == (21, 300)
        model = builtin_family("omega_power", z).local_model
        panel = _background(model, s)
        # zeta(2s) and zeta(3s), then the prime powers, each on the factored matmul
        assert sorted(round(args[0] / b, 12) for args in grid_calls) == [1.0, 2.0, 3.0]
        flat = _background(model, s.reshape(-1)).reshape(s.shape)
        assert len(grid_calls) == 3
        assert np.max(np.abs(panel - flat) / np.abs(flat)) <= 1e-12

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.0])
    def test_omega_closed_form_against_primezeta_oracle(self, z):
        import mpmath

        fam = builtin_family("omega_power", z)
        with mpmath.workdps(30):
            for s in (1.5, 2.0, 3.0):
                want = complex(omega_background_oracle(z, s) * mpmath.zeta(s) ** z)
                got = complex(fam.closed_form_F(np.array([complex(s)]))[0])
                assert abs(got - want) <= 1e-12 * abs(want), s


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
        omegas = [builtin_family("omega_power", z) for z in (0.5, 1.5, 3.0)]
        for fam in (fam_one, fam_div2, fam_sqfree, *omegas):
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
