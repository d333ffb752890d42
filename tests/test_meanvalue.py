import math
from unittest import mock

import pytest

from delange import sieve
from delange.errors import (
    InvalidWindow,
    LindelofRequiresDeltaAboveOne,
    OrderExceedsCoefficients,
    ParameterOutOfRange,
)
from delange.meanvalue import (
    REGIME_TAGS,
    RemainderParams,
    ThetaRegime,
    predict,
    remainder_bound,
    remainder_value,
    run_experiment,
    short_windows,
    theta,
    theta_prior_bound,
)
from delange.families import family_from_spec
from delange.series import g_lambda_coeffs
from delange.sieve import Window
from delange.special import stieltjes

KAPPA_GRID = (0.5, 1.0, 2.0, 5.0, 7.2, 10.0, 20.0)
DELTA_GRID = (0.0, 1.0, 2.0, 5.0)


class TestPredict:
    def test_constant_one_is_exactly_y(self, fam_one):
        co = g_lambda_coeffs(fam_one, 12)
        for n_exp in (0, 1, 3, 7):
            for x, y in ((10**4, 10**3), (10**7, 10**5)):
                assert predict(co, Window(x, y), n_exp) == complex(y)

    def test_divisor_main_term(self, fam_div2):
        co = g_lambda_coeffs(fam_div2, 8)
        x, y = 10**7, 10**5
        got = predict(co, Window(x, y), 1)
        want = y * (math.log(x) + 2.0 * stieltjes(0))
        assert got.real == pytest.approx(want, rel=1e-12)
        assert got.real == pytest.approx(1.72725e6, rel=1e-5)

    def test_divisor_saturates_at_order_one(self, fam_div2):
        co = g_lambda_coeffs(fam_div2, 8)
        win = Window(10**7, 10**5)
        assert predict(co, win, 1) == predict(co, win, 5)

    def test_squarefree_density_prediction(self, fam_sqfree):
        co = g_lambda_coeffs(fam_sqfree, 8)
        got = predict(co, Window(10**6, 10**4), 0)
        assert got.real == pytest.approx(6.0 / math.pi**2 * 10**4, rel=1e-6)
        assert got.real == pytest.approx(6079.27, abs=0.01)

    def test_order_cap(self, fam_one):
        co = g_lambda_coeffs(fam_one, 4)
        with pytest.raises(OrderExceedsCoefficients):
            predict(co, Window(10**6, 10**3), 5)

    def test_expansion_needs_log_x(self, fam_one):
        co = g_lambda_coeffs(fam_one, 10)
        with pytest.raises(ValueError):
            predict(co, Window(100, 10), 8)  # log(100) < 9


class TestRemainder:
    def test_termwise_example(self):
        # N = 0, y = x = e^10, M = 1, a1 = a2 = 1, lambda_0 = 1
        x = math.exp(10.0)
        got = remainder_value([1.0], x, x, 0, RemainderParams(a1=1.0, a2=1.0, M=1.0))
        want = 1.0 / 10.0 + math.exp(-5.0) + (1.0 / 10.0 + math.exp(-10.0 / math.log(10.0)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_decays_in_x(self, fam_div2):
        co = g_lambda_coeffs(fam_div2, 6)
        vals = [
            remainder_bound(co, Window(10**k, 10**3), 1)
            for k in (5, 6, 7, 8)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_m_zero_isolates_sqrt_term(self, fam_one):
        co = g_lambda_coeffs(fam_one, 4)
        x = 10**8
        rp = RemainderParams(a1=1.0, a2=1.0, M=1e-300)
        got = remainder_bound(co, Window(x, 2), 0)
        got_iso = remainder_value([1.0], float(x), 2.0, 0, rp)
        # with y/x and M negligible the a1 term dominates: (a1*0+1)^1/sqrt(x)
        assert got_iso == pytest.approx(1.0 / math.sqrt(x), rel=1e-4)
        assert got > got_iso

    @pytest.mark.parametrize(
        "kw",
        [dict(a1=math.nan), dict(a1=math.inf), dict(a2=math.nan), dict(a2=-math.inf),
         dict(M=math.inf), dict(M=math.nan)],
    )
    def test_non_finite_constant_is_typed_error(self, kw):
        with pytest.raises(ParameterOutOfRange, match="must be finite"):
            RemainderParams(**kw)

    def test_sign_checks_unchanged(self):
        for kw in (dict(a1=0.0), dict(a2=-1.0), dict(M=-1e-300)):
            with pytest.raises(ValueError, match="a1, a2 must be positive"):
                RemainderParams(**kw)


class TestRunExperiment:
    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
    def test_non_finite_grid_point_is_typed_error(self, fam_one, x):
        with pytest.raises(InvalidWindow, match="must be finite"):
            run_experiment(fam_one, [10**4, x], 0.8, 0)

    def test_grid_point_past_64_bits_is_typed_error(self, fam_one):
        # x^theta of this x overflows a double, so x is checked first
        with pytest.raises(InvalidWindow, match="64-bit"):
            run_experiment(fam_one, [10**400], 0.8, 0)

    def test_records_match_one_exact_sum_per_window(self):
        # the base primes are sieved once, for the largest x + y of the grid
        fam = family_from_spec("divisor:1.5")
        grid = [10**7, 4 * 10**6, 9 * 10**8, 10**5]
        with mock.patch.object(sieve, "primes_up_to", wraps=sieve.primes_up_to) as spy:
            records = run_experiment(fam, grid, 0.6, 1, workers=2)
        assert spy.call_count == 1
        for rec, win in zip(records, short_windows(grid, 0.6)):
            assert (rec.x, rec.y) == (win.x, win.y)
            assert rec.exact == sieve.exact_sum(fam, win)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused_before_sieving(self, fam_one, workers):
        with mock.patch.object(sieve, "primes_up_to", side_effect=AssertionError("sieved")):
            with pytest.raises(ParameterOutOfRange, match="workers"):
                run_experiment(fam_one, [10**4], 0.8, 0, workers=workers)


class TestShortWindows:
    def test_y_is_the_ceiling_of_x_to_theta(self):
        got = short_windows([10**6, 10**4 + 1], 0.5)
        assert got == [Window(10**6, 1000), Window(10**4 + 1, 101)]

    @pytest.mark.parametrize("texp", [0.0, -1.0, 1.5, math.inf, math.nan])
    def test_exponent_outside_zero_one_is_refused_even_for_an_empty_grid(self, texp):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            short_windows([], texp)

    def test_height_is_checked_before_the_power(self):
        with pytest.raises(InvalidWindow, match="64-bit"):
            short_windows([10**400], 0.5)


class TestTheta:
    def test_case1_spot_value(self):
        r = theta(1.0, 0.0, ThetaRegime(eta1=1.0 / 3.0, epsilon=0.01))
        assert r.value == pytest.approx(7.55 / 12.05, abs=1e-12)
        assert r.branch == "case1"

    def test_case2_epsilon_limit(self):
        r = theta(10.0, 0.0, ThetaRegime(eta1=1.0 / 3.0, epsilon=1e-12))
        assert r.value == pytest.approx(0.7, abs=1e-10)
        assert r.branch == "case2"

    def test_boundary_ties_to_case1(self):
        r = theta(7.2, 0.0, ThetaRegime(eta1=1.0 / 3.0, epsilon=0.01))
        assert r.branch == "case1"
        r2 = theta(7.2 + 1e-9, 0.0, ThetaRegime(eta1=1.0 / 3.0, epsilon=0.01))
        assert r2.branch == "case2"

    def test_prior_bound_spot(self):
        assert theta_prior_bound(1.0, 0.0) == pytest.approx(26.0 / 41.0, abs=1e-15)

    def test_zero_density_regime(self):
        reg = ThetaRegime(tag="zero_density_hypothesis", eta1=1.0 / 3.0, epsilon=0.01)
        r = theta(1.0, 0.0, reg)
        assert r.value == pytest.approx((1.0 + 0.11) / 2.01, abs=1e-12)
        assert r.branch == "case1"
        r2 = theta(7.0, 0.0, reg)  # 7 > 2/eta1 = 6
        assert r2.branch == "case2"
        assert r2.value == pytest.approx((7.0 / 3.0 - 1.0 + 0.11) / (7.0 / 3.0 + 0.01), abs=1e-12)

    def test_zero_density_boundary_ties_to_case1(self):
        reg = ThetaRegime(tag="zero_density_hypothesis", eta1=0.25, epsilon=0.01)
        assert theta(8.0, 0.0, reg).branch == "case1"  # 2/eta1 exactly
        assert theta(8.0 + 1e-9, 0.0, reg).branch == "case2"

    def test_lindelof_regime(self):
        reg = ThetaRegime(tag="lindelof_halasz_turan", epsilon=0.01)
        r = theta(1.0, 2.0, reg)
        assert r.value == pytest.approx((2.0 - 1.0 + 0.02 + 0.13) / (2.0 + 0.02 + 0.03), abs=1e-12)
        assert r.branch == "lindelof"
        with pytest.raises(LindelofRequiresDeltaAboveOne):
            theta(1.0, 1.0, reg)

    def test_monotone_in_delta(self):
        for tag in ("unconditional_huxley", "zero_density_hypothesis"):
            reg = ThetaRegime(tag=tag)
            for kappa in KAPPA_GRID:
                vals = [theta(kappa, d, reg).value for d in DELTA_GRID]
                assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        reg = ThetaRegime(tag="lindelof_halasz_turan")
        vals = [theta(1.0, d, reg).value for d in (1.5, 2.0, 3.0, 5.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_case2_monotone_in_kappa(self):
        reg = ThetaRegime()
        vals = [theta(k, 1.0, reg).value for k in (8.0, 10.0, 15.0, 20.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_always_a_short_interval_exponent(self):
        for tag in ("unconditional_huxley", "zero_density_hypothesis"):
            reg = ThetaRegime(tag=tag, epsilon=0.01)
            for kappa in KAPPA_GRID:
                for delta in DELTA_GRID:
                    v = theta(kappa, delta, reg).value
                    assert 0.0 < v < 1.0

    def test_improvement_in_vanishing_epsilon_limit(self):
        # the strict improvement over the prior threshold holds cellwise as
        # eps -> 0; criterion 4 in the acceptance suite asserts the same and
        # that theta increases in eps, and only reports the eps = 0.01 sweep.
        # In case 1 the margin is 25*kappa / ((5k+15d+36)(5d+12)) less the
        # eps term, about eps*(250d+625)/(5d+12)^2 <= 5e-9 here.
        reg = ThetaRegime(eta1=1.0 / 3.0, epsilon=1e-9)
        for kappa in KAPPA_GRID:
            for delta in DELTA_GRID:
                r = theta(kappa, delta, reg)
                margin = theta_prior_bound(kappa, delta) - r.value
                assert margin > 0
                if r.branch == "case1":
                    expected = 25.0 * kappa / ((5 * kappa + 15 * delta + 36) * (5 * delta + 12))
                    assert margin == pytest.approx(expected, abs=1e-8)

    def test_subconvexity_eta1(self):
        # sharper zeta growth exponent: the case boundary 12/(5 eta1) moves
        # right and case-2 thresholds drop
        bourgain = 13.0 / 84.0 + 1e-3
        hardy = ThetaRegime(eta1=1.0 / 3.0, epsilon=0.01)
        sharp = ThetaRegime(eta1=bourgain, epsilon=0.01)
        assert theta(10.0, 0.0, hardy).branch == "case2"
        assert theta(10.0, 0.0, sharp).branch == "case1"  # 10 < 12/(5*0.1558)
        assert theta(30.0, 0.0, sharp).branch == "case2"
        assert theta(30.0, 0.0, sharp).value < theta(30.0, 0.0, hardy).value

    @pytest.mark.parametrize(
        "kappa, delta",
        [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_input_is_typed_error(self, kappa, delta):
        for tag in REGIME_TAGS:
            with pytest.raises(ParameterOutOfRange, match="finite"):
                theta(kappa, delta, ThetaRegime(tag=tag))

    def test_sign_checks_unchanged(self):
        with pytest.raises(ValueError, match="positive"):
            theta(0.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            theta(1.0, -0.5)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            ThetaRegime(tag="riemann_hypothesis")
        with pytest.raises(ValueError):
            ThetaRegime(eta1=0.4)
        with pytest.raises(ValueError):
            ThetaRegime(epsilon=0.2)


class TestExperiments:
    def test_constant_one_counts(self, fam_one):
        records = run_experiment(fam_one, [10**4, 10**6], 0.7, 0)
        assert [r.x for r in records] == [10**4, 10**6]
        for r in records:
            assert r.y == math.ceil(r.x**0.7)
            assert r.rel_error <= 1.0 / r.y

    def test_divisor_order_one_improves(self, fam_div2):
        r0 = run_experiment(fam_div2, [10**6], 0.8, 0)[0]
        r1 = run_experiment(fam_div2, [10**6], 0.8, 1)[0]
        assert r1.rel_error < r0.rel_error

    def test_squarefree_accuracy(self, fam_sqfree):
        r = run_experiment(fam_sqfree, [10**6], 0.8, 0)[0]
        assert r.rel_error <= 0.01

    def test_remainder_envelope(self, fam_div2):
        co = g_lambda_coeffs(fam_div2, 6)
        rp = RemainderParams(a1=1.0, a2=0.5, M=1.0)
        for n_exp in (0, 1):
            for rec in run_experiment(fam_div2, [10**5, 10**6], 0.8, n_exp, rp=rp):
                win = Window(rec.x, rec.y)
                scale = rec.y * math.log(rec.x) ** (co.kappa - 1.0)
                lhs = abs(rec.exact - rec.predicted) / scale
                assert lhs <= 50.0 * remainder_bound(co, win, n_exp, rp)
