import cmath
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delange import special
from delange.errors import OrderTooHigh, OutOfValidatedRange, PoleAtOne
from delange.special import (
    RS_SIGMA_MAX,
    RS_T_MIN,
    SIGMA_MIN,
    TAU_MAX,
    ZETA_ABS_TOL,
    recip_gamma,
    stieltjes,
    zeta,
    zeta_batch,
)

FIRST_ZERO_ORDINATE = 14.134725  # standard table value, 6 decimals


def zeta2_series_oracle() -> float:
    """Direct series sum to 1e8 terms plus the integral-tail correction."""
    K = 10**8
    parts = []
    for lo in range(1, K + 1, 10**7):
        n = np.arange(lo, min(K + 1, lo + 10**7), dtype=np.float64)
        parts.append(float(np.sum(1.0 / (n * n))))
    tail = 1.0 / K - 1.0 / (2.0 * K * K) + 1.0 / (6.0 * K**3)
    return math.fsum(parts) + tail


def gamma0_limit_oracle() -> float:
    """Euler-Maclaurin corrected lim (sum 1/k - log m)."""
    m = 2 * 10**6
    k = np.arange(1, m + 1, dtype=np.float64)
    s = math.fsum(float(np.sum(1.0 / k[i : i + 10**6])) for i in range(0, m, 10**6))
    return s - math.log(m) - 1.0 / (2 * m) + 1.0 / (12.0 * m * m)


def gamma1_limit_oracle() -> float:
    """Corrected lim (sum log k/k - log^2 m/2)."""
    m = 2 * 10**6
    k = np.arange(1, m + 1, dtype=np.float64)
    s = float(np.sum(np.log(k) / k))
    return s - math.log(m) ** 2 / 2 - math.log(m) / (2 * m) + (1 - math.log(m)) / (12.0 * m * m)


class TestZeta:
    def test_at_two_against_series_oracle(self):
        assert abs(zeta(2.0).real - zeta2_series_oracle()) < 1e-10

    def test_at_zero(self):
        assert zeta(0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_first_zero_ordinate(self):
        assert abs(zeta(complex(0.5, FIRST_ZERO_ORDINATE))) <= 1e-4

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            zeta(1.0)

    def test_out_of_box(self):
        with pytest.raises(OutOfValidatedRange):
            zeta(complex(-1.5, 3.0))
        with pytest.raises(OutOfValidatedRange):
            zeta(complex(0.5, 2.0e5))

    def test_riemann_siegel_far_up(self):
        # Riemann-Siegel answers 0.5 + 9e4i with about 120 terms
        s = complex(0.5, 9.0e4)
        ref = _mpmath_zeta(s)
        assert abs(zeta(s) - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref))

    def test_scattered_box_points_against_mpmath(self):
        # |zeta| reaches ~1e6 in the deep left of the box, so double precision
        # floors the achievable absolute error at eps*|zeta|; the target is
        # absolute below unit magnitude and relative above it.
        rng = np.random.default_rng(42)
        pts = []
        for _ in range(40):
            s = complex(rng.uniform(-0.99, 4.0), rng.uniform(0.0, 1.0e5))
            if abs(s - 1.0) > 0.05:
                pts.append(s)
        a = zeta_batch(np.array(pts))
        b = np.array([_mpmath_zeta(s) for s in pts])
        tol = ZETA_ABS_TOL * np.maximum(1.0, np.abs(a))
        assert np.all(np.abs(a - b) <= tol)

    def test_absolute_target_where_zeta_is_moderate(self):
        import mpmath

        rng = np.random.default_rng(43)
        with mpmath.workdps(30):
            for _ in range(25):
                s = complex(rng.uniform(0.4, 4.0), rng.uniform(0.0, 2.0e4))
                if abs(s - 1.0) < 0.05:
                    continue
                ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
                assert abs(zeta(s) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_batch_matches_scalar(self):
        pts = np.array([complex(2.0, 0.0), complex(0.5, 30.0), complex(3.0, 1000.0)])
        vals = zeta_batch(pts)
        for s, v in zip(pts, vals):
            assert zeta(complex(s)) == pytest.approx(complex(v), rel=1e-12)

    def test_low_points_do_not_pay_for_high_ones(self):
        # a cutoff shared across the batch made the low left-half-plane points
        # sum ~K^(1-sigma) cancelling terms: the first entry was 300x off the
        # contract beside 0.5 + 1e5i
        pts = np.array([complex(-0.97, 9.6), complex(-0.5, 10.0), complex(0.5, 1.0e5),
                        complex(2.0, 9.0e4)])
        vals = zeta_batch(pts)
        for s, v in zip(pts, vals):
            ref = _mpmath_zeta(complex(s))
            tol = ZETA_ABS_TOL * max(1.0, abs(ref))
            assert abs(v - ref) <= tol, s
            assert abs(v - zeta(complex(s))) <= tol, s


def _rows(sigma, t0, dt, count):
    """sigma + i(t0[row] + k dt), one row per start height."""
    return sigma + 1j * (np.asarray(t0, dtype=np.float64)[:, None] + dt * np.arange(count))


def _mpmath_zeta(s: complex) -> complex:
    import mpmath

    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


class TestZetaProgression:
    @pytest.mark.parametrize(
        "sigma, t_low, dt, rows, count",
        [(1.17, 10.0, 0.05, 3, 7), (1.2, 950.0, 0.1, 3, 7), (1.25, 1.2e4, 0.3, 3, 7),
         (1.3, 9.0e4, 0.01, 3, 7), (1.2, 500.0, 0.2, 40, 2)],
    )
    def test_matches_scattered_path(self, grid_calls, sigma, t_low, dt, rows, count):
        s = _rows(sigma, t_low + 3.7 * np.arange(rows), dt, count)
        grid = zeta_batch(s)
        assert len(grid_calls) == 1
        flat = zeta_batch(s.reshape(-1)).reshape(s.shape)
        assert len(grid_calls) == 1
        # both paths round the phase t log n of every term to about
        # eps * t log n, so their agreement floor grows with the height
        tol = 1e-12 * max(1.0, t_low / 1e3)
        assert np.max(np.abs(grid - flat)) <= tol

    def test_doubled_progression(self, grid_calls):
        # zeta(2s) on a Perron-style layout: step 2 dt, real part 2 sigma
        s = _rows(1.2, 0.37 + 0.05 * np.arange(10), 0.6, 40)
        grid = zeta_batch(2.0 * s)
        assert len(grid_calls) == 1
        flat = zeta_batch(2.0 * s.reshape(-1)).reshape(s.shape)
        assert np.max(np.abs(grid - flat)) <= 1e-12

    @pytest.mark.parametrize(
        "sigma, t0, dt", [(0.5, [14.0, 2.0e4], 0.7), (-0.5, [3.0, 5.0e3], 1.3)]
    )
    def test_against_mpmath_over_the_box(self, grid_calls, sigma, t0, dt):
        s = _rows(sigma, t0, dt, 9)
        vals = zeta_batch(s)
        assert len(grid_calls) == 1
        for row in range(s.shape[0]):
            for k in (0, 4, 8):
                ref = _mpmath_zeta(complex(s[row, k]))
                assert abs(vals[row, k] - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref))

    def test_mixed_real_parts_fall_back(self, grid_calls):
        s = _rows(1.2, [30.0, 80.0], 0.5, 6)
        s[1] += 0.1
        vals = zeta_batch(s)
        assert not grid_calls
        for row, k in ((0, 0), (1, 5)):
            ref = _mpmath_zeta(complex(s[row, k]))
            assert abs(vals[row, k] - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref))

    def test_jittered_spacing_falls_back(self, grid_calls):
        s = _rows(0.8, [200.0, 260.0], 0.25, 6)
        s[:, 3] += 1e-7j
        vals = zeta_batch(s)
        assert not grid_calls
        for row, k in ((0, 3), (1, 1)):
            ref = _mpmath_zeta(complex(s[row, k]))
            assert abs(vals[row, k] - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref))

    def test_box_and_pole_checks_still_apply(self):
        with pytest.raises(OutOfValidatedRange):
            zeta_batch(_rows(0.5, [9.999e4], 10.0, 4))
        with pytest.raises(OutOfValidatedRange):
            zeta_batch(_rows(-1.0, [10.0], 1.0, 4))
        with pytest.raises(PoleAtOne):
            zeta_batch(_rows(1.0, [-2.0], 1.0, 4))


def _weighted_reference(s: complex, ln_n, a_n) -> complex:
    """sum_i a_n[i] exp(-s ln_n[i]), one cmath term at a time."""
    return sum(a * cmath.exp(-s * ln) for ln, a in zip(ln_n, a_n))


def _random_terms(rng, size: int):
    """Unsorted log n for integers n < 1e4 with complex weights."""
    ln_n = np.log(rng.integers(1, 10**4, size).astype(np.float64))
    return ln_n, rng.normal(size=size) + 1j * rng.normal(size=size)


class TestDirichletSum:
    """The weighted engine behind zeta's direct sum and the background's prime powers."""

    def test_progression_against_direct_sum(self, grid_calls, monkeypatch):
        # a small workspace splits the terms into chunks of 8
        monkeypatch.setattr(special, "_WORKSPACE", 64)
        rng = np.random.default_rng(19)
        ln_n, a_n = _random_terms(rng, 203)
        s = _rows(1.1, [3.0, 250.0, 990.0], 0.37, 23)
        vals = special.dirichlet_sum(s, ln_n, a_n)
        assert len(grid_calls) == 1 and vals.shape == s.shape
        # each phase t log n rounds to about eps * t log n in either form
        scale = np.sum(np.abs(a_n) * np.exp(-1.1 * ln_n))
        for row in range(s.shape[0]):
            for k in range(s.shape[1]):
                ref = _weighted_reference(complex(s[row, k]), ln_n, a_n)
                assert abs(vals[row, k] - ref) <= 1e-13 * scale * max(1.0, s[row, k].imag), (row, k)

    def test_scattered_with_a_count_per_point(self, grid_calls, monkeypatch):
        monkeypatch.setattr(special, "_WORKSPACE", 64)
        rng = np.random.default_rng(20)
        ln_n, a_n = _random_terms(rng, 157)
        s = rng.uniform(-0.5, 3.0, 40) + 1j * rng.uniform(-900.0, 900.0, 40)
        count = rng.integers(0, ln_n.size + 1, s.size)
        count[:3] = (0, 1, ln_n.size)
        vals = special._scattered_sum(s, ln_n, a_n, count)
        for point, c, v in zip(s, count, vals):
            ref = _weighted_reference(complex(point), ln_n[:c], a_n[:c])
            scale = np.sum(np.abs(a_n[:c]) * np.exp(-point.real * ln_n[:c]))
            assert abs(v - ref) <= 1e-13 * scale * max(1.0, abs(point.imag)), (point, c)
        # a 1-D batch takes every term at every point, never the matmul
        flat = special.dirichlet_sum(s, ln_n, a_n)
        assert not grid_calls
        assert np.array_equal(flat, special._scattered_sum(s, ln_n, a_n, np.full(s.size, ln_n.size)))


def _mpmath_rs_kernel():
    """F(z) of the Riemann-Siegel corrections, straight from its definition."""
    import mpmath

    return lambda z: (
        mpmath.expjpi(z * z / 2 + mpmath.mpf(3) / 8) - 1j * mpmath.sqrt(2) * mpmath.cospi(z / 2)
    ) / (2 * mpmath.cospi(z))


@pytest.fixture
def rs_calls(monkeypatch):
    """Records the points of every Riemann-Siegel evaluation."""
    calls = []
    real = special._riemann_siegel

    def spy(s):
        calls.append(np.array(s))
        return real(s)

    monkeypatch.setattr(special, "_riemann_siegel", spy)
    return calls


class TestRiemannSiegel:
    def test_against_mpmath_across_the_strip(self, rs_calls):
        # the route's error contract, on points drawn across the whole strip
        # and log-uniformly in |t| from the crossover to the top of the box
        rng = np.random.default_rng(2011)
        count = 100
        sigma = np.concatenate([rng.uniform(0.5, 1.0, count // 2),
                                rng.uniform(SIGMA_MIN, RS_SIGMA_MAX, count // 2)])
        t = np.exp(rng.uniform(math.log(RS_T_MIN), math.log(TAU_MAX), count))
        s = sigma + 1j * t * rng.choice([-1.0, 1.0], count)
        vals = zeta_batch(s)
        assert len(rs_calls) == 1 and rs_calls[0].size == count
        for point, v in zip(s, vals):
            ref = _mpmath_zeta(complex(point))
            assert abs(v - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref)), point

    def test_kernel_derivatives_from_the_table(self):
        # every derivative order, built from the bundled Taylor coefficients,
        # against the Taylor data of F taken numerically from its definition
        import mpmath

        tab = special._rs_tables()
        # the orders 3k - 2j of the pairs k < 10, j <= 3k/2: 0..27 except 26
        assert sorted(tab.orders.tolist()) == [m for m in range(28) if m != 26]
        assert tab.orders[tab.pair_row].tolist() == [3 * k - 2 * j for k, j in tab.pairs]
        kernel = _mpmath_rs_kernel()
        points = (-0.93, -0.31, 0.27, 0.999)
        for p, fp in zip(points, special._rs_kernel(np.array(points))):
            with mpmath.workdps(40):
                coeffs = mpmath.taylor(kernel, mpmath.mpf(p), int(tab.orders.max()))
            for m, got in zip(tab.orders.tolist(), fp):
                want = complex(coeffs[m] * mpmath.factorial(m))
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (p, m)

    def test_phases_from_the_primes(self):
        # every n^-it the main sums can use, each composite built from the
        # prime phases, against mpmath at 40 digits
        import mpmath

        t = np.random.default_rng(16).uniform(500.0, 1e5, 20)
        phases = special._rs_phases(t, special._RS_N_MAX)
        with mpmath.workdps(40):
            for n in range(1, special._RS_N_MAX + 1):
                for height, got in zip(t.tolist(), phases[n]):
                    want = complex(mpmath.expj(-mpmath.mpf(height) * mpmath.log(n)))
                    assert abs(got - want) <= 1e-13, (n, height)
        # a batch that needs fewer rows builds the same ones
        assert np.array_equal(special._rs_phases(t, 50), phases[:51])

    def test_diagnostic_points_take_riemann_siegel(self, rs_calls, zero_table_path, monkeypatch):
        from delange.contour import assemble_contour, build_blocks, load_zeros, log_zeta_diagnostic

        zs = load_zeros(zero_table_path, 2.0**16)
        path = assemble_contour(build_blocks(zs, zs.T, 0.6, 0.1), zs, 0.6, c_star=0.1)
        seen = []
        real = special.zeta_batch

        def batch_spy(s):
            seen.append(np.array(s))
            return real(s)

        monkeypatch.setattr(special, "zeta_batch", batch_spy)
        log_zeta_diagnostic(path)
        (pts,) = seen
        high = pts[np.abs(pts.imag) >= RS_T_MIN]
        assert high.size > 0
        assert len(rs_calls) == 1
        assert np.array_equal(np.sort_complex(rs_calls[0]), np.sort_complex(high))

    def test_perron_line_never_takes_it(self, rs_calls, fam_one):
        from delange.perron import perron_line_sum
        from delange.sieve import Window

        perron_line_sum(fam_one, Window(10**4, 10**3), 2000.0)
        assert not rs_calls


_LOWER_LEFT = st.tuples(st.floats(SIGMA_MIN, -0.5, exclude_min=True), st.floats(0.0, 60.0))
_BOX = st.tuples(st.floats(SIGMA_MIN, 4.0, exclude_min=True), st.floats(0.0, TAU_MAX))


class TestZetaWholeBox:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(_BOX, _LOWER_LEFT), min_size=2, max_size=9))
    def test_batches_against_mpmath(self, pairs):
        # whole batches over the validated box, mixing heights and real parts,
        # with the lower-left corner (where |zeta| grows and the contract
        # turns relative) drawn on purpose
        s = np.array([complex(x, y) for x, y in pairs if abs(complex(x, y) - 1.0) > 0.05])
        vals = zeta_batch(s)
        for point, v in zip(s, vals):
            ref = _mpmath_zeta(complex(point))
            assert abs(v - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref)), point


class TestStieltjes:
    def test_gamma0_against_limit_oracle(self):
        assert stieltjes(0) == pytest.approx(gamma0_limit_oracle(), abs=1e-10)

    def test_gamma1_against_limit_oracle(self):
        assert stieltjes(1) == pytest.approx(gamma1_limit_oracle(), abs=1e-10)

    def test_table_is_complete_and_finite(self):
        from importlib.resources import files

        lines = files("delange").joinpath("data/stieltjes.txt").read_text().splitlines()
        assert len(lines) == special.STIELTJES_MAX + 1 == 65
        values = [float(line) for line in lines]
        assert all(math.isfinite(v) for v in values)
        assert [stieltjes(m) for m in range(65)] == values

    def test_low_orders_match_the_generator_recipe(self):
        # scripts/make_stieltjes_table.py: mpmath at 40 digits, one rounding
        import mpmath

        with mpmath.workdps(40):
            for m in range(9):
                assert stieltjes(m) == float(mpmath.stieltjes(m)), m

    def test_all_orders_against_cauchy_integral(self):
        # an independent route to every order: zeta(s) - 1/(s-1) is entire with
        # Taylor coefficients (-1)^n gamma_n / n! about s = 1, recovered from
        # 128 samples on the circle |s - 1| = 8 at 60 digits; the rounding
        # error, about 1e-60 max|f| / 8^n, stays far below one double ulp of
        # gamma_n up to n = 64, so each table entry must equal its rounding
        import mpmath

        count, radius = 128, 8
        with mpmath.workdps(60):
            u = [radius * mpmath.expjpi(mpmath.mpf(2 * k) / count) for k in range(count)]
            f = [mpmath.zeta(1 + uk) - 1 / uk for uk in u]
            for n in range(special.STIELTJES_MAX + 1):
                a_n = mpmath.fsum(
                    fk * mpmath.expjpi(mpmath.mpf(-2 * n * k) / count) for k, fk in enumerate(f)
                ) / (count * mpmath.mpf(radius) ** n)
                assert stieltjes(n) == float((-1) ** n * mpmath.factorial(n) * a_n.real), n

    def test_order_cap(self):
        with pytest.raises(OrderTooHigh):
            stieltjes(65)
        with pytest.raises(ValueError):
            stieltjes(-1)

    def test_laurent_consistency_three_decimals(self):
        h = 1e-3
        approx_gamma0 = zeta(1.0 + h).real - 1.0 / h
        assert abs(approx_gamma0 - stieltjes(0)) < 5e-4

    @staticmethod
    def _laurent_deviation(h: float) -> float:
        # zeta side at high precision; the cached double-precision constants
        # are the quantity under test
        import mpmath

        with mpmath.workdps(60):
            z = mpmath.zeta(mpmath.mpf(1) + mpmath.mpf(h)) - 1 / mpmath.mpf(h)
            s = mpmath.mpf(0)
            for n in range(7):
                s += (-mpmath.mpf(h)) ** n * mpmath.mpf(stieltjes(n)) / mpmath.factorial(n)
            return float(abs(z - s))

    def test_laurent_remainder_slope(self):
        # order-7 decay, measured where the remainder still clears the 1e-18
        # noise floor of double-precision constants
        hs = (0.5, 0.25, 0.125)
        devs = [self._laurent_deviation(h) for h in hs]
        slope = (math.log(devs[0]) - math.log(devs[2])) / (math.log(hs[0]) - math.log(hs[2]))
        assert slope >= 6.5

    def test_laurent_consistency_at_small_h(self):
        # at h = 0.1 the genuine order-7 remainder (~1e-14) is still visible;
        # below that the deviation must sit at the float noise of the constants
        for h in (1e-1, 1e-2, 1e-3):
            assert self._laurent_deviation(h) <= max(2e-15, 4e-14 * (h / 0.1) ** 7)


def bernoulli_even(count: int) -> list[float]:
    """B_2, B_4, ..., B_{2*count} by the exact recurrence."""
    n = 2 * count
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        c = 1  # C(m+1, j)
        for j in range(m):
            acc += c * b[j]
            c = c * (m + 1 - j) // (j + 1)
        b[m] = -acc / (m + 1)
    return [float(b[2 * j]) for j in range(1, count + 1)]


def test_shipped_bernoulli_numbers_match_the_recurrence():
    want = bernoulli_even(special._EM_TERMS_MAX)
    assert len(special._BERN_2J) == len(want)
    assert all(a.hex() == b.hex() for a, b in zip(special._BERN_2J, want))


def test_background_series_do_not_import_scipy():
    # the Euler-product tail needs no scipy; a fresh interpreter keeps other
    # tests' imports out of the check
    code = (
        "import sys, delange\n"
        "from delange import family_from_spec, g_lambda_coeffs\n"
        "for spec in ('divisor:2', 'sqfree', 'omega:2', 'omega:0.5'):\n"
        "    g_lambda_coeffs(family_from_spec(spec), 24)\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestRecipGamma:
    def test_known_values(self):
        assert recip_gamma(1.0) == 1.0
        assert recip_gamma(0.0) == 0.0
        assert recip_gamma(0.5).real == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_exact_zeros_at_nonpositive_integers(self):
        for k in range(0, 40):
            assert recip_gamma(complex(-k, 0.0)) == 0.0

    def test_reflection_identity(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) > 5 or abs(z.real - round(z.real)) < 1e-3:
                continue
            lhs = recip_gamma(z) * recip_gamma(1.0 - z)
            rhs = cmath.sin(cmath.pi * z) / math.pi
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            checked += 1

    def test_factorials(self):
        for k in range(2, 12):
            assert recip_gamma(float(k)) == pytest.approx(1.0 / math.factorial(k - 1), rel=1e-13)

    def test_near_the_poles_of_gamma(self):
        # 1/Gamma vanishes at 0, -1, -2, ...; next to each zero the value must
        # keep its relative accuracy, odd and even alike
        import mpmath

        with mpmath.workdps(40):
            for k in range(26):
                for d in (1e-12, 1e-9, 1e-6, 1e-3):
                    for z in (complex(-k + d, 0.0), complex(-k - d, 0.0), complex(-k, d)):
                        ref = complex(mpmath.rgamma(mpmath.mpc(z.real, z.imag)))
                        assert abs(recip_gamma(z) - ref) <= 1e-13 * abs(ref), z

