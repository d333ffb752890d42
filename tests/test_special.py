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
from delange.errors import OrderTooHigh, OutOfValidatedRange, ParameterOutOfRange, PoleAtOne
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

    def test_full_perron_slice_matches_scattered_path(self, grid_calls):
        # the longest slice the Perron line hands zeta_batch, at the heights
        # where the phases round the most; the scattered route is sampled
        s = _perron_slice(96000.0)
        assert s.shape == (21, 3120)
        grid = zeta_batch(s)
        assert len(grid_calls) == 1
        rng = np.random.default_rng(96)
        pick = rng.integers(0, 21, 64), rng.integers(0, 3120, 64)
        flat = zeta_batch(s[pick])
        # test_matches_scattered_path's tolerance at t_low = 96000
        assert np.max(np.abs(grid[pick] - flat)) <= 1e-12 * 96000.0 / 1e3

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


def _perron_slice(t_low: float):
    """The 21 x 3120 nodes of the uniform Perron slice at T = TAU_MAX that
    starts at t_low, with x = 1e5: the longest slice _line_pair builds."""
    from delange import perron

    edges = perron._line_edges(TAU_MAX, perron.QuadratureSpec())[1]
    edges = edges[np.searchsorted(edges, t_low):][: 65536 // 21 + 1]
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return 1.0 + 2.0 / math.log(1e5) + 1j * (mid + half * perron._KRONROD_NODES[:, None])


def _line_slice(T: float, which: int, factor: float = 1.0):
    """Slice `which` of the uniform slices _line_pair hands zeta_batch on the
    line up to T at x = 1e5, times factor (2 for sqfree's zeta(2s)), and its
    layout (sigma, t0, dt) as the line hands it down."""
    from delange import perron

    rest = perron._line_edges(T, perron.QuadratureSpec())[1]
    step = 65536 // 21
    lo = list(range(0, rest.size - 1, step))[which]
    edges = rest[lo : lo + step + 1]
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    b = 1.0 + perron.DEFAULT_B_OFFSET / math.log(1e5)
    t = mid + half * perron._KRONROD_NODES[:, None]
    dt = (edges[-1] - edges[0]) / (edges.size - 1)
    return factor * (b + 1j * t), (factor * b, factor * t[:, 0], factor * dt)


def _em_coef(j: int):
    """B_2j / (2j)! from mpmath, independent of the shipped table."""
    import mpmath

    return mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)


def _remainder_bound(sigma: float, t: float, k: int, J: int):
    """Edwards' bound on the Euler-Maclaurin remainder of zeta at sigma + i t
    after the direct sum below k and J corrections: |s + 2J + 1| / (sigma + 2J + 1)
    times the first omitted term."""
    import mpmath

    s = mpmath.mpc(sigma, t)
    term = abs(_em_coef(J + 1)) * mpmath.power(k, -(sigma + 2 * J + 1))
    for m in range(2 * J + 1):
        term *= abs(s + m)
    return term * abs(s + 2 * J + 1) / (sigma + 2 * J + 1)


def _em_terms(s: complex, k: int, J: int):
    """k/(s-1), 1/2 and the first J corrections c_j k^(1-2j) s(s+1)...(s+2j-2), in mpmath."""
    import mpmath

    s = mpmath.mpc(s.real, s.imag)
    terms, rise = [k / (s - 1), mpmath.mpf(0.5)], s
    for j in range(1, J + 1):
        if j > 1:
            rise *= (s + 2 * j - 3) * (s + 2 * j - 2)
        terms.append(_em_coef(j) * mpmath.power(k, 1 - 2 * j) * rise)
    return terms


# (T, slice, factor): the first slice of a line at T = 250 and 1000, the last
# one below TAU_MAX, and sqfree's doubled layout for zeta(2s), whose line
# stops at TAU_MAX / 2
_TAIL_SLICES = [(250.0, 0, 1.0), (1000.0, 0, 1.0), (TAU_MAX, -1, 1.0),
                (250.0, 0, 2.0), (1000.0, 0, 2.0), (TAU_MAX / 2, -1, 2.0)]


class TestProgressionTail:
    """The Euler-Maclaurin tail on the Perron line's progression slices."""

    @staticmethod
    def _layout(T, which, factor):
        s, grid = _line_slice(T, which, factor)
        k = int(special._direct_sum_cutoff(grid[0], float(np.max(np.abs(s.imag)))))
        # the first, a middle and the last column (columns ascend in t)
        return s, grid, k, (0, s.shape[1] // 2, s.shape[1] - 1)

    @staticmethod
    def _decisive_columns(starts):
        """Every column where the number of corrections changes, column 0
        included, and the column below each."""
        return sorted({c for v in starts.tolist() for c in (v - 1, v) if c >= 0})

    @pytest.mark.parametrize("T, which, factor", _TAIL_SLICES)
    def test_perron_slices_against_mpmath(self, T, which, factor):
        s, _, k, cols = self._layout(T, which, factor)
        diagnostics = {}
        vals = zeta_batch(s, diagnostics)
        assert diagnostics["progression"] == s.size and diagnostics["cutoff"] == k
        for c in cols:
            for row in (0, 20):
                ref = _mpmath_zeta(complex(s[row, c]))
                assert abs(vals[row, c] - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref)), (row, c)

    @pytest.mark.parametrize("T, which, factor", _TAIL_SLICES)
    def test_tail_is_the_sum_of_its_corrections(self, T, which, factor):
        # with k^-s = 1 the tail is the bracket k/(s-1) + 1/2 + corrections,
        # which must be the sum of all _EM_CORRECTIONS of them up to rounding;
        # near TAU_MAX a dropped last correction is far above that rounding
        s, _, k, cols = self._layout(T, which, factor)
        bracket = special._euler_maclaurin_tail(s, k, np.ones_like(s))
        for c in cols:
            for row in (0, 20):
                terms = _em_terms(complex(s[row, c]), k, special._EM_CORRECTIONS)
                want = complex(sum(terms))
                tol = 64 * 2.2e-16 * float(sum(abs(v) for v in terms))
                assert abs(bracket[row, c] - want) <= tol, (row, c)

    @pytest.mark.parametrize("T, factor", [(250.0, 1.0), (1000.0, 1.0), (250.0, 2.0), (1000.0, 2.0)])
    def test_remainder_within_its_bound(self, T, factor):
        # zeta(s) - sum_{n<k} n^-s is the Hurwitz zeta(s, k); times k^s it is
        # the exact bracket, which the tail must meet within the bound of its
        # corrections
        import mpmath

        s, (sigma, _, _), k, cols = self._layout(T, 0, factor)
        bracket = special._euler_maclaurin_tail(s, k, np.ones_like(s))
        J = special._EM_CORRECTIONS
        with mpmath.workdps(30):
            for c in cols:
                for row in (0, 20):
                    p = complex(s[row, c])
                    w = mpmath.mpc(p.real, p.imag)
                    exact = complex(mpmath.zeta(w, k) * mpmath.power(k, w))
                    terms = _em_terms(p, k, J)
                    tol = (float(_remainder_bound(sigma, p.imag, k, J)) * k**sigma
                           + 64 * 2.2e-16 * float(sum(abs(v) for v in terms)))
                    assert abs(bracket[row, c] - exact) <= tol, (row, c)

    @pytest.mark.parametrize("T, which, factor", _TAIL_SLICES)
    def test_starts_ascend_to_every_correction_at_the_top(self, T, which, factor):
        # correction j covers the columns from starts[j - 1] up, so the number
        # of corrections never falls along a slice; the top column takes all
        s, grid, k, _ = self._layout(T, which, factor)
        count = s.shape[1]
        starts = special._tail_starts(*grid, count, k)
        assert starts.shape == (special._EM_CORRECTIONS,)
        assert starts[0] >= 0 and np.all(np.diff(starts) >= 0) and starts[-1] <= count - 1

    @pytest.mark.parametrize("T, which, factor", _TAIL_SLICES)
    def test_each_column_stops_at_the_first_bound_below_the_top(self, T, which, factor):
        # Edwards' bound after J corrections, with |B_2j|/(2j)! <= 2 zeta(2)/(2 pi)^2j
        # and |s + m| <= |s| + 45, in mpmath from each column's own points: a
        # column takes the fewest corrections whose bound is at most the top
        # column's with all 22
        import mpmath

        s, grid, k, _ = self._layout(T, which, factor)
        starts = special._tail_starts(*grid, s.shape[1], k)
        sigma, n = grid[0], special._EM_CORRECTIONS

        def bound(c, J):
            r = (mpmath.mpf(float(np.max(np.abs(s[:, c])))) + 2 * n + 1) / (2 * mpmath.pi * k)
            return r ** (2 * J + 2) / (sigma + 2 * J + 1)

        with mpmath.workdps(30):
            accepted = bound(s.shape[1] - 1, n)
            for c in self._decisive_columns(starts):
                J = int(np.count_nonzero(starts <= c))
                assert bound(c, J) <= accepted, (c, J)
                assert J == 0 or bound(c, J - 1) > accepted, (c, J)

    @pytest.mark.parametrize("T, which, factor", _TAIL_SLICES)
    def test_truncated_tail_against_mpmath(self, T, which, factor):
        # zeta_batch on the layout the line hands down, at every column where
        # the number of corrections changes and the column below it
        s, grid, k, _ = self._layout(T, which, factor)
        diagnostics = {}
        vals = zeta_batch(s, diagnostics, grid=grid)
        starts = special._tail_starts(*grid, s.shape[1], k)
        assert diagnostics["tail_terms"] == 21 * int(np.sum(s.shape[1] - starts))
        for c in self._decisive_columns(starts):
            for row in (0, 20):
                ref = _mpmath_zeta(complex(s[row, c]))
                assert abs(vals[row, c] - ref) <= ZETA_ABS_TOL * max(1.0, abs(ref)), (row, c)

    def test_low_slices_take_fewer_corrections(self):
        # the T = 1000 slice averages about 12 of the 22 corrections a column
        s, grid, k, _ = self._layout(1000.0, 0, 1.0)
        starts = special._tail_starts(*grid, s.shape[1], k)
        assert 10 < np.mean(np.count_nonzero(starts[:, None] <= np.arange(s.shape[1]), axis=0)) < 14


class TestGivenLayout:
    """A layout handed to zeta_batch or dirichlet_sum instead of found."""

    def test_matching_layout_gives_the_found_layouts_bits(self, grid_calls):
        s = _rows(1.2, [30.0, 80.0, 500.0], 0.5, 16)
        grid = (1.2, s.imag[:, 0], 0.5)
        assert np.array_equal(zeta_batch(s, grid=grid), zeta_batch(s))
        ln_n, a_n = _random_terms(np.random.default_rng(5), 40)
        assert np.array_equal(special.dirichlet_sum(s, ln_n, a_n, grid=grid),
                              special.dirichlet_sum(s, ln_n, a_n))
        assert len(grid_calls) == 4

    @pytest.mark.parametrize("grid", [
        (1.25, [30.0, 80.0], 0.5),     # another real part
        (1.2, [30.0, 80.1], 0.5),      # a row shifted
        (1.2, [30.0, 80.0], 0.51),     # another step: the last column misses
        (1.2, [30.0], 0.5),            # too few rows
    ])
    def test_layout_that_does_not_match_raises(self, grid):
        s = _rows(1.2, [30.0, 80.0], 0.5, 6)
        ln_n, a_n = _random_terms(np.random.default_rng(6), 20)
        with pytest.raises(ParameterOutOfRange, match="layout"):
            zeta_batch(s, grid=grid)
        with pytest.raises(ParameterOutOfRange, match="layout"):
            special.dirichlet_sum(s, ln_n, a_n, grid=grid)

    def test_checks_read_the_rows_ends(self):
        # the box from the top end of a row, the pole inside one, and a
        # non-finite end point
        s = _rows(0.5, [9.999e4], 10.0, 4)
        with pytest.raises(OutOfValidatedRange):
            zeta_batch(s, grid=(0.5, [9.999e4], 10.0))
        s = _rows(1.0, [-2.0], 1.0, 4)
        with pytest.raises(PoleAtOne):
            zeta_batch(s, grid=(1.0, [-2.0], 1.0))
        s = _rows(1.2, [3.0], 1.0, 4)
        s[0, -1] = complex(1.2, math.inf)
        with pytest.raises(OutOfValidatedRange, match="non-finite"):
            zeta_batch(s, grid=(1.2, [3.0], 1.0))


class TestProgressionExp:
    """progression_exp against exp(c s) in mpmath at 30 digits."""

    @pytest.mark.parametrize("count", [1, 2, 3120])
    @pytest.mark.parametrize(
        "c, sigma, t0, dt",
        [(math.log(1e5), 1.17, [0.31, 9.6e4], 0.625 * (1.0 - 1e-3)),  # the kernel's x^s
         (-math.log(24063.0), 1.17, [96000.1, 47000.3], 0.625),  # a direct-sum term n^-s
         (-math.log(2.0), -0.5, [3.0, TAU_MAX - 3120 * 0.03], 0.03),
         (math.log1p(1e-6), 2.0, [0.0], 0.2)],
    )
    def test_against_mpmath(self, count, c, sigma, t0, dt):
        import mpmath

        got = special.progression_exp(c, sigma, np.array(t0), dt, count)
        assert got.shape == (len(t0), count)
        # the columns with the most doubling factors, and a spread of others
        cols = sorted({0, count - 1} | {min(count - 1, 2**k - 1) for k in range(13)}
                      | set(range(0, count, 97)))
        levels = math.ceil(math.log2(count)) if count > 1 else 0
        with mpmath.workdps(30):
            for row, start in enumerate(t0):
                for j in cols:
                    s = mpmath.mpf(sigma) + 1j * (mpmath.mpf(start) + j * mpmath.mpf(dt))
                    want = complex(mpmath.exp(c * s))
                    # the phase c t rounds at about eps |c t|, as in a direct exp;
                    # the magnitude gains a few eps per doubling factor
                    tol = 2.2e-16 * (abs(c) * abs(complex(s)) + 8 * (levels + 1)) * abs(want)
                    assert abs(got[row, j] - want) <= tol, (row, j)

    def test_vector_c_is_a_stack_of_scalar_calls(self):
        c = -np.log(np.arange(1.0, 30.0))
        t0 = np.array([14.0, 950.5, 9.9e4])
        got = special.progression_exp(c, 1.2, t0, 0.37, 41)
        assert got.shape == (c.size, t0.size, 41)
        for i, ci in enumerate(c):
            assert np.array_equal(got[i], special.progression_exp(ci, 1.2, t0, 0.37, 41))


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
        # every point reaches the route once, in order, in blocks of at most
        # _RS_BLOCK points
        assert all(0 < c.size <= special._RS_BLOCK for c in rs_calls)
        assert np.array_equal(np.concatenate(rs_calls), s)
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


def _pinned_zeta_points() -> np.ndarray:
    """373 scattered points in a seeded order: 193 for the Riemann-Siegel
    route (Re s across the strip, |Im s| log-uniform over RS_T_MIN..TAU_MAX,
    both signs; 3 * 64 + 1, so a 64-point stride would leave one point alone)
    and 180 for Euler-Maclaurin, half below RS_T_MIN anywhere across Re s,
    half right of RS_SIGMA_MAX up to the top of the box."""
    rng = np.random.default_rng(26)
    high = rng.uniform(SIGMA_MIN, RS_SIGMA_MAX, 193) + 1j * rng.choice([-1.0, 1.0], 193) * np.exp(
        rng.uniform(math.log(RS_T_MIN), math.log(TAU_MAX), 193)
    )
    low = rng.uniform(SIGMA_MIN, 4.0, 90) + 1j * rng.uniform(-RS_T_MIN, RS_T_MIN, 90)
    right = rng.uniform(RS_SIGMA_MAX, 4.0, 90) + 1j * rng.uniform(-TAU_MAX, TAU_MAX, 90)
    return rng.permutation(np.concatenate([high, low, right]))


# zeta_batch on _pinned_zeta_points() as one batch, as computed when every
# Riemann-Siegel point went to one call: "re im" as float.hex, bit for bit.
PINNED_ZETA = (
    "0x1.2cb958e669e9ap+0 -0x1.194b913d0b43fp-2", "0x1.c7bc166630d93p+10 0x1.5ab3bb6ca1619p+10",
    "0x1.7f6e439a7795bp-1 -0x1.2721ccfb001e3p-2", "-0x1.3caa775df3996p+14 0x1.67433433c3e95p+17",
    "0x1.0cc75f0b9d504p+12 0x1.b07445b6a2d5ap+11", "0x1.2f20a30e54e26p+0 -0x1.843f6e484e42ap-3",
    "0x1.069205d236b53p+0 0x1.13ec62cbbba87p-4", "-0x1.8ab756b82399ep+0 -0x1.18a5ee9fb4f34p+0",
    "0x1.2f42347d12ca8p+7 0x1.54ffe99ef61c1p+8", "0x1.20c262d176f72p+0 -0x1.babca68a5cb1bp-3",
    "0x1.35c506654326ap+0 -0x1.b3bf03d72d9f2p-4", "0x1.4318442bc4d03p+10 0x1.4d1cd893f8c29p+14",
    "0x1.ef2e5ada86a0dp-1 -0x1.4e92ae1f9eb28p-4", "0x1.4ea5bc8110735p+16 0x1.19c7c42b366f5p+16",
    "0x1.1315c80cc5a4fp+1 0x1.4e08a5c454f06p-1", "0x1.9d1e734f818e8p-1 -0x1.00c283958d809p-2",
    "0x1.049f128f3ceb7p+0 0x1.13bee0201ea1dp-4", "-0x1.f0330c842da99p+16 0x1.3eaf5fc250f2bp+19",
    "0x1.c3253960ecd48p-6 -0x1.f05aae9151131p-2", "-0x1.bc1baa5980fe6p+5 -0x1.2ec73892ecb51p+5",
    "0x1.fba175c67fce0p+0 0x1.51acfcee49860p-1", "0x1.1573e750546a6p+7 0x1.4e55bee2b1cdcp+4",
    "0x1.61e0b7a7348f9p-1 0x1.180240bb6385ap-1", "0x1.15a7d84e13e49p+0 -0x1.2773135fb2624p-8",
    "0x1.e584ab0c0a068p-1 0x1.db1354ffca6dap-2", "0x1.4a7d04d7520ffp-1 -0x1.02fba89c856a5p-2",
    "0x1.30318e55e3642p+0 0x1.300adc0f7ed85p-4", "0x1.e440f5221ac5cp+1 0x1.7e07576f88091p+5",
    "0x1.22b84c2b85f05p+2 0x1.49037fb9a21d6p-1", "0x1.da70af2761fdbp-1 -0x1.8a440f19b46afp-4",
    "0x1.3ba6b369cd626p+13 0x1.e61e6a8b77b88p+8", "0x1.2e94d90381268p+5 -0x1.3a183dc6e2658p+5",
    "0x1.fc7ca3737bd81p-1 -0x1.5288f96dc5697p-4", "0x1.93faa09367d96p+9 -0x1.72d2a32b979c4p+11",
    "0x1.6779142524ba9p+0 -0x1.85059003df145p-1", "0x1.cc845a5fc067ap+14 0x1.aab56906d1688p+16",
    "0x1.5e0da0d477b9ap+0 0x1.fd21d2a6cbce9p-1", "0x1.26981e0a441d9p+0 -0x1.92e89f8335f04p-5",
    "0x1.5c24329411377p-1 -0x1.b7c0abc26cb2cp-3", "0x1.ddbc9a62d4bd0p-1 0x1.4a90319f6f58cp-4",
    "0x1.e27e3cbdbd619p+1 -0x1.8833b426de4d4p+0", "-0x1.4037a3045aa53p+7 -0x1.0476c0b408becp+6",
    "0x1.b492e29185840p-1 0x1.0e045546c272fp-2", "0x1.2ca37460419d0p+0 -0x1.e86f0f0a48edcp+0",
    "-0x1.8474f7e4dae2cp+2 -0x1.2165bda6bfd72p+3", "0x1.9b013637269fdp+9 -0x1.9252a688e2ac2p+8",
    "0x1.af44a6d400089p+6 0x1.2d8415511c574p+7", "0x1.dab09c9c0af55p-1 -0x1.1d24dcc76a2e4p-5",
    "0x1.2e007499f6a34p+0 0x1.4e88205724773p-3", "0x1.6fbf350560c91p+7 0x1.2da5ee33eba69p+7",
    "0x1.c7d12877b925bp-1 -0x1.ef71e4497e968p-5", "0x1.cbd3cb2e6bf9ep+3 -0x1.71fbbe7b2466ep+5",
    "-0x1.88e70c1eb6d39p+8 -0x1.0d41f7fcba6b3p+8", "0x1.ba5097e1ef549p-1 0x1.4a2f1050908eep-2",
    "0x1.f3d53c988a63bp-1 0x1.a44ccacd7eda0p-4", "-0x1.b690f85be9458p+1 -0x1.ee719fd2799a0p+1",
    "0x1.43780f661d3fbp+0 -0x1.ac601e70d8766p-2", "0x1.d527db87f2677p-1 -0x1.0aa6bf39b7c59p-3",
    "0x1.1eae57e352bf0p+0 0x1.72d92487f0bfap-1", "0x1.9ba8e8e238ea7p-1 -0x1.cfe4a41a618b1p-4",
    "0x1.a65cbe41ac43cp-1 0x1.8a1e6f8da0b1ap-2", "0x1.6726e0de8c024p+5 -0x1.0e104848226b7p+4",
    "0x1.2f9fda425545fp+2 0x1.96ecf6ecb82f4p+2", "0x1.4aeaa19c9ebebp+0 0x1.5216d0f7c6ebdp+0",
    "0x1.1fa0eae836e77p+14 0x1.3c6f8ff1c629cp+10", "0x1.3b2477bd509fap+0 -0x1.d075dfbd424cdp-3",
    "0x1.7f1a353de6636p+7 0x1.04d700fd81abbp+9", "-0x1.326b29fb0fc92p+2 -0x1.35de044cb5046p+0",
    "0x1.ee1582a02aa4ap-1 0x1.7095b606caff1p-4", "-0x1.e0b47d16a5d62p+3 0x1.6de678cdfc271p+5",
    "0x1.e6599c3064917p+8 -0x1.4ae732466b477p+10", "0x1.13e7cf213b4bfp-1 0x1.d17883b5d6ddfp-3",
    "0x1.da92e9f2ceea1p-2 -0x1.82d907bb3c840p-1", "0x1.409c5fa56a7eep+0 -0x1.56b49d4a95eebp-3",
    "-0x1.a1b05cb140a90p+8 0x1.4192192c5c7a1p+10", "-0x1.cc2635ba997b0p+6 -0x1.59cf659abf94ep+5",
    "0x1.4376b23a249bdp+0 -0x1.04d41709cf64ep+0", "0x1.c64f60499daf6p-1 -0x1.b036e35cf62e8p-10",
    "0x1.0b8c40e3e09dbp+3 0x1.761a6dd3af58cp-4", "0x1.be1682bd45d52p+5 0x1.e93385216e42ep+6",
    "0x1.b3f08698fde0cp-1 -0x1.48f2351832cdcp-7", "0x1.e0ee604c4222bp-1 -0x1.3b5f28f0e9a75p-2",
    "0x1.c0315708bf1d2p+8 -0x1.4536b56db7503p+10", "0x1.a070ca1efbc09p-1 0x1.8f779ee7a497ep-5",
    "0x1.06ccd5f83eeabp+7 0x1.f972643118d0bp+4", "0x1.48afc5e3cc560p-1 -0x1.d436b6b9916eep-5",
    "0x1.b0c46f3cb7fc7p+1 0x1.372b830b10b8ap+2", "-0x1.7d1457b46f2a5p+5 0x1.08bf73c266b3ep+6",
    "0x1.9b2eeccd0cbe2p-1 0x1.7083cac62b24cp-1", "-0x1.caef33b3b065bp+3 -0x1.d7bdb370fec8ep+5",
    "0x1.064aeb2057ac1p+0 0x1.0aa6410ddc630p-4", "0x1.0d6a4e6e98890p+8 0x1.de091e8c0210ep+7",
    "-0x1.3e1b5c65feaa6p+6 0x1.c565f2c213748p+7", "0x1.e51e722f59f04p-1 0x1.d19c5b4be7c94p-6",
    "0x1.d209114a53a64p+0 -0x1.10587a9cb8f1ap+3", "0x1.aace94604a95bp+11 -0x1.03caebb365e30p+11",
    "0x1.1ffce94f8a9dfp-1 -0x1.5b608dc3b2e5ep-3", "0x1.7f29efdadb522p-1 0x1.cc1d82e6991b8p-4",
    "0x1.28598e5f413aap+2 -0x1.33c04cf8e816bp+5", "-0x1.1ffcebeed19ecp+8 -0x1.f407dec74183cp+8",
    "0x1.1101e863ceb47p+0 0x1.36987cfbab1aap-2", "0x1.139f979462b76p+0 -0x1.668489e53c820p-6",
    "0x1.78dee4bd17378p-1 -0x1.df7d67815683fp-5", "0x1.c146f4e331d8ep-1 0x1.0aabcf45008d7p-2",
    "0x1.4efecaec3f655p+0 0x1.2d97e25c740c8p-2", "0x1.d6fbbb44bdffap-1 -0x1.ec63d087891dep-1",
    "-0x1.cf8f2d2e99140p+2 0x1.bf52ed4d5dd29p+3", "0x1.145a6a0a3a64dp+0 0x1.0e6b39ed8b5fbp-6",
    "0x1.efc2111faa112p-1 0x1.b21b7ba845c99p-5", "0x1.f88304291bf4ep-1 0x1.751c90f4e69d4p-2",
    "-0x1.3e7175b79a38cp-1 -0x1.37f7f417be480p-6", "0x1.affaef52c5f48p-1 0x1.dd6a1fe9aeebdp-4",
    "0x1.994cbbc9892d7p-1 -0x1.fbc856b795d95p-1", "0x1.66c05b2f48225p+3 0x1.a9796f2704403p+1",
    "0x1.92d861009a00fp-1 -0x1.df46df6704094p-3", "-0x1.51a024785f352p-1 0x1.e7ef22314fe88p-2",
    "0x1.4f20149d79ee9p+16 -0x1.952f227a32f72p+14", "0x1.e40c80f5c6196p-1 -0x1.4512cf51adebcp-3",
    "0x1.f5e8f04033dfbp-1 -0x1.a65b1dd266899p-5", "0x1.27fd54c9e0408p-1 0x1.3a6626dc62c3ep-2",
    "0x1.c0c2a79c07debp-2 -0x1.29cd31e02f4c4p-2", "0x1.1b8993118bc5cp+5 0x1.28c7ed58d0ea1p+8",
    "0x1.ad07c0efb64cbp+4 -0x1.1f20add732d00p+3", "0x1.b0b836ff1a5d8p+0 -0x1.a830a043d617fp-3",
    "0x1.80958b67eb601p+3 0x1.1738b188506e4p+4", "0x1.26b72dba23e44p+0 0x1.04f44774c9716p-2",
    "0x1.e15ceec2c84afp-2 -0x1.70998bfeae544p-2", "0x1.0fbe0bc2fe135p+7 -0x1.7cec4d71dbed5p+7",
    "0x1.db94bd3fc11c6p-1 0x1.64f8aefa90f55p-6", "0x1.8bbdbe011fa86p+0 -0x1.718d9c378ade8p-3",
    "-0x1.8c4fa758dacf1p+11 -0x1.bb8814e17a669p+11", "0x1.7d67ba5722fdep-2 0x1.b6d630c3bbe97p-2",
    "0x1.a5a9ca89041c4p-2 -0x1.51b8c70474b2ap-6", "-0x1.b80b485dae28cp+0 -0x1.227dcb36893ffp+4",
    "0x1.d84feeb74c876p-1 0x1.a0c28a2d31bedp-7", "0x1.d92fcfff49a9ap-1 0x1.31090965003c4p-10",
    "0x1.b9c9f12fa6bfep+0 0x1.62e94b813b88cp-3", "-0x1.8ecc5a4f2acfbp+3 -0x1.09e280b4b7909p+3",
    "0x1.446d38e403e76p-2 -0x1.160b62dbf02c3p-2", "0x1.4a655f5687c78p+7 0x1.a2f50f5fb0c63p+8",
    "0x1.ff51e138acec8p-1 -0x1.a6b663226848fp-2", "-0x1.7a298d78b62ecp-2 0x1.55fdefe22a388p-1",
    "0x1.db00d7f7185cfp-1 0x1.e82ca2c6d7068p-6", "0x1.df1851e975b20p-4 0x1.43409323280a0p+2",
    "0x1.256a888253dc8p+0 0x1.1a86318ad51bbp-6", "0x1.105e0e9cd34e1p+0 0x1.809a02ed5805cp-5",
    "0x1.2d47a46756204p+8 0x1.6fd77e0d72d9ep+7", "0x1.250fed5ad26d6p+0 0x1.52e79d0e5d480p-11",
    "0x1.579c2be7ec84bp-2 -0x1.51e7b91b613fcp-3", "0x1.5a12155f9b104p+1 -0x1.113f23a9b57bap+4",
    "0x1.46aa68cc6a6f5p-1 -0x1.118604c4a3ab4p-7", "0x1.63ea81ffc0cd8p+2 0x1.ab4f7533a09c2p+2",
    "-0x1.a5718795ea368p+3 0x1.5c00378e56d4ep+5", "0x1.eb5341b3b6033p-1 -0x1.daa78ad089fe8p-5",
    "0x1.c807249ee5f55p-1 0x1.0a43d72196937p-5", "-0x1.5317c24bc0e4cp-2 0x1.d82abff2c0b22p-1",
    "0x1.28d51b7289df9p+0 0x1.4061e37abc2fap+0", "-0x1.525c1c7dd978ap+8 0x1.ee94d730e40b8p+8",
    "0x1.cbce7cf59dafbp-2 0x1.6a4fd3f94f642p-3", "-0x1.439824154b673p+15 0x1.e3cf671c6cda7p+15",
    "0x1.dcbfaa9f1fe01p-1 -0x1.002f2c3421ccbp-7", "-0x1.747c92fa1534cp+10 -0x1.3cb2c1c4c904cp+9",
    "0x1.d49fea25c151bp+14 -0x1.19f3f4d2a27dbp+14", "-0x1.edefe4351f197p+6 0x1.87de36becd573p+4",
    "0x1.931cd5b4b17aap-1 0x1.e890b9269d060p-3", "0x1.4954eacd32030p+4 0x1.4c895fabf19e2p+0",
    "0x1.00bc72a3de3a4p+0 0x1.399fce11763e5p-2", "0x1.27536be47894ap+0 -0x1.412170565244ep-1",
    "0x1.f2afde863bd1ap-1 0x1.30e2046a8b6d4p-4", "0x1.1cc86b7b0a6d1p+0 0x1.9127aade7bf68p-6",
    "0x1.408d54bd0a75ep+2 0x1.65562d2a0c58cp+2", "0x1.7957a82ad31b1p-1 -0x1.1c36a8b4640a3p-6",
    "0x1.2bfde81f5251bp-1 0x1.6f03cfa0dad63p-3", "0x1.6e5c4394c2e8fp-1 0x1.a011cd81aca93p-2",
    "0x1.817ff78b8fefbp-1 -0x1.8f630babad0a5p-5", "0x1.26502fd6bfd7fp+0 0x1.38ae1da3ab5c2p-3",
    "0x1.28e346d4aba9ap+0 0x1.cdbff74e0a06cp-1", "0x1.e1bf723790ae4p+1 -0x1.042397c626803p+1",
    "0x1.dbba3e0b306fdp+4 -0x1.0824a9115fcdbp+5", "0x1.ed39349414c5bp+8 0x1.1b4ded29082edp+9",
    "0x1.f682a77af41bep-3 0x1.1a6158efbd065p-1", "0x1.1a746debb86acp+0 0x1.ce6c6695a42cbp-6",
    "0x1.bbf3b46e998fcp-1 0x1.3566e1851892fp-6", "-0x1.cc87d12ab83fdp+8 -0x1.fba3567c03ee5p+7",
    "-0x1.e659701830662p-1 -0x1.ab1eeb21a5c79p+0", "0x1.db5581ef9fca0p-1 0x1.af3aa0fddb34dp-6",
    "0x1.075c5e7fce46cp+0 0x1.e265bc7dd9483p-3", "0x1.03444fae76a41p+0 -0x1.72efa8073bcbfp-4",
    "0x1.3f37240b340d2p+0 -0x1.b172d4714a8cap-3", "0x1.69d346416db18p+0 -0x1.3767fb1b003aap+1",
    "-0x1.30041c780d30ep+8 0x1.6d6e07ab81055p+7", "0x1.6f2d70df787d9p+0 0x1.90f60d496ce73p-3",
    "0x1.4111abba71230p+0 -0x1.43a80e0e7124cp-1", "-0x1.644f665a88284p-2 -0x1.7225404469b46p+0",
    "0x1.df244cce38825p-1 -0x1.7ae8f4c60a875p-6", "0x1.1aefbdd754038p-1 0x1.27b38410129d7p-2",
    "-0x1.97a2031b3c2ebp+4 -0x1.ab8e71c8004e8p-4", "0x1.685b7be16a5ffp-1 -0x1.2f650fa856d1cp-3",
    "0x1.6e1c7fdca489cp+8 0x1.373c916441035p+7", "0x1.387123e9228c0p+6 0x1.10224960021edp+11",
    "0x1.a2d25630b1f2ep-1 -0x1.f7a1ec29b6386p-3", "0x1.a93b36f60da0fp-1 -0x1.8f9854d83618ap-6",
    "-0x1.cf3eb9f1e2987p-1 0x1.7865e2fdbd06ap-1", "0x1.82c2b133a8960p+9 -0x1.c5bcffbcf5919p+11",
    "0x1.51bbf0fb094b2p-2 -0x1.dfa08549d8e9ep-4", "-0x1.396358145c659p+7 0x1.2d0ca57a4aeb6p+3",
    "0x1.0736624759885p-1 0x1.aab267ed8b870p-4", "0x1.fb4c921b13e39p-1 -0x1.0c667eeb30ad1p-4",
    "0x1.d91de9c1f50e5p-1 0x1.51f6bac8861cbp-5", "0x1.183c70876f18bp+0 0x1.a937f211b4176p-4",
    "-0x1.1399db3270d6ap-2 -0x1.6b849528d0870p-2", "0x1.3d348a966a936p-1 -0x1.5a0fec522145cp-3",
    "0x1.3a923b032684dp-1 -0x1.4144f267c98a1p-2", "0x1.c923b84769553p-1 0x1.59345c07564a3p-4",
    "0x1.ecc85cba3d2dep-1 0x1.78aa7184f0f93p-4", "0x1.6304a20ce38e5p+0 -0x1.661f292983d4dp-3",
    "0x1.e3abd601b120fp-2 0x1.81624fcfa9c16p-2", "0x1.b4db8b1570b6ap-1 -0x1.f6c86e25fdad3p-7",
    "0x1.7e92ad51464e3p-1 -0x1.b1d8991fdaaa6p-2", "0x1.1a70ae8e1b5f9p+0 0x1.9f526e6a72d56p-6",
    "0x1.d417c77fe0988p-1 0x1.4c5ce930db636p-5", "0x1.eb313f4635c5cp+6 0x1.0ebe70a77dbe1p+6",
    "0x1.44efcb4e62e9ap-1 0x1.304c838d020cbp-2", "0x1.8ad179e2d8bd6p-1 -0x1.093be934893c3p-1",
    "0x1.6e3353dfaacaep+1 -0x1.16196fac28863p+2", "-0x1.22f820134a8ddp+6 -0x1.2e57d3cea0f00p+5",
    "0x1.cb41e3824b3d3p-1 -0x1.a133a9b41aec7p-6", "0x1.ed161857e68dap+1 0x1.3bfdb50dfe60cp-2",
    "0x1.11c54580044a7p+0 0x1.f6fd9314cdc2fp-8", "0x1.15d84804e747ep+0 -0x1.f2678106f9f18p-4",
    "0x1.fbec0b6f62c33p-1 0x1.ba748fe870fabp-3", "0x1.42bdbf50c53bfp+0 -0x1.25790ea4776eep-2",
    "0x1.1d146684abbcbp+0 -0x1.9c39fb1cb43a8p-6", "0x1.eaee1e043628ep-1 0x1.9ffd0ac13df40p-5",
    "0x1.7305697fd9e6dp-1 0x1.96fb91f4bfc54p-8", "-0x1.ae754666299e7p+2 0x1.a1bcc4f645000p-7",
    "0x1.4ceb0111e3c8fp+10 0x1.2563e5ed8db2ep+12", "0x1.3408ea640f5dap-1 -0x1.4ad978af8f9e0p-2",
    "0x1.321121006c226p+0 -0x1.6c2c185e51d74p-2", "0x1.7fb52699690c1p+7 -0x1.408ba55c31ac2p+7",
    "0x1.0e5a77d7d86b1p+0 0x1.649e18cbe60fbp-4", "0x1.7219d611bbaeep-1 0x1.9e5bd9d329c08p-4",
    "0x1.ec67374bfacd7p-1 -0x1.1312713004e98p-3", "0x1.d8c4c5eab633cp-1 -0x1.bd1830db51bacp-6",
    "0x1.0a23f6b4d9c63p+0 -0x1.60dcd71e772b9p-4", "0x1.c57608c0e5ed1p-1 -0x1.158aa04ff3b77p-4",
    "-0x1.1c52388a7547cp+1 -0x1.b0c958d43303ep+4", "0x1.dbcab727a08b2p+0 0x1.69e180dcd60a4p+0",
    "0x1.332267017b6c4p+6 -0x1.d346df6f048fdp+2", "-0x1.53183862917f8p-1 -0x1.2448d64417e9ep+0",
    "0x1.4e8307b99b412p+1 -0x1.f40e40369b5fbp+1", "0x1.b7e729a857608p+0 -0x1.44aedb7c892cdp+0",
    "0x1.0cc213a40ab15p-1 -0x1.37fb1c5956a45p+0", "0x1.17bbfc86bc264p+14 -0x1.7428f111363b3p+13",
    "0x1.ad950bd8f387ep-1 -0x1.2325201802cc2p-6", "0x1.02c8085b70f2cp+0 0x1.713cb8688e58ap-3",
    "0x1.e7708bfd511e0p+7 -0x1.86c0d173f7b65p+8", "0x1.91293cc6d899fp-1 -0x1.d4482dea8ae6ep-3",
    "0x1.b01bd86ba24edp+0 0x1.91039252477a0p-7", "-0x1.960f3c524706bp+10 -0x1.612556658f720p+9",
    "0x1.0eabf8c6707e9p+0 -0x1.5dfb5d585a053p-3", "0x1.ba645d85e972ep-1 0x1.13f67f6f23104p-2",
    "-0x1.552db97577a64p+0 -0x1.7bead8f5b8b24p-2", "0x1.78752880884e5p-1 0x1.e9047b65c9f18p-4",
    "0x1.0882cd3f75d9ap+0 -0x1.27e67e24fdb13p-2", "0x1.e37411245cc9dp-1 0x1.a8351512d2493p-4",
    "0x1.c82f2ac1c4f63p+11 0x1.bfe63dd1e7001p+10", "0x1.a6fee320a3dc6p+2 0x1.5ab6ed9f6af31p+2",
    "0x1.1884d4f9bca39p+0 -0x1.3ab360448e29cp-4", "0x1.519fb0b438b34p+4 0x1.4172a5149758ep+3",
    "0x1.0e6ad92cfd8aep+2 -0x1.ef6fe05ff62bfp+2", "0x1.d9c1fbcae3760p+3 0x1.8ca00ff7a436dp+2",
    "0x1.0f4100fe36e88p+0 -0x1.02fc814493175p-5", "0x1.6adbff744f4ccp+0 -0x1.52cb634939e1cp-3",
    "0x1.fc9ec7e36cd8bp-1 -0x1.4a5ddd76053cep-3", "0x1.1e0fb9a1eaf79p+2 0x1.8bdab892b80b6p+1",
    "-0x1.45587dde1a24ap+0 -0x1.4b77f0f9ef8d1p-1", "0x1.dc25d377b619bp+9 -0x1.d82d7985bf4c5p+6",
    "0x1.1823918c9bcb3p+0 0x1.756d2b359c69fp-5", "0x1.454545235f3a6p+8 0x1.2e71d7dfbfb88p+7",
    "0x1.a6133fb048adcp+3 0x1.7dd0847309617p+0", "0x1.de845ebc1cb88p+4 0x1.ea458728d9fc9p+7",
    "0x1.0ffbef01ca11bp+10 -0x1.8ddb3f31fc930p+9", "-0x1.c6e10b1663f25p+14 -0x1.0261892013512p+14",
    "0x1.031c0b2384cc2p-2 -0x1.6ce392e8521bep-2", "0x1.ec0f684c1df1fp-1 -0x1.00fb829fb720dp-3",
    "0x1.771fb7acbf2d4p+0 0x1.46d73991af9f1p+0", "0x1.ea555426d25b3p-1 0x1.22d8860e58014p-3",
    "0x1.7839660b261aap+2 -0x1.3eaf257ae3feap+3", "0x1.02b5f90a3395bp+1 -0x1.ff2d63bbbef41p+2",
    "0x1.21e22d726aa8bp+0 0x1.07f38e5ea0346p-3", "0x1.03ef82460593fp+0 -0x1.77cf0fbecddc7p-3",
    "0x1.ece42dab7a118p-1 0x1.2f8e753c9aa43p-4", "0x1.921a801849df0p+0 -0x1.3119a30d7ffe5p+0",
    "-0x1.79ffb44826838p+3 0x1.72f028aa53212p+5", "0x1.808175f2a2493p+6 -0x1.8d738cd007fcap+5",
    "0x1.dc8104e15d7dep+0 0x1.6d497123e8f46p+0", "0x1.4e7ebf8527661p-1 0x1.f4dcf71e4b2c0p-3",
    "0x1.d2ddf6fbcb400p+0 0x1.97fc632f9d1c4p-1", "0x1.cc378b5ae5b0fp+4 0x1.530405f182398p+1",
    "0x1.00411b5fb4466p+0 -0x1.ad93c5ceb2e00p-4", "-0x1.fb9dc13777158p+8 -0x1.faabcd7567372p+9",
    "-0x1.033c05424ba46p+7 0x1.0cd6461fb8d64p+6", "0x1.5ef4b9448cde2p+1 0x1.f974ab189e33bp-2",
    "0x1.24f62e693e790p+8 0x1.f3c0a0326ad8ep+12", "0x1.6fb566d240ac6p+0 -0x1.b063b24388002p-2",
    "-0x1.2fa506a8e14f4p+6 -0x1.857d816816d36p+7", "0x1.82f5bbe454d5dp+0 -0x1.551a5056b95b6p-2",
    "0x1.de375d5e3d10dp-1 0x1.522db97eab15bp-5", "0x1.fd8bd0397aba3p+1 -0x1.183b2f1860364p+3",
    "0x1.8fabcf6dc1545p+12 -0x1.9a249216421edp+10", "0x1.2dabf91404ba4p+13 0x1.488e91546bb99p+11",
    "0x1.4ca3e73c7222bp+10 -0x1.4906880825708p+8", "0x1.c7da0f26e8a64p+3 -0x1.73b2787bc8f51p+0",
    "0x1.96e06c3600795p-1 -0x1.7a0af9ac6eee6p+0", "0x1.8f867140885cep-2 0x1.0d045f09fbfb5p-3",
    "0x1.c505c249dcf16p-3 0x1.627c9e040d8a5p-2", "-0x1.b804c76ea42e1p+6 0x1.16b929f8758a6p+7",
    "0x1.2d0df1e2f3e61p+7 -0x1.11a5d255f1f96p+6", "-0x1.3db090829850cp+5 0x1.cca552c389567p+3",
    "0x1.3ea0ae78df35fp+0 0x1.ffc232e6c5dc2p-4", "0x1.266460fa3095ap+0 0x1.10e46165ed232p-3",
    "0x1.217bf44543271p+0 -0x1.62f7b793d41fdp-4", "0x1.ac205ae5c0847p-1 0x1.cc5fc7f44a1bbp-5",
    "0x1.4729fbd17012fp+2 0x1.e59986c89d36fp+1", "0x1.db4f8cd051d97p+11 -0x1.69d2c8669ca84p+13",
    "0x1.1ae4f1d99a2b7p+0 -0x1.79a801f5fa88dp-4", "0x1.643cf6b8cb284p+1 0x1.50e299c3e30dep+0",
    "0x1.5ba4959cdbf62p-1 -0x1.db58ba4536f1ap-2", "0x1.b0fbff0da6e16p-1 -0x1.411e7272dfa62p-2",
    "0x1.1af5ce335e07cp+0 0x1.1e08c03cf53b5p-9", "0x1.4694cb0d64af3p+0 0x1.a960b34925ea6p-6",
    "-0x1.82dc3fc5cfb17p+9 -0x1.ba366d6ae6278p+5", "0x1.361cad2a5bf50p+9 0x1.f462e472fad43p+9",
    "-0x1.430d34c02554ep+5 0x1.8ea25bd7dea20p-3", "0x1.09256892a6089p+11 -0x1.0ecdcce5f2058p+14",
    "0x1.29ecc663d2272p+0 -0x1.4f0720e96be90p-4", "0x1.cc647a493532ap+0 -0x1.51c4229c23e72p+0",
    "0x1.a7ad32e2e8e04p-1 0x1.2f66d7f6dd944p-3", "0x1.60501d4ae7c90p-1 -0x1.0ed76cc29f587p-3",
    "0x1.13259b5856929p+0 0x1.fe00ca1685c0bp-5", "-0x1.287fc31d74160p-2 0x1.7c28589775dcfp+2",
    "0x1.55d9ac050af83p+7 0x1.0e9c0e434dd14p+4", "0x1.f5003d758f3d3p+17 -0x1.008e942c497b5p+20",
    "0x1.f422bf40797aep-1 -0x1.9851414072f78p-5", "0x1.e760c3864cc3ap-1 0x1.84490c0a65d60p-3",
    "0x1.b1746e16a79ccp+1 0x1.0bf86fead3b22p+1", "-0x1.b98d0c1b5aa6fp-3 -0x1.085e20e69f4e3p-2",
    "-0x1.7ce0de12ea205p+11 -0x1.416152fe36a29p+10", "-0x1.228a9cb5644d8p+2 -0x1.207eae1fc349ap+7",
    "0x1.5b62038a1d03cp+0 -0x1.b5f2e6f657346p-3", "0x1.037e8a70e1c2fp+0 -0x1.7c781e9fb6230p-4",
    "0x1.fdbf7229be199p-1 -0x1.d860564912a2cp-3", "0x1.92f5e4a7c9dbdp+6 0x1.ff182615f235fp+6",
    "0x1.f87a21f2be682p-1 0x1.d58143225c473p-4", "-0x1.b47d45f03d27ep+3 -0x1.9c8e8e62a6ebap+5",
    "0x1.03129098ca053p+0 -0x1.062c382ccefcfp-2", "-0x1.1eff765cdad2dp+6 0x1.337e70a8db0ecp+6",
    "0x1.710193f35316ep-5 -0x1.705d1e47b4d6ep-1", "0x1.0e31885b89235p+0 0x1.7d5f4cb23d190p-4",
    "-0x1.266a330e788c4p+8 -0x1.2967b504199bap+6", "0x1.592fb3b71654fp+16 0x1.0221f7d7302c8p+14",
    "0x1.16b1c7e6b3111p+9 0x1.e8d5c1600b000p+9", "0x1.00181bf2b202dp+0 -0x1.901156010d062p-3",
    "0x1.1d438c0800200p+0 0x1.8f57909cbab00p-1", "0x1.3fb72bc9a3168p-4 -0x1.8902075e30447p+0",
    "0x1.a075eb9fa4c6cp-1 -0x1.515c32b71c380p-4", "0x1.08f81c2bdc80ap+1 -0x1.f74a83761ee2cp-1",
    "0x1.28ae7e4f18d16p+2 0x1.4c23e184d54dcp+1", "0x1.2657f482ea660p+0 -0x1.3a806c7ab84fcp-5",
    "-0x1.3ae18de479935p+6 -0x1.a9dcf9ff5908fp+7", "0x1.0b5469b4f7391p+0 -0x1.efe952b4c76f3p-4",
    "-0x1.a487792851a12p+6 0x1.c5650f85ec772p+6",
)


class TestPinnedZeta:
    def test_scattered_mix_is_bit_identical(self, rs_calls):
        s = _pinned_zeta_points()
        vals = zeta_batch(s)
        want = np.array([complex(*map(float.fromhex, v.split())) for v in PINNED_ZETA])
        changed = np.flatnonzero(vals != want)
        assert not changed.size, s[changed][:5]
        # the Riemann-Siegel points came in more than one block
        assert len(rs_calls) > 1 and sum(c.size for c in rs_calls) == 193


_LOWER_LEFT = st.tuples(st.floats(SIGMA_MIN, -0.5, exclude_min=True), st.floats(0.0, 60.0))
_BOX = st.tuples(st.floats(SIGMA_MIN, 4.0, exclude_min=True), st.floats(0.0, TAU_MAX))


class TestZetaDiagnostics:
    def test_mixed_batch_counts_every_point_once(self, rs_calls):
        rng = np.random.default_rng(31)
        s = np.concatenate([
            rng.uniform(-0.9, 1.1, 70) + 1j * rng.uniform(RS_T_MIN, TAU_MAX, 70),  # Riemann-Siegel
            rng.uniform(RS_SIGMA_MAX, 3.0, 20) + 1j * rng.uniform(-TAU_MAX, TAU_MAX, 20),
            rng.uniform(-0.9, 3.0, 30) + 1j * rng.uniform(-400.0, 400.0, 30),
        ])
        diagnostics = {}
        vals = zeta_batch(s, diagnostics=diagnostics)
        # every Euler-Maclaurin point takes all 22 corrections
        assert diagnostics == {"progression": 0, "riemann_siegel": 70, "euler_maclaurin": 50,
                               "cutoff": 0, "tail_terms": 22 * 50}
        assert sum(c.size for c in rs_calls) == 70
        assert sum(v for k, v in diagnostics.items() if k not in ("cutoff", "tail_terms")) == s.size
        # the dict changes no bit of the values
        assert np.array_equal(vals, zeta_batch(s))

    def test_progression_reports_its_cutoff(self, grid_calls):
        s = _rows(1.2, [30.0, 950.0], 0.5, 40)
        diagnostics = {"progression": -1}
        vals = zeta_batch(s, diagnostics)
        k = int(special._direct_sum_cutoff(1.2, float(np.max(s.imag))))
        # column c takes the corrections j whose start is at most c
        starts = special._tail_starts(1.2, s.imag[:, 0], 0.5, 40, k)
        terms = 2 * sum(int(np.count_nonzero(starts <= c)) for c in range(40))
        assert diagnostics == {"progression": s.size, "riemann_siegel": 0, "euler_maclaurin": 0,
                               "cutoff": k, "tail_terms": terms}
        assert 0 < terms <= 22 * s.size
        assert grid_calls[0][4].size == k - 1
        assert np.array_equal(vals, zeta_batch(s))

    def test_empty_batch(self):
        diagnostics = {}
        assert zeta_batch(np.array([], dtype=complex), diagnostics).size == 0
        assert sum(diagnostics.values()) == 0


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
        with pytest.raises(ParameterOutOfRange):
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

    def test_up_to_where_gamma_overflows(self):
        # past real z ~ 142.4 the Lanczos power t^(z - 1/2) alone overflows,
        # and from z ~ 142.2 sqrt(2 pi) times it does, long before Gamma does
        # at 171.62; both sides of the reflection stay exact
        import mpmath

        for z in (142.3, 142.35, 142.5, 150.25, 171.5, -141.3, -141.5, -160.75, -170.5,
                  complex(120.0, 60.0)):
            ref = complex(mpmath.rgamma(z))
            assert abs(recip_gamma(z) - ref) <= 1e-12 * abs(ref), z

    @pytest.mark.parametrize("z", [171.7, 400.0, 1e300, -170.7, -299.5, complex(200.0, 200.0)])
    def test_gamma_past_the_double_range_is_refused(self, z):
        # -299.5 ended in OverflowError: complex exponentiation, through
        # hankel-check --l 300
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            recip_gamma(z)

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

