import dataclasses
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from delange import perron, special
from delange.contour import load_zeros, zeroset_from_pairs
from delange.errors import (
    OutOfValidatedRange,
    ParameterOutOfRange,
    QuadratureNotConverged,
)
from delange.families import builtin_family
from delange.perron import (
    _KRONROD_NODES,
    _PAIR_WEIGHTS,
    DEFAULT_B_OFFSET,
    HANKEL_LEG_LEFT_ETA,
    QuadratureSpec,
    _converged,
    hankel_closed_form,
    hankel_main_term,
    line_node_count,
    loop_node_count,
    ml_integral_check,
    nudge_to_zero_gap,
    perron_line_sum,
)
from delange.sieve import Window, exact_sum


def _legendre(n: int) -> list[Fraction]:
    """Coefficients of P_n, lowest degree first, by Bonnet's recurrence."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        x_cur = [Fraction(0)] + cur
        prev = prev + [Fraction(0)] * (len(x_cur) - len(prev))
        prev, cur = cur, [((2 * k + 1) * a - k * b) / (k + 1) for a, b in zip(x_cur, prev)]
    return cur


def _moment(k: int) -> Fraction:
    """integral of x^k over [-1, 1]."""
    return Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _weights_exact_to(nodes, degree: int):
    """Weights on nodes that integrate x^0..x^(n-1) exactly, and the largest
    error of the rule over x^0..x^degree (mpmath at the working precision)."""
    n = len(nodes)
    A = mpmath.matrix([[x**k for x in nodes] for k in range(n)])
    w = mpmath.lu_solve(A, mpmath.matrix([_mpf(_moment(k)) for k in range(n)]))
    err = max(abs(mpmath.fsum(wj * x**k for wj, x in zip(w, nodes)) - _mpf(_moment(k)))
              for k in range(degree + 1))
    return [w[j] for j in range(n)], err


class TestKronrodRule:
    def test_rule_rebuilt_at_40_digits(self):
        # E_11 = x^11 + c_9 x^9 + ... + c_1 x is orthogonal to x^k P_10 for odd
        # k <= 9 (even k vanish by parity); its roots and P_10's are the nodes
        p10 = _legendre(10)

        def against(j, k):  # integral of x^j x^k P_10
            return sum(c * _moment(i + j + k) for i, c in enumerate(p10))

        odd = (1, 3, 5, 7, 9)
        with mpmath.workdps(40):
            A = mpmath.matrix([[_mpf(against(j, k)) for j in odd] for k in odd])
            rhs = mpmath.matrix([-_mpf(against(11, k)) for k in odd])
            c = mpmath.lu_solve(A, rhs)
            e11 = [mpmath.mpf(0)] * 12
            e11[11] = mpmath.mpf(1)
            for j, cj in zip(odd, c):
                e11[j] = cj
            stieltjes = sorted(mpmath.re(r) for r in mpmath.polyroots(e11[::-1], maxsteps=200, extraprec=100))
            gauss = sorted(mpmath.re(r) for r in mpmath.polyroots(
                [_mpf(q) for q in p10[::-1]], maxsteps=200, extraprec=100))
            nodes = sorted(stieltjes + gauss)
            assert nodes[1::2] == gauss and nodes[0::2] == stieltjes  # they interlace
            wk, err_k = _weights_exact_to(nodes, 31)
            wg, err_g = _weights_exact_to(gauss, 19)
            assert err_k < mpmath.mpf(10) ** -30 and err_g < mpmath.mpf(10) ** -30
            assert _KRONROD_NODES.tolist() == [float(x) for x in nodes]
            assert _PAIR_WEIGHTS[0].tolist() == [float(w) for w in wk]
            assert _PAIR_WEIGHTS[1][1::2].tolist() == [float(w) for w in wg]
        assert not _PAIR_WEIGHTS[1][0::2].any()

    def test_odd_nodes_are_the_10_point_gauss_rule(self):
        glx, glw = leggauss(10)
        np.testing.assert_allclose(_KRONROD_NODES[1::2], glx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_PAIR_WEIGHTS[1][1::2], glw, rtol=0, atol=1e-15)

    @staticmethod
    def line_and_rules(fam, npu: int):
        """perron._line_pair's (fine, coarse) on the divisor line x = 1000,
        y = 100, T = 200 at npu nodes a unit, and each rule's own sum over the
        same panels with one exp per node: the 21 Kronrod nodes and weights
        for the fine estimate, numpy's 10-point Gauss rule for the coarse one.
        Each sum comes with the absolute sum of its terms, which its rounding
        scales with."""
        x, y, T = 1000.0, 100.0, 200.0
        b = 1.0 + DEFAULT_B_OFFSET / math.log(x)
        pair = perron._line_pair(fam, x, y, b, T, QuadratureSpec(nodes_per_unit=npu))
        panels = max(4, math.ceil(T * (npu // 2) / 10))
        # the first panel in FIRST_PANEL_SPLIT equal sub-panels, then the rest
        edges = np.linspace(0.0, T, panels + 1)
        edges = np.concatenate([np.linspace(0.0, edges[1], perron.FIRST_PANEL_SPLIT + 1),
                                edges[2:]])
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]

        def rule(nodes, weights):
            s = b + 1j * (mid + half * nodes[None, :])
            terms = fam.closed_form_F(s) * perron._kernel(s, x, y) * (half * weights) / math.pi
            return np.sum(terms).real, np.sum(np.abs(terms)), s.size

        kronrod, gauss = rule(_KRONROD_NODES, _PAIR_WEIGHTS[0]), rule(*leggauss(10))
        assert kronrod[2] == line_node_count(T, QuadratureSpec(nodes_per_unit=npu))
        assert gauss[2] == kronrod[2] * 10 // 21
        return pair, kronrod[:2], gauss[:2]

    def test_coarse_estimate_is_the_gauss_sum_on_the_same_panels(self, fam_div2):
        (fine, coarse), (want_fine, scale_fine), (want_coarse, scale_coarse) = (
            self.line_and_rules(fam_div2, 60))
        # the split panel adds 904 and the rest -96: rounding scales with the
        # terms' absolute sum (about 1.7e4), not with their sum 808.  At 60 a
        # unit the two estimates agree to rounding, so each is held to its own rule
        assert abs(fine - want_fine) <= 1e-14 * scale_fine
        assert abs(coarse - want_coarse) <= 1e-14 * scale_coarse
        assert type(fine) is type(coarse) is float

    def test_the_two_rules_are_told_apart_below_convergence(self, fam_div2):
        # at 12 a unit the estimates differ by 2.7e-7, far past either bound,
        # so a fine estimate from the Gauss weights (or the reverse) fails here
        (fine, coarse), (want_fine, scale_fine), (want_coarse, scale_coarse) = (
            self.line_and_rules(fam_div2, 12))
        assert abs(fine - want_fine) <= 1e-14 * scale_fine
        assert abs(coarse - want_coarse) <= 1e-14 * scale_coarse
        assert abs(fine - coarse) > 1e3 * 1e-14 * max(scale_fine, scale_coarse)

    @pytest.mark.parametrize("npu, converges", [(12, False), (14, True)])
    def test_graded_density_threshold(self, fam_one, npu, converges):
        # measured on this line: the fine-coarse move is 1.5e-3 at 12 a unit,
        # 2.0e-4 at 14, 1.1e-6 at 16 and 3.2e-9 at 24; 14 is the lowest
        # density that passes
        spec = QuadratureSpec(nodes_per_unit=npu)
        win = Window(20000, 2000)
        if converges:
            v = perron_line_sum(fam_one, win, 100.0, spec)
            assert abs(v - 2000.0) * 100.0 / win.x**1.01 <= 20.0  # criterion 6's envelope
        else:
            with pytest.raises(QuadratureNotConverged):
                perron_line_sum(fam_one, win, 100.0, spec)

    def test_first_panel_block_takes_the_factored_sum(self, fam_one, grid_calls, monkeypatch):
        # the sub-panels next to the pole are a (21, 8) progression of their
        # own, below the uniform panels, and every node is on a progression
        # whose layout the line hands down, so zeta_batch never looks for
        # one; the slices come from the top down.  T = 2500 has 3,999
        # uniform panels, which take two slices, so the seam between them is
        # covered too
        searched, given = [], []
        monkeypatch.setattr(special, "_progression", lambda s: searched.append(s))
        real = special._given_layout

        def spy(s, grid):
            given.append(real(s, grid))
            return given[-1]

        monkeypatch.setattr(special, "_given_layout", spy)
        spec = QuadratureSpec()
        b = 1.0 + DEFAULT_B_OFFSET / math.log(1e4)
        for T, calls in ((100.0, 2), (2500.0, 3)):
            given.clear()
            grid_calls.clear()
            perron._line_pair(fam_one, 1e4, 1e3, b, T, spec)
            assert not searched and len(given) == calls
            blocks = [(args[1].size, args[3]) for args in grid_calls]
            assert blocks[-1] == (21, perron.FIRST_PANEL_SPLIT)
            assert sum(rows * count for rows, count in blocks) == line_node_count(T, spec)
            tops = [args[1][-1] + (args[3] - 1) * args[2] for args in grid_calls]
            assert tops == sorted(tops, reverse=True) and tops[0] < T

    # scheme= spelled out, as perfbench's traced runs pass it
    @pytest.mark.parametrize("scheme, npu", [("gauss_segment", 60)])
    def test_closed_form_evaluated_once_per_node(self, fam_one, scheme, npu):
        # no probe of its own: every call is a slice of the line with its layout
        seen = []

        def spy(s, **kwargs):
            seen.append((np.shape(s), sorted(kwargs)))
            return fam_one.closed_form_F(s, **kwargs)

        fam = dataclasses.replace(fam_one, closed_form_F=spy)
        spec = QuadratureSpec(nodes_per_unit=npu, scheme=scheme)
        perron_line_sum(fam, Window(1000, 100), 123.4, spec)
        assert all(len(shape) == 2 and shape[0] == 21 and kw == ["grid"] for shape, kw in seen)
        assert sum(math.prod(shape) for shape, _ in seen) == line_node_count(123.4, spec)


class TestKernel:
    """_kernel against ((x+y)^s - x^s)/s in mpmath at 40 digits."""

    @pytest.mark.parametrize(
        "x, y, series",
        [(1e5, 1e4, [False] * 6),
         # y/x = 1e-6: the three lowest nodes take the series for exp(w) - 1
         (1e5, 0.1, [True, True, True, False, False, False])],
    )
    def test_both_branches_against_mpmath(self, x, y, series):
        s = np.array([1.1 + 0.0j, 1.08 + 30.0j, 0.5 - 80.0j, 1.08 + 200.0j, 2.0 + 1000.0j, 1.5 - 990.0j])
        assert (np.abs(s * math.log1p(y / x)) < 1e-4).tolist() == series
        got = perron._kernel(s, x, y)
        with mpmath.workdps(40):
            for si, gi in zip(s.tolist(), got.tolist()):
                ms = mpmath.mpc(si.real, si.imag)
                want = complex((mpmath.power(mpmath.mpf(x) + y, ms) - mpmath.power(x, ms)) / ms)
                # the phase s log x carries a rounding error of order eps |s| log x
                assert abs(gi - want) <= 1e-15 * (1.0 + abs(si) * math.log(x)) * abs(want), (si, gi, want)


    @pytest.mark.parametrize("x, y, where", [(1e5, 1e4, "slice"), (1e5, 0.1, "first")])
    def test_line_layout_against_mpmath(self, x, y, where):
        # the kernel on a layout _line_pair hands it: the 21 x 3120 uniform
        # slice of the line at T = TAU_MAX that starts at t = 96,000, or the
        # split first panel, where y/x = 1e-6 puts the low nodes on the series
        b = 1.0 + DEFAULT_B_OFFSET / math.log(x)
        first, rest = perron._line_edges(special.TAU_MAX, QuadratureSpec())
        edges = first if where == "first" else rest[np.searchsorted(rest, 96000.0):][:3121]
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        t = mid + half * _KRONROD_NODES[:, None]
        s = b + 1j * t
        dt = (edges[-1] - edges[0]) / (edges.size - 1)
        got = perron._kernel(s, x, y, (b, t[:, 0], dt))
        per_node = perron._kernel(s, x, y)
        rng = np.random.default_rng(7)
        rows, cols = rng.integers(0, 21, 150), rng.integers(0, s.shape[1], 150)
        if where == "first":
            rows[:3], cols[:3] = 0, 0  # the lowest nodes take the series
            assert np.abs(s[0, 0] * math.log1p(y / x)) < 1e-4
        err_grid, err_node = [], []
        with mpmath.workdps(30):
            for r, j in zip(rows.tolist(), cols.tolist()):
                si = complex(s[r, j])
                ms = mpmath.mpc(si.real, si.imag)
                want = complex((mpmath.power(mpmath.mpf(x) + y, ms) - mpmath.power(x, ms)) / ms)
                # the bound of test_both_branches_against_mpmath
                assert abs(got[r, j] - want) <= 1e-15 * (1.0 + abs(si) * math.log(x)) * abs(want)
                err_grid.append(abs(got[r, j] - want) / abs(want))
                err_node.append(abs(per_node[r, j] - want) / abs(want))
        # no worse than one exp per node, up to the few eps of the doubling
        # factors where the phases are short
        assert max(err_grid) <= max(err_node) + 8 * 2.2e-16


class TestPerronLine:
    def test_constant_one_window(self, fam_one):
        win = Window(10**4, 10**3)
        v = perron_line_sum(fam_one, win, 1000.0)
        assert abs(v.real - 1000.0) <= 0.05 * win.y
        assert abs(v.imag) < 1e-6

    def test_divisor_against_sieve(self, fam_div2):
        win = Window(10**3, 10**2)
        v = perron_line_sum(fam_div2, win, 2000.0)
        exact = exact_sum(fam_div2, win)
        assert abs(v - exact) / abs(exact) <= 0.05

    def test_truncation_shrinks_with_T(self, fam_one):
        win = Window(10**4, 10**3)
        errs = [abs(perron_line_sum(fam_one, win, T).real - 1000.0) for T in (250.0, 4000.0)]
        assert errs[1] <= errs[0] + 0.5  # up to quadrature noise

    def test_squarefree_ratio_form(self, fam_sqfree):
        # exercises the zeta(2s) path of the closed form
        win = Window(10**3, 10**2)
        v = perron_line_sum(fam_sqfree, win, 1500.0)
        exact = exact_sum(fam_sqfree, win)
        assert abs(v - exact) / abs(exact) <= 0.05

    def test_budget_guard(self, fam_one):
        with pytest.raises(ParameterOutOfRange):
            perron_line_sum(fam_one, Window(10**6, 10**3), 500.0)

    def test_height_floor(self, fam_one):
        with pytest.raises(ParameterOutOfRange, match="T must be at least 10"):
            perron_line_sum(fam_one, Window(10**3, 10**2), 9.5)

    @pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, 2.0e5])
    def test_height_outside_validated_range(self, fam_one, T):
        with pytest.raises(OutOfValidatedRange):
            perron_line_sum(fam_one, Window(10**3, 10**2), T)

    def test_closed_form_out_of_reach_fails_fast(self, fam_sqfree):
        # zeta(2s) leaves the validated box above T = 5e4; the top slice,
        # evaluated first, must say so before any other slice is summed
        t0 = time.perf_counter()
        with pytest.raises(OutOfValidatedRange, match=r"squarefree_omega_power.*T=60000"):
            perron_line_sum(fam_sqfree, Window(1000, 100), 6.0e4)
        assert time.perf_counter() - t0 < 0.5

    def test_omega_reach_ends_at_a_third_of_the_box(self):
        # omega:z takes zeta(2s) and zeta(3s), and 3 T = 1.2e5 leaves zeta's box
        t0 = time.perf_counter()
        with pytest.raises(OutOfValidatedRange, match=r"omega_power.*T=40000"):
            perron_line_sum(builtin_family("omega_power", 0.5), Window(1000, 100), 4.0e4)
        assert time.perf_counter() - t0 < 0.5

    def test_zeta_powers_reach_the_top_node_at_the_same_height(self, fam_one, fam_div2):
        # the top node on its own: a full line integral at this height takes
        # tens of seconds
        b = 1.0 + DEFAULT_B_OFFSET / math.log(1000)
        for fam in (fam_one, fam_div2):
            assert np.all(np.isfinite(fam.closed_form_F(np.array([complex(b, 6.0e4)]))))

    @pytest.mark.parametrize("b_offset", [-2.0, 0.0, math.inf, math.nan])
    def test_line_at_or_left_of_the_pole_is_refused(self, fam_one, b_offset):
        # offset -2 gave rel_dev ~1 and offset 0 gave 0.5, both with exit 0
        with pytest.raises(ParameterOutOfRange, match="b_offset"):
            perron_line_sum(fam_one, Window(10**4, 10**3), 100.0, b_offset=b_offset)

    def test_line_needs_x_of_two(self, fam_one):
        # x = 1 put log x = 0 under b_offset: a ZeroDivisionError traceback
        with pytest.raises(ParameterOutOfRange, match="x >= 2"):
            perron_line_sum(fam_one, Window(1, 1), 50.0)

    def test_offset_past_the_double_range_is_refused(self, fam_one, monkeypatch):
        # b_offset = 1e300 made (x + y)^s overflow; refused before any node
        monkeypatch.setattr(perron, "_line_pair", None)
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            perron_line_sum(fam_one, Window(1000, 100), 50.0, b_offset=1e300)

    def test_node_count(self):
        # 300 panels at 60 a unit, the first split in 8: 21 (300 - 1 + 8)
        assert line_node_count(100.0, QuadratureSpec(nodes_per_unit=60)) == 6447
        assert line_node_count(100.0) == 21 * (160 + 7)

    # scheme= spelled out, as perfbench's traced runs pass it
    @pytest.mark.parametrize("scheme", ["gauss_segment"])
    @pytest.mark.parametrize("T", [0.5, 123.4, 1000.0])
    def test_node_count_matches_the_nodes_built(self, T, scheme):
        spec = QuadratureSpec(nodes_per_unit=60, scheme=scheme)
        panels = sum(edges.size - 1 for edges in perron._line_edges(T, spec))
        assert line_node_count(T, spec) == 21 * panels

    # scheme= spelled out, as perfbench's traced runs pass it
    @pytest.mark.parametrize(
        "T, npu, scheme, refused",
        [(1.0e5, 32, "gauss_segment", False),   # 3,360,147 nodes, the default density at TAU_MAX
         (1.0e5, 60, "gauss_segment", True),    # 6.3e6 + 147, the split first panel
         (60000.1, 100, "gauss_segment", True)],  # 6.3e6 + 168
    )
    def test_line_node_budget(self, fam_one, monkeypatch, T, npu, scheme, refused):
        # the count is checked before any node is built, so an accepted line
        # gets as far as building its nodes and a refused one does not
        class Built(Exception):
            pass

        def build(*args):
            raise Built

        monkeypatch.setattr(perron, "_line_edges", build)
        spec = QuadratureSpec(nodes_per_unit=npu, scheme=scheme)
        assert (line_node_count(T, spec) > 6_300_000) == refused
        with pytest.raises(ParameterOutOfRange if refused else Built):
            perron_line_sum(fam_one, Window(10**4, 10**3), T, spec)

    def test_density_above_its_bound_is_refused(self):
        assert QuadratureSpec(nodes_per_unit=1000).nodes_per_unit == 1000
        with pytest.raises(ParameterOutOfRange, match="nodes_per_unit"):
            QuadratureSpec(nodes_per_unit=1001)

    def test_scheme_other_than_gauss_kronrod_is_refused(self):
        assert QuadratureSpec(scheme="gauss_segment") == QuadratureSpec()
        for scheme in ("trapezoid", "bogus"):
            with pytest.raises(ParameterOutOfRange, match="scheme"):
                QuadratureSpec(scheme=scheme)

    def test_odd_density_is_refused(self):
        # the rules run at half the density: 61 would run as 60 and be recorded as 61
        for npu in (5, 61, 999):
            with pytest.raises(ParameterOutOfRange, match=f"nodes_per_unit={npu} must be even"):
                QuadratureSpec(nodes_per_unit=npu)
        with pytest.raises(ParameterOutOfRange, match="exceeds 1000"):
            QuadratureSpec(nodes_per_unit=1001)


class TestRandomInputs:
    def test_perron_line_on_seeded_windows(self, fam_one, fam_div2, fam_sqfree):
        # criterion 6's fitted envelope |perron - exact| T / x^1.01 <= 20
        rng = random.Random(20240601)
        for _ in range(12):
            fam = rng.choice((fam_one, fam_div2, fam_sqfree))
            x = int(10 ** rng.uniform(3.0, 5.0))
            T = rng.choice((250.0, 500.0, 1000.0))
            win = Window(x, x // 10)
            v = perron_line_sum(fam, win, T)
            assert abs(v - exact_sum(fam, win)) * T / x**1.01 <= 20.0, (fam.name, x, T)

    def test_omega_perron_line_on_seeded_windows(self):
        # the same envelope as above, on its own generator, twice for each z
        rng = random.Random(20261019)
        for z in (0.5, 1.5, 2.0, 3.0) * 2:
            fam = builtin_family("omega_power", z)
            x = int(10 ** rng.uniform(3.0, 5.0))
            T = rng.choice((250.0, 500.0, 1000.0))
            win = Window(x, x // 10)
            v = perron_line_sum(fam, win, T)
            assert abs(v - exact_sum(fam, win)) * T / x**1.01 <= 20.0, (z, x, T)

    def test_hankel_at_seeded_heights(self):
        # what the legs leave out left of 1/2 + eta bounds the deviation:
        # |sin(pi nu)|/pi integral_a^inf (t^nu) u^-t dt with a = 1/2 - eta,
        # nu = l - kappa, at most |sin(pi nu)|/pi a^nu u^-a / (log u - max(nu, 0)/a)
        rng = random.Random(7)
        a = 0.5 - HANKEL_LEG_LEFT_ETA
        for _ in range(20):
            u = 10 ** rng.uniform(4.0, 8.0)
            kappa, l = rng.uniform(0.25, 3.0), rng.randint(0, 3)
            nu = l - kappa
            left_out = (abs(math.sin(math.pi * nu)) / math.pi * a**nu * u**-a
                        / (math.log(u) - max(nu, 0.0) / a))
            want = hankel_closed_form(u, kappa, l)
            dev = abs(hankel_main_term(u, kappa, l) - want)
            assert dev <= left_out + 1e-12 * max(1.0, abs(want)), (u, kappa, l)


class TestNudge:
    def test_midpoint_between_ordinates(self, zero_table_path):
        zs = load_zeros(zero_table_path, 100.0)
        t = nudge_to_zero_gap(zs, 14.2)
        assert t == pytest.approx(0.5 * (14.134725 + 21.022040))

    def test_below_first_ordinate(self, zero_table_path):
        zs = load_zeros(zero_table_path, 100.0)
        assert nudge_to_zero_gap(zs, 5.0) == pytest.approx(0.5 * 14.134725)

    def test_exact_ordinate_hit_is_nudged(self, zero_table_path):
        zs = load_zeros(zero_table_path, 100.0)
        for t in (14.134725, 21.022040):
            nudged = nudge_to_zero_gap(zs, t)
            assert nudged != t
            assert all(abs(nudged - g) > 1.0 for g in zs.gamma[:5])

    def test_above_table_untouched(self):
        zs = zeroset_from_pairs([(0.5, 14.134725)], 100.0)
        assert nudge_to_zero_gap(zs, 99.0) == 99.0

    def test_empty_set_untouched(self):
        assert nudge_to_zero_gap(zeroset_from_pairs([], 10.0), 123.0) == 123.0


class TestHankelLoop:
    def test_half_kappa_identity(self):
        u = 1e6
        v = hankel_main_term(u, 0.5, 0)
        cf = hankel_closed_form(u, 0.5, 0)
        assert cf.real == pytest.approx(
            math.log(u) ** -0.5 / math.sqrt(math.pi), rel=1e-12
        )
        assert abs(v - cf) / abs(cf) <= 1e-3

    def test_deviation_shrinks_with_u(self):
        devs = []
        for u in (1e4, 1e6, 1e8):
            v = hankel_main_term(u, 0.5, 0)
            cf = hankel_closed_form(u, 0.5, 0)
            devs.append(abs(v - cf) / abs(cf))
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[2] > 10.0  # roughly the u^(-1/2) truncation scale

    def test_reciprocal_gamma_zero(self):
        assert abs(hankel_main_term(1e6, 1.0, 1)) <= 1e-10

    def test_u_floor(self):
        with pytest.raises(ParameterOutOfRange):
            hankel_main_term(10.0, 0.5, 0)

    @pytest.mark.parametrize(
        "u, kappa", [(math.nan, 0.5), (math.inf, 0.5), (1e6, math.nan), (1e6, -math.inf)]
    )
    def test_non_finite_input(self, u, kappa):
        with pytest.raises(ParameterOutOfRange):
            hankel_main_term(u, kappa, 0)

    @pytest.mark.parametrize("r", [-0.1, 0.0, 0.45, 0.9])
    def test_loop_radius_outside_its_range_is_refused(self, r):
        # r = -0.1 returned nan; r = 0.9 ran the legs backwards (1 - r < 1/2 + eta)
        with pytest.raises(ParameterOutOfRange, match="loop radius"):
            hankel_main_term(1e6, 0.5, 0, r=r)

    @pytest.mark.parametrize("kappa", [1e308, -1e308])
    def test_exponent_past_the_double_range_is_refused(self, kappa):
        # pi (l - kappa) overflows, and math.sin(inf) would raise a bare ValueError
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            hankel_main_term(1e6, kappa, 0)
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            ml_integral_check(kappa, 0, Window(10**4, 10**3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, kappa, l", [(1e300, 400.0, 0), (1e6, 0.5, 300), (1e6, 300.0, 0)])
    def test_power_of_r_past_the_double_range_is_refused(self, u, kappa, l):
        # r^(l - kappa + 1) overflowed (kappa = 400) or underflowed (l = 300)
        # on the circle; u = 1e300 printed a RuntimeWarning first
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            hankel_main_term(u, kappa, l)

    def test_refusal_comes_before_any_node(self, monkeypatch):
        monkeypatch.setattr(perron, "_panel_pair", None)
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            hankel_main_term(1e300, 400.0, 0)
        with pytest.raises(ParameterOutOfRange, match="past the double range"):
            ml_integral_check(400.0, 0, Window(10**4, 10**3))

    @pytest.mark.filterwarnings("error")
    def test_high_order_reaches_recip_gamma_and_stops_there(self):
        # at u = 100 the loop itself stays in range, and 1/Gamma(-299.5)
        # needs Gamma(300.5)
        assert math.isfinite(hankel_main_term(100.0, 0.5, 300))
        with pytest.raises(ParameterOutOfRange, match=r"Gamma\(300.5\)"):
            hankel_closed_form(100.0, 0.5, 300)

    def test_largest_admissible_radius_is_accepted(self):
        v = hankel_main_term(1e6, 0.5, 0, r=0.44)
        assert abs(v - hankel_closed_form(1e6, 0.5, 0)) <= 1e-3

    def test_non_finite_quadrature_is_refused(self):
        spec = QuadratureSpec()
        with pytest.raises(ParameterOutOfRange, match="not finite"):
            _converged(math.nan, 1.0, spec)
        with pytest.raises(ParameterOutOfRange, match="not finite"):
            _converged(1.0, math.inf, spec)
        assert _converged(1.0, 1.0, spec) == 1.0


class TestMlLoop:
    def test_residue_case_equals_y(self):
        rep = ml_integral_check(1.0, 0, Window(10**4, 10**3))
        assert rep.value.real == pytest.approx(1000.0, rel=1e-10)
        assert rep.rel_dev <= 1e-10

    def test_divisor_main_term(self):
        rep = ml_integral_check(2.0, 0, Window(10**4, 10**3))
        assert rep.reference.real == pytest.approx(10**3 * math.log(10**4), rel=1e-12)
        assert rep.rel_dev <= 0.02

    def test_negative_half_gamma(self):
        rep = ml_integral_check(0.5, 1, Window(10**6, 10**4))
        want = 10**4 * math.log(10**6) ** -1.5 / (-2.0 * math.sqrt(math.pi))
        assert rep.reference.real == pytest.approx(want, rel=1e-12)
        assert rep.rel_dev <= 0.05

    def test_halving_stability(self):
        # the built-in self-check enforces |fine - coarse| <= abs_tol; a run
        # that returns at all has passed the Richardson-style assertion
        spec = QuadratureSpec(nodes_per_unit=120, abs_tol=1e-3)
        rep = ml_integral_check(2.0, 0, Window(10**4, 10**3), spec)
        assert rep.rel_dev <= 0.02
        assert rep.nodes == loop_node_count(spec) == 2520

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(ParameterOutOfRange):
            ml_integral_check(kappa, 0, Window(10**4, 10**3))

    @pytest.mark.parametrize("x, y", [(1, 1), (3, 2), (9, 2)])
    def test_window_whose_loop_radius_is_too_large(self, x, y):
        # 1/log x >= 1/2 - eta: x = 1 divided by zero, x = 3 returned rel_dev 0.34
        with pytest.raises(ParameterOutOfRange, match="loop radius"):
            ml_integral_check(0.5, 0, Window(x, y))

    def test_smallest_admissible_window(self):
        assert ml_integral_check(1.0, 0, Window(10, 2)).rel_dev <= 1e-10
