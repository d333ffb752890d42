"""Acceptance suite: every exit criterion at its stated tolerance and budget.

Run `pytest tests/test_acceptance.py -v -s` for one PASS/FAIL line per
criterion.  Criterion 4's improvement grid asserts what the method promises:
in every (kappa, delta) cell the epsilon-free exponent lies strictly below
the prior threshold and theta increases with eps, so the improvement holds
for 0 < eps < eps*(kappa, delta).  The fixed eps = 0.01 sweep is printed,
not asserted: the case-1 margin 25*kappa / ((5k+15d+36)(5d+12)) vanishes as
kappa -> 0, so small-kappa cells flip at that eps.
"""

import math
import time

import numpy as np
import pytest

from delange.contour import (
    assemble_contour,
    build_blocks,
    bundled_zero_table,
    load_zeros,
    validate_contour,
    zero_density_count,
    zeroset_from_pairs,
)
from delange.families import builtin_family
from delange.meanvalue import ThetaRegime, run_experiment, theta, theta_prior_bound
from delange.perron import hankel_closed_form, hankel_main_term, perron_line_sum
from delange.series import g_lambda_coeffs, z_coeffs
from delange.sieve import Window, exact_sum, factor_window
from delange.special import stieltjes

from conftest import synthetic_zero_set
from test_sieve import trial_division

KAPPA_GRID = (0.5, 1.0, 2.0, 5.0, 7.2, 10.0, 20.0)
DELTA_GRID = (0.0, 1.0, 2.0, 5.0)
EPS_LADDER = (1e-12, 1e-6, 1e-3, 0.005, 0.01, 0.05)


def _report(num: int, ok: bool, runtime: float, limit: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:>2}] {status}  {runtime:6.2f}s / {limit:.0f}s  {detail}")


def test_criterion_01_coefficient_exactness(fam_one, fam_div2, fam_sqfree):
    t0 = time.perf_counter()
    co2 = g_lambda_coeffs(fam_div2, 8)
    ok_div = abs(co2.lambda_l[0] - 1.0) <= 1e-10 and abs(
        co2.lambda_l[1] - 2.0 * stieltjes(0)
    ) <= 1e-10
    co1 = g_lambda_coeffs(fam_one, 20)
    ok_one = all(co1.lambda_l[l] == 0.0 for l in range(1, 21))
    cosq = g_lambda_coeffs(fam_sqfree, 8)
    err_sq = abs(cosq.lambda_l[0].real - 6.0 / math.pi**2)
    ok_sq = err_sq <= 1e-6
    rt = time.perf_counter() - t0
    ok = ok_div and ok_one and ok_sq and rt < 1.0
    _report(1, ok, rt, 1.0, f"sqfree |err|={err_sq:.2e}")
    assert ok_div and ok_one and ok_sq
    assert rt < 1.0


def test_criterion_02_divisor_short_interval(fam_div2):
    t0 = time.perf_counter()
    grid = [10**5, 10**6, 10**7]
    rec0 = run_experiment(fam_div2, grid, 0.8, 0)
    rec1 = run_experiment(fam_div2, grid, 0.8, 1)
    improves = all(r1.rel_error < r0.rel_error for r0, r1 in zip(rec0, rec1))
    top = rec1[-1].rel_error
    rt = time.perf_counter() - t0
    ok = improves and top <= 0.01 and rt < 60.0
    _report(2, ok, rt, 60.0, f"rel_error(N=1, x=1e7)={top:.3e}")
    assert improves
    assert top <= 0.01
    assert rt < 60.0


def test_criterion_03_squarefree_density(fam_sqfree):
    t0 = time.perf_counter()
    win = Window(10**8, 10**6)
    exact = exact_sum(fam_sqfree, win)
    dev = abs(exact.real / win.y - 6.0 / math.pi**2)
    rt = time.perf_counter() - t0
    ok = dev <= 1e-3 and rt < 60.0
    _report(3, ok, rt, 60.0, f"|exact/y - 6/pi^2|={dev:.3e}")
    assert dev <= 1e-3
    assert rt < 60.0


def test_criterion_04_theta_spot_values():
    t0 = time.perf_counter()
    r1 = theta(1.0, 0.0, ThetaRegime(eta1=1.0 / 3.0, epsilon=0.01))
    ok_case1 = abs(r1.value - 7.55 / 12.05) <= 1e-10 and r1.branch == "case1"
    r2 = theta(10.0, 0.0, ThetaRegime(eta1=1.0 / 3.0, epsilon=1e-12))
    ok_case2 = abs(r2.value - 0.7) <= 1e-10 and r2.branch == "case2"
    rt = time.perf_counter() - t0
    ok = ok_case1 and ok_case2 and rt < 1.0
    _report(4, ok, rt, 1.0, "spot values (case1 at eps=0.01, case2 limit)")
    assert ok_case1 and ok_case2
    assert rt < 1.0


def test_criterion_04_theta_improvement_grid():
    # the improvement over the prior threshold is promised as eps -> 0: assert
    # it at a vanishing eps, and assert theta strictly increasing in eps so
    # the improving eps form an interval (0, eps*) per cell.  The margin at
    # eps = 0.01 is reported only, since cells with small kappa flip there.
    t0 = time.perf_counter()
    reg = ThetaRegime(eta1=1.0 / 3.0, epsilon=0.01)
    not_improved, not_increasing, flipped = [], [], []
    min_margin = math.inf
    for kappa in KAPPA_GRID:
        for delta in DELTA_GRID:
            prior = theta_prior_bound(kappa, delta)
            ladder = [
                theta(kappa, delta, ThetaRegime(eta1=1.0 / 3.0, epsilon=eps)).value
                for eps in EPS_LADDER
            ]
            if not ladder[0] < prior:
                not_improved.append((kappa, delta))
            if not all(a < b for a, b in zip(ladder, ladder[1:])):
                not_increasing.append((kappa, delta))
            margin = prior - theta(kappa, delta, reg).value
            min_margin = min(min_margin, margin)
            if not margin > 0:
                flipped.append((kappa, delta))
    rt = time.perf_counter() - t0
    ok = not not_improved and not not_increasing and rt < 1.0
    _report(
        4, ok, rt, 1.0,
        f"improvement grid, eps->0 fails in {not_improved}, not increasing in eps in "
        f"{not_increasing}; at eps=0.01 (not asserted) {len(flipped)}/28 cells flip: "
        f"{flipped}, min margin {min_margin:.3e}",
    )
    assert not not_improved, f"eps-free theta reaches the prior bound in cells {not_improved}"
    assert not not_increasing, f"theta is not strictly increasing in eps in cells {not_increasing}"
    assert rt < 1.0


def test_criterion_05_hankel_identity():
    t0 = time.perf_counter()
    devs = []
    for u in (1e4, 1e6, 1e8):
        v = hankel_main_term(u, 0.5, 0)
        cf = hankel_closed_form(u, 0.5, 0)
        devs.append(abs(v - cf) / abs(cf))
    rt = time.perf_counter() - t0
    ok = devs[1] <= 1e-3 and devs[0] > devs[1] > devs[2] and rt < 10.0
    _report(5, ok, rt, 10.0, f"rel devs {devs[0]:.1e} > {devs[1]:.1e} > {devs[2]:.1e}")
    assert devs[1] <= 1e-3
    assert devs[0] > devs[1] > devs[2]
    assert rt < 10.0


def test_criterion_06_perron_truncation_envelope(fam_one, fam_div2):
    t0 = time.perf_counter()
    c_fit = 0.0
    for fam in (fam_one, fam_div2):
        for x in (10**3, 3 * 10**3, 10**4):
            for T in (250.0, 1000.0):
                win = Window(x, max(2, x // 10))
                v = perron_line_sum(fam, win, T)
                exact = exact_sum(fam, win)
                c = abs(v - exact) * T / x**1.01
                c_fit = max(c_fit, c)
    rt = time.perf_counter() - t0
    ok = c_fit <= 20.0 and rt < 120.0
    _report(6, ok, rt, 120.0, f"fitted envelope constant c={c_fit:.3f}")
    assert c_fit <= 20.0
    assert rt < 120.0


def test_criterion_07_contour_suite():
    t0 = time.perf_counter()
    T = 2.0**16
    alpha, c_star = 0.6, 0.1
    tally = {f"{p}_case{k}": 0 for p in "vh" for k in (1, 2, 3, 4)}
    all_ok = True
    for seed in range(100):
        zs = synthetic_zero_set(seed, T, alpha)
        blocks = build_blocks(zs, T, alpha, c_star)
        path = assemble_contour(blocks, zs, alpha, c_star=c_star)
        rep = validate_contour(path, zs, alpha)
        all_ok = all_ok and rep.all_ok
        for key in tally:
            tally[key] += path.case_tally[key]
    cases_covered = all(tally[k] >= 1 for k in tally)
    empty = zeroset_from_pairs([], T)
    flat = assemble_contour(build_blocks(empty, T, alpha, c_star), empty, alpha, c_star=c_star)
    flat_ok = validate_contour(flat, empty, alpha).all_ok and all(
        a.real == alpha
        for a, b in zip(flat.vertices[:-1], flat.vertices[1:])
        if a.real == b.real and abs(b.imag) > 1.0
    )
    rt = time.perf_counter() - t0
    ok = all_ok and cases_covered and flat_ok and rt < 10.0
    _report(7, ok, rt, 10.0, f"tally={tally}")
    assert all_ok
    assert cases_covered, tally
    assert flat_ok
    assert rt < 10.0


def test_criterion_08_zero_density_accounting(zero_table_path):
    t0 = time.perf_counter()
    zs = load_zeros(zero_table_path, 10_000.0)
    ok_above = all(
        zero_density_count(zs, sigma, 9999.0).count == 0
        for sigma in (0.51, 0.6, 0.75, 0.9)
    )
    ok_half = all(
        zero_density_count(zs, 0.5, T).count == int(np.count_nonzero(zs.gamma <= T))
        for T in (237.0, 1000.0, 9999.0)
    ) and zero_density_count(zs, 0.5, 237.0).count == 100
    synth = zeroset_from_pairs([(0.8, 100.0), (0.7, 800.0), (0.9, 5000.0)], 2.0**16)
    r1 = zero_density_count(synth, 0.7, 2.0**16, c_star=0.5)
    r2 = zero_density_count(synth, 0.7, 2.0**16, c_star=0.5)
    ok_synth = math.isfinite(r1.ratio) and r1 == r2 and r1.count == 3
    rt = time.perf_counter() - t0
    ok = ok_above and ok_half and ok_synth and rt < 5.0
    _report(8, ok, rt, 5.0, f"N(1/2,237)={zero_density_count(zs, 0.5, 237.0).count}")
    assert ok_above and ok_half and ok_synth
    assert rt < 5.0


def test_criterion_09_growth_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    growth = 1.25 ** np.arange(61)
    fitted = 0.0
    done = 0
    while done < 50:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) > 2.0:
            continue
        entries = np.abs(np.array(z_coeffs(z, 60).coeffs))
        fitted = max(fitted, float(np.max(entries / growth)))
        done += 1
    rt = time.perf_counter() - t0
    ok = fitted <= 10.0 and rt < 5.0
    _report(9, ok, rt, 5.0, f"fitted C={fitted:.3f}")
    assert fitted <= 10.0
    assert rt < 5.0


def test_criterion_10_sieve_oracle(fam_div2, fam_sqfree):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    fw = factor_window(Window(10**6, 10**5))
    ns = rng.integers(10**6 + 1, 10**6 + 10**5, size=10**4)
    ok_factor = all(fw.factorization(int(n)) == trial_division(int(n)) for n in ns)
    win = Window(3 * 10**6, 3 * 10**6)
    ok_det = True
    for fam in (fam_div2, fam_sqfree):
        vals = {exact_sum(fam, win, workers=w) for w in (1, 2, 4)}
        ok_det = ok_det and len(vals) == 1
    rt = time.perf_counter() - t0
    ok = ok_factor and ok_det and rt < 30.0
    _report(10, ok, rt, 30.0, "factorizations + worker determinism")
    assert ok_factor
    assert ok_det
    assert rt < 30.0
