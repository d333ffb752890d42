#!/usr/bin/env python3
"""Generate the bundled table of the first 10^4 critical-line zero ordinates.

Hardy's Z(t) = Re(e^(i theta(t)) zeta(1/2 + it)) is evaluated with the
package's own zeta_batch (Euler-Maclaurin below t = 500, Riemann-Siegel
above).  Each 50-unit block is scanned once for sign changes and rescanned
finer if it holds fewer than the smooth counting formula predicts; all
brackets are then refined together by the Illinois method.  The result is
checked against the counting formula and spot-checked against
mpmath.zetazero.  Output: one ordinate per line, six decimals.

Usage: PYTHONPATH=src python scripts/make_zero_table.py [--out PATH]
"""

from __future__ import annotations

import argparse
import math

import mpmath
import numpy as np

from delange.special import _stirling_tail, zeta_batch

COUNT = 10_000
T_LO, T_HI = 14.0, 9950.0  # the 10^4-th zero sits near 9877.78
BLOCK = 50.0
STEP = 0.02  # about half the smallest gap below T_HI: 0.0377, from #6709 to #6710
TOL = 1e-11  # #4850 lies 1.8e-11 from a rounding boundary of the sixth decimal


def theta(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel theta: theta0 plus the Stirling tail of log Gamma(1/4 + it/2)."""
    theta0 = 0.5 * t * (np.log(t / (2.0 * math.pi)) - 1.0) - math.pi / 8.0
    return theta0 + _stirling_tail(0.25, t).imag


def hardy_z(t: np.ndarray) -> np.ndarray:
    """Z(t); an error d in theta scales it by cos d and leaves its zeros in place."""
    return (np.exp(1j * theta(t)) * zeta_batch(0.5 + 1j * t)).real


def smooth_count(t: float) -> float:
    """Main term of the zero-counting function N(t)."""
    return float(theta(np.array([t]))[0]) / math.pi + 1.0


def block_brackets(lo: float, hi: float, step: float):
    """Sign changes of Z on a grid of [lo, hi]: left ends, right ends, Z at both."""
    t = np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)
    z = hardy_z(t)
    i = np.flatnonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))
    return t[i], t[i + 1], z[i], z[i + 1]


def illinois(a, b, fa, fb) -> np.ndarray:
    """Roots of Z in the brackets [a, b], all refined at once to width TOL."""
    live = np.arange(a.size)
    for _ in range(100):
        if not live.size:
            return b
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        c = bl - fbl * (bl - al) / (fbl - fal)
        fc = hardy_z(c)
        flip = np.signbit(fc) != np.signbit(fbl)
        a[live] = np.where(flip, bl, al)
        fa[live] = np.where(flip, fbl, 0.5 * fal)
        b[live], fb[live] = c, fc
        live = live[(np.abs(c - a[live]) > TOL) & (fc != 0.0)]
    raise SystemExit(f"Illinois iteration did not converge on {live.size} brackets")


def scan(t_lo: float, t_hi: float) -> np.ndarray:
    """Zeros in the BLOCK-unit blocks from t_lo up to t_hi, in ascending order.

    A block with fewer sign changes than the smooth count predicts is
    rescanned on a grid eight times finer.
    """
    parts = []
    for lo in np.arange(t_lo, t_hi, BLOCK):
        hi = min(lo + BLOCK, t_hi)
        br = block_brackets(lo, hi, STEP)
        if lo > T_LO and br[0].size < round(smooth_count(hi) - smooth_count(lo)):
            br = block_brackets(lo, hi, STEP / 8.0)
        parts.append(br)
    return np.sort(illinois(*(np.concatenate(col) for col in zip(*parts))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="src/delange/data/zeta_zeros_10k.txt")
    args = ap.parse_args()

    zeros = scan(T_LO, T_HI)

    if zeros.size < COUNT:
        raise SystemExit(f"found only {zeros.size} zeros below {T_HI}")
    zeros = zeros[:COUNT]

    n_formula = smooth_count(zeros[-1] + 1e-3)
    if abs(n_formula - COUNT) > 1.5:
        raise SystemExit(f"count check failed: formula gives {n_formula:.2f} at #{COUNT}")

    for idx in (1, 2, 3, 100, 1000, COUNT):
        ref = float(mpmath.im(mpmath.zetazero(idx)))
        got = zeros[idx - 1]
        if abs(ref - got) > 5e-6:
            raise SystemExit(f"spot check failed at #{idx}: {got} vs {ref}")
        print(f"  zero #{idx}: {got:.6f} (mpmath {ref:.6f})")

    with open(args.out, "w", encoding="utf-8") as fh:
        for z in zeros:
            fh.write(f"{z:.6f}\n")
    print(f"wrote {zeros.size} ordinates to {args.out} (top {zeros[-1]:.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
