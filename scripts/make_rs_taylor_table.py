#!/usr/bin/env python3
"""Generate the bundled Taylor coefficients of the Riemann-Siegel kernel F.

F(z) = (exp(i pi (z^2/2 + 3/8)) - i sqrt(2) cos(pi z/2)) / (2 cos(pi z)) is
entire and even; its derivatives at the fractional offset p feed every
Riemann-Siegel correction term in delange.special.  The coefficients of
z^0, z^2, ..., z^(2R-2) come from dividing the power series of the numerator
by that of the denominator (both in u = z^2) at 150 significant digits, where
the recurrence loses fewer than 50 digits, and are rounded once to doubles.
Output: one coefficient per line, the coefficient of z^(2n) on line n + 1, as
"real imag" written with repr(float), which reads back bit for bit.  R is
delange.special.RS_TAYLOR_TERMS, read from the source tree, so the table and
its reader cannot disagree on its length.

Usage: python scripts/make_rs_taylor_table.py [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from delange.special import RS_TAYLOR_TERMS  # noqa: E402

DEFAULT_OUT = SRC / "delange" / "data" / "rs_taylor.txt"


def taylor_coefficients(count: int) -> list[mpmath.mpc]:
    """Coefficients of u^n = z^(2n), n < count, of F at the working precision."""
    pi = mpmath.pi
    phase = mpmath.expjpi(mpmath.mpf(3) / 8)
    numer = [
        phase * (1j * pi / 2) ** n / mpmath.factorial(n)
        - 1j * mpmath.sqrt(2) * (-1) ** n * (pi / 2) ** (2 * n) / mpmath.factorial(2 * n)
        for n in range(count)
    ]
    denom = [2 * (-1) ** n * pi ** (2 * n) / mpmath.factorial(2 * n) for n in range(count)]
    out: list[mpmath.mpc] = []
    for n in range(count):
        acc = numer[n] - mpmath.fsum(denom[j] * out[n - j] for j in range(1, n + 1))
        out.append(acc / denom[0])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()

    with mpmath.workdps(150):
        coeffs = [complex(c) for c in taylor_coefficients(RS_TAYLOR_TERMS)]

    with open(args.out, "w", encoding="utf-8") as fh:
        for c in coeffs:
            fh.write(f"{c.real!r} {c.imag!r}\n")
    print(f"wrote the z^0..z^{2 * RS_TAYLOR_TERMS - 2} coefficients of F to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
