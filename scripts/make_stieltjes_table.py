#!/usr/bin/env python3
"""Generate the bundled table of the Stieltjes constants gamma_0..gamma_64.

Each constant is computed by mpmath.stieltjes at 40 significant digits and
rounded once to the nearest double.  Output: one value per line, order m on
line m + 1, written as repr(float), which reads back bit for bit.  The order
range is delange.special.STIELTJES_MAX, read from the source tree, so the
table and its reader cannot disagree on its length.

Usage: python scripts/make_stieltjes_table.py [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from delange.special import STIELTJES_MAX  # noqa: E402

DEFAULT_OUT = SRC / "delange" / "data" / "stieltjes.txt"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()

    with mpmath.workdps(40):
        values = [float(mpmath.stieltjes(m)) for m in range(STIELTJES_MAX + 1)]

    with open(args.out, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(f"{v!r}\n")
    print(f"wrote gamma_0..gamma_{STIELTJES_MAX} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
