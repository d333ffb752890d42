"""Numeric substrate: zeta, Stieltjes constants, reciprocal gamma, principal powers.

zeta is evaluated by Euler-Maclaurin summation with an adaptive direct-sum
cutoff.  The validated box is Re(s) > -1, |Im(s)| <= 1e5, s != 1.  In double
precision the achievable *absolute* error is floored by eps_mach * |zeta(s)|,
which matters only deep in the left half of the box where |zeta| grows to
~1e6; everywhere else ZETA_ABS_TOL is met with a wide margin.

The direct sum over n < K costs one complex exp per (point, n) for
scattered points.  A 2-D batch whose rows are vertical progressions
sigma + i(t0[row] + j dt), as the Perron line's Gauss panels are, factors the
sum into one matrix product and pays about 2 K sqrt(points) exps instead.

The Stieltjes constants gamma_0..gamma_64 come from the bundled table
data/stieltjes.txt, read once per process on the first lookup and written by
scripts/make_stieltjes_table.py (40-digit arbitrary-precision values, each
rounded once to a double); no constant is computed at run time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files

import numpy as np

from .errors import OrderTooHigh, OutOfValidatedRange, PoleAtOne, ZeroBase

SIGMA_MIN = -1.0
TAU_MAX = 1.0e5

# Highest order in the bundled table; acceptance sweeps run series order
# J = 60, which reads up to gamma_59.
STIELTJES_MAX = 64

_EM_TERMS_MAX = 30


def _bernoulli_even(count: int) -> list[float]:
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


_BERN_2J = _bernoulli_even(_EM_TERMS_MAX)
_FACT_2J = [float(math.factorial(2 * j)) for j in range(1, _EM_TERMS_MAX + 1)]


# zeta's error contract: absolute below unit magnitude, relative above it
ZETA_ABS_TOL = 1e-9


@dataclass(frozen=True)
class EvalPrecision:
    """Knobs for the Euler-Maclaurin evaluator.

    tail_cutoff is a budget: the evaluator picks the direct-sum length
    adaptively from |Im(s)|, long enough for ZETA_ABS_TOL, and refuses
    (OutOfValidatedRange) if that length exceeds the budget.  The default
    budget covers the whole validated box; 1e4 does not (the correction
    series diverges once the cutoff drops below ~|t|/2pi).
    """

    euler_maclaurin_terms: int = 22
    tail_cutoff: int = 40_000
    oversample: float = 1.0  # scales the adaptive cutoff; >1 gives an
    # independent second route for cross-checking results

    def __post_init__(self):
        if self.euler_maclaurin_terms < 1 or self.euler_maclaurin_terms > _EM_TERMS_MAX:
            raise ValueError(f"euler_maclaurin_terms must be in [1, {_EM_TERMS_MAX}]")
        if self.tail_cutoff < 16:
            raise ValueError("tail_cutoff too small to mean anything")
        if not (1.0 <= self.oversample <= 8.0):
            raise ValueError("oversample must lie in [1, 8]")


DEFAULT_PRECISION = EvalPrecision()


def _direct_sum_cutoff(sigma_min: float, t_max: float, prec: EvalPrecision) -> int:
    # 0.36|t| keeps the correction-term ratio ((|t|+2m)/(2 pi K))^2 below ~0.5,
    # so 20+ corrections push truncation under 1e-12 relative.  To the right of
    # sigma = 1.15 the direct terms decay fast enough that a shorter sum plus
    # the same corrections already clears the target.
    k = max(32, math.ceil(0.36 * t_max) + 48)
    if sigma_min >= 1.15 and prec.euler_maclaurin_terms >= 18:
        k = min(k, max(64, math.ceil(0.25 * t_max) + 64))
    k = math.ceil(k * prec.oversample)
    if k > prec.tail_cutoff:
        raise OutOfValidatedRange(
            f"tail_cutoff={prec.tail_cutoff} cannot meet the target at |t|={t_max:.3g}"
            f" (needs {k} direct terms)"
        )
    return k


# Elements of the largest temporary a direct-sum chunk may allocate.
_WORKSPACE = 4_000_000


def _progression(s: np.ndarray):
    """(sigma, t0, dt) if every row of the 2-D s is sigma + i(t0[row] + k dt).

    The real part must be one constant and the heights must sit within a few
    ulps of the progression; anything else is scattered and returns None.
    """
    if s.ndim != 2 or s.shape[1] < 2:
        return None
    sigma = s.real[0, 0]
    if np.any(s.real != sigma):
        return None
    t = s.imag
    dt = (t[0, -1] - t[0, 0]) / (t.shape[1] - 1)
    drift = np.abs(t - (t[:, :1] + dt * np.arange(t.shape[1])))
    if np.max(drift) > 8.0 * np.finfo(np.float64).eps * np.max(np.abs(t)):
        return None
    return float(sigma), t[:, 0], float(dt)


def _progression_sum(sigma: float, t0: np.ndarray, dt: float, count: int, k: int) -> np.ndarray:
    """sum_{n<k} n^-(sigma + i(t0[row] + j dt)) for j < count, as one matmul.

    With j = q*B + r, n^-s = n^-(sigma + i(t0 + qB dt)) * n^(-i r dt), so the
    sum is a (rows*Q x k) @ (k x B) product needing k*(rows*Q + B) exps.
    """
    rows = t0.size
    width = min(count, math.isqrt(rows * count))
    blocks = -(-count // width)
    left_s = -(sigma + 1j * (t0[:, None] + (width * dt) * np.arange(blocks)).reshape(-1))
    right_s = (-1j * dt) * np.arange(width)
    acc = np.zeros((rows * blocks, width), dtype=np.complex128)
    n_chunk = max(8, min(k, _WORKSPACE // (rows * blocks + width)))
    for lo in range(1, k, n_chunk):
        ln_n = np.log(np.arange(lo, min(k, lo + n_chunk), dtype=np.float64))
        acc += np.exp(np.multiply.outer(left_s, ln_n)) @ np.exp(np.multiply.outer(ln_n, right_s))
    return acc.reshape(rows, blocks * width)[:, :count]


def _scattered_sum(s: np.ndarray, k: int) -> np.ndarray:
    """sum_{n<k} n^-s pointwise, one exp per (point, n)."""
    flat = s.reshape(-1)
    acc = np.zeros_like(flat)
    n_chunk = max(8, min(k, _WORKSPACE // max(1, flat.size)))
    for lo in range(1, k, n_chunk):
        ln_n = np.log(np.arange(lo, min(k, lo + n_chunk), dtype=np.float64))
        acc += np.exp(np.multiply.outer(-ln_n, flat)).sum(axis=0)
    return acc.reshape(s.shape)


def zeta_batch(s: np.ndarray, prec: EvalPrecision = DEFAULT_PRECISION) -> np.ndarray:
    """Euler-Maclaurin zeta on an array of points sharing one cutoff.

    All points must lie in the validated box and away from s = 1.  The cutoff
    K is chosen from the extreme point of the batch, so group points of similar
    height for best throughput.

    A 2-D s whose rows are vertical progressions sigma + i(t0[row] + j dt),
    with one sigma and one dt, takes the factored direct sum: about
    K*(2*sqrt(points)) exps and one complex matmul instead of K*points exps.
    Every other input (1-D, mixed real parts, uneven spacing) is summed point
    by point.  The correction terms cost one complex power per point.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.size == 0:
        return s.copy()
    if not np.all(np.isfinite(s)):
        raise OutOfValidatedRange("non-finite evaluation point")
    if np.any(s == 1.0):
        raise PoleAtOne("zeta has a simple pole at s = 1")
    sig_min = float(np.min(s.real))
    t_max = float(np.max(np.abs(s.imag)))
    if sig_min <= SIGMA_MIN or t_max > TAU_MAX:
        raise OutOfValidatedRange(
            f"point outside validated box Re(s) > {SIGMA_MIN}, |Im(s)| <= {TAU_MAX:g}"
        )
    k = _direct_sum_cutoff(sig_min, t_max, prec)

    grid = _progression(s)
    if grid is None:
        total = _scattered_sum(s, k)
    else:
        total = _progression_sum(*grid, s.shape[1], k)

    # k^(1-s) and k^(-s-(2j-1)) are k^-s times real powers of k
    k_pow_s = np.exp(-math.log(k) * s)
    corr = k / (s - 1.0) + 0.5
    rise = np.ones_like(s)
    k_pow = 1.0 / k
    for j in range(1, prec.euler_maclaurin_terms + 1):
        rise = s if j == 1 else rise * (s + (2 * j - 3)) * (s + (2 * j - 2))
        corr += (_BERN_2J[j - 1] / _FACT_2J[j - 1] * k_pow) * rise
        k_pow /= k * k
    total = total + k_pow_s * corr
    if not np.all(np.isfinite(total)):
        raise OutOfValidatedRange("zeta evaluation overflowed inside the batch")
    return total


def zeta(s: complex, prec: EvalPrecision = DEFAULT_PRECISION) -> complex:
    """zeta(s) for a single point of the validated box."""
    out = complex(zeta_batch(np.array([complex(s)]), prec)[0])
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OutOfValidatedRange(f"zeta evaluation overflowed at s={s}")
    return out


# --- Stieltjes constants -----------------------------------------------------

@functools.cache
def _stieltjes_table() -> tuple[float, ...]:
    """gamma_0..gamma_STIELTJES_MAX from the bundled table, read once per process."""
    text = files("delange").joinpath("data/stieltjes.txt").read_text(encoding="utf-8")
    return tuple(float(line) for line in text.split())


def stieltjes(n: int) -> float:
    """n-th Stieltjes constant gamma_n to within one double rounding.

    Looked up in the bundled table, which holds the 40-digit value rounded
    once to a double.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > STIELTJES_MAX:
        raise OrderTooHigh(f"Stieltjes constants tabulated only up to order {STIELTJES_MAX}")
    return _stieltjes_table()[n]


# --- reciprocal gamma ---------------------------------------------------------

# Lanczos (g = 7, n = 9), the standard double-precision coefficient set.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _gamma_lanczos(z: complex) -> complex:
    # valid for Re(z) >= 0.5
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (zm1 + 0.5) * cmath.exp(-t) * acc


def _sinpi(z: complex) -> complex:
    # sin(pi z) with the real part reduced mod 2 first; plain sin(pi*z) loses
    # relative accuracy near the zeros at large |Re z|.
    x = z.real - 2.0 * round(z.real / 2.0)
    return cmath.sin(cmath.pi * complex(x, z.imag))


_RECIP_AT_INT = tuple(1.0 / math.factorial(k - 1) for k in range(1, 32))


def recip_gamma(z: complex) -> complex:
    """1/Gamma(z), entire; exactly 0.0 at z = 0, -1, -2, ..."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite argument")
    if z.imag == 0.0 and z.real == math.floor(z.real):
        if z.real <= 0.0:
            return 0.0 + 0.0j
        k = int(z.real)
        if k <= len(_RECIP_AT_INT):
            # exact 1/(k-1)! beats Lanczos roundoff at the integers
            return complex(_RECIP_AT_INT[k - 1], 0.0)
    if z.real >= 0.5:
        return 1.0 / _gamma_lanczos(z)
    # reflection: 1/Gamma(z) = sin(pi z)/pi * Gamma(1-z)
    return _sinpi(z) / math.pi * _gamma_lanczos(1.0 - z)


# --- principal powers ----------------------------------------------------------

def principal_pow(base: complex, exponent: complex) -> complex:
    """base**exponent via exp(exponent * Log base), principal branch.

    Real positive base with real exponent stays exactly real.
    """
    base = complex(base)
    exponent = complex(exponent)
    if base == 0:
        raise ZeroBase("principal power of base 0 is undefined")
    for v in (base, exponent):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("non-finite argument")
    if base.imag == 0.0 and base.real > 0.0 and exponent.imag == 0.0:
        return complex(math.exp(exponent.real * math.log(base.real)), 0.0)
    return cmath.exp(exponent * cmath.log(base))
