"""Numeric substrate: zeta, Stieltjes constants, reciprocal gamma.

The validated box of zeta is Re(s) > -1, |Im(s)| <= 1e5, s != 1.  In double
precision the achievable *absolute* error is floored by eps_mach * |zeta(s)|,
which matters only deep in the left half of the box where |zeta| grows to
~1e6; everywhere else ZETA_ABS_TOL is met with a wide margin.

zeta_batch takes one of three routes.  A 2-D batch whose rows are vertical
progressions sigma + i(t0[row] + j dt), as the Perron line's Gauss panels
are, takes Euler-Maclaurin summation with one cutoff K ~ 0.36 |t|max and
factors the direct sum into one matrix product, about 2 K sqrt(points) exps.
Any other batch is routed point by point: a point with |t| >= RS_T_MIN and
Re(s) < RS_SIGMA_MAX takes the Riemann-Siegel formula, two sums over
n <= sqrt(|t|/2pi) plus fixed corrections, and every other point takes
Euler-Maclaurin with its own cutoff, one exp per term.  Both direct sums are
weighted sums of a_n n^-s over given (log n, a_n) with a_n = 1; `dirichlet_sum`
puts the background's prime powers (families) on the same two kernels.  The
Riemann-Siegel sums take an exponential for n^-it only at the primes and
build every composite as a product of two earlier phases; the corrections
evaluate each derivative order of their kernel once.

The Stieltjes constants gamma_0..gamma_64 come from the bundled table
data/stieltjes.txt, read once per process on the first lookup and written by
scripts/make_stieltjes_table.py (40-digit arbitrary-precision values, each
rounded once to a double); no constant is computed at run time.  The
Riemann-Siegel corrections read the Taylor coefficients of their kernel from
data/rs_taylor.txt (scripts/make_rs_taylor_table.py) on the first call that
needs them.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from importlib.resources import files
from typing import NamedTuple

import numpy as np

from .errors import OrderTooHigh, OutOfValidatedRange, PoleAtOne

SIGMA_MIN = -1.0
TAU_MAX = 1.0e5

# Highest order in the bundled table; acceptance sweeps run series order
# J = 60, which reads up to gamma_59.
STIELTJES_MAX = 64

_EM_TERMS_MAX = 30


# B_2, B_4, ..., B_60 rounded to doubles; the tests rebuild them from the
# exact recurrence
_BERN_2J = (
    0.16666666666666666, -0.03333333333333333, 0.023809523809523808, -0.03333333333333333,
    0.07575757575757576, -0.2531135531135531, 1.1666666666666667, -7.092156862745098,
    54.971177944862156, -529.1242424242424, 6192.123188405797, -86580.25311355312,
    1425517.1666666667, -27298231.067816094, 601580873.9006424, -15116315767.092157,
    429614643061.1667, -13711655205088.332, 488332318973593.2, -1.9296579341940068e+16,
    8.416930475736826e+17, -4.0338071854059454e+19, 2.1150748638081993e+21, -1.2086626522296526e+23,
    7.500866746076964e+24, -5.038778101481069e+26, 3.6528776484818122e+28, -2.849876930245088e+30,
    2.3865427499683627e+32, -2.1399949257225335e+34,
)
_FACT_2J = [float(math.factorial(2 * j)) for j in range(1, _EM_TERMS_MAX + 1)]


# zeta's error contract: absolute below unit magnitude, relative above it
ZETA_ABS_TOL = 1e-9


# Euler-Maclaurin correction terms after the direct sum of _direct_sum_cutoff
_EM_CORRECTIONS = 22

# To the right of this real part the Euler-Maclaurin direct terms decay fast
# enough for a shorter cutoff; to its left, high points take Riemann-Siegel.
RS_SIGMA_MAX = 1.15


def _direct_sum_cutoff(sigma, t) -> np.ndarray:
    """Direct-sum length K for each point sigma + i t (|t| given), as int64."""
    # 0.36|t| keeps the correction-term ratio ((|t|+2m)/(2 pi K))^2 below ~0.5,
    # so 20+ corrections push truncation under 1e-12 relative.  To the right of
    # sigma = 1.15 the direct terms decay fast enough that a shorter sum plus
    # the same corrections already clears the target.
    sigma = np.asarray(sigma, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    k = np.maximum(32.0, np.ceil(0.36 * t) + 48.0)
    short = np.minimum(k, np.maximum(64.0, np.ceil(0.25 * t) + 64.0))
    return np.where(sigma >= RS_SIGMA_MAX, short, k).astype(np.int64)


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


def _progression_sum(sigma: float, t0: np.ndarray, dt: float, count: int,
                     ln_n: np.ndarray, a_n: np.ndarray) -> np.ndarray:
    """sum_n a_n n^-(sigma + i(t0[row] + j dt)) for j < count, as one matmul.

    With j = q*B + r, n^-s = n^-(sigma + i(t0 + qB dt)) * n^(-i r dt), so the
    sum is a (rows*Q x N) @ (N x B) product needing N*(rows*Q + B) exps; the
    weights scale the N rows of the right factor.
    """
    rows = t0.size
    width = min(count, math.isqrt(rows * count))
    blocks = -(-count // width)
    left_s = -(sigma + 1j * (t0[:, None] + (width * dt) * np.arange(blocks)).reshape(-1))
    right_s = (-1j * dt) * np.arange(width)
    acc = np.zeros((rows * blocks, width), dtype=np.complex128)
    n_chunk = max(8, min(ln_n.size, _WORKSPACE // (rows * blocks + width)))
    for lo in range(0, ln_n.size, n_chunk):
        ln, a = ln_n[lo : lo + n_chunk], a_n[lo : lo + n_chunk]
        right = np.exp(np.multiply.outer(ln, right_s)) * a[:, None]
        acc += np.exp(np.multiply.outer(left_s, ln)) @ right
    return acc.reshape(rows, blocks * width)[:, :count]


def _scattered_sum(s: np.ndarray, ln_n: np.ndarray, a_n: np.ndarray, count: np.ndarray) -> np.ndarray:
    """sum_{i<count[j]} a_n[i] n_i^-s[j] for 1-D s, one exp per (point, term).

    Points are taken in decreasing count, so every chunk of terms runs over a
    prefix of them and a point stops paying once it has its own count.
    """
    order = np.argsort(-count, kind="stable")
    s_desc, count_desc = s[order], count[order]
    acc = np.zeros_like(s_desc)
    lo = 0
    while lo < count_desc[0]:
        live = int(np.count_nonzero(count_desc > lo))
        hi = min(int(count_desc[0]), lo + max(8, _WORKSPACE // live))
        terms = np.exp(np.multiply.outer(-ln_n[lo:hi], s_desc[:live]))
        if count_desc[live - 1] < hi:
            terms *= np.arange(lo, hi)[:, None] < count_desc[:live]
        acc[:live] += a_n[lo:hi] @ terms
        lo = hi
    out = np.empty_like(acc)
    out[order] = acc
    return out


def dirichlet_sum(s: np.ndarray, ln_n: np.ndarray, a_n: np.ndarray) -> np.ndarray:
    """sum_i a_n[i] n_i^-s at every point of s, given ln_n[i] = log n_i.

    A 2-D s whose rows are vertical progressions takes the factored matmul;
    any other s takes one exp per point and term.
    """
    grid = _progression(s)
    if grid is not None:
        return _progression_sum(*grid, s.shape[1], ln_n, a_n)
    flat = s.reshape(-1)
    return _scattered_sum(flat, ln_n, a_n, np.full(flat.size, ln_n.size)).reshape(s.shape)


def _euler_maclaurin_tail(s: np.ndarray, k) -> np.ndarray:
    """zeta(s) - sum_{n<k} n^-s: the integral, the half term and the corrections."""
    # k^(1-s) and k^(-s-(2j-1)) are k^-s times real powers of k
    ln_k = np.log(k) if isinstance(k, np.ndarray) else math.log(k)
    k_pow_s = np.exp(-ln_k * s)
    corr = k / (s - 1.0) + 0.5
    rise = np.ones_like(s)
    k_pow = 1.0 / k
    for j in range(1, _EM_CORRECTIONS + 1):
        rise = s if j == 1 else rise * (s + (2 * j - 3)) * (s + (2 * j - 2))
        corr += (_BERN_2J[j - 1] / _FACT_2J[j - 1] * k_pow) * rise
        k_pow /= k * k
    return k_pow_s * corr


# --- Riemann-Siegel route -------------------------------------------------------
#
# For t > 0 put a = sqrt(t/2pi), N = floor(a), p = 1 - 2(a - N) and
# theta0 = (t/2) log(t/2pi) - t/2 - pi/8.  Then (Arias de Reyna, Math. Comp. 80
# (2011) 995-1009, for any real part)
#
#   zeta(s) = R(sigma) + chi(s) conj(R(1 - sigma)),
#   R(x)    = sum_{n<=N} n^-(x+it) + (-1)^(N-1) a^-x e^(-i theta0) sum_{k<L} a^-k C_k(p, x),
#   C_k     = sum_{j<=3k/2} d_kj(1 - 2x) F^(3k-2j)(p) / (pi^(2k-j) (2i)^j),
#
# with chi(s) = pi^(s-1/2) Gamma((1-s)/2)/Gamma(s/2), the entire kernel
# F(z) = (e^(i pi (z^2/2 + 3/8)) - i sqrt(2) cos(pi z/2)) / (2 cos(pi z)), and
# d_kj polynomials in 1 - 2x from a three-term recurrence.  Negative t uses
# zeta(conj s) = conj zeta(s).
#
# A batch forms each phase n^-it of the main sums only once, and only at the
# primes: a composite n takes the product of the phases of its smallest prime
# factor spf(n) and of n / spf(n), both below n, so one gather-multiply per
# dyadic range [2^k, 2^(k+1)) completes the table (26 of the 102 rows at
# t = 2^16 need an exponential).  The corrections need F^(m)(p) for the 27
# distinct orders m = 3k - 2j among the 75 pairs (k, j); F is even, so each is
# p^(m mod 2) times a polynomial in p^2, evaluated once and gathered out to
# the pairs it serves.

# Lowest |t| routed here.  Against mpmath at 30 digits the formula with
# _RS_TERMS corrections is within 1.5e-15 relative of zeta from t = 300 up
# (4e-14 at t = 150) for -1 < sigma < 1.15, and on a 2-core x86-64 machine it
# is cheaper than the Euler-Maclaurin sum from t = 300 for a batch of 128
# points (1.1 vs 1.4 ms) and from t = 100 for a single point; 500 leaves
# margin on both counts.
RS_T_MIN = 500.0
_RS_TERMS = 10
# Even Taylor coefficients of F in data/rs_taylor.txt (scripts/make_rs_taylor_table.py)
RS_TAYLOR_TERMS = 60
_STIRLING_TERMS = 5
# Bound on N = floor(sqrt(t/2pi)), which reaches 126 at the top of the box
_RS_N_MAX = 128


def _rs_d_polys(terms: int) -> dict:
    """d_kj for k < terms as exact coefficient lists of polynomials in q = 1 - 2x."""
    d = {(0, 0): [Fraction(1)]}
    for k in range(1, terms):
        for j in range(3 * k // 2 + 1):
            m = 3 * k - 2 * j
            poly = [Fraction(0)] * (j + 1)
            if m:
                for e, v in enumerate(d.get((k - 1, j - 2), ())):
                    poly[e] -= (m + 1) * v
                for e, v in enumerate(d.get((k - 1, j), ())):
                    poly[e] += v / (4 * m)
                for e, v in enumerate(d.get((k - 1, j - 1), ())):
                    poly[e + 1] += v / (2 * m)
            else:
                for r in range(j):
                    w = (-1) ** (j - r + 1) * Fraction(
                        math.factorial(2 * (j - r)), math.factorial(j - r)
                    )
                    for e, v in enumerate(d[k, r]):
                        poly[e] += w * v
            d[k, j] = poly
    return d


class _RSTables(NamedTuple):
    """Riemann-Siegel tables.

    orders: the distinct derivative orders m = 3k - 2j, the even ones first,
    each run ascending; kernel: per order, the coefficients of
    F^(m)(p) / p^(m mod 2) in powers of p^2, as the real and imaginary column
    of a real matrix.  Per pair (k, j) of `pairs`: the row of its order and k.
    poly: per pair, the coefficients of d_kj(q) / (pi^(2k-j) (2i)^j) in powers
    of q, real and imaginary columns again.  primes: the primes up to
    _RS_N_MAX with their logs in extended precision; ln_n: log n for
    n = 1.._RS_N_MAX as doubles; steps: per dyadic range [2^k, 2^(k+1)),
    k >= 2, its composites n with spf(n) and n / spf(n).  two_pi: 2 pi in
    extended precision.
    """

    pairs: list
    orders: np.ndarray
    kernel: np.ndarray
    pair_row: np.ndarray
    pair_k: np.ndarray
    poly: np.ndarray
    primes: np.ndarray
    ln_primes: np.ndarray
    ln_n: np.ndarray
    steps: tuple
    two_pi: np.longdouble


def _real_columns(z: np.ndarray) -> np.ndarray:
    """A complex (rows, cols) matrix as a real one whose rows alternate real and
    imaginary parts, so that (x @ out).view(complex) is x @ z.T for real x."""
    return np.ascontiguousarray(np.stack([z.real, z.imag], axis=1).reshape(-1, z.shape[1]).T)


@functools.cache
def _rs_tables() -> _RSTables:
    """Correction and phase tables, built on the first Riemann-Siegel call of a process."""
    text = files("delange").joinpath("data/rs_taylor.txt").read_text(encoding="utf-8")
    taylor = np.array([complex(float(re), float(im)) for re, im in map(str.split, text.splitlines())])
    d = _rs_d_polys(_RS_TERMS)
    pairs = sorted(d)
    pair_orders = [3 * k - 2 * j for k, j in pairs]
    orders = np.array(sorted(set(pair_orders), key=lambda m: (m % 2, m)))
    kernel = np.zeros((orders.size, RS_TAYLOR_TERMS), dtype=np.complex128)
    for row, m in enumerate(orders.tolist()):
        # F^(m)(p) = sum over even n >= m of taylor[n/2] n!/(n - m)! p^(n - m)
        n = np.arange(m + m % 2, 2 * RS_TAYLOR_TERMS, 2)
        kernel[row, : n.size] = taylor[n // 2] * [float(math.perm(v, m)) for v in n.tolist()]
    poly = np.zeros((len(pairs), max(j for _, j in pairs) + 1), dtype=np.complex128)
    for row, (k, j) in enumerate(pairs):
        poly[row, : j + 1] = [float(v) / (math.pi ** (2 * k - j) * (2j) ** j) for v in d[k, j]]
    n = np.arange(_RS_N_MAX + 1)
    spf = np.array([0, 1] + [next(q for q in range(2, v + 1) if v % q == 0) for v in range(2, n.size)])
    composite = n[spf < n]
    steps = []
    for lo in 2 ** np.arange(2, _RS_N_MAX.bit_length()):
        c = composite[(lo <= composite) & (composite < 2 * lo)]
        steps.append((c, spf[c], c // spf[c]))
    primes = n[(n > 1) & (spf == n)]
    return _RSTables(
        pairs=pairs,
        orders=orders,
        kernel=_real_columns(kernel),
        pair_row=np.array([orders.tolist().index(m) for m in pair_orders]),
        pair_k=np.array([k for k, _ in pairs]),
        poly=_real_columns(poly),
        primes=primes,
        ln_primes=np.log(primes.astype(np.longdouble)),
        ln_n=np.log(np.arange(1, _RS_N_MAX + 1, dtype=np.longdouble)).astype(np.float64),
        steps=tuple(steps),
        two_pi=8 * np.arctan(np.longdouble(1)),
    )


def _rs_reduced(phase: np.ndarray) -> np.ndarray:
    """A long double phase reduced mod 2 pi into about [-pi, pi], as doubles.

    The whole turns are counted in double precision, which can miss the
    nearest integer only next to an odd multiple of pi, where either is fine.
    """
    turns = np.round(phase.astype(np.float64) * (0.5 / math.pi))
    return (phase - turns.astype(np.longdouble) * _rs_tables().two_pi).astype(np.float64)


def _rs_kernel(p: np.ndarray) -> np.ndarray:
    """F^(m)(p) for every order m of _rs_tables().orders, one row per point."""
    tab = _rs_tables()
    out = (np.vander(p * p, RS_TAYLOR_TERMS, increasing=True) @ tab.kernel).view(np.complex128)
    out[:, np.count_nonzero(tab.orders % 2 == 0) :] *= p[:, None]
    return out


def _rs_phases(t: np.ndarray, count: int) -> np.ndarray:
    """n^-it for 1 <= n <= count as row n of a (count + 1)-row array; row 0 is 0.

    Only the primes take an exponential, of their phase t log p formed and
    reduced mod 2 pi in extended precision.  Every composite is then the
    product of two rows below it, filled one dyadic range at a time.
    """
    tab = _rs_tables()
    out = np.empty((count + 1, t.size), dtype=np.complex128)
    out[0], out[1] = 0.0, 1.0
    live = np.searchsorted(tab.primes, count, side="right")
    phase = np.multiply.outer(tab.ln_primes[:live], t.astype(np.longdouble))
    out[tab.primes[:live]] = np.exp(-1j * _rs_reduced(phase))
    for n, spf, cofactor in tab.steps:
        live = np.searchsorted(n, count, side="right")
        out[n[:live]] = out[spf[:live]] * out[cofactor[:live]]
    return out


def _stirling_tail(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log Gamma(w) - [(w - 1/2) log(i t/2) - w + log(2 pi)/2] at w = x + i t/2.

    With log w = log(i t/2) + log(1 - i u), u = 2x/t, everything left is of
    size O(x): the O(t log t) parts of log Gamma are kept out, so that chi's
    phase can be formed from theta0 alone.
    """
    w = x + 0.5j * t
    u = 2.0 * x / t
    out = (w - 0.5) * (0.5 * np.log1p(u * u) - 1j * np.arctan(u))
    inv = 1.0 / w
    inv2 = inv * inv
    for j in range(1, _STIRLING_TERMS + 1):
        out += (_BERN_2J[j - 1] / (2 * j * (2 * j - 1))) * inv
        inv = inv * inv2
    return out


def _riemann_siegel(s: np.ndarray) -> np.ndarray:
    """zeta at 1-D points with |Im s| >= RS_T_MIN, by the Riemann-Siegel formula.

    The phases t log p and theta0 reach ~1e6; they are formed and reduced mod
    2pi in extended precision (np.longdouble) before the exponentials, which
    keeps n^-it within 5e-14 of mpmath up to t = 1e5 where the long double is
    wider than a double (x86-64), and near 1e-10 at t = 1e5 where it is not.
    """
    tab = _rs_tables()
    flip = s.imag < 0
    s = np.where(flip, s.conj(), s)
    sigma, t = s.real, s.imag
    a = np.sqrt(t / (2.0 * math.pi))
    n_top = np.floor(a).astype(np.int64)
    p = 1.0 - 2.0 * (a - n_top)
    # per pair (k, j), F^(3k-2j)(p) a^-k; the weights sit in tab.poly
    a_pow = a[:, None] ** -np.arange(_RS_TERMS, dtype=np.float64)
    scaled = _rs_kernel(p)[:, tab.pair_row] * a_pow[:, tab.pair_k]
    # sum over the pairs at x = sigma (row 0) and x = 1 - sigma (row 1), q = 1 - 2x
    q = 1.0 - 2.0 * sigma
    d_kj = np.vander(np.concatenate([q, -q]), tab.poly.shape[0], increasing=True) @ tab.poly
    corrections = np.einsum("ij,xij->xi", scaled, d_kj.view(np.complex128).reshape(2, *scaled.shape))

    t_ld = t.astype(np.longdouble)
    e_theta = np.exp(-1j * _rs_reduced(t_ld / 2 * (np.log(t_ld / tab.two_pi) - 1) - tab.two_pi / 16))
    # n^-sigma and n^(sigma - 1) = 1/(n n^-sigma), one row per n, zero past N
    count = int(n_top.max())
    live = np.arange(1, count + 1)[:, None] <= n_top
    left_w = np.exp(tab.ln_n[:count, None] * -sigma)
    right_w = live / (np.arange(1.0, count + 1)[:, None] * left_w)
    left_w *= live
    n_it = _rs_phases(t, count)[1:]
    head = np.where(n_top % 2 == 1, 1.0, -1.0) * e_theta
    left = (left_w * n_it).sum(axis=0)
    left += head * a ** -sigma * corrections[0]
    right = np.conj((right_w * n_it).sum(axis=0))
    right += np.conj(head * a ** (sigma - 1.0) * corrections[1])
    # chi(s) = e^(-2 i theta0) exp((1/2 - sigma)(log(t/2pi) - 1) + tails)
    log_chi = (0.5 - sigma) * (np.log(t / (2.0 * math.pi)) - 1.0) + (
        np.conj(_stirling_tail(0.5 * (1.0 - sigma), t)) - _stirling_tail(0.5 * sigma, t)
    )
    out = left + e_theta * e_theta * np.exp(log_chi) * right
    return np.where(flip, out.conj(), out)


def zeta_batch(s: np.ndarray) -> np.ndarray:
    """zeta on an array of points of the validated box, away from s = 1.

    A 2-D s whose rows are vertical progressions sigma + i(t0[row] + j dt),
    with one sigma and one dt, takes the factored Euler-Maclaurin sum with one
    cutoff K for the whole batch: about K*(2*sqrt(points)) exps and one
    complex matmul instead of K*points exps.

    Every other input (1-D, mixed real parts, uneven spacing) is routed point
    by point.  Points with |Im s| >= RS_T_MIN and Re s < RS_SIGMA_MAX take the
    Riemann-Siegel formula, sqrt(|t|/2pi) terms on each side of the
    functional equation, whose phases need an exponential only at the
    primes, plus a fixed set of corrections.  The rest take
    Euler-Maclaurin with their own cutoff, so a low point never pays for a
    high one.  The correction terms cost one complex power per point.
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

    grid = _progression(s)
    if grid is not None:
        k = int(_direct_sum_cutoff(sig_min, t_max))
        direct = _progression_sum(*grid, s.shape[1], np.log(np.arange(1.0, k)), np.ones(k - 1))
        total = direct + _euler_maclaurin_tail(s, k)
    else:
        flat = s.reshape(-1)
        total = np.empty_like(flat)
        rs = (np.abs(flat.imag) >= RS_T_MIN) & (flat.real < RS_SIGMA_MAX)
        if np.any(rs):
            total[rs] = _riemann_siegel(flat[rs])
        em = flat[~rs]
        if em.size:
            k = _direct_sum_cutoff(em.real, np.abs(em.imag))
            top = int(k.max())
            direct = _scattered_sum(em, np.log(np.arange(1.0, top)), np.ones(top - 1), k - 1)
            total[~rs] = direct + _euler_maclaurin_tail(em, k)
        total = total.reshape(s.shape)
    if not np.all(np.isfinite(total)):
        raise OutOfValidatedRange("zeta evaluation overflowed inside the batch")
    return total


def zeta(s: complex) -> complex:
    """zeta(s) for a single point of the validated box."""
    return complex(zeta_batch(np.array([complex(s)]))[0])


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
    # sin(pi z) = (-1)^n sin(pi (z - n)) with n the integer nearest Re z: the
    # reduced real part lies in [-1/2, 1/2], so a zero of sin(pi z) at any
    # integer is met at the origin, where sin keeps its relative accuracy.
    n = round(z.real)
    v = cmath.sin(cmath.pi * complex(z.real - n, z.imag))
    return -v if n % 2 else v


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

