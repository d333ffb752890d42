"""Exact window sums of multiplicative functions by segmented sieving.

One engine factors (x, x+y] chunk by chunk (2^20 integers).  Small primes are
struck with strided in-place views, ``residual[off::p] //= p`` and again on
the multiples of p^2, p^3, ...; the exponents index per-prime tables
[f(1), f(p), f(p^2), ...].  The larger base primes up to sqrt(x+y) are handed
out in bulk, as in Oliveira e Silva's bucket sieve (Walisch's primesieve):
one vector of first multiples, expanded with ``np.repeat`` and applied with
``ufunc.at`` in ascending prime order.  What remains above 1 is a prime
cofactor, so each integer meets its primes in ascending order, cofactor last.
Chunks are independent (safe to farm out to threads) and the final reduction
is an ordered fold, so results are bitwise reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWindow, ParameterOutOfRange, WindowTooLarge

CHUNK = 1 << 20
MAX_WINDOW = 100_000_000
MAX_BASE_PRIME = 100_000_000  # sqrt of the largest sievable x + y, 1e16
SMALL_PRIME_BOUND = 1 << 12


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n (int64); n past MAX_BASE_PRIME is refused before
    the n + 1 byte mask is allocated."""
    if n > MAX_BASE_PRIME:
        raise ParameterOutOfRange(f"primes up to {n} exceed the sieve's reach {MAX_BASE_PRIME}")
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@dataclass(frozen=True)
class Window:
    """Summation range (x, x+y].

    The asymptotic machinery wants x >= y >= 2; the sieve itself is happy
    with any y >= 1, and degenerate windows like (1, 2] are useful in tests,
    so only y <= x is enforced here (expansion-range checks live with
    predict).
    """

    x: int
    y: int

    def __post_init__(self):
        if any(isinstance(v, float) and not math.isfinite(v) for v in (self.x, self.y)):
            raise InvalidWindow(f"window bounds must be finite, got x={self.x}, y={self.y}")
        if not (1 <= self.y <= self.x):
            raise InvalidWindow(f"window needs 1 <= y <= x, got x={self.x}, y={self.y}")
        if self.x + self.y > 2**63 - 1:
            raise InvalidWindow("x + y exceeds the 64-bit range")


@dataclass(frozen=True)
class FactoredWindow:
    """Complete factorizations for n in (x, x+y], in ascending order of n."""

    x: int
    factors: tuple[tuple[tuple[int, int], ...], ...]

    def factorization(self, n: int) -> tuple[tuple[int, int], ...]:
        return self.factors[n - self.x - 1]


def _base_primes(lo: int, hi: int) -> np.ndarray:
    """Primes up to sqrt(hi - 1) for the range [lo, hi), once both budgets hold."""
    if hi - lo > MAX_WINDOW:
        raise WindowTooLarge(f"window length {hi - lo} exceeds the budget {MAX_WINDOW}")
    if math.isqrt(hi - 1) > MAX_BASE_PRIME:
        raise WindowTooLarge(f"x + y = {hi - 1} exceeds the sieve's reach {MAX_BASE_PRIME}^2")
    return primes_up_to(math.isqrt(hi - 1))


def _strike(a: int, b: int, primes: np.ndarray):
    """Prime-power events over the chunk [a, b) for the base primes p*p < b:
    (residual cofactors, small, large).  small lists (p, off, exps), exps[j]
    the exponent of p in a + off + j*p; large holds (p, offset, exponent)
    hit arrays in ascending order of p."""
    n = b - a
    primes = primes[: np.searchsorted(primes, math.isqrt(b - 1), side="right")]
    split = int(np.searchsorted(primes, min(SMALL_PRIME_BOUND, n)))  # strided: p < chunk
    residual = np.arange(a, b, dtype=np.int64)
    small = []
    for p in primes[:split].tolist():
        off = -a % p
        exps = np.zeros(len(range(off, n, p)), dtype=np.int8)
        q = p
        while (off_q := -a % q) < n:  # one division on the multiples of each p^k
            residual[off_q::q] //= p
            exps[(off_q - off) // p :: q // p] += 1
            q *= p
        small.append((p, off, exps))
    big = primes[split:]
    first = -a % big
    cnt = (n - 1 - first) // big + 1
    hp = np.repeat(big, cnt)
    idx = np.repeat(first, cnt) + (np.arange(hp.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)) * hp
    he = np.zeros(hp.size, dtype=np.int8)
    live = np.arange(hp.size)
    while live.size:  # one division per pass; the survivors hold a higher power
        np.floor_divide.at(residual, idx[live], hp[live])
        he[live] += 1
        live = live[residual[idx[live]] % hp[live] == 0]
    return residual, small, (hp, idx, he)


def factor_window(win: Window) -> FactoredWindow:
    """Factor every integer in the window; reconstruction is exact."""
    return FactoredWindow(x=win.x, factors=tuple(fs for _, fs in factor_range(win.x, win.x + win.y)))


def _prime_values(ps: np.ndarray, local_factor, prime_value):
    """f(p) for every prime in ps; the scalar prime_value when the family has one."""
    if prime_value is not None:
        return complex(prime_value)
    uniq, inv = np.unique(ps, return_inverse=True)
    return np.array([complex(local_factor(q, 1)) for q in uniq.tolist()], dtype=np.complex128)[inv]


def _chunk_sum(a: int, b: int, primes: np.ndarray, tables: dict, local_factor, prime_value) -> complex:
    """Sum of f(n) over [a, b) with f multiplicative given by local_factor(p, e);
    tables[p] is [f(1), f(p), f(p^2), ...] for every small prime."""
    residual, small, (hp, idx, he) = _strike(a, b, primes)
    fv = np.ones(b - a, dtype=np.complex128)
    for p, off, exps in small:
        fv[off::p] *= tables[p][exps]
    vals = np.full(hp.size, _prime_values(hp, local_factor, prime_value))
    for k in np.flatnonzero(he > 1).tolist():
        vals[k] = complex(local_factor(int(hp[k]), int(he[k])))
    np.multiply.at(fv, idx, vals)
    co = np.flatnonzero(residual > 1)  # prime cofactors come last
    np.multiply.at(fv, co, _prime_values(residual[co], local_factor, prime_value))
    return complex(fv.sum())  # numpy pairwise summation, ascending order


def exact_sum(family, win: Window, workers: int = 1) -> complex:
    """Exact sum of family.local_factor-built f(n) over (x, x+y].

    Chunk results are reduced in ascending order whatever the worker count,
    so the output is bitwise deterministic.
    """
    lo, hi = win.x + 1, win.x + win.y + 1
    primes = _base_primes(lo, hi)
    bounds = [(a, min(a + CHUNK, hi)) for a in range(lo, hi, CHUNK)]
    lf = family.local_factor
    pv = getattr(family, "prime_local_value", None)
    tables = {p: np.array([1.0] + [complex(lf(p, e)) for e in range(1, int(math.log(hi - 1, p)) + 2)])
              for p in primes[primes < SMALL_PRIME_BOUND].tolist()}  # e to log_p(x+y) + 1: float logs round
    if workers <= 1 or len(bounds) == 1:
        parts = [_chunk_sum(a, b, primes, tables, lf, pv) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda ab: _chunk_sum(ab[0], ab[1], primes, tables, lf, pv), bounds))
    total = 0j
    for part in parts:  # ordered fold
        total += part
    return total


def factor_range(lo_exclusive: int, hi_inclusive: int):
    """Factorizations for n in (lo, hi] without the Window x >= y constraint.

    Yields (n, ((p, e), ...)) in ascending order, primes ascending; intended
    for scans such as growth checks over [1, 10^6].
    """
    if lo_exclusive < 0:
        raise InvalidWindow(f"range needs lo >= 0, got {lo_exclusive}")
    lo, hi = lo_exclusive + 1, hi_inclusive + 1
    primes = _base_primes(lo, hi)
    for a in range(lo, hi, CHUNK):
        b = min(a + CHUNK, hi)
        residual, small, (hp, idx, he) = _strike(a, b, primes)
        co = np.flatnonzero(residual > 1)  # prime cofactors come last
        ps = np.concatenate([np.full(e.size, p) for p, _, e in small] + [hp, residual[co]])
        offs = np.concatenate([off + p * np.arange(e.size) for p, off, e in small] + [idx, co])
        exps = np.concatenate([e for _, _, e in small] + [he, np.ones(co.size, dtype=np.int8)])
        order = np.argsort(offs, kind="stable")  # keeps each integer's primes ascending
        pairs = list(zip(ps[order].tolist(), exps[order].tolist()))
        ends = np.cumsum(np.bincount(offs, minlength=b - a)).tolist()
        yield from zip(range(a, b), (tuple(pairs[s:t]) for s, t in zip([0] + ends, ends)))
