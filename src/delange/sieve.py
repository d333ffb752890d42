"""Exact window sums of multiplicative functions by segmented sieving.

One engine factors (x, x+y] chunk by chunk (2^19 integers), and a chunk only
multiplies, as in the segmented sieve of Oliveira e Silva, Herzog and Pardi
(Math. Comp. 2014): no array as long as the chunk is divided.  As in
Walisch's primesieve, the chunk's smooth part starts as a copy of a
pre-sieved wheel: the smooth part over 2, 3, 5, 7, 11 and 13, capped at 2^3
and 3^2, of every residue mod 360360, built once per process.  The small
primes, below SMALL_PRIME_BOUND = 2^9, are then struck with strided in-place
views, ``smooth[off::q] *= p`` on the multiples of q = p, p^2, p^3, ...,
skipping the powers the wheel already holds, and the offset of the first
multiple of each p^k is recorded.  The larger base primes up to sqrt(x+y) are
bucketed, as in primesieve: vectors of first multiples, a slice of primes at
a time, expanded into hit arrays and applied with ``np.multiply.at``; their
higher powers come from the first multiples of p^2 and a quotient test on
those few hits.  smooth[i] is then the product of the struck prime powers of
a + i, so a + i has a (single, prime) cofactor exactly where smooth[i] !=
a + i, found by comparison and, where needed, as (a + i) // smooth[i] at
those positions only.  The split at 2^9 keeps the strided loops, which cost
Python time per prime and chunk, to the 97 primes below it; the primes above
it cost only array work per hit.

A sum is of a real-valued family whose local values are one function of
the exponent, f(p^e) = family.local_value(e) at every prime p.  A call reads
them once, before any chunk, as one vector v_0..v_E over every exponent the
window can hold; a value with a nonzero imaginary part raises
ParameterOutOfRange.  Each small prime multiplies its scalar v_1 into one
stride of the f-vector; the values at the multiples of p^2 are saved first,
and v_e times the saved value is written back at the multiples of p^e.  Then
come the bucketed primes in ascending order, whose hits take v_1 but for the
few that hold a higher power, and the cofactor last, so every value is the
product of its f(p^e) in ascending order of p, each product rounded once.  Sums are therefore bit-identical to
those of the earlier engine that divided a residual and looked each exponent
up in a table (the pinned sums in tests/test_sieve.py).  Chunks are
independent (safe to farm out to threads) and the final reduction is an
ordered fold, so results are bitwise reproducible for any worker count.

Memory traffic, not arithmetic, bounds the chunk work, so the working set is
kept small.  A chunk's float64 f-vector takes over the smooth part's buffer.
The chunk length is 2^19: each worker then holds a few MB, while the fixed
cost of a chunk (the strided loops over the small primes and the first
multiple of every bucketed prime) stays small beside its array work.  The
hit arrays (primes, offsets and exponents) are sized once per call for the
most hits a chunk can take and reused from chunk to chunk, each worker
thread holding its own; the hits' float64 values take over the primes'
array.  The cofactor test and the cofactor multiply go 2^14 integers at a
time, so the only other arrays as long as the chunk are the smooth part and
one boolean mask: freed temporaries would be handed back to the system and
page-faulted again in the next chunk.  Sums are never accumulated in int64,
which would wrap silently.  Doubles add integers exactly below 2^53, so an
integer-valued sum whose |f(n)| add up to 2^53 or more is refused rather than
rounded.

Factorizations are kept columnar, in CSR form: ``offsets`` (length y + 1)
delimits each integer's run in ``primes`` and ``exponents``.  A chunk's
columns come from one stable sort of its prime-power events by offset, with
no Python object per integer; tuples are built only when a caller iterates
or indexes.  The base primes themselves come from an odd-only sieve run one
segment at a time into a preallocated array, so at the top of the reach
(primes up to 1e8) no temporary spans the whole range; a grid of windows
(meanvalue.run_experiment) sieves them once, for its largest x + y.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWindow, ParameterOutOfRange, WindowTooLarge

CHUNK = 1 << 19
MAX_WINDOW = 100_000_000
MAX_BASE_PRIME = 100_000_000  # sqrt of the largest sievable x + y, 1e16
SMALL_PRIME_BOUND = 1 << 9
WHEEL = 360360  # 2^3 3^2 5 7 11 13, the period of the pre-sieved smooth part
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
PRIME_SEGMENT = 1 << 21  # integers per base-prime segment (even; an odd-only mask of 2^20 bytes)
BUCKET_SLICE = 1 << 17  # bucketed primes per pass, so no temporary spans them all
_BLOCK = 1 << 14  # integers per pass of the cofactor test and multiply


def primes_up_to(n: int) -> np.ndarray:
    """Ascending primes <= n (int64); n past MAX_BASE_PRIME is refused before
    anything is allocated.  Masks hold odd numbers only, entry j of the one
    starting at (even) lo standing for lo + 2j + 1.  The first mask holds
    every prime up to sqrt(n) and sieves itself; those primes then strike the
    rest of [0, n] PRIME_SEGMENT integers at a time, each segment's primes
    going straight into one preallocated array, so no temporary spans [0, n]."""
    if n > MAX_BASE_PRIME:
        raise ParameterOutOfRange(f"primes up to {n} exceed the sieve's reach {MAX_BASE_PRIME}")
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    root = math.isqrt(n)
    first = min(n + 1, max(PRIME_SEGMENT, root + 2) & ~1)
    mask = np.ones(first // 2, dtype=bool)
    mask[0] = False  # entry 0 stands for 1
    for j in range(1, (math.isqrt(first - 1) + 1) // 2):
        if mask[j]:
            p = 2 * j + 1
            mask[p * p // 2 :: p] = False
    sieving = (2 * np.flatnonzero(mask[: (root + 1) // 2]) + 1).tolist()
    ln = math.log(n)
    out = np.empty(int(n / ln * (1 + 1.2762 / ln)) + 1, dtype=np.int64)  # Dusart: pi(n) fits
    out[0], count = 2, 1
    for lo in (0, *range(first, n + 1, PRIME_SEGMENT)):
        if lo:
            hi = min(lo + PRIME_SEGMENT, n + 1)
            mask = np.ones((hi - lo) // 2, dtype=bool)
            for p in sieving:  # p < lo, so only composites are struck
                if p * p >= hi:
                    break
                mask[((-(-lo // p) | 1) * p - lo) // 2 :: p] = False  # odd multiples from lo on
        found = 2 * np.flatnonzero(mask) + (lo + 1)
        out[count : count + found.size] = found
        count += found.size
    return out[:count]


@dataclass(frozen=True)
class Window:
    """Summation range (x, x+y].

    The asymptotic machinery wants x >= y >= 2; the sieve itself is happy
    with any y >= 1, and degenerate windows like (1, 2] are useful in tests,
    so only y <= x is enforced here (expansion-range checks live with
    predict).  The bounds are integers, anything operator.index takes: a
    float, even 10.0, raises InvalidWindow, and a non-finite one says so.
    """

    x: int
    y: int

    def __post_init__(self):
        if any(isinstance(v, float) and not math.isfinite(v) for v in (self.x, self.y)):
            raise InvalidWindow(f"window bounds must be finite, got x={self.x}, y={self.y}")
        try:
            operator.index(self.x), operator.index(self.y)
        except TypeError:
            raise InvalidWindow(f"window bounds must be integers, got x={self.x!r}, y={self.y!r}") from None
        if not (1 <= self.y <= self.x):
            raise InvalidWindow(f"window needs 1 <= y <= x, got x={self.x}, y={self.y}")
        if self.x + self.y > 2**63 - 1:
            raise InvalidWindow("x + y exceeds the 64-bit range")


class Factorizations(Sequence):
    """Read-only sequence of factorizations held as CSR columns: item i is
    the tuple of (p, e) pairs, p ascending, from primes[offsets[i]:offsets[i+1]]
    and exponents[offsets[i]:offsets[i+1]].  Equality with another columnar
    sequence compares the arrays; with a tuple, the items."""

    __slots__ = ("offsets", "primes", "exponents")

    def __init__(self, offsets: np.ndarray, primes: np.ndarray, exponents: np.ndarray):
        for col in (offsets, primes, exponents):
            col.flags.writeable = False
        self.offsets, self.primes, self.exponents = offsets, primes, exponents

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = range(len(self))[i]  # Python index rules, IndexError past the end
        s, t = self.offsets[i : i + 2].tolist()
        return tuple(zip(self.primes[s:t].tolist(), self.exponents[s:t].tolist()))

    def __iter__(self):
        pairs = list(zip(self.primes.tolist(), self.exponents.tolist()))
        ends = self.offsets.tolist()
        return (tuple(pairs[s:t]) for s, t in zip(ends, ends[1:]))

    def __eq__(self, other):
        if isinstance(other, Factorizations):
            return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.__slots__)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Factorizations({len(self)} integers, {self.primes.size} prime powers)"


@dataclass(frozen=True)
class FactoredWindow:
    """Complete factorizations for n in (x, x+y], in ascending order of n."""

    x: int
    factors: Sequence[tuple[tuple[int, int], ...]]

    def factorization(self, n: int) -> tuple[tuple[int, int], ...]:
        if not self.x < n <= self.x + len(self.factors):
            raise InvalidWindow(f"{n} lies outside the window ({self.x}, {self.x + len(self.factors)}]")
        return self.factors[n - self.x - 1]


def _check_budget(lo: int, hi: int) -> None:
    """Refuse the range [lo, hi) past the window budget or the sieve's reach."""
    if hi - lo > MAX_WINDOW:
        raise WindowTooLarge(f"window length {hi - lo} exceeds the budget {MAX_WINDOW}")
    if math.isqrt(hi - 1) > MAX_BASE_PRIME:
        raise WindowTooLarge(f"x + y = {hi - 1} exceeds the sieve's reach {MAX_BASE_PRIME}^2")


def _base_primes(lo: int, hi: int) -> np.ndarray:
    """Primes up to sqrt(hi - 1) for the range [lo, hi), once both budgets hold."""
    _check_budget(lo, hi)
    return primes_up_to(math.isqrt(hi - 1))


class _Scratch(threading.local):
    """The bucketed hits of a chunk, reused from chunk to chunk within one
    call: room for hits primes and offsets (int64) and exponents (int8).  A
    call makes one instance and drops it at the end; each worker thread that
    uses it allocates arrays of its own on its first chunk, so the hits are
    not handed back to the system and page-faulted again at every chunk."""

    def __init__(self, hits: int):
        self.hits, self.arrays = hits, None

    def get(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(primes, offsets, exponents) of this thread."""
        if self.arrays is None:
            self.arrays = tuple(np.empty(self.hits, dtype=d) for d in (np.int64, np.int64, np.int8))
        return self.arrays


def _scratch(lo: int, hi: int, primes: np.ndarray) -> _Scratch:
    """A scratch for the chunks of [lo, hi), with room for the most bucketed
    hits any of them can take: a prime p below the chunk length n hits it at
    most (n - 1) // p + 1 times, a larger one at most once, and an integer
    below hi has at most k prime factors p >= n, where n^k < hi."""

    def most_hits(n: int) -> int:
        ps = primes[np.searchsorted(primes, min(SMALL_PRIME_BOUND, n)) :]
        below = ps[: np.searchsorted(ps, n)]
        k, power = 0, max(n, 2)
        while power < hi:
            k, power = k + 1, power * max(n, 2)
        return int(((n - 1) // below + 1).sum()) + min(ps.size - below.size, n * k)

    return _Scratch(max(most_hits(min(CHUNK, hi - lo)), most_hits((hi - lo) % CHUNK or CHUNK)))


@functools.cache
def _wheel() -> np.ndarray:
    """The smooth part over 2..13 of every residue mod WHEEL, read-only:
    entry i is gcd(i, WHEEL), the product of p^min(v_p(i), v_p(WHEEL)).
    Built on the first strike of a process."""
    pattern = np.ones(WHEEL, dtype=np.int32)
    for p in WHEEL_PRIMES:
        q = p
        while WHEEL % q == 0:
            pattern[::q] *= p
            q *= p
    pattern.flags.writeable = False
    return pattern


def _progressions(ps: np.ndarray, first: np.ndarray, n: int, out: tuple | None = None):
    """(p, offset) for every offset = first + j*p below n, grouped by p in
    the order of ps, offsets ascending within each group; written into the
    leading entries of out = (primes, offsets) when it is given."""
    hit = np.flatnonzero(first < n)  # a prime past the chunk length hits it at most once
    ps, first = ps.take(hit), first.take(hit)
    cnt = (n - 1 - first) // ps + 1
    steps = np.repeat(ps, cnt)  # turned into offsets by one running sum
    hp, idx = out if out is not None else (np.empty_like(steps), np.empty_like(steps))
    hp, idx = hp[: steps.size], idx[: steps.size]
    hp[...] = steps
    if cnt.size:
        starts = np.cumsum(cnt) - cnt
        steps[starts] = first
        steps[starts[1:]] -= first[:-1] + (cnt[:-1] - 1) * ps[:-1]  # from the last offset of the group before
        np.cumsum(steps, out=idx)
    return hp, idx


def _strike(a: int, b: int, primes: np.ndarray, scratch: _Scratch):
    """Prime-power events over the chunk [a, b) for the base primes p*p < b:
    (smooth, small, large).  smooth[i] is the product of the struck prime
    powers dividing a + i, so a + i has a prime cofactor exactly where
    smooth[i] != a + i.  small lists (p, offs), offs[k - 1] the offset of the
    first multiple of p^k in the chunk, for every p^k that has one; large
    holds (p, offset, exponent) hit arrays in ascending order of p, views of
    the scratch's arrays.

    When 2..13 are all struck in strides, smooth starts from the wheel
    pattern, and the strided loop strikes only the powers of 2..13 that the
    pattern leaves out (16, 27, 25, 49, 121, 169 and up)."""
    n = b - a
    primes = primes[: np.searchsorted(primes, math.isqrt(b - 1), side="right")]
    split = int(np.searchsorted(primes, min(SMALL_PRIME_BOUND, n)))  # strided: p < chunk
    smooth = np.empty(n, dtype=np.int64)
    wheel = split >= len(WHEEL_PRIMES)  # the base primes start 2, 3, 5, ...
    if wheel:
        pattern, r, i = _wheel(), a % WHEEL, 0
        while i < n:  # at most three slices for a chunk of up to 2 WHEEL integers
            m = min(n - i, WHEEL - r)
            smooth[i : i + m] = pattern[r : r + m]
            i, r = i + m, 0
    else:
        smooth.fill(1)
    small = []
    for p in primes[:split].tolist():
        offs, q = [], p
        while (off := -a % q) < n:  # one multiply on the multiples of each p^k
            if not wheel or WHEEL % q:
                smooth[off::q] *= p
            offs.append(off)
            q *= p
        small.append((p, offs))
    hp_out, idx_out, he = scratch.get()
    count, squares = 0, []
    for ps in np.split(primes[split:], range(BUCKET_SLICE, primes.size - split, BUCKET_SLICE)):
        first = -a % ps
        hit = first < n  # only a prime that hits the chunk can have its square there
        ps = ps[hit]
        count += _progressions(ps, first[hit], n, (hp_out[count:], idx_out[count:]))[0].size
        sq = ps * ps  # below b, so no overflow
        squares.append(_progressions(sq, -a % sq, n))
    hp, idx, he = hp_out[:count], idx_out[:count], he[:count]
    np.multiply.at(smooth, idx, hp)
    he.fill(1)
    sq, at = (np.concatenate(c) for c in zip(*squares))  # the few multiples of some p^2
    root = np.rint(np.sqrt(sq)).astype(np.int64)  # p: p^2 <= 1e16 is off by less than 1 as a double
    run = np.searchsorted(hp, root)  # where the hits of each such p begin
    live = run + (at - idx[run]) // root
    quot = (at + a) // root
    while live.size:  # a quotient test: the survivors of each pass hold one more power of p
        np.multiply.at(smooth, idx[live], root)
        he[live] += 1
        quot //= root
        more = quot % root == 0
        live, root, quot = live[more], root[more], quot[more]
    return smooth, small, (hp, idx, he)


def _has_cofactor(smooth: np.ndarray, a: int) -> np.ndarray:
    """smooth[i] != a + i, compared a block at a time, so that no int64
    temporary is as long as the chunk."""
    out = np.empty(smooth.size, dtype=bool)
    for i in range(0, smooth.size, _BLOCK):
        part = smooth[i : i + _BLOCK]
        np.not_equal(part, np.arange(a + i, a + i + part.size, dtype=np.int64), out=out[i : i + _BLOCK])
    return out


def _factor_columns(a: int, b: int, primes: np.ndarray, scratch: _Scratch):
    """CSR factorizations of the chunk [a, b): (offsets, primes, exponents),
    the pairs of a + i at offsets[i]:offsets[i+1], primes ascending."""
    smooth, small, (hp, idx, he) = _strike(a, b, primes, scratch)
    co = np.flatnonzero(_has_cofactor(smooth, a))  # prime cofactors come last
    sp, soff = _progressions(np.array([p for p, _ in small], dtype=np.int64),
                             np.array([offs[0] for _, offs in small], dtype=np.int64), b - a)
    se = np.ones(sp.size, dtype=np.int8)
    start = 0
    for p, offs in small:  # run of p in sp: one entry per multiple of p, from offs[0]
        stop = start + (b - a - 1 - offs[0]) // p + 1
        q = p
        for off in offs[1:]:
            se[start + (off - offs[0]) // p : stop : q] += 1
            q *= p
        start = stop
    offs = np.concatenate([soff, idx, co])
    key = offs.astype(np.uint16) if b - a <= 1 << 16 else offs  # numpy radix-sorts 16-bit keys
    order = np.argsort(key, kind="stable")  # keeps each integer's primes ascending
    ps = np.concatenate([sp, hp, (co + a) // smooth[co]])[order]
    exps = np.concatenate([se, he, np.ones(co.size, dtype=np.int8)])[order]
    offsets = np.zeros(b - a + 1, dtype=np.int64)
    np.cumsum(np.bincount(offs, minlength=b - a), out=offsets[1:])
    return offsets, ps, exps


def factor_window(win: Window) -> FactoredWindow:
    """Factor every integer in the window; reconstruction is exact."""
    lo, hi = win.x + 1, win.x + win.y + 1
    primes = _base_primes(lo, hi)
    scratch = _scratch(lo, hi, primes)
    cols = [_factor_columns(a, min(a + CHUNK, hi), primes, scratch) for a in range(lo, hi, CHUNK)]
    starts = np.cumsum([0] + [ps.size for _, ps, _ in cols])  # where each chunk's pairs begin
    offsets = np.concatenate([off[:-1] + s for (off, _, _), s in zip(cols, starts)] + [starts[-1:]])
    ps, exps = (np.concatenate([c[k] for c in cols]) for k in (1, 2))
    return FactoredWindow(x=win.x, factors=Factorizations(offsets, ps, exps))


# Kinds of values, ordered so that a chunk takes the largest kind among the
# values multiplied into it
_NONNEG_INT, _INT, _REAL = range(3)
EXACT_LIMIT = 2**53  # doubles hold every integer below this, and not 2^53 + 1


def _real(values, what: str) -> np.ndarray:
    """values as float64, or ParameterOutOfRange when one is not real."""
    values = np.asarray(values, dtype=np.complex128)
    if values.imag.any():
        raise ParameterOutOfRange(f"the sieve sums real-valued families only, and {what} is not real")
    return values.real


def _kind(values: np.ndarray) -> int:
    """The least kind that holds every one of the values."""
    if (np.floor(values) != values).any():
        return _REAL
    return _INT if (values < 0).any() else _NONNEG_INT


@np.errstate(over="ignore", invalid="ignore")  # exact_sum refuses a total that is not finite
def _chunk_sum(a: int, b: int, primes: np.ndarray, values: np.ndarray, kind: int,
               scratch: _Scratch) -> tuple[float, float, int, int]:
    """(sum of f(n), sum of |f(n)|) over [a, b), with f multiplicative and
    f(p^e) = values[e] at every prime p; kind covers the values.  A small
    prime multiplies f(p) into the stride of its multiples and writes f(p^e)
    times the saved earlier value back at the multiples of p^e, e >= 2; the
    bucketed hits and the cofactors follow, in that order.  The second sum
    is nan unless every value is an integer.  The last two entries count the
    strided primes and the bucketed hits."""
    smooth, small, (hp, idx, he) = _strike(a, b, primes, scratch)
    cofactor = _has_cofactor(smooth, a)  # at most one prime cofactor, met last
    fv = smooth.view(np.float64)  # the f-vector takes over the smooth part's buffer
    fv.fill(1)
    for p, offs in small:  # f(p) in one scalar stride, then f(p^e) where p^2 divides
        if len(offs) > 1:
            before = fv[offs[1] :: p * p].copy()  # the values that f(p^e), e >= 2, multiplies
        fv[offs[0] :: p] *= values[1]
        for e, off in enumerate(offs[1:], start=2):
            np.multiply(before[(off - offs[1]) // p**2 :: p ** (e - 2)], values[e], out=fv[off :: p**e])
    hit_vals = hp.view(np.float64)  # the hits' values take over the primes' buffer, as fv does smooth's
    hit_vals.fill(values[1])
    high = np.flatnonzero(he > 1)  # a gather over the few higher powers only
    hit_vals[high] = values[he[high]]
    np.multiply.at(fv, idx, hit_vals)
    # [1, f(p)][cofactor] a block at a time: no temporary as long as the chunk
    lut = values[:2]
    buf = np.empty(min(b - a, _BLOCK))
    for i in range(0, b - a, _BLOCK):
        part = fv[i : i + _BLOCK]
        # mode "clip" writes straight into out; the default "raise" goes through a copy
        part *= np.take(lut, cofactor[i : i + _BLOCK].view(np.uint8), out=buf[: part.size], mode="clip")
    total = float(fv.sum())  # numpy pairwise summation, ascending order
    if kind == _NONNEG_INT:
        magnitude = total
    else:
        magnitude = float(np.abs(fv).sum()) if kind == _INT else math.nan
    return total, magnitude, len(small), hp.size


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ParameterOutOfRange(f"workers must be at least 1, got {workers}")


def exact_sum(family, win: Window, workers: int = 1, diagnostics: dict | None = None) -> complex:
    """Exact sum of f(n) over (x, x+y], f the real-valued multiplicative
    function with f(p^e) = family.local_value(e) at every prime p.

    Chunk results are reduced in ascending order whatever the worker count,
    so the output is bitwise deterministic; it is a complex with imaginary
    part 0.0.  An integer-valued f is summed exactly or refused:
    WindowTooLarge once the sum of |f(n)| reaches EXACT_LIMIT.  A local value
    with a nonzero imaginary part, a local value or a total past the double
    range, and fewer than one worker raise ParameterOutOfRange; the local
    values of every exponent the window can hold are checked before any
    chunk is summed.  A given diagnostics dict receives the call's "chunks",
    "base_primes", "strided_primes" (the most any chunk struck in strides)
    and "bucket_hits" (over all chunks).
    """
    _check_workers(workers)
    lo, hi = win.x + 1, win.x + win.y + 1
    return _sum(family, lo, hi, _base_primes(lo, hi), workers, diagnostics)


def _window_sums(family, windows: Sequence[Window], workers: int) -> list[complex]:
    """exact_sum over each window, with every budget checked first and the
    base primes sieved once, for the largest x + y; each window sums over
    its own prefix of them."""
    _check_workers(workers)
    ranges = [(win.x + 1, win.x + win.y + 1) for win in windows]
    for lo, hi in ranges:
        _check_budget(lo, hi)
    primes = primes_up_to(max((math.isqrt(hi - 1) for _, hi in ranges), default=0))
    return [_sum(family, lo, hi, primes[: np.searchsorted(primes, math.isqrt(hi - 1), side="right")], workers)
            for lo, hi in ranges]


def _sum(family, lo: int, hi: int, primes: np.ndarray, workers: int, diagnostics: dict | None = None) -> complex:
    """exact_sum over [lo, hi), given the base primes up to sqrt(hi - 1)."""
    bounds = [(a, min(a + CHUNK, hi)) for a in range(lo, hi, CHUNK)]
    # the top exponent is the largest of 1, for the cofactors; the largest e
    # with 512^e <= hi - 1, which bounds a bucketed p^e; and, for each p below
    # 2^9, the largest e with a multiple of p^e in the window
    top, q = 1, SMALL_PRIME_BOUND**2
    while q < hi:
        top, q = top + 1, q * SMALL_PRIME_BOUND
    for p in primes[primes < SMALL_PRIME_BOUND].tolist():
        e, q = 0, p
        while -lo % q < hi - lo:
            e, q = e + 1, q * p
        top = max(top, e)
    try:  # v_0 = f(1) = 1
        values = _real([1.0] + [family.local_value(e) for e in range(1, top + 1)], "a local value f(p^e)")
    except OverflowError as exc:
        raise ParameterOutOfRange("a local value f(p^e) overflows a double") from exc
    kind, scratch = _kind(values), _scratch(lo, hi, primes)

    def run(ab):
        return _chunk_sum(*ab, primes, values, kind, scratch)

    if workers == 1 or len(bounds) == 1:
        parts = [run(ab) for ab in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, bounds))
    total, magnitude = 0.0, 0.0
    for part, part_magnitude, _, _ in parts:  # ordered fold
        total += part
        magnitude += part_magnitude
    if diagnostics is not None:
        diagnostics.update(chunks=len(bounds), base_primes=int(primes.size),
                           strided_primes=max(p[2] for p in parts), bucket_hits=sum(p[3] for p in parts))
    if not math.isfinite(total):
        raise ParameterOutOfRange(f"the sum over ({lo - 1}, {hi - 1}] is not finite: {complex(total)}")
    if magnitude >= EXACT_LIMIT:
        raise WindowTooLarge(f"the sum of |f(n)| over ({lo - 1}, {hi - 1}] reaches 2^53, "
                             "past which doubles do not add integers exactly")
    return complex(total)
