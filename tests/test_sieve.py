import dataclasses
import hashlib
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delange import sieve
from delange.errors import DelangeError, InvalidWindow, ParameterOutOfRange, WindowTooLarge
from delange.families import f_value, family_from_spec
from delange.sieve import (
    FactoredWindow,
    Window,
    exact_sum,
    factor_window,
    primes_up_to,
)


def trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """Trial division by every d <= sqrt(n) that divides n (one vectorised
    scan, no prime list): taken in ascending order, each such d that still
    divides the remaining cofactor is prime."""
    d = np.arange(2, math.isqrt(n) + 1, dtype=np.int64)
    out, m = [], n
    for p in d[n % d == 0].tolist():
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return tuple(out)


class TestFactorWindow:
    def test_hand_window(self):
        fw = factor_window(Window(10, 4))
        assert fw.factorization(11) == ((11, 1),)
        assert fw.factorization(12) == ((2, 2), (3, 1))
        assert fw.factorization(13) == ((13, 1),)
        assert fw.factorization(14) == ((2, 1), (7, 1))

    def test_minimal_window(self):
        fw = factor_window(Window(1, 1))
        assert fw.factorization(2) == ((2, 1),)

    def test_reconstruction(self):
        fw = factor_window(Window(10**6, 50))
        for n in range(10**6 + 1, 10**6 + 51):
            prod = 1
            for p, a in fw.factorization(n):
                prod *= p**a
            assert prod == n

    def test_spot_against_trial_division(self):
        fw = factor_window(Window(10**6, 10))
        assert fw.factorization(10**6 + 3) == trial_division(10**6 + 3)

    def test_random_against_trial_division(self):
        rng = np.random.default_rng(2024)
        ns = rng.integers(10**6, 10**6 + 10**5, size=500)
        lo, hi = int(ns.min()), int(ns.max())
        fw = factor_window(Window(lo - 1, hi - lo + 1))
        for n in ns.tolist():
            assert fw.factorization(n) == trial_division(n)

    def test_window_budget(self):
        with pytest.raises(WindowTooLarge):
            factor_window(Window(2 * 10**8, 10**8 + 1))

    @pytest.mark.parametrize("n", [-5, 0, 7, 9, 10, 15, 10**6])
    def test_lookup_outside_the_window_is_refused(self, n):
        # 10, 9 and 7 once answered with the factorizations of 14, 13 and 11
        fw = factor_window(Window(10, 4))
        with pytest.raises(InvalidWindow, match="outside the window"):
            fw.factorization(n)

    def test_columns_are_read_only(self):
        fw = factor_window(Window(10**6, 100))
        for col in (fw.factors.offsets, fw.factors.primes, fw.factors.exponents):
            with pytest.raises(ValueError):
                col[0] = 3

    def test_sequence_indexing(self):
        fw = factor_window(Window(10, 4))
        f = fw.factors
        assert len(f) == 4 and f[-1] == f[3] == ((2, 1), (7, 1))
        assert f[1:3] == (((2, 2), (3, 1)), ((13, 1),))
        with pytest.raises(IndexError):
            f[4]
        assert ((13, 1),) in f

    def test_equality_between_columnar_windows(self):
        win = Window(10**6, 3000)
        a, b = factor_window(win), factor_window(win)
        assert a == b and not (a != b)
        with mock.patch.object(sieve, "CHUNK", 64):  # chunk columns joined end to end
            assert factor_window(win) == a
        assert a != factor_window(Window(10**6 + 1, 3000))
        assert a != factor_window(Window(10**6, 2999))

    def test_equality_with_a_tuple_backed_window(self):
        fw = factor_window(Window(10**6, 300))
        plain = FactoredWindow(fw.x, tuple(fw.factors))
        assert plain == fw and fw == plain and hash(plain) == hash(fw)
        assert fw.factors == plain.factors and plain.factors == fw.factors
        assert fw.factors != list(plain.factors)  # like a tuple, never equal to a list
        fac = list(plain.factors)
        fac[7] = fac[7][1:]
        assert FactoredWindow(fw.x, tuple(fac)) != fw

    def test_replace_with_tuple_factors(self):
        # the benchmark corrupts a record this way to check its own oracle
        fw = factor_window(Window(100, 20))
        fac = list(fw.factors)
        fac[1] = ((2, 1),)
        bad = dataclasses.replace(fw, factors=tuple(fac))
        assert isinstance(bad.factors, tuple)
        assert bad.factorization(102) == ((2, 1),)
        assert bad.factorization(103) == fw.factorization(103) == ((103, 1),)
        assert bad != fw
        with pytest.raises(InvalidWindow):
            bad.factorization(121)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(10, 11)  # y > x
        with pytest.raises(ValueError):
            Window(10, 0)


class TestExactSum:
    def test_counts_integers(self, fam_one):
        assert exact_sum(fam_one, Window(1000, 100)) == 100.0

    def test_divisor_window(self, fam_div2):
        # d(11) + d(12) + d(13) + d(14) = 2 + 6 + 2 + 4
        assert exact_sum(fam_div2, Window(10, 4)) == 14.0

    def test_squarefree_window(self, fam_sqfree):
        # squarefree in (10, 20]: 11, 13, 14, 15, 17, 19
        assert exact_sum(fam_sqfree, Window(10, 10)) == 6.0

    def test_additivity(self, fam_div2):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = int(rng.integers(10**4, 10**5))
            y = int(rng.integers(10, 5000))
            y1 = int(rng.integers(1, y))
            whole = exact_sum(fam_div2, Window(x, y))
            left = exact_sum(fam_div2, Window(x, y1))
            right = exact_sum(fam_div2, Window(x + y1, y - y1))
            assert whole == pytest.approx(left + right, rel=1e-12)

    def test_worker_determinism(self, fam_div2, fam_sqfree):
        win = Window(3 * 10**6, 3 * 10**6)  # spans several chunks
        for fam in (fam_div2, fam_sqfree):
            vals = {exact_sum(fam, win, workers=w) for w in (1, 2, 4)}
            assert len(vals) == 1  # bitwise identical

    def test_matches_reference_arrays(self, fam_div2, fam_sqfree, fam_omega2):
        n = 3 * 10**4
        d2 = np.zeros(n + 1, dtype=np.int64)
        for i in range(1, n + 1):
            d2[i::i] += 1
        sqf = np.ones(n + 1, dtype=np.int64)
        om = np.zeros(n + 1, dtype=np.int64)
        for p in primes_up_to(n).tolist():
            om[p::p] += 1
            if p * p <= n:
                sqf[p * p :: p * p] = 0
        win = Window(2 * 10**4, 10**4)
        lo, hi = win.x + 1, win.x + win.y
        assert exact_sum(fam_div2, win).real == float(d2[lo : hi + 1].sum())
        assert exact_sum(fam_sqfree, win).real == float(sqf[lo : hi + 1].sum())
        assert exact_sum(fam_omega2, win).real == float((2.0 ** om[lo : hi + 1]).sum())


def divisor_partial_sum(t: int) -> int:
    """D(t) = sum_{n<=t} d(n) by the hyperbola method, exact integers."""
    if t <= 0:
        return 0
    r = math.isqrt(t)
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(2 * np.sum(t // d) - r * r)


def squarefree_partial_sum(t: int) -> int:
    """Q(t) = sum_{d^2<=t} mu(d) floor(t/d^2), exact integers."""
    if t <= 0:
        return 0
    r = math.isqrt(t)
    mu = np.ones(r + 1, dtype=np.int64)
    mu[0] = 0
    primes = primes_up_to(r)
    for p in primes.tolist():
        mu[p::p] *= -1
        q = p * p
        if q <= r:
            mu[q::q] = 0
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(mu[1:] * (t // (d * d))))


class TestIdentityOracles:
    """Window sums against classical counting identities: fully independent
    of the factorization machinery."""

    def test_divisor_window_identity(self, fam_div2):
        for x, y in ((10**5, 10**4), (10**7, 3 * 10**4)):
            want = divisor_partial_sum(x + y) - divisor_partial_sum(x)
            got = exact_sum(fam_div2, Window(x, y))
            assert got == complex(want)

    def test_squarefree_window_identity(self, fam_sqfree):
        for x, y in ((10**5, 10**4), (10**8, 10**5)):
            want = squarefree_partial_sum(x + y) - squarefree_partial_sum(x)
            got = exact_sum(fam_sqfree, Window(x, y))
            assert got == complex(want)


def test_primes_up_to():
    ps = primes_up_to(30)
    assert ps.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1).size == 0


def sieve_of_eratosthenes(n: int) -> np.ndarray:
    """One byte per integer in [0, n], no segments: the reference."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


@pytest.mark.parametrize("n", [10**6, 10**7 + 3, 3 * 10**7 + 7])
def test_primes_up_to_matches_the_unsegmented_sieve(n):
    got = primes_up_to(n)
    assert got.dtype == np.int64
    assert np.array_equal(got, sieve_of_eratosthenes(n))


def test_primes_up_to_at_the_top_of_the_reach():
    ps = primes_up_to(sieve.MAX_BASE_PRIME)
    # pi(10^8) and the sum of the primes below 10^8 (OEIS A006880, A046731)
    assert ps.size == 5_761_455 and int(ps.sum()) == 279_209_790_387_276
    assert int(ps[-1]) == 99_999_989


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(0, 5000), segment=st.sampled_from([2, 4, 6, 10, 64, 250]))
def test_primes_up_to_across_segment_edges(n, segment):
    with mock.patch.object(sieve, "PRIME_SEGMENT", segment):
        assert np.array_equal(primes_up_to(n), sieve_of_eratosthenes(n))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_top_of_reach_peaks_below_100_mb():
    # VmHWM, the peak of the fresh interpreter's own memory map; ru_maxrss
    # would also count the forking test process, which Linux carries over
    code = (
        "from delange.families import family_from_spec\n"
        "from delange.sieve import Window, exact_sum\n"
        "v = exact_sum(family_from_spec('one'), Window(10**16 - 10**5, 10**5))\n"
        "hwm = next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:'))\n"
        "print(v.real, hwm.split()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    total, peak_kb = proc.stdout.split()
    assert float(total) == 10**5
    assert int(peak_kb) / 1024 < 100


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_low_band_window_on_two_workers_peaks_below_85_mb():
    # two 2^19-integer chunks in flight with float64 f-vectors; with 2^20
    # complex128 chunks (an earlier engine) the same call peaked at 117 MB
    code = (
        "from delange.families import family_from_spec\n"
        "from delange.sieve import Window, exact_sum\n"
        "v = exact_sum(family_from_spec('divisor:1.5'), Window(5 * 10**8, 3 * 2**20), workers=2)\n"
        "hwm = next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:'))\n"
        "print(v.real, hwm.split()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    total, peak_kb = proc.stdout.split()
    assert float(total) > 0
    assert int(peak_kb) / 1024 < 85


def test_primes_up_to_refuses_past_the_reach():
    # an n + 1 byte mask at n = 1e12 would be a terabyte; the check comes first
    with pytest.raises(ParameterOutOfRange):
        primes_up_to(10**12)


def synthetic_family(local_factor, prime_value):
    """A family whose local values are local_factor(p, e) and f(p) = prime_value."""
    return dataclasses.replace(family_from_spec("one"), name="synthetic", local_factor=local_factor,
                               prime_local_value=prime_value)


ORACLE_FAMILIES = [family_from_spec(s) for s in ("one", "divisor:2", "omega:2", "sqfree")] + [
    # f(p) = 3 and f(p^e) = 2e + 1: a distinct value for each exponent
    synthetic_family(lambda p, e: complex(2 * e + 1), 3.0),
]
# the two smallest bucketed primes
SPLIT_PRIMES = [n for n in range(sieve.SMALL_PRIME_BOUND, 2 * sieve.SMALL_PRIME_BOUND)
                if trial_division(n) == ((n, 1),)][:2]


def assert_csr_invariants(fw: FactoredWindow) -> None:
    """Offsets delimit every integer's pairs, primes ascend within each
    integer, exponents are positive, and prod p**e gives back n."""
    off, ps, es = fw.factors.offsets, fw.factors.primes, fw.factors.exponents
    assert off[0] == 0 and np.all(np.diff(off) >= 0) and off[-1] == ps.size == es.size
    owner = np.repeat(np.arange(off.size - 1), np.diff(off))
    same = owner[1:] == owner[:-1]
    assert np.all(ps[1:][same] > ps[:-1][same]) and np.all(es >= 1)
    prod = np.ones(off.size - 1, dtype=np.int64)
    np.multiply.at(prod, owner, ps ** es.astype(np.int64))
    assert np.array_equal(prod, np.arange(fw.x + 1, fw.x + off.size))


def assert_engine_matches_oracle(x: int, y: int, chunk: int) -> None:
    want = [trial_division(n) for n in range(x + 1, x + y + 1)]
    with mock.patch.object(sieve, "CHUNK", chunk):
        fw = factor_window(Window(x, y))
        assert list(fw.factors) == want
        assert_csr_invariants(fw)
        for fam in ORACLE_FAMILIES:
            # integer-valued families: every partial sum is exact in any order
            total = sum((f_value(fam, fs) for fs in want), 0j)
            assert {exact_sum(fam, Window(x, y), workers=w) for w in (1, 2, 4)} == {total}


class TestEngineOracle:
    """Factorizations and sums against trial division, with chunks small
    enough that windows straddle chunk edges."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        x=st.integers(1, 3 * 10**7),
        y=st.integers(1, 400),
        chunk=st.sampled_from([1, 7, 64, 251, 1 << 20]),
    )
    def test_random_windows(self, x, y, chunk):
        assert_engine_matches_oracle(max(x, y), y, chunk)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(x=st.integers(10**12, 10**12 + 10**9), chunk=st.sampled_from([5, 16, 1 << 20]))
    def test_windows_near_1e12(self, x, chunk):
        assert_engine_matches_oracle(x, 24, chunk)

    @pytest.mark.parametrize("chunk", [3, 1 << 20])
    def test_squares_around_the_split(self, chunk):
        below = int(primes_up_to(sieve.SMALL_PRIME_BOUND)[-1])
        for p in [below] + SPLIT_PRIMES:
            for n in (p * p, 2 * p * p, p**3):
                assert_engine_matches_oracle(n - 5, 10, chunk)

    @pytest.mark.parametrize("bucket_slice", [3, 40])
    def test_several_bucket_slices(self, bucket_slice):
        # the bucketed primes go BUCKET_SLICE at a time: many slices in every
        # chunk, and squares and cubes of primes from late slices
        with mock.patch.object(sieve, "BUCKET_SLICE", bucket_slice):
            for x, y, chunk in [(10**7, 400, 64), (10007**2 - 150, 300, 251), (1009**3 - 100, 200, 1 << 20)]:
                bucketed = np.count_nonzero(primes_up_to(math.isqrt(x + y)) >= min(chunk, sieve.SMALL_PRIME_BOUND))
                assert bucketed > 10 * bucket_slice
                assert_engine_matches_oracle(x, y, chunk)

    def test_product_of_two_bucketed_primes(self, fam_div2):
        p, q = SPLIT_PRIMES
        # one window from just below p*q to past q^2, so q is struck, not a cofactor
        win = Window(p * q - 10, q * q - p * q + 20)
        fw = factor_window(win)
        assert fw.factorization(p * q) == ((p, 1), (q, 1))
        assert fw.factorization(q * q) == ((q, 2),)
        for n in range(win.x + 1, win.x + win.y + 1):
            assert math.prod(pp**e for pp, e in fw.factorization(n)) == n
        want = divisor_partial_sum(win.x + win.y) - divisor_partial_sum(win.x)
        assert {exact_sum(fam_div2, win, workers=w) for w in (1, 2, 4)} == {complex(want)}
        # p^2 q and p q^2 at higher heights: both primes bucketed, one squared
        for n in (p * p * q, p * q * q):
            assert factor_window(Window(n - 3, 6)).factorization(n) == trial_division(n)

    def test_non_integer_family_against_trial_division(self):
        fam = family_from_spec("divisor:1.5")
        x, y = 10**9, 2000
        want = sum(complex(f_value(fam, trial_division(n))) for n in range(x + 1, x + y + 1))
        with mock.patch.object(sieve, "CHUNK", 300):
            got = {exact_sum(fam, Window(x, y), workers=w) for w in (1, 2, 4)}
        assert len(got) == 1
        assert got.pop() == pytest.approx(want, rel=1e-13)


# exact_sum and factor_window over four seeded windows, as computed by the
# engine that divided a residual (before the smooth part was multiplied up):
# real-valued sums kept bit for bit, as float.hex, and the SHA-256 of the
# three CSR columns.  The second window spans four chunks on two workers and
# the last lies near 1e12.
PINNED_WINDOWS = [(1190069, 40125, 1), (288775705, 1631692, 2), (3359230745, 153923, 1), (1002121862795, 135002, 1)]
PINNED_SPECS = ("divisor:2", "divisor:1.5", "omega:2", "sqfree")
PINNED_SUMS = {
    (1190069, 40125, 1, "divisor:2"): "0x1.290a600000000p+19",
    (1190069, 40125, 1, "divisor:1.5"): "0x1.551407ba28cc0p+17",
    (1190069, 40125, 1, "omega:2"): "0x1.8452000000000p+18",
    (1190069, 40125, 1, "sqfree"): "0x1.7d20000000000p+14",
    (288775705, 1631692, 2, "divisor:2"): "0x1.00ecfc0000000p+25",
    (288775705, 1631692, 2, "divisor:1.5"): "0x1.fafb1f700a754p+22",
    (288775705, 1631692, 2, "omega:2"): "0x1.49a3160000000p+24",
    (288775705, 1631692, 2, "sqfree"): "0x1.e459c00000000p+19",
    (3359230745, 153923, 1, "divisor:2"): "0x1.b1e1100000000p+21",
    (3359230745, 153923, 1, "divisor:1.5"): "0x1.94fe665dc5a86p+19",
    (3359230745, 153923, 1, "omega:2"): "0x1.14c9900000000p+21",
    (3359230745, 153923, 1, "sqfree"): "0x1.6d76000000000p+16",
    (1002121862795, 135002, 1, "divisor:2"): "0x1.da47600000000p+21",
    (1002121862795, 135002, 1, "divisor:1.5"): "0x1.8cf9d1497c4f2p+19",
    (1002121862795, 135002, 1, "omega:2"): "0x1.2bde300000000p+21",
    (1002121862795, 135002, 1, "sqfree"): "0x1.409a000000000p+16",
}
PINNED_COLUMNS = {
    (1190069, 40125): "d1942b48acb35c4d64afa389851f500a0178977bb94368073a7bb1721494c6fc",
    (288775705, 1631692): "168024e1b6ae2e0fb31e764264cd3e7bee965c00437eeda549c42eea0702ae3e",
    (3359230745, 153923): "80d433912884f4582f9706c52a7ba99e5cfaa0cb87a226d10389f465c798173d",
    (1002121862795, 135002): "4206682f59b3f616070b1fb8c69c33179ebbd2a800da3191c18558b8ba333241",
}


def columns_digest(fw: FactoredWindow) -> str:
    h = hashlib.sha256()
    for col in (fw.factors.offsets, fw.factors.primes, fw.factors.exponents):
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


class TestPinnedResults:
    @pytest.mark.parametrize("x, y, workers", PINNED_WINDOWS)
    def test_real_sums_are_bit_identical(self, x, y, workers):
        for spec in PINNED_SPECS:
            got = exact_sum(family_from_spec(spec), Window(x, y), workers=workers)
            assert got == complex(float.fromhex(PINNED_SUMS[x, y, workers, spec])), spec

    def test_multi_chunk_window_on_one_and_four_workers(self):
        x, y, _ = PINNED_WINDOWS[1]
        assert y > 3 * sieve.CHUNK
        for spec in PINNED_SPECS:
            want = complex(float.fromhex(PINNED_SUMS[x, y, 2, spec]))
            assert {exact_sum(family_from_spec(spec), Window(x, y), workers=w) for w in (1, 4)} == {want}

    @pytest.mark.parametrize("x, y, workers", PINNED_WINDOWS)
    def test_factor_window_columns_are_unchanged(self, x, y, workers):
        fw = factor_window(Window(x, y))
        assert columns_digest(fw) == PINNED_COLUMNS[x, y]


class TestPowerBookkeeping:
    """Prime powers against trial division with chunks of 1, 7 and 64
    integers, so that the multiples of each p^k fall on chunk edges, and at
    the full chunk length.  A chunk of c integers strikes the primes below
    min(c, SMALL_PRIME_BOUND) in strides and buckets the rest, so the short
    chunks send even p = 2 through the bucketed quotient test."""

    CHUNKS = [1, 7, 64, sieve.CHUNK]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_top_powers_of_small_primes(self, chunk):
        # p^k with k = log_p(x + y): the last entry of each value table
        for n in (2**33, 3**20, 5**14, 2**20 * 3**5):
            assert_engine_matches_oracle(n - 9, 12, chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_squares_and_cubes_of_bucketed_primes(self, chunk):
        p, q = SPLIT_PRIMES
        for n in (p * p, 3 * p * p, p**3, 2 * p**3, p * p * q, 10007**3):
            assert_engine_matches_oracle(n - 9, 12, chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_square_of_the_largest_base_prime(self, chunk):
        # x + y = p^2, so p = isqrt(x + y) is the last base prime
        for p in (4093, SPLIT_PRIMES[0], 1000003):
            assert_engine_matches_oracle(p * p - 1, 1, chunk)
            assert_engine_matches_oracle(p * p - 11, 11, chunk)


class TestNonRealValues:
    """The sieve sums real-valued families only: an f(p) or a local value
    f(p^e) with a nonzero imaginary part is refused, not summed."""

    @pytest.mark.parametrize("family", [
        synthetic_family(lambda p, e: 1.0, 1j),  # f(p)
        synthetic_family(lambda p, e: complex(1, e == 3), 1.0),  # f(p^3) of the small primes
    ], ids=["prime_value", "small_prime_power"])
    def test_refused_before_any_chunk(self, family):
        with mock.patch.object(sieve, "_chunk_sum", side_effect=AssertionError("summed")):
            with pytest.raises(ParameterOutOfRange, match="not real"):
                exact_sum(family, Window(10**6, 1000))

    def test_bucketed_prime_power_is_refused(self):
        # f(p^2) is complex only for the bucketed primes; 521^2 lies in the window
        family = synthetic_family(lambda p, e: complex(1, e > 1 and p > sieve.SMALL_PRIME_BOUND), 1.0)
        assert exact_sum(family, Window(10**6, 1000)) == 1000
        with pytest.raises(ParameterOutOfRange, match="not real"):
            exact_sum(family, Window(521**2 - 10, 20))


class TestInputChecks:
    @pytest.mark.parametrize(
        "x, y", [(math.nan, 3), (math.inf, 3), (10, math.nan), (10, -math.inf), (-math.inf, 3)]
    )
    def test_non_finite_window_is_typed(self, x, y):
        with pytest.raises(InvalidWindow, match="finite") as exc:
            Window(x, y)
        assert isinstance(exc.value, DelangeError) and isinstance(exc.value, ValueError)

    def test_height_past_the_sieve_reach(self, fam_one):
        # first height whose base primes pass the bound; nothing is allocated
        x = (sieve.MAX_BASE_PRIME + 1) ** 2 - 1
        with mock.patch.object(sieve, "primes_up_to", side_effect=AssertionError("allocated")):
            with pytest.raises(WindowTooLarge):
                exact_sum(fam_one, Window(x, 1))
            with pytest.raises(WindowTooLarge):
                factor_window(Window(x, 1))

    @pytest.mark.parametrize("spec", ["omega:1e300", "divisor:1e200"])
    def test_values_past_the_double_range_are_typed(self, spec):
        # omega:1e300 overflows in the products, divisor:1e200 in f(p^2) itself
        with pytest.raises(ParameterOutOfRange):
            exact_sum(family_from_spec(spec), Window(10**6, 1000))


class TestExactAccumulation:
    """Doubles add integers exactly only below 2^53: an integer-valued f
    whose sum of |f(n)| reaches it is refused, not rounded."""

    @staticmethod
    def family(f3: int, f4: int):
        # f(3) = f(p) = f3 and f(4) = f(2^2) = f4; the window (2, 4] holds just 3 and 4
        return synthetic_family(lambda p, a: complex(f3 if a == 1 else f4), f3)

    @pytest.mark.parametrize("chunk", [1, sieve.CHUNK])
    @pytest.mark.parametrize("f3, f4", [(2**52, 2**52 - 1), (-(2**52), 2**52 - 1)])
    def test_just_below_two_to_the_53_is_exact(self, chunk, f3, f4):
        with mock.patch.object(sieve, "CHUNK", chunk):  # one chunk per integer, or one for both
            assert exact_sum(self.family(f3, f4), Window(2, 2)) == complex(f3 + f4)

    @pytest.mark.parametrize("chunk", [1, sieve.CHUNK])
    @pytest.mark.parametrize("f3, f4", [(2**52, 2**52), (-(2**52), 2**52), (1, 2**53)])
    def test_two_to_the_53_is_refused(self, chunk, f3, f4):
        with mock.patch.object(sieve, "CHUNK", chunk):
            with pytest.raises(WindowTooLarge, match="2\\^53"):
                exact_sum(self.family(f3, f4), Window(2, 2))

    def test_non_integer_values_are_not_bounded(self):
        # f(3) = 0.5 is no integer, so the sum is a rounded one anyway
        assert exact_sum(self.family(0.5, 2**53), Window(2, 2)) == 2.0**53


def reference_strike(a: int, b: int, primes: np.ndarray):
    """The strike of [a, b) one prime at a time and without the wheel: every
    p^k of a strided prime struck on its multiples, and every multiple of a
    bucketed prime divided by it until it no longer divides."""
    n = b - a
    smooth = np.ones(n, dtype=np.int64)
    small, hits = [], []
    for p in primes.tolist():
        if p * p >= b:
            break
        if p < min(sieve.SMALL_PRIME_BOUND, n):
            offs, q = [], p
            while (off := -a % q) < n:
                smooth[off::q] *= p
                offs.append(off)
                q *= p
            small.append((p, offs))
            continue
        for off in range(-a % p, n, p):
            e, m = 0, a + off
            while m % p == 0:
                e, m = e + 1, m // p
            smooth[off] *= p**e
            hits.append((p, off, e))
    return smooth, small, hits


def trial_smooth_part(a: int, b: int) -> list[int]:
    """prod p^e over the primes p with p*p < b that divide a + i, by trial division."""
    return [math.prod(p**e for p, e in trial_division(m) if p * p < b) for m in range(a, b)]


W = sieve.WHEEL
STRIKE_CHUNKS = (
    [(1000 * W, 64), (1000 * W + 1, 64), (1000 * W - 1, 64), (2777 * W - 17, 64)]  # ≡ 0, 1, -1; a wrap
    + [(10**9 + 7, n) for n in range(1, 21)]  # 13 is struck in strides from 14 integers on
    + [(2, 60), (50, 100), (100, 68)]  # sqrt(x + y) < 13: no wheel
    + [(509**2 - 300, 1024), (521**2 - 300, 1024), (509 * 521 - 500, 1024), (509**3 - 500, 1024)]
    + [(2**40 - 30, 64), (3**25 - 30, 64), (2**40 - 30, 8)]  # powers past the pattern's 2^3 and 3^2
)


class TestSmallPrimeStage:
    """The wheel, the strided primes below SMALL_PRIME_BOUND and the hit
    buffers against the strike one prime at a time and trial division."""

    def test_wheel_is_the_gcd_with_its_period(self):
        pattern = sieve._wheel()
        assert pattern.size == W == 2**3 * 3**2 * 5 * 7 * 11 * 13
        assert np.array_equal(pattern, np.gcd(np.arange(W), W))
        with pytest.raises(ValueError):
            pattern[0] = 1

    def test_split_primes_are_either_side_of_the_bound(self):
        assert sieve.SMALL_PRIME_BOUND == 512
        below = int(primes_up_to(sieve.SMALL_PRIME_BOUND)[-1])
        assert (below, SPLIT_PRIMES[0]) == (509, 521)

    @pytest.mark.parametrize("a, n", STRIKE_CHUNKS)
    def test_strike_against_one_prime_at_a_time(self, a, n):
        b = a + n
        primes = primes_up_to(math.isqrt(b - 1))
        smooth, small, (hp, idx, he) = sieve._strike(a, b, primes, sieve._scratch(a, b, primes))
        want_smooth, want_small, want_hits = reference_strike(a, b, primes)
        assert np.array_equal(smooth, want_smooth)
        assert smooth.tolist() == trial_smooth_part(a, b)
        assert small == want_small
        assert list(zip(hp.tolist(), idx.tolist(), he.tolist())) == want_hits

    def test_reused_hit_buffers_hold_no_stale_hits(self):
        # the chunks of one call share a scratch sized for the longest chunk;
        # a later chunk with fewer hits must not see the earlier chunk's
        a, n = 10**9 + 7, 4096
        primes = primes_up_to(math.isqrt(a + n + 99))
        scratch = sieve._scratch(a, a + n + 100, primes)
        for lo, hi in ((a, a + n), (a + n, a + n + 100)):
            smooth, small, (hp, idx, he) = sieve._strike(lo, hi, primes, scratch)
            want_smooth, want_small, want_hits = reference_strike(lo, hi, primes)
            assert np.array_equal(smooth, want_smooth) and small == want_small
            assert list(zip(hp.tolist(), idx.tolist(), he.tolist())) == want_hits

    @pytest.mark.parametrize("spec", ["divisor:1.5", "omega:2"])
    def test_five_and_a_half_chunks_on_one_two_and_three_workers(self, spec):
        # the short last chunk reuses hit buffers filled by longer chunks
        fam = family_from_spec(spec)
        x, y = 10**9, 11 * sieve.CHUNK // 2
        per_chunk = 0j
        for a in range(x + 1, x + y + 1, sieve.CHUNK):
            per_chunk += exact_sum(fam, Window(a - 1, min(sieve.CHUNK, x + y + 1 - a)))
        assert {exact_sum(fam, Window(x, y), workers=w) for w in (1, 2, 3)} == {per_chunk}

    def test_diagnostics_count_the_call(self, fam_div2):
        x, y = 10**9, 3 * sieve.CHUNK // 2
        diagnostics = {}
        total = exact_sum(fam_div2, Window(x, y), diagnostics=diagnostics)
        assert total == exact_sum(fam_div2, Window(x, y))
        primes = primes_up_to(math.isqrt(x + y)).tolist()
        hits = 0  # multiples of each bucketed prime p <= sqrt(b - 1) in each chunk [a, b)
        for a in range(x + 1, x + y + 1, sieve.CHUNK):
            b = min(a + sieve.CHUNK, x + y + 1)
            hits += sum((b - 1) // p - (a - 1) // p for p in primes if 512 <= p and p * p < b)
        assert diagnostics == {"chunks": 2, "base_primes": len(primes),
                               "strided_primes": sum(p < 512 for p in primes), "bucket_hits": hits}


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -5])
    def test_fewer_than_one_worker_is_refused_before_sieving(self, fam_div2, workers):
        # once ran serially and returned the sum
        with mock.patch.object(sieve, "primes_up_to", side_effect=AssertionError("sieved")):
            with pytest.raises(ParameterOutOfRange, match="workers"):
                exact_sum(fam_div2, Window(1000, 100), workers=workers)
            with pytest.raises(ParameterOutOfRange, match="workers"):
                sieve._window_sums(fam_div2, [Window(1000, 100)], workers)


class TestWindowSums:
    """run_experiment's grid: every budget checked, then one base-prime
    sieve for the largest x + y, and each window summed over its prefix."""

    def test_bit_identical_to_one_call_per_window(self):
        fam = family_from_spec("divisor:1.5")
        wins = [Window(10**7, 5000), Window(4 * 10**6, 2 * 10**6), Window(9 * 10**8, 70000), Window(10, 4)]
        with mock.patch.object(sieve, "primes_up_to", wraps=sieve.primes_up_to) as spy:
            got = sieve._window_sums(fam, wins, 2)
        assert [c.args for c in spy.call_args_list] == [(math.isqrt(9 * 10**8 + 70000),)]
        assert got == [exact_sum(fam, win, workers=2) for win in wins]

    def test_every_budget_is_checked_first(self, fam_one):
        wins = [Window(10**6, 100), Window(3 * 10**8, sieve.MAX_WINDOW + 1)]
        with mock.patch.object(sieve, "primes_up_to", side_effect=AssertionError("sieved")):
            with pytest.raises(WindowTooLarge):
                sieve._window_sums(fam_one, wins, 1)
