"""Independent oracles for the benchmark's correctness checks.

Each check returns ``None`` when the result is accepted and a one-line
reason when it is not.  None of them calls the delange code path it checks:
factorizations come from trial division by a separately sieved prime list,
window sums of d(n) and mu^2(n) from the Dirichlet hyperbola and Moebius
counting formulas, and contour clearance from the path's own vertices.
"""

from __future__ import annotations

import math

import numpy as np

PERRON_ENVELOPE = 20.0  # |perron - exact| * T / x^1.01, acceptance criterion 6
HANKEL_REL_TOL = 1e-3  # closed form of the Hankel loop at u >= 1e6, criterion 5
RESIDUE_REL_TOL = 1e-9  # integer kappa: the loop is the residue at s = 1
SUM_REL_TOL = 1e-9  # float-valued families summed in another order


def primes_to(n: int) -> np.ndarray:
    """Primes <= n by a plain sieve of Eratosthenes (int64)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    comp = np.zeros(n + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    return np.flatnonzero(~comp).astype(np.int64)


class PrimeTable:
    """Primes and Moebius values up to a bound, grown on demand."""

    def __init__(self, bound: int = 1000):
        self._build(bound)

    def _build(self, bound: int) -> None:
        self.bound = bound
        self.primes = primes_to(bound)
        mu = np.ones(bound + 1, dtype=np.int64)
        for p in self.primes.tolist():
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
        mu[0] = 0
        self.mu = mu

    def ensure(self, bound: int) -> None:
        if bound > self.bound:
            self._build(max(bound, 2 * self.bound))

    def pi(self, n: int) -> int:
        self.ensure(n)
        return int(np.searchsorted(self.primes, n, side="right"))

    def factor(self, n: int) -> tuple[tuple[int, int], ...]:
        """Factorization of n by trial division; the cofactor left after all
        primes up to sqrt(n) is prime."""
        r = math.isqrt(n)
        self.ensure(r)
        ps = self.primes[: np.searchsorted(self.primes, r, side="right")]
        out = []
        m = n
        for p in ps[(n % ps) == 0].tolist():
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        if m > 1:
            out.append((m, 1))
        return tuple(out)


def divisor_summatory(n: int) -> int:
    """sum_{k <= n} d(k) by the Dirichlet hyperbola method."""
    r = math.isqrt(n)
    k = np.arange(1, r + 1, dtype=np.int64)
    return 2 * int((n // k).sum()) - r * r


def squarefree_count(n: int, table: PrimeTable) -> int:
    """Number of squarefree k <= n: sum_{d <= sqrt n} mu(d) floor(n / d^2)."""
    r = math.isqrt(n)
    table.ensure(r)
    d = np.arange(1, r + 1, dtype=np.int64)
    return int((table.mu[1 : r + 1] * (n // (d * d))).sum())


def closed_form_window_sum(spec: str, x: int, y: int, table: PrimeTable):
    """Exact sum over (x, x+y] for the families with a counting formula, else None."""
    if spec == "one":
        return y
    if spec == "divisor:2":
        return divisor_summatory(x + y) - divisor_summatory(x)
    if spec == "sqfree":
        return squarefree_count(x + y, table) - squarefree_count(x, table)
    return None


def check_exact(value: complex, want: int) -> str | None:
    if complex(value) != complex(want):
        return f"sum {value} != counting-formula value {want}"
    return None


def check_window_sum(family, x: int, y: int, value: complex, table: PrimeTable, f_value) -> str | None:
    """value must equal sum_{x < n <= x+y} f(n) with f from trial division."""
    want = 0j
    scale = 0.0
    for n in range(x + 1, x + y + 1):
        fn = complex(f_value(family, table.factor(n)))
        want += fn
        scale += abs(fn)
    if abs(complex(value) - want) > SUM_REL_TOL * max(1.0, scale):
        return f"window ({x}, {x + y}] sums to {value}, trial division gives {want}"
    return None


def check_factorizations(factors, x: int, sample, table: PrimeTable) -> str | None:
    """Sampled factorizations must match trial division exactly; every entry
    must multiply back to its integer."""
    for i, fs in enumerate(factors):
        prod = 1
        for p, e in fs:
            prod *= p**e
        if prod != x + 1 + i:
            return f"factorization of {x + 1 + i} multiplies to {prod}"
    for n in sample:
        got = tuple(sorted(factors[n - x - 1]))
        want = table.factor(n)
        if got != want:
            return f"factorization of {n}: {got} != trial division {want}"
    return None


def check_prediction(pred: complex, kappa: float, lambdas, x: int, y: int, N: int) -> str | None:
    """y (log x)^(kappa-1) sum_{l<=N} lambda_l (log x)^-l, summed directly."""
    lx = math.log(x)
    want = y * lx ** (kappa - 1.0) * sum(lambdas[l] / lx**l for l in range(N + 1))
    if not abs(complex(pred) - want) <= 1e-12 * abs(want):
        return f"prediction {pred} != directly summed main term {want}"
    return None


def check_perron(value: complex, exact: complex, x: int, T: float) -> str | None:
    c = abs(complex(value) - complex(exact)) * T / x**1.01
    if not c <= PERRON_ENVELOPE:
        return f"Perron truncation constant {c:.3g} exceeds {PERRON_ENVELOPE}"
    return None


def check_hankel(value: complex, closed: complex) -> str | None:
    rel = abs(complex(value) - complex(closed)) / abs(complex(closed))
    if not rel <= HANKEL_REL_TOL:
        return f"Hankel loop deviates from the closed form by {rel:.3g}"
    return None


def loop_residue(kappa: int, x: int, y: int) -> float:
    """Residue at s = 1 of (s-1)^(-kappa) ((x+y)^s - x^s)/s for kappa in {1, 2}."""
    if kappa == 1:
        return float(y)
    if kappa == 2:
        return (x + y) * math.log(x + y) - x * math.log(x) - y
    raise ValueError("residue known in closed form for kappa 1 and 2 only")


def check_residue(value: complex, kappa: int, x: int, y: int) -> str | None:
    want = loop_residue(kappa, x, y)
    rel = abs(complex(value) - want) / abs(want)
    if not rel <= RESIDUE_REL_TOL:
        return f"loop integral {value} != residue {want} (rel {rel:.3g})"
    return None


def check_contour_clearance(vertices, betas, gammas, alpha: float, covered_top: float) -> str | None:
    """Every zero with beta >= alpha below the covered top lies strictly left
    of the path at its height; the path is closed under conjugation."""
    vs = [complex(v) for v in vertices]
    n = len(vs)
    for i in range(n):
        if vs[i] != vs[n - 1 - i].conjugate():
            return f"vertex {i} has no mirror image"
    segs = [
        (a.real, min(a.imag, b.imag), max(a.imag, b.imag))
        for a, b in zip(vs[:-1], vs[1:])
        if a.real == b.real and max(a.imag, b.imag) > 0
    ]
    for beta, gamma in zip(betas, gammas):
        if beta < alpha or gamma > covered_top:
            continue
        right = max((s for s, lo, hi in segs if lo <= gamma <= hi), default=-math.inf)
        if not right > beta:
            return f"zero {beta} + {gamma}i is not left of the path (abscissa {right})"
    return None


def check_density(count: int, betas, gammas, sigma: float, T: float) -> str | None:
    b, g = np.asarray(betas), np.asarray(gammas)
    want = int(np.count_nonzero((b >= sigma) & (g > 0) & (g <= T)))
    if count != want:
        return f"N({sigma}, {T}) = {count}, direct count {want}"
    return None


def parse_value(text: str) -> complex:
    """Inverse of the CLI's value format: '14', '0.5', or 'a + bi'."""
    text = text.strip()
    if text.endswith("i") and " + " in text:
        re_part, im_part = text[:-1].split(" + ")
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def parse_fields(stdout: str) -> dict:
    """'name = value' pairs from CLI output lines (several per line allowed)."""
    out = {}
    for line in stdout.splitlines():
        for part in line.split("  "):
            if " = " in part:
                key, _, val = part.partition(" = ")
                out[key.strip()] = val.strip()
    return out
