"""Built-in arithmetic-function families and their analytic background data.

Each family is a multiplicative f given by local factors f(p^a) together
with the parameter bundle (kappa, w, alpha, delta, A, B, M) and the Taylor
data at s = 1 of the holomorphic background G(s) zeta(2s)^(-w).  For all
built-ins that background is an Euler product whose local factor fits one
parametric shape,

    (1 + a u) (1 - u)^c (1 - u^2)^w2,   u = p^(-s),

with log = O(u^2), so the product converges on Re(s) > 1/2.  Its Taylor
coefficients at s = 1 are assembled from exact per-prime series for small
primes plus vectorized prime moment sums for the rest, with a
prime-counting tail correction past the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DuplicatePrime, NonconvergentProduct, ParameterOutOfRange, UnknownFamily
from .series import PowerSeries, ps_add, ps_exp, ps_log, ps_mul, ps_scale
from .sieve import primes_up_to

DEFAULT_PRIME_CUTOFF = 100_000


@dataclass(frozen=True)
class TypePParams:
    """Declared analytic constants of a family."""

    kappa: float
    w: complex
    alpha_growth: float
    delta: float = 0.0
    A: float = 1.0
    B: float = 2.0
    M: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.kappa <= self.B):
            raise ParameterOutOfRange(f"need 0 < kappa <= B, got kappa={self.kappa}, B={self.B}")
        if abs(complex(self.w)) > self.B:
            raise ParameterOutOfRange(f"need |w| <= B, got |w|={abs(complex(self.w)):.3g}")
        if self.alpha_growth <= 0 or self.delta < 0 or self.A < 0 or self.M <= 0:
            raise ParameterOutOfRange("alpha > 0, delta >= 0, A >= 0, M > 0 required")


@dataclass(frozen=True)
class LocalModel:
    """Local factor (1 + a u)(1 - u)^c (1 - u^2)^w2 of the background product."""

    a: complex = 0j
    c: complex = 0j
    w2: complex = 0j

    @property
    def trivial(self) -> bool:
        return self.a == 0 and self.c == 0 and self.w2 == 0

    def log_u_coeffs(self, m_max: int) -> np.ndarray:
        """d_m with log(local factor) = sum_m d_m u^m; d_0 = d_1 = 0 required."""
        d = np.zeros(m_max + 1, dtype=np.complex128)
        for m in range(1, m_max + 1):
            val = -(((-self.a) ** m) + self.c) / m
            if m % 2 == 0:
                val -= 2.0 * self.w2 / m
            d[m] = val
        if abs(d[1]) > 1e-12:
            raise NonconvergentProduct(
                "local log has a u^1 term; the product would diverge like sum 1/p"
            )
        d[1] = 0j
        return d

    def log_series_at_prime(self, p: int, order: int) -> PowerSeries:
        """Exact (s-1)-series of log(local factor) at one prime."""
        lp = math.log(p)
        u = PowerSeries(tuple((1.0 / p) * (-lp) ** j / math.factorial(j) for j in range(order + 1)))
        u2 = PowerSeries(tuple((1.0 / p**2) * (-2.0 * lp) ** j / math.factorial(j) for j in range(order + 1)))
        one = PowerSeries.constant(1.0, order)
        total = PowerSeries.constant(0.0, order)
        if self.a != 0:
            total = ps_add(total, ps_log(ps_add(one, ps_scale(u, self.a))))
        if self.c != 0:
            total = ps_add(total, ps_scale(ps_log(ps_add(one, ps_scale(u, -1.0))), self.c))
        if self.w2 != 0:
            total = ps_add(total, ps_scale(ps_log(ps_add(one, ps_scale(u2, -1.0))), self.w2))
        return total

    def value_at(self, p: int | np.ndarray, s: complex) -> complex | np.ndarray:
        u = np.asarray(p, dtype=np.float64) ** (-s)
        val = (1.0 + self.a * u) * (1.0 - u) ** self.c * (1.0 - u * u) ** self.w2
        return val


@dataclass(frozen=True, eq=False)
class ArithmeticFamily:
    """A multiplicative function with its type parameters and background data."""

    name: str
    local_factor: Callable[[int, int], complex]
    params: TypePParams
    local_model: Optional[LocalModel] = None
    closed_form_F: Optional[Callable[[np.ndarray], np.ndarray]] = None
    prime_local_value: Optional[complex] = None
    parameter: Optional[complex] = None
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF

    def g_times_zeta2s_series(self, order: int) -> PowerSeries:
        """Taylor data of G(s) zeta(2s)^(-w) at s = 1 (tail bound dropped)."""
        series, _ = g_series_by_euler_product(self, order, self.prime_cutoff)
        return series


# --- background series engine ---------------------------------------------------

def _tail_integrals(m: int, order: int, cutoff: int) -> np.ndarray:
    """[Gamma(k, x0) / (m-1)^k for k = 0..order], x0 = (m-1) ln cutoff.

    Entry k is integral_P^inf t^-m (ln t)^(k-1) dt, the li-density (1/ln t)
    estimate of Sum_{p > P} p^-m (ln p)^k; the pi-vs-li residual is a
    fraction of a percent at desk-scale cutoffs.  Entry 0 is E1(x0) from the
    even part of its continued fraction (A&S 5.1.22),
    e^-x0 / (x0 + 1 - 1/(x0 + 3 - 4/(x0 + 5 - ...))), evaluated bottom up: 24
    levels reach full double precision once x0 >= ln 1000 (m >= 2 and
    cutoff >= 1000).  The rest follow from Gamma(k+1, x) = k Gamma(k, x) +
    x^k e^-x (A&S 6.5.22), whose terms are all positive, so the forward
    recurrence is stable.
    """
    x0 = (m - 1) * math.log(cutoff)
    f = x0 + 49.0  # the 25th denominator, x0 + 2*24 + 1
    for i in range(24, 0, -1):
        f = x0 + (2 * i - 1) - i * i / f
    term = math.exp(-x0)  # x0^k e^-x0, from k = 0
    gamma_k = term / f  # Gamma(0, x0) = E1(x0)
    out = np.empty(order + 1)
    out[0] = gamma_k
    for k in range(order):
        gamma_k = k * gamma_k + term
        term *= x0
        out[k + 1] = gamma_k / (m - 1) ** (k + 1)
    return out


def g_series_by_euler_product(
    family: ArithmeticFamily, order: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> tuple[PowerSeries, float]:
    """Taylor series of G(s) zeta(2s)^(-w) at s = 1 plus a reported tail bound.

    The bound is an estimate of the coefficientwise error left after the
    prime-counting correction (crude Sum_{p>cutoff} |d_2| p^-2 scale at the
    constant term).
    """
    if prime_cutoff < 1_000:
        raise ParameterOutOfRange("prime_cutoff must be at least 1000")
    model = family.local_model
    if model is None or model.trivial:
        return PowerSeries.constant(1.0, order), 0.0

    # the series depends on the family only through its (frozen) local model
    key = (model, order, prime_cutoff)
    if key in _SERIES_CACHE:
        return _SERIES_CACHE[key]

    amax = max(abs(model.a), abs(model.c), 1.0)
    switch = max(16, math.ceil(4.0 * amax))
    m_max = 30
    d = model.log_u_coeffs(m_max)

    log_total = PowerSeries.constant(0.0, order)
    primes = primes_up_to(prime_cutoff)
    small = primes[primes < switch]
    for p in small.tolist():
        log_total = ps_add(log_total, model.log_series_at_prime(int(p), order))

    big = primes[primes >= switch].astype(np.float64)
    coeffs = np.array(log_total.coeffs, dtype=np.complex128)
    if big.size:
        logs = np.log(big)
        # L[k, i] = (ln p_i)^k
        L = np.ones((order + 1, big.size))
        for k in range(1, order + 1):
            L[k] = L[k - 1] * logs
        inv_fact = np.array([1.0 / math.factorial(k) for k in range(order + 1)])
        for m in range(2, m_max + 1):
            if d[m] == 0:
                continue
            pm = big ** (-float(m))
            moments = L @ pm  # Sum_p p^-m (ln p)^k for each k
            ks = np.arange(order + 1, dtype=np.float64)
            coeffs += d[m] * ((-float(m)) ** ks) * inv_fact * moments
        # prime-counting tail correction for the two leading powers
        for m in (2, 3):
            if d[m] == 0:
                continue
            ks = np.arange(order + 1, dtype=np.float64)
            coeffs += d[m] * ((-float(m)) ** ks) * inv_fact * _tail_integrals(m, order, prime_cutoff)

    series = ps_exp(PowerSeries(tuple(coeffs)))
    # residual: pi-vs-li fluctuation on the corrected m=2,3 tails (observed a
    # few tenths of a percent at desk cutoffs; 5% is a wide margin) plus the
    # whole uncorrected m>=4 tail
    ln_p = math.log(prime_cutoff)
    t23 = sum(abs(d[m]) * _tail_integrals(m, 0, prime_cutoff)[0] for m in (2, 3))
    t4 = sum(abs(d[m]) * prime_cutoff ** (1 - m) / ((m - 1) * ln_p) for m in range(4, m_max + 1))
    tail_bound = 0.05 * t23 + t4 + 1e-15
    out = (series, float(tail_bound))
    _SERIES_CACHE[key] = out
    return out


_SERIES_CACHE: dict = {}


def euler_product_value(
    family: ArithmeticFamily, s: complex, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> complex:
    """Pointwise value of G(s) zeta(2s)^(-w) by truncated Euler product."""
    model = family.local_model
    if model is None or model.trivial:
        return 1.0 + 0j
    primes = primes_up_to(prime_cutoff)
    vals = model.value_at(primes, complex(s))
    return complex(np.exp(np.sum(np.log(vals))))


# --- family constructors ---------------------------------------------------------

def f_value(family: ArithmeticFamily, factorization) -> complex:
    """f(n) from a factorization [(p, a), ...]; empty product is f(1) = 1."""
    seen = set()
    out = 1.0 + 0j
    for p, a in factorization:
        if p in seen:
            raise DuplicatePrime(f"prime {p} repeated in factorization")
        if a < 1:
            raise ValueError("exponents must be >= 1")
        seen.add(p)
        out *= complex(family.local_factor(int(p), int(a)))
    return out


def _divisor_local(kappa: float) -> Callable[[int, int], complex]:
    if float(kappa).is_integer():
        k = int(kappa)

        def lf(p: int, a: int) -> complex:
            return complex(math.comb(k + a - 1, a))

    else:

        def lf(p: int, a: int) -> complex:
            # C(kappa+a-1, a) = prod_{i<a} (kappa+i)/(i+1): exactly kappa at
            # a = 1, so f(p) agrees with prime_local_value bit for bit
            val = 1.0
            for i in range(a):
                val *= (kappa + i) / (i + 1)
            return complex(val)

    return lf


def builtin_family(name: str, parameter: complex | None = None) -> ArithmeticFamily:
    """Construct one of the built-in families.

    constant_one             f = 1            F = zeta
    divisor_kappa(kappa)     f(p^a) = C(kappa+a-1, a),  F = zeta^kappa
    omega_power(z)           f(n) = z^omega(n), z real positive
    squarefree_omega_power   f = mu^2         F = zeta(s)/zeta(2s)
    """
    from . import special  # local import keeps module load light

    if name == "constant_one":
        return ArithmeticFamily(
            name=name,
            local_factor=lambda p, a: 1.0 + 0j,
            prime_local_value=1.0 + 0j,
            params=TypePParams(kappa=1.0, w=0j, alpha_growth=1.0),
            local_model=LocalModel(),
            closed_form_F=lambda s: special.zeta_batch(np.asarray(s, dtype=np.complex128)),
        )
    if name == "divisor_kappa":
        if parameter is None:
            raise ParameterOutOfRange("divisor_kappa needs a kappa parameter")
        kappa = complex(parameter)
        if kappa.imag != 0 or kappa.real <= 0:
            raise ParameterOutOfRange("divisor_kappa requires real kappa > 0")
        kap = kappa.real

        def closed(s):
            # pointwise principal log is the real-anchored continuation here:
            # |arg zeta| < pi on Re(s) >= 1.17, which covers every admissible
            # line abscissa 1 + 2/log x down to the x <= 1e5 budget
            s = np.asarray(s, dtype=np.complex128)
            return np.exp(kap * np.log(special.zeta_batch(s)))

        return ArithmeticFamily(
            name=name,
            parameter=kap,
            local_factor=_divisor_local(kap),
            prime_local_value=complex(kap),
            params=TypePParams(kappa=kap, w=0j, alpha_growth=kap, B=max(2.0, kap)),
            local_model=LocalModel(),
            closed_form_F=closed,
        )
    if name == "omega_power":
        if parameter is None:
            raise ParameterOutOfRange("omega_power needs a z parameter")
        z = complex(parameter)
        if z.imag != 0 or z.real <= 0:
            raise ParameterOutOfRange("omega_power requires real z > 0")
        zr = z.real
        return ArithmeticFamily(
            name=name,
            parameter=zr,
            local_factor=lambda p, a, _z=zr: complex(_z),
            prime_local_value=complex(zr),
            params=TypePParams(
                kappa=zr, w=0j, alpha_growth=zr, B=max(2.0, zr), M=10.0
            ),
            local_model=LocalModel(a=zr - 1.0, c=zr - 1.0, w2=0.0),
            closed_form_F=None,
        )
    if name == "squarefree_omega_power":

        def closed(s):
            s = np.asarray(s, dtype=np.complex128)
            return special.zeta_batch(s) / special.zeta_batch(2.0 * s)

        return ArithmeticFamily(
            name=name,
            local_factor=lambda p, a: 1.0 + 0j if a == 1 else 0j,
            prime_local_value=1.0 + 0j,
            params=TypePParams(kappa=1.0, w=1.0 + 0j, alpha_growth=1.0),
            local_model=LocalModel(w2=1.0),
            closed_form_F=closed,
        )
    raise UnknownFamily(f"no built-in family named {name!r}")


_SHORT_NAMES = {
    "one": ("constant_one", False),
    "constant_one": ("constant_one", False),
    "divisor": ("divisor_kappa", True),
    "divisor_kappa": ("divisor_kappa", True),
    "omega": ("omega_power", True),
    "omega_power": ("omega_power", True),
    "sqfree": ("squarefree_omega_power", False),
    "squarefree_omega_power": ("squarefree_omega_power", False),
}


def family_from_spec(spec: str) -> ArithmeticFamily:
    """Parse a CLI family spec like 'divisor:2', 'sqfree', 'omega:3'."""
    name, _, raw = spec.partition(":")
    name = name.strip().lower()
    if name not in _SHORT_NAMES:
        raise UnknownFamily(f"unknown family spec {spec!r}")
    canonical, takes_param = _SHORT_NAMES[name]
    param: complex | None = None
    if raw:
        if not takes_param:
            raise ParameterOutOfRange(f"family {name!r} takes no parameter")
        try:
            param = complex(float(raw))
        except ValueError as exc:
            raise ParameterOutOfRange(f"bad family parameter {raw!r}") from exc
    return builtin_family(canonical, param)
