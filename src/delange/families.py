"""Built-in arithmetic-function families and their analytic background data.

Each family is a real-valued multiplicative f whose Euler factor is the same
series in u = p^(-s) at every prime, so one function of the exponent gives it:
f(p^e) = local_value(e) at every prime p.  With it come the constants (kappa,
w) and the Taylor data at s = 1 of the holomorphic background
B(s) = G(s) zeta(2s)^(-w).  B is an Euler product whose local factor fits
one shape, with real coefficients a, c and w2,

    L_p(s) = (1 + a u) (1 - u)^c (1 - u^2)^w2 = exp(sum_m d_m u^m),   u = p^(-s),

with d_1 = 0.  Inverting log zeta(s) = sum_k P(ks)/k, P the prime zeta
function, turns the primes p >= P0 into a product of zeta values with no
cutoff (Ettahri, Ramare and Surel, Math. Comp. 2021, after Cohen 1998):

    B(s) = prod_{p < P0} L_p(s) * prod_{q >= 2} zeta_{>=P0}(qs)^e_q,
    e_q  = (1/q) sum_{m | q} m d_m mu(q/m),
    zeta_{>=P0}(w) = zeta(w) prod_{p < P0} (1 - p^-w).

For `sqfree` and `omega:2` only e_2 = -1 is nonzero, so B = 1/zeta(2s) and
no prime enters.  Otherwise e_q ~ |a|^q / q magnifies the rounding of zeta(qs),
so a q may sum log zeta_{>=P0}(qs) over the primes instead, and a large |a| is
refused (see `_background`).  Those prime sums are one Dirichlet polynomial over
prime powers on zeta's own direct-sum engine, and every family's closed form is
F(s) = zeta(s)^kappa B(s).  The Taylor data come from one DFT of B on 256 nodes
of |s - 1| = r: r = 1.4 when B = zeta(2s)^-k, analytic out to s = -1, and
r = 0.4 otherwise, inside the branch point at s = 1/2.  The reported error is
the largest change in any coefficient when every other node is dropped.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import special
from .errors import DuplicatePrime, NonconvergentProduct, OrderTooHigh
from .errors import ParameterOutOfRange, UnknownFamily
from .series import Z_BOUND, PowerSeries
from .sieve import primes_up_to

@dataclass(frozen=True)
class TypePParams:
    """The two constants of a family that the expansion reads: kappa, the
    power of zeta(s), and w, the power of zeta(2s)^-1 in the background."""

    kappa: float
    w: float

    def __post_init__(self):
        if not 0.0 < self.kappa:
            raise ParameterOutOfRange(f"need kappa > 0, got kappa={self.kappa}")


@dataclass(frozen=True)
class LocalModel:
    """Local factor (1 + a u)(1 - u)^c (1 - u^2)^w2 of the background product;
    its coefficients are real, so B(conj s) = conj B(s)."""

    a: float = 0.0
    c: float = 0.0
    w2: float = 0.0

    def __post_init__(self):
        if any(complex(v).imag for v in (self.a, self.c, self.w2)):
            raise ParameterOutOfRange(f"the local model's coefficients must be real, got {self}")

    @property
    def trivial(self) -> bool:
        return self.a == 0 and self.c == 0 and self.w2 == 0

    def log_u_coeffs(self, m_max: int) -> np.ndarray:
        """d_m with log(local factor) = sum_m d_m u^m; d_0 = d_1 = 0 required."""
        d = np.zeros(m_max + 1)
        for m in range(1, m_max + 1):
            val = -(((-self.a) ** m) + self.c) / m
            if m % 2 == 0:
                val -= 2.0 * self.w2 / m
            d[m] = val
        if abs(d[1]) > 1e-12:
            raise NonconvergentProduct(
                "local log has a u^1 term; the product would diverge like sum 1/p"
            )
        d[1] = 0.0
        return d


@dataclass(frozen=True, eq=False)
class ArithmeticFamily:
    """A real-valued multiplicative function with its type parameters and
    background data; f(p^e) = local_value(e) at every prime p, and
    local_value(0) = f(1) = 1.  closed_form_F(s, grid=None) evaluates F on
    an array of points; grid is the layout of a Perron slice (_closed_form)."""

    name: str
    local_value: Callable[[int], float]
    params: TypePParams
    local_model: LocalModel
    closed_form_F: Callable[..., np.ndarray]


# --- background engine ------------------------------------------------------------

# Size of the last q term kept in the zeta product.
_LAST_TERM = 1e-18
# Error of log zeta_{>=P0}(w) taken as log(zeta(w) prod_{p<P0} (1 - p^-w)): the
# product rounds at 1e-16 relative to 1 while the log is near P0^-Re w, so e_q
# multiplies the lost digits back up (measured up to 1.6e-15).
_ZETA_ROUTE_ERR = 2e-15
# Direct sums over P0 <= p < X take X <= 2^15.  Each term may err by 1e-17; an
# estimated error past 1e-9 in log B is refused.
_DIRECT_PRIMES, _TERM_ERR, _MAX_LOG_ERR = 2**15, 1e-17, 1e-9


def _zeta_exponents(model: LocalModel, q_max: int) -> np.ndarray:
    """e_q for q = 0..q_max, solving m d_m = sum_{q | m} q e_q by a divisor sieve."""
    qe = model.log_u_coeffs(q_max) * np.arange(q_max + 1)
    for q in range(2, q_max + 1):
        qe[2 * q :: q] -= qe[q]
    return qe / np.maximum(np.arange(q_max + 1), 1)


def _zeta2_power(model: LocalModel) -> bool:
    """True when B(s) = zeta(2s)^e_2 with e_2 an integer <= 0, which is analytic
    wherever zeta(2s) is nonzero and needs no prime.  For the local-model shape
    e_3 = (a^3 - a)/3, and e_3 = 0 makes every later e_q vanish too."""
    e = _zeta_exponents(model, 8)
    return bool(np.all(np.abs(e[3:]) < 1e-12)) and e[2] == round(e[2]) <= 0


def _scaled(grid, q: float):
    """The layout (q sigma, q t0, q dt) of q s for s laid out as grid = (sigma, t0, dt)."""
    return None if grid is None else (q * grid[0], q * np.asarray(grid[1]), q * grid[2])


def _background(model: LocalModel, s: np.ndarray, grid=None) -> np.ndarray:
    """B(s) = G(s) zeta(2s)^(-w) at an array of points, with no prime cutoff.

    The primes p < P0 enter by their exact local factors; the rest by
    prod_{q >= 2} zeta_{>=P0}(qs)^e_q.  P0 is chosen so that |a p^-s| <= 1/4
    for every p >= P0 on the points, which makes the q-th term O(4^-q).  Each
    log zeta_{>=P0}(qs) comes from a sum over the primes P0 <= p < X when an
    X <= _DIRECT_PRIMES puts its tail below the worst term of the better
    route, and from zeta(qs), at an error near _ZETA_ROUTE_ERR |e_q|, when
    none does.  e_q grows like |a|^q / q, so a large |a| loses digits either
    way: past _MAX_LOG_ERR in log B this raises.  The zeta(qs) are evaluated
    first, the highest q first, so that a point past zeta's box is refused
    before any other sum.  grid, the layout (sigma, t0, dt) of a 2-D s whose
    rows are vertical progressions, is handed to zeta_batch and dirichlet_sum.
    """
    if _zeta2_power(model):
        return special.zeta_batch(2.0 * s, grid=_scaled(grid, 2.0)) ** _zeta_exponents(model, 2)[2]
    sigma = float(np.min(s.real))
    if sigma <= 0.5:
        raise ParameterOutOfRange(f"this background is evaluated on Re s > 1/2, got {sigma:.3g}")
    big = max(abs(model.a), 1.0)
    p0 = max(16, math.ceil((4.0 * big) ** (1.0 / sigma)))
    q_max = math.ceil(math.log(_LAST_TERM) / math.log(big / p0**sigma))
    e = _zeta_exponents(model, q_max)
    x_max = max(_DIRECT_PRIMES, p0)

    # |w| sum_{p >= x} p^-(m sigma) <= |w| unit x^-excess for x >= p0, excess =
    # m sigma - 1, by the prime number theorem's density 1/log p
    m = np.arange(q_max + 1)
    excess = np.maximum(m * sigma - 1.0, 1e-3)
    unit = 1.0 / (excess * math.log(p0))
    by_zeta = _ZETA_ROUTE_ERR * np.abs(e)
    by_primes = np.abs(e) * unit * float(x_max) ** -excess
    floor = max(_TERM_ERR, float(np.max(np.minimum(by_zeta, by_primes))))
    direct = (e != 0) & (by_primes <= floor)
    weight = np.zeros(q_max + 1)
    for q in np.flatnonzero(direct):
        weight[q::q] += e[q] * q / m[q::q]
    # from the first direct q on, the sum of order m stops where its tail is
    # floor / (number of sums), or at x_max
    ms = m[np.argmax(direct) :] if direct.any() else m[:0]
    stops = np.clip((np.abs(weight[ms]) * unit[ms] * ms.size / floor) ** (1.0 / excess[ms]), p0, x_max)
    err = np.sum(by_zeta[~direct]) + np.sum(np.abs(weight[ms]) * unit[ms] * stops ** -excess[ms])
    if err > _MAX_LOG_ERR:
        raise ParameterOutOfRange(f"local factor with |a| = {abs(model.a):.3g} at Re s = {sigma:.3g}: "
                                  f"estimated error {err:.1e} in log B, above {_MAX_LOG_ERR:g}")

    by_zeta_qs = np.flatnonzero(~direct & (e != 0))
    zetas = {q: special.zeta_batch(q * s, grid=_scaled(grid, q)) for q in by_zeta_qs[::-1]}
    primes = primes_up_to(x_max).astype(np.float64)
    u = np.exp(-np.multiply.outer(np.log(primes[primes < p0]), s))
    out = np.prod((1.0 + model.a * u) * (1.0 - u) ** model.c * (1.0 - u * u) ** model.w2, axis=0)
    log_b = np.zeros_like(s)
    for q in by_zeta_qs:
        log_b += e[q] * np.log(zetas[q] * np.prod(1.0 - u**q, axis=0))

    # log zeta_{>=P0}(qs) = sum_k P(kqs)/k with P(w) = sum_{p >= P0} p^-w, so the
    # direct q together are one Dirichlet polynomial with a_n = weight[m] at
    # each n = p^m, P0 <= p < stops[m]
    if ms.size:
        ln_p = np.log(primes[primes >= p0])
        counts = np.searchsorted(primes[primes >= p0], stops)
        ln_n = np.concatenate([mm * ln_p[:n] for mm, n in zip(ms, counts)])
        log_b += special.dirichlet_sum(s, ln_n, np.repeat(weight[ms], counts), grid=grid)
    return out * np.exp(log_b)


@functools.cache
def _background_taylor(model: LocalModel) -> tuple[float, np.ndarray, np.ndarray]:
    """(r, fine, coarse): DFTs of B on 256 and 128 equispaced nodes of |s - 1| = r.

    Entry l of either DFT, divided by r^l, is the Taylor coefficient of
    order l at s = 1, up to aliasing from orders l + 256 (l + 128).
    """
    # zeta(2s)^-k is analytic out to |s - 1| = 2 (s = -1), and zeta's box needs
    # Re 2s > -1; any other background has a branch point or pole at s = 1/2
    # or s = 1/q, and the split at P0 needs Re s > 1/2
    r, n = (1.4 if _zeta2_power(model) else 0.4), 256
    vals = _background(model, 1.0 + r * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n))
    # B(conj s) = conj B(s): the lower half of the circle mirrors the upper
    vals = np.concatenate([vals, np.conj(vals[-2:0:-1])])
    return r, np.fft.fft(vals) / n, np.fft.fft(vals[::2]) / (n // 2)


def g_series_by_euler_product(family: ArithmeticFamily, order: int) -> tuple[PowerSeries, float]:
    """Taylor series of G(s) zeta(2s)^(-w) at s = 1 and its a-posteriori error.

    The error is the largest change in any coefficient when every other
    circle node is dropped.
    """
    if order < 0:
        raise ParameterOutOfRange(f"series order J must be >= 0, got J={order}")
    model = family.local_model
    if model.trivial:
        return PowerSeries.constant(1.0, order), 0.0
    r, fine, coarse = _background_taylor(model)
    if order >= coarse.size:
        raise OrderTooHigh(f"order {order} needs more than the {coarse.size} coarse circle nodes")
    scale = r ** -np.arange(order + 1.0)
    # B is real on the real axis
    series, half = (fine[: order + 1] * scale).real, (coarse[: order + 1] * scale).real
    return PowerSeries(tuple(series)), float(np.max(np.abs(series - half)))


def _closed_form(kappa: float, model: LocalModel, s: np.ndarray, *, grid=None) -> np.ndarray:
    """F(s) = zeta(s)^kappa B(s) at an array of points; B = 1 for a trivial model.

    An integer kappa takes zeta^kappa by multiplication.  Otherwise the
    principal log of zeta is the real-anchored one on Re(s) >= 1.17, where
    |arg zeta| < pi: every line abscissa 1 + 2/log x of the x <= 1e5 budget.
    A kappa past series.Z_BOUND, the reach of the expansion coefficients,
    raises ParameterOutOfRange before any point is evaluated.  B comes
    before zeta(s): its zeta(qs) leave zeta's box first as the points rise,
    and are refused before zeta(s) is summed.  grid is the layout
    (sigma, t0, dt) of a 2-D s whose rows are vertical progressions, which
    the Perron line hands down to zeta_batch.
    """
    if kappa > Z_BOUND:
        raise ParameterOutOfRange(f"kappa = {kappa:.3g} exceeds the bound {Z_BOUND} of the analytic data")
    s = np.asarray(s, dtype=np.complex128)
    background = None if model.trivial else _background(model, s, grid)
    zeta = special.zeta_batch(s, grid=grid)
    f = zeta ** int(kappa) if float(kappa).is_integer() else np.exp(kappa * np.log(zeta))
    return f if background is None else f * background


def euler_product_value(family: ArithmeticFamily, s: complex) -> complex:
    """Pointwise value of G(s) zeta(2s)^(-w), exact up to rounding."""
    model = family.local_model
    if model.trivial:
        return 1.0 + 0j
    return complex(_background(model, np.array([complex(s)]))[0])


# --- family constructors ---------------------------------------------------------

def f_value(family: ArithmeticFamily, factorization) -> float:
    """f(n) from a factorization [(p, a), ...]; empty product is f(1) = 1."""
    seen = set()
    out = 1.0
    for p, a in factorization:
        if p in seen:
            raise DuplicatePrime(f"prime {p} repeated in factorization")
        if a < 1:
            raise ParameterOutOfRange("exponents must be >= 1")
        seen.add(p)
        out *= family.local_value(int(a))
    return out


def _divisor_local(kappa: float) -> Callable[[int], float]:
    if float(kappa).is_integer():
        k = int(kappa)

        def local_value(e: int) -> float:
            return float(math.comb(k + e - 1, e))

    else:

        def local_value(e: int) -> float:
            # C(kappa+e-1, e) = prod_{i<e} (kappa+i)/(i+1): exactly kappa at e = 1
            val = 1.0
            for i in range(e):
                val *= (kappa + i) / (i + 1)
            return val

    return local_value


def builtin_family(name: str, parameter: complex | None = None) -> ArithmeticFamily:
    """Construct one of the built-in families.

    constant_one             f = 1            F = zeta
    divisor_kappa(kappa)     f(p^e) = C(kappa+e-1, e),  F = zeta^kappa
    omega_power(z)           f(n) = z^omega(n), z real positive,  F = zeta^z B
    squarefree_omega_power   f = mu^2         F = zeta(s)/zeta(2s)
    """
    if parameter is not None and not cmath.isfinite(complex(parameter)):
        raise ParameterOutOfRange(f"{name} parameter must be finite, got {parameter}")
    symbol = {"divisor_kappa": "kappa", "omega_power": "z"}.get(name)
    if symbol is not None:
        if parameter is None:
            raise ParameterOutOfRange(f"{name} needs a {symbol} parameter")
        param = complex(parameter)
        if param.imag != 0 or param.real <= 0:
            raise ParameterOutOfRange(f"{name} requires real {symbol} > 0")
        param = param.real
    if name == "constant_one":
        kappa, w, model, local_value = 1.0, 0.0, LocalModel(), lambda e: 1.0
    elif name == "divisor_kappa":
        kappa, w, model, local_value = param, 0.0, LocalModel(), _divisor_local(param)
    elif name == "omega_power":
        kappa, w, model = param, 0.0, LocalModel(a=param - 1.0, c=param - 1.0, w2=0.0)
        local_value = lambda e: param if e else 1.0
    elif name == "squarefree_omega_power":
        kappa, w, model, local_value = 1.0, 1.0, LocalModel(w2=1.0), lambda e: 1.0 if e < 2 else 0.0
    else:
        raise UnknownFamily(f"no built-in family named {name!r}")
    return ArithmeticFamily(
        name=name,
        local_value=local_value,
        params=TypePParams(kappa=kappa, w=w),
        local_model=model,
        closed_form_F=functools.partial(_closed_form, kappa, model),
    )


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
    param: float | None = None
    if raw:
        if not takes_param:
            raise ParameterOutOfRange(f"family {name!r} takes no parameter")
        try:
            param = float(raw)
        except ValueError as exc:
            raise ParameterOutOfRange(f"bad family parameter {raw!r}") from exc
    return builtin_family(canonical, param)
