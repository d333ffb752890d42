"""Truncated power-series arithmetic about s = 1 and expansion coefficients.

A PowerSeries holds coefficients of (s-1)^j, j = 0..J; every operation stays
at the operands' truncation order.  z_coeffs realizes the analytic family
{(s-1) zeta(s)}^z as exp(z * log(.)) on the series level, and
g_lambda_coeffs multiplies in a family's holomorphic background factor and
divides by Gamma(kappa - l) through the entire reciprocal, so integer kappa
kills the trailing coefficients exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    LogOfZeroConstantTerm,
    OrderTooHigh,
    ParameterOutOfRange,
    TruncationMismatch,
)
from .special import STIELTJES_MAX, recip_gamma, stieltjes


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients of (s-1)^j for j = 0..J, immutable."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> complex:
        return self.coeffs[j]

    @classmethod
    def constant(cls, value: complex, order: int) -> "PowerSeries":
        return cls((complex(value),) + (0j,) * order)


def _check_same_order(a: PowerSeries, b: PowerSeries) -> int:
    if a.order != b.order:
        raise TruncationMismatch(f"orders differ: {a.order} vs {b.order}")
    return a.order


def ps_scale(a: PowerSeries, factor: complex) -> PowerSeries:
    factor = complex(factor)
    return PowerSeries(tuple(factor * c for c in a.coeffs))


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the common order."""
    j_max = _check_same_order(a, b)
    ac, bc = a.coeffs, b.coeffs
    out = [0j] * (j_max + 1)
    for i, ai in enumerate(ac):
        if ai == 0:
            continue
        for j in range(j_max + 1 - i):
            out[i + j] += ai * bc[j]
    return PowerSeries(tuple(out))


def ps_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series by the first-order recurrence b' = a' b."""
    j_max = a.order
    ac = a.coeffs
    out = [0j] * (j_max + 1)
    out[0] = cmath.exp(ac[0])
    for k in range(1, j_max + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += j * ac[j] * out[k - j]
        out[k] = acc / k
    return PowerSeries(tuple(out))


def ps_log(a: PowerSeries) -> PowerSeries:
    """Principal log of a series with nonzero constant term (c' = a'/a)."""
    j_max = a.order
    ac = a.coeffs
    if ac[0] == 0:
        raise LogOfZeroConstantTerm("log of a series with zero constant term")
    out = [0j] * (j_max + 1)
    out[0] = cmath.log(ac[0])
    for k in range(1, j_max + 1):
        acc = k * ac[k]
        for j in range(1, k):
            acc -= j * out[j] * ac[k - j]
        out[k] = acc / (k * ac[0])
    return PowerSeries(tuple(out))


def shifted_zeta_series(order: int) -> PowerSeries:
    """Taylor series of (s-1) zeta(s) about s = 1.

    Coefficient 0 is 1; coefficient j >= 1 is (-1)^(j-1) gamma_{j-1} / (j-1)!.
    """
    if order > STIELTJES_MAX + 1:
        raise OrderTooHigh(f"order {order} needs Stieltjes constants beyond {STIELTJES_MAX}")
    coeffs = [1.0 + 0j]
    for j in range(1, order + 1):
        sign = 1.0 if (j - 1) % 2 == 0 else -1.0
        coeffs.append(complex(sign * stieltjes(j - 1) / math.factorial(j - 1)))
    return PowerSeries(tuple(coeffs))


Z_BOUND = 20.0


def z_coeffs(z: complex, order: int) -> PowerSeries:
    """Taylor coefficients of {(s-1) zeta(s)}^z about s = 1.

    Entry j is gamma_j(z)/j!; entry 0 is exactly 1.  |z| past Z_BOUND raises
    ParameterOutOfRange.
    """
    z = complex(z)
    if abs(z) > Z_BOUND:
        raise ParameterOutOfRange(f"|z| = {abs(z):.3g} exceeds the bound {Z_BOUND}")
    base = shifted_zeta_series(order)
    out = ps_exp(ps_scale(ps_log(base), z))
    # constant term is exp(z * log 1) = 1 by construction; pin it against roundoff
    return PowerSeries((1.0 + 0j,) + out.coeffs[1:])


@dataclass(frozen=True)
class ExpansionCoefficients:
    """gamma_j(kappa)/j!, g_l, and lambda_l arrays for one family, order J,
    with the a-posteriori error of the background series behind g_l."""

    kappa: float
    w: complex
    gamma_j: tuple[complex, ...]
    g_l: tuple[complex, ...]
    lambda_l: tuple[complex, ...]
    background_error: float

    @property
    def order(self) -> int:
        return len(self.g_l) - 1


def g_lambda_coeffs(family, order: int) -> ExpansionCoefficients:
    """Expansion coefficients for a family: g from the series product, lambda
    from division by Gamma(kappa - l) via the entire reciprocal.

    `family` provides params.kappa and params.w, and its background series
    and that series' error figure come from families.g_series_by_euler_product.
    """
    from . import families  # families imports this module

    if order < 0:
        raise ParameterOutOfRange(f"series order J must be >= 0, got J={order}")
    kappa = float(family.params.kappa)
    w = complex(family.params.w)
    zc = z_coeffs(kappa, order)
    background, background_error = families.g_series_by_euler_product(family, order)
    g = ps_mul(background, zc)
    lam = tuple(g[l] * recip_gamma(kappa - l) for l in range(order + 1))
    return ExpansionCoefficients(
        kappa=kappa,
        w=w,
        gamma_j=zc.coeffs,
        g_l=g.coeffs,
        lambda_l=lam,
        background_error=background_error,
    )
