"""Short-interval predictions, remainder bounds, and theta thresholds.

predict() evaluates the truncated expansion

    y (log x)^(kappa-1) * sum_{l<=N} lambda_l / (log x)^l,

remainder_bound() the accompanying R_N with caller-supplied constants, and
theta() the admissible short-interval exponent in three regimes:

  unconditional_huxley     exponent-12/5 zero-density input, case split at
                           kappa = 12/(5 eta1), ties to case 1;
  zero_density_hypothesis  exponent-2 density input, split at kappa = 2/eta1;
  lindelof_halasz_turan    conditional formula, needs delta > 1.

The prior threshold (5k+15d+21)/(5k+15d+36) is exposed for comparisons.
The unconditional exponent improves on it strictly as eps -> 0: the
epsilon-free values (5d+7)/(5d+12) (case 1) and (eta1*k+d-1)/(eta1*k+d)
(case 2) lie below it, and theta increases strictly in eps.  So each
(kappa, delta) has a flip point eps*(kappa, delta) > 0 and the improvement
holds exactly for 0 < eps < eps*.  In case 1 the epsilon-free margin is
25*kappa / ((5k+15d+36)(5d+12)), which vanishes as kappa -> 0, so no fixed
eps > 0 gives the improvement for every kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import LindelofRequiresDeltaAboveOne, OrderExceedsCoefficients, require_finite
from .series import ExpansionCoefficients
from .sieve import Window, _window_sums

REGIME_TAGS = ("unconditional_huxley", "zero_density_hypothesis", "lindelof_halasz_turan")


@dataclass(frozen=True)
class ThetaRegime:
    tag: str = "unconditional_huxley"
    eta1: float = 1.0 / 3.0
    epsilon: float = 0.01

    def __post_init__(self):
        if self.tag not in REGIME_TAGS:
            raise ValueError(f"tag must be one of {REGIME_TAGS}")
        if not (0.0 < self.eta1 <= 1.0 / 3.0):
            raise ValueError("eta1 must lie in (0, 1/3]")
        if not (0.0 < self.epsilon <= 0.05):
            raise ValueError("epsilon must lie in (0, 0.05]")


@dataclass(frozen=True)
class RemainderParams:
    a1: float = 1.0
    a2: float = 0.5
    M: float = 1.0

    def __post_init__(self):
        require_finite(a1=self.a1, a2=self.a2, M=self.M)
        if self.a1 <= 0 or self.a2 <= 0 or self.M < 0:
            raise ValueError("a1, a2 must be positive and M nonnegative")


@dataclass(frozen=True)
class ThetaResult:
    value: float
    branch: str


@dataclass(frozen=True)
class ExperimentRecord:
    family: str
    x: int
    y: int
    N: int
    exact: complex
    predicted: complex
    remainder_bound: float
    rel_error: float


def predict(coeffs: ExpansionCoefficients, win: Window, N: int) -> complex:
    """Truncated main term at order N for the window (x, x+y]."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > coeffs.order:
        raise OrderExceedsCoefficients(f"N={N} exceeds available order {coeffs.order}")
    lx = math.log(win.x)
    if lx <= N + 1:
        raise ValueError(f"log x = {lx:.3g} too small for an order-{N} expansion")
    acc = 0j  # Horner in 1/log x
    for l in range(N, -1, -1):
        acc = acc / lx + coeffs.lambda_l[l]
    return win.y * lx ** (coeffs.kappa - 1.0) * acc


def remainder_value(
    lambda_abs: list[float], x: float, y: float, N: int, rp: RemainderParams
) -> float:
    """R_N on raw float inputs; lambda_abs holds |lambda_0..lambda_N|."""
    lx = math.log(x)
    llx = math.log(lx)
    s = 0.0
    for l in range(1, N + 2):
        s += l * lambda_abs[l - 1] / lx**l
    out = (y / x) * s
    out += (rp.a1 * N + 1.0) ** (N + 1) / math.sqrt(x)
    out += rp.M * (((rp.a1 * N + 1.0) / lx) ** (N + 1) + math.exp(-rp.a2 * lx / llx))
    return out


def remainder_bound(
    coeffs: ExpansionCoefficients, win: Window, N: int, rp: RemainderParams = RemainderParams()
) -> float:
    """R_N(x, y) for the window, with the supplied constants."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > coeffs.order:
        raise OrderExceedsCoefficients(f"N={N} exceeds available order {coeffs.order}")
    lam = [abs(coeffs.lambda_l[l]) for l in range(N + 1)]
    return remainder_value(lam, float(win.x), float(win.y), N, rp)


def theta_prior_bound(kappa: float, delta: float) -> float:
    """The earlier short-interval threshold used for comparison."""
    return (5.0 * kappa + 15.0 * delta + 21.0) / (5.0 * kappa + 15.0 * delta + 36.0)


def theta(kappa: float, delta: float, regime: ThetaRegime = ThetaRegime()) -> ThetaResult:
    """Admissible exponent theta(kappa, delta) and the branch that fired.

    In the unconditional regime theta tends to (5d+7)/(5d+12) (case 1) or
    (eta1*k+d-1)/(eta1*k+d) (case 2) as eps -> 0, below theta_prior_bound,
    and increases strictly in eps; it beats the prior bound exactly for
    eps below the cell's flip point eps*(kappa, delta), where the two meet.
    """
    require_finite(kappa=kappa, delta=delta)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    eps = regime.epsilon
    eta1 = regime.eta1
    if regime.tag == "lindelof_halasz_turan":
        if delta <= 1.0:
            raise LindelofRequiresDeltaAboveOne("conditional theta needs delta > 1")
        val = (delta - 1.0 + 2.0 * kappa * eps + 13.0 * eps) / (delta + 2.0 * kappa * eps + 3.0 * eps)
        return ThetaResult(val, "lindelof")
    if regime.tag == "unconditional_huxley":
        if kappa <= 12.0 / (5.0 * eta1):  # ties go to case 1
            val = (5.0 * delta + 55.0 * eps + 7.0) / (5.0 * delta + 5.0 * eps + 12.0)
            return ThetaResult(val, "case1")
    elif kappa <= 2.0 / eta1:  # zero_density_hypothesis
        val = (1.0 + delta + 11.0 * eps) / (2.0 + delta + eps)
        return ThetaResult(val, "case1")
    # case 2, one exponent for both density regimes
    val = (eta1 * kappa + delta - 1.0 + 11.0 * eps) / (eta1 * kappa + delta + eps)
    return ThetaResult(val, "case2")


def short_windows(x_grid: list[int], theta_exponent: float) -> list[Window]:
    """The windows (x, x + ceil(x^theta_exponent)] over a grid of heights x.

    theta_exponent must lie in (0, 1], and each x is checked to be finite and
    within 64 bits before x^theta_exponent is formed.
    """
    if not (0.0 < theta_exponent <= 1.0):
        raise ValueError("theta_exponent must lie in (0, 1]")
    windows = []
    for x in x_grid:
        Window(x, 1)
        x = int(x)
        windows.append(Window(x, int(math.ceil(x**theta_exponent))))
    return windows


def default_order(N: int) -> int:
    """Series order J for an order-N prediction when none is given."""
    return max(8, N + 1)


def run_experiment(
    family,
    x_grid: list[int],
    theta_exponent: float,
    N: int,
    rp: RemainderParams = RemainderParams(),
    order: Optional[int] = None,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """Exact-vs-predicted records over an x grid with y = ceil(x^theta_exponent).

    The base primes are sieved once, for the largest window, after every
    window's budget and the worker count are checked."""
    from .series import g_lambda_coeffs

    windows = short_windows(x_grid, theta_exponent)
    coeffs = g_lambda_coeffs(family, order if order is not None else default_order(N))
    records = []
    for win, exact in zip(windows, _window_sums(family, windows, workers)):
        pred = predict(coeffs, win, N)
        rb = remainder_bound(coeffs, win, N, rp)
        rel = abs(exact - pred) / abs(pred) if pred != 0 else math.inf
        records.append(
            ExperimentRecord(
                family=family.name,
                x=win.x,
                y=win.y,
                N=N,
                exact=exact,
                predicted=pred,
                remainder_bound=rb,
                rel_error=rel,
            )
        )
    return records
