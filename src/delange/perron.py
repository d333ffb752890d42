"""Quadrature cross-checks: the truncated Perron line integral and the
Hankel-loop identities behind the main-term coefficients.

The line integral runs over Re(s) = 1 + b_offset/log x.  A small offset is
essential numerically: the truncation error scales with exp(b_offset), so
the proof-side choice of 20 would bury the window sum under an e^20-sized
constant.  The default offset 2 keeps the fitted truncation envelope O(1).

The Hankel loop is a circle of radius r about s = 1 plus two legs straddling
the branch cut back to Re(s) = 1/2 + eta.  Leg contributions combine
analytically into -sin(pi(l-kappa))/pi times a real integral; every piece is
integrated by composite Gauss panels (the branch phase on the circle is not
2 pi periodic, which rules out the trapezoid rule's spectral shortcut).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .contour import ZeroSet
from .errors import (
    NoClosedForm,
    OutOfValidatedRange,
    ParameterOutOfRange,
    QuadratureNotConverged,
    require_finite,
)
from .sieve import Window
from .special import TAU_MAX, recip_gamma

DEFAULT_B_OFFSET = 2.0
HANKEL_LEG_LEFT_ETA = 0.05
MAX_NODES_PER_UNIT = 1000
# Nodes of a line at full density that perron_line_sum accepts: what the default
# density of 60 a unit reaches at T = TAU_MAX (6e6 Gauss nodes, 6e6 + 1 trapezoid).
MAX_LINE_NODES = 6_000_001


@dataclass(frozen=True)
class QuadratureSpec:
    nodes_per_unit: int = 60
    scheme: str = "gauss_segment"
    abs_tol: float = 1e-3

    def __post_init__(self):
        if self.nodes_per_unit < 4:
            raise ValueError("nodes_per_unit must be at least 4")
        if self.nodes_per_unit > MAX_NODES_PER_UNIT:
            raise ParameterOutOfRange(
                f"nodes_per_unit={self.nodes_per_unit} exceeds {MAX_NODES_PER_UNIT}"
            )
        if self.scheme not in ("trapezoid", "gauss_segment"):
            raise ValueError("scheme must be 'trapezoid' or 'gauss_segment'")
        if not (0.0 < self.abs_tol <= 1e-3):
            raise ValueError("abs_tol must lie in (0, 1e-3]")


DEFAULT_QUADRATURE = QuadratureSpec()


def _kernel(s: np.ndarray, x: float, y: float) -> np.ndarray:
    """((x+y)^s - x^s)/s, stable for y << x via the expm1 route."""
    w = s * math.log1p(y / x)
    small = np.abs(w) < 1e-4
    ew = np.where(small, w * (1.0 + w / 2.0 + w * w / 6.0), np.exp(w) - 1.0)
    return np.exp(s * math.log(x)) * ew / s


def _converged(fine: complex, coarse: complex, spec: QuadratureSpec) -> complex:
    if not (cmath.isfinite(fine) and cmath.isfinite(coarse)):
        raise ParameterOutOfRange(
            f"the quadrature is not finite ({fine} at full density, {coarse} at half)"
        )
    if abs(fine - coarse) > spec.abs_tol:
        raise QuadratureNotConverged(
            f"halving nodes moved the integral by {abs(fine - coarse):.3g}"
            f" > abs_tol={spec.abs_tol:g}"
        )
    return fine


def _check_line_reach(family, b: float, T: float) -> None:
    """Evaluate F once at the top node b + iT.

    A closed form that reaches above zeta's validated height (sqfree's
    zeta(2s) past T = TAU_MAX/2) then fails before any panel is built.
    """
    try:
        family.closed_form_F(np.array([complex(b, T)]))
    except OutOfValidatedRange as exc:
        raise OutOfValidatedRange(
            f"family {family.name!r} cannot be evaluated on the line up to T={T:g}: {exc}"
        ) from exc


def _half_line_nodes(T: float, spec: QuadratureSpec, level: int):
    """Nodes and weights on t in [0, T]; level 0 is full density, 1 halved.

    Both come as (rows, count) arrays whose rows are arithmetic progressions
    in t (one row per Gauss offset, a single row for the trapezoid rule), the
    layout zeta_batch evaluates with its factored direct sum.
    """
    n = _panels(T, spec, level)
    if spec.scheme == "trapezoid":
        t = np.linspace(0.0, T, n + 1)
        w = np.full(n + 1, T / n)
        w[0] *= 0.5
        w[-1] *= 0.5
        return t[None, :], w[None, :]
    glx, glw = leggauss(10)
    edges = np.linspace(0.0, T, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    t = mid[None, :] + half * glx[:, None]
    w = np.repeat((glw * half)[:, None], n, axis=1)
    return t, w


def _panels(T: float, spec: QuadratureSpec, level: int) -> int:
    """Trapezoid intervals, or 10-node Gauss panels, on [0, T] at a level."""
    npu = spec.nodes_per_unit // (2**level)
    if spec.scheme == "trapezoid":
        return max(32, int(math.ceil(T * npu)))
    return max(4, int(math.ceil(T * npu / 10.0)))


def perron_line_sum(
    family,
    win: Window,
    T: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    b_offset: float = DEFAULT_B_OFFSET,
) -> complex:
    """(1/2 pi i) integral of F(s) ((x+y)^s - x^s)/s over the truncated line.

    Uses the Schwarz reflection F(conj s) = conj F(s) to integrate the upper
    half only.  Raises QuadratureNotConverged if halving the node density
    moves the result by more than abs_tol, and OutOfValidatedRange for a
    non-finite T, one above zeta's validated height TAU_MAX, or one the
    family's closed form cannot reach (checked at the top node up front).
    b_offset must be finite and positive, which keeps the line right of the
    pole at s = 1, and the line may have at most MAX_LINE_NODES nodes at full
    density; otherwise ParameterOutOfRange.
    """
    if family.closed_form_F is None:
        raise NoClosedForm(f"family {family.name!r} has no closed-form Dirichlet series")
    x, y = float(win.x), float(win.y)
    if x > 1e5:
        raise ValueError("line evaluation budget is limited to x <= 1e5")
    if not (math.isfinite(T) and T <= TAU_MAX):
        raise OutOfValidatedRange(f"T={T} must be finite and at most {TAU_MAX:g}")
    if T < 10.0:
        raise ValueError("T must be at least 10")
    if not (0.0 < b_offset < math.inf):
        raise ParameterOutOfRange(f"b_offset={b_offset} must be finite and positive")
    nodes = line_node_count(T, spec)
    if nodes > MAX_LINE_NODES:
        raise ParameterOutOfRange(
            f"the line up to T={T:g} at {spec.nodes_per_unit} nodes a unit needs {nodes}"
            f" nodes, more than {MAX_LINE_NODES}"
        )
    b = 1.0 + b_offset / math.log(x)
    _check_line_reach(family, b, T)

    def evaluate(level: int) -> complex:
        t, w = _half_line_nodes(T, spec, level)
        total = 0.0 + 0.0j
        step = 65536 // t.shape[0]
        for lo in range(0, t.shape[1], step):
            s = b + 1j * t[:, lo : lo + step]
            vals = family.closed_form_F(s) * _kernel(s, x, y)
            total += np.sum(vals * w[:, lo : lo + step])
        # f(-t) = conj(f(t)):  (1/2pi) * (I + conj I) = Re(I)/pi
        return complex(total.real / math.pi, 0.0)

    return _converged(evaluate(0), evaluate(1), spec)


def line_node_count(T: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> int:
    """Quadrature nodes the line integral uses at full density."""
    n = _panels(T, spec, 0)
    return n + 1 if spec.scheme == "trapezoid" else 10 * n


def loop_node_count(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> int:
    """Quadrature nodes a Hankel loop uses at full density (legs plus circle)."""
    return 10 * (max(8, spec.nodes_per_unit) + max(12, spec.nodes_per_unit))


def nudge_to_zero_gap(zeroset: ZeroSet, T: float) -> float:
    """Move T to the midpoint of the zero-ordinate gap containing it.

    The truncation height must avoid zeta zeros; with a tabulated set the
    midpoint between neighboring ordinates is the canonical safe choice.
    """
    g = zeroset.gamma
    if g.size == 0:
        return float(T)
    i = int(np.searchsorted(g, T))  # 'left': i == k when T == g[k], so an
    if i == 0:                      # exact ordinate hit still gets nudged
        return float(0.5 * g[0])
    if i >= g.size:
        return float(T)
    return float(0.5 * (g[i - 1] + g[i]))


# --- Hankel loop ----------------------------------------------------------------

def _loop_legs_integral(f_real, a: float, b: float, spec: QuadratureSpec, level: int) -> float:
    """integral_a^b f(sigma) dsigma with panels graded toward b."""
    glx, glw = leggauss(10)
    panels = max(8, spec.nodes_per_unit // (2**level))
    # geometric grading toward the right endpoint (integrand mass sits there)
    ratios = np.geomspace(1.0, 1e-3, panels + 1)
    edges = b - (b - a) * (ratios - ratios[-1]) / (ratios[0] - ratios[-1])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(glw * f_real(mid + half * glx)))
    return total


def _loop_circle_integral(f_theta, spec: QuadratureSpec, level: int) -> complex:
    # (r e^{i theta})^(nu+1) is not 2 pi periodic for fractional nu (branch
    # phase jumps at theta = -pi/pi), so the trapezoid rule loses its spectral
    # rate here; composite Gauss treats [-pi, pi] as an ordinary segment.
    glx, glw = leggauss(10)
    panels = max(12, spec.nodes_per_unit // (2**level))
    edges = np.linspace(-math.pi, math.pi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    theta = (mid[:, None] + half * glx[None, :]).ravel()
    w = np.tile(glw * half, panels)
    return complex(np.sum(f_theta(theta) * w))


def _hankel_value(
    u_weight, kappa: float, l: int, r: float, eta: float, spec: QuadratureSpec, level: int
) -> complex:
    """Loop integral (1/2 pi i) int (s-1)^(l-kappa) W(s) ds, legs to 1/2+eta.

    u_weight(s) must be analytic near the cut and real on it (both kernels
    used here are); the branch phases of (s-1)^(l-kappa) on the two legs then
    combine to -sin(pi(l-kappa))/pi times a real integral.  The circle must
    stay right of the legs' end, 0 < r < 1/2 - eta, or ParameterOutOfRange.
    """
    a = 0.5 + eta
    if not (0.0 < r < 1.0 - a):
        raise ParameterOutOfRange(f"loop radius r={r:g} must lie in (0, 1/2 - eta = {1 - a:g})")
    nu = l - kappa

    def leg_integrand(sigma: np.ndarray) -> np.ndarray:
        return (1.0 - sigma) ** nu * np.real(u_weight(sigma.astype(np.complex128)))

    legs = -math.sin(math.pi * nu) / math.pi * _loop_legs_integral(
        leg_integrand, a, 1.0 - r, spec, level
    )

    def circle_integrand(theta: np.ndarray) -> np.ndarray:
        s = 1.0 + r * np.exp(1j * theta)
        return (r * np.exp(1j * theta)) ** (nu + 1.0) * u_weight(s)

    circle = _loop_circle_integral(circle_integrand, spec, level) / (2.0 * math.pi)
    return complex(legs + circle)


def hankel_main_term(
    u: float,
    kappa: float,
    l: int,
    r: Optional[float] = None,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    eta: float = HANKEL_LEG_LEFT_ETA,
) -> complex:
    """(1/2 pi i) int_loop (s-1)^(l-kappa) u^(s-1) ds, loop radius r = 1/log u.

    Approaches (log u)^(kappa-1-l)/Gamma(kappa-l) as u grows; the truncation
    of the legs at 1/2 + eta costs O(u^(eta-1/2)).  A non-finite u, kappa or r,
    and an r outside (0, 1/2 - eta), raise ParameterOutOfRange.
    """
    require_finite(u=u, kappa=kappa)
    if u < 100.0:
        raise ValueError("u must be at least 100")
    lu = math.log(u)
    if r is None:
        r = 1.0 / lu
    require_finite(r=r)

    def weight(s: np.ndarray) -> np.ndarray:
        return np.exp((np.asarray(s) - 1.0) * lu)

    fine = _hankel_value(weight, kappa, l, r, eta, spec, 0)
    coarse = _hankel_value(weight, kappa, l, r, eta, spec, 1)
    return _converged(fine, coarse, spec)


def hankel_closed_form(u: float, kappa: float, l: int) -> complex:
    """(log u)^(kappa-1-l) / Gamma(kappa-l), the loop's limiting value."""
    return math.log(u) ** (kappa - 1.0 - l) * recip_gamma(kappa - l)


@dataclass(frozen=True)
class LoopCheckReport:
    value: complex
    reference: complex
    rel_dev: float
    nodes: int


def ml_integral_check(
    kappa: float,
    l: int,
    win: Window,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    eta: float = HANKEL_LEG_LEFT_ETA,
) -> LoopCheckReport:
    """Loop integral of (s-1)^(l-kappa) ((x+y)^s - x^s)/s against its main term
    y (log x)^(kappa-1-l)/Gamma(kappa-l), on the loop of radius 1/log x.  A
    non-finite kappa, and a radius outside (0, 1/2 - eta) (x < 10 at the
    default eta), raise ParameterOutOfRange."""
    require_finite(kappa=kappa)
    x, y = float(win.x), float(win.y)
    lx = math.log(x)
    r = 1.0 / lx if lx > 0 else math.inf  # x = 1: no loop, which _hankel_value refuses

    def weight(s: np.ndarray) -> np.ndarray:
        return _kernel(np.asarray(s, dtype=np.complex128), x, y)

    fine = _hankel_value(weight, kappa, l, r, eta, spec, 0)
    coarse = _hankel_value(weight, kappa, l, r, eta, spec, 1)
    value = _converged(fine, coarse, spec)
    reference = y * lx ** (kappa - 1.0 - l) * recip_gamma(kappa - l)
    scale = abs(reference) if reference != 0 else y * lx ** (kappa - 1.0 - l)
    rel = abs(value - reference) / scale
    return LoopCheckReport(
        value=value, reference=reference, rel_dev=rel, nodes=loop_node_count(spec)
    )
