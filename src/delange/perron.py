"""Quadrature cross-checks: the truncated Perron line integral and the
Hankel-loop identities behind the main-term coefficients.

The line integral runs over Re(s) = 1 + b_offset/log x.  A small offset is
essential numerically: the truncation error scales with exp(b_offset), so
the proof-side choice of 20 would bury the window sum under an e^20-sized
constant.  The default offset 2 keeps the fitted truncation envelope O(1).

The Hankel loop is a circle of radius r about s = 1 plus two legs straddling
the branch cut back to Re(s) = 1/2 + eta.  Leg contributions combine
analytically into -sin(pi(l-kappa))/pi times a real integral.  The branch
phase on the circle is not 2 pi periodic, which rules out the trapezoid
rule's spectral shortcut there.

Every quadrature yields a fine and a coarse estimate from one evaluation per
node, and abs_tol bounds their distance (QuadratureNotConverged past it).
Both are floats: the line and the loop's circle keep their real part by
Schwarz reflection, since a real family has F(conj s) = conj F(s).
Each puts the 21-point Gauss-Kronrod rule on its panels: the fine estimate
is the Kronrod sum, the coarse one the 10-point Gauss sum on the
odd-indexed nodes.  The requested density must be even, and the panels are
those of a 10-point Gauss rule at half of it:
ceil(T (nodes_per_unit // 2) / 10) on the line
(at least 4), nodes_per_unit // 2 on the legs (graded toward s = 1, at
least 8) and on the circle (at least 12).  The line's first panel lies only
b - 1 = b_offset/log x from the pole, where the integrand peaks, so it is
split into FIRST_PANEL_SPLIT equal sub-panels (QUADPACK's remedy for a
nearly singular interval).  Unsplit, that panel sets the fine-coarse
distance: 5.4e-3 for divisor:3 at x = 1e5 and 60 nodes a unit, against
about 1e-9 with the split at the default 32.

The line's panels are equal within the split panel and within each slice
of at most 3120 uniform panels, so the nodes of a slice are 21 vertical
progressions b + i(t0[row] + j dt), one per Kronrod node, with dt the panel
width.  _line_pair hands that layout to the family's closed form, which
passes it on to zeta_batch (and to the background's sums) to sum by the
factored matmul, and to _kernel, whose x^s and (1 + y/x)^s then take one exp
per row times the powers of one step (special.progression_exp) instead of
one exp per node.  The slices are evaluated from the top down, so the top
slice meets the height the closed form must reach: a family whose zeta(qs)
leaves zeta's box below T (sqfree past TAU_MAX/2, omega:z past TAU_MAX/3)
is refused there, before any other slice is summed.  The Hankel loop's legs
and circle are not vertical progressions and keep one exp per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contour import ZeroSet
from .errors import (
    OutOfValidatedRange,
    ParameterOutOfRange,
    QuadratureNotConverged,
    require_finite,
)
from .sieve import Window
from .special import TAU_MAX, progression_exp, recip_gamma

DEFAULT_B_OFFSET = 2.0
HANKEL_LEG_LEFT_ETA = 0.05
# Largest log |power of r| a loop evaluates; the panel sums keep a margin of
# e^19 below the largest double, e^709.78
_LOG_POWER_MAX = 690.0
MAX_NODES_PER_UNIT = 1000
# Equal sub-panels of the line's first Gauss-Kronrod panel, t in [0, T/panels],
# which lies within a few multiples of b - 1 of the pole at s = 1.
FIRST_PANEL_SPLIT = 8

# The 21-point Gauss-Kronrod rule on [-1, 1] (Kronrod 1965; QUADPACK's qk21),
# nodes ascending.  The odd-indexed nodes are the 10-point Gauss-Legendre
# nodes.  Row 0 of _PAIR_WEIGHTS holds the Kronrod weights (the fine rule),
# row 1 the Gauss weights on the odd-indexed nodes and zeros elsewhere (the
# coarse rule), so one set of values gives both estimates.
_KRONROD_NODES = np.array([
    -0.9956571630258081, -0.9739065285171717, -0.9301574913557082, -0.8650633666889845,
    -0.7808177265864169, -0.6794095682990244, -0.5627571346686047, -0.4333953941292472,
    -0.2943928627014602, -0.14887433898163122, 0.0, 0.14887433898163122,
    0.2943928627014602, 0.4333953941292472, 0.5627571346686047, 0.6794095682990244,
    0.7808177265864169, 0.8650633666889845, 0.9301574913557082, 0.9739065285171717,
    0.9956571630258081,
])
_PAIR_WEIGHTS = np.array([
    [0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
     0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
     0.14277593857706009, 0.14773910490133849, 0.1494455540029169, 0.14773910490133849,
     0.14277593857706009, 0.13470921731147334, 0.12349197626206584, 0.10938715880229764,
     0.0931254545836976, 0.07503967481091996, 0.054755896574351995, 0.032558162307964725,
     0.011694638867371874],
    [0.0, 0.06667134430868814, 0.0, 0.1494513491505806,
     0.0, 0.21908636251598204, 0.0, 0.26926671930999635,
     0.0, 0.29552422471475287, 0.0, 0.29552422471475287,
     0.0, 0.26926671930999635, 0.0, 0.21908636251598204,
     0.0, 0.1494513491505806, 0.0, 0.06667134430868814,
     0.0],
])


@dataclass(frozen=True)
class QuadratureSpec:
    nodes_per_unit: int = 32
    # Gauss-Kronrod is the only rule.  The field stays because
    # perfbench/spans.py reads spec.scheme and perfbench/run.py passes
    # scheme= in traced runs; it goes with the benchmark refresh (ROADMAP item 8).
    scheme: str = "gauss_segment"
    abs_tol: float = 1e-3

    def __post_init__(self):
        if self.nodes_per_unit < 4:
            raise ParameterOutOfRange("nodes_per_unit must be at least 4")
        if self.nodes_per_unit > MAX_NODES_PER_UNIT:
            raise ParameterOutOfRange(
                f"nodes_per_unit={self.nodes_per_unit} exceeds {MAX_NODES_PER_UNIT}"
            )
        if self.nodes_per_unit % 2:
            # the rules are laid out at half the density, which must be whole
            raise ParameterOutOfRange(f"nodes_per_unit={self.nodes_per_unit} must be even")
        if self.scheme != "gauss_segment":
            raise ParameterOutOfRange("scheme must be 'gauss_segment'")
        if not (0.0 < self.abs_tol <= 1e-3):
            raise ParameterOutOfRange("abs_tol must lie in (0, 1e-3]")


DEFAULT_QUADRATURE = QuadratureSpec()


def _kernel(s: np.ndarray, x: float, y: float, grid: Optional[tuple] = None) -> np.ndarray:
    """((x+y)^s - x^s)/s, stable for y << x via the expm1 route: exp(w) - 1,
    w = s log(1 + y/x), is replaced by its series where |w| < 1e-4.

    x^s and (1 + y/x)^s take one exp per node, or, given the layout
    grid = (sigma, t0, dt) of rows s = sigma + i(t0[row] + j dt), one exp per
    row times the powers of one step (special.progression_exp).
    """
    ly, lx = math.log1p(y / x), math.log(x)
    w = s * ly
    if grid is None:
        ew, x_s = np.exp(w), np.exp(s * lx)
    else:
        ew, x_s = (progression_exp(c, *grid, s.shape[1]) for c in (ly, lx))
    ew -= 1.0
    small = np.abs(w) < 1e-4
    ws = w[small]
    ew[small] = ws * (1.0 + ws / 2.0 + ws * ws / 6.0)
    return x_s * ew / s


def _converged(
    fine: float, coarse: float, spec: QuadratureSpec, diagnostics: Optional[dict] = None
) -> float:
    """The fine estimate, once it lies within abs_tol of the coarse one.

    A given diagnostics dict receives that distance as "quadrature_delta".
    """
    if not (math.isfinite(fine) and math.isfinite(coarse)):
        raise ParameterOutOfRange(
            f"the quadrature is not finite ({fine} by the fine rule, {coarse} by the coarse)"
        )
    delta = abs(fine - coarse)
    if delta > spec.abs_tol:
        raise QuadratureNotConverged(
            f"the coarse rule moved the integral by {delta:.3g} > abs_tol={spec.abs_tol:g}"
        )
    if diagnostics is not None:
        diagnostics["quadrature_delta"] = delta
    return fine


def _panel_pair(f, edges: np.ndarray) -> np.ndarray:
    """Kronrod and Gauss sums of f over the panels between consecutive edges.

    f takes a (21, panels) array of nodes, one row per Kronrod node.
    """
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    vals = f(mid + half * _KRONROD_NODES[:, None])
    return _PAIR_WEIGHTS @ (vals * half).sum(axis=1)


def _panels(T: float, spec: QuadratureSpec) -> int:
    """Gauss-Kronrod panels on [0, T]."""
    return max(4, int(math.ceil(T * (spec.nodes_per_unit // 2) / 10.0)))


def _line_edges(T: float, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges on [0, T]: the first panel's FIRST_PANEL_SPLIT equal
    sub-panels, next to the pole, then the uniform panels after it."""
    n = _panels(T, spec)
    return np.linspace(0.0, T / n, FIRST_PANEL_SPLIT + 1), np.linspace(0.0, T, n + 1)[1:]


def _line_pair(family, x: float, y: float, b: float, T: float, spec: QuadratureSpec):
    """Fine and coarse estimates of the line integral over Re(s) = b, |t| <= T.

    Each slice of equal panels hands its layout (b, t0, dt) to the closed
    form and to _kernel, so neither detects a grid of its own.  The slices
    are evaluated from the top down and their pairs added from the bottom up:
    a closed form that cannot reach T (sqfree's zeta(2s) past T = TAU_MAX/2,
    omega:z's zeta(3s) past TAU_MAX/3) fails on the first slice, before any
    other is summed.
    """

    def slice_pair(edges: np.ndarray) -> np.ndarray:
        # equal panels: row r of the nodes is t0[r] + j dt, dt the panel width
        dt = (edges[-1] - edges[0]) / (edges.size - 1)

        def integrand(t: np.ndarray) -> np.ndarray:
            s = b + 1j * t
            grid = (b, t[:, 0], dt)
            return family.closed_form_F(s, grid=grid) * _kernel(s, x, y, grid)

        return _panel_pair(integrand, edges)

    first, rest = _line_edges(T, spec)
    # at most 3120 uniform panels at a time: 21 rows, each a vertical
    # progression, the layout zeta_batch sums by its factored matmul
    step = 65536 // 21
    slices = [first] + [rest[lo : lo + step + 1] for lo in range(0, rest.size - 1, step)]
    top, *lower = reversed(slices)
    try:
        pairs = [slice_pair(top)]
    except OutOfValidatedRange as exc:
        raise OutOfValidatedRange(
            f"family {family.name!r} cannot be evaluated on the line up to T={T:g}: {exc}"
        ) from exc
    pairs += map(slice_pair, lower)
    pair = pairs.pop()
    while pairs:
        pair += pairs.pop()
    # f(-t) = conj(f(t)):  (1/2pi) * (I + conj I) = Re(I)/pi
    fine, coarse = pair.real / math.pi
    return float(fine), float(coarse)


def perron_line_sum(
    family,
    win: Window,
    T: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    b_offset: float = DEFAULT_B_OFFSET,
    diagnostics: Optional[dict] = None,
) -> float:
    """(1/2 pi i) integral of F(s) ((x+y)^s - x^s)/s over the truncated line.

    Uses the Schwarz reflection F(conj s) = conj F(s) to integrate the upper
    half only and keep its real part.  Raises QuadratureNotConverged if the
    coarse rule moves the result by more than abs_tol, and
    OutOfValidatedRange for a non-finite T, one above zeta's validated height
    TAU_MAX, or one the family's closed form cannot reach (met by the top
    slice, which is evaluated first).  b_offset must be finite and positive,
    which keeps the line right of the pole at s = 1, and small enough that
    (x + y)^b stays below e^_LOG_POWER_MAX; the line may have at most
    MAX_LINE_NODES nodes, x must lie in [2, 1e5] and T be at least 10;
    otherwise ParameterOutOfRange.  A given diagnostics dict receives the
    fine-coarse distance as "quadrature_delta".
    """
    x, y = float(win.x), float(win.y)
    if x > 1e5:
        raise ParameterOutOfRange("line evaluation budget is limited to x <= 1e5")
    if x < 2.0:
        raise ParameterOutOfRange("the line Re(s) = 1 + b_offset/log x needs x >= 2")
    if not (math.isfinite(T) and T <= TAU_MAX):
        raise OutOfValidatedRange(f"T={T} must be finite and at most {TAU_MAX:g}")
    if T < 10.0:
        raise ParameterOutOfRange("T must be at least 10")
    if not (0.0 < b_offset < math.inf):
        raise ParameterOutOfRange(f"b_offset={b_offset} must be finite and positive")
    nodes = line_node_count(T, spec)
    if nodes > MAX_LINE_NODES:
        raise ParameterOutOfRange(
            f"the line up to T={T:g} at {spec.nodes_per_unit} nodes a unit needs {nodes}"
            f" nodes, more than {MAX_LINE_NODES}"
        )
    b = 1.0 + b_offset / math.log(x)
    if b * math.log(x + y) > _LOG_POWER_MAX:
        raise ParameterOutOfRange(f"b_offset={b_offset:g} puts (x + y)^s past the double range")
    return _converged(*_line_pair(family, x, y, b, T, spec), spec, diagnostics)


def line_node_count(T: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> int:
    """Nodes at which the line integral evaluates F."""
    return 21 * (_panels(T, spec) - 1 + FIRST_PANEL_SPLIT)


# Nodes of a line that perron_line_sum accepts.  At T = TAU_MAX the default
# density needs 3,360,147 Gauss-Kronrod nodes and 60 a unit 6,300,147.
MAX_LINE_NODES = 6_300_000


def _loop_panels(spec: QuadratureSpec) -> tuple[int, int]:
    """Gauss-Kronrod panels on the loop's legs and on its circle."""
    npu = spec.nodes_per_unit // 2
    return max(8, npu), max(12, npu)


def loop_node_count(spec: QuadratureSpec = DEFAULT_QUADRATURE) -> int:
    """Nodes at which a Hankel loop evaluates its weight (legs plus circle)."""
    return 21 * sum(_loop_panels(spec))


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

def _hankel_value(
    u_weight, kappa: float, l: int, r: float, spec: QuadratureSpec
) -> tuple[float, float]:
    """Loop integral (1/2 pi i) int (s-1)^(l-kappa) W(s) ds, legs to 1/2+eta
    with eta = HANKEL_LEG_LEFT_ETA: its fine and coarse estimates.

    u_weight(s) must be analytic near the cut and real on it (both kernels
    used here are); the branch phases of (s-1)^(l-kappa) on the two legs then
    combine to -sin(pi(l-kappa))/pi times a real integral.  The circle's
    integrand takes conjugate values at -theta and theta, so only its real
    part is kept (Schwarz reflection, as on the line).  The circle must stay
    right of the legs' end, 0 < r < 1/2 - eta, pi (l - kappa) must be
    finite, and the powers r^(l - kappa) and r^(l - kappa + 1) must stay
    within e^+-_LOG_POWER_MAX, or ParameterOutOfRange before any node.
    """
    a = 0.5 + HANKEL_LEG_LEFT_ETA
    if not (0.0 < r < 1.0 - a):
        raise ParameterOutOfRange(f"loop radius r={r:g} must lie in (0, 1/2 - eta = {1 - a:g})")
    try:
        nu = l - kappa
    except OverflowError:  # an integer l past the double range
        nu = math.inf
    if not math.isfinite(math.pi * nu):
        raise ParameterOutOfRange(f"l - kappa = {nu:g} is past the double range")
    # (1 - sigma)^nu on the legs and (r e^(i theta))^(nu + 1) on the circle
    # reach |r^nu| and |r^(nu + 1)|, which over- or underflow past e^+-709
    if max(abs(nu), abs(nu + 1.0)) * math.log(1.0 / r) > _LOG_POWER_MAX:
        raise ParameterOutOfRange(
            f"r^(l - kappa + 1) = {r:.3g}^{nu + 1.0:g} is past the double range"
        )
    leg_panels, circle_panels = _loop_panels(spec)

    def leg_integrand(sigma: np.ndarray) -> np.ndarray:
        return (1.0 - sigma) ** nu * np.real(u_weight(sigma.astype(np.complex128)))

    # panels on [a, 1 - r] graded geometrically toward 1 - r, where the mass sits
    ratios = np.geomspace(1.0, 1e-3, leg_panels + 1)
    edges = (1.0 - r) - (1.0 - r - a) * (ratios - ratios[-1]) / (ratios[0] - ratios[-1])
    legs = -math.sin(math.pi * nu) / math.pi * _panel_pair(leg_integrand, edges)

    def circle_integrand(theta: np.ndarray) -> np.ndarray:
        s = 1.0 + r * np.exp(1j * theta)
        return (r * np.exp(1j * theta)) ** (nu + 1.0) * u_weight(s)

    # (r e^{i theta})^(nu+1) is not 2 pi periodic for fractional nu (its branch
    # phase jumps at theta = -pi/pi), so [-pi, pi] is an ordinary segment here
    circle = _panel_pair(circle_integrand, np.linspace(-math.pi, math.pi, circle_panels + 1))
    fine, coarse = legs + circle.real / (2.0 * math.pi)
    return float(fine), float(coarse)


def hankel_main_term(
    u: float,
    kappa: float,
    l: int,
    r: Optional[float] = None,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    diagnostics: Optional[dict] = None,
) -> float:
    """(1/2 pi i) int_loop (s-1)^(l-kappa) u^(s-1) ds, loop radius r = 1/log u.

    Approaches (log u)^(kappa-1-l)/Gamma(kappa-l) as u grows; the truncation
    of the legs at 1/2 + eta, eta = HANKEL_LEG_LEFT_ETA, costs
    O(u^(eta-1/2)).  A non-finite u, kappa or r, a u below 100, and an r
    outside (0, 1/2 - eta), raise ParameterOutOfRange.  A given diagnostics
    dict receives the fine-coarse distance as "quadrature_delta".
    """
    require_finite(u=u, kappa=kappa)
    if u < 100.0:
        raise ParameterOutOfRange("u must be at least 100")
    lu = math.log(u)
    if r is None:
        r = 1.0 / lu
    require_finite(r=r)

    def weight(s: np.ndarray) -> np.ndarray:
        return np.exp((np.asarray(s) - 1.0) * lu)

    return _converged(*_hankel_value(weight, kappa, l, r, spec), spec, diagnostics)


def hankel_closed_form(u: float, kappa: float, l: int) -> float:
    """(log u)^(kappa-1-l) / Gamma(kappa-l), the loop's limiting value."""
    return math.log(u) ** (kappa - 1.0 - l) * recip_gamma(kappa - l).real


@dataclass(frozen=True)
class LoopCheckReport:
    value: float
    reference: float
    rel_dev: float
    nodes: int
    quadrature_delta: float


def ml_integral_check(
    kappa: float,
    l: int,
    win: Window,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> LoopCheckReport:
    """Loop integral of (s-1)^(l-kappa) ((x+y)^s - x^s)/s against its main term
    y (log x)^(kappa-1-l)/Gamma(kappa-l), on the loop of radius 1/log x.  A
    non-finite kappa, and a radius outside (0, 1/2 - HANKEL_LEG_LEFT_ETA)
    (x < 10), raise ParameterOutOfRange."""
    require_finite(kappa=kappa)
    x, y = float(win.x), float(win.y)
    lx = math.log(x)
    r = 1.0 / lx if lx > 0 else math.inf  # x = 1: no loop, which _hankel_value refuses

    def weight(s: np.ndarray) -> np.ndarray:
        return _kernel(np.asarray(s, dtype=np.complex128), x, y)

    diagnostics: dict = {}
    value = _converged(*_hankel_value(weight, kappa, l, r, spec), spec, diagnostics)
    reference = y * lx ** (kappa - 1.0 - l) * recip_gamma(kappa - l).real
    scale = abs(reference) if reference != 0 else y * lx ** (kappa - 1.0 - l)
    rel = abs(value - reference) / scale
    return LoopCheckReport(
        value=value, reference=reference, rel_dev=rel, nodes=loop_node_count(spec),
        quadrature_delta=diagnostics["quadrature_delta"],
    )
