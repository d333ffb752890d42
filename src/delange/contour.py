"""Hooley-Huxley contour construction over tabulated or synthetic zero sets.

The upper-half contour consists of a loop around s = 1 (realized with
axis-parallel pieces: two horizontal legs at heights +-r/2, r = 1/log x, and
a closing vertical at 1 + r), a low slab at abscissa 1/2 + eta, and then,
for each dyadic range [U, 2U], a staircase of vertical pieces at the
elevated levels beta_j* with corner-displaced horizontal connectors.  The
full path is the upper half concatenated with its mirror image.

Assembly works on one array of levels: the slab, then every interval of
every block, bottom to top, as build_blocks joins them next to its per-block
columns (l, U, m, H, c_l and where each block starts).  Only the junctions,
the spans where the level changes, are looked at further: each gets its
height and its two vertices, and the junction shapes are counted from the
junctions alone.

Desk-scale adaptations (T around 2^16 instead of "sufficiently large"):
the slab owns |t| <= 2^5 and blocks start at U = 2^5; non-power-of-two T is
floored to the covered dyadic top, and T above MAX_T = 2^20 is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BetaOutOfRange,
    DegenerateBlock,
    ParameterOutOfRange,
    ZeroTableParseError,
    require_finite,
)

BLOCK_MIN_L = 5  # slab owns |t| <= 2^5; dyadic blocks start there


def bundled_zero_table() -> str:
    """Path of the bundled table of the first 10^4 critical-line ordinates."""
    from importlib.resources import files

    return str(files("delange").joinpath("data/zeta_zeros_10k.txt"))


# --- zero sets -------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSet:
    """Zeros beta + i*gamma with gamma ascending, truncated at height T."""

    beta: np.ndarray
    gamma: np.ndarray
    T: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=np.float64))
        if self.beta.shape != self.gamma.shape:
            raise ParameterOutOfRange("beta and gamma must have equal length")

    def __len__(self) -> int:
        return int(self.beta.size)


def zeroset_from_pairs(pairs: Sequence[tuple[float, float]], T: float) -> ZeroSet:
    """Build a validated ZeroSet from (beta, gamma) pairs, sorting and truncating.

    A non-finite beta or gamma raises ParameterOutOfRange."""
    if len(pairs) == 0:
        return ZeroSet(np.zeros(0), np.zeros(0), float(T))
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        beta, gamma = arr[~finite][0].tolist()
        raise ParameterOutOfRange(f"zero beta={beta}, gamma={gamma} must be finite")
    beta, gamma = arr[:, 0], arr[:, 1]
    bad = (beta < 0.5) | (beta >= 1.0)
    if bad.any():
        raise BetaOutOfRange(f"beta values outside [1/2, 1): {beta[bad][:5]}")
    if (gamma <= 0).any():
        raise ParameterOutOfRange("ordinates must be positive")
    keep = gamma <= T
    order = np.argsort(gamma[keep], kind="stable")
    return ZeroSet(beta[keep][order], gamma[keep][order], float(T))


def load_zeros(path, T: float) -> ZeroSet:
    """Read a zero table.

    One number per line: ordinates of critical-line zeros (beta = 1/2).
    Two numbers per line: explicit "beta gamma" pairs (synthetic set).
    A line that is not numbers, or holds nan or inf, raises ZeroTableParseError.
    """
    pairs: list[tuple[float, float]] = []
    ncols: Optional[int] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if ncols is None:
                if len(parts) not in (1, 2):
                    raise ZeroTableParseError(lineno, f"expected 1 or 2 columns, got {len(parts)}")
                ncols = len(parts)
            elif len(parts) != ncols:
                raise ZeroTableParseError(lineno, f"expected {ncols} columns, got {len(parts)}")
            try:
                nums = [float(p) for p in parts]
            except ValueError:
                raise ZeroTableParseError(lineno, f"not a number: {line!r}") from None
            if not (math.isfinite(nums[0]) and math.isfinite(nums[-1])):  # one or two columns
                raise ZeroTableParseError(lineno, f"not a finite number: {line!r}")
            if ncols == 1:
                pairs.append((0.5, nums[0]))
            else:
                pairs.append((nums[0], nums[1]))
    return zeroset_from_pairs(pairs, T)


# --- dyadic blocks ----------------------------------------------------------

MAX_T = 2**20  # highest T build_blocks takes: 277,730 intervals, far above zeta's validated box


@dataclass(frozen=True)
class Blocks:
    """The dyadic blocks [U, 2U], bottom to top, one column entry per block.

    Block i has m[i] intervals [U + 2(j-1)H, U + 2jH], j = 1..m[i], of
    half-length H[i] = U[i] / (2 m[i]) = c_l[i] log log U[i].  Their levels
    beta_j* are levels[starts[i] : starts[i + 1]] of the joined array, and
    has_zero marks the intervals a zero elevates.
    """

    l: np.ndarray
    U: np.ndarray
    m: np.ndarray
    H: np.ndarray
    c_l: np.ndarray
    starts: np.ndarray
    levels: np.ndarray
    has_zero: np.ndarray

    def __len__(self) -> int:
        return int(self.l.size)


def check_block_params(T: float, alpha: float, c_star: float) -> None:
    """Refuse, with ParameterOutOfRange, a T, alpha or c_star that build_blocks
    cannot take; the CLI calls it before it reads the zero table."""
    require_finite(T=T, c_star=c_star)
    if c_star <= 0:
        raise ParameterOutOfRange(f"c_star={c_star} must be positive")
    if T < 2**10:
        raise ParameterOutOfRange("T must be at least 2^10")
    if T > MAX_T:
        raise ParameterOutOfRange(f"T={T:g} exceeds the contour's ceiling 2^20 = {MAX_T}")
    if not (0.5 < alpha < 1.0):
        raise ParameterOutOfRange("alpha must lie in (1/2, 1)")


def _clearance_margins(c_star: float, U: np.ndarray) -> np.ndarray:
    """The margin c*/log log(2(U + 12)) by which a zero of the block [U, 2U]
    lifts the level of the intervals it reaches, at each block bottom U."""
    # math.log, not np.log, whose vector loop may differ in the last bit
    return np.array([c_star / math.log(math.log(2.0 * (u + 12))) for u in U.tolist()])


def build_blocks(zeroset: ZeroSet, T: float, alpha: float, c_star: float) -> Blocks:
    """Dyadic blocks covering [2^BLOCK_MIN_L, 2^floor(log2 T)] with levels beta_j*.

    Interval j of block l is elevated to the largest beta >= alpha among the
    zeros whose gamma lies within 2H of its midpoint U + (2j - 1)H.  A zero
    reaches at most three intervals of its own dyadic block and of each block
    beside it, so all blocks share one level array and every zero is applied
    to it in one pass.  Bad parameters are refused by check_block_params.
    """
    check_block_params(T, alpha, c_star)
    l_top = int(math.floor(math.log2(T)))
    ls = np.arange(BLOCK_MIN_L, l_top)
    U = 2.0**ls
    # math.log, not np.log, whose vector loop may differ in the last bit
    lnln = np.array([math.log(math.log(u)) for u in U])
    # the count nearest c_l = 3/4; from U = 2^5 on, c_l stays within [0.72, 0.78]
    m = np.rint(U / (1.5 * lnln)).astype(np.int64)
    h = U / (2 * m)
    margins = _clearance_margins(c_star, U)
    start = np.concatenate([[0], np.cumsum(m)])

    # blocks span [U - 2H, 2U + 2H] within [2^(BLOCK_MIN_L - 1), 2^(l_top + 1))
    sel = (zeroset.beta >= alpha) & (zeroset.gamma >= 2.0 ** (BLOCK_MIN_L - 1)) & (
        zeroset.gamma < 2.0 ** (l_top + 1)
    )
    beta, gamma = zeroset.beta[sel], zeroset.gamma[sel]
    # gamma in [2^e, 2^(e+1)) lies in block e - BLOCK_MIN_L; try it and both neighbours
    block = (np.frexp(gamma)[1] - 1 - BLOCK_MIN_L)[:, None] + np.arange(-1, 2)
    exists = (block >= 0) & (block < m.size)
    block = np.where(exists, block, 0)
    Ub, hb, mb = U[block], h[block], m[block]
    g = gamma[:, None]
    near = exists & (g >= Ub - 2 * hb) & (g <= 2 * Ub + 2 * hb)
    # affected j: midpoint U + (2j - 1)H in [gamma - 2H, gamma + 2H]
    lo = np.maximum(1, np.ceil((g - Ub) / (2 * hb) - 0.5)).astype(np.int64)
    hi = np.minimum(mb, np.floor((g - Ub) / (2 * hb) + 1.5)).astype(np.int64)
    j = lo[..., None] + np.arange(3)
    hit = near[..., None] & (j <= hi[..., None])
    # rounding is monotone, so the largest beta + margin is the largest beta, plus the margin
    raw = np.full(start[-1], -np.inf)
    lifted = beta[:, None] + margins[block]
    np.maximum.at(raw, (start[block][..., None] + j - 1)[hit],
                  np.broadcast_to(lifted[..., None], hit.shape)[hit])
    has_zero = np.isfinite(raw)
    star = np.where(has_zero, raw, alpha)

    over = np.flatnonzero(star >= 1.0)
    if over.size:
        i = int(np.searchsorted(start, over[0], side="right")) - 1
        level = star[start[i] : start[i + 1]]
        j_bad = int(np.argmax(level)) + 1
        raise DegenerateBlock(
            f"block l={ls[i]}: beta*_{j_bad} = {level[j_bad - 1]:.4f} >= 1"
            " (reduce C* or the zero heights)"
        )
    return Blocks(l=ls, U=U, m=m, H=h, c_l=U / (2.0 * m * lnln), starts=start,
                  levels=star, has_zero=has_zero)


# --- contour assembly ---------------------------------------------------------

PIECE_V_STAR = "V_star"
PIECE_VJ = "Vj"
PIECE_HJ = "hj"
PIECE_H0L = "h0l"
PIECE_GAMMA = "Gamma_loop"
PIECE_MIRROR = "mirror"


@dataclass(frozen=True)
class ContourParams:
    alpha: float
    eta: float
    c_star: float
    corner_eps: float
    T: float
    logx: float


@dataclass(frozen=True)
class ContourPath:
    vertices: tuple[complex, ...]
    piece_labels: tuple[str, ...]
    params: ContourParams
    case_tally: dict
    covered_top: float  # 2^floor(log2 T): height actually covered by blocks


def _tally_cases(k: np.ndarray, up: np.ndarray, size: int) -> dict:
    """Junction shapes over the spans of a level array of the given size.

    A span has a strict shape only where junction k[n] starts it and k[n + 1]
    the next span (the top span ends flat); that pair is coded
    2 up[n] + up[n + 1].  Every other span is a tie.
    """
    pair = np.flatnonzero(np.diff(k) == 1)
    code = np.bincount(2 * up[pair] + up[pair + 1], minlength=4)
    # case 1: strict local minimum, 2: maximum, 3: ascent, 4: descent
    counts = [int(code[c]) for c in (1, 2, 3, 0)]
    tally = {f"{kind}_case{n}": c for kind in "vh" for n, c in enumerate(counts, start=1)}
    tally["ties"] = size - 1 - pair.size
    return tally


def assemble_contour(
    blocks: Blocks,
    zeroset: ZeroSet,
    alpha: float,
    eta: Optional[float] = None,
    c_star: float = 1.0,
    corner_eps: Optional[float] = None,
    logx: float = math.log(1e6),
) -> ContourPath:
    """Build the closed axis-parallel path from dyadic blocks.

    eta defaults to alpha - 1/2 so the slab sits at abscissa alpha, matching
    the flat empty-set contour; pass eta explicitly to lower the slab.
    """
    if not blocks:
        raise ParameterOutOfRange("need at least one block")
    if eta is None:
        eta = alpha - 0.5
    min_h = float(blocks.H.min())
    if corner_eps is None:
        corner_eps = min_h / 100.0
    require_finite(eta=eta, corner_eps=corner_eps, c_star=c_star, logx=logx)
    if c_star <= 0:
        raise ParameterOutOfRange(f"c_star={c_star} must be positive")
    if logx < 1.0:
        raise ParameterOutOfRange(f"logx={logx} must be at least 1")
    if not (0.0 < eta <= alpha - 0.5 + 1e-12):
        raise ParameterOutOfRange("eta must lie in (0, alpha - 1/2]")
    if not (0.0 < corner_eps < min_h / 4.0):
        raise ParameterOutOfRange(f"corner_eps must lie in (0, H/4) = (0, {min_h / 4.0:.4g})")

    slab_level = 0.5 + eta
    r = 1.0 / logx
    T_eff = 2.0 ** (int(blocks.l[-1]) + 1)

    # one level per vertical span, bottom to top
    levels = np.concatenate([[slab_level], blocks.levels])
    k = np.flatnonzero(levels[1:] != levels[:-1]) + 1  # spans that start a new level
    up = levels[k] > levels[k - 1]
    # span k is interval j = k - 1 - starts[i] of block i, with lower end U + 2jH
    i = np.searchsorted(blocks.starts, k - 1, side="right") - 1
    t_k = blocks.U[i] + 2 * (k - 1 - blocks.starts[i]) * blocks.H[i]
    # each junction sits at height t_k, displaced into the lower-level side
    t_h = np.where(up, t_k - corner_eps, t_k + corner_eps)

    # loop legs, then the two vertices of every junction, then the top
    upper = np.empty(2 * k.size + 4, dtype=complex)
    upper[:3] = [complex(1.0 + r, 0.0), complex(1.0 + r, r / 2.0), complex(slab_level, r / 2.0)]
    upper.real[3:-1:2] = levels[k - 1]
    upper.real[4:-1:2] = levels[k]
    upper.imag[3:-1] = np.repeat(t_h, 2)
    upper[-1] = complex(levels[-1], T_eff)
    # verticals alternate with horizontals; a horizontal at a power of two
    # crosses a block boundary
    pieces = np.full(2 * k.size + 1, PIECE_VJ, dtype=object)
    pieces[0] = PIECE_V_STAR
    at_edge = np.abs(t_k - 2.0 ** np.round(np.log2(t_k))) < 1e-9
    pieces[1::2] = np.where(at_edge, PIECE_H0L, PIECE_HJ)

    # mirror: conjugate, reversed, dropping the shared starting vertex
    vertices = np.concatenate([np.conj(upper[:0:-1]), upper])
    labels = (PIECE_MIRROR,) * (upper.size - 1) + (PIECE_GAMMA, PIECE_GAMMA) + tuple(pieces.tolist())

    params = ContourParams(
        alpha=alpha, eta=eta, c_star=c_star, corner_eps=corner_eps,
        T=float(zeroset.T if len(zeroset) else T_eff), logx=logx,
    )
    return ContourPath(
        vertices=tuple(vertices.tolist()), piece_labels=labels, params=params,
        case_tally=_tally_cases(k, up, levels.size), covered_top=T_eff,
    )


# --- validation -----------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    mirror_ok: bool
    connectivity_ok: bool
    clearance_ok: bool
    clearance_failures: tuple

    @property
    def all_ok(self) -> bool:
        return self.mirror_ok and self.connectivity_ok and self.clearance_ok


def _vertical_segments(vertices: np.ndarray):
    """(sigma, t_lo, t_hi) arrays of the vertical pieces above t = 0.

    The upper half is built bottom to top, so the pieces come in path order
    with t_lo ascending.
    """
    a, b = vertices[:-1], vertices[1:]
    lo, hi = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    keep = (a.real == b.real) & (a.imag != b.imag) & (hi > 0)
    return a.real[keep], np.maximum(lo[keep], 0.0), hi[keep]


def _abscissa_at(heights: np.ndarray, sigma, lo, hi) -> np.ndarray:
    """Largest covering-piece abscissa per height; corner zones touch at most
    two consecutive pieces, so checking the insertion neighbor suffices."""
    t = np.abs(np.asarray(heights, dtype=np.float64))
    out = np.full(t.shape, -np.inf)
    idx = np.searchsorted(lo, t + 1e-12, side="right") - 1
    for off in (0, 1):
        j = np.clip(idx + off, 0, sigma.size - 1)
        covered = (lo[j] - 1e-12 <= t) & (t <= hi[j] + 1e-12)
        out = np.where(covered, np.maximum(out, sigma[j]), out)
    return out


def contour_abscissa(path: ContourPath, height: float) -> float:
    """Largest sigma of a vertical piece covering |height| (corner zones may
    touch two pieces; the larger one is the effective clearance)."""
    segs = _vertical_segments(np.asarray(path.vertices))
    return float(_abscissa_at(np.array([height]), *segs)[0])


def validate_contour(path: ContourPath, zeroset: ZeroSet, alpha: float) -> ValidationReport:
    """Mirror symmetry, connectivity/axis-parallel chaining, zero clearance."""
    vs = np.asarray(path.vertices)
    mirror_ok = bool(np.all(np.abs(vs - np.conj(vs[::-1])) < 1e-12))
    a, b = vs[:-1], vs[1:]
    # each piece moves along exactly one axis: not zero-length, not diagonal
    connectivity_ok = bool(np.all((a.real == b.real) != (a.imag == b.imag)))

    relevant = (zeroset.beta >= alpha) & (zeroset.gamma <= path.covered_top)
    betas = zeroset.beta[relevant]
    gammas = zeroset.gamma[relevant]
    levels = np.maximum(np.floor(np.log2(gammas)).astype(np.int64), BLOCK_MIN_L)
    margins = _clearance_margins(path.params.c_star, 2.0 ** np.arange(levels.max(initial=0) + 1))
    required = betas + margins[levels] - path.params.corner_eps
    got = _abscissa_at(gammas, *_vertical_segments(vs))
    bad = got < required - 1e-12
    failures = tuple(zip(*(arr[bad].tolist() for arr in (betas, gammas, got, required))))
    return ValidationReport(
        mirror_ok=mirror_ok,
        connectivity_ok=connectivity_ok,
        clearance_ok=not failures,
        clearance_failures=failures,
    )


# --- zero-density accounting ------------------------------------------------------

HUXLEY_EXPONENT = 12.0 / 5.0
HUXLEY_LOG_POWER = 44


@dataclass(frozen=True)
class DensityReport:
    sigma: float
    T: float
    count: int
    envelope: float      # T^{(12/5)(1-sigma)} (log T)^44
    ratio: float
    exceptional_sigma: Optional[float] = None
    exceptional_count: Optional[int] = None
    exceptional_envelope: Optional[float] = None  # T^eps


def zero_density_count(
    zeroset: ZeroSet,
    sigma: float,
    T: float,
    c_star: Optional[float] = None,
    eps: float = 0.01,
) -> DensityReport:
    """N(sigma, T) with the unconditional envelope ratio; optionally also the
    exceptional count at sigma = 1 - C*/log log T against T^eps."""
    if not (0.5 <= sigma <= 1.0):
        raise ParameterOutOfRange("sigma must lie in [1/2, 1]")
    sel = (zeroset.beta >= sigma) & (zeroset.gamma > 0) & (zeroset.gamma <= T)
    count = int(np.count_nonzero(sel))
    envelope = T ** (HUXLEY_EXPONENT * (1.0 - sigma)) * math.log(T) ** HUXLEY_LOG_POWER
    report = dict(sigma=sigma, T=T, count=count, envelope=envelope, ratio=count / envelope)
    if c_star is not None:
        sigma0 = c_star / math.log(math.log(T))
        esel = (zeroset.beta >= 1.0 - sigma0) & (zeroset.gamma > 0) & (zeroset.gamma <= T)
        report.update(
            exceptional_sigma=1.0 - sigma0,
            exceptional_count=int(np.count_nonzero(esel)),
            exceptional_envelope=T**eps,
        )
    return DensityReport(**report)


# --- |zeta| diagnostic along the contour -------------------------------------------

def log_zeta_diagnostic(path: ContourPath, samples: int = 128) -> dict:
    """Empirical max of |log zeta| at sampled contour points vs log T/log log T.

    Meaningful for table-sourced sets (the real zeta); heights are capped at
    the validated box.  At most `samples` points are taken, and samples < 1
    raises ParameterOutOfRange.
    """
    from .special import zeta_batch

    if samples < 1:
        raise ParameterOutOfRange(f"samples={samples} must be at least 1")
    sigma, lo, hi = _vertical_segments(np.asarray(path.vertices))
    mid = 0.5 * (lo + hi)
    pts = (sigma + 1j * mid)[(mid <= 1.0e5) & (np.hypot(sigma - 1.0, mid) > 0.1)]
    if not pts.size:
        return {"max_abs_log_zeta": 0.0, "cap": math.inf, "ratio": 0.0, "samples": 0}
    pts = pts[:samples]
    vals = zeta_batch(pts)
    logs = np.abs(np.log(vals))
    T = path.covered_top
    cap = math.log(T) / math.log(math.log(T))
    mx = float(np.max(logs))
    return {"max_abs_log_zeta": mx, "cap": cap, "ratio": mx / cap, "samples": int(pts.size)}
