import dataclasses
import hashlib
import math

import numpy as np
import pytest

from delange.contour import (
    BLOCK_MIN_L,
    MAX_T,
    PIECE_GAMMA,
    PIECE_H0L,
    PIECE_HJ,
    PIECE_MIRROR,
    PIECE_V_STAR,
    PIECE_VJ,
    assemble_contour,
    build_blocks,
    bundled_zero_table,
    contour_abscissa,
    load_zeros,
    log_zeta_diagnostic,
    validate_contour,
    zero_density_count,
    zeroset_from_pairs,
)
from delange.errors import (
    BetaOutOfRange,
    DegenerateBlock,
    ParameterOutOfRange,
    ZeroTableParseError,
)

from conftest import synthetic_zero_set

T16 = 2.0**16
SUITE = dict(alpha=0.6, c_star=0.1)


def build_path(zs, alpha=0.6, c_star=0.1, **kw):
    blocks = build_blocks(zs, zs.T, alpha, c_star)
    return assemble_contour(blocks, zs, alpha, c_star=c_star, **kw)


class TestLoadZeros:
    def test_table_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.134725\n21.022040\n")
        zs = load_zeros(p, 100.0)
        assert zs.beta.tolist() == [0.5, 0.5]
        assert zs.gamma.tolist() == [14.134725, 21.022040]

    def test_synthetic_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("0.9 100.0\n")
        zs = load_zeros(p, 1000.0)
        assert (zs.beta[0], zs.gamma[0]) == (0.9, 100.0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("")
        assert len(load_zeros(p, 100.0)) == 0

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.1\nnot-a-number\n")
        with pytest.raises(ZeroTableParseError) as exc:
            load_zeros(p, 100.0)
        assert exc.value.lineno == 2

    def test_mixed_column_count_rejected(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.1\n0.9 100.0\n")
        with pytest.raises(ZeroTableParseError):
            load_zeros(p, 100.0)

    @pytest.mark.parametrize(
        "text, lineno",
        [("nan 5000\n", 1), ("0.7 9000\n0.8 nan\n", 2), ("0.9 inf\n", 1),
         ("14.13\nnan\n", 2), ("-inf\n", 1)],
    )
    def test_non_finite_entry_names_its_line(self, tmp_path, text, lineno):
        # these rows were dropped silently, and contour still reported PASS
        p = tmp_path / "z.txt"
        p.write_text(text)
        with pytest.raises(ZeroTableParseError, match="not a finite number") as exc:
            load_zeros(p, 65536.0)
        assert exc.value.lineno == lineno

    @pytest.mark.parametrize(
        "pair", [(math.nan, 5000.0), (0.8, math.nan), (0.9, math.inf), (math.inf, 100.0)]
    )
    def test_pairs_must_be_finite(self, pair):
        with pytest.raises(ParameterOutOfRange, match="must be finite"):
            zeroset_from_pairs([(0.7, 9000.0), pair], 65536.0)

    @pytest.mark.parametrize("gamma", [0.0, -14.1])
    def test_ordinates_must_be_positive(self, gamma):
        with pytest.raises(ParameterOutOfRange, match="ordinates must be positive"):
            zeroset_from_pairs([(0.7, 9000.0), (0.7, gamma)], 65536.0)

    def test_beta_out_of_range(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("1.2 50.0\n")
        with pytest.raises(BetaOutOfRange):
            load_zeros(p, 100.0)

    def test_truncates_at_height(self, zero_table_path):
        zs = load_zeros(zero_table_path, 237.0)
        assert len(zs) == 100  # ordinate #100 is 236.52, #101 is above 237


def scanned_block_split(U: int) -> tuple[int, float, float]:
    """m, H and c_l = U/(2m log log U) in [1/2, 1], scanning m outward from
    the 3/4 point (the search build_blocks made before its closed form)."""
    lnln = math.log(math.log(U))
    center = round(U / (2.0 * 0.75 * lnln))
    for dm in range(0, 50):
        for m in (center + dm, center - dm) if dm else (center,):
            if m < 1:
                continue
            c = U / (2.0 * m * lnln)
            if 0.5 <= c <= 1.0:
                return int(m), U / (2 * int(m)), c
    raise AssertionError(f"no admissible interval count at U={U}")


class TestBlocks:
    def test_partition_exactness(self):
        # the float half-length tiles [U, 2U] exactly: the endpoints
        # U + 2jH, j = 0..m, rise strictly and the last one is 2U to the bit
        zs = zeroset_from_pairs([], T16)
        blocks = build_blocks(zs, T16, **SUITE)
        assert len(blocks) == 16 - BLOCK_MIN_L
        assert np.array_equal(blocks.starts, np.concatenate([[0], np.cumsum(blocks.m)]))
        assert blocks.levels.size == blocks.has_zero.size == blocks.starts[-1]
        for l, U, m, H, c_l in zip(blocks.l, blocks.U, blocks.m, blocks.H, blocks.c_l):
            assert U == 2.0**l
            ends = U + 2 * np.arange(m + 1) * H
            assert ends[0] == U and ends[-1] == 2 * U
            assert np.all(np.diff(ends) > 0)
            assert H == U / (2 * m)
            assert 0.5 <= c_l <= 1.0

    def test_empty_set_all_fallback(self):
        zs = zeroset_from_pairs([], T16)
        blocks = build_blocks(zs, T16, **SUITE)
        assert np.all(blocks.levels == 0.6)
        assert not blocks.has_zero.any()

    def test_critical_line_only_all_fallback(self, zero_table_path):
        zs = load_zeros(zero_table_path, 9999.0)
        assert np.all(build_blocks(zs, 2.0**13, **SUITE).levels == 0.6)

    def test_single_zero_elevation_matches_sup_oracle(self):
        beta0, gamma0 = 0.8, 5000.0
        zs = zeroset_from_pairs([(beta0, gamma0)], T16)
        blocks = build_blocks(zs, T16, **SUITE)
        for U, m, h, start in zip(blocks.U, blocks.m, blocks.H, blocks.starts):
            margin = 0.1 / math.log(math.log(2.0 * (U + 12)))
            for j in range(1, m + 1):
                u_j = U + (2 * j - 1) * h
                covered = (u_j - 2 * h <= gamma0 <= u_j + 2 * h) and beta0 >= 0.6
                want = beta0 + margin if covered else 0.6
                assert blocks.levels[start + j - 1] == pytest.approx(want, abs=1e-12)

    def test_monotone_response_to_zero_insertion(self):
        base = synthetic_zero_set(3)
        extra = zeroset_from_pairs(
            list(zip(base.beta, base.gamma)) + [(0.85, 9000.0)], T16
        )
        levels_a = build_blocks(base, T16, **SUITE).levels
        levels_b = build_blocks(extra, T16, **SUITE).levels
        assert levels_a.shape == levels_b.shape
        assert np.all(levels_b >= levels_a - 1e-15)

    def test_degenerate_block_rejected(self):
        zs = zeroset_from_pairs([(0.95, 300.0)], T16)
        with pytest.raises(DegenerateBlock):
            build_blocks(zs, T16, alpha=0.6, c_star=1.0)

    def test_requires_tall_enough_T(self):
        zs = zeroset_from_pairs([], 512.0)
        with pytest.raises(ParameterOutOfRange, match=r"T must be at least 2\^10"):
            build_blocks(zs, 512.0, **SUITE)

    def test_split_matches_the_scan_up_to_the_ceiling(self):
        blocks = build_blocks(zeroset_from_pairs([], MAX_T), MAX_T, **SUITE)
        assert blocks.l.tolist() == list(range(BLOCK_MIN_L, 20))
        assert blocks.starts[-1] == 277_730
        for l, m, H, c_l in zip(blocks.l, blocks.m, blocks.H, blocks.c_l):
            assert (m, H, c_l) == scanned_block_split(2 ** int(l))
            assert 0.5 <= c_l <= 1.0

    @pytest.mark.parametrize("alpha", [0.5, 0.3, 1.0, 1.2])
    def test_alpha_outside_the_strip_is_typed(self, alpha):
        zs = zeroset_from_pairs([], T16)
        with pytest.raises(ParameterOutOfRange, match=r"alpha must lie in \(1/2, 1\)"):
            build_blocks(zs, T16, alpha, 0.1)

    @pytest.mark.parametrize(
        "T, c_star", [(math.inf, 0.1), (math.nan, 0.1), (T16, math.nan), (T16, math.inf),
                      (T16, -1.0), (T16, 0.0),
                      # above MAX_T; T = 1e12 asked numpy for an 842 GiB level array
                      (np.nextafter(float(MAX_T), math.inf), 0.1), (2.0**24, 0.1), (1e12, 0.1),
                      (2.0**40, 0.1)],
    )
    def test_rejects_nonsense_parameters(self, T, c_star):
        zs = zeroset_from_pairs([], T16)
        with pytest.raises(ParameterOutOfRange):
            build_blocks(zs, T, 0.6, c_star)


def per_zero_levels(blocks, zeroset, alpha, c_star):
    """The joined beta_j* and has_zero of all blocks, built block by block
    and one zero at a time (the reference loop)."""
    out = []
    for U, m, h in zip(blocks.U, blocks.m, blocks.H):
        margin = c_star / math.log(math.log(2.0 * (U + 12)))
        beta_raw = np.full(m + 2, -np.inf)
        sel = (zeroset.beta >= alpha) & (zeroset.gamma >= U - 2 * h) & (
            zeroset.gamma <= 2 * U + 2 * h
        )
        for b, g in zip(zeroset.beta[sel], zeroset.gamma[sel]):
            lo = max(1, math.ceil((g - U) / (2 * h) - 0.5))
            hi = min(m, math.floor((g - U) / (2 * h) + 1.5))
            if lo <= hi:
                idx = np.arange(lo, hi + 1)
                beta_raw[idx] = np.maximum(beta_raw[idx], b)
        has_zero = np.isfinite(beta_raw[1 : m + 1])
        out.append((np.where(has_zero, beta_raw[1 : m + 1] + margin, alpha), has_zero))
    star, has_zero = zip(*out)
    return np.concatenate(star), np.concatenate(has_zero)


def edge_zero_set(seed: int) -> list[tuple[float, float]]:
    """Zeros in the overlaps [U - 2H, U) and (2U, 2U + 2H] of every block,
    on their ends, exactly on powers of two, and at odd multiples of H above
    U, exactly 2H from the middle of an interval."""
    rng = np.random.default_rng(seed)
    pairs = []
    blocks = build_blocks(zeroset_from_pairs([], T16), T16, **SUITE)
    for U, m, h in zip(blocks.U, blocks.m, blocks.H):
        heights = [U - 2 * h, U - h * rng.uniform(0.0, 2.0), np.nextafter(U, 0.0), U,
                   np.nextafter(2 * U, np.inf), 2 * U + h * rng.uniform(0.0, 2.0), 2 * U + 2 * h,
                   *(U + (2 * rng.integers(0, m, 4) + 1) * h)]
        pairs += [(rng.uniform(0.6, 0.88), g) for g in heights]
    return pairs


class TestBlocksAgainstPerZeroLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_mix(self, seed):
        zs = synthetic_zero_set(seed)
        blocks = build_blocks(zs, T16, **SUITE)
        star, has_zero = per_zero_levels(blocks, zs, **SUITE)
        assert np.array_equal(blocks.levels, star) and np.array_equal(blocks.has_zero, has_zero)

    @pytest.mark.parametrize("seed", range(3))
    def test_overlaps_and_powers_of_two(self, seed):
        zs = zeroset_from_pairs(edge_zero_set(seed), T16)
        blocks = build_blocks(zs, T16, **SUITE)
        assert blocks.has_zero.any()
        star, has_zero = per_zero_levels(blocks, zs, **SUITE)
        assert np.array_equal(blocks.levels, star) and np.array_equal(blocks.has_zero, has_zero)

    def test_bundled_table_with_elevated_copies(self, zero_table_path):
        # the table's own zeros (all at 1/2) plus an elevated copy of every tenth
        table = load_zeros(zero_table_path, T16)
        pairs = list(zip(table.beta, table.gamma))
        pairs += [(0.7, g) for g in table.gamma[::10]]
        for zs in (table, zeroset_from_pairs(pairs, T16)):
            blocks = build_blocks(zs, T16, **SUITE)
            star, has_zero = per_zero_levels(blocks, zs, **SUITE)
            assert np.array_equal(blocks.levels, star)
            assert np.array_equal(blocks.has_zero, has_zero)

    def test_degenerate_block_named_as_before(self):
        # the first block whose level reaches 1 is reported, with its worst interval
        zs = zeroset_from_pairs([(0.95, 300.0), (0.97, 5000.0)], T16)
        with pytest.raises(DegenerateBlock, match=r"^block l=8: beta\*_\d+ = 1\.\d{4} >= 1"):
            build_blocks(zs, T16, alpha=0.6, c_star=1.0)


def per_interval_assembly(blocks, params):
    """Vertices, labels and case tally from the level and the lower end of
    every interval, with the tally scanning all levels by five masks (the
    reference assembly, as it was before the junction assembly)."""
    slab_level, r = 0.5 + params.eta, 1.0 / params.logx
    T_eff = float(2 ** (blocks.l[-1] + 1))
    levels = np.concatenate([[slab_level], blocks.levels])
    lows = np.concatenate(
        [[r / 2.0], *(U + 2 * np.arange(m) * H for U, m, H in zip(blocks.U, blocks.m, blocks.H))]
    )
    k = np.flatnonzero(np.diff(levels)) + 1
    t_k = lows[k]
    t_h = np.where(levels[k] > levels[k - 1], t_k - params.corner_eps, t_k + params.corner_eps)
    upper = np.empty(2 * k.size + 4, dtype=complex)
    upper[:3] = [complex(1.0 + r, 0.0), complex(1.0 + r, r / 2.0), complex(slab_level, r / 2.0)]
    upper.real[3:-1:2] = levels[k - 1]
    upper.real[4:-1:2] = levels[k]
    upper.imag[3:-1] = np.repeat(t_h, 2)
    upper[-1] = complex(levels[-1], T_eff)
    pieces = np.full(2 * k.size + 1, PIECE_VJ, dtype=object)
    pieces[0] = PIECE_V_STAR
    at_edge = np.abs(t_k - 2.0 ** np.round(np.log2(t_k))) < 1e-9
    pieces[1::2] = np.where(at_edge, PIECE_H0L, PIECE_HJ)
    vertices = np.concatenate([np.conj(upper[:0:-1]), upper])
    labels = (PIECE_MIRROR,) * (upper.size - 1) + (PIECE_GAMMA, PIECE_GAMMA) + tuple(pieces.tolist())

    cur, prev = levels[1:], levels[:-1]
    nxt = np.append(levels[2:], levels[-1])  # top terminates flat
    shapes = (
        (cur < prev) & (cur < nxt),
        (cur > prev) & (cur > nxt),
        (prev < cur) & (cur < nxt),
        (nxt < cur) & (cur < prev),
    )
    counts = [int(mask.sum()) for mask in shapes]
    tally = {f"v_case{n}": c for n, c in enumerate(counts, start=1)}
    tally.update({f"h_case{n}": c for n, c in enumerate(counts, start=1)})
    tally["ties"] = int(((cur == prev) | (cur == nxt)).sum())
    return tuple(vertices.tolist()), labels, tally


def top_interval_zero_set() -> list[tuple[float, float]]:
    """One zero that elevates the top interval alone, and one just below
    the top block's lower end U."""
    blocks = build_blocks(zeroset_from_pairs([], T16), T16, **SUITE)
    U, h = blocks.U[-1], blocks.H[-1]
    return [(0.8, 2.0 * U - 0.5 * h), (0.75, U - 0.5 * h)]


class TestJunctionsAgainstPerIntervalAssembly:
    """The junction assembly gives the per-interval assembly's vertices,
    labels and case tally, to the bit."""

    def check(self, pairs, T=T16, **kw):
        zs = zeroset_from_pairs(pairs, T)
        blocks = build_blocks(zs, T16, **SUITE)
        path = assemble_contour(blocks, zs, 0.6, c_star=0.1, **kw)
        want = per_interval_assembly(blocks, path.params)
        assert (path.vertices, path.piece_labels, path.case_tally) == want
        return path

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_mix(self, seed):
        zs = synthetic_zero_set(seed)
        path = self.check(list(zip(zs.beta, zs.gamma)))
        assert sum(path.case_tally[f"v_case{n}"] for n in range(1, 5)) > 0

    def test_adjacent_junctions(self):
        # a two-step staircase up and one down, a zero at 2^12 + 0.05 that
        # lifts one interval, and two zeros that leave interval 100 of the
        # block at 2^12 alone between them: each shape, from junctions on
        # consecutive intervals
        blocks = build_blocks(zeroset_from_pairs([], T16), T16, **SUITE)
        h = blocks.H[12 - BLOCK_MIN_L]
        mid_99 = blocks.U[12 - BLOCK_MIN_L] + 197 * h
        pairs = [(0.7, 6000.0), (0.8, 6001.2), (0.8, 9000.0), (0.7, 9001.2), (0.8, 2.0**12 + 0.05),
                 (0.7, mid_99 - 0.5 * h), (0.8, mid_99 + 4.5 * h)]
        path = self.check(pairs)
        assert [path.case_tally[f"v_case{n}"] for n in range(1, 5)] == [1, 1, 1, 1]

    def test_ties_only(self):
        # one wide plateau: two junctions, far apart, and every span a tie
        path = self.check([(0.7, g) for g in np.arange(3000.0, 3100.0, 0.5)])
        assert len(path.vertices) == 15 and path.case_tally["ties"] == 19320

    def test_elevated_top_interval(self):
        path = self.check(top_interval_zero_set())
        assert path.vertices[-1].real > 0.6  # the top vertical is the elevated level

    @pytest.mark.parametrize("seed", range(3))
    def test_junctions_at_powers_of_two(self, seed):
        path = self.check(edge_zero_set(seed), T=2.0**17)
        assert PIECE_H0L in path.piece_labels

    def test_empty_set(self):
        path = self.check([])
        assert len(path.vertices) == 7 and path.case_tally["ties"] == 19320

    @pytest.mark.parametrize("kw", [dict(eta=0.05), dict(corner_eps=0.01, logx=2.0)])
    def test_lowered_slab_and_other_offsets(self, kw):
        # eta < alpha - 1/2 puts a junction on the first interval
        zs = synthetic_zero_set(4)
        self.check(list(zip(zs.beta, zs.gamma)), **kw)


class TestAssembly:
    def test_empty_set_is_flat_at_alpha(self):
        zs = zeroset_from_pairs([], T16)
        path = build_path(zs)
        rep = validate_contour(path, zs, 0.6)
        assert rep.all_ok
        verticals = [
            (a.real, a.imag, b.imag)
            for a, b in zip(path.vertices[:-1], path.vertices[1:])
            if a.real == b.real and abs(b.imag) > 1.0
        ]
        assert all(sig == 0.6 for sig, *_ in verticals)
        assert path.case_tally["v_case1"] == 0
        assert contour_abscissa(path, 1000.0) == 0.6

    def test_isolated_peak_shapes(self):
        # a boundary-hugging zero elevates a single interval of the upper
        # block and the tail intervals of the lower block, whose margin is
        # larger: strict local-max (case 2) plus descent (case 4) appear
        u = 2.0**12
        zs = zeroset_from_pairs([(0.8, u + 0.05)], T16)
        path = build_path(zs)
        assert path.case_tally["v_case2"] >= 1
        assert path.case_tally["v_case4"] >= 1
        rep = validate_contour(path, zs, 0.6)
        assert rep.all_ok

    def test_staircase_shapes(self):
        # overlapping windows at distinct levels give strict ascents/descents
        g = 6000.0
        zs_up = zeroset_from_pairs([(0.7, g), (0.8, g + 1.2)], T16)
        path_up = build_path(zs_up)
        assert path_up.case_tally["v_case3"] >= 1
        assert validate_contour(path_up, zs_up, 0.6).all_ok
        zs_down = zeroset_from_pairs([(0.8, g), (0.7, g + 1.2)], T16)
        path_down = build_path(zs_down)
        assert path_down.case_tally["v_case4"] >= 1
        assert validate_contour(path_down, zs_down, 0.6).all_ok

    def test_clearance_margin_honored(self):
        zs = synthetic_zero_set(12)
        path = build_path(zs)
        eps = path.params.corner_eps
        for b, g in zip(zs.beta, zs.gamma):
            if b < 0.6:
                continue
            u = 2 ** max(int(math.floor(math.log2(g))), BLOCK_MIN_L)
            need = b + 0.1 / math.log(math.log(2.0 * (u + 12))) - eps
            assert contour_abscissa(path, g) >= need - 1e-12

    def test_adversarial_corruption_is_caught(self):
        zs = zeroset_from_pairs([(0.8, 5000.0)], T16)
        blocks = build_blocks(zs, T16, **SUITE)
        blocks.levels[blocks.has_zero] = 0.6  # forge the elevation away
        path = assemble_contour(blocks, zs, 0.6, c_star=0.1)
        rep = validate_contour(path, zs, 0.6)
        assert not rep.clearance_ok
        assert any(abs(g - 5000.0) < 1e-9 for _, g, _, _ in rep.clearance_failures)

    def test_broken_chain_and_mirror_are_caught(self):
        zs = synthetic_zero_set(5)
        path = build_path(zs)
        assert validate_contour(path, zs, 0.6).all_ok
        vs = list(path.vertices)
        mid = len(vs) // 2  # the shared vertex 1 + r on the real axis
        # a repeated vertex is a zero-length piece
        doubled = dataclasses.replace(path, vertices=tuple(vs[: mid + 4] + vs[mid + 3 :]))
        assert not validate_contour(doubled, zs, 0.6).connectivity_ok
        # shifting one upper vertex sideways makes a diagonal and breaks the mirror
        vs[mid + 4] += 1e-6
        rep = validate_contour(dataclasses.replace(path, vertices=tuple(vs)), zs, 0.6)
        assert not rep.connectivity_ok
        assert not rep.mirror_ok

    def test_corner_eps_bound(self):
        zs = zeroset_from_pairs([], T16)
        blocks = build_blocks(zs, T16, **SUITE)
        with pytest.raises(ParameterOutOfRange, match=r"corner_eps must lie in \(0, H/4\)"):
            assemble_contour(blocks, zs, 0.6, c_star=0.1, corner_eps=1.0)

    @pytest.mark.parametrize(
        "kw",
        [dict(eta=math.nan), dict(eta=math.inf), dict(corner_eps=math.nan),
         dict(corner_eps=math.inf), dict(c_star=math.nan), dict(c_star=-math.inf),
         dict(c_star=-1.0), dict(logx=math.nan), dict(logx=math.inf), dict(logx=0.0),
         dict(logx=-1.0), dict(logx=0.999), dict(eta=0.0), dict(eta=-0.05), dict(eta=0.2)],
    )
    def test_rejects_nonsense_parameters(self, kw):
        zs = zeroset_from_pairs([], T16)
        blocks = build_blocks(zs, T16, **SUITE)
        with pytest.raises(ParameterOutOfRange):
            assemble_contour(blocks, zs, 0.6, **{"c_star": 0.1, **kw})

    def test_smallest_logx_is_accepted(self):
        zs = zeroset_from_pairs([], T16)
        path = build_path(zs, logx=1.0)
        assert path.vertices[len(path.vertices) // 2] == complex(2.0, 0.0)
        assert validate_contour(path, zs, 0.6).all_ok

    # SHA-256 of repr((vertices, piece_labels, case_tally)) at T = 2^16,
    # alpha 0.6, C* 0.1, recorded from the per-interval assembly this one
    # replaced; the empty set and the table (all zeros on the critical line)
    # give the same flat path
    REFERENCE_DIGESTS = {
        "seed 0": "4792e5d120fcbf6671c2b352dd6181c574f4c1c1b1c1ef33b8b77af2f178dc82",
        "seed 7": "622a39f9718b52adca26657a43710550db5a342d5193c81210beb86f008cbc2e",
        "seed 42": "1730249de687047a275c676a05fd6edbdd2b2c0e76a63c6c04aa0447999896a5",
        "empty": "a85d06bbf875fd0f82b13286db4a496693d1c5b9c22c38212dc48ab669ab3b9a",
        "table": "a85d06bbf875fd0f82b13286db4a496693d1c5b9c22c38212dc48ab669ab3b9a",
    }

    @pytest.mark.parametrize("case", sorted(REFERENCE_DIGESTS))
    def test_matches_reference_digest(self, case, zero_table_path):
        if case == "empty":
            zs = zeroset_from_pairs([], T16)
        elif case == "table":
            zs = load_zeros(zero_table_path, T16)
        else:
            zs = synthetic_zero_set(int(case.split()[1]))
        path = build_path(zs)
        text = repr((path.vertices, path.piece_labels, path.case_tally))
        assert hashlib.sha256(text.encode()).hexdigest() == self.REFERENCE_DIGESTS[case]

    def test_randomized_suite_small(self):
        for seed in range(10):
            zs = synthetic_zero_set(seed)
            path = build_path(zs)
            rep = validate_contour(path, zs, 0.6)
            assert rep.all_ok, (seed, rep.clearance_failures[:3])


class TestZeroDensity:
    @pytest.mark.parametrize("sigma", [0.49, 1.01, -1.0])
    def test_sigma_outside_its_range_is_typed(self, sigma):
        zs = zeroset_from_pairs([(0.8, 10.0)], 1000.0)
        with pytest.raises(ParameterOutOfRange, match=r"sigma must lie in \[1/2, 1\]"):
            zero_density_count(zs, sigma, 1000.0)

    def test_table_above_half_is_empty(self, zero_table_path):
        zs = load_zeros(zero_table_path, 9999.0)
        assert zero_density_count(zs, 0.6, 9999.0).count == 0

    def test_synthetic_direct_count(self):
        zs = zeroset_from_pairs([(0.8, 10.0), (0.75, 500.0), (0.7, 999.0), (0.6, 1.0)], 1000.0)
        rep = zero_density_count(zs, 0.7, 1000.0)
        assert rep.count == 3
        assert rep.ratio > 0 and math.isfinite(rep.ratio)

    def test_table_count_below_237(self, zero_table_path):
        zs = load_zeros(zero_table_path, 10_000.0)
        rep = zero_density_count(zs, 0.5, 237.0)
        assert rep.count == 100

    def test_exceptional_accounting(self):
        T = 1.0e4
        sigma0 = 0.5 / math.log(math.log(T))
        zs = zeroset_from_pairs([(1.0 - sigma0 / 2.0, 5000.0), (0.55, 100.0)], T)
        rep = zero_density_count(zs, 0.5, T, c_star=0.5, eps=0.01)
        assert rep.exceptional_count == 1
        assert rep.exceptional_envelope == pytest.approx(T**0.01)


def test_log_zeta_diagnostic(zero_table_path):
    zs = load_zeros(zero_table_path, 2.0**12)
    path = build_path(zs)
    rep = log_zeta_diagnostic(path, samples=64)
    assert rep["samples"] > 0
    assert math.isfinite(rep["max_abs_log_zeta"])
    assert rep["cap"] > 0


@pytest.mark.parametrize("samples", [0, -1, -128])
def test_log_zeta_diagnostic_refuses_fewer_than_one_sample(samples, monkeypatch):
    # these sampled one point, through max(1, samples)
    from delange import special

    path = build_path(synthetic_zero_set(3, T=2.0**12))
    monkeypatch.setattr(special, "zeta_batch", None)
    with pytest.raises(ParameterOutOfRange, match=f"samples={samples} must be at least 1"):
        log_zeta_diagnostic(path, samples=samples)


def test_log_zeta_diagnostic_samples_the_upper_vertical_midpoints():
    import mpmath

    # log x = 2 puts the loop's closing vertical at 1.5, clear of the 0.1
    # exclusion disc, so its piece below the real axis would be sampled too
    # if it leaked in
    zs = synthetic_zero_set(3, T=2.0**12)
    path = build_path(zs, logx=2.0)
    v = path.vertices
    mids = []
    for a, b in zip(v[:-1], v[1:]):
        lo, hi = sorted((a.imag, b.imag))
        if a.real == b.real and hi > 0:
            s = complex(a.real, (max(lo, 0.0) + hi) / 2.0)
            if abs(s - 1.0) > 0.1:
                mids.append(s)
    rep = log_zeta_diagnostic(path, samples=len(v))
    assert rep["samples"] == len(mids)
    want = max(float(abs(mpmath.log(mpmath.zeta(mpmath.mpc(s.real, s.imag))))) for s in mids)
    assert abs(rep["max_abs_log_zeta"] - want) <= 1e-9


def test_vertex_geometry_is_axis_parallel():
    zs = synthetic_zero_set(99)
    path = build_path(zs)
    for a, b in zip(path.vertices[:-1], path.vertices[1:]):
        assert (a.real == b.real) != (a.imag == b.imag)
