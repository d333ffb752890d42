"""Tests of the benchmark itself: every oracle rejects a corrupted result,
inputs are fixed by the seed, and a tiny run prints every metric.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from delange import contour, families, perron, sieve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def table():
    return oracles.PrimeTable()


def run_once(wl, seed=0):
    """Inputs, context, operations and first results of a tiny workload."""
    inp = wl.inputs(seed, tiny=True)
    ctx = wl.setup(tiny=True)
    ops = wl.ops(ctx, inp)
    return inp, ctx, ops, [op.fn() for op in ops]


# --- oracles reject corrupted results -----------------------------------------

def test_factorization_oracle_rejects_dropped_prime(table):
    x = 10**6
    facs = [table.factor(n) for n in range(x + 1, x + 101)]
    assert oracles.check_factorizations(facs, x, [x + 6], table) is None
    k = next(i for i, f in enumerate(facs) if len(f) >= 2)
    dropped = list(facs)
    dropped[k] = facs[k][1:]
    assert oracles.check_factorizations(dropped, x, [], table) is not None
    # a wrong factorization with the right product is caught by the sample
    swapped = list(facs)
    swapped[0] = ((x + 1, 1),)
    assert oracles.check_factorizations(swapped, x, [x + 1], table) is not None


@pytest.mark.parametrize("spec", ["divisor:2", "divisor:1.5", "omega:2", "sqfree"])
def test_window_sum_oracle_rejects_perturbed_sum(spec, table):
    fam = families.family_from_spec(spec)
    x, y = 10**9 + 7, 300
    got = sieve.exact_sum(fam, sieve.Window(x, y))
    assert oracles.check_window_sum(fam, x, y, got, table, families.f_value) is None
    assert oracles.check_window_sum(fam, x, y, got + 1, table, families.f_value) is not None
    want = oracles.closed_form_window_sum(spec, x, y, table)
    if want is not None:
        assert oracles.check_exact(got, want) is None
        assert oracles.check_exact(got - 1, want) is not None


def test_counting_formulas_match_brute_force(table):
    n = 5000
    d = sum(len([k for k in range(1, m + 1) if m % k == 0]) for m in range(1, n + 1))
    q = sum(all(m % (p * p) for p in range(2, math.isqrt(m) + 1)) for m in range(1, n + 1))
    assert oracles.divisor_summatory(n) == d
    assert oracles.squarefree_count(n, table) == q


def test_perron_oracle_rejects_offset_value():
    fam = families.family_from_spec("divisor:2")
    win = sieve.Window(2000, 200)
    val = perron.perron_line_sum(fam, win, 50.0)
    exact = sieve.exact_sum(fam, win)
    assert oracles.check_perron(val, exact, 2000, 50.0) is None
    assert oracles.check_perron(val + 2000, exact, 2000, 50.0) is not None


def test_hankel_and_residue_oracles_reject_perturbed_values():
    val = perron.hankel_main_term(1e6, 0.5, 0)
    closed = math.log(1e6) ** -0.5 / math.gamma(0.5)
    assert oracles.check_hankel(val, closed) is None
    assert oracles.check_hankel(val * 1.01, closed) is not None
    rep = perron.ml_integral_check(2.0, 0, sieve.Window(10**4, 10**3))
    assert oracles.check_residue(rep.value, 2, 10**4, 10**3) is None
    assert oracles.check_residue(rep.value + 1e-3, 2, 10**4, 10**3) is not None


def _contour_with_zero():
    wl = workloads.WORKLOADS["contour-suite"]
    inp = wl.inputs(0, tiny=True)
    zs = contour.zeroset_from_pairs(inp["sets"][0], inp["T"])
    blocks = contour.build_blocks(zs, inp["T"], wl.alpha, wl.c_star)
    path = contour.assemble_contour(blocks, zs, wl.alpha, c_star=wl.c_star)
    return wl, inp, zs, path


def test_contour_oracle_rejects_vertex_moved_onto_zero():
    wl, inp, zs, path = _contour_with_zero()
    args = (zs.beta.tolist(), zs.gamma.tolist(), wl.alpha, path.covered_top)
    assert oracles.check_contour_clearance(path.vertices, *args) is None
    i = int(next(k for k in range(len(zs)) if zs.beta[k] >= wl.alpha))
    zero = complex(zs.beta[i], zs.gamma[i])
    vs = list(path.vertices)
    # the upper vertical piece that passes the zero, shifted onto its abscissa
    k = next(k for k in range(len(vs) - 1)
             if vs[k].real == vs[k + 1].real and vs[k].imag <= zero.imag <= vs[k + 1].imag)
    n = len(vs)
    for j in (k, k + 1):
        vs[j] = complex(zero.real, vs[j].imag)
        vs[n - 1 - j] = vs[j].conjugate()
    assert oracles.check_contour_clearance(vs, *args) is not None
    # a single vertex put on the zero (with its mirror image)
    single = list(path.vertices)
    single[k] = zero
    single[n - 1 - k] = zero.conjugate()
    assert oracles.check_contour_clearance(single, *args) is not None
    moved = dataclasses.replace(path, vertices=tuple(single))
    report = contour.validate_contour(moved, zs, wl.alpha)
    density = contour.zero_density_count(zs, wl.sigma, inp["T"])
    diag = contour.log_zeta_diagnostic(path)
    op = workloads.Op("contour", lambda: None, {"zeros": zs})
    bad = wl.check({}, inp, [op], [(0, moved, report, density, diag)], None)
    assert bad[0] is not None


def test_density_oracle_rejects_miscount():
    _, inp, zs, _ = _contour_with_zero()
    n = int(((zs.beta >= 0.7) & (zs.gamma <= inp["T"])).sum())
    assert oracles.check_density(n, zs.beta, zs.gamma, 0.7, inp["T"]) is None
    assert oracles.check_density(n + 1, zs.beta, zs.gamma, 0.7, inp["T"]) is not None


def test_cli_oracle_rejects_changed_value():
    wl = workloads.WORKLOADS["cli-cold"]
    from delange import meanvalue

    argv = ["theta", "--kappa", "1.5", "--delta", "0.5", "--eta1", "0.3333333", "--eps", "0.01"]
    val = meanvalue.theta(1.5, 0.5, meanvalue.ThetaRegime(eta1=0.3333333, epsilon=0.01)).value
    assert wl._compare(argv, f"theta = {val!r}\nbranch = case1\n", {}, None) is None
    other = math.nextafter(val, 1.0)
    assert wl._compare(argv, f"theta = {other!r}\nbranch = case1\n", {}, None) is not None


def test_workload_checks_flag_corrupted_records(table):
    wl = workloads.WORKLOADS["window-sums"]
    inp, ctx, ops, res = run_once(wl)
    assert all(v is None for v in wl.check(ctx, inp, ops, res, table).values())
    k = next(i for i, op in enumerate(ops) if op.params.get("family") == "divisor:2")
    (rec,) = res[k]
    bad = list(res)
    bad[k] = [dataclasses.replace(rec, exact=rec.exact + 1)]
    fw = len(ops) - 1
    fac = list(res[fw].factors)
    j = next(i for i, f in enumerate(fac) if len(f) >= 2)
    fac[j] = fac[j][1:]
    bad[fw] = dataclasses.replace(res[fw], factors=tuple(fac))
    verdict = wl.check(ctx, inp, ops, bad, table)
    assert verdict[k] is not None and verdict[fw] is not None

    wl = workloads.WORKLOADS["perron-line"]
    inp, ctx, ops, res = run_once(wl)
    assert all(v is None for v in wl.check(ctx, inp, ops, res, table).values())
    hankel, ml = res[-1]
    bad = list(res)
    bad[0] = res[0] + 10 * inp["line"][0]["x"]
    bad[-1] = ([v * 1.01 for v in hankel], ml)
    verdict = wl.check(ctx, inp, ops, bad, table)
    assert verdict[0] is not None and verdict[len(ops) - 1] is not None
    bad[-1] = (hankel, [dataclasses.replace(r, value=r.value + 1e-3) for r in ml])
    assert wl.check(ctx, inp, ops, bad, table)[len(ops) - 1] is not None


# --- inputs, spans, runs --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    wl = workloads.WORKLOADS[name]
    a, b = wl.inputs(7, tiny=False), wl.inputs(7, tiny=False)
    assert run.inputs_digest(a) == run.inputs_digest(b)
    assert run.inputs_digest(a) != run.inputs_digest(wl.inputs(8, tiny=False))


def test_self_time_subtracts_covered_children():
    s = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 4.0},
        {"id": 3, "parent": 0, "start": 6.0, "end": 7.0},
        {"id": 4, "parent": 3, "start": 6.5, "end": 7.0},
    ]
    assert spans.self_times(s) == [6.0, 2.0, 2.0, 0.5, 0.5]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(out["metrics"][m["name"]]["value"])
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in listed)
        assert "fail_ratio = 0.0" in proc.stdout
        if name == "window-sums":
            assert "ints_per_s.low = " in proc.stdout and "ints_per_s.high = " in proc.stdout
    assert "inputs_digest = " in proc.stdout


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window-sums", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
