"""Seeded workloads of the delange benchmark.

Every workload turns a seed into a JSON-able description of its inputs (the
digest of that description identifies what a run measured), prepares the
constant caches it needs (the set-up that ``setup_s`` times), lists its
operations, and checks their results against the oracles in ``oracles.py``
outside the timed region.

Operations call delange through module attributes at call time, so the
tracing wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    params: dict


def _log_uniform_int(rng: random.Random, lo: float, hi: float) -> int:
    return int(10 ** rng.uniform(lo, hi))


# --- window-sums ---------------------------------------------------------------

class WindowSums:
    """run_experiment records and factor_window in two height bands."""

    in_process = True
    name = "window-sums"
    families = ("divisor:2", "divisor:1.5", "omega:2", "sqfree")
    N = 1
    order = 8  # run_experiment's series order for N = 1
    sub_window = 200
    samples = 48

    def inputs(self, seed: int, tiny: bool) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        if tiny:
            bands = {"low": (6.0, 7.0, 3 * 2**10, 2**8, 2), "high": (8.0, 9.0, 2**10, 2**6, 1)}
            fw_y = 256
        else:
            # low: array work over 3 chunks shared by 2 threads; high: one chunk,
            # bound by the per-prime loop over pi(sqrt(x)) ~ 46k..78k primes
            bands = {"low": (8.0, 9.0, 3 * 2**20, 2**16, 2), "high": (11.5, 12.0, 2**18, 2**14, 1)}
            fw_y = 2**16
        windows = []
        for band, (lo, hi, y_nom, jitter, workers) in bands.items():
            for i, spec in enumerate(self.families):
                # family i always gets height stratum i, so the cost of a
                # round does not depend on which stratum the seed draws
                lg = lo + (hi - lo) * (i + rng.uniform(0.25, 0.75)) / len(self.families)
                x = int(10**lg)
                y = y_nom - rng.randrange(jitter)
                windows.append({
                    "family": spec, "band": band, "x": x,
                    "theta": math.log(y) / math.log(x), "workers": workers,
                    "sub_offset": rng.randrange(max(1, y - 2 * self.sub_window)),
                })
        factor = []
        for band, (lo, hi) in (("low", (8.4, 8.6)), ("high", (11.75, 11.85))):
            if tiny:
                lo, hi = lo - 2.0, hi - 3.0
            x = _log_uniform_int(rng, lo, hi)
            factor.append({
                "band": band, "x": x, "y": fw_y,
                "sample": sorted(rng.sample(range(x + 1, x + fw_y + 1), min(self.samples, fw_y))),
            })
        return {"windows": windows, "factor_windows": factor, "N": self.N}

    def setup(self, tiny: bool) -> dict:
        from delange import families, series

        fams = {s: families.family_from_spec(s) for s in self.families}
        coeffs = {s: series.g_lambda_coeffs(f, self.order) for s, f in fams.items()}
        return {"families": fams, "coeffs": coeffs}

    def ops(self, ctx: dict, inp: dict) -> list[Op]:
        from delange import meanvalue, sieve

        out = []
        for w in inp["windows"]:
            fam = ctx["families"][w["family"]]
            out.append(Op(
                f"run_experiment {w['family']} {w['band']}",
                lambda fam=fam, w=w: meanvalue.run_experiment(
                    fam, [w["x"]], w["theta"], inp["N"], workers=w["workers"]
                ),
                w,
            ))
        for fw in inp["factor_windows"]:
            win = sieve.Window(fw["x"], fw["y"])
            out.append(Op(f"factor_window {fw['band']}", lambda win=win: sieve.factor_window(win), fw))
        return out

    def check(self, ctx: dict, inp: dict, ops: list[Op], results: list, table) -> dict:
        from delange import families, sieve

        bad = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            p = op.params
            if op.label.startswith("factor_window"):
                bad[i] = oracles.check_factorizations(res.factors, p["x"], p["sample"], table)
                continue
            (rec,) = res
            spec, fam = p["family"], ctx["families"][p["family"]]
            want = oracles.closed_form_window_sum(spec, rec.x, rec.y, table)
            reasons = [
                None if rec.x == p["x"] else f"record for x={rec.x}, asked {p['x']}",
                None if want is None else oracles.check_exact(rec.exact, want),
                oracles.check_prediction(
                    rec.predicted, fam.params.kappa, ctx["coeffs"][spec].lambda_l,
                    rec.x, rec.y, inp["N"],
                ),
                None if 0 < rec.remainder_bound < math.inf else f"R_N = {rec.remainder_bound}",
            ]
            sub_x = rec.x + p["sub_offset"]
            sub = sieve.exact_sum(fam, sieve.Window(sub_x, self.sub_window))
            reasons.append(oracles.check_window_sum(
                fam, sub_x, self.sub_window, sub, table, families.f_value
            ))
            bad[i] = next((r for r in reasons if r), None)
        return bad


# --- perron-line ---------------------------------------------------------------

class PerronLine:
    """Perron line integrals plus a few Hankel-loop checks."""

    in_process = True
    name = "perron-line"
    families = ("one", "divisor:2", "sqfree")
    hankel = ((0.5, 0), (1.5, 0), (1.5, 1))
    residues = (1, 2)

    def inputs(self, seed: int, tiny: bool) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        heights = (20.0, 40.0, 80.0) if tiny else (250.0, 500.0, 1000.0)
        line = []
        for spec in self.families:
            for T in heights:
                x = _log_uniform_int(rng, 3.0, 4.0 if tiny else 5.0)
                line.append({"family": spec, "x": x, "y": x // 10, "T": T})
        loops = [{"kappa": k, "l": l, "u": 10 ** rng.uniform(6.0, 9.0)} for k, l in self.hankel]
        ml = []
        for k in self.residues:
            x = _log_uniform_int(rng, 4.0, 6.0)
            ml.append({"kappa": k, "x": x, "y": x // 10})
        return {"line": line, "hankel": loops, "ml": ml}

    def setup(self, tiny: bool) -> dict:
        from delange import families

        return {"families": {s: families.family_from_spec(s) for s in self.families}}

    def ops(self, ctx: dict, inp: dict) -> list[Op]:
        from delange import perron, sieve

        out = []
        for p in inp["line"]:
            fam, win = ctx["families"][p["family"]], sieve.Window(p["x"], p["y"])
            out.append(Op(
                f"perron_line_sum {p['family']} T={p['T']:g}",
                lambda fam=fam, win=win, T=p["T"]: perron.perron_line_sum(fam, win, T),
                p,
            ))
        # the loop checks take milliseconds each; as one operation they keep
        # the median operation inside the line integrals
        def loops():
            return (
                [perron.hankel_main_term(p["u"], p["kappa"], p["l"]) for p in inp["hankel"]],
                [perron.ml_integral_check(float(p["kappa"]), 0, sieve.Window(p["x"], p["y"]))
                 for p in inp["ml"]],
            )

        out.append(Op("hankel_main_term and ml_integral_check", loops, {}))
        return out

    def check(self, ctx: dict, inp: dict, ops: list[Op], results: list, table) -> dict:
        from delange import sieve

        bad = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            p = op.params
            if op.label.startswith("perron_line_sum"):
                exact = sieve.exact_sum(ctx["families"][p["family"]], sieve.Window(p["x"], p["y"]))
                want = oracles.closed_form_window_sum(p["family"], p["x"], p["y"], table)
                bad[i] = oracles.check_exact(exact, want) or oracles.check_perron(
                    res, exact, p["x"], p["T"]
                )
            else:
                hankel, ml = res
                reasons = [
                    oracles.check_hankel(v, math.log(q["u"]) ** (q["kappa"] - q["l"] - 1.0)
                                         / math.gamma(q["kappa"] - q["l"]))
                    for v, q in zip(hankel, inp["hankel"])
                ] + [oracles.check_residue(r.value, q["kappa"], q["x"], q["y"])
                     for r, q in zip(ml, inp["ml"])]
                bad[i] = next((r for r in reasons if r), None)
        return bad


# --- contour-suite -------------------------------------------------------------

class ContourSuite:
    """Contour build, validation and diagnostics over seeded zero sets."""

    in_process = True
    name = "contour-suite"
    alpha = 0.6
    c_star = 0.1
    sigma = 0.7

    def inputs(self, seed: int, tiny: bool) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        T = 2.0**12 if tiny else 2.0**16
        top = int(math.log2(T))
        sets = []
        for _ in range(4 if tiny else 100):
            # the mix of acceptance criterion 7: uniform zeros, clustered
            # pairs, and zeros hugging dyadic boundaries
            pairs = []
            for _ in range(60):
                pairs.append((rng.uniform(self.alpha - 0.03, 0.88), rng.uniform(2.0**7, T - 16.0)))
            for _ in range(16):
                g = rng.uniform(2.0**7, T - 16.0)
                b1, b2 = sorted(rng.uniform(self.alpha + 0.01, 0.88) for _ in range(2))
                pairs.append((b1, g))
                pairs.append((b2, g + rng.uniform(0.3, 1.5)))
            for _ in range(8):
                u = 2.0 ** rng.randrange(8, top)
                pairs.append((rng.uniform(self.alpha + 0.02, 0.88), u + rng.uniform(0.01, 0.2)))
            sets.append(pairs)
        return {"T": T, "sets": sets}

    def setup(self, tiny: bool) -> dict:
        from delange import contour

        T = 2.0**12 if tiny else 2.0**16
        return {"table": contour.load_zeros(contour.bundled_zero_table(), T)}

    def _op(self, zs, T):
        from delange import contour

        def run():
            blocks = contour.build_blocks(zs, T, self.alpha, self.c_star)
            path = contour.assemble_contour(blocks, zs, self.alpha, c_star=self.c_star)
            report = contour.validate_contour(path, zs, self.alpha)
            density = contour.zero_density_count(zs, self.sigma, T, c_star=self.c_star)
            diag = contour.log_zeta_diagnostic(path)
            return len(blocks), path, report, density, diag

        return run

    def ops(self, ctx: dict, inp: dict) -> list[Op]:
        from delange import contour

        T = inp["T"]
        out = []
        for k, pairs in enumerate(inp["sets"]):
            zs = contour.zeroset_from_pairs(pairs, T)
            out.append(Op(f"contour synthetic #{k}", self._op(zs, T), {"zeros": zs}))
        out.append(Op("contour bundled table", self._op(ctx["table"], T), {"zeros": ctx["table"]}))
        return out

    def check(self, ctx: dict, inp: dict, ops: list[Op], results: list, table) -> dict:
        bad = {}
        for i, (op, (_, path, report, density, diag)) in enumerate(zip(ops, results)):
            zs = op.params["zeros"]
            finite = all(math.isfinite(diag[k]) for k in ("max_abs_log_zeta", "ratio"))
            bad[i] = (
                (None if report.all_ok else "validate_contour rejects the path")
                or oracles.check_contour_clearance(
                    path.vertices, zs.beta.tolist(), zs.gamma.tolist(), self.alpha, path.covered_top
                )
                or oracles.check_density(density.count, zs.beta, zs.gamma, self.sigma, inp["T"])
                or (None if finite and diag["samples"] > 0 else f"log-zeta diagnostic {diag}")
            )
        return bad


# --- cli-cold ------------------------------------------------------------------

class CliCold:
    """One fresh interpreter per `delange` subcommand."""

    in_process = False
    name = "cli-cold"

    def inputs(self, seed: int, tiny: bool) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        x_pred = _log_uniform_int(rng, 6.0, 8.0)
        x_exp = sorted(_log_uniform_int(rng, 5.0, 6.0) for _ in range(2))
        x_perron = _log_uniform_int(rng, 3.0, 4.0)
        kappa = round(rng.uniform(0.5, 4.0), 3)
        return {"commands": [
            ["theta", "--kappa", str(kappa), "--delta", str(rng.choice((0.0, 0.5, 1.0))),
             "--eta1", "0.3333333", "--eps", "0.01"],
            ["coeffs", "--family", "sqfree", "--J", "8" if tiny else "24"],
            ["predict", "--family", "divisor:2", "--x", str(x_pred),
             "--y", str(int(x_pred**0.6)), "--N", "1"],
            ["sum", "--family", "divisor:2", "--x", str(_log_uniform_int(rng, 7.0, 8.0)),
             "--y", "1000" if tiny else "100000"],
            ["experiment", "--family", "divisor:2", "--x-grid", ",".join(map(str, x_exp)),
             "--theta-exp", "0.8", "--N", "1", "--out", "{tmp}/experiment.csv"],
            ["contour", "--zeros", "{zeros}", "--T", "65536", "--alpha", "0.6",
             "--cstar", "0.1", "--out", "{tmp}/contour.json"],
            ["perron-check", "--family", "one", "--x", str(x_perron),
             "--y", str(x_perron // 10), "--T", "100"],
            ["hankel-check", "--u", repr(10 ** rng.uniform(6.0, 8.0)), "--kappa", "0.5", "--l", "0"],
        ]}

    def setup(self, tiny: bool) -> dict:
        import delange.cli  # noqa: F401  (what every invocation imports)

        return {}

    def _argv(self, ctx: dict, cmd: list[str]) -> list[str]:
        return [a.format(tmp=ctx["tmp"], zeros=ctx["zeros"]) for a in cmd]

    def ops(self, ctx: dict, inp: dict) -> list[Op]:
        from delange import contour

        tmp = BENCH / "out" / f"cli-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        ctx.update(tmp=tmp, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   zeros=contour.bundled_zero_table(), tracer=None, span_files=[])
        out = []
        for cmd in inp["commands"]:
            def run(cmd=cmd):
                argv = self._argv(ctx, cmd)
                if ctx["tracer"] is None:
                    launch = [sys.executable, "-m", "delange.cli"]
                else:
                    spans = ctx["tmp"] / f"spans-{len(ctx['span_files'])}.jsonl"
                    ctx["span_files"].append((spans, ctx["tracer"].round))
                    launch = [sys.executable, str(BENCH / "cli_child.py"), "--spans", str(spans), "--"]
                proc = subprocess.run(
                    launch + argv, cwd=ROOT, env=ctx["env"], capture_output=True,
                    text=True, timeout=150,
                )
                files = {}
                for a in argv:
                    if a.startswith(str(ctx["tmp"])):
                        files[Path(a).name] = Path(a).read_text(encoding="utf-8")
                if proc.returncode != 0:
                    raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                return proc.stdout, files

            out.append(Op(f"cli {cmd[0]}", run, {"argv": cmd}))
        return out

    def check(self, ctx: dict, inp: dict, ops: list[Op], results: list, table) -> dict:
        bad = {}
        for i, (op, (stdout, files)) in enumerate(zip(ops, results)):
            argv = self._argv(ctx, op.params["argv"])
            try:
                bad[i] = self._compare(argv, stdout, files, table)
            except (KeyError, ValueError, IndexError) as exc:
                bad[i] = f"cannot read the output of {argv[0]}: {exc!r}"
        return bad

    def _compare(self, argv: list[str], stdout: str, files: dict, table) -> str | None:
        from delange import cli, contour, families, meanvalue, perron, series, sieve

        sub = argv[0]
        a = dict(zip(argv[1::2], argv[2::2]))
        fields = oracles.parse_fields(stdout)

        def same(name, got, want):
            return None if complex(got) == complex(want) else f"{sub}: {name} {got} != in-process {want}"

        if sub == "theta":
            r = meanvalue.theta(float(a["--kappa"]), float(a["--delta"]), meanvalue.ThetaRegime(
                eta1=float(a["--eta1"]), epsilon=float(a["--eps"])))
            return same("theta", float(fields["theta"]), r.value)
        if sub == "coeffs":
            doc = json.loads(stdout)
            co = series.g_lambda_coeffs(families.family_from_spec(a["--family"]), int(a["--J"]))
            for key in ("gamma_j", "g_l", "lambda_l"):
                want = [[c.real, c.imag] for c in getattr(co, key)]
                if doc[key] != want:
                    return f"coeffs: {key} differs from the in-process coefficients"
            return None
        fam = families.family_from_spec(a["--family"]) if "--family" in a else None
        if sub == "predict":
            win = sieve.Window(int(a["--x"]), int(a["--y"]))
            co = series.g_lambda_coeffs(fam, 8)
            n = int(a["--N"])
            return same("predicted", oracles.parse_value(fields["predicted"]),
                        meanvalue.predict(co, win, n)) or same(
                "remainder_bound", float(fields["remainder_bound"]),
                meanvalue.remainder_bound(co, win, n))
        if sub == "sum":
            x, y = int(a["--x"]), int(a["--y"])
            want = sieve.exact_sum(fam, sieve.Window(x, y))
            return same("sum", oracles.parse_value(stdout.splitlines()[0]), want) or (
                oracles.check_exact(want, oracles.closed_form_window_sum(a["--family"], x, y, table)))
        if sub == "experiment":
            got, _ = cli.parse_csv(a["--out"])
            want = meanvalue.run_experiment(
                fam, [int(v) for v in a["--x-grid"].split(",")], float(a["--theta-exp"]),
                int(a["--N"]))
            return None if got == want else "experiment: CSV records differ from in-process run"
        if sub == "contour":
            doc = json.loads(files["contour.json"])
            T, alpha, c_star = float(a["--T"]), float(a["--alpha"]), float(a["--cstar"])
            zs = contour.load_zeros(a["--zeros"], T)
            path = contour.assemble_contour(
                contour.build_blocks(zs, T, alpha, c_star), zs, alpha, c_star=c_star)
            if doc["vertices"] != [[v.real, v.imag] for v in path.vertices]:
                return "contour: vertices differ from the in-process path"
            ok = all(doc["validation"][k] for k in ("mirror_ok", "connectivity_ok", "clearance_ok"))
            return None if ok else "contour: validation failed"
        if sub == "perron-check":
            win = sieve.Window(int(a["--x"]), int(a["--y"]))
            T = float(a["--T"])
            val = perron.perron_line_sum(fam, win, T)
            exact = sieve.exact_sum(fam, win)
            return (same("perron", oracles.parse_value(fields["perron"]), val)
                    or same("exact", oracles.parse_value(fields["exact"]), exact)
                    or oracles.check_exact(exact, oracles.closed_form_window_sum(
                        a["--family"], win.x, win.y, table))
                    or oracles.check_perron(val, exact, win.x, T))
        if sub == "hankel-check":
            u, kappa, ell = float(a["--u"]), float(a["--kappa"]), int(a["--l"])
            val = perron.hankel_main_term(u, kappa, ell)
            closed = math.log(u) ** (kappa - 1.0 - ell) / math.gamma(kappa - ell)
            return same("loop", oracles.parse_value(fields["loop"]), val) or oracles.check_hankel(
                val, closed)
        return f"no check for subcommand {sub}"


WORKLOADS = {w.name: w for w in (WindowSums(), PerronLine(), ContourSuite(), CliCold())}
