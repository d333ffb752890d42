"""Command-line front door: one subcommand per module capability.

Precedence for every option: explicit flag > --config file > built-in
default.  Any output file embeds the fully resolved run configuration (JSON:
under "config"; CSV: as a commented preamble) and reruns with the same
config are byte-identical; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from decimal import Decimal, InvalidOperation

from . import contour as contour_mod
from . import meanvalue as mv
from . import perron as perron_mod
from .errors import DelangeError, UsageError
from .families import family_from_spec, g_series_by_euler_product
from .series import g_lambda_coeffs
from .sieve import Window, exact_sum


def _load_config(path: str, options: dict) -> dict:
    """key=value lines, checked like the flags: every key must be an option of
    the subcommand (options maps each one to its allowed values, or None)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"--config {path}: line {lineno} is not key=value")
            key, _, val = line.partition("=")
            key, val = key.strip().replace("-", "_"), val.strip()
            if key not in options:
                raise UsageError(f"--config {path}: unknown key {key!r} on line {lineno}")
            if options[key] is not None and val not in options[key]:
                raise UsageError(
                    f"--config {path}: {key}={val!r} is not one of {', '.join(options[key])}"
                )
            out[key] = val
    return out


class _Resolver:
    """flag > config > default, recording the resolved configuration."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = vars(args)
        self.config = config
        self.resolved: dict = {}

    def get(self, key: str, default, cast):
        val = self.args.get(key)
        if val is None:
            raw = self.config.get(key)
            try:
                val = default if raw is None else cast(raw)
            except ValueError as exc:
                raise UsageError(f"--config: bad value for {key}: {exc}") from None
        self.resolved[key] = val
        return val


MAX_BOUND_DIGITS = 4300  # the longest decimal string int() reads by default


def _window_bound(raw: str):
    """An exact integer window bound, plain or in exponent notation ("1e12"),
    computed without a float.  A non-finite value is passed through, so that
    Window rejects it as a domain error (exit 1) rather than a usage error."""
    try:
        d = Decimal(raw)
    except InvalidOperation:
        raise ValueError(f"not a number: {raw!r}") from None
    if not d.is_finite():
        return float(d)
    if d.adjusted() >= MAX_BOUND_DIGITS or d != d.to_integral_value():
        raise ValueError(f"not an integer of at most {MAX_BOUND_DIGITS} digits: {raw!r}")
    return int(d)


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_value(v: complex) -> str:
    if v.imag == 0 and float(v.real).is_integer() and abs(v.real) < 2**53:
        return str(int(v.real))
    if v.imag == 0:
        return _fmt_float(v.real)
    return f"{_fmt_float(v.real)} + {_fmt_float(v.imag)}i"


def emit_json(report: dict, path: str) -> None:
    """Pretty-printed, key-sorted, UTF-8, trailing newline."""
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


CSV_HEADER = "family,x,y,N,exact_re,exact_im,predicted_re,predicted_im,remainder_bound,rel_error"


def emit_csv(records, path: str, config: dict) -> None:
    """Experiment records with the run configuration as a commented preamble."""
    lines = [f"# {k}={config[k]}" for k in sorted(config)]
    lines.append(CSV_HEADER)
    for r in records:
        lines.append(
            ",".join(
                [
                    r.family,
                    str(r.x),
                    str(r.y),
                    str(r.N),
                    _fmt_float(r.exact.real),
                    _fmt_float(r.exact.imag),
                    _fmt_float(r.predicted.real),
                    _fmt_float(r.predicted.imag),
                    _fmt_float(r.remainder_bound),
                    _fmt_float(r.rel_error),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path: str):
    """Inverse of emit_csv: (records, config)."""
    config: dict = {}
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in rows:
        if ln.startswith("# "):
            key, _, val = ln[2:].partition("=")
            config[key] = val
        elif ln:
            body.append(ln)
    if not body or body[0] != CSV_HEADER:
        raise UsageError(f"{path}: missing experiment header")
    for ln in body[1:]:
        f = ln.split(",")
        records.append(
            mv.ExperimentRecord(
                family=f[0], x=int(f[1]), y=int(f[2]), N=int(f[3]),
                exact=complex(float(f[4]), float(f[5])),
                predicted=complex(float(f[6]), float(f[7])),
                remainder_bound=float(f[8]), rel_error=float(f[9]),
            )
        )
    return records, config


# --- subcommand bodies ------------------------------------------------------------


def _cmd_coeffs(res: _Resolver) -> int:
    spec = res.get("family", None, str)
    if spec is None:
        raise UsageError("--family is required")
    order = res.get("J", 24, int)
    out = res.get("out", None, str)
    fam = family_from_spec(spec)
    co = g_lambda_coeffs(fam, order)
    report = {
        "config": res.resolved,
        "kappa": co.kappa,
        "w": [co.w.real, co.w.imag],
        "J": co.order,
        "gamma_j": [[c.real, c.imag] for c in co.gamma_j],
        "g_l": [[c.real, c.imag] for c in co.g_l],
        "lambda_l": [[c.real, c.imag] for c in co.lambda_l],
        # the error figure of the series g_lambda_coeffs just built (cached DFT)
        "background_error": g_series_by_euler_product(fam, order)[1],
    }
    if out:
        emit_json(report, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_sum(res: _Resolver) -> int:
    spec = res.get("family", None, str)
    x = res.get("x", None, _window_bound)
    y = res.get("y", None, _window_bound)
    if spec is None or x is None or y is None:
        raise UsageError("--family, --x, --y are required")
    workers = res.get("workers", 1, int)
    out = res.get("out", None, str)
    fam = family_from_spec(spec)
    t0 = time.perf_counter()
    val = exact_sum(fam, Window(x, y), workers=workers)
    elapsed_ms = 1000.0 * (time.perf_counter() - t0)
    print(_fmt_value(val))
    print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    if out:
        emit_json(
            {
                "config": res.resolved,
                "family": fam.name,
                "x": x,
                "y": y,
                "sum_re": val.real,
                "sum_im": val.imag,
            },
            out,
        )
    return 0


def _cmd_predict(res: _Resolver) -> int:
    spec = res.get("family", None, str)
    x = res.get("x", None, _window_bound)
    if spec is None or x is None:
        raise UsageError("--family and --x are required")
    y = res.get("y", None, _window_bound)
    texp = res.get("theta_exp", None, float)
    if y is None and texp is None:
        raise UsageError("one of --y or --theta-exp is required")
    if y is None:
        y = int(math.ceil(x**texp))
    n_order = res.get("N", 0, int)
    order = res.get("J", max(8, n_order + 1), int)
    out = res.get("out", None, str)
    fam = family_from_spec(spec)
    co = g_lambda_coeffs(fam, order)
    win = Window(x, y)
    val = mv.predict(co, win, n_order)
    rp = mv.RemainderParams(
        a1=res.get("a1", 1.0, float), a2=res.get("a2", 0.5, float), M=res.get("M", 1.0, float)
    )
    rb = mv.remainder_bound(co, win, n_order, rp)
    print(f"predicted = {_fmt_value(val)}")
    print(f"remainder_bound = {_fmt_float(rb)}")
    if out:
        emit_json(
            {
                "config": res.resolved,
                "family": fam.name,
                "x": x,
                "y": y,
                "N": n_order,
                "predicted_re": val.real,
                "predicted_im": val.imag,
                "remainder_bound": rb,
            },
            out,
        )
    return 0


def _cmd_theta(res: _Resolver) -> int:
    kappa = res.get("kappa", None, float)
    delta = res.get("delta", None, float)
    if kappa is None or delta is None:
        raise UsageError("--kappa and --delta are required")
    regime_tag = res.get("regime", "unconditional_huxley", str)
    eta1 = res.get("eta1", 1.0 / 3.0, float)
    eps = res.get("eps", 0.01, float)
    out = res.get("out", None, str)
    regime = mv.ThetaRegime(tag=regime_tag, eta1=eta1, epsilon=eps)
    result = mv.theta(kappa, delta, regime)
    prior = mv.theta_prior_bound(kappa, delta)
    print(f"theta = {_fmt_float(result.value)}")
    print(f"branch = {result.branch}")
    print(f"prior_bound = {_fmt_float(prior)}")
    if out:
        emit_json(
            {
                "config": res.resolved,
                "theta": result.value,
                "branch": result.branch,
                "prior_bound": prior,
            },
            out,
        )
    return 0


def _cmd_experiment(res: _Resolver) -> int:
    spec = res.get("family", None, str)
    grid_raw = res.get("x_grid", None, str)
    out = res.get("out", None, str)
    if spec is None or grid_raw is None or out is None:
        raise UsageError("--family, --x-grid, --out are required")
    texp = res.get("theta_exp", 0.8, float)
    n_order = res.get("N", 0, int)
    order = res.get("J", max(8, n_order + 1), int)
    workers = res.get("workers", 1, int)
    rp = mv.RemainderParams(
        a1=res.get("a1", 1.0, float), a2=res.get("a2", 0.5, float), M=res.get("M", 1.0, float)
    )
    fam = family_from_spec(spec)
    try:
        x_grid = [_window_bound(tok) for tok in grid_raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--x-grid: cannot parse {grid_raw!r}") from None
    records = mv.run_experiment(fam, x_grid, texp, n_order, rp=rp, order=order, workers=workers)
    emit_csv(records, out, res.resolved)
    for r in records:
        print(
            f"x={r.x} y={r.y} exact={_fmt_value(r.exact)} predicted={r.predicted.real:.6g}"
            f" rel_error={r.rel_error:.3e}"
        )
    print(f"wrote {out}")
    return 0


def _cmd_contour(res: _Resolver) -> int:
    zeros_path = res.get("zeros", None, str)
    out = res.get("out", None, str)
    if zeros_path is None or out is None:
        raise UsageError("--zeros and --out are required")
    t_height = res.get("T", 65536.0, float)
    alpha = res.get("alpha", 0.6, float)
    c_star = res.get("cstar", 1.0, float)
    eta = res.get("eta", None, float)
    corner = res.get("corner_eps", None, float)
    logx = res.get("logx", math.log(1e6), float)
    csv_out = res.get("emit_csv", None, str)
    zs = contour_mod.load_zeros(zeros_path, t_height)
    blocks = contour_mod.build_blocks(zs, t_height, alpha, c_star)
    path = contour_mod.assemble_contour(
        blocks, zs, alpha, eta=eta, c_star=c_star, corner_eps=corner, logx=logx
    )
    report = contour_mod.validate_contour(path, zs, alpha)
    doc = {
        "config": res.resolved,
        "params": asdict(path.params),
        "covered_top": path.covered_top,
        "vertices": [[v.real, v.imag] for v in path.vertices],
        "piece_labels": list(path.piece_labels),
        "case_tally": path.case_tally,
        "validation": {
            "mirror_ok": report.mirror_ok,
            "connectivity_ok": report.connectivity_ok,
            "clearance_ok": report.clearance_ok,
            "clearance_failures": [list(f) for f in report.clearance_failures],
        },
    }
    emit_json(doc, out)
    print(
        f"contour: {len(path.vertices)} vertices, validation "
        f"{'PASS' if report.all_ok else 'FAIL'}; wrote {out}"
    )
    if csv_out:
        lines = [f"# {k}={res.resolved[k]}" for k in sorted(res.resolved)]
        lines.append("re,im,label")
        labels = list(path.piece_labels) + [""]
        for v, lab in zip(path.vertices, labels):
            lines.append(f"{_fmt_float(v.real)},{_fmt_float(v.imag)},{lab}")
        with open(csv_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {csv_out}")
    return 0


def _cmd_perron_check(res: _Resolver) -> int:
    spec = res.get("family", None, str)
    x = res.get("x", None, _window_bound)
    y = res.get("y", None, _window_bound)
    if spec is None or x is None or y is None:
        raise UsageError("--family, --x, --y are required")
    t_height = res.get("T", 1000.0, float)
    npu = res.get("nodes_per_unit", 60, int)
    scheme = res.get("scheme", "gauss_segment", str)
    abs_tol = res.get("abs_tol", 1e-3, float)
    b_offset = res.get("b_offset", perron_mod.DEFAULT_B_OFFSET, float)
    zeros_path = res.get("zeros", None, str)
    out = res.get("out", None, str)
    fam = family_from_spec(spec)
    q = perron_mod.QuadratureSpec(nodes_per_unit=npu, scheme=scheme, abs_tol=abs_tol)
    t_used = t_height
    if zeros_path:
        zs = contour_mod.load_zeros(zeros_path, 2.0 * t_height)
        t_used = perron_mod.nudge_to_zero_gap(zs, t_height)
    win = Window(x, y)
    val = perron_mod.perron_line_sum(fam, win, t_used, q, b_offset=b_offset)
    reference = exact_sum(fam, win)
    rel = abs(val - reference) / abs(reference) if reference != 0 else math.inf
    nodes = perron_mod.line_node_count(t_used, q)
    print(f"perron = {_fmt_value(val)}  exact = {_fmt_value(reference)}  rel_dev = {rel:.3e}")
    if t_used != t_height:
        print(f"T nudged {t_height} -> {t_used} (zero-gap midpoint)", file=sys.stderr)
    if out:
        emit_json(
            {
                "config": res.resolved,
                "value_re": val.real,
                "value_im": val.imag,
                "reference": reference.real,
                "rel_dev": rel,
                "nodes": nodes,
                "T_used": t_used,
            },
            out,
        )
    return 0


def _cmd_hankel_check(res: _Resolver) -> int:
    u = res.get("u", None, float)
    kappa = res.get("kappa", None, float)
    if kappa is None:
        raise UsageError("--kappa is required")
    ell = res.get("l", 0, int)
    npu = res.get("nodes_per_unit", 60, int)
    abs_tol = res.get("abs_tol", 1e-3, float)
    x = res.get("x", None, _window_bound)
    y = res.get("y", None, _window_bound)
    out = res.get("out", None, str)
    q = perron_mod.QuadratureSpec(nodes_per_unit=npu, abs_tol=abs_tol)
    if x is not None and y is not None:
        rep = perron_mod.ml_integral_check(kappa, ell, Window(x, y), q)
        value, reference, rel, nodes = rep.value, rep.reference, rep.rel_dev, rep.nodes
    else:
        if u is None:
            raise UsageError("--u (loop weight) or --x/--y (window kernel) is required")
        r = res.get("r", None, float)
        value = perron_mod.hankel_main_term(u, kappa, ell, r=r, spec=q)
        reference = perron_mod.hankel_closed_form(u, kappa, ell)
        scale = abs(reference) if reference != 0 else 1.0
        rel = abs(value - reference) / scale
        nodes = perron_mod.loop_node_count(q)
    print(f"loop = {_fmt_value(value)}  reference = {_fmt_value(reference)}  rel_dev = {rel:.3e}")
    if out:
        emit_json(
            {
                "config": res.resolved,
                "value_re": value.real,
                "value_im": value.imag,
                "reference": reference.real,
                "rel_dev": rel,
                "nodes": nodes,
            },
            out,
        )
    return 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "sum": _cmd_sum,
    "predict": _cmd_predict,
    "theta": _cmd_theta,
    "experiment": _cmd_experiment,
    "contour": _cmd_contour,
    "perron-check": _cmd_perron_check,
    "hankel-check": _cmd_hankel_check,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="delange",
        description="Mean values of arithmetic functions over short intervals",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name, *specs):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file")
        keys = {}
        for flag, kw in (("--out", {}),) + specs:
            keys[sp.add_argument(flag, **kw).dest] = kw.get("choices")
        sp.set_defaults(config_keys=keys)
        return sp

    fam = ("--family", dict(help="family spec, e.g. divisor:2, sqfree, omega:3, one"))
    add("coeffs", fam, ("--J", dict(type=int)))
    add(
        "sum", fam, ("--x", dict(type=_window_bound)), ("--y", dict(type=_window_bound)),
        ("--workers", dict(type=int)),
    )
    add(
        "predict", fam, ("--x", dict(type=_window_bound)), ("--y", dict(type=_window_bound)),
        ("--theta-exp", dict(type=float, dest="theta_exp")), ("--N", dict(type=int)),
        ("--J", dict(type=int)), ("--a1", dict(type=float)), ("--a2", dict(type=float)),
        ("--M", dict(type=float)),
    )
    add(
        "theta", ("--kappa", dict(type=float)), ("--delta", dict(type=float)),
        ("--regime", dict(choices=mv.REGIME_TAGS)), ("--eta1", dict(type=float)),
        ("--eps", dict(type=float)),
    )
    add(
        "experiment", fam, ("--x-grid", dict(dest="x_grid")),
        ("--theta-exp", dict(type=float, dest="theta_exp")), ("--N", dict(type=int)),
        ("--J", dict(type=int)), ("--a1", dict(type=float)), ("--a2", dict(type=float)),
        ("--M", dict(type=float)), ("--workers", dict(type=int)),
    )
    add(
        "contour", ("--zeros", dict()), ("--T", dict(type=float)),
        ("--alpha", dict(type=float)), ("--cstar", dict(type=float)),
        ("--eta", dict(type=float)), ("--corner-eps", dict(type=float, dest="corner_eps")),
        ("--logx", dict(type=float)), ("--emit-csv", dict(dest="emit_csv")),
    )
    add(
        "perron-check", fam, ("--x", dict(type=_window_bound)), ("--y", dict(type=_window_bound)),
        ("--T", dict(type=float)), ("--nodes-per-unit", dict(type=int, dest="nodes_per_unit")),
        ("--scheme", dict(choices=("trapezoid", "gauss_segment"))),
        ("--abs-tol", dict(type=float, dest="abs_tol")),
        ("--b-offset", dict(type=float, dest="b_offset")), ("--zeros", dict()),
    )
    add(
        "hankel-check", ("--u", dict(type=float)), ("--kappa", dict(type=float)),
        ("--l", dict(type=int)), ("--r", dict(type=float)),
        ("--x", dict(type=_window_bound)), ("--y", dict(type=_window_bound)),
        ("--nodes-per-unit", dict(type=int, dest="nodes_per_unit")),
        ("--abs-tol", dict(type=float, dest="abs_tol")),
    )
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config, args.config_keys) if args.config else {}
        res = _Resolver(args, config)
        res.resolved["subcommand"] = args.subcommand
        return _COMMANDS[args.subcommand](res)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DelangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
