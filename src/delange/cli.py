"""Command-line front door: one subcommand per module capability.

Each subcommand declares its options once, in OPTIONS.  The parser, the
--config keys with their casts and choices, the required-option check and the
recorded configuration all come from that table.

Precedence for every option: explicit flag > --config file > built-in
default.  Any output file embeds the fully resolved run configuration (JSON:
under "config"; CSV: as a commented preamble) and reruns with the same
config are byte-identical; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from decimal import Decimal, InvalidOperation

from . import contour as contour_mod
from . import meanvalue as mv
from . import perron as perron_mod
from .errors import DelangeError, UsageError
from .families import family_from_spec
from .series import g_lambda_coeffs
from .sieve import Window, exact_sum

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


# --- options ------------------------------------------------------------------------

REQUIRED = object()  # the default of an option that has none

_INT, _FLOAT, _BOUND, _STR = dict(type=int), dict(type=float), dict(type=_window_bound), {}
_OUT = ("--out", _STR, None)
_FAMILY = ("--family", dict(help="family spec, e.g. divisor:2, sqfree, omega:3, one"), REQUIRED)
_REMAINDER = (("--a1", _FLOAT, 1.0), ("--a2", _FLOAT, 0.5), ("--M", _FLOAT, 1.0))
_NODES_PER_UNIT = ("--nodes-per-unit", _INT, perron_mod.DEFAULT_QUADRATURE.nodes_per_unit)

# (flag, argparse keywords, default or REQUIRED), in the parser's order.  A
# default of None for --J in predict and experiment stands for
# meanvalue.default_order(N).
OPTIONS = {
    "coeffs": (_OUT, _FAMILY, ("--J", _INT, 24)),
    "sum": (_OUT, _FAMILY, ("--x", _BOUND, REQUIRED), ("--y", _BOUND, REQUIRED),
            ("--workers", _INT, 1)),
    "predict": (_OUT, _FAMILY, ("--x", _BOUND, REQUIRED), ("--y", _BOUND, None),
                ("--theta-exp", _FLOAT, None), ("--N", _INT, 0), ("--J", _INT, None),
                *_REMAINDER),
    "theta": (_OUT, ("--kappa", _FLOAT, REQUIRED), ("--delta", _FLOAT, REQUIRED),
              ("--regime", dict(choices=mv.REGIME_TAGS), "unconditional_huxley"),
              ("--eta1", _FLOAT, 1.0 / 3.0), ("--eps", _FLOAT, 0.01)),
    "experiment": (("--out", _STR, REQUIRED), _FAMILY, ("--x-grid", _STR, REQUIRED),
                   ("--theta-exp", _FLOAT, 0.8), ("--N", _INT, 0), ("--J", _INT, None),
                   *_REMAINDER, ("--workers", _INT, 1)),
    "contour": (("--out", _STR, REQUIRED), ("--zeros", _STR, REQUIRED),
                ("--T", _FLOAT, 65536.0), ("--alpha", _FLOAT, 0.6), ("--cstar", _FLOAT, 1.0),
                ("--eta", _FLOAT, None), ("--corner-eps", _FLOAT, None),
                ("--logx", _FLOAT, math.log(1e6)), ("--emit-csv", _STR, None)),
    "perron-check": (_OUT, _FAMILY, ("--x", _BOUND, REQUIRED), ("--y", _BOUND, REQUIRED),
                     ("--T", _FLOAT, 1000.0), _NODES_PER_UNIT, ("--abs-tol", _FLOAT, 1e-3),
                     ("--b-offset", _FLOAT, perron_mod.DEFAULT_B_OFFSET), ("--zeros", _STR, None)),
    "hankel-check": (_OUT, ("--u", _FLOAT, None), ("--kappa", _FLOAT, REQUIRED),
                     ("--l", _INT, 0), ("--r", _FLOAT, None),
                     ("--x", _BOUND, None), ("--y", _BOUND, None),
                     _NODES_PER_UNIT, ("--abs-tol", _FLOAT, 1e-3)),
}


def _load_config(path: str, options: dict) -> dict:
    """key=value lines, checked like the flags: every key must be an option of
    the subcommand, its value within the option's choices and cast by the
    option's own argparse type."""
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
            action = options[key][0]
            if action.choices is not None and val not in action.choices:
                raise UsageError(
                    f"--config {path}: {key}={val!r} is not one of {', '.join(action.choices)}"
                )
            try:
                out[key] = val if action.type is None else action.type(val)
            except ValueError as exc:
                raise UsageError(f"--config: bad value for {key}: {exc}") from None
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Every option of the subcommand, flag > config > default: the dict the
    command body reads and its output files record."""
    config = _load_config(args.config, args.options) if args.config else {}
    cfg = {"subcommand": args.subcommand}
    for key, (_, default) in args.options.items():
        flag = getattr(args, key)
        cfg[key] = flag if flag is not None else config.get(key, default)
    if any(v is REQUIRED for v in cfg.values()):
        need = [a.option_strings[0] for a, d in args.options.values() if d is REQUIRED]
        need.sort(key=lambda flag: flag == "--out")  # inputs first, the output file last
        names = (" and " if len(need) == 2 else ", ").join(need)
        raise UsageError(f"{names} {'is' if len(need) == 1 else 'are'} required")
    return cfg


def _check_outputs(cfg: dict, options: dict) -> None:
    """Fail before any work on an output file the command could not write.

    A file is written when its option is required or given non-empty.  Its
    name must then be non-empty and not a directory's, and its directory must
    exist and be writable.  Nothing is created here, so a run that fails
    leaves no file behind."""
    for key in ("out", "emit_csv"):
        if key not in cfg or not (cfg[key] or options[key][1] is REQUIRED):
            continue
        path = cfg[key]
        folder = os.path.dirname(path) or "."
        if not path:
            why = "empty file name"
        elif os.path.isdir(path):
            why = "is a directory"
        elif not os.path.isdir(folder):
            why = f"no directory {folder!r}"
        elif not os.access(folder, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)
        ):
            why = "permission denied"
        else:
            continue
        raise OSError(f"cannot write {path!r}: {why}")


# --- output -------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_value(v: float) -> str:
    """An integer below 2^53 as one, any other value as repr(float)."""
    if float(v).is_integer() and abs(v) < 2**53:
        return str(int(v))
    return _fmt_float(v)


def emit_json(report: dict, path: str) -> None:
    """Pretty-printed, key-sorted, UTF-8, trailing newline."""
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(cfg: dict, **fields) -> None:
    """Write the result fields under the run configuration to --out, if given."""
    if cfg["out"]:
        emit_json({"config": cfg, **fields}, cfg["out"])


def _write_rows(path: str, config: dict, rows: list) -> None:
    """CSV rows under the run configuration as a commented preamble."""
    lines = [f"# {k}={config[k]}" for k in sorted(config)] + rows
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


CSV_HEADER = "family,x,y,N,exact_re,exact_im,predicted_re,predicted_im,remainder_bound,rel_error"


def emit_csv(records, path: str, config: dict) -> None:
    """Experiment records with the run configuration as a commented preamble."""
    rows = [CSV_HEADER]
    for r in records:
        # the _im columns are always 0.0, kept for format compatibility
        nums = (r.exact, 0.0, r.predicted, 0.0, r.remainder_bound, r.rel_error)
        rows.append(",".join([r.family, str(r.x), str(r.y), str(r.N), *map(_fmt_float, nums)]))
    _write_rows(path, config, rows)


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
                exact=float(f[4]), predicted=float(f[6]),
                remainder_bound=float(f[8]), rel_error=float(f[9]),
            )
        )
    return records, config


# --- subcommand bodies ------------------------------------------------------------


def _remainder_params(cfg: dict) -> mv.RemainderParams:
    return mv.RemainderParams(a1=cfg["a1"], a2=cfg["a2"], M=cfg["M"])


def _cmd_coeffs(cfg: dict) -> int:
    fam = family_from_spec(cfg["family"])
    co = g_lambda_coeffs(fam, cfg["J"])
    report = {
        "config": cfg,
        "kappa": co.kappa,
        "w": [co.w, 0.0],
        "J": co.order,
        "gamma_j": [[c, 0.0] for c in co.gamma_j],
        "g_l": [[c, 0.0] for c in co.g_l],
        "lambda_l": [[c, 0.0] for c in co.lambda_l],
        "background_error": co.background_error,
    }
    if cfg["out"]:
        emit_json(report, cfg["out"])
        print(f"wrote {cfg['out']}")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_sum(cfg: dict) -> int:
    fam = family_from_spec(cfg["family"])
    t0 = time.perf_counter()
    val = exact_sum(fam, Window(cfg["x"], cfg["y"]), workers=cfg["workers"])
    elapsed_ms = 1000.0 * (time.perf_counter() - t0)
    print(_fmt_value(val))
    print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    _emit(cfg, family=fam.name, x=cfg["x"], y=cfg["y"], sum_re=val, sum_im=0.0)
    return 0


def _cmd_predict(cfg: dict) -> int:
    if cfg["y"] is None and cfg["theta_exp"] is None:
        raise UsageError("one of --y or --theta-exp is required")
    n_order = cfg["N"]
    if cfg["J"] is None:
        cfg["J"] = mv.default_order(n_order)
    fam = family_from_spec(cfg["family"])
    co = g_lambda_coeffs(fam, cfg["J"])
    if cfg["y"] is None:
        win = mv.short_windows([cfg["x"]], cfg["theta_exp"])[0]
    else:
        win = Window(cfg["x"], cfg["y"])
    val = mv.predict(co, win, n_order)
    rb = mv.remainder_bound(co, win, n_order, _remainder_params(cfg))
    print(f"predicted = {_fmt_value(val)}")
    print(f"remainder_bound = {_fmt_float(rb)}")
    print(f"background_error = {_fmt_float(co.background_error)}")
    _emit(cfg, family=fam.name, x=win.x, y=win.y, N=n_order,
          predicted_re=val, predicted_im=0.0, remainder_bound=rb,
          background_error=co.background_error)
    return 0


def _cmd_theta(cfg: dict) -> int:
    regime = mv.ThetaRegime(tag=cfg["regime"], eta1=cfg["eta1"], epsilon=cfg["eps"])
    result = mv.theta(cfg["kappa"], cfg["delta"], regime)
    prior = mv.theta_prior_bound(cfg["kappa"], cfg["delta"])
    print(f"theta = {_fmt_float(result.value)}")
    print(f"branch = {result.branch}")
    print(f"prior_bound = {_fmt_float(prior)}")
    _emit(cfg, theta=result.value, branch=result.branch, prior_bound=prior)
    return 0


def _cmd_experiment(cfg: dict) -> int:
    grid_raw = cfg["x_grid"]
    try:
        x_grid = [_window_bound(tok) for tok in grid_raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--x-grid: cannot parse {grid_raw!r}") from None
    if not x_grid:
        raise UsageError(f"--x-grid: no height in {grid_raw!r}")
    if cfg["J"] is None:
        cfg["J"] = mv.default_order(cfg["N"])
    rp = _remainder_params(cfg)
    fam = family_from_spec(cfg["family"])
    records = mv.run_experiment(
        fam, x_grid, cfg["theta_exp"], cfg["N"], rp=rp, order=cfg["J"], workers=cfg["workers"]
    )
    emit_csv(records, cfg["out"], cfg)
    for r in records:
        print(
            f"x={r.x} y={r.y} exact={_fmt_value(r.exact)} predicted={r.predicted:.6g}"
            f" rel_error={r.rel_error:.3e}"
        )
    print(f"wrote {cfg['out']}")
    return 0


def _cmd_contour(cfg: dict) -> int:
    t_height, alpha, c_star = cfg["T"], cfg["alpha"], cfg["cstar"]
    contour_mod.check_block_params(t_height, alpha, c_star)
    zs = contour_mod.load_zeros(cfg["zeros"], t_height)
    blocks = contour_mod.build_blocks(zs, t_height, alpha, c_star)
    path = contour_mod.assemble_contour(
        blocks, zs, alpha, eta=cfg["eta"], c_star=c_star, corner_eps=cfg["corner_eps"],
        logx=cfg["logx"],
    )
    report = contour_mod.validate_contour(path, zs, alpha)
    doc = {
        "config": cfg,
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
    emit_json(doc, cfg["out"])
    print(
        f"contour: {len(path.vertices)} vertices, validation "
        f"{'PASS' if report.all_ok else 'FAIL'}; wrote {cfg['out']}"
    )
    if cfg["emit_csv"]:
        labels = list(path.piece_labels) + [""]
        rows = [f"{_fmt_float(v.real)},{_fmt_float(v.imag)},{lab}"
                for v, lab in zip(path.vertices, labels)]
        _write_rows(cfg["emit_csv"], cfg, ["re,im,label"] + rows)
        print(f"wrote {cfg['emit_csv']}")
    return 0


def _cmd_perron_check(cfg: dict) -> int:
    t_height = cfg["T"]
    fam = family_from_spec(cfg["family"])
    q = perron_mod.QuadratureSpec(nodes_per_unit=cfg["nodes_per_unit"], abs_tol=cfg["abs_tol"])
    t_used = t_height
    if cfg["zeros"]:
        zs = contour_mod.load_zeros(cfg["zeros"], 2.0 * t_height)
        t_used = perron_mod.nudge_to_zero_gap(zs, t_height)
    win = Window(cfg["x"], cfg["y"])
    diagnostics: dict = {}
    val = perron_mod.perron_line_sum(
        fam, win, t_used, q, b_offset=cfg["b_offset"], diagnostics=diagnostics
    )
    reference = exact_sum(fam, win)
    rel = abs(val - reference) / abs(reference) if reference != 0 else math.inf
    print(f"perron = {_fmt_value(val)}  exact = {_fmt_value(reference)}  rel_dev = {rel:.3e}")
    if t_used != t_height:
        print(f"T nudged {t_height} -> {t_used} (zero-gap midpoint)", file=sys.stderr)
    _emit(cfg, value_re=val, value_im=0.0, reference=reference, rel_dev=rel,
          nodes=perron_mod.line_node_count(t_used, q), T_used=t_used,
          quadrature_delta=diagnostics["quadrature_delta"])
    return 0


def _cmd_hankel_check(cfg: dict) -> int:
    kappa, ell, x, y = cfg["kappa"], cfg["l"], cfg["x"], cfg["y"]
    q = perron_mod.QuadratureSpec(nodes_per_unit=cfg["nodes_per_unit"], abs_tol=cfg["abs_tol"])
    if x is not None and y is not None:
        rep = perron_mod.ml_integral_check(kappa, ell, Window(x, y), q)
        value, reference, rel, nodes = rep.value, rep.reference, rep.rel_dev, rep.nodes
        delta = rep.quadrature_delta
    else:
        u = cfg["u"]
        if u is None:
            raise UsageError("--u (loop weight) or --x/--y (window kernel) is required")
        diagnostics: dict = {}
        value = perron_mod.hankel_main_term(
            u, kappa, ell, r=cfg["r"], spec=q, diagnostics=diagnostics
        )
        delta = diagnostics["quadrature_delta"]
        reference = perron_mod.hankel_closed_form(u, kappa, ell)
        scale = abs(reference) if reference != 0 else 1.0
        rel = abs(value - reference) / scale
        nodes = perron_mod.loop_node_count(q)
    print(f"loop = {_fmt_value(value)}  reference = {_fmt_value(reference)}  rel_dev = {rel:.3e}")
    _emit(cfg, value_re=value, value_im=0.0, reference=reference,
          rel_dev=rel, nodes=nodes, quadrature_delta=delta)
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
    for name, rows in OPTIONS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file")
        options = {}
        for flag, kw, default in rows:
            action = sp.add_argument(flag, **kw)
            options[action.dest] = (action, default)
        sp.set_defaults(options=options)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        _check_outputs(cfg, args.options)
        return _COMMANDS[args.subcommand](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DelangeError, OSError) as exc:
        # an OSError's message names the file it could not open
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
