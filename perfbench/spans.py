"""Span recorder for the traced benchmark runs.

The recorder replaces public delange functions on their module objects with
timing wrappers, keeps every span (name, start, end, parent id, counters) in
memory and writes them out as JSONL when the run ends.  Nothing under
``src/`` is changed: the wrappers are installed from outside and removed
again, so the untraced rounds of a run execute the original functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time


def _window(a: dict) -> dict:
    return {"x": int(a["win"].x), "y": int(a["win"].y)}


def _points(a: dict) -> dict:
    import numpy as np

    return {"points": int(np.size(a["s"]))}


# (module, function, counters taken from the call's arguments, counters taken
# from its result).  Counters are computed outside the timed interval.
TARGETS = [
    ("special", "zeta_batch", _points, None),
    ("special", "stieltjes", None, None),
    ("families", "g_series_by_euler_product", None, None),
    ("series", "g_lambda_coeffs", None, None),
    ("series", "z_coeffs", None, None),
    ("sieve", "exact_sum", _window, None),
    ("sieve", "factor_window", _window, None),
    ("sieve", "primes_up_to", None, None),
    ("meanvalue", "run_experiment", None, None),
    ("meanvalue", "predict", None, None),
    ("meanvalue", "remainder_bound", None, None),
    (
        "perron",
        "perron_line_sum",
        lambda a: {"T": float(a["T"]), "npu": int(a["spec"].nodes_per_unit),
                   "scheme": a["spec"].scheme},
        None,
    ),
    ("perron", "hankel_main_term", None, None),
    ("perron", "ml_integral_check", None, None),
    ("contour", "load_zeros", None, None),
    ("contour", "build_blocks", None, lambda r: {"blocks": len(r)}),
    ("contour", "assemble_contour", None, lambda r: {"vertices": len(r.vertices)}),
    ("contour", "validate_contour", None, None),
    ("contour", "zero_density_count", None, None),
    ("contour", "log_zeta_diagnostic", None, None),
]

CLI_SUBCOMMANDS = (
    "theta", "coeffs", "predict", "sum", "experiment", "contour", "perron-check", "hankel-check",
)
MODULES = ("special", "families", "series", "sieve", "meanvalue", "perron", "contour", "cli")

LOW_BAND_MAX_X = 10**10  # exact_sum calls below this height count as the low band


class Tracer:
    """In-memory span store with a parent stack (all wrapped calls run on
    the main thread; the sieve's worker threads call no wrapped function)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.active = False
        self.phase = "setup"
        self.round = -1
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------
    def add(self, name: str, start: float, end: float | None = None, attrs: dict | None = None) -> dict:
        """Record a span; one measured elsewhere (the package import) comes with its end."""
        rec = {
            "id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
            "name": name, "phase": self.phase, "round": self.round,
            "attrs": attrs or {}, "failed": False, "start": start, "end": end,
        }
        self.spans.append(rec)
        return rec

    def open(self, name: str, attrs: dict | None = None) -> dict:
        rec = self.add(name, time.perf_counter(), None, attrs)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        sig = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = {}
            if before:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = before(bound.arguments)
            rec = self.open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec["failed"] = True
                raise
            finally:
                self.close(rec)
            if after:
                rec["attrs"].update(after(out))
            return out

        return traced

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Replace each target on every loaded delange module that binds it,
        and make families built from now on carry a traced closed_form_F."""
        import delange.families as families

        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "delange" or k.startswith("delange."))]
        replacements = []
        for mod_name, fn_name, before, after in TARGETS:
            original = getattr(sys.modules[f"delange.{mod_name}"], fn_name)
            replacements.append(
                (original, self.wrap(original, f"{mod_name}.{fn_name}", before, after))
            )
        original_builtin = families.builtin_family

        @functools.wraps(original_builtin)
        def builtin_family(*args, **kwargs):
            return self.traced_family(original_builtin(*args, **kwargs))

        replacements.append((original_builtin, builtin_family))
        for original, wrapper in replacements:
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        self.active = False

    def traced_family(self, fam):
        """Copy of a family whose closed_form_F records a span while tracing."""
        import dataclasses

        if fam.closed_form_F is None:
            return fam
        return dataclasses.replace(
            fam, closed_form_F=self.wrap(fam.closed_form_F, "families.closed_form_F")
        )

    # -- output ---------------------------------------------------------------
    def extend(self, spans: list[dict], round_index: int) -> None:
        """Append spans recorded by a child process, renumbering their ids."""
        base = len(self.spans)
        for s in spans:
            s = dict(s)
            s["id"] += base
            if s["parent"] is not None:
                s["parent"] += base
            s["phase"], s["round"] = "round", round_index
            self.spans.append(s)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def unit_of(metric: str) -> str:
    if "per_s" in metric:
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s["end"] - s["start"]) - covered)
    return out


def per_layer_metrics(spans: list[dict], traced_rounds: int, pi, line_nodes) -> dict:
    """Per-layer totals for set-up plus one traced round.

    Set-up spans count once; round spans are divided by the number of traced
    rounds, so each figure is the cost of a cold run of the operation list.
    ``.failed`` counts are totals.  ``pi(n)`` counts primes up to n and
    ``line_nodes(T, npu, scheme)`` gives the Perron quadrature nodes of both
    levels; both are evaluated here, outside every timed call.
    """
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, float] = {}
    work: dict[str, float] = {}
    failed = {m: 0 for m in MODULES}
    band = {"low": [0.0, 0.0], "high": [0.0, 0.0]}  # [ints, seconds]
    selfs = self_times(spans)
    for s, self_s in zip(spans, selfs):
        w = 1.0 if s["phase"] == "setup" else 1.0 / max(1, traced_rounds)
        name, dur, a = s["name"], s["end"] - s["start"], s["attrs"]
        busy[name] = busy.get(name, 0.0) + w * dur
        own[name] = own.get(name, 0.0) + w * self_s
        calls[name] = calls.get(name, 0.0) + w
        if s["failed"] and name.split(".")[0] in failed:
            failed[name.split(".")[0]] += 1

        def add(key, val):
            work[key] = work.get(key, 0.0) + w * val

        if name == "special.zeta_batch":
            add("special.zeta_batch.points", a["points"])
        elif name == "sieve.exact_sum":
            add("sieve.exact_sum.ints", a["y"])
            add("sieve.exact_sum.chunks", math.ceil(a["y"] / 2**20))
            add("sieve.exact_sum.base_primes", pi(math.isqrt(a["x"] + a["y"])))
            b = band["low" if a["x"] < LOW_BAND_MAX_X else "high"]
            b[0] += w * a["y"]
            b[1] += w * dur
        elif name == "sieve.factor_window":
            add("sieve.factor_window.ints", a["y"])
        elif name == "perron.perron_line_sum":
            add("perron.perron_line_sum.nodes", line_nodes(a["T"], a["npu"], a["scheme"]))
        elif name == "contour.build_blocks":
            add("contour.blocks", a.get("blocks", 0))
        elif name == "contour.assemble_contour":
            add("contour.vertices", a.get("vertices", 0))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    zb = busy.get("special.zeta_batch", 0.0)
    m = {
        "delange.import_s": busy.get("delange.import", 0.0),
        "special.stieltjes.fill_s": busy.get("special.stieltjes", 0.0),
        "special.zeta_batch.s": zb,
        "special.zeta_batch.calls": calls.get("special.zeta_batch", 0.0),
        "special.zeta_batch.points": work.get("special.zeta_batch.points", 0.0),
        "special.zeta_batch.points_per_s": rate(work.get("special.zeta_batch.points", 0.0), zb),
    }
    for fn in ("families.g_series_by_euler_product", "families.closed_form_F",
               "series.g_lambda_coeffs", "sieve.exact_sum", "meanvalue.run_experiment",
               "perron.perron_line_sum", "contour.log_zeta_diagnostic"):
        m[f"{fn}.s"] = busy.get(fn, 0.0)
        m[f"{fn}.self_s"] = own.get(fn, 0.0)
    for fn in ("families.g_series_by_euler_product", "families.closed_form_F",
               "sieve.exact_sum", "perron.perron_line_sum"):
        m[f"{fn}.calls"] = calls.get(fn, 0.0)
    for key in ("sieve.exact_sum.ints", "sieve.exact_sum.chunks", "sieve.exact_sum.base_primes",
                "sieve.factor_window.ints", "perron.perron_line_sum.nodes",
                "contour.blocks", "contour.vertices"):
        m[key] = work.get(key, 0.0)
    m["sieve.exact_sum.ints_per_s.low"] = rate(*band["low"])
    m["sieve.exact_sum.ints_per_s.high"] = rate(*band["high"])
    for fn in ("series.z_coeffs", "sieve.factor_window", "sieve.primes_up_to",
               "meanvalue.predict", "meanvalue.remainder_bound", "perron.hankel_main_term",
               "perron.ml_integral_check", "contour.load_zeros", "contour.build_blocks",
               "contour.assemble_contour", "contour.validate_contour",
               "contour.zero_density_count"):
        m[f"{fn}.s"] = busy.get(fn, 0.0)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.s"] = busy.get(f"cli.{sub}", 0.0)
    for mod in MODULES:
        m[f"{mod}.failed"] = float(failed[mod])
    return m
