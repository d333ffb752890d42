"""delange benchmark: one seeded workload per run, every result oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A run prepares the workload's constant caches (``setup_s``), then
repeats the workload's fixed list of operations while the next round is
expected to end within S seconds, and checks the results outside the timed
region.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the list runs untraced for
half the time and traced for the other half, and the object carries the
per-layer metrics and the tracing overhead.  Spans go to
``perfbench/out/<workload>-seed<N>.spans.jsonl`` and a record of the run,
with the digest of its inputs, to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.

Workloads: window-sums, perron-line, contour-suite, cli-cold (see
``workloads.py`` and BENCHMARK.json for why each was chosen).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # set-ups per run, each in a fresh interpreter; the median is reported

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
P90_MIN_SAMPLES = 100  # a 90th percentile needs ten samples beyond it
NOTE_UNITS = {"fail_ratio": "ratio", "op_p90_s": "s", "ints_per_s.low": "1/s",
              "ints_per_s.high": "1/s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_delange() -> tuple[float, float]:
    """Import the package from the checkout's src/; exit 2 if it is not there."""
    if not (SRC / "delange" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no delange sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import delange

    t1 = time.perf_counter()
    if Path(delange.__file__).resolve().parent != (SRC / "delange").resolve():
        sys.stderr.write(f"perfbench: delange imported from {delange.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return t0, t1


def inputs_digest(inputs: dict) -> str:
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Outcomes:
    """Per-operation results: the first successful result of each operation
    is kept for the oracle; every later execution must reproduce it."""

    def __init__(self, n_ops: int):
        self.first = [None] * n_ops
        self.have = [False] * n_ops
        self.errors: list[list[str]] = [[] for _ in range(n_ops)]  # per execution, "" if ok
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]

    def record(self, i: int, result, error: str | None, latency: float) -> None:
        self.latencies[i].append(latency)
        if error is None and not self.have[i]:
            self.first[i], self.have[i] = result, True
        elif error is None and result != self.first[i]:
            error = "result differs from the first execution"
        self.errors[i].append(error or "")

    def tally(self, verdicts: dict) -> tuple[int, int, dict]:
        attempted = failed = 0
        reasons = {}
        for i, errs in enumerate(self.errors):
            for e in errs:
                attempted += 1
                why = e or verdicts.get(i)
                if why:
                    failed += 1
                    reasons.setdefault(i, why)
        return attempted, failed, reasons


def run_rounds(ops, seconds: float, outcomes: Outcomes, tracer=None) -> list[float]:
    """Repeat the operation list while the next round should end in time."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round += 1
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            a = time.perf_counter()
            try:
                res, err = op.fn(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                res, err = None, f"{type(exc).__name__}: {exc}"
            # compared and dropped at once, so peak memory does not grow with the rounds
            outcomes.record(i, res, err, time.perf_counter() - a)
            del res
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times


def setup_sample(args) -> float:
    """Set-up time of one fresh interpreter running this script --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-300:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def op_median(latencies: list[list[float]]) -> float:
    """Median latency of one operation: each operation's median over the
    rounds, then the median over the operation list.  The list mixes
    operations of very different cost; ranking per-operation medians keeps
    the median between the same two operations in every run, where a median
    over all samples jumps between cost classes as their order changes."""
    return statistics.median(statistics.median(per_op) for per_op in latencies)


def nearest_rank(values: list[float], q: float) -> float:
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    t_imp0, t_imp1 = import_delange()
    import oracles
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        wl.setup(args.tiny)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        if wl.in_process:
            tracer.add("delange.import", t_imp0, t_imp1)
        tracer.install()
    ctx = wl.setup(args.tiny)
    setup_main = time.perf_counter() - T_START
    if tracer is not None:
        tracer.uninstall()

    inputs = wl.inputs(args.seed, args.tiny)
    digest = inputs_digest(inputs)
    ops = wl.ops(ctx, inputs)
    outcomes = Outcomes(len(ops))
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is None:
            rounds = run_rounds(ops, args.seconds, outcomes)
            usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
            peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
            setups = [setup_main] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        else:
            untraced = run_rounds(ops, args.seconds / 2, outcomes)
            tracer.install()
            tracer.phase = "round"
            ctx["tracer"] = tracer
            traced = run_rounds(ops, args.seconds / 2, outcomes, tracer)
            ctx["tracer"] = None
            tracer.uninstall()
            for path, k in ctx.get("span_files", []):
                if path.exists():
                    tracer.extend(spans.read_jsonl(path), k)
        table = oracles.PrimeTable()
        done = [i for i, ok in enumerate(outcomes.have) if ok]
        try:
            found = wl.check(ctx, inputs, [ops[i] for i in done], [outcomes.first[i] for i in done],
                             table)
            verdicts = {done[j]: why for j, why in found.items()}
        except Exception as exc:  # an unreadable result fails every operation checked
            verdicts = {i: f"check raised {type(exc).__name__}: {exc}" for i in done}
    finally:
        if "tmp" in ctx:
            shutil.rmtree(ctx["tmp"], ignore_errors=True)
    attempted, failed, reasons = outcomes.tally(verdicts)

    lat = [v for per_op in outcomes.latencies for v in per_op]
    notes = {
        "inputs_digest": digest,
        "ops_per_round": len(ops),
        "op_samples": len(lat),
        "fail_ratio": failed / attempted,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rounds),
            "op_p50_s": op_median(outcomes.latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        notes.update(rounds=len(rounds), round_s=rounds, setup_samples_s=setups)
        if len(lat) >= P90_MIN_SAMPLES:
            notes["op_p90_s"] = nearest_rank(lat, 0.9)
        if args.workload == "window-sums":
            for band in ("low", "high"):
                sel = [i for i, op in enumerate(ops) if op.params.get("band") == band
                       and op.label.startswith("run_experiment")]
                ints = sum(outcomes.first[i][0].y * len(outcomes.latencies[i]) for i in sel
                           if outcomes.have[i])
                notes[f"ints_per_s.{band}"] = ints / sum(sum(outcomes.latencies[i]) for i in sel)
        units = dict(UNITS)
    else:
        from delange import perron

        def line_nodes(T, npu, scheme):
            return sum(perron.line_node_count(T, perron.QuadratureSpec(nodes_per_unit=n, scheme=scheme))
                       for n in (npu, npu // 2))

        metrics = spans.per_layer_metrics(tracer.spans, len(traced), table.pi, line_nodes)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        notes.update(untraced_rounds=len(untraced), traced_rounds=len(traced), spans=len(tracer.spans))
        tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        units = {k: spans.unit_of(k) for k in metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "metrics": metrics, "notes": notes,
              "failures": {ops[i].label: why for i, why in reasons.items()},
              "ops": [{"label": op.label, "latency_s": outcomes.latencies[i]}
                      for i, op in enumerate(ops)]}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for label, why in record["failures"].items():
        print(f"FAILED {label}: {why}")
    for key, val in notes.items():
        if not isinstance(val, list):
            print(f"{key} = {val} {NOTE_UNITS.get(key, '')}".rstrip())
    for key, val in metrics.items():
        print(f"metric {key} = {val:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
