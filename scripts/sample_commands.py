#!/usr/bin/env python3
"""Run the sample CLI commands and keep everything each one prints and writes.

Every command in SAMPLES runs as `python -m delange.cli ...` in a fresh
interpreter, with this checkout's src/ first on PYTHONPATH and OUT/<name>/ as
its working directory; the bundled zero table is copied there as zeros.txt,
so no output records a path of the checkout.  OUT/<name>/ receives
stdout.txt, stderr.txt without the `elapsed:` line, exit_code.txt and the
files the command wrote.  Two checkouts are compared with `diff -r OUT1 OUT2`.

The script exits 1, naming the command, when a command's exit code is not
the one SAMPLES lists for it, or when a refused input (exit 1) writes
anything to stderr but one line starting `error: ` (a traceback, say).

Usage: python scripts/sample_commands.py OUT
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ZEROS = SRC / "delange" / "data" / "zeta_zeros_10k.txt"

# (name, arguments, expected exit code): 0 for a run, 1 for a refused input
# (a DelangeError), 2 for a usage error
SAMPLES = (
    ("theta", ("theta", "--kappa", "1", "--delta", "0", "--eta1", "0.3333333", "--eps", "0.01"), 0),
    ("theta-out", ("theta", "--kappa", "2", "--delta", "0.5", "--out", "theta.json"), 0),
    ("coeffs-divisor", ("coeffs", "--family", "divisor:2", "--J", "6", "--out", "coeffs.json"), 0),
    ("coeffs-sqfree", ("coeffs", "--family", "sqfree", "--J", "6", "--out", "coeffs.json"), 0),
    ("coeffs-omega", ("coeffs", "--family", "omega:0.5", "--J", "6", "--out", "coeffs.json"), 0),
    ("predict-theta", ("predict", "--family", "divisor:2", "--x", "1e8", "--theta-exp", "0.55",
                       "--N", "2", "--out", "predict.json"), 0),
    ("predict-window", ("predict", "--family", "sqfree", "--x", "1000000", "--y", "10000"), 0),
    ("sum-divisor", ("sum", "--family", "divisor:2", "--x", "1000000", "--y", "1000"), 0),
    ("sum-omega", ("sum", "--family", "omega:2", "--x", "1e12", "--y", "1e5", "--out", "sum.json"), 0),
    ("sum-sqfree", ("sum", "--family", "sqfree", "--x", "1e14", "--y", "1e4", "--workers", "2"), 0),
    ("experiment", ("experiment", "--family", "divisor:2", "--x-grid", "1e5,1e6", "--N", "1",
                    "--out", "experiment.csv"), 0),
    ("contour", ("contour", "--zeros", "zeros.txt", "--out", "contour.json",
                 "--emit-csv", "contour.csv"), 0),
    ("perron-divisor", ("perron-check", "--family", "divisor:2", "--x", "100000", "--y", "10000",
                        "--T", "1000", "--out", "perron.json"), 0),
    ("perron-sqfree", ("perron-check", "--family", "sqfree", "--x", "1000", "--y", "100",
                       "--T", "250", "--out", "perron.json"), 0),
    ("perron-omega", ("perron-check", "--family", "omega:3", "--x", "100000", "--y", "10000",
                      "--T", "1000"), 0),
    ("perron-zeros", ("perron-check", "--family", "one", "--x", "10000", "--y", "1000",
                      "--T", "800", "--zeros", "zeros.txt"), 0),
    ("hankel-u", ("hankel-check", "--u", "1e6", "--kappa", "0.5", "--out", "hankel.json"), 0),
    ("hankel-window", ("hankel-check", "--kappa", "1.5", "--x", "100000", "--y", "10000"), 0),
    ("refuse-contour-T", ("contour", "--zeros", "zeros.txt", "--T", "1e12", "--out", "c.json"), 1),
    ("refuse-contour-alpha", ("contour", "--zeros", "zeros.txt", "--alpha", "0.4", "--out", "c.json"), 1),
    ("refuse-contour-cstar", ("contour", "--zeros", "zeros.txt", "--cstar", "-1", "--out", "c.json"), 1),
    ("refuse-perron-x", ("perron-check", "--family", "one", "--x", "1000000", "--y", "1000"), 1),
    ("refuse-perron-T", ("perron-check", "--family", "one", "--x", "1000", "--y", "100", "--T", "5"), 1),
    ("refuse-hankel-u", ("hankel-check", "--u", "50", "--kappa", "0.5"), 1),
    ("refuse-workers", ("sum", "--family", "divisor:2", "--x", "1000", "--y", "100", "--workers", "0"), 1),
    ("refuse-theta-nan", ("theta", "--kappa", "nan", "--delta", "0"), 1),
    ("refuse-theta-eps", ("theta", "--kappa", "1", "--delta", "0", "--eps", "0.2"), 1),
    ("refuse-predict-theta", ("predict", "--family", "divisor:2", "--x", "1e8", "--theta-exp", "1.5"), 1),
    ("refuse-predict-a1", ("predict", "--family", "divisor:2", "--x", "1000000", "--y", "10000",
                           "--a1", "-1"), 1),
    ("refuse-perron-npu", ("perron-check", "--family", "one", "--x", "1000", "--y", "100",
                           "--nodes-per-unit", "2"), 1),
    ("refuse-hankel-tol", ("hankel-check", "--u", "1e6", "--kappa", "0.5", "--abs-tol", "1"), 1),
    ("refuse-perron-omega-huge", ("perron-check", "--family", "omega:1e300", "--x", "1000", "--y", "100",
                                  "--T", "50"), 1),
    ("refuse-perron-divisor-huge", ("perron-check", "--family", "divisor:1e300", "--x", "1000",
                                    "--y", "100", "--T", "50"), 1),
    ("refuse-hankel-order", ("hankel-check", "--u", "1e6", "--kappa", "0.5", "--l", "300"), 1),
    ("refuse-hankel-gamma", ("hankel-check", "--u", "100", "--kappa", "0.5", "--l", "300"), 1),
    ("refuse-hankel-power", ("hankel-check", "--u", "1e300", "--kappa", "400"), 1),
    ("refuse-perron-sqfree-reach", ("perron-check", "--family", "sqfree", "--x", "1000",
                                    "--y", "100", "--T", "60000"), 1),
    ("refuse-perron-omega-reach", ("perron-check", "--family", "omega:0.5", "--x", "1000",
                                   "--y", "100", "--T", "40000"), 1),
    ("refuse-missing-option", ("sum", "--family", "one", "--x", "10"), 2),
)


def run_sample(out: Path, name: str, argv: tuple, env: dict) -> tuple[int, list[str]]:
    """Run one command in out/name and write its record there; returns its
    exit code and its stderr lines without the `elapsed:` line."""
    cwd = out / name
    cwd.mkdir(parents=True)
    shutil.copyfile(ZEROS, cwd / "zeros.txt")
    proc = subprocess.run([sys.executable, "-m", "delange.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    (cwd / "zeros.txt").unlink()
    stderr = [line for line in proc.stderr.splitlines(keepends=True)
              if not line.startswith("elapsed:")]
    (cwd / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
    (cwd / "stderr.txt").write_text("".join(stderr), encoding="utf-8")
    (cwd / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
    return proc.returncode, stderr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="directory to create; it must not exist yet")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    unexpected = []
    for name, argv, expected in SAMPLES:
        code, stderr = run_sample(args.out, name, argv, env)
        print(f"{name}: exit {code}")
        if code != expected:
            unexpected.append(f"{name} exited {code}, expected {expected}")
        elif code == 1 and not (len(stderr) == 1 and stderr[0].startswith("error: ")):
            unexpected.append(f"{name} wrote {len(stderr)} lines to stderr, not one 'error: ' line")
    for line in unexpected:
        print(f"unexpected: {line}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
