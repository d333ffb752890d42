"""Run one `delange` subcommand with the benchmark's span wrappers installed.

    python3 perfbench/cli_child.py --spans FILE -- <subcommand> [options]

The import of the package and the subcommand each become a span; the
subcommand span is the parent of every wrapped call it makes.  The spans are
written to FILE as JSONL when the command ends, whatever its exit code.
"""

import sys
import time
from pathlib import Path

import spans


def main() -> int:
    argv = sys.argv[1:]
    out = argv[argv.index("--spans") + 1]
    cmd = argv[argv.index("--") + 1 :]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = spans.Tracer()
    tracer.phase = "round"
    t0 = time.perf_counter()
    import delange.cli

    tracer.add("delange.import", t0, time.perf_counter())
    tracer.install()
    rec = tracer.open(f"cli.{cmd[0]}")
    rc = 1
    try:
        rc = delange.cli.main(cmd)
    finally:
        tracer.close(rec)
        rec["failed"] = rc != 0
        tracer.uninstall()
        tracer.write_jsonl(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
