"""A seeded fuzz of the CLI's numeric options, run in-process.

Each case starts from a base command the size of a sample command and
changes one numeric option (or a family's parameter) to one extreme value;
every base also runs unchanged.
The contract: the exit code is 0, 1 or 2, no exception escapes, no warning
is raised, a run that exits 0 prints no nan or inf, and a refused input
(exit 1) prints exactly one `error: ` line and nothing else on stderr.  --workers keeps its base value, so no case
starts more threads than its base command.
"""

import re
import signal
import time
import warnings

import pytest

from delange import cli
from delange.contour import bundled_zero_table

VALUES = ("0", "1", "-1", "1e-300", "1e300", "inf", "-inf", "nan", "1" + "0" * 399)

# A case taking longer than this fails; one running past _HARD_LIMIT is stopped.
_CASE_SECONDS = 5.0
_HARD_LIMIT = 60

_ZEROS = "{zeros}"

# name: (base command, options to change one at a time).  An option of the
# form "--family=divisor:{}" puts the value into the family's parameter.
BASES = {
    "theta": (("theta", "--kappa", "1", "--delta", "0"),
              ("--kappa", "--delta", "--eta1", "--eps")),
    "coeffs": (("coeffs", "--family", "divisor:2", "--J", "6"),
               ("--J", "--family=divisor:{}", "--family=omega:{}")),
    "sum": (("sum", "--family", "divisor:2", "--x", "1000", "--y", "100"),
            ("--x", "--y", "--family=divisor:{}", "--family=omega:{}")),
    "predict": (("predict", "--family", "divisor:2", "--x", "1e8", "--theta-exp", "0.55", "--N", "2"),
                ("--x", "--y", "--theta-exp", "--N", "--J", "--a1", "--a2", "--M",
                 "--family=divisor:{}", "--family=omega:{}")),
    "experiment": (("experiment", "--family", "divisor:2", "--x-grid", "1e5", "--N", "1",
                    "--out", "experiment.csv"),
                   ("--x-grid", "--theta-exp", "--N", "--J", "--a1", "--a2", "--M")),
    "contour": (("contour", "--zeros", _ZEROS, "--T", "4096", "--out", "contour.json"),
                ("--T", "--alpha", "--cstar", "--eta", "--corner-eps", "--logx")),
    "perron-check": (("perron-check", "--family", "one", "--x", "1000", "--y", "100", "--T", "50"),
                     ("--x", "--y", "--T", "--nodes-per-unit", "--abs-tol", "--b-offset",
                      "--family=divisor:{}", "--family=omega:{}")),
    "hankel-u": (("hankel-check", "--u", "1e6", "--kappa", "0.5"),
                 ("--u", "--kappa", "--l", "--r", "--nodes-per-unit", "--abs-tol")),
    "hankel-window": (("hankel-check", "--kappa", "1.5", "--x", "100000", "--y", "10000"),
                      ("--x", "--y")),
    # a reference 1/Gamma(kappa - l) whose Gamma(300.5) leaves the double range
    "hankel-gamma": (("hankel-check", "--u", "100", "--kappa", "0.5", "--l", "300"),
                     ("--u", "--kappa", "--r")),
}

CASES = [(name, None, None) for name in BASES] + [
    (name, option, value) for name, (_, options) in BASES.items()
    for option in options for value in VALUES]


def _argv(name: str, option: str, value: str) -> list:
    """The base command of `name` with `option` set to `value`, as --flag=value
    so that argparse reads a leading minus as a value; the base itself for
    option None."""
    base = [a.replace(_ZEROS, bundled_zero_table()) for a in BASES[name][0]]
    if option is None:
        return base
    flag, _, template = option.partition("=")
    if flag in base:
        at = base.index(flag)
        del base[at : at + 2]
    return base + [f"{flag}={(template or '{}').format(value)}"]


def _stop(signum, frame):
    raise TimeoutError(f"case ran past {_HARD_LIMIT} s")


def _case_id(name: str, option, value) -> str:
    if option is None:
        return f"{name}-base"
    flag, _, template = option.partition("=")
    return f"{name}{flag}={(template or '{}').format(value[:8])}"


@pytest.mark.parametrize("name, option, value", CASES, ids=[_case_id(*case) for case in CASES])
def test_numeric_option_extremes(name, option, value, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = _argv(name, option, value)
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.alarm(_HARD_LIMIT)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    printed = capsys.readouterr()
    err = [line for line in printed.err.splitlines() if not line.startswith("elapsed:")]
    assert code in (0, 1, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", printed.out, re.IGNORECASE), printed.out
    if code == 1:
        assert len(err) == 1 and err[0].startswith("error: "), err
    assert elapsed <= _CASE_SECONDS, f"{elapsed:.1f} s"
