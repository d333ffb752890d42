"""Exception hierarchy shared by all delange modules.

Every domain failure derives from :class:`DelangeError` so the CLI can map
them uniformly to exit code 1.  Usage mistakes map to exit code 2.
"""

from __future__ import annotations

import math


class DelangeError(Exception):
    """Base class for all domain errors raised by this package."""


# --- numeric substrate -------------------------------------------------------

class PoleAtOne(DelangeError):
    """zeta(s) requested at its pole s = 1."""


class OutOfValidatedRange(DelangeError):
    """Evaluation point outside the validated box, or precision budget too small."""


class OrderTooHigh(DelangeError):
    """Requested series/constant order exceeds the cached table."""


# --- truncated power series ---------------------------------------------------

class TruncationMismatch(DelangeError):
    """Binary series operation on operands with different truncation orders."""


class LogOfZeroConstantTerm(DelangeError):
    """ps_log requires a nonzero constant coefficient."""


class OrderExceedsCoefficients(DelangeError):
    """Expansion order N exceeds the available coefficient arrays."""


# --- arithmetic families ------------------------------------------------------

class UnknownFamily(DelangeError):
    """Family name not among the built-ins."""


class ParameterOutOfRange(DelangeError):
    """Parameter outside its admissible range."""


def require_finite(**params: float) -> None:
    """Raise ParameterOutOfRange naming the first non-finite parameter."""
    for name, v in params.items():
        if not math.isfinite(v):
            raise ParameterOutOfRange(f"{name}={v} must be finite")


class NonconvergentProduct(DelangeError):
    """Euler product partial sums fail to Cauchy-converge."""


class DuplicatePrime(DelangeError):
    """Factorization list contains a repeated prime."""


# --- sieve ---------------------------------------------------------------------

class WindowTooLarge(DelangeError):
    """Window length or height exceeds the memory budget."""


class InvalidWindow(DelangeError, ValueError):
    """Window bounds that are not finite, out of order or past 64 bits."""


# --- mean value ------------------------------------------------------------------

class LindelofRequiresDeltaAboveOne(DelangeError):
    """The conditional theta formula needs delta > 1 for a positive numerator."""


# --- contour ---------------------------------------------------------------------

class ZeroTableParseError(DelangeError):
    """Malformed line in a zero table file.

    Carries the 1-based line number in ``lineno``.
    """

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BetaOutOfRange(DelangeError):
    """Zero with real part outside [1/2, 1)."""


class DegenerateBlock(DelangeError):
    """Elevated block level reaches the pole line Re(s) = 1."""


# --- quadrature lab ---------------------------------------------------------------

class QuadratureNotConverged(DelangeError):
    """Halving the quadrature step moved the result by more than abs_tol."""


# --- cli --------------------------------------------------------------------------

class UsageError(DelangeError):
    """Bad command line; message names the offending flag."""
