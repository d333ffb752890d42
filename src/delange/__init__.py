"""Mean values of arithmetic functions over short intervals.

Expansion-coefficient computation, exact sieved window sums, short-interval
predictions with remainder bounds, theta-threshold calculators, an
algorithmic Hooley-Huxley contour builder, and Perron/Hankel quadrature
cross-checks.
"""

from .contour import (
    ContourPath,
    ValidationReport,
    ZeroSet,
    assemble_contour,
    build_blocks,
    load_zeros,
    validate_contour,
    zero_density_count,
    zeroset_from_pairs,
)
from .errors import DelangeError
from .families import (
    ArithmeticFamily,
    TypePParams,
    builtin_family,
    euler_product_value,
    f_value,
    family_from_spec,
    g_series_by_euler_product,
)
from .meanvalue import (
    ExperimentRecord,
    RemainderParams,
    ThetaRegime,
    ThetaResult,
    predict,
    remainder_bound,
    run_experiment,
    theta,
    theta_prior_bound,
)
from .perron import (
    QuadratureSpec,
    hankel_closed_form,
    hankel_main_term,
    ml_integral_check,
    nudge_to_zero_gap,
    perron_line_sum,
)
from .series import (
    ExpansionCoefficients,
    PowerSeries,
    g_lambda_coeffs,
    ps_exp,
    ps_log,
    ps_mul,
    shifted_zeta_series,
    z_coeffs,
)
from .sieve import FactoredWindow, Window, exact_sum, factor_window, primes_up_to
from .special import recip_gamma, stieltjes, zeta, zeta_batch

__version__ = "0.1.0"

__all__ = [
    "ArithmeticFamily",
    "ContourPath",
    "DelangeError",
    "ExpansionCoefficients",
    "ExperimentRecord",
    "FactoredWindow",
    "PowerSeries",
    "QuadratureSpec",
    "RemainderParams",
    "ThetaRegime",
    "ThetaResult",
    "TypePParams",
    "ValidationReport",
    "Window",
    "ZeroSet",
    "assemble_contour",
    "build_blocks",
    "builtin_family",
    "euler_product_value",
    "exact_sum",
    "f_value",
    "factor_window",
    "family_from_spec",
    "g_lambda_coeffs",
    "g_series_by_euler_product",
    "hankel_closed_form",
    "hankel_main_term",
    "load_zeros",
    "ml_integral_check",
    "nudge_to_zero_gap",
    "perron_line_sum",
    "predict",
    "primes_up_to",
    "ps_exp",
    "ps_log",
    "ps_mul",
    "recip_gamma",
    "remainder_bound",
    "run_experiment",
    "shifted_zeta_series",
    "stieltjes",
    "theta",
    "theta_prior_bound",
    "validate_contour",
    "z_coeffs",
    "zero_density_count",
    "zeroset_from_pairs",
    "zeta",
    "zeta_batch",
]
