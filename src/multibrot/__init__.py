"""Exact Laurent coefficients of the Multibrot exterior map.

The conformal map from the exterior of the closed unit disk onto the
complement of the degree-d Multibrot set expands at infinity as
z + sum(b_m z^-m).  This package computes every b_m exactly (big-rational
arithmetic throughout) by three routes: a column sweep that fills whole
tables, and the per-index residue and partition-sum routes that serve as
its independent oracles.  It mechanically verifies the known valuation
bounds and vanishing statements about the denominators of these
coefficients.
"""

from .exact import (
    NEG_INF,
    POS_INF,
    binomial_general,
    factorial_valuation,
    is_prime,
    padic_valuation,
    rational,
)
from .series import iterate_parameter_polynomial, rational_power_tail
from .coeffs import (
    METHOD_COMBINATORIAL,
    METHOD_RESIDUE,
    METHOD_SPECIAL,
    METHOD_SWEEP,
    CoeffRecord,
    choose_n,
    coefficient_by_partition_sum,
    coefficient_by_residue,
    coefficients_by_sweep,
    laurent_coefficient,
    partition_index_tuples,
    zero_census,
)
from .cache import (
    CacheChecksumError,
    CacheFormatError,
    load_coefficients,
)
from .checks import (
    CHECK_NAMES,
    Verdict,
    check_dadic,
    check_ewing_schober,
    check_integrality,
    check_levin,
    check_main,
    check_vanishing,
    check_yamashita,
    check_zagier,
    format_report,
    suite_verdicts,
)

__version__ = "0.1.0"
