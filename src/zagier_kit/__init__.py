"""Zagier polynomials and modified Bernoulli numbers.

Exact big-rational values, Bessel/Chebyshev series formulas for them, an
acceleration engine for the conditionally convergent sums involved, and a
verification harness that cross-checks every identity against the exact
core.
"""

from .exact_core import (
    BernoulliCache,
    RationalPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    chebyshev_T,
    chebyshev_U,
    jacobi_symbol,
    modified_bernoulli,
    odd_modified_closed_form,
    two_adic_valuation,
    two_adic_valuation_prediction,
    zagier_eval,
    zagier_polynomial,
    zagier_shift,
)
from .formulas import (
    EvalReport,
    even_asymptotic,
    odd_asymptotic,
    zagier_even_formula,
    zagier_number_formula,
    zagier_odd_formula,
    zagier_type_sum,
)
from .series_engine import (
    SeriesConvergenceError,
    SeriesResult,
    TrigPowerSums,
    bessel_cos_series,
    bessel_sin_series,
    g_tail_sum,
    g_term,
    trig_power_sums,
)
from .specfun import (
    EvalResult,
    bessel_J,
    bessel_J_int_batch,
    bessel_Y_int,
    coates_integral,
    coates_series,
    dJ_dnu_at_int,
    digamma_int,
    hurwitz_zeta_half,
    schlafli_S,
)

__version__ = "1.0.0"

__all__ = [
    "BernoulliCache",
    "RationalPolynomial",
    "bernoulli_number",
    "bernoulli_polynomial",
    "chebyshev_T",
    "chebyshev_U",
    "jacobi_symbol",
    "modified_bernoulli",
    "odd_modified_closed_form",
    "two_adic_valuation",
    "two_adic_valuation_prediction",
    "zagier_eval",
    "zagier_polynomial",
    "zagier_shift",
    "EvalReport",
    "even_asymptotic",
    "odd_asymptotic",
    "zagier_even_formula",
    "zagier_number_formula",
    "zagier_odd_formula",
    "zagier_type_sum",
    "SeriesConvergenceError",
    "SeriesResult",
    "TrigPowerSums",
    "bessel_cos_series",
    "bessel_sin_series",
    "g_tail_sum",
    "g_term",
    "trig_power_sums",
    "EvalResult",
    "bessel_J",
    "bessel_J_int_batch",
    "bessel_Y_int",
    "coates_integral",
    "coates_series",
    "dJ_dnu_at_int",
    "digamma_int",
    "hurwitz_zeta_half",
    "schlafli_S",
    "__version__",
]
