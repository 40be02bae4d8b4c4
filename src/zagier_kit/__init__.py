"""Zagier polynomials and modified Bernoulli numbers.

Exact big-rational values, Bessel/Chebyshev series formulas for them, an
acceleration engine for the conditionally convergent sums involved, and a
verification harness that cross-checks every identity against the exact
core.  Importing the package loads the exact core alone; the numeric
modules, and numpy with them, load on first use of a numeric name.
"""

import importlib

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

# The numeric side loads numpy, so its modules are imported on first use
# (PEP 562): the exact core and the command line start without them.
_NUMERIC = {
    "formulas": (
        "EvalReport",
        "even_asymptotic",
        "odd_asymptotic",
        "zagier_even_formula",
        "zagier_number_formula",
        "zagier_odd_formula",
        "zagier_type_sum",
    ),
    "series_engine": (
        "SeriesConvergenceError",
        "SeriesResult",
        "TrigPowerSums",
        "bessel_cos_series",
        "bessel_sin_series",
        "g_tail_sum",
        "trig_power_sums",
    ),
    "specfun": (
        "bessel_J",
        "bessel_J_int_batch",
        "bessel_Y_int",
        "coates_integral",
        "coates_series",
        "dJ_dnu_at_int",
        "schlafli_S",
    ),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in names}
_SUBMODULES = (*_NUMERIC, "verify")

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
    *_HOME,  # the numeric names, in the order of _NUMERIC
    "__version__",
]


def __getattr__(name: str):
    """Import a numeric submodule, or the submodule that defines a numeric
    name of __all__, on first access; the name is then bound here, so later
    lookups are plain attribute reads."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
