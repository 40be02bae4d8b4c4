"""Public surface: every exported name resolves, and the package exports a
pinned list, so a deletion cannot silently drop a public name."""

from __future__ import annotations

import importlib

import pytest

import zagier_kit

MODULES = ("zagier_kit", "zagier_kit.exact_core", "zagier_kit.specfun",
           "zagier_kit.series_engine", "zagier_kit.formulas", "zagier_kit.verify")

PACKAGE_ALL = [
    "BernoulliCache", "RationalPolynomial", "bernoulli_number", "bernoulli_polynomial",
    "chebyshev_T", "chebyshev_U", "jacobi_symbol", "modified_bernoulli",
    "odd_modified_closed_form", "two_adic_valuation", "two_adic_valuation_prediction",
    "zagier_eval", "zagier_polynomial", "zagier_shift",
    "EvalReport", "even_asymptotic", "odd_asymptotic", "zagier_even_formula",
    "zagier_number_formula", "zagier_odd_formula", "zagier_type_sum",
    "SeriesConvergenceError", "SeriesResult", "TrigPowerSums", "bessel_cos_series",
    "bessel_sin_series", "g_tail_sum", "g_term", "trig_power_sums",
    "EvalResult", "bessel_J", "bessel_J_int_batch", "bessel_Y_int", "coates_integral",
    "coates_series", "dJ_dnu_at_int", "digamma_int", "hurwitz_zeta_half", "schlafli_S",
    "__version__",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_pinned_list():
    assert zagier_kit.__all__ == PACKAGE_ALL
