"""Theorem-level formula evaluators against the exact rational core."""

from __future__ import annotations

import math
from fractions import Fraction
from math import pi, sin, sqrt

import pytest

from zagier_kit import exact_core as ec
from zagier_kit import formulas as fm
from zagier_kit import series_engine as se

from conftest import A_function_two_ways, bernoulli_fourier_eval


def test_even_formula_headline_values():
    rep = fm.zagier_even_formula(1, Fraction(1, 2))
    assert rep.exact == Fraction(23, 48)
    assert rep.abs_error < 1e-8
    rep = fm.zagier_even_formula(3, Fraction(1, 4))
    assert rep.exact == ec.zagier_eval(6, Fraction(1, 4))
    assert rep.abs_error < 1e-8


def test_odd_formula_headline_values():
    rep = fm.zagier_odd_formula(1, Fraction(1, 3))
    assert rep.exact == ec.zagier_eval(3, Fraction(1, 3))
    assert rep.abs_error < 1e-8
    # x = 1/2: the Bessel sum vanishes term by term, the rest still lands
    rep = fm.zagier_odd_formula(2, Fraction(1, 2))
    assert rep.series_meta[0].value == 0.0
    assert rep.abs_error < 1e-8


@pytest.mark.parametrize("n", range(6, 13))
def test_tight_tolerance_is_met_or_refused(n):
    # at tol 1e-12 relative the closed tails sit at their rounding floor:
    # each evaluator either lands within tol of the exact value or raises
    points = [Fraction(1, 4), Fraction(3, 4), Fraction(13, 48), Fraction(8, 17),
              Fraction(4, 7), Fraction(1, 3)]
    type_exact = ec.zagier_eval(2 * n, Fraction(-3, 2)) + ec.modified_bernoulli(2 * n)
    calls = [(fm.zagier_even_formula, (n, x), ec.zagier_eval(2 * n, x)) for x in points]
    calls += [(fm.zagier_odd_formula, (n, x), ec.zagier_eval(2 * n + 1, x)) for x in points]
    calls += [(fm.zagier_number_formula, (n,), ec.modified_bernoulli(2 * n)),
              (fm.zagier_type_sum, (n,), type_exact)]
    for fn, args, exact in calls:
        tol = 1e-12 * max(1.0, abs(float(exact)))
        try:
            rep = fn(*args, tol=tol)
        except se.SeriesConvergenceError:
            continue
        assert rep.abs_error <= tol, (fn.__name__, args)


def test_even_formula_float_x_has_no_exact():
    rep = fm.zagier_even_formula(1, 0.371)
    assert rep.exact is None and rep.abs_error is None
    # but a Fraction-valued float point is recognized
    rep2 = fm.zagier_even_formula(1, Fraction(371, 1000))
    assert rep2.exact is not None
    assert abs(rep.formula_value - rep2.formula_value) < 1e-12


def test_even_formula_drift_toward_unit_increment():
    # as x -> 1 the formula drifts toward B_{2n}^* + n
    n = 2
    rep = fm.zagier_even_formula(n, 1.0 - 1e-3)
    target = float(ec.modified_bernoulli(2 * n)) + n
    assert abs(rep.formula_value - target) < 1e-2


def test_odd_formula_periodicity_probe():
    # x -> 0 probe against the 6-periodic closed form; the comparison budget
    # carries the exact polynomial drift |B*(x) - B*(0)| at x = 1e-3, which
    # exceeds 1e-2 by itself from n = 7 on
    x = Fraction(1, 1000)
    for n in range(0, 9):
        idx = 2 * n + 1
        drift = abs(float(ec.zagier_eval(idx, x) - ec.zagier_eval(idx, 0)))
        target = (-1.0) ** n / 4.0 + sin((2 * n + 1) * pi / 3.0) / sqrt(3.0)
        rep = fm.zagier_odd_formula(n, x)
        assert abs(rep.formula_value - target) < 1e-2 + drift, n
        # the formula itself stays glued to the exact polynomial
        assert rep.abs_error < 1e-6, n


def test_zagier_number_formula():
    rep = fm.zagier_number_formula(1)
    assert rep.exact == Fraction(1, 24)
    assert rep.abs_error < 1e-8
    rep = fm.zagier_number_formula(4)
    assert rep.exact == ec.modified_bernoulli(8)
    assert rep.abs_error < 1e-8


def test_zagier_number_component_consistency():
    # the algebraic component equals the x -> 1 limit of the even-formula
    # g-sum: g(m, n, 1) and the shifted g(m+1, n, 0) are the same terms
    for n in (1, 3):
        limit_form = se.g_tail_sum(float(n), 1.0 - 1e-9).value
        number_form = se.conjugate_power_sum(3.0, float(n), 4.0).value
        assert abs(limit_form - number_form) < 1e-6
        shifted = se.g_tail_sum(float(n), 1e-12, start_m=2).value
        assert abs(shifted - number_form) < 1e-6


def test_zagier_type_sum():
    for n in (1, 3):
        rep = fm.zagier_type_sum(n)
        expected = ec.zagier_eval(2 * n, Fraction(-3, 2)) + ec.modified_bernoulli(2 * n)
        assert rep.exact == expected
        assert rep.abs_error < 1e-8


def test_zagier_type_u_term():
    # U_1(1/4) + U_1(3/4) = 1/2 + 3/2 = 2
    from zagier_kit.specfun import chebyshev_U_value as u

    assert abs(u(1, 0.25) + u(1, 0.75) - 2.0) < 1e-15


def test_asymptotic_ladder_at_x_01():
    errs = []
    for n in (5, 10, 15):
        approx = fm.even_asymptotic(n, 0.1)
        exact = float(ec.zagier_eval(2 * n, Fraction(1, 10)))
        errs.append(abs(approx - exact) / abs(exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_asymptotic_quarter_branch():
    # at x = 1/4 the formula switches to the 8 pi argument with flipped sign;
    # this branch converges much more slowly, so only the trend is asserted
    from zagier_kit.specfun import bessel_Y_int

    got = fm.even_asymptotic(2, 0.25)
    assert got == (-1.0) ** 3 * pi * bessel_Y_int(4, 8 * pi).value
    assert fm.even_asymptotic(2, 0.75) == got
    rels = []
    for n in (8, 12, 15):
        approx = fm.even_asymptotic(n, 0.25)
        exact = float(ec.zagier_eval(2 * n, Fraction(1, 4)))
        rels.append(abs(approx - exact) / abs(exact))
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 0.2


def test_asymptotic_number_case():
    approx = fm.even_asymptotic(15, 0.0)
    exact = float(ec.modified_bernoulli(30))
    assert abs(approx - exact) / abs(exact) < 1e-4


def test_odd_asymptotic():
    approx = fm.odd_asymptotic(10, 0.1)
    exact = float(ec.zagier_eval(21, Fraction(1, 10)))
    assert abs(approx - exact) / abs(exact) < 1e-2


def test_lemma_profiles_symmetric_about_half():
    # the Fourier quadrature integrates over [0, 1/2] and doubles
    for n in (1, 2, 3):
        for t in (0.01, 0.2, 0.37):
            for profile in (fm._lemma_P_profile, fm._lemma_dJ_profile):
                assert abs(profile(t, n) - profile(1.0 - t, n)) < 1e-13, (n, t)


def test_fourier_coeff_P():
    rep = fm.fourier_coeff_P_check(1, 1)
    assert abs(rep.formula_value - rep.reference) < 1e-8
    assert abs(rep.extras["a0"]) < 1e-10


def test_fourier_coeff_dJ():
    rep = fm.fourier_coeff_dJ_check(1, 1)
    assert abs(rep.formula_value - rep.reference) < 1e-7
    assert abs(rep.extras["b0"]) < 1e-9


@pytest.mark.parametrize("n,x", [(1, 0.3), (2, 0.7)])
def test_A_function_two_ways(n, x):
    closed, direct = A_function_two_ways(n, x)
    assert abs(closed - direct) < 1e-6


def test_A_function_reconstructs_zagier():
    # B_{2n}^*(x) = (-1)^n/(2n) + A(n,x) + (U_{2n-1}(x/2) + U_{2n-1}((x+1)/2))/2
    from zagier_kit.specfun import chebyshev_U_value as u

    n, xq = 2, Fraction(3, 10)
    x = float(xq)
    a_val = A_function_two_ways(n, x)[0]
    rebuilt = ((-1.0) ** n / (2 * n) + a_val
               + 0.5 * (u(2 * n - 1, x / 2) + u(2 * n - 1, (x + 1) / 2)))
    assert abs(rebuilt - float(ec.zagier_eval(2 * n, xq))) < 1e-6


def test_poisson_check_fast_variants():
    # smaller Cesaro budget, loosened tolerance: keeps the unit test quick
    rep = fm.poisson_J_series_check(2.5, 0.3, n_terms=2 * 10**5, window=5000)
    assert abs(rep.formula_value - rep.reference) < 1e-3
    rep_even = fm.poisson_J_series_check(4.0, 0.3, n_terms=2 * 10**5, window=5000)
    assert abs(rep_even.formula_value - rep_even.reference) < 1e-5


def test_poisson_half_order_reduction():
    # nu = 1/2 collapses J to sqrt(2/(pi z)) sin z; the identity then encodes
    # the sine power-sum evaluation, so the two engine routes must agree
    rep = fm.poisson_J_series_check(0.5, 0.3, n_terms=2 * 10**5, window=5000)
    assert abs(rep.formula_value - rep.reference) < 1e-4


def test_bernoulli_fourier():
    b2 = bernoulli_fourier_eval(2, 0.5, 1000)
    assert abs(b2 - float(ec.bernoulli_polynomial(2)(Fraction(1, 2)))) < 1e-6
    b3 = bernoulli_fourier_eval(3, 0.25, 2000)
    assert abs(b3 - float(ec.bernoulli_polynomial(3)(Fraction(1, 4)))) < 1e-6
    # parity: even index symmetric, odd antisymmetric under x -> 1-x
    assert abs(bernoulli_fourier_eval(4, 0.3, 500)
               - bernoulli_fourier_eval(4, 0.7, 500)) < 1e-12
    assert abs(bernoulli_fourier_eval(5, 0.3, 500)
               + bernoulli_fourier_eval(5, 0.7, 500)) < 1e-12


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        fm.zagier_even_formula(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        fm.zagier_even_formula(1, Fraction(3, 2))
    with pytest.raises(ValueError):
        fm.odd_asymptotic(1, 0.0)
