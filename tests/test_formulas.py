"""Theorem-level formula evaluators against the exact rational core."""

from __future__ import annotations

import hashlib
import importlib
import math
import pickle
import sys
from fractions import Fraction
from math import pi, sin, sqrt

import numpy as np
import pytest

from zagier_kit import exact_core as ec
from zagier_kit import formulas as fm
from zagier_kit import series_engine as se
from zagier_kit import specfun as sf
from zagier_kit.verify import X_GRID

from conftest import CACHES, A_function_two_ways, bernoulli_fourier_eval, empty_caches, traced_peak


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
        shifted = se.g_tail_sum(float(n), 1.0 + 1e-12).value  # from m = 2 at x = 1e-12
        assert abs(shifted - number_form) < 1e-6


def test_zagier_type_sum():
    for n in (1, 3):
        rep = fm.zagier_type_sum(n)
        expected = ec.zagier_eval(2 * n, Fraction(-3, 2)) + ec.modified_bernoulli(2 * n)
        assert rep.exact == expected
        assert rep.abs_error < 1e-8


# formula, its point arguments and a fresh exact value by n
_CACHED_FORMULAS = {
    "even": (fm.zagier_even_formula, (Fraction(1, 3),), lambda n: ec.zagier_eval(2 * n, Fraction(1, 3))),
    "odd": (fm.zagier_odd_formula, (Fraction(2, 7),), lambda n: ec.zagier_eval(2 * n + 1, Fraction(2, 7))),
    "number": (fm.zagier_number_formula, (), lambda n: ec.modified_bernoulli(2 * n)),
    "type": (fm.zagier_type_sum, (),
             lambda n: ec.zagier_eval(2 * n, Fraction(-3, 2)) + ec.modified_bernoulli(2 * n)),
}


def test_distinct_points_grow_no_cache(monkeypatch):
    # only the phases and the Wood polynomial's a(x) depend on x: once the first
    # point has filled the caches, 300 distinct x at one index add no entry
    empty_caches(monkeypatch)
    caches = [getattr(importlib.import_module(f"zagier_kit.{module}"), name) for module, name in CACHES]
    xs = [Fraction(k, 307) for k in range(1, 301)]
    formulas = (fm.zagier_even_formula, fm.zagier_odd_formula)
    for formula in formulas:
        formula(8, xs[0], tol=1e-9)
    filled = [cache.cache_info().currsize for cache in caches]
    for x in xs:
        for formula in formulas:
            formula(8, x, tol=1e-9)
    assert [cache.cache_info().currsize for cache in caches] == filled


@pytest.mark.parametrize("name", sorted(_CACHED_FORMULAS))
def test_exact_reference_is_formed_on_first_read(name, monkeypatch):
    # a Fraction call forms no exact value; the first read of exact, abs_error
    # or rel_error forms it once, and later reads keep it; an unread report pickles
    fn, args, fresh_exact = _CACHED_FORMULAS[name]
    exact = fresh_exact(7)
    rep = fn(7, *args, tol=1e-9)
    assert pickle.loads(pickle.dumps(rep)).exact == exact
    empty_caches(monkeypatch)
    calls = []
    for core in ("zagier_eval", "modified_bernoulli"):
        monkeypatch.setattr(ec, core, lambda *a, _f=getattr(ec, core): calls.append(_f.__name__) or _f(*a))
    rep = fn(7, *args, tol=1e-9)
    assert calls == [], name
    err = abs(rep.formula_value - float(exact))
    for _ in range(2):
        assert (rep.rel_error, rep.abs_error, rep.exact) == (err / abs(float(exact)), err, exact)
        assert sorted(calls) == {"number": ["modified_bernoulli"],
                                 "type": ["modified_bernoulli", "zagier_eval"]}.get(name, ["zagier_eval"])


@pytest.mark.parametrize("fn", (fm.zagier_even_formula, fm.zagier_odd_formula))
def test_a_polynomial_formula_that_raises_still_builds_its_g_table(fn, monkeypatch):
    # the lattice sum, summed first, raises at tol 1e-17; the g-sum pair's table is
    # built all the same, so no later call at another x builds it
    empty_caches(monkeypatch)
    with pytest.raises(se.SeriesConvergenceError, match="^regularized_bracket_sum"):
        fn(1, 0.3, tol=1e-17)
    assert se._g_table.cache_info().currsize == 1


@pytest.mark.parametrize("name", sorted(_CACHED_FORMULAS))
def test_formula_caches_are_bit_identical_to_empty_caches(name, monkeypatch):
    # every EvalReport field, or the raise message and best result, is the
    # same with each cache emptied before the call and with warm caches in
    # ascending then descending n; .exact is the exact core's fresh value
    fn, args, fresh_exact = _CACHED_FORMULAS[name]

    def outcome(n):
        exact = fresh_exact(n)
        try:
            rep = fn(n, *args, tol=1e-9 * max(1.0, abs(float(exact))))
        except se.SeriesConvergenceError as err:
            return "raised", str(err), repr(err.best)
        assert rep.exact == exact, (name, n)
        return repr(rep), rep.exact, rep.abs_error, rep.rel_error

    ns = range(1, 61)
    cold = {}
    for n in ns:
        empty_caches(monkeypatch)
        cold[n] = outcome(n)
    assert sum(result[0] != "raised" for result in cold.values()) >= 30, name
    empty_caches(monkeypatch)
    for n in [*ns, *reversed(ns)]:
        assert outcome(n) == cold[n], (name, n)


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
    assert got == (-1.0) ** 3 * pi * bessel_Y_int(4, 8 * pi)
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


POISSON_X = (0.1, 0.3, 0.62, 0.9)


def test_poisson_check_fast_variants():
    # the closed left side is the only variant, and it matches the right side to 1e-13
    for nu, x in ((2.5, 0.3), (4.0, 0.3), (1.0, 0.9), (8.0, 0.62)):
        rep = fm.poisson_J_series_check(nu, x)
        assert abs(rep.formula_value - rep.reference) < 1e-13, (nu, x)


def test_poisson_half_order_reduction():
    # nu = 1/2 collapses J to sqrt(2/(pi z)) sin z, which vanishes on z = 4 pi m;
    # the sine power-sum route of the right side must vanish with it
    for x in POISSON_X:
        rep = fm.poisson_J_series_check(0.5, x)
        assert abs(rep.reference) <= 1e-15, x
        assert abs(rep.formula_value - rep.reference) <= 1e-15, x


@pytest.mark.parametrize("x", POISSON_X)
def test_poisson_lhs_at_five_halves_vs_polylog(x):
    # J_{5/2}(z) = -3 sqrt(2/(pi z))/z on z = 4 pi m, so the left side is
    # -3 sqrt(2/pi) (4 pi)^{-3/2} Re Li_{3/2}(e^{2 pi i x}), one C_{3/2} term
    import mpmath as mp

    with mp.workdps(40):
        ref = float(-3 * mp.sqrt(2 / mp.pi) * (4 * mp.pi) ** mp.mpf(-1.5)
                    * mp.re(mp.polylog(1.5, mp.exp(2j * mp.pi * x))))
    rep = fm.poisson_J_series_check(2.5, x)
    assert abs(rep.reference - ref) <= min(1e-15, rep.extras["lhs_bound"])


@pytest.mark.parametrize("nu", (2.0, 4.0))
def test_poisson_lhs_vs_cesaro_mean_of_scipy_terms(nu):
    # the former oracle: the mean of the last 10^4 of 10^6 partial sums of
    # scipy's J_nu(4 pi m) cos(2 pi m x); at these x it read 9.9e-12 and 1.6e-11
    # off the closed left side (1.7e-10 at x = 0.1 and 0.9, where the window's
    # bias is larger), hence 3e-11
    from scipy.special import jv

    ms = np.arange(1, 10**6 + 1, dtype=float)
    terms = jv(nu, 4.0 * pi * ms)
    for x in (0.3, 0.62):
        mean = float(np.cumsum(terms * np.cos(2.0 * pi * ms * x))[-10**4:].mean())
        assert abs(mean - fm.poisson_J_series_check(nu, x).reference) < 3e-11, x


def test_poisson_lhs_bound_leaves_room_below_the_suite_tolerance():
    # the reported bound of the left side (dropped orders and rounding) at the
    # poisson-series cases and the test grid stays below verify's 1e-13
    for nu in (0.5, 1.0, 2.0, 2.5, 4.0):
        for x in POISSON_X:
            bound = fm.poisson_J_series_check(nu, x).extras["lhs_bound"]
            assert 0.0 < bound < 1e-13, (nu, x)


def _poisson_grid():
    # N: one term, the near terms alone (3 for these orders), either side of
    # 2^15, and 2 * 10^5; W: one partial sum, 5,000 and all of them
    for nu in (0.5, 2.0, 2.5, 4.0):
        for n_terms in (1, 3, 2**15 - 1, 2**15, 2**15 + 1, 2 * 10**5):
            for window in sorted({1, 5000, n_terms} & set(range(1, n_terms + 1))):
                yield nu, n_terms, window


@pytest.mark.parametrize("nu,n_terms,window", _poisson_grid())
def test_poisson_check_streams_the_whole_array_cesaro_mean(nu, n_terms, window):
    # the mean of the last `window` of the first n_terms partial sums S_n of the
    # whole array J_nu(4 pi m) cos(2 pi m x) lies within the tail bound of the
    # closed left side: by summation by parts |LHS - S_n| <= V_n/sin(pi x), V_n
    # the variation of a_m = J_nu(4 pi m) over m > n, closed by |a_L| past the
    # array's end L, where a_m falls monotonically to 0
    x, size = 0.3, 2 * 10**5 + 2
    a = fm._lattice_J(nu, size)
    assert nu == 0.5 or np.all(np.diff(np.abs(a[-100:])) < 0)
    rev = np.cumsum(np.abs(np.diff(a))[::-1])[::-1]  # rev[n] = sum_{m > n} |a_m - a_{m+1}|
    first = n_terms - window + 1
    bound = (rev[first : n_terms + 1].mean() + abs(a[-1])) / sin(pi * x)
    terms = a[:n_terms] * np.cos(2.0 * pi * np.arange(1, n_terms + 1) * x)
    partial = np.cumsum(terms)
    rounding = 2 * n_terms * se._EPS * float(np.abs(terms).sum())
    rep = fm.poisson_J_series_check(nu, x)
    err = abs(float(partial[-window:].mean()) - rep.reference)
    assert err <= bound + rounding + rep.extras["lhs_bound"]


@pytest.mark.parametrize("n_terms,window", [(0, 1), (-5, 1), (10, 0), (10, -1), (10, 11)])
def test_poisson_check_rejects_bad_budgets(n_terms, window):
    # the left side is closed, so the check takes no term budget or window at all
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        fm.poisson_J_series_check(2.0, 0.3, n_terms=n_terms, window=window)


@pytest.mark.parametrize("nu", (20.0, 24.0, 29.0))
@pytest.mark.parametrize("x", (0.1, 0.62))
def test_poisson_sides_agree_at_large_order(nu, x):
    # the closed left side's tail is one Lerch sum formed at its own size, so
    # the sides keep their digits where the closed differences lost them
    # (5e-12, 1.3e-9 and 1.8e-6 apart at nu = 20, 24 and 29)
    rep = fm.poisson_J_series_check(nu, x)
    assert abs(rep.formula_value - rep.reference) <= 1e-13
    assert rep.extras["lhs_bound"] < 1e-12


@pytest.mark.parametrize("nu", (20.5, 29.5))
@pytest.mark.parametrize("x", (0.1, 0.62))
def test_poisson_sides_agree_at_half_integer_orders_past_the_first_lattice_point(nu, x):
    # nu > 4 pi: the near terms J_nu(4 pi m), nu > 4 pi m, come from Miller's
    # backward recurrence, and the sides agree within the left side's bound
    rep = fm.poisson_J_series_check(nu, x)
    assert abs(rep.formula_value - rep.reference) <= rep.extras["lhs_bound"] < 1e-12


@pytest.mark.parametrize("nu,x", [(0.0, 0.3), (-1.0, 0.3), (29.6, 0.3), (2.0, 0.0), (2.0, 1.0)])
def test_poisson_check_domain(nu, x):
    # d_{K+2} must lie in the Hankel table, which holds orders through 30
    with pytest.raises(ValueError, match="must lie in"):
        fm.poisson_J_series_check(nu, x)


def test_poisson_check_memory_is_the_near_terms():
    # the closed left side holds a few near terms and at most 29 orders
    fm.poisson_J_series_check(2.0, 0.3)
    _, peak = traced_peak(fm.poisson_J_series_check, 2.0, 0.3)
    assert peak <= 64_000


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


@pytest.mark.parametrize("fn,args,kwargs,match", [
    pytest.param(fm.zagier_even_formula, (0, Fraction(1, 2)), {}, "^n must be an integer >= 1, got 0", id="even-n0"),
    pytest.param(fm.zagier_even_formula, (1, Fraction(3, 2)), {}, "^x must lie", id="even-x"),
    pytest.param(fm.odd_asymptotic, (1, 0.0), {}, "^x must lie", id="odd-asymptotic-x"),
    pytest.param(fm.zagier_odd_formula, (-1, 0.3), {}, "^n must be an integer >= 0, got -1", id="odd-n-1"),
    pytest.param(fm.zagier_even_formula, (1.5, 0.3), {}, "^n must be an integer", id="even-n-float"),
    pytest.param(fm.zagier_odd_formula, (2.0, 0.3), {}, "^n must be an integer", id="odd-n-float"),
    pytest.param(fm.zagier_number_formula, (True,), {}, "^n must be an integer", id="number-n-bool"),
    pytest.param(fm.zagier_type_sum, (np.bool_(True),), {}, "^n must be an integer", id="type-n-npbool"),
    pytest.param(fm.even_asymptotic, (2.5, 0.3), {}, "^n must be an integer", id="even-asymptotic-n"),
    pytest.param(fm.zagier_even_formula, (1, 0.3), {"tol": math.nan}, "^tol must be positive",
                 id="even-tol-nan"),
    pytest.param(fm.zagier_odd_formula, (1, 0.3), {"tol": 0.0}, "^tol must be positive", id="odd-tol-0"),
    pytest.param(fm.zagier_number_formula, (2,), {"tol": -1.0}, "^tol must be positive",
                 id="number-tol-neg"),
    pytest.param(fm.zagier_type_sum, (2,), {"tol": math.nan}, "^tol must be positive", id="type-tol-nan"),
])
def test_formula_domain_errors(fn, args, kwargs, match):
    # a bad argument is a ValueError that names it, not a series failure
    with pytest.raises(ValueError, match=match):
        fn(*args, **kwargs)


# points within an ulp of either end, where a Chebyshev argument rounds to +-1
_ENDS = (1e-17, 1e-100, 1e-300, 1 - 2**-53, 2**-1074)


@pytest.mark.parametrize("x", _ENDS)
@pytest.mark.parametrize("fn, n", ((fm.zagier_even_formula, 1), (fm.zagier_even_formula, 4),
                                   (fm.zagier_odd_formula, 1), (fm.zagier_odd_formula, 4)))
def test_polynomial_formulas_near_either_end_return_honestly_or_raise(fn, n, x):
    # a finite Chebyshev bound at t = +-1 and a subnormal x rejected by name
    if x < sys.float_info.min:
        with pytest.raises(ValueError, match=r"^x = 5e-324 is subnormal"):
            fn(n, Fraction(x))
        return
    try:
        rep = fn(n, Fraction(x))
    except se.SeriesConvergenceError:
        return
    assert math.isfinite(rep.tail_bound) and rep.abs_error <= rep.tail_bound, (n, x, rep)


def test_numpy_integer_index_is_accepted():
    for fn, args in ((fm.zagier_even_formula, (Fraction(1, 3),)), (fm.zagier_odd_formula, (Fraction(2, 7),)),
                     (fm.zagier_number_formula, ()), (fm.zagier_type_sum, ())):
        assert fn(np.int64(3), *args) == fn(3, *args), fn.__name__


def _rebuilt_rhs(name: str, rep, x: Fraction | None) -> tuple[float, float, float]:
    """The right-hand side as the formula's docstring writes it, from the report's
    series values, the Chebyshev values and the constant; the bound README
    states for it, sum |coef| bound over the series and the Chebyshev values
    (10 (k+1) eps/max(1 - t^2, 3/(3 + k(k+2))) at U_k(t)) plus 2 eps sum |coef part|; and that
    sum |coef part|."""
    from zagier_kit.specfun import chebyshev_U_value as u

    meta, nu = rep.series_meta, rep.n
    n, k = nu // 2, nu - 1
    if name in ("even", "odd"):
        xf = float(x)
        c, cheb = 2.0 ** -(nu + 1), (0.25, ((xf + 1) / 2, xf / 2, (xf - 1) / 2, (xf - 2) / 2))
        terms, coefs = [meta[0].value, c * meta[1].value], [1.0, c]
    elif name == "number":
        # ((sqrt(m+4) - sqrt(m))/2)^{4n} is 2^{-2n} w^{2n}, w = m + 2 - sqrt(m(m+4))
        c, cheb = 2.0 ** (-2 * n), (0.0, ())
        terms, coefs = [-n, meta[0].value, c * meta[1].value], [1.0, c]
    else:
        c, cheb = 2.0 ** (1 - 4 * n), (-0.5, (0.25, 0.75))
        terms, coefs = [2.0 * meta[0].value, -n, c * meta[1].value], [2.0, c]
    terms += [cheb[0] * u(k, t) for t in cheb[1]]
    size = sum(map(abs, terms))
    bound = (sum(w * s.tail_bound for w, s in zip(coefs, meta))
             + sum(abs(cheb[0]) * 10 * (k + 1) * se._EPS / max(1 - t * t, 3 / (3 + k * (k + 2)))
                   for t in cheb[1])
             + 2 * se._EPS * size)
    return math.fsum(terms), bound, size


# each formula's own series, as the series functions give them at the
# formula's shares of tol: the lattice sum first, the algebraic sums after;
# the polynomial formulas' two g-sums are one pair, added for even nu and
# subtracted for odd nu, and the number and type formulas' g-sum at gap 1 is
# read from that pair's table, whatever tol
_OWN_SERIES = {
    "even": lambda nu, x, tol: [se.lattice_bessel_sum(nu, x, tol), se._g_pair(x, 1.0, nu / 2, 2.0, 1e-3 * tol)],
    "odd": lambda nu, x, tol: [se.lattice_bessel_sum(nu, x, tol), se._g_pair(x, -1.0, nu / 2, 2.0, 1e-3 * tol)],
    "number": lambda nu, x, tol: [se.lattice_bessel_sum(nu, 0.0, tol), se._g_one(nu / 2, 2.0)],
    "type": lambda nu, x, tol: [se.lattice_bessel_sum(nu, 0.0, 0.5 * tol, lattice=2), se._g_one(nu / 2, 4.0)],
}


@pytest.mark.parametrize("name", sorted(_CACHED_FORMULAS))
@pytest.mark.parametrize("n", (1, 2, 5, 8, 13))
def test_formula_tables_match_their_docstrings(name, n):
    # formula_value is the docstring's right-hand side of the report's own
    # series (within a few units of its terms' magnitude), those series are
    # the public sums at the formula's tol shares, and tail_bound is README's
    # bound rule (within a few units), so at least each series' bound times
    # its coefficient
    fn, point, _ = _CACHED_FORMULAS[name]
    checked = 0
    for x in ((Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(4, 7)) if point else (None,)):
        for tol in (1e-6, 1e-9):
            try:
                rep = fn(n, *((x,) if point else ()), tol=tol)
            except se.SeriesConvergenceError:
                continue
            checked += 1
            value, bound, size = _rebuilt_rhs(name, rep, x)
            assert abs(rep.formula_value - value) <= 4 * math.ulp(size), (name, n, x, tol)
            own = _OWN_SERIES[name](rep.n, float(x) if point else 0.0, tol)
            assert [(s.value, s.terms_used, s.tail_bound) for s in rep.series_meta] == \
                [(s.value, s.terms_used, s.tail_bound) for s in own], (name, n, x, tol)
            assert rep.tail_bound == pytest.approx(bound, rel=1e-15, abs=0), (name, n, x, tol)
            if not point:
                # at x = 0 the lattice sum is the same at every tol, so its share shows
                # only in the raise: the bracket sum raises below its bound over the share
                share, lattice = (0.5, 2) if name == "type" else (1.0, 1)
                reg = se.regularized_bracket_sum(rep.n, 0.0, 1.0, lattice=lattice).tail_bound
                with pytest.raises(se.SeriesConvergenceError, match="regularized_bracket_sum"):
                    fn(n, tol=0.99 * reg / share)
                try:
                    fn(n, tol=1.01 * reg / share)
                except se.SeriesConvergenceError as err:
                    assert "regularized_bracket_sum" not in str(err), (name, n)
    assert checked, (name, n)


@pytest.mark.parametrize("nu", (0.5, 2, 2.5, 7.3))
def test_lattice_j_vs_oracle(nu):
    # past the crossover J_nu(4 pi m) comes from the lattice Hankel series d^J at any
    # order; below it bessel_J, and so _lattice_J, takes integer and half-integer orders
    import mpmath as mp

    near = int(sf.asymptotic_crossover(nu) / (4 * pi))
    far = sf._hankel_sum(sf.hankel_lattice(nu)[0], 0, np.arange(near + 1, 3001.0)) / pi
    if 2 * nu == round(2 * nu):
        assert np.array_equal(fm._lattice_J(nu, 3000)[near:], far)
    else:
        with pytest.raises(ValueError, match="half-integer orders"):
            fm._lattice_J(nu, 3000)
    for m in (near + 1, near + 2, near + 7, 100, 3000):
        with mp.workdps(40):
            ref = float(mp.besselj(nu, 4 * mp.pi * m))
        assert abs(far[m - near - 1] - ref) < 2e-15 * max(abs(ref), 1 / (pi * sqrt(2 * m))), m


@pytest.mark.parametrize("n", range(1, 13))
def test_tail_bound_covers_abs_error(n):
    # the reported bound covers the series, the Chebyshev values and the
    # assembly, on every call that meets tol, from loose to tight
    calls = [(fm.zagier_number_formula, ()), (fm.zagier_type_sum, ())]
    for x in ("1/10", "1/4", "1/3", "1/2", "2/3", "3/4", "9/10", "2/7"):
        calls += [(fm.zagier_even_formula, (x,)), (fm.zagier_odd_formula, (x,))]
    passing = 0
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        for fn, point in calls:
            try:
                rep = fn(n, *point, tol=tol)
            except se.SeriesConvergenceError:
                continue
            passing += 1
            assert rep.abs_error <= rep.tail_bound, (rep.n, rep.x, tol, rep.abs_error, rep.tail_bound)
    assert passing >= 2 * len(calls), n


# the formulas whose lattice sums sit at x = 0, their lattice and exact value
_AT_ZERO = {
    "number": (fm.zagier_number_formula, 1, lambda n: ec.modified_bernoulli(2 * n)),
    "type": (fm.zagier_type_sum, 2,
             lambda n: ec.zagier_eval(2 * n, Fraction(-3, 2)) + ec.modified_bernoulli(2 * n)),
}


@pytest.mark.parametrize("name", sorted(_AT_ZERO))
def test_loose_tolerances_keep_honest_bounds_at_x_zero(name):
    # at x = 0 every order past M0 is closed up to the smallest envelope,
    # whatever tol: a loose tol no longer drops orders whose sum exceeds the
    # first dropped one (index 16 at tol 1e-2 erred by 3.00e-3 against 2.98e-3)
    fn = _AT_ZERO[name][0]
    passing = 0
    for n in range(1, 31):
        for tol in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4):
            try:
                rep = fn(n, tol=tol)
            except se.SeriesConvergenceError:
                continue
            passing += 1
            assert rep.abs_error <= rep.tail_bound, (n, tol, rep.abs_error, rep.tail_bound)
    assert passing >= 100


@pytest.mark.parametrize("name", sorted(_AT_ZERO))
def test_x_zero_sums_stop_at_the_base_range(name):
    # the closed tails at x = 0 cancel nothing, so even tol 1e-12 relative
    # sums the M0 brackets of the plan and no term past them
    fn, lattice, exact_at = _AT_ZERO[name]
    for n in range(1, 61):
        exact = exact_at(n)
        for rel in (1e-9, 1e-12):
            tol = rel * max(1.0, abs(float(exact)))
            rep = fn(n, tol=tol)
            assert rep.series_meta[0].terms_used == se._plan(2 * n, lattice).brackets.size, (n, rel)
            assert rep.abs_error <= tol, (n, rel)


@pytest.mark.parametrize("name", sorted(_AT_ZERO))
def test_x_zero_formulas_read_only_their_cached_results(name):
    # a number or type call reads the kept lattice sum at x = 0 and the g-sum
    # A(1) from the pair's table, the very objects, whatever tol; each lands
    # within a relative 1e-12 without raising
    fn, lattice, exact_at = _AT_ZERO[name]
    for n in range(1, 61):
        tol = 1e-12 * max(1.0, abs(float(exact_at(n))))
        rep = fn(n, tol=tol)
        assert rep.abs_error <= tol, n
        lattice_sum, g_sum = rep.series_meta
        assert lattice_sum is se._zero_sum(2 * n, lattice)[1], n
        assert g_sum is se._g_one(float(n), 2.0 * lattice), n
        assert g_sum.terms_used == se._G_SPLIT + se._G_ORDERS


def test_a_warm_type_sum_forms_no_chebyshev_value(monkeypatch):
    # U_{2n-1}(1/4) + U_{2n-1}(3/4) depends on neither x nor tol: the first call
    # forms it in the cached table of terms, and a second call reads it there
    calls = []
    original = sf.chebyshev_U_value

    def counted(*args):
        calls.append(args)
        return original(*args)

    empty_caches(monkeypatch)
    monkeypatch.setattr(sf, "chebyshev_U_value", counted)
    for n in (1, 5, 30):
        tol = 1e-12 * max(1.0, abs(float(ec.zagier_eval(2 * n, Fraction(-3, 2)) + ec.modified_bernoulli(2 * n))))
        first = fm.zagier_type_sum(n, tol=tol)
        assert len(calls) == 2, n
        calls.clear()
        assert fm.zagier_type_sum(n, tol=tol).formula_value == first.formula_value
        assert calls == [], n


def test_no_formula_calls_the_euler_maclaurin_g_sum(monkeypatch):
    # every formula's g-sums come from the pair's x-free table; the
    # Euler-Maclaurin prefix serves only the public g_tail_sum and
    # conjugate_power_sum
    calls = []
    original = se._conjugate_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(se, "_conjugate_sum", counted)
    empty_caches(monkeypatch)
    for n in (1, 2, 8, 30):
        for tol in (1e-3, 1e-9, 1e-14):
            for call in (lambda: fm.zagier_number_formula(n, tol=tol),
                         lambda: fm.zagier_type_sum(n, tol=tol),
                         lambda: fm.zagier_even_formula(n, Fraction(1, 3), tol=tol),
                         lambda: fm.zagier_odd_formula(n, Fraction(2, 7), tol=tol)):
                try:
                    call()
                except se.SeriesConvergenceError:
                    pass
    fm.fourier_coeff_dJ_check(2, 1)
    fm.poisson_J_series_check(2.5, 0.3)
    assert calls == []
    se.g_tail_sum(1.0, 0.3)
    assert len(calls) == 1


def test_odd_formula_at_one_half_builds_its_plan(monkeypatch):
    # the lattice sum of odd nu at x = 1/2 is exactly 0, yet the call builds
    # the plan a later x needs; past the double range there is none, and the
    # formula still returns
    empty_caches(monkeypatch)
    rep = fm.zagier_odd_formula(7, Fraction(1, 2))
    assert rep.series_meta[0].value == 0.0 and rep.abs_error < 1e-8
    assert se._plan.cache_info().currsize == 1
    se._plan(15, 1)
    assert se._plan.cache_info().hits == 1
    rep = fm.zagier_odd_formula(130, Fraction(1, 2))
    assert rep.series_meta[0].value == 0.0 and math.isfinite(rep.formula_value)
    with pytest.raises(ValueError, match="exceeds the double range"):
        se.lattice_bessel_sum(261, 1.0 / 3.0)


# (index, x): the series-tight ops at seeds 11-13 whose closed differences
# cancel past a relative 1e-12, where a term window up to 20,000 terms used to
# open, and the four odd ops that raised on the closed differences' rounding
_CANCELLING = ((16, Fraction(11, 14)), (16, Fraction(31, 44)), (16, Fraction(5, 27)),
               (14, Fraction(12, 61)), (17, Fraction(61, 62)), (15, Fraction(41, 53)),
               (15, Fraction(4, 7)), (15, Fraction(13, 29)), (15, Fraction(3, 53)),
               (17, Fraction(13, 14)))


@pytest.mark.parametrize("index,x", _CANCELLING)
def test_cancelling_closed_differences_take_the_lerch_tail(index, x):
    # the tail past a, the first of M0, 2 M0, 4 M0, ... at least ceil(6/x'),
    # closes at its own size: the op meets a relative 1e-12 with an honest
    # bound and no term past a
    exact = float(ec.zagier_eval(index, x))
    tol = 1e-12 * max(1.0, abs(exact))
    formula = fm.zagier_even_formula if index % 2 == 0 else fm.zagier_odd_formula
    rep = formula(index // 2, x, tol=tol)
    assert rep.abs_error <= rep.tail_bound <= tol
    xf = float(x)
    reach, start = math.ceil(6.0 / min(xf, 1.0 - xf)), se._plan(index, 1).brackets.size
    while start < reach:
        start *= 2
    assert rep.series_meta[0].terms_used <= start


def test_quarter_points_sum_on_the_doubled_lattice(monkeypatch):
    # at x = 1/4 and 3/4 the even formula's lattice sum is the x = 1/2 sum on the
    # 8 pi m lattice: every even index 2..256 meets a relative 1e-12 with no
    # raise, and the sum reads the (nu, 2) plan, the only one it builds
    for n in range(1, 129):
        empty_caches(monkeypatch)
        for x in (Fraction(1, 4), Fraction(3, 4)):
            exact = float(ec.zagier_eval(2 * n, x))
            tol = 1e-12 * max(1.0, abs(exact))
            rep = fm.zagier_even_formula(n, x, tol=tol)
            assert rep.abs_error <= tol, (n, x)
        info = se._plan.cache_info()
        se._plan(2 * n, 2)
        assert (info.misses, info.currsize, se._plan.cache_info().hits) == (1, 1, info.hits + 1), n
        half = se.regularized_bracket_sum(2 * n, 0.5, tol, lattice=2)
        assert all(se.regularized_bracket_sum(2 * n, x, tol) == half for x in (0.25, 0.75)), n


def _terms_used(call) -> list[int]:
    """Terms each component of call() summed; the best partial sum's count on a raise."""
    try:
        rep = call()
    except se.SeriesConvergenceError as err:
        return [err.best.terms_used]
    return [meta.terms_used for meta in rep.series_meta]


@pytest.mark.parametrize("q", (1, 8, 64, 512, 4096))
def test_no_component_runs_past_max_terms(q):
    # x = 1/(q+1) and q/(q+1) walk to both ends of (0, 1); at tol 1e-12 the
    # Bessel sums close their tails past a, the first M0 2^i at least
    # ceil(6/x'), which reaches the cap only where 6/x' passes it, at q = 4096
    # (at q = 512 the start is 42 * 2^7 = 5,376); tol 1e-30 no sum meets
    cap = se.DEFAULT_MAX_TERMS
    used = []
    for x in (Fraction(1, q + 1), Fraction(q, q + 1)):
        for tol in (1e-12, 1e-30):
            used += _terms_used(lambda: fm.zagier_even_formula(8, x, tol=tol))
            used += _terms_used(lambda: fm.zagier_odd_formula(7, x, tol=tol))
    assert max(used) <= cap and (max(used) == cap) == (6 * (q + 1) > cap), used


def test_the_x_free_sums_stop_at_the_cap():
    # a tolerance no sum meets: the number formula and the type sum stop by the cap
    cap = se.DEFAULT_MAX_TERMS
    for call in (lambda: fm.zagier_number_formula(8, tol=1e-30),
                 lambda: fm.zagier_type_sum(8, tol=1e-30)):
        assert max(_terms_used(call)) <= cap


# sha256 of _formula_bit_rows(); a change that moves a formula's bits on purpose
# updates it and says which bits moved and why
_FORMULA_BITS = "c27d89a61eefe24d539617daff8c9603039a694068e5676a857a183670ac0bd6"


def _formula_bit_rows():
    """One line per call of the four formulas at index 1..60, X_GRID as Fraction and
    as float, relative tol 1e-6, 1e-9 and 1e-12: float.hex of the value and bound
    and of each series result's, its terms and window flag, or the raise's
    message and best."""
    for nu in range(1, 61):
        n, formula = nu // 2, fm.zagier_odd_formula if nu % 2 else fm.zagier_even_formula
        calls = []
        for x in X_GRID:
            exact = float(ec.zagier_eval(nu, x))
            calls += [(formula, (n, x), exact), (formula, (n, float(x)), exact)]
        if nu % 2 == 0:
            calls.append((fm.zagier_number_formula, (n,), float(ec.modified_bernoulli(nu))))
            calls.append((fm.zagier_type_sum, (n,),
                          float(ec.zagier_eval(nu, Fraction(-3, 2)) + ec.modified_bernoulli(nu))))
        for call, args, exact in calls:
            for rel in (1e-6, 1e-9, 1e-12):
                try:
                    rep = call(*args, tol=rel * max(1.0, abs(exact)))
                    out = [rep.formula_value.hex(), rep.tail_bound.hex()] + [
                        (s.value.hex(), s.tail_bound.hex(), s.terms_used, s.outside_window)
                        for s in rep.series_meta]
                except se.SeriesConvergenceError as err:
                    best = err.best
                    out = ["raises", str(err), best.value.hex(), best.tail_bound.hex(), best.terms_used,
                           best.outside_window]
                yield f"{call.__name__} {args!r} {rel!r} {out!r}"


def test_formula_bits_are_pinned():
    # every value, bound, term count, window flag and raise of the four
    # formulas over 2,340 calls hashes to the pinned digest
    digest = hashlib.sha256()
    for row in _formula_bit_rows():
        digest.update(row.encode() + b"\n")
    assert digest.hexdigest() == _FORMULA_BITS
