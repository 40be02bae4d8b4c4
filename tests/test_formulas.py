"""Theorem-level formula evaluators against the exact rational core."""

from __future__ import annotations

import math
from fractions import Fraction
from math import pi, sin, sqrt

import numpy as np
import pytest

from zagier_kit import exact_core as ec
from zagier_kit import formulas as fm
from zagier_kit import series_engine as se

from conftest import A_function_two_ways, bernoulli_fourier_eval, empty_caches, traced_peak


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
        return repr(rep)

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


def test_numpy_integer_index_is_accepted():
    for fn, args in ((fm.zagier_even_formula, (Fraction(1, 3),)), (fm.zagier_odd_formula, (Fraction(2, 7),)),
                     (fm.zagier_number_formula, ()), (fm.zagier_type_sum, ())):
        assert fn(np.int64(3), *args) == fn(3, *args), fn.__name__


def _rebuilt_rhs(name: str, rep, x: Fraction | None) -> tuple[float, float, float]:
    """The right-hand side as the formula's docstring writes it, from the report's
    series values, the Chebyshev values and the constant; the bound README
    states for it, sum |coef| bound over the series and the Chebyshev values
    (10 (k+1) eps/(1 - t^2) at U_k(t)) plus 2 eps sum |coef part|; and that
    sum |coef part|."""
    from zagier_kit.specfun import chebyshev_U_value as u

    meta, nu = rep.series_meta, rep.n
    n, k = nu // 2, nu - 1
    if name in ("even", "odd"):
        xf, sign = float(x), (1.0 if name == "even" else -1.0)
        c, cheb = 2.0 ** -(nu + 1), (0.25, ((xf + 1) / 2, xf / 2, (xf - 1) / 2, (xf - 2) / 2))
        terms, coefs = [meta[0].value, c * meta[1].value, sign * c * meta[2].value], [1.0, c, c]
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
             + sum(abs(cheb[0]) * 10 * (k + 1) * se._EPS / (1 - t * t) for t in cheb[1])
             + 2 * se._EPS * size)
    return math.fsum(terms), bound, size


# each formula's own series, as the public series functions give them at
# the formula's shares of tol: the lattice sum first, the algebraic sums after
_OWN_SERIES = {
    "even": lambda nu, x, tol: [se.lattice_bessel_sum(nu, x, tol), se.g_tail_sum(nu / 2, x, 1e-3 * tol),
                                se.g_tail_sum(nu / 2, 1.0 - x, 1e-3 * tol)],
    "odd": lambda nu, x, tol: [se.lattice_bessel_sum(nu, x, tol), se.g_tail_sum(nu / 2, x, 1e-3 * tol),
                               se.g_tail_sum(nu / 2, 1.0 - x, 1e-3 * tol)],
    "number": lambda nu, x, tol: [se.lattice_bessel_sum(nu, 0.0, tol),
                                  se.conjugate_power_sum(3.0, nu / 2, 4.0, 1e-3 * tol)],
    "type": lambda nu, x, tol: [se.lattice_bessel_sum(nu, 0.0, 0.5 * tol, lattice=2),
                                se.conjugate_power_sum(5.0, nu / 2, 16.0, 1e-3 * tol)],
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
    from zagier_kit import specfun as sf

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
    # even Bessel window runs into the cap, and tol 1e-30 no sum meets
    cap = se.DEFAULT_MAX_TERMS
    used = []
    for x in (Fraction(1, q + 1), Fraction(q, q + 1)):
        for tol in (1e-12, 1e-30):
            used += _terms_used(lambda: fm.zagier_even_formula(8, x, tol=tol))
            used += _terms_used(lambda: fm.zagier_odd_formula(7, x, tol=tol))
    assert max(used) == cap, used


def test_the_x_free_sums_stop_at_the_cap():
    # a tolerance no sum meets: the number formula and the type sum stop by the cap
    cap = se.DEFAULT_MAX_TERMS
    for call in (lambda: fm.zagier_number_formula(8, tol=1e-30),
                 lambda: fm.zagier_type_sum(8, tol=1e-30)):
        assert max(_terms_used(call)) <= cap
