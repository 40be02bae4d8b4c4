"""Right-hand sides of the exact Bessel-series formulas, checked against the
exact rational core.

Every evaluator returns an :class:`EvalReport`.  When the evaluation point
is rational the report carries the exact value and true absolute/relative
errors; float points without a rational tag only report the formula value
(or a mutual-oracle reference for lemma-level checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, pi, sin, sqrt

import numpy as np
from scipy import special as sp_special

from . import exact_core, series_engine, specfun
from .series_engine import SeriesResult

__all__ = [
    "EvalReport",
    "zagier_even_formula",
    "zagier_odd_formula",
    "zagier_number_formula",
    "zagier_type_sum",
    "even_asymptotic",
    "odd_asymptotic",
    "fourier_coeff_P_check",
    "fourier_coeff_dJ_check",
    "A_function_two_ways",
    "poisson_J_series_check",
    "bernoulli_fourier_eval",
]


@dataclass(frozen=True)
class EvalReport:
    """Cross-check record: formula value vs exact (or reference) value."""

    n: int
    x: float | Fraction | None
    exact: Fraction | None
    formula_value: float
    abs_error: float | None
    rel_error: float | None
    series_meta: list[SeriesResult] = field(default_factory=list)
    reference: float | None = None
    extras: dict[str, float] = field(default_factory=dict)
    # bounds of series_meta weighted by their coefficients in the formula;
    # None where no bound is assembled (lemma-level checks)
    tail_bound: float | None = None


def _as_point(x: float | Fraction | str) -> tuple[float, Fraction | None]:
    if isinstance(x, Fraction):
        return float(x), x
    if isinstance(x, str):
        frac = Fraction(x)
        return float(frac), frac
    if isinstance(x, int):
        return float(x), Fraction(x)
    return float(x), None


def _report(n: int, x, exact: Fraction | None, value: float,
            meta: list[SeriesResult], tail_bound: float | None = None,
            reference: float | None = None,
            extras: dict[str, float] | None = None) -> EvalReport:
    abs_err = rel_err = None
    target = float(exact) if exact is not None else reference
    if target is not None:
        abs_err = abs(value - target)
        rel_err = abs_err / abs(target) if target != 0 else math.inf
    return EvalReport(n=n, x=x, exact=exact, formula_value=value,
                      abs_error=abs_err, rel_error=rel_err,
                      series_meta=meta, reference=reference,
                      extras=extras or {}, tail_bound=tail_bound)


def _formula_rest(nu: int, x: float, head: float,
                  g_tol: float) -> tuple[float, list[SeriesResult], float]:
    """head plus the non-Bessel part of the series formula for B_nu^*(x).

    For 0 < x < 1 that part is (1/4)[U_{nu-1} quadruple] + 2^{-(nu+1)}
    [G(x) +- G(1-x)], with G the g-sum at exponent nu/2 and the sign + for
    even nu, - for odd nu.  At x = 0 (even nu = 2n, the modified Bernoulli
    number) it is -n - zeta(1/2)/2 + 2^{-2n} sum_m ((sqrt(m+4)-sqrt(m))/2)^{4n}
    / sqrt(m(m+4)).  The formulas pass their Bessel sum as head, the
    convergence study passes 0.0, so both add the terms in the same order.
    Also returns the sums' bounds weighted by their coefficients, to which
    the caller adds the bound of head.
    """
    if x == 0.0:
        alg = series_engine.conjugate_power_sum(3.0, nu / 2, 4.0, tol=g_tol)
        value = head - nu // 2 - 0.5 * specfun.zeta_half() + 2.0 ** -nu * alg.value
        return value, [alg], 2.0 ** -nu * alg.tail_bound
    gx = series_engine.g_tail_sum(nu / 2, x, tol=g_tol)
    g1x = series_engine.g_tail_sum(nu / 2, 1.0 - x, tol=g_tol)
    g = gx.value + g1x.value if nu % 2 == 0 else gx.value - g1x.value
    u, k = specfun.chebyshev_U_value, nu - 1
    quad = u(k, (x + 1.0) / 2) + u(k, x / 2) + u(k, (x - 1.0) / 2) + u(k, (x - 2.0) / 2)
    return (head + 0.25 * quad + 2.0 ** -(nu + 1) * g, [gx, g1x],
            2.0 ** -(nu + 1) * (gx.tail_bound + g1x.tail_bound))


def zagier_even_formula(
    n: int,
    x: float | Fraction | str,
    tol: float = series_engine.DEFAULT_TOL,
    max_terms: int = series_engine.DEFAULT_MAX_TERMS,
) -> EvalReport:
    """Bessel-series formula for B_{2n}^*(x) on 0 < x < 1.

    RHS = sum_m (-1)^n pi Y_{2n}(4 pi m) cos(2 pi m x)
        + (1/4) [U_{2n-1} quadruple]
        + 2^{-(2n+1)} [sum_m g(m,n,x) + sum_m g(m,n,1-x)].
    """
    if n < 1:
        raise ValueError("n must be positive")
    xf, xq = _as_point(x)
    if not 0.0 < xf < 1.0:
        raise ValueError("x must lie in (0, 1)")
    bessel = series_engine.bessel_cos_series(n, xf, tol=tol, max_terms=max_terms)
    value, g_meta, g_bound = _formula_rest(2 * n, xf, bessel.value, tol * 1e-3)
    exact = exact_core.zagier_eval(2 * n, xq) if xq is not None else None
    return _report(2 * n, xq if xq is not None else xf, exact, value,
                   [bessel, *g_meta], bessel.tail_bound + g_bound)


def zagier_odd_formula(
    n: int,
    x: float | Fraction | str,
    tol: float = series_engine.DEFAULT_TOL,
    max_terms: int = series_engine.DEFAULT_MAX_TERMS,
) -> EvalReport:
    """Bessel-series formula for B_{2n+1}^*(x) on 0 < x < 1.

    Same shape as the even case with sine weights, U_{2n}, half-integer
    g exponent n + 1/2, and a difference of the two g-sums.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    xf, xq = _as_point(x)
    if not 0.0 < xf < 1.0:
        raise ValueError("x must lie in (0, 1)")
    bessel = series_engine.bessel_sin_series(n, xf, tol=tol, max_terms=max_terms)
    value, g_meta, g_bound = _formula_rest(2 * n + 1, xf, bessel.value, tol * 1e-3)
    exact = exact_core.zagier_eval(2 * n + 1, xq) if xq is not None else None
    return _report(2 * n + 1, xq if xq is not None else xf, exact, value,
                   [bessel, *g_meta], bessel.tail_bound + g_bound)


def zagier_number_formula(
    n: int,
    tol: float = series_engine.DEFAULT_TOL,
    max_terms: int = series_engine.DEFAULT_MAX_TERMS,
) -> EvalReport:
    """Exact series formula for the modified Bernoulli number B_{2n}^*.

    B_{2n}^* = -n + sum_m [(-1)^n pi Y_{2n}(4 pi m) + 1/(2 sqrt(m))]
             - zeta(1/2)/2
             + sum_m ((sqrt(m+4)-sqrt(m))/2)^{4n} / sqrt(m(m+4)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    reg = series_engine.regularized_bracket_sum(2 * n, 0.0, tol=tol, max_terms=max_terms)
    value, alg_meta, alg_bound = _formula_rest(2 * n, 0.0, reg.value, tol * 1e-3)
    exact = exact_core.modified_bernoulli(2 * n)
    return _report(2 * n, Fraction(0), exact, value, [reg, *alg_meta],
                   reg.tail_bound + alg_bound)


def zagier_type_sum(
    n: int,
    tol: float = series_engine.DEFAULT_TOL,
    max_terms: int = series_engine.DEFAULT_MAX_TERMS,
) -> EvalReport:
    """Series formula for B_{2n}^*(-3/2) + B_{2n}^* over the 8 pi m lattice.

    RHS = 2 sum_m [(-1)^n pi Y_{2n}(8 pi m) + 1/(2 sqrt(2m))] - n
        - (1/2)[U_{2n-1}(1/4) + U_{2n-1}(3/4)] - zeta(1/2)/sqrt(2)
        + 2^{1-4n} sum_m (m+4-sqrt(m(m+8)))^{2n}/sqrt(m(m+8)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    reg = series_engine.regularized_bracket_sum(
        2 * n, 0.0, tol=tol * 0.5, max_terms=max_terms, lattice=2
    )
    alg = series_engine.conjugate_power_sum(5.0, float(n), 16.0, tol=tol * 1e-3)
    u = specfun.chebyshev_U_value
    value = (
        2.0 * reg.value
        - float(n)
        - 0.5 * (u(2 * n - 1, 0.25) + u(2 * n - 1, 0.75))
        - specfun.zeta_half() / sqrt(2.0)
        + 2.0 ** (1 - 4 * n) * alg.value
    )
    exact = exact_core.zagier_eval(2 * n, Fraction(-3, 2)) + exact_core.modified_bernoulli(2 * n)
    return _report(2 * n, Fraction(-3, 2), exact, value, [reg, alg],
                   2.0 * reg.tail_bound + 2.0 ** (1 - 4 * n) * alg.tail_bound)


def even_asymptotic(n: int, x: float) -> float:
    """One-term large-n approximation of B_{2n}^*(x).

    (-1)^n pi Y_{2n}(4 pi) cos(2 pi x); at x = 1/4 or 3/4 the first series
    term vanishes and the 8 pi argument takes over with flipped sign.
    x = 0 gives the plain modified-Bernoulli approximation.  Raises
    ValueError when the value overflows a double (from index about 260 on).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    if abs(x - 0.25) < 1e-12 or abs(x - 0.75) < 1e-12:
        value = (-1.0) ** (n + 1) * pi * specfun.bessel_Y_int(2 * n, 8.0 * pi).value
    else:
        value = (-1.0) ** n * pi * specfun.bessel_Y_int(2 * n, 4.0 * pi).value * cos(2.0 * pi * x)
    return _finite(value, 2 * n)


def odd_asymptotic(n: int, x: float) -> float:
    """One-term large-n approximation of B_{2n+1}^*(x), x != 1/2.

    Raises ValueError when the value overflows a double.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    value = (-1.0) ** n * pi * specfun.bessel_Y_int(2 * n + 1, 4.0 * pi).value * sin(2.0 * pi * x)
    return _finite(value, 2 * n + 1)


def _finite(value: float, index: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"the one-term asymptotic of B_{index}^*(x) exceeds the double range")
    return value


# ---------------------------------------------------------------------------
# lemma-level Fourier-coefficient checks
# ---------------------------------------------------------------------------

def _arc_cheb_sum(x: float, n: int, arc) -> float:
    """sum of arc((x+k)/2-forms) * U_{2n-1} over the four standard arguments."""
    u = specfun.chebyshev_U_value
    k = 2 * n - 1
    return (
        arc(x / 2) * u(k, x / 2)
        + arc((x + 1.0) / 2) * u(k, (x + 1.0) / 2)
        + arc((1.0 - x) / 2) * u(k, (1.0 - x) / 2)
        + arc((2.0 - x) / 2) * u(k, (2.0 - x) / 2)
    )


def _lemma_P_profile(x: float, n: int) -> float:
    return 1.0 / (2 * n) + (-1.0) ** n / (2.0 * pi) * _arc_cheb_sum(x, n, math.acos)


def _lemma_dJ_profile(x: float, n: int) -> float:
    h1 = (-1.0) ** n / (4.0 * pi) * _arc_cheb_sum(x, n, math.asin)
    h2 = (-1.0) ** (n + 1) / 4.0 ** (n + 1) * (
        series_engine.g_tail_sum(n, x).value
        + series_engine.g_tail_sum(n, 1.0 - x).value
    )
    return h1 + h2


_QUAD_OPTS = dict(limit=200, epsabs=1e-12, epsrel=1e-12)


def fourier_coeff_P_check(n: int, m: int) -> EvalReport:
    """Quadrature Fourier cosine coefficient of the arccos-Chebyshev profile
    against P_{2n}(4 pi m); the constant term must vanish."""
    from scipy import integrate  # only the quadrature checks need it

    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    a0, _ = integrate.quad(lambda t: _lemma_P_profile(t, n), 0.0, 1.0, **_QUAD_OPTS)
    am, _ = integrate.quad(lambda t: _lemma_P_profile(t, n) * cos(2.0 * pi * m * t),
                           0.0, 1.0, **_QUAD_OPTS)
    am *= 2.0
    ref = specfun.P_func(2 * n, 4.0 * pi * m).value
    return _report(n, float(m), None, am, [], reference=ref, extras={"a0": a0})


def fourier_coeff_dJ_check(n: int, m: int) -> EvalReport:
    """Quadrature Fourier cosine coefficient of the arcsin-Chebyshev/g profile
    against the order derivative of J at nu = 2n; constant term must vanish."""
    from scipy import integrate

    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    b0, _ = integrate.quad(lambda t: _lemma_dJ_profile(t, n), 0.0, 1.0, **_QUAD_OPTS)
    bm, _ = integrate.quad(lambda t: _lemma_dJ_profile(t, n) * cos(2.0 * pi * m * t),
                           0.0, 1.0, **_QUAD_OPTS)
    bm *= 2.0
    ref = specfun.dJ_dnu_at_int(2 * n, 4.0 * pi * m).value
    return _report(n, float(m), None, bm, [], reference=ref, extras={"b0": b0})


# ---------------------------------------------------------------------------
# Schlaefli cross-assembly and the Poisson-summation check
# ---------------------------------------------------------------------------

def A_function_two_ways(n: int, x: float, tol: float = 1e-8) -> EvalReport:
    """The cosine series of Schlaefli values, two independent ways.

    Way 1 (reference): direct summation of (-1)^{n+1} S_{2n}(4 pi m) cos(2 pi m x),
    absolutely convergent with O(m^{-2}) terms.  Way 2: the closed form built
    from the accelerated Bessel series, g-tails and Chebyshev values.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    # way 1: direct; the oscillatory tail is O(n M^{-2} / (4 pi^2 sin(pi x)))
    # by summation by parts, so the term count only grows like 1/sqrt(tol)
    m_terms = int(math.sqrt(n / (4.0 * pi**2 * math.sin(pi * x) * (tol / 8.0)))) + 2000
    m_terms = min(m_terms, 2_000_000)
    ms = np.arange(1, m_terms + 1, dtype=float)
    svals = np.zeros_like(ms)
    a = 2  # 2n is even
    half_z = 2.0 * pi * ms
    for r in range((2 * n - a) // 2 + 1):
        coef = math.factorial(2 * n - r - 1) / math.factorial(r)
        svals += coef * half_z ** (2 * r - 2 * n)
    way1 = (-1.0) ** (n + 1) * series_engine.chunked_fsum(
        svals * np.cos(2.0 * pi * x * ms)
    )
    # way 2: closed form
    bessel = series_engine.bessel_cos_series(n, x, tol=tol * 1e-2)
    gx = series_engine.g_tail_sum(n, x)
    g1x = series_engine.g_tail_sum(n, 1.0 - x)
    u = specfun.chebyshev_U_value
    k = 2 * n - 1
    way2 = (
        bessel.value
        + (-1.0) ** (n + 1) / (2.0 * n)
        + 2.0 ** -(2 * n + 1) * (gx.value + g1x.value)
        - 0.25 * (u(k, x / 2) + u(k, (x + 1.0) / 2) + u(k, (1.0 - x) / 2) + u(k, (2.0 - x) / 2))
    )
    return _report(n, x, None, way2, [bessel, gx, g1x], reference=way1)


def _cesaro_mean(terms: np.ndarray, window: int) -> float:
    partial = np.cumsum(terms)
    return float(np.mean(partial[-window:]))


def poisson_J_series_check(
    nu: float,
    x: float,
    n_terms: int = 10**6,
    window: int = 10**4,
) -> EvalReport:
    """Poisson-summation identity for sum_m J_nu(4 pi m) cos(2 pi m x).

    The left side is summed directly with Cesaro averaging (slow oracle by
    design); the right side is four arcsin kernels minus two sin(nu pi/2)
    weighted algebraic tails, which vanish identically at even integer nu.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    ms = np.arange(1, n_terms + 1, dtype=float)
    lhs = _cesaro_mean(sp_special.jv(nu, 4.0 * pi * ms) * np.cos(2.0 * pi * ms * x), window)

    def kernel(t: float) -> float:
        return cos(nu * math.asin(t / 2.0)) / sqrt((4.0 * pi) ** 2 - (2.0 * pi * t) ** 2)

    rhs = kernel(x) + kernel(x + 1.0) + kernel(1.0 - x) + kernel(2.0 - x)
    if abs(nu - round(nu)) < 1e-12 and round(nu) % 2 == 0:
        snu = 0.0
    else:
        snu = sin(nu * pi / 2.0)
    if snu != 0.0:
        from scipy import integrate

        for first, sign in ((2, +1.0), (3, -1.0)):
            def term_fn(t):
                arg = 2.0 * pi * (t + sign * x)
                root = np.sqrt(arg * arg - (4.0 * pi) ** 2)
                return (4.0 * pi) ** nu * snu / (root * (arg + root) ** nu)

            # explicit block, then the smooth remainder as a midpoint integral
            last = first + 1500
            ms = np.arange(first, last, dtype=float)
            explicit = series_engine.chunked_fsum(term_fn(ms))
            integral, _ = integrate.quad(term_fn, last - 0.5, np.inf,
                                         epsabs=1e-12, limit=200)
            rhs -= explicit + integral
    return _report(0, x, None, rhs, [], reference=lhs)


def bernoulli_fourier_eval(index: int, x: float, m_terms: int) -> float:
    """Truncated Fourier series of the Bernoulli polynomial B_index(x).

    Even index 2n: 2 (-1)^{n+1} (2n)! sum cos(2 pi m x)/(2 pi m)^{2n};
    odd index 2n+1: the sine companion.  Convergence demonstration only.
    """
    if index < 1 or m_terms < 1:
        raise ValueError("index and m_terms must be positive")
    ms = np.arange(1, m_terms + 1, dtype=float)
    if index % 2 == 0:
        n = index // 2
        series = np.cos(2.0 * pi * ms * x) / (2.0 * pi * ms) ** index
        return 2.0 * (-1.0) ** (n + 1) * math.factorial(index) * series_engine.chunked_fsum(series)
    n = (index - 1) // 2
    series = np.sin(2.0 * pi * ms * x) / (2.0 * pi * ms) ** index
    return 2.0 * (-1.0) ** (n + 1) * math.factorial(index) * series_engine.chunked_fsum(series)
