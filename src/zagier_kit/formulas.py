"""Right-hand sides of the exact Bessel-series formulas, checked against the
exact rational core.

Every evaluator returns an :class:`EvalReport`.  When the evaluation point
is rational the report carries the exact value and true absolute/relative
errors; float points without a rational tag only report the formula value
(or a mutual-oracle reference for lemma-level checks).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, pi, sin, sqrt

import numpy as np

from . import exact_core, series_engine, specfun
from .series_engine import _EPS, _ZETA_EPS, SeriesResult

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
    "poisson_J_series_check",
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


def _cheb_rounding(k: int, t: float) -> float:
    """Rounding bound of chebyshev_U_value(k, t), -1 < t < 1: t and acos(t) carry
    a few units, which sin((k+1) theta)/sin(theta) turns into at most
    10 (k+1) units/(1 - t^2), since |U_k| <= k + 1."""
    return 10.0 * (k + 1) * _EPS / (1.0 - t * t)


def _formula_rest(nu: int, x: float, head: float, g_tol: float
                  ) -> tuple[float, list[SeriesResult], float]:
    """head plus the non-Bessel part of the series formula for B_nu^*(x).

    For 0 < x < 1 that part is (1/4)[U_{nu-1} quadruple] + 2^{-(nu+1)}
    [G(x) +- G(1-x)], with G the g-sum at exponent nu/2 and the sign + for
    even nu, - for odd nu.  At x = 0 (even nu = 2n, the modified Bernoulli
    number) it is -n + sum_m ((sqrt(m+4)-sqrt(m))/2)^{4n} / sqrt(m(m+4)).
    The formulas pass their Bessel sum as head, the convergence study passes
    0.0, so both add the terms in the same order.  The sums get the
    caller's g_tol.  Also returns the sums' bounds weighted by their
    coefficients plus the rounding of the Chebyshev values and of the
    assembly, to which the caller adds the bound of head.
    """
    if x == 0.0:
        alg = series_engine.conjugate_power_sum(3.0, nu / 2, 4.0, tol=g_tol)
        value = head - nu // 2 + 2.0 ** -nu * alg.value
        return value, [alg], (2.0 ** -nu * alg.tail_bound
                              + 2.0 * _EPS * (abs(head) + nu // 2 + 2.0 ** -nu * alg.value))
    gx = series_engine.g_tail_sum(nu / 2, x, tol=g_tol)
    g1x = series_engine.g_tail_sum(nu / 2, 1.0 - x, tol=g_tol)
    g = gx.value + g1x.value if nu % 2 == 0 else gx.value - g1x.value
    k, points = nu - 1, ((x + 1.0) / 2, x / 2, (x - 1.0) / 2, (x - 2.0) / 2)
    us = [specfun.chebyshev_U_value(k, t) for t in points]
    quad = sum(us)
    rounding = (0.25 * sum(_cheb_rounding(k, t) for t in points)
                + 2.0 * _EPS * (abs(head) + 0.25 * sum(map(abs, us))
                                + 2.0 ** -(nu + 1) * (gx.value + g1x.value)))
    return (head + 0.25 * quad + 2.0 ** -(nu + 1) * g, [gx, g1x],
            2.0 ** -(nu + 1) * (gx.tail_bound + g1x.tail_bound) + rounding)


def zagier_even_formula(n: int, x: float | Fraction | str,
                        tol: float = series_engine.DEFAULT_TOL) -> EvalReport:
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
    bessel = series_engine.bessel_cos_series(n, xf, tol=tol)
    value, g_meta, g_bound = _formula_rest(2 * n, xf, bessel.value, tol * 1e-3)
    exact = exact_core.zagier_eval(2 * n, xq) if xq is not None else None
    return _report(2 * n, xq if xq is not None else xf, exact, value,
                   [bessel, *g_meta], bessel.tail_bound + g_bound)


def zagier_odd_formula(n: int, x: float | Fraction | str,
                       tol: float = series_engine.DEFAULT_TOL) -> EvalReport:
    """Bessel-series formula for B_{2n+1}^*(x) on 0 < x < 1.

    Same shape as the even case with sine weights, U_{2n}, half-integer
    g exponent n + 1/2, and a difference of the two g-sums.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    xf, xq = _as_point(x)
    if not 0.0 < xf < 1.0:
        raise ValueError("x must lie in (0, 1)")
    bessel = series_engine.bessel_sin_series(n, xf, tol=tol)
    value, g_meta, g_bound = _formula_rest(2 * n + 1, xf, bessel.value, tol * 1e-3)
    exact = exact_core.zagier_eval(2 * n + 1, xq) if xq is not None else None
    return _report(2 * n + 1, xq if xq is not None else xf, exact, value,
                   [bessel, *g_meta], bessel.tail_bound + g_bound)


_ZERO, _MINUS_THREE_HALVES = Fraction(0), Fraction(-3, 2)


# The exact references of the number and type formulas depend on n alone,
# so they are kept per n, as the series plans are per (nu, lattice).
@functools.lru_cache(maxsize=256)
def _number_exact(n: int) -> Fraction:
    """B_{2n}^*, the exact value of :func:`zagier_number_formula`."""
    return exact_core.modified_bernoulli(2 * n)


@functools.lru_cache(maxsize=256)
def _type_exact(n: int) -> Fraction:
    """B_{2n}^*(-3/2) + B_{2n}^*, the exact value of :func:`zagier_type_sum`."""
    return exact_core.zagier_eval(2 * n, _MINUS_THREE_HALVES) + _number_exact(n)


def zagier_number_formula(n: int, tol: float = series_engine.DEFAULT_TOL) -> EvalReport:
    """Exact series formula for the modified Bernoulli number B_{2n}^*.

    B_{2n}^* = -n + sum_m (-1)^n pi Y_{2n}(4 pi m)
             + sum_m ((sqrt(m+4)-sqrt(m))/2)^{4n} / sqrt(m(m+4)),
    the Bessel sum being the regularized bracket sum minus zeta(1/2)/2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    bessel = series_engine.lattice_bessel_sum(2 * n, 0.0, tol=tol)
    value, alg_meta, alg_bound = _formula_rest(2 * n, 0.0, bessel.value, tol * 1e-3)
    return _report(2 * n, _ZERO, _number_exact(n), value, [bessel, *alg_meta],
                   bessel.tail_bound + alg_bound)


def zagier_type_sum(n: int, tol: float = series_engine.DEFAULT_TOL) -> EvalReport:
    """Series formula for B_{2n}^*(-3/2) + B_{2n}^* over the 8 pi m lattice.

    RHS = 2 sum_m (-1)^n pi Y_{2n}(8 pi m) - n
        - (1/2)[U_{2n-1}(1/4) + U_{2n-1}(3/4)]
        + 2^{1-4n} sum_m (m+4-sqrt(m(m+8)))^{2n}/sqrt(m(m+8)),
    the Bessel sum being the regularized bracket sum minus zeta(1/2)/(2 sqrt 2).
    """
    if n < 1:
        raise ValueError("n must be positive")
    bessel = series_engine.lattice_bessel_sum(2 * n, 0.0, tol=tol * 0.5, lattice=2)
    alg = series_engine.conjugate_power_sum(5.0, float(n), 16.0, tol=tol * 1e-3)
    k = 2 * n - 1
    u1, u3 = specfun.chebyshev_U_value(k, 0.25), specfun.chebyshev_U_value(k, 0.75)
    value = 2.0 * bessel.value - float(n) - 0.5 * (u1 + u3) + 2.0 ** (1 - 4 * n) * alg.value
    rounding = (0.5 * (_cheb_rounding(k, 0.25) + _cheb_rounding(k, 0.75))
                + 2.0 * _EPS * (2.0 * abs(bessel.value) + n + 0.5 * (abs(u1) + abs(u3))
                                + 2.0 ** (1 - 4 * n) * alg.value))
    return _report(2 * n, _MINUS_THREE_HALVES, _type_exact(n), value, [bessel, alg],
                   2.0 * bessel.tail_bound + 2.0 ** (1 - 4 * n) * alg.tail_bound + rounding)


def even_asymptotic(n: int, x: float) -> float:
    """One-term large-n approximation of B_{2n}^*(x), 0 <= x < 1 (:func:`_one_term`).

    x = 0 gives the plain modified-Bernoulli approximation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    return _one_term(2 * n, x)


def odd_asymptotic(n: int, x: float) -> float:
    """One-term large-n approximation of B_{2n+1}^*(x), 0 < x < 1, x != 1/2
    (:func:`_one_term`)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    return _one_term(2 * n + 1, x)


def _one_term(nu: int, x: float) -> float:
    """(-1)^{floor(nu/2)} pi Y_nu(4 pi) trig(2 pi x), the first term of the lattice
    sum, cos for even nu and sin for odd nu.

    Where that term vanishes for even nu (x = 1/4, 3/4) the 8 pi term takes
    over with flipped sign.  For odd nu at x = 1/2 every sine term vanishes,
    so there is no one-term value: ValueError, as when the value overflows a
    double (from index about 260 on).
    """
    sign = (-1.0) ** (nu // 2)
    if nu % 2 == 0 and (abs(x - 0.25) < 1e-12 or abs(x - 0.75) < 1e-12):
        value = -sign * pi * specfun.bessel_Y_int(nu, 8.0 * pi)
    elif nu % 2 and abs(x - 0.5) < 1e-12:
        raise ValueError(f"the one-term asymptotic of B_{nu}^*(x) does not exist at x = 1/2, "
                         f"where every sine term vanishes")
    else:
        trig = cos if nu % 2 == 0 else sin
        value = sign * pi * specfun.bessel_Y_int(nu, 4.0 * pi) * trig(2.0 * pi * x)
    if not math.isfinite(value):
        raise ValueError(f"the one-term asymptotic of B_{nu}^*(x) exceeds the double range")
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
    # the g-sums to 1e-17, far below the 1e-9 at which the suite holds b0
    h2 = (-1.0) ** (n + 1) / 4.0 ** (n + 1) * (
        series_engine.g_tail_sum(n, x, tol=1e-17).value
        + series_engine.g_tail_sum(n, 1.0 - x, tol=1e-17).value
    )
    return h1 + h2


@functools.lru_cache(maxsize=64)  # the m-th coefficients of one n share it
def _weighted_profile(profile, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes t of :func:`_fourier_pair` and profile(t, n) times their weights."""
    nodes, weights = specfun._gauss_legendre(64)
    theta = 0.125 * pi * (nodes + 1.0)
    t = np.sin(theta) ** 2
    vals = 0.25 * pi * weights * np.sin(2.0 * theta) * np.array([profile(ti, n) for ti in t])
    t.flags.writeable = vals.flags.writeable = False
    return t, vals


def _fourier_pair(profile, n: int, m: int) -> tuple[float, float]:
    """integral_0^1 profile(t, n) times 1 and 2 cos(2 pi m t), as twice the integral
    over [0, 1/2] (both are symmetric about 1/2, so 1 - t never nears 0), by
    64-node Gauss-Legendre in theta, t = sin^2 theta: dt = sin(2 theta) dtheta
    cancels the t^{-1/2} endpoint singularity."""
    t, vals = _weighted_profile(profile, n)
    return math.fsum(vals.tolist()), 2.0 * math.fsum((vals * np.cos(2.0 * pi * m * t)).tolist())


def _fourier_check(profile, reference, constant: str, n: int, m: int) -> EvalReport:
    """The m-th quadrature Fourier cosine coefficient of profile against
    reference(2n, 4 pi m); the constant term, under extras[constant], must vanish."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    c0, cm = _fourier_pair(profile, n, m)
    ref = reference(2 * n, 4.0 * pi * m)
    return _report(n, float(m), None, cm, [], reference=ref, extras={constant: c0})


def fourier_coeff_P_check(n: int, m: int) -> EvalReport:
    """Quadrature Fourier cosine coefficient of the arccos-Chebyshev profile
    against P_{2n}(4 pi m); the constant term a0 must vanish."""
    return _fourier_check(_lemma_P_profile, specfun.P_func, "a0", n, m)


def fourier_coeff_dJ_check(n: int, m: int) -> EvalReport:
    """Quadrature Fourier cosine coefficient of the arcsin-Chebyshev/g profile
    against the order derivative of J at nu = 2n; the constant term b0 must vanish."""
    return _fourier_check(_lemma_dJ_profile, specfun.dJ_dnu_at_int, "b0", n, m)


# ---------------------------------------------------------------------------
# the Poisson-summation check
# ---------------------------------------------------------------------------

def _lattice_J(nu: float, n_terms: int) -> np.ndarray:
    """J_nu(4 pi m), m = 1..n_terms; past the crossover from the lattice Hankel series
    pi J_nu(4 pi m) = sum_k d^J_k m^{-(k+1/2)} (:func:`specfun.hankel_lattice`),
    through the orders that the first far m needs."""
    near = int(specfun.asymptotic_crossover(nu) / (4.0 * pi))
    far = specfun._hankel_sum(specfun.hankel_lattice(nu)[0], 0,
                              np.arange(near + 1, n_terms + 1, dtype=float)) / pi
    return np.concatenate([[specfun.bessel_J(nu, 4.0 * pi * m)
                            for m in range(1, min(near, n_terms) + 1)], far])


def poisson_J_series_check(nu: float, x: float) -> EvalReport:
    """Poisson-summation identity for sum_m J_nu(4 pi m) cos(2 pi m x), 0 < nu <= 29.5.

    The left side (the Cesaro sum) is closed.  Past the explicit range m <= M
    of :func:`_lattice_J`, pi J_nu(4 pi m) is the lattice Hankel series
    sum_k d_k m^{-(k+1/2)}; with H(m) its orders k <= K over pi,
        LHS = sum_{m <= M} (J_nu(4 pi m) - H(m)) cos(2 pi m x) + sum_{k <= K} d_k C_{k+1/2}(x)/pi,
    C_s from :func:`series_engine.periodic_zeta`, all parts in one math.fsum.
    K is the last order reaching 1e-17 of the largest at m = M + 1, and at
    least nu - 3/2.  At half-integer nu the series ends at order nu - 1/2, so
    the form is exact (at nu = 5/2 it is one C_{3/2} term).  Otherwise the
    even and the odd orders past nu - 1/2 each leave a remainder no larger
    than their first term (DLMF 10.17(iii), real nu), so over m > M the
    dropped orders add at most
        (|d_{K+1}| zeta(K + 3/2, M + 1) + |d_{K+2}| zeta(K + 5/2, M + 1))/pi,
    which d_{K+2} <= d_30 limits to nu <= 29.5.  extras["lhs_bound"] adds the
    rounding: _ZETA_EPS per C_s and K + 2 units of every part (the near J
    carry a few units of Miller's normalization to 1).  The near terms take
    nu integer or half-integer (:func:`specfun.bessel_J`).

    The right side is four arcsin kernels minus two sin(nu pi/2) weighted
    algebraic tails, which vanish identically at even integer nu.
    """
    if not 0.0 < nu <= specfun.HANKEL_ORDERS - 0.5:
        raise ValueError(f"nu must lie in (0, {specfun.HANKEL_ORDERS - 0.5}]")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    near = int(specfun.asymptotic_crossover(nu) / (4.0 * pi))
    d = specfun.hankel_lattice(nu)[0]
    k = max(specfun._hankel_top(d, 0, near + 1.0), math.ceil(nu - 1.5))
    ms = np.arange(1.0, near + 1)
    h = specfun._orders_sum(d, 0, k, ms) / pi
    explicit = (_lattice_J(nu, near) - h) * np.cos(2.0 * pi * ms * x)
    closed = d[: k + 1] * series_engine.periodic_zeta(x, k)[0] / pi
    lhs = math.fsum(explicit.tolist() + closed.tolist())
    dropped = sum(abs(d[k + i]) * specfun.hurwitz_zeta(k + i + 0.5, near + 1.0) for i in (1, 2))
    rounding = (_ZETA_EPS * np.abs(d[: k + 1]).sum() / pi
                + (k + 2) * _EPS * (near + np.abs(h).sum() + np.abs(closed).sum()))

    def kernel(t: float) -> float:
        return cos(nu * math.asin(t / 2.0)) / sqrt((4.0 * pi) ** 2 - (2.0 * pi * t) ** 2)

    rhs = kernel(x) + kernel(x + 1.0) + kernel(1.0 - x) + kernel(2.0 - x)
    snu = 0.0 if abs(nu - round(nu)) < 1e-12 and round(nu) % 2 == 0 else sin(nu * pi / 2.0)
    # the tails over 2 pi (m + x), m >= 2, and 2 pi (m - x), m >= 3, are the
    # g-sums at exponent nu/2 on the gaps x and 1 - x, to 1e-17: the sides
    # are compared down to 1e-15
    g = sum(series_engine._conjugate_sum(gap, nu / 2, 2.0, 1e-17).value for gap in (x, 1.0 - x))
    rhs -= snu / (2.0 * pi * 2.0**nu) * g
    return _report(0, x, None, rhs, [], reference=lhs,
                   extras={"lhs_bound": float(dropped / pi + rounding)})
