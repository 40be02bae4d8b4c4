"""Named identity suites: each runs a battery of checks at pinned tolerances.

The registry backs the command-line `verify` subcommand and the acceptance
tests.  Every check records the computed value, the expected value, the
absolute error and the tolerance it was held to, so failures are
self-describing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import pi, sqrt

import numpy as np

from . import exact_core, formulas, series_engine, specfun

__all__ = ["CheckResult", "IDENTITIES", "run_identity"]

X_GRID = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
          Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


@dataclass(frozen=True)
class CheckResult:
    identity: str
    case: str
    value: float
    expected: float
    abs_error: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def _check(identity: str, case: str, value: float, expected: float,
           tolerance: float) -> CheckResult:
    """One check, stored as Python floats and a Python bool whatever numpy type
    the evaluator returned, so JSON prints `true`, not the string "True"."""
    value, expected = float(value), float(expected)
    err = abs(value - expected)
    return CheckResult(identity, case, value, expected, err, tolerance, bool(err < tolerance))


def _formula_suite(identity: str, formula: str, first: int, points: tuple,
                   n_max: int, tol: float = 1e-7, **_) -> list[CheckResult]:
    """The series formula of that name in `formulas` at n = first..n_max and each
    point against its exact value; points is X_GRID for the formulas that take
    x, else ((),).  The name is looked up per call, so a profiler that rebinds
    the module attribute sees every call."""
    out = []
    for n in range(first, n_max + 1):
        for x in points:
            rep = getattr(formulas, formula)(n, *x)
            case = f"n={n} x={x[0]}" if x else f"n={n}"
            out.append(_check(identity, case, rep.formula_value, float(rep.exact), tol))
    return out


def _lemma_suite(identity: str, check: str, constant: str, tol: float,
                 constant_tol: float, **_) -> list[CheckResult]:
    """The Fourier-coefficient check of that name in `formulas` at n, m in {1, 2}
    against its reference, and the constant term against 0 once per n."""
    out = []
    for n in (1, 2):
        for m in (1, 2):
            rep = getattr(formulas, check)(n, m)
            out.append(_check(identity, f"n={n} m={m}", rep.formula_value, rep.reference, tol))
            if m == 1:
                out.append(_check(identity, f"n={n} {constant}", rep.extras[constant], 0.0,
                                  constant_tol))
    return out


def _ode_residual(n: int, u: float, h: float = 1e-3) -> float:
    w = [specfun.coates_series(n, u + k * h) for k in (-2, -1, 0, 1, 2)]
    wp = (w[0] - 8 * w[1] + 8 * w[3] - w[4]) / (12 * h)
    wpp = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12 * h * h)
    return (wpp + wp / u + w[2] * (1 - 4.0 * n * n / (u * u))
            - 2.0 * n * (-1.0) ** n * math.cos(u) / (u * u))


def _suite_integral_id(tol: float = 1e-13, **_) -> list[CheckResult]:
    out = []
    for n, u in ((1, 4 * pi), (2, 8 * pi)):
        series = specfun.coates_series(n, u)
        quad = specfun.coates_integral(n, u)
        out.append(_check("integral-id", f"n={n} u={u/pi:.0f}pi", quad, series, tol))
    out.append(_check("integral-id", "ode-residual n=1 u=4pi",
                      _ode_residual(1, 4 * pi), 0.0, 1e-5))
    return out


def _suite_form_s1(tol: float = 1e-9, **_) -> list[CheckResult]:
    out = []
    for n in (2, 4, 6):
        for z in (4 * pi, 8 * pi):
            lhs = specfun.schlafli_S(n, z)
            jn = specfun.bessel_J(float(n), z)
            rhs = (-pi * specfun.bessel_Y_int(n, z)
                   + 2.0 * (specfun.EULER_GAMMA + math.log(z / 2.0)) * jn
                   + specfun.P_func(n, z) - 2.0 * specfun.Q_func(n, z))
            out.append(_check("form-s1", f"n={n} z={z/pi:.0f}pi", rhs, lhs, tol))
    return out


def _suite_poisson(tol: float = 1e-13, **_) -> list[CheckResult]:
    out = []
    for nu, x in ((2.5, 0.3), (2.0, 0.3), (4.0, 0.62), (0.5, 0.1)):
        rep = formulas.poisson_J_series_check(nu, x)
        # even integer order: the algebraic tails vanish, kernels alone must match
        note = " (tails vanish)" if nu % 2 == 0 else ""
        out.append(_check("poisson-series", f"nu={nu:g} x={x}{note}", rep.formula_value,
                          rep.reference, tol))
    return out


SERIES_007_TERMS = 1000  # N: m < N summed directly, the rest in closed form


def _series_007_rhs(x: float) -> float:
    """1/(2 sqrt x) - (x/sqrt 2) sum_{m >= 1} f(m); f = g/r, r^2 = m^2 - x^2, g^-2 = m + r.

    The terms m < N are summed directly and the rest by Euler-Maclaurin at N:
    int_N^inf f = 2 g(N), as g' = -f/2, then f(N)/2 - f'(N)/12 + f'''(N)/720
    with f' = -g (2m + r)/(2 r^3) and f''' = 15 g (r^3 + 4m r^2 - 4m^2 r - 8m^3)/(8 r^7).
    f is completely monotone on m > x (the product of (m - x)^{-1/2},
    (m + x)^{-1/2} and g, with m + r a Bernstein function), so f^(6) >= 0 and
    the remainder int_N^inf (B_6 - B_6({m}))/6! f^(6) is at most
    2 |B_6|/6! |f^(5)(N)| = |f^(5)(N)|/15120, below 1e-21 at N = 1000.
    """
    ms = np.arange(1.0, SERIES_007_TERMS)
    roots = np.sqrt((ms - x) * (ms + x))
    n = float(SERIES_007_TERMS)
    r = sqrt((n - x) * (n + x))
    g = 1.0 / sqrt(n + r)
    tail = [2.0 * g, g / (2.0 * r), g * (2.0 * n + r) / (24.0 * r**3),
            g * (r**3 + 4.0 * n * r * r - 4.0 * n * n * r - 8.0 * n**3) / (384.0 * r**7)]
    total = math.fsum((1.0 / (np.sqrt(ms + roots) * roots)).tolist() + tail)
    return 0.5 / sqrt(x) - (x / sqrt(2.0)) * total


def _suite_series_007(tol: float = 1e-14, **_) -> list[CheckResult]:
    out = []
    for x in (0.3, 0.62):
        lhs = series_engine.trig_power_sums(x).sin_sum_half
        out.append(_check("series-007", f"x={x}", lhs, _series_007_rhs(x), tol))
    return out


def _suite_telescope(tol: float = 1e-10, **_) -> list[CheckResult]:
    out = []
    # termwise algebraic identity 1/(sqrt(m(m+2)) sqrt(m+1+sqrt(m(m+2))))
    #   = (1/sqrt 2)(1/sqrt m - 1/sqrt(m+2)), checked numerically on samples
    worst = 0.0
    for m in (1, 2, 3, 10, 97, 10**4):
        lhs = 1.0 / (sqrt(m * (m + 2.0)) * sqrt(m + 1.0 + sqrt(m * (m + 2.0))))
        rhs = (1.0 / sqrt(2.0)) * (1.0 / sqrt(m) - 1.0 / sqrt(m + 2.0))
        worst = max(worst, abs(lhs - rhs))
    out.append(_check("telescope", "termwise identity", worst, 0.0, 1e-15))
    m_terms = 10**5
    ms = np.arange(1, m_terms + 1, dtype=float)
    roots = np.sqrt(ms * (ms + 2.0))
    partial = series_engine.chunked_fsum(1.0 / (roots * np.sqrt(ms + 1.0 + roots)))
    tail = (1.0 / sqrt(2.0)) * (1.0 / sqrt(m_terms + 1.0) + 1.0 / sqrt(m_terms + 2.0))
    out.append(_check("telescope", "sum", partial + tail, (sqrt(2.0) + 1.0) / 2.0, tol))
    return out


def _suite_denominators(n_max: int = 60, **_) -> list[CheckResult]:
    out = []
    for n in range(1, n_max + 1):
        denom = exact_core.modified_bernoulli(n).denominator
        got = exact_core.two_adic_valuation(denom)
        want = exact_core.two_adic_valuation_prediction(n)
        out.append(_check("denominators", f"n={n}", float(got), float(want), 0.5))
    return out


def _suite_shift(n_max: int = 15, **_) -> list[CheckResult]:
    out = []
    rng = random.Random(20140401)
    for n in range(1, n_max + 1):
        for k in range(-5, 6):
            x = Fraction(rng.randrange(-12, 13), rng.randrange(1, 9))
            lhs = exact_core.zagier_shift(n, x, k)
            rhs = exact_core.zagier_eval(n, x + k)
            out.append(_check("shift", f"n={n} k={k} x={x}",
                              0.0 if lhs == rhs else 1.0, 0.0, 0.5))
    return out


def _suite_reflection(n_max: int = 20, **_) -> list[CheckResult]:
    out = []
    rng = random.Random(19980105)
    for n in range(1, n_max + 1):
        x = Fraction(rng.randrange(-40, 41), rng.randrange(1, 17))
        lhs = exact_core.zagier_eval(n, -x - 3)
        rhs = (-1) ** n * exact_core.zagier_eval(n, x)
        out.append(_check("reflection", f"n={n} x={x}",
                          0.0 if lhs == rhs else 1.0, 0.0, 0.5))
    return out


_EACH_X = tuple((x,) for x in X_GRID)

IDENTITIES = {
    "thm12": partial(_formula_suite, "thm12", "zagier_even_formula", 1, _EACH_X, n_max=5),
    "thm13": partial(_formula_suite, "thm13", "zagier_odd_formula", 0, _EACH_X, n_max=5),
    "zagier-sum": partial(_formula_suite, "zagier-sum", "zagier_number_formula", 1, ((),),
                          n_max=8),
    "thm15": partial(_formula_suite, "thm15", "zagier_type_sum", 1, ((),), n_max=5),
    "lemma33": partial(_lemma_suite, "lemma33", "fourier_coeff_P_check", "a0",
                       tol=1e-8, constant_tol=1e-10),
    "lemma34": partial(_lemma_suite, "lemma34", "fourier_coeff_dJ_check", "b0",
                       tol=1e-7, constant_tol=1e-9),
    "integral-id": _suite_integral_id,
    "form-s1": _suite_form_s1,
    "poisson-series": _suite_poisson,
    "series-007": _suite_series_007,
    "telescope": _suite_telescope,
    "denominators": _suite_denominators,
    "shift": _suite_shift,
    "reflection": _suite_reflection,
}


def run_identity(name: str, **options) -> list[CheckResult]:
    if name not in IDENTITIES:
        raise KeyError(f"unknown identity {name!r}; choose from {sorted(IDENTITIES)}")
    return IDENTITIES[name](**options)
