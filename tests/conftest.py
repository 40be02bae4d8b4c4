"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths: power series are summed
in extended precision with mpmath, Bernoulli numbers come from the
Akiyama-Tanigawa triangle, modified Bernoulli numbers and Zagier
polynomials are assembled term by term in `Fraction`s, trigonometric power
sums are checked against the polylogarithm, and the algebraic g-series is
summed term by term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, sqrt

import mpmath as mp
import pytest


@pytest.fixture(scope="session")
def mp50():
    """mpmath context at 50 digits."""
    with mp.workdps(50):
        yield mp


def bessel_j_series_oracle(nu: float, z: float, terms: int = 60, dps: int = 50) -> float:
    """J_nu(z) by direct power-series summation in extended precision."""
    with mp.workdps(dps):
        zz = mp.mpf(z)
        nuu = mp.mpf(nu)
        acc = mp.mpf(0)
        for m in range(terms):
            acc += (-1) ** m * (zz / 2) ** (2 * m + nuu) / (
                mp.factorial(m) * mp.gamma(m + 1 + nuu)
            )
        return float(acc)


def bessel_y_oracle(n: int, z: float, dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.bessely(n, z))


def dj_dnu_fd_oracle(n: int, z: float, h: str = "1e-9", dps: int = 60) -> float:
    """Central finite difference of J_nu in the order, extended precision."""
    with mp.workdps(dps):
        hh = mp.mpf(h)
        return float((mp.besselj(n + hh, z) - mp.besselj(n - hh, z)) / (2 * hh))


def polylog_trig_oracle(s: float, x: float) -> tuple[float, float]:
    """(sum cos(2 pi m x)/m^s, sum sin...) = Re/Im of Li_s at e^{2 pi i x}."""
    with mp.workdps(40):
        li = mp.polylog(mp.mpf(s), mp.e ** (2j * mp.pi * x))
        return float(mp.re(li)), float(mp.im(li))


def akiyama_tanigawa_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle, adjusted to B_1 = -1/2."""
    row = [Fraction(0)] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]  # triangle yields +1/2; our convention is -1/2
    return out


def modified_bernoulli_oracle(n: int, bern: list[Fraction]) -> Fraction:
    """B_n^* = sum_{r=0}^n C(n+r,2r) B_r/(n+r), one Fraction operation per term.

    `bern` holds B_0..B_n (from `akiyama_tanigawa_bernoulli`).
    """
    acc = Fraction(0)
    for r in range(n + 1):
        if bern[r] != 0:
            acc += Fraction(comb(n + r, 2 * r), n + r) * bern[r]
    return acc


def zagier_polynomial_oracle(n: int, bern: list[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients (index = power of x) of B_n^*(x) = sum_r C(n+r,2r) B_r(x)/(n+r).

    Adds one scaled Bernoulli polynomial B_r(x) = sum_k C(r,k) B_k x^(r-k)
    per r, in Fractions.  `bern` holds B_0..B_n.  The leading coefficient
    1/(2n) is never 0, so no trailing zeros need stripping.
    """
    acc = [Fraction(0)] * (n + 1)
    for r in range(n + 1):
        weight = Fraction(comb(n + r, 2 * r), n + r)
        for k in range(r + 1):
            acc[r - k] += (comb(r, k) * bern[k]) * weight
    return tuple(acc)


def g_sum_plain_oracle(r: float, x: float, tol: float, max_terms: int) -> float:
    """sum_{m>=1} g(m, r, x) term by term, until the power-law tail bound
    g(m) m/(2r) drops under tol.

    g(m) = (A - sqrt(A^2-4))^{2r}/sqrt(A^2-4) with A = m+1+x and
    A^2-4 = (m-1+x)(m+3+x), written as (4/(A + sqrt(A^2-4)))^{2r}/sqrt(A^2-4)
    to avoid the cancellation.
    """
    total = 0.0
    for m in range(1, max_terms + 1):
        root = sqrt((m - 1.0 + x) * (m + 3.0 + x))
        t = (4.0 / (m + 1.0 + x + root)) ** (2.0 * r) / root
        total += t
        if t * m / (2.0 * r) < tol and m > 4:
            return total
    raise RuntimeError(f"plain g-sum not within {tol} after {max_terms} terms")


def g_sum_nsum_oracle(r: float, x: float, dps: int = 40) -> float:
    """sum_{m>=1} g(m, r, x) by mpmath's extrapolated nsum in extended precision."""
    with mp.workdps(dps):
        rr, xx = mp.mpf(r), mp.mpf(x)

        def g(m):
            a = m + 1 + xx
            root = mp.sqrt((a - 2) * (a + 2))
            return (a - root) ** (2 * rr) / root

        return float(mp.nsum(g, [1, mp.inf]))
