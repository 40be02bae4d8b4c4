"""Shared independent oracles for the test suite.

These deliberately avoid the production code paths: power series are summed
in extended precision with mpmath, Bernoulli numbers come from the
Akiyama-Tanigawa triangle, modified Bernoulli numbers and Zagier
polynomials are assembled term by term in `Fraction`s, trigonometric power
sums are checked against the polylogarithm, and the algebraic g-series is
summed term by term.  The regularized bracket sum is rebuilt from scratch
on every call, without the library's caches, and `empty_caches` swaps
those caches for empty ones.
"""

from __future__ import annotations

from fractions import Fraction
import functools
import importlib
import math
import tracemalloc
from math import comb, factorial, fsum, pi, sin, sqrt
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest


def pytest_collection_modifyitems(config, items):
    """Every warning fails a test of this directory, so that a numpy overflow or
    invalid-value RuntimeWarning on the numeric path cannot pass unseen.  The
    mark goes first, so a test's own filterwarnings marks still override it."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


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


def hurwitz_zeta_oracle(k_max: int, a: int, dps: int = 40) -> list:
    """zeta(k + 1/2, a) for k = 1..k_max (k_max <= 29) and an integer a >= 1,
    as mpfs: the terms below A = max(a, 64) summed directly, the rest by
    Euler-Maclaurin at A until a correction falls below 1e-30 of the sum
    (each shrinks the last by about ((s + 2j)/(2 pi A))^2).
    All but the tiny corrections are positive, so nothing cancels, whereas
    mpmath.zeta at an integer a subtracts from zeta(s) and needs about
    (s - 1) log10(a) more digits.  Each order comes from the last by one
    division per power."""
    with mp.workdps(dps):
        big = max(a, 64)
        bases = [mp.mpf(q) for q in range(a, big)]
        direct = [1 / (q * mp.sqrt(q)) for q in bases]  # q^{-3/2}
        top = mp.mpf(big)
        power = 1 / (top * mp.sqrt(top))
        out = []
        for k in range(1, k_max + 1):
            s = k + mp.mpf(1) / 2
            total = mp.fsum(direct) + power * top / (s - 1) + power / 2
            step, j = power * s / top, 1  # s (s+1) ... (s+2j-2) top^{1-s-2j}
            while True:
                term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * step
                total += term
                if abs(term) < 1e-30 * total:
                    break
                step *= (s + 2 * j - 1) * (s + 2 * j) / (top * top)
                j += 1
            out.append(total)
            direct = [d / q for d, q in zip(direct, bases)]
            power /= top
        return out


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


def brent_harvey_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n from the tangent numbers, computed in one batch.

    Brent & Harvey (arXiv:1108.0286), Algorithm TangentNumbers: stages
    k = 2..K over the whole row t[k..K], then B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)).  The library runs the same recurrence one column at a
    time, so this checks the column order against the row order.
    """
    k_max = n // 2
    t = [0] * (k_max + 1)
    if k_max >= 1:
        t[1] = 1
    for k in range(2, k_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    if n >= 1:
        out[1] = Fraction(-1, 2)
    for k in range(1, k_max + 1):
        four_k = 1 << (2 * k)
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], four_k * (four_k - 1))
    return out


def modified_bernoulli_oracle(n: int, bern: list[Fraction]) -> Fraction:
    """B_n^* = sum_{r=0}^n C(n+r,2r) B_r/(n+r), one Fraction operation per term.

    `bern` holds B_0..B_n (from `akiyama_tanigawa_bernoulli` or
    `brent_harvey_bernoulli`).
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


def conjugate_sum_oracle(r: float, gap: float, c: float, direct: int = 400, dps: int = 40):
    """sum_{j>=0} f(c + gap + j), f(A) = (A - sqrt(A^2-c^2))^{2r}/sqrt(A^2-c^2), as an mpf.

    The terms j < direct are summed in extended precision; the rest by
    Euler-Maclaurin at a = c + gap + direct with the closed integral
    w(a)^{2r}/(2r) and mpmath's numerical derivatives through B_6, whose
    first dropped term is below 1e-22 of the sum for r >= 1/4.  mpmath's
    nsum is not used: at r = 1/4, where the terms fall like A^{-3/2}, its
    default and Euler-Maclaurin methods both miss the sum by 0.5%.
    """
    with mp.workdps(dps):
        rr, cc = mp.mpf(r), mp.mpf(c)

        def f(g):  # A^2 - c^2 = g (g + 2c) with g = A - c
            root = mp.sqrt(g * (g + 2 * cc))
            return (cc * cc / (cc + g + root)) ** (2 * rr) / root

        head = mp.fsum(f(mp.mpf(gap) + j) for j in range(direct))
        g = mp.mpf(gap) + direct
        integral = (cc * cc / (cc + g + mp.sqrt(g * (g + 2 * cc)))) ** (2 * rr) / (2 * rr)
        d = list(mp.diffs(f, g, 5))
        corrections = mp.fsum(mp.bernoulli(2 * k) / mp.factorial(2 * k) * d[2 * k - 1] for k in (1, 2, 3))
        return head + integral + d[0] / 2 - corrections


# ---------------------------------------------------------------------------
# cross-checks between two routes, kept out of the library: nothing in the
# package calls them
# ---------------------------------------------------------------------------

def zeta_even(n: int) -> float:
    """zeta(2n) from the exact Bernoulli number B_{2n} (Akiyama-Tanigawa)."""
    sign = 1 if n % 2 else -1
    frac = akiyama_tanigawa_bernoulli(2 * n)[2 * n] * Fraction(sign, 2 * factorial(2 * n))
    return float(frac) * (2.0 * pi) ** (2 * n)


def p_func_reference(n: int, z: float) -> float:
    """Digamma-series definition of P_n, evaluated in extended precision.

    The power series cancels catastrophically in doubles for z beyond ~20,
    so it runs under mpmath.
    """
    with mp.workdps(40):
        zz = mp.mpf(z)
        head = -mp.fsum(
            mp.factorial(n - r - 1) / mp.factorial(r) * (zz / 2) ** (2 * r - n)
            for r in range((n + 1) // 2, n)
        )
        tail = mp.nsum(
            lambda l: (-1) ** l * (zz / 2) ** (n + 2 * l)
            * (mp.digamma(n + l + 1) - mp.digamma(l + 1))
            / (mp.factorial(l) * mp.factorial(n + l)),
            [0, mp.inf],
        )
        return float(head + tail)


def q_func_reference(n: int, z: float) -> float:
    """Digamma-series definition of Q_n in extended precision."""
    with mp.workdps(40):
        zz = mp.mpf(z)
        return float(
            mp.nsum(
                lambda l: (-1) ** l * (zz / 2) ** (n + 2 * l)
                * (mp.digamma(n + l + 1) + mp.euler)
                / (mp.factorial(l) * mp.factorial(n + l)),
                [0, mp.inf],
            )
        )


def A_function_two_ways(n: int, x: float, tol: float = 1e-8) -> tuple[float, float]:
    """The cosine series of Schlaefli values, two independent ways: (closed, direct).

    Direct (reference): (-1)^{n+1} sum_m S_{2n}(4 pi m) cos(2 pi m x),
    absolutely convergent with O(m^{-2}) terms; the oscillatory tail is
    O(n M^{-2} / (4 pi^2 sin(pi x))) by summation by parts, so the term
    count only grows like 1/sqrt(tol).  Closed: the accelerated Bessel
    series, g-tails and Chebyshev values.
    """
    from zagier_kit import series_engine, specfun

    m_terms = int(sqrt(n / (4.0 * pi**2 * sin(pi * x) * (tol / 8.0)))) + 2000
    ms = np.arange(1, min(m_terms, 2_000_000) + 1, dtype=float)
    svals = np.zeros_like(ms)
    for r in range(n):  # S_{2n}(z) = sum_{r < n} (2n-r-1)!/r! (z/2)^{2r-2n}
        svals += factorial(2 * n - r - 1) / factorial(r) * (2.0 * pi * ms) ** (2 * r - 2 * n)
    direct = (-1.0) ** (n + 1) * series_engine.chunked_fsum(svals * np.cos(2.0 * pi * x * ms))
    bessel = series_engine.bessel_cos_series(n, x, tol=tol * 1e-2)
    g = series_engine.g_tail_sum(n, x).value + series_engine.g_tail_sum(n, 1.0 - x).value
    u, k = specfun.chebyshev_U_value, 2 * n - 1
    quad = u(k, x / 2) + u(k, (x + 1.0) / 2) + u(k, (1.0 - x) / 2) + u(k, (2.0 - x) / 2)
    closed = bessel.value + (-1.0) ** (n + 1) / (2.0 * n) + 2.0 ** -(2 * n + 1) * g - 0.25 * quad
    return closed, direct


def bernoulli_fourier_eval(index: int, x: float, m_terms: int) -> float:
    """Truncated Fourier series of the Bernoulli polynomial B_index(x).

    Even index 2n: 2 (-1)^{n+1} (2n)! sum cos(2 pi m x)/(2 pi m)^{2n};
    odd index 2n+1: the sine companion.
    """
    ms = np.arange(1, m_terms + 1, dtype=float)
    trig = np.cos if index % 2 == 0 else np.sin
    series = trig(2.0 * pi * ms * x) / (2.0 * pi * ms) ** index
    return 2.0 * (-1.0) ** (index // 2 + 1) * factorial(index) * fsum(series.tolist())


def uncached_periodic_zeta(x: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """`series_engine.periodic_zeta` forming only the orders 0..k_max asked,
    from the library's constant Wood tables."""
    from zagier_kit.series_engine import _WOOD_TERMS, _wood_tables

    zeta, eta, gamma_c, gamma_s, re, im = _wood_tables()
    if x == 0.0:
        return zeta[: k_max + 1, 0].copy(), np.zeros(k_max + 1)
    t = 1.0 - x if x > 0.5 else x
    if t <= 0.25:
        a = 2.0 * pi * t
        rows = zeta[: k_max + 1]
        singular = a ** (np.arange(k_max + 1) - 0.5)
        c = gamma_c[: k_max + 1] * singular
        s = gamma_s[: k_max + 1] * singular
        powers = a ** np.arange(_WOOD_TERMS, dtype=float)
    else:  # (2t - 1)^j as (-1)^j (1 - 2t)^j, a positive base
        a = pi * (1.0 - 2.0 * t)
        rows = -eta[: k_max + 1]
        c = s = 0.0
        powers = (-1.0) ** np.arange(_WOOD_TERMS, dtype=float) * a ** np.arange(_WOOD_TERMS, dtype=float)
    c = c + (rows * (powers * re)).sum(axis=1)
    s = s + (rows * (powers * im)).sum(axis=1)
    return c, -s if x > 0.5 else s


def uncached_bracket_sum(nu: int, x: float, tol: float = 1e-9, lattice: int = 1,
                         m_terms: int | None = None, top_cut: bool = True):
    """The regularized bracket sum rebuilt from scratch on every call.

    The same arithmetic as `series_engine.regularized_bracket_sum`, with the
    bracket values, tail envelopes, residual row bracket - sum_k b_k q^{-s}
    and the bound's m-sums formed inside the call instead of taken from the
    library's caches, so a cache that hands out a wrong or stale entry shows
    as a difference in the last bit.  Every sum over m of the value is
    math.fsum of a list, not the engine's `chunked_fsum`, so a fault in that
    sum shows too.
    At x = 0 the closed tails zeta(s, M + 1) come afresh on every call from
    the library's one Hurwitz kernel, `specfun.hurwitz_zeta`.  The top cut
    forms its stairs sum_{m>j} |row_m|, j = 1, 2, 4, ... < M, afresh; with
    top_cut=False the sum keeps the whole base range.  Returns
    (value, tail_bound, terms_used, raised).

    A given m_terms, a test reference the library no longer offers, sums
    the explicit range [1, m_terms] and closes every order up to the
    smallest dropped one, with no window, no top cut and no raise.  It must
    be at least the base range M0, past the crossover, where the closed
    tails' bound holds; a shorter one raises ValueError.
    """
    from zagier_kit.series_engine import _EPS, _ORDERS, _ZETA_EPS, DEFAULT_MAX_TERMS as cap
    from zagier_kit.specfun import (ASYM_Z_MIN, _hankel_sum, _orders_sum, asymptotic_crossover,
                                    bessel_Y01, bessel_Y_upward, hankel_lattice, hurwitz_zeta)

    even_nu = nu % 2 == 0
    if not even_nu and x == 0.0:
        return 0.0, 0.0, 0, False
    b = (-1.0) ** (nu // 2) * hankel_lattice(nu)[1]
    b[0] = 0.0
    lam = float(lattice)

    def trig_at(ms):
        return np.cos(2.0 * pi * x * ms) if even_nu else np.sin(2.0 * pi * x * ms)

    M = base = max(int(math.ceil(asymptotic_crossover(nu) / (4.0 * pi * lam))) + 1, 8)
    if m_terms is not None:
        if m_terms < base:
            raise ValueError(f"m_terms {m_terms} lies below the base range {base}")
        M = m_terms
    ks = np.arange(1, _ORDERS, dtype=float)
    envelopes = np.abs(b[2:]) * (lam * M) ** -(ks + 1.5) * M / (ks + 0.5)
    below = np.flatnonzero(envelopes <= tol)
    if m_terms is None and below.size and x != 0.0:
        K = int(below[0]) + 1
    else:  # a given m_terms, and x = 0, close every order to the smallest envelope
        K = int(np.argmin(envelopes)) + 1
    truncation = float(envelopes[K - 1])
    ms = np.arange(1, M + 1, dtype=float)
    q = lam * ms
    # bracket(lattice m): Y_0, Y_1 and the upward recurrence below the
    # crossover, the power series in 1/q past it
    near = int(asymptotic_crossover(nu) / (4.0 * pi * lattice))
    qn = lattice * np.arange(1.0, near + 1.0)
    z, root = 4.0 * pi * qn, np.sqrt(qn)
    low = int(np.count_nonzero(z <= ASYM_Z_MIN))
    y01 = np.empty((2, qn.size))
    for i in range(low):
        y01[:, i] = bessel_Y01(z[i])
    y01[:, low:] = [_hankel_sum(hankel_lattice(k)[1], 0, qn[low:]) / pi for k in (0, 1)]
    near_values = (-1.0) ** (nu // 2) * pi * bessel_Y_upward(nu, z, *y01) + 0.5 / root
    far_q = lattice * np.arange(near + 1, M + 1, dtype=float)
    brackets = np.concatenate([near_values[:M], _hankel_sum(b, 1, far_q)])
    # the bound's m-sums are numpy's pairwise sums, as in the engine
    abs_sum = float(np.abs(brackets).sum())
    if x == 0.0:
        zeta_tails = np.array([hurwitz_zeta(k + 0.5, M + 1.0) for k in range(1, K + 1)])
        s = np.arange(1, _ORDERS + 1) + 0.5  # every order, as the plan forms lattice^{-s}
        closed = b[1 : K + 1] * (lam**-s)[:K] * zeta_tails
        value = math.fsum(brackets.tolist()) + math.fsum(closed.tolist())
        bound = truncation + ((2e-15 + _EPS) * abs_sum + _ZETA_EPS * float(np.abs(closed).sum()))
        return value, bound, M, m_terms is None and bound > tol
    # the bound's m-sums: of |bracket| and of q^{-s}, plain and weighted by m
    abs_moment = float((ms * np.abs(brackets)).sum())
    power_sums, power_moments = [], []
    power = q**-1.5
    for k in range(K):
        if k:
            power = power / q
        power_sums.append(float(power.sum()))
        power_moments.append(float((ms * power).sum()))
    xi = 2.0 * pi * x
    s = np.arange(1, K + 1) + 0.5
    b_abs = np.abs(b[1 : K + 1])
    closed_err = b_abs * (_ZETA_EPS * lam**-s + _EPS * (np.array(power_sums) + xi * np.array(power_moments)))
    fixed = truncation + (2e-15 + _EPS) * abs_sum + xi * _EPS * abs_moment
    W, split, bound = M, K, fixed + float(closed_err.sum())

    def windowed(w):
        err = (b_abs * lam**-s * (w ** (1.0 - s) + _EPS * (1.0 + xi * w) * M ** (1.0 - s))
               / (s - 1.0))
        better = err < closed_err
        k = 0 if better.all() else K - int(np.argmin(better[::-1]))
        return k, fixed + float(closed_err[:k].sum() + err[k:].sum())

    if m_terms is None and bound > tol and windowed(cap)[1] <= tol:
        W = min(2 * M, cap)
        while (found := windowed(W))[1] > tol:
            W = min(2 * W, cap)
        split, bound = found
    # orders 1..split close as b_k (lattice^{-s} T_s(x) - sum_{m <= M} trig q^{-s}),
    # which is sum_m trig (bracket - c) plus the closed values
    row = brackets - _orders_sum(b, 1, split, q) if split else brackets
    top = M
    if top_cut and m_terms is None and W == M and bound <= tol:
        # suffix sums of |row| past j = 2^i, rounded up by 1 + M _EPS
        starts = 2 ** np.arange((M - 1).bit_length())
        stairs = np.cumsum(np.add.reduceat(np.abs(row), starts)[::-1])[::-1] * (1.0 + M * _EPS)
        fits = [i for i, stair in enumerate(stairs.tolist()) if stair <= 1e-4 * tol and bound + stair <= tol]
        if fits:
            top = W = int(starts[fits[0]])
            bound += float(stairs[fits[0]])
    closed = b[1 : split + 1] * lam**-s[:split] * uncached_periodic_zeta(x, split)[0 if even_nu else 1][1:]
    value = math.fsum((row[:top] * trig_at(ms[:top])).tolist()) + math.fsum(closed.tolist())
    if split < K:
        mw = np.arange(M + 1, W + 1, dtype=float)
        value += math.fsum((trig_at(mw) * _orders_sum(b, split + 1, K, lam * mw)).tolist())
    return value, bound, W, m_terms is None and bound > tol


# every lru_cache of the numeric side, as (module, function) in zagier_kit
CACHES = (("series_engine", "_plan"), ("series_engine", "_residual"),
          ("series_engine", "_zero_sum"), ("series_engine", "_periodic_zeta_rows"),
          ("series_engine", "_em_rows"),
          ("formulas", "_number_exact"), ("formulas", "_type_exact"),
          ("formulas", "_number_terms"), ("formulas", "_type_terms"),
          ("formulas", "_weighted_profile"))


def empty_caches(monkeypatch) -> None:
    """Swap each cache of CACHES for an empty one of the same size; the
    monkeypatch brings the module's own back afterwards."""
    for module_name, name in CACHES:
        module = importlib.import_module(f"zagier_kit.{module_name}")
        cached = getattr(module, name)
        fresh = functools.lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
        monkeypatch.setattr(module, name, fresh)


def traced_peak(fn, *args):
    """(fn(*args), peak bytes allocated above the start while it ran), under
    tracemalloc; call fn once before, so caches it fills are not counted."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
