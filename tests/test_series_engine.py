"""Series engine: trig power sums against the polylogarithm, g-series
against extended precision, bracket decay, and the acceleration contracts."""

from __future__ import annotations

import bisect
import importlib
import math
import random
import re
import sys
import threading
import tracemalloc
import types
from math import pi, sqrt

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from zagier_kit import series_engine as se
from zagier_kit import specfun as sf
from zagier_kit.verify import X_GRID

from conftest import (CACHES, conjugate_sum_oracle, empty_caches, g_sum_nsum_oracle, g_sum_plain_oracle,
                      hurwitz_zeta_oracle, lerch_tail_oracle, polylog_trig_oracle,
                      uncached_bracket_sum, uncached_periodic_zeta)


# ---------------------------------------------------------------------------
# trig power sums
# ---------------------------------------------------------------------------

def test_half_power_split_sums_to_hurwitz():
    for x in (0.1, 0.3, 0.5, 0.77):
        tps = se.trig_power_sums(x)
        assert abs(tps.cos_sum_half + tps.sin_sum_half
                   - sf.hurwitz_zeta(0.5, x)) < 1e-10


def test_trig_sums_symmetry():
    for x in (0.12, 0.31, 0.44):
        a, b = se.trig_power_sums(x), se.trig_power_sums(1.0 - x)
        assert abs(a.cos_sum_half - b.cos_sum_half) < 1e-12
        assert abs(a.sin_sum_half + b.sin_sum_half) < 1e-12


def test_trig_sums_vs_polylog():
    for x in (0.05, 0.3, 0.62, 0.95):
        tps = se.trig_power_sums(x)
        c, s = polylog_trig_oracle(0.5, x)
        assert abs(tps.cos_sum_half - c) < 2e-11
        assert abs(tps.sin_sum_half - s) < 2e-11
        for k in (3, 5, 7):
            c, s = polylog_trig_oracle(k / 2.0, x)
            ck, sk = tps.higher[k]
            assert abs(ck - c) < 5e-11, (k, x)
            assert abs(sk - s) < 5e-11, (k, x)


def test_sine_sum_vanishes_at_half():
    tps = se.trig_power_sums(0.5)
    assert tps.sin_sum_half == 0.0
    for k in (3, 5, 7):
        assert tps.higher[k][1] == 0.0


def test_ladder_consistency():
    # rebuild C(x) from the shifted Hurwitz value zeta(1/2,x) = zeta(1/2,x+1) + x^{-1/2}
    for x in (0.2, 0.7):
        tps = se.trig_power_sums(x)
        zx = sf.hurwitz_zeta(0.5, x + 1.0) + x ** -0.5
        z1x = sf.hurwitz_zeta(0.5, 1.0 - x)
        assert abs(tps.cos_sum_half - 0.5 * (zx + z1x)) < 1e-10


@pytest.mark.parametrize("k", range(21))
def test_periodic_zeta_vs_polylog(k):
    # one closed form for every half-integer s = k + 1/2
    for x in (0.01, 0.1, 0.37, 0.5, 0.8, 0.99):
        c, sn = polylog_trig_oracle(k + 0.5, x)
        got_c, got_s = se.periodic_zeta(x, k)
        assert abs(got_c[k] - c) < 1e-14, (k, x)
        assert abs(got_s[k] - sn) < 1e-14, (k, x)


def test_periodic_zeta_past_a_quarter_vs_polylog():
    # for 1/4 < t <= 1/2 the powers (2t - 1)^j are formed as (-1)^j (1 - 2t)^j
    rng = random.Random(26)
    xs = [0.25 + 1e-9, 0.3, 0.5 - 1e-9, 0.5, 0.75 - 1e-9] + [rng.uniform(0.25, 0.75) for _ in range(6)]
    for x in xs:
        got_c, got_s = se.periodic_zeta(x, 29)
        for k in (0, 1, 2, 7, 15, 29):
            c, sn = polylog_trig_oracle(k + 0.5, x)
            assert abs(got_c[k] - c) < 1e-14, (k, x)
            assert abs(got_s[k] - sn) < 1e-14, (k, x)


def test_periodic_zeta_at_zero_is_riemann_zeta():
    c, s = se.periodic_zeta(0.0, 20)
    for k in range(21):
        ref = float(mp.zeta(k + 0.5))
        assert abs(c[k] - ref) < 1e-15 * abs(ref), k
    assert not s.any()


def test_periodic_zeta_domain():
    for x in (-0.1, 1.0):
        with pytest.raises(ValueError):
            se.periodic_zeta(x, 2)
    with pytest.raises(ValueError):
        se.periodic_zeta(0.3, -1)


# the acceptance grid's x, dyadic points toward both ends of (0, 1) and both
# sides of the branch switches at 1/4 and 3/4
_WOOD_X = sorted({float(x) for x in X_GRID} | {2.0**-k for k in range(2, 12)}
                 | {1.0 - 2.0**-k for k in range(2, 12)}
                 | {0.25 - 1e-9, 0.25 + 1e-9, 0.75 - 1e-9, 0.75 + 1e-9})


@pytest.fixture(scope="module")
def polylog_rows():
    """Li_s(e^{2 pi i x}) = C_s(x) + i S_s(x) at 30 digits, s = k + 1/2 for k = 1.._ORDERS."""
    with mp.workdps(30):
        return {x: [mp.polylog(k + mp.mpf(1) / 2, mp.expjpi(2 * mp.mpf(x)))
                     for k in range(1, se._ORDERS + 1)] for x in _WOOD_X}


@pytest.mark.parametrize("odd", (False, True))
def test_wood_polynomial_lies_within_its_allowance_of_the_polylog(odd, polylog_rows):
    # the closed tails sum_k w_k T_s(x), w_k = b_k of every nu <= 60 of the parity and
    # K = 1..29 orders, against 30 digits: within _ZETA_EPS sum_k |w_k|, the
    # allowance the bound gives them
    worst = 0.0
    with mp.workdps(30):
        for nu in range(1 + odd, 61, 2):
            weights = se._plan(nu, 1).weights.tolist()
            woods = [se._wood(weights[:K], 1, odd) for K in range(1, se._ORDERS + 1)]
            allowances = se._ZETA_EPS * np.cumsum(np.abs(weights))
            for x, row in polylog_rows.items():
                ref = mp.mpf(0)
                for w, li, wood, allowance in zip(weights, row, woods, allowances.tolist()):
                    ref += w * (li.imag if odd else li.real)
                    worst = max(worst, float(abs(wood.at(x) - ref)) / allowance)
    assert worst <= 1.0, worst


def test_trig_sums_domain():
    with pytest.raises(ValueError):
        se.trig_power_sums(0.0)
    with pytest.raises(ValueError):
        se.trig_power_sums(1.0)


# ---------------------------------------------------------------------------
# the Lerch tail
# ---------------------------------------------------------------------------

# the acceptance grid's x and dyadic points toward both ends of (0, 1)
_LERCH_X = sorted({0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9}
                  | {2.0**-k for k in range(2, 12)} | {1.0 - 2.0**-k for k in range(2, 12)})


def test_lerch_oracle_matches_mpmath_lerchphi():
    # z^{a+1} lerchphi(z, s, a + 1) needs about s log10(a + 1) digits past the
    # 30 it is asked for: at 30 digits it misses by 5.6e-6 at s = 59/2, a = 65
    for x, a, k in ((0.1, 60, 0), (0.5, 12, 29), (2.0**-11, 12288, 1), (0.9, 65, 15)):
        with mp.workdps(30 + math.ceil((k + 0.5) * math.log10(a + 1))):
            z = mp.expjpi(2 * mp.mpf(x))
            ref = z ** (a + 1) * mp.lerchphi(z, k + 0.5, a + 1)
        assert abs(lerch_tail_oracle(x, a, k + 1)[k] - ref) <= 1e-29 * abs(ref), (x, a, k)


@pytest.mark.parametrize("x", _LERCH_X)
def test_lerch_kernel_lies_within_its_bound_of_the_tail(x):
    # each order s = 1/2..59/2 on its own, at a = 6/x' of the rule and at the
    # base range M0 = 65 of nu = 20, against the 30-digit tail; where a lies
    # below 6/x' the terms up to it join the reference in doubles, each within
    # 2 eps (2 pi x m + 4) of its size
    rule, base = math.ceil(6.0 / min(x, 1.0 - x)), se._plan(20, 1).base.brackets.size
    top = max(rule, base)
    refs = lerch_tail_oracle(x, top, se._ORDERS)
    for a in {rule, base}:
        ms = np.arange(a + 1.0, top + 1.0)
        angle = 2.0 * pi * np.fmod(x * ms, 1.0)
        for k, ref in enumerate(refs):
            size = ms ** -(k + 0.5)
            near = mp.mpc(math.fsum((np.cos(angle) * size).tolist()),
                          math.fsum((np.sin(angle) * size).tolist()))
            allowance = 2.0 * se._EPS * float(((2.0 * pi * x * ms + 4.0) * size).sum())
            re, im, remainder, rounding = se._lerch_sum(x, a, se._lerch_rows([1.0], k, a), 1)
            err = abs(mp.mpc(re, im) - (ref + near))
            assert err <= remainder + rounding + allowance, (a, k, float(err), remainder, rounding)


# ---------------------------------------------------------------------------
# g-series
# ---------------------------------------------------------------------------

# g(y, r, x) of the paper's sums is f(A) = w^{2r}/rho at c = 2 and A = y + 1 + x,
# so its gap A - c is y - 1 + x


def test_g_term_dominant_closed_form():
    # single-term identity at y = 1
    for n in (1, 2, 5):
        for x in (0.2, 0.5, 0.9):
            lhs = se._f(x, float(n), 2.0)[0]
            rhs = 2.0 ** (4 * n) / (
                (2.0 + x + sqrt(x * (x + 4.0))) ** (2 * n) * sqrt(x * (x + 4.0))
            )
            assert abs(lhs - rhs) < 1e-14 * rhs


def test_g_term_positive_and_domain():
    assert se._f(3.0 - 1.0 + 0.1, 0.5, 2.0)[0] > 0.0
    with pytest.raises(ValueError):
        se._f(1.0 - 1.0 - 0.5, 1.0, 2.0)  # (y-1+x) < 0


def test_g_term_large_y_extended_precision():
    # f(A) = w^{2r}/rho is formed from the gap A - c, so nothing cancels in
    # w = A - rho even at A = 1e6 + 3/2
    with mp.workdps(60):
        a, c = mp.mpf(10) ** 6 + mp.mpf("1.5"), mp.mpf(2)
        root = mp.sqrt(a * a - c * c)
        ref = float((a - root) ** 2 / root)
    got = se._f(1e6 - 0.5, 1.0, 2.0)[0]
    assert abs(got - ref) < 1e-12 * ref


def test_g_tail_sum_accelerated_vs_plain():
    for (r, x) in [(1.5, 0.3), (2.0, 0.8), (1.0, 1.0)]:
        fast = se.g_tail_sum(r, x)
        plain = g_sum_plain_oracle(r, x, tol=1e-11, max_terms=10**6)
        assert abs(fast.value - plain) < 2e-11


def test_g_tail_sum_vs_extended_precision():
    for (r, x) in [(0.5, 0.1), (0.5, 0.9), (1.5, 0.5)]:
        ref = g_sum_nsum_oracle(r, x, dps=40)
        got = se.g_tail_sum(r, x).value
        assert abs(got - ref) < 5e-12, (r, x)


@pytest.mark.parametrize("x", (0.01, 1e-4, 1e-6))
@pytest.mark.parametrize("r", (1.0, 8.5))
def test_g_tail_sum_keeps_small_x_digits(r, x):
    # A^2 - 4 is formed as (m-1+x)(m+3+x), so x is not rounded inside 2 + x
    ref = g_sum_nsum_oracle(r, x, dps=40)
    res = se.g_tail_sum(r, x)
    assert abs(res.value - ref) <= 1e-14 * abs(ref)
    assert abs(res.value - ref) <= res.tail_bound


def test_g_tail_sum_stability_under_prefix_doubling():
    # a tighter tolerance doubles the prefix; the two values agree within the looser one
    a = se.conjugate_power_sum(2.5, 1.0, 4.0, tol=1e-12)
    b = se.conjugate_power_sum(2.5, 1.0, 4.0, tol=1e-15)
    assert b.terms_used > a.terms_used
    assert abs(a.value - b.value) < 1e-12


def test_g_tail_sum_honours_tol():
    # the prefix never shrinks as tol shrinks, the reported bound covers the
    # error, and a tol that no prefix under the cap meets raises at the cap
    ref = g_sum_nsum_oracle(1.0, 0.3, dps=40)
    used = []
    for tol in (1e-6, 1e-9, 1e-12, 1e-15, 1e-30):
        res = se.g_tail_sum(1.0, 0.3, tol=tol)
        used.append(res.terms_used)
        assert abs(res.value - ref) <= min(res.tail_bound, tol + 1e-15), tol
    assert used == sorted(used) and used[0] < used[-1] < se.DEFAULT_MAX_TERMS
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.g_tail_sum(0.5, 0.3, tol=1e-300)
    assert err.value.best.terms_used == se.DEFAULT_MAX_TERMS


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.5, 130.0), gap=st.floats(1e-12, 2.0), c=st.sampled_from((2.0, 4.0)))
def test_conjugate_sum_lies_between_the_integral_and_one_term_more(r, gap, c):
    # f is positive and decreasing, so sum_{j>=0} f(a0 + j) lies in [I, I + f(a0)],
    # I = w(a0)^{2r}/(2r), both formed here from the gap at 40 digits
    with mp.workdps(40):
        rr, gg, cc = mp.mpf(r), mp.mpf(gap), mp.mpf(c)
        root = mp.sqrt(gg * (gg + 2 * cc))
        wp = (cc * cc / (cc + gg + root)) ** (2 * rr)
        first, integral = float(wp / root), float(wp / (2 * rr))
    summed = se._conjugate_sum(gap, r, c, tol=1e-6 * first)
    assert summed.terms_used > 0
    assert integral <= summed.value <= integral + first
    # once half the first term fits tol the prefix is empty, within its bound of the sum
    skipped = se._conjugate_sum(gap, r, c, tol=first)
    assert skipped.terms_used == 0
    assert abs(skipped.value - summed.value) <= skipped.tail_bound + summed.tail_bound


@settings(max_examples=100, deadline=None)
@given(r=st.floats(0.25, 130.0), gap=st.floats(1e-12, 60.0), c=st.sampled_from((2.0, 4.0)),
       log_tol=st.floats(-15.0, -6.0))
@example(r=112.0, gap=53.0, c=2.0, log_tol=-6.0)  # a sum of 7.7e-325, below the normal range
def test_conjugate_sum_lies_within_its_bound_of_the_extended_precision_sum(r, gap, c, log_tol):
    # the B_14 term bounds what Euler-Maclaurin through B_12 leaves out, and the
    # rounding term covers the terms, the integral and the corrections; starts
    # far past the pair table's disc run on the same recurrence
    res = se._conjugate_sum(gap, r, c, 10.0**log_tol)
    ref = conjugate_sum_oracle(r, gap, c)
    with mp.workdps(40):
        assert abs(mp.mpf(res.value) - ref) <= res.tail_bound, (res, ref)


@pytest.mark.parametrize("r, c, gap", ((0.25, 2.0, 1e-3), (0.5, 4.0, 0.5), (1.0, 2.0, 3.0),
                                       (7.5, 4.0, 0.01), (40.0, 2.0, 20.0), (130.0, 4.0, 1.0)))
def test_closed_form_derivatives_match_numerical_ones(r, c, gap):
    # the recurrence's a_k k! = f^(k)(A) for k <= 13, against mpmath's numerical
    # derivatives at 50 digits: within 1e-13 relative, and within the
    # (6r + 6 + 4k) units _EPS of its majorant b_k that the closure's bound takes
    a, b = se._taylor(r, c, gap, *se._f(gap, r, c)[:3], 13)
    with mp.workdps(50):
        rr, cc = mp.mpf(r), mp.mpf(c)

        def f(x):
            root = mp.sqrt(x * x - cc * cc)
            return (x - root) ** (2 * rr) / root

        numerical = mp.diffs(f, cc + mp.mpf(gap), 13)
        for k, (ak, bk, ref) in enumerate(zip(a, b, numerical)):
            error = abs(mp.mpf(ak) * mp.factorial(k) - ref)
            assert error <= 1e-13 * abs(ref), (k, ak, ref)
            assert error <= (6 * r + 6 + 4 * k) * se._EPS * bk * mp.factorial(k), (k, ak, bk, ref)


def test_g_tail_sum_rejects_small_exponent():
    with pytest.raises(ValueError):
        se.g_tail_sum(0.25, 0.5)


# ---------------------------------------------------------------------------
# g-sum pairs from the x-free table
# ---------------------------------------------------------------------------

_PAIR_R = (0.25, 0.5, 1.0, 1.25, 2.5, 4.0, 8.5, 30.0, 60.5)
_PAIR_X = (1e-12, 1e-3, 0.1, 1 / 3, 0.5, 0.62, 0.9, 0.999, 1 - 1e-9)


@pytest.mark.parametrize("r", _PAIR_R)
def test_g_pair_lies_within_its_bound_of_the_extended_precision_sums(r):
    # A(x) + sign A(1 - x) against two 40-digit sums, 1 - x formed at 40 digits;
    # a call either meets tol with an honest bound or raises below the table's floor
    for x in _PAIR_X:
        with mp.workdps(40):
            near, far = conjugate_sum_oracle(r, x, 2.0), conjugate_sum_oracle(r, 1 - mp.mpf(x), 2.0)
        for sign in (1.0, -1.0):
            with mp.workdps(40):
                ref = near + sign * far
            for tol in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17):
                try:
                    res = se._g_pair(x, sign, r, 2.0, tol)
                except se.SeriesConvergenceError as err:
                    assert tol < 1e-16, (r, x, sign, tol, err)
                    assert err.best.tail_bound > tol
                    continue
                with mp.workdps(40):
                    error = float(abs(mp.mpf(res.value) - ref))
                assert error <= res.tail_bound, (r, x, sign, tol, res, error)
                # past the truncation, which fits tol, the bound is the table's error and the rounding
                slack = se._g_table(r, 2.0)[3] + (6 * r + 40) * se._EPS * float(abs(near) + abs(far))
                assert not res.terms_used or res.tail_bound <= tol + slack, (r, x, sign, tol, res)


@pytest.mark.parametrize("r, c", ((0.25, 2.0), (1.5, 2.0), (8.5, 2.0), (2.0, 4.0)))
def test_g_table_matches_the_taylor_coefficients_of_the_tail(r, c):
    # D_k = sum_{j >= 2} f^(k)(c + 1/2 + j)/k! from 60-digit mpmath.taylor at each
    # point j < 40 and an Euler-Maclaurin closure at j = 40 through B_24
    even, odd, size, error, _ = se._g_table(r, c)
    coefs = [0.0] * (se._G_ORDERS + 1)
    coefs[::2], coefs[1::2] = even[::-1], odd[::-1]
    order, far, closing = se._G_ORDERS, 40, 12
    with mp.workdps(60):
        rr, cc, half = mp.mpf(r), mp.mpf(c), mp.mpf(1) / 2

        def f(a):
            root = mp.sqrt(a * a - cc * cc)
            return (a - root) ** (2 * rr) / root

        ref = [mp.mpf(0)] * (order + 1)
        for j in range(se._G_SPLIT, far):
            for k, a in enumerate(mp.taylor(f, cc + half + j, order)):
                ref[k] += a
        top = cc + half + far
        a = mp.taylor(f, top, order + 2 * closing)
        w = top - mp.sqrt(top * top - cc * cc)
        for k in range(order + 1):
            ref[k] += (w ** (2 * rr) / (2 * rr) if k == 0 else -a[k - 1] / k) + a[k] / 2
            ref[k] -= mp.fsum(mp.bernoulli(2 * i) / mp.factorial(2 * i) * a[k + 2 * i - 1]
                              * mp.factorial(k + 2 * i - 1) / mp.factorial(k) for i in range(1, closing + 1))
        head = mp.fsum(f(cc + half + j) for j in range(se._G_SPLIT))
        assert ref[0] + head <= size <= (ref[0] + head) * (1 + 1e-12)
        for k, (got, want) in enumerate(zip(coefs, ref)):
            assert (-1) ** k * want > 0 and abs(got - want) <= 1e-13 * abs(want), (k, got, want)
        assert 2 * mp.fsum(abs(got - want) / 2**k for k, (got, want) in enumerate(zip(coefs, ref))) <= error


@pytest.mark.parametrize("r", (0.5, 1.0, 2.5, 8.5, 30.0))
@pytest.mark.parametrize("x", (1e-6, 0.1, 0.37, 0.5, 0.8, 1 - 1e-6))
def test_g_pair_matches_the_two_public_g_sums(r, x):
    # the pair and g_tail_sum(r, x) +- g_tail_sum(r, 1 - x) agree within their summed bounds
    for sign in (1.0, -1.0):
        for tol in (1e-6, 1e-10, 1e-14):
            pair = se._g_pair(x, sign, r, 2.0, tol)
            near, far = se.g_tail_sum(r, x, tol), se.g_tail_sum(r, 1.0 - x, tol)
            assert abs(pair.value - (near.value + sign * far.value)) <= \
                pair.tail_bound + near.tail_bound + far.tail_bound, (r, x, sign, tol)


@pytest.mark.parametrize("c", (2.0, 4.0))
def test_g_one_lies_within_its_bound_of_the_extended_precision_sum(c):
    # A(1) from the pair's table at h = 1/2, kept in the table's entry, against a
    # 40-digit sum: the bound holds, and Lagrange's remainder |D_K| 2^-K is far
    # below the value
    for r in (1, 2, 5, 8, 9, 20, 31, 60, 100, 130):
        res = se._g_one(float(r), c)
        ref = conjugate_sum_oracle(float(r), 1.0, c)
        with mp.workdps(40):
            error = float(abs(mp.mpf(res.value) - ref))
        assert error <= res.tail_bound, (r, c, res, error)
        assert abs(se._g_table(float(r), c)[0][0]) * 0.5**se._G_ORDERS <= 3e-16 * res.value, (r, c)
        assert res.terms_used == se._G_SPLIT + se._G_ORDERS
        assert res is se._g_table(float(r), c)[4]


def test_g_pair_without_a_term_still_builds_its_table(monkeypatch):
    # at r = 1 and x = 0.4 half of each side's first term fits tol 1: the pair is
    # both sides' integral plus half their first term, bit for bit, and the table
    # it did not need is built all the same
    empty_caches(monkeypatch)
    for sign in (1.0, -1.0):
        res = se._g_pair(0.4, sign, 1.0, 2.0, 1.0)
        near, far = se._conjugate_sum(0.4, 1.0, 2.0, 1.0), se._conjugate_sum(1.0 - 0.4, 1.0, 2.0, 1.0)
        assert res.terms_used == near.terms_used == far.terms_used == 0
        assert res.value == near.value + sign * far.value
        assert res.tail_bound == near.tail_bound + far.tail_bound
    assert se._g_table.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# regularized bracket machinery
# ---------------------------------------------------------------------------

def test_bracket_asymptotic_matches_true_bracket():
    for nu in (1, 2, 3, 10, 16):
        n = nu // 2
        for m in (60.0, 200.0, 1500.0):
            if 4 * pi * m <= sf.asymptotic_crossover(nu):
                continue
            with mp.workdps(40):
                ref = float((-1) ** n * mp.pi * mp.bessely(nu, 4 * mp.pi * m)
                            + 1 / (2 * mp.sqrt(m)))
            got = float(se._bracket_values(nu, 1, int(m))[-1])
            assert abs(got - ref) < 1e-13, (nu, m)


@pytest.mark.parametrize("nu", (16, 200))
def test_lattice_brackets_vs_oracle(nu):
    # upward recurrence from exact-phase Y_0, Y_1 over the explicit range
    # (scipy's yn is off by ~5e-14 at nu = 16 and ~1e-12 at nu = 200 here)
    brackets = se._plan(nu, 1).base.brackets
    for m in (1, 2, 3, 4, 11, brackets.size // 3, brackets.size):
        with mp.workdps(40):
            ref = float((-1) ** (nu // 2) * mp.pi * mp.bessely(nu, 4 * mp.pi * m)
                        + 1 / (2 * mp.sqrt(m)))
        assert abs(brackets[m - 1] - ref) < 5e-14 * max(abs(ref), 0.5 / sqrt(m)), m


def test_bracket_decay_bound():
    # |bracket(m)| <= K m^{-3/2} with K stable under doubling of the range
    for nu in (2, 4, 6):
        ms1 = np.arange(1, 5001, dtype=float)
        ms2 = np.arange(1, 10001, dtype=float)
        b1 = se._bracket_values(nu, 1, ms1.size)
        b2 = se._bracket_values(nu, 1, ms2.size)
        k1 = float(np.max(np.abs(b1) * ms1**1.5))
        k2 = float(np.max(np.abs(b2) * ms2**1.5))
        assert k2 <= k1 * 1.01, nu


def test_cos_series_doubling_stability():
    # the default sum against the reference over twice the base range
    tol = 1e-9
    res = se.bessel_cos_series(2, 0.3, tol=tol)
    wide = uncached_bracket_sum(4, 0.3, m_terms=2 * se._plan(4, 1).base.brackets.size)[0]
    doubled = wide - 0.5 * se.periodic_zeta(0.3, 0)[0][0]
    assert abs(res.value - doubled) < 2 * tol


def test_cos_series_symmetric_in_x():
    a = se.bessel_cos_series(1, 0.3)
    b = se.bessel_cos_series(1, 0.7)
    assert abs(a.value - b.value) < 1e-10


def test_sin_series_antisymmetric_in_x():
    a = se.bessel_sin_series(1, 0.25)
    b = se.bessel_sin_series(1, 0.75)
    assert abs(a.value + b.value) < 1e-10


def test_sin_series_exact_zero_at_half():
    res = se.bessel_sin_series(3, 0.5)
    assert res.value == 0.0
    assert res.tail_bound == 0.0


def test_cos_series_vs_cesaro_oracle():
    # (C,1) mean of 10^6 plain partial sums, independent of the engine
    n, x = 1, 0.5
    ms = np.arange(1, 10**6 + 1, dtype=float)
    terms = -pi * sp_special.yn(2, 4 * pi * ms) * np.cos(2 * pi * ms * x)
    cesaro = float(np.mean(np.cumsum(terms)[-10**4:]))
    accel = se.bessel_cos_series(n, x).value
    assert abs(accel - cesaro) < 1e-6


def test_sin_series_vs_cesaro_oracle():
    n, x = 1, 0.25
    ms = np.arange(1, 10**6 + 1, dtype=float)
    terms = -pi * sp_special.yn(3, 4 * pi * ms) * np.sin(2 * pi * ms * x)
    cesaro = float(np.mean(np.cumsum(terms)[-10**4:]))
    accel = se.bessel_sin_series(n, x).value
    assert abs(accel - cesaro) < 1e-6


def test_acceleration_consistency_across_budgets():
    # the default sum vs the reference over 4x the base range: values overlap
    # within the combined reported tail bounds (plus rounding slack)
    rng = np.random.default_rng(20140401)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = float(rng.uniform(0.05, 0.95))
        base = se.regularized_bracket_sum(2 * n, x, tol=1e-8)
        wide, wide_bound, _, _ = uncached_bracket_sum(2 * n, x,
                                                      m_terms=4 * se._plan(2 * n, 1).base.brackets.size)
        allowed = base.tail_bound + wide_bound + 1e-12
        assert abs(base.value - wide) <= allowed, (n, x)


def _default_or_best(nu, x, lattice):
    try:
        return se.regularized_bracket_sum(nu, x, lattice=lattice)
    except se.SeriesConvergenceError as err:
        return err.best


@pytest.mark.parametrize("lattice", (1, 2))
def test_bracket_sum_bounds_are_honest(lattice):
    # the default evaluation (or the result it gave up on) and the reference
    # over 4x the base range differ by no more than their two reported bounds
    for nu in range(1, 41):
        wide_range = 4 * se._plan(nu, lattice).base.brackets.size
        for x in (0.0, 0.01, 1.0 / 3.0, 0.5, 0.99):
            base = _default_or_best(nu, x, lattice)
            wide, wide_bound, _, _ = uncached_bracket_sum(nu, x, lattice=lattice, m_terms=wide_range)
            assert abs(base.value - wide) <= base.tail_bound + wide_bound, (nu, x)


def test_closed_tails_keep_the_explicit_range_at_the_crossover():
    # every order past M is closed, so a tight tolerance costs orders, not terms
    res = se.regularized_bracket_sum(4, 1.0 / 3.0, tol=1e-12)
    assert res.terms_used <= 64
    assert res.tail_bound <= 1e-12
    # a loose one may cut the top of the base range M0: terms_used <= M0, and
    # it is M0 unless the |row| sum past some j = 2^i fits the cut's budget,
    # min(tol - bound, 1e-4 tol), when it is the smallest such j
    plan, used = se._plan(40, 1), []
    base = plan.base.brackets.size
    assert base == 256
    for tol in (1e-6 * 1e15, 1e-9 * 1e15, 1e-12 * 1e15):
        res = se.regularized_bracket_sum(40, 0.3, tol=tol)
        full_value, full_bound, full_terms, _ = uncached_bracket_sum(40, 0.3, tol=tol, top_cut=False)
        assert full_terms == base and full_bound <= tol
        orders = next(k for k, envelope in enumerate(plan.envelopes.tolist(), 1) if envelope <= tol)
        stairs = se._residual(40, 1, orders).stairs
        fits = [i for i, stair in enumerate(stairs) if stair <= 1e-4 * tol and full_bound + stair <= tol]
        assert res.terms_used == (1 << fits[0] if fits else base) <= base
        assert res.tail_bound <= tol
        assert abs(res.value - full_value) <= res.tail_bound - full_bound + 2 * math.ulp(full_value)
        used.append(res.terms_used)
    assert used == [1, 2, base]


def test_series_convergence_error():
    # a tol below the rounding floor raises at the base range and names the
    # rounding, though the truncation term (1.8e-40 at nu = 4) breaks tol
    # 1e-60 as well: a longer explicit range only adds rounding
    base = se._plan(4, 1).base.brackets.size
    assert base == 8
    for tol in (1e-30, 1e-60):
        with pytest.raises(se.SeriesConvergenceError, match=rf"rounding bound .*M={base}\)") as err:
            se.regularized_bracket_sum(4, 0.3, tol=tol)
        assert err.value.best.terms_used == base
    # a bound that breaks tol with a rounding below it names the truncation term beside it
    with pytest.raises(se.SeriesConvergenceError,
                       match=r"bound \S+ \(truncation term \S+, rounding bound \S+\) exceeds"):
        se.regularized_bracket_sum(28, 0.3, tol=1e-8)


def test_raise_names_truncation_rounding_and_remainder_apart():
    # on the Lerch tail past the cap the Watson remainder breaks tol, and the message
    # names it as such beside a rounding below 1e-13; the three parts make the bound
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.regularized_bracket_sum(16, 1e-5, 1e-12)
    message = str(err.value)
    parts = re.fullmatch(r"regularized_bracket_sum: bound (\S+) \(truncation term (\S+), rounding bound "
                         r"(\S+), Lerch remainder (\S+) past a=20000\) exceeds tol 1\.00e-12 "
                         r"\(nu=16, M=42\)", message)
    assert parts, message
    bound, truncation, rounding, remainder = map(float, parts.groups())
    assert rounding < 1e-13 < 1e-2 < remainder
    assert bound == pytest.approx(truncation + rounding + remainder, rel=1e-2)


def test_lattice_sum_raises_with_the_lattice_result():
    # the bracket sum at nu = 16, x = 1e-5 misses tol 1e-12 on the Lerch
    # remainder at the cap; the error's best is the lattice sum it gave up on,
    # the regularizer subtracted, not the bracket sum, which lies 78 away
    loose = se.lattice_bessel_sum(16, 1e-5, 1e-9)
    with pytest.raises(se.SeriesConvergenceError, match=r"^regularized_bracket_sum: ") as err:
        se.lattice_bessel_sum(16, 1e-5, 1e-12)
    best = err.value.best
    assert best.tail_bound > 1e-12
    assert abs(best.value - loose.value) <= best.tail_bound + loose.tail_bound
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.regularized_bracket_sum(16, 1e-5, 1e-12)
    assert abs(err.value.best.value - best.value) > 10.0
    # the same through the public evaluator
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.bessel_cos_series(8, 1e-5, 1e-12)
    assert err.value.best == best


@pytest.mark.parametrize("x", (1e-5, 1e-12, 1e-200, 1.0 - 1e-12))
def test_lerch_tail_past_the_cap_raises_with_its_bound(x):
    # 6/x' passes DEFAULT_MAX_TERMS: the tail starts at the cap, where its
    # remainder breaks tol; it is closed all the same, with no overflow
    # warning, and carried as best with its bound
    with pytest.raises(se.SeriesConvergenceError, match="exceeds tol") as err:
        se.regularized_bracket_sum(16, x, 1e-12)
    best = err.value.best
    assert best.terms_used == se.DEFAULT_MAX_TERMS and not best.tail_bound <= 1e-12
    assert math.isfinite(best.value)


@pytest.mark.parametrize("x", (2.5e-4, 3e-4))
def test_lerch_tail_at_the_cap_passes_where_its_bound_fits(x):
    # 6/x' reaches or passes DEFAULT_MAX_TERMS, yet the tail at the cap still
    # meets tol: the bound alone decides, against the uncached reference
    got = se.regularized_bracket_sum(16, x, 1e-12)
    value, bound, used, raised = uncached_bracket_sum(16, x, 1e-12)
    assert (got.value, got.tail_bound, got.terms_used, raised) == (value, bound, used, False)
    assert got.terms_used == se.DEFAULT_MAX_TERMS and got.tail_bound <= 1e-12


def test_partial_sum_error_scaling():
    # plain truncation error shrinks like M^{-1/2}
    n, x = 1, 0.5
    full = se.bessel_cos_series(n, x, tol=1e-11).value
    err100 = abs(se.bessel_series_partial(2 * n, x, 100) - full)
    err10000 = abs(se.bessel_series_partial(2 * n, x, 10000) - full)
    assert err10000 < err100
    ratio = err100 / err10000
    assert 3.0 < ratio < 40.0  # ~sqrt(100) = 10 up to oscillation


def test_chunked_fsum_matches_fsum():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 8, size=10_000)
    assert se.chunked_fsum(arr) == math.fsum(arr.tolist())


def test_chunked_fsum_is_one_exact_sum_across_chunks():
    # summing per-chunk sums would round 1e16 + 1.0 in the first chunk
    # before -1e16 arrives in the second, and return 0.0
    values = np.array([1e16] + [0.0] * 4095 + [1.0, -1e16])
    assert se.chunked_fsum(values) == 1.0


@pytest.mark.parametrize("size", (4097, 3 * 4096 + 5, 40_000))
def test_chunked_fsum_matches_fsum_with_cancellation_across_chunks(size):
    rng = np.random.default_rng(size)
    arr = rng.standard_normal(size) * 10.0 ** rng.integers(-16, 16, size=size)
    arr = np.concatenate([arr, -arr[rng.permutation(size)[: size // 2]]])
    rng.shuffle(arr)
    assert se.chunked_fsum(arr) == math.fsum(arr.tolist())


_B = se._BLOCK
_FSUM_LENGTHS = (1, 2, 600, se._FSUM_CUTOFF, se._FSUM_CUTOFF + 1, 4097, _B - 1, _B, _B + 1,
                 3 * _B + 5)


def _fsum_or_error(fn, values):
    """fn(values) as ("value", repr) -- repr keeps the sign of zero and NaN --
    or ("raised", exception type, message)."""
    try:
        return "value", repr(fn(values))
    except (OverflowError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def _plain_fsum(values):
    return math.fsum(np.asarray(values, dtype=float).tolist())


@st.composite
def _fsum_arrays(draw):
    """Arrays of every shape the exact sum must round like math.fsum."""
    n = draw(st.sampled_from(_FSUM_LENGTHS))
    kind = draw(st.sampled_from(("wide", "cancel", "bracket", "tie", "subnormal", "zero",
                                 "scatter")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "wide":  # magnitudes 1e-300 .. 1e300
        arr = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, size=n)
    elif kind == "cancel":  # most terms cancel exactly, a far remainder decides
        half = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-16, 17, size=n // 2)
        arr = np.concatenate([half, -half, rng.standard_normal(n % 2) * 1e-30])
        rng.shuffle(arr)
    elif kind == "bracket":  # a 1e101 first term, then m^-1.5 decay near the zeros of cos
        m = np.arange(1.0, n + 1.0)
        x = draw(st.sampled_from((0.25, 0.75, 0.5))) + draw(st.floats(-1e-9, 1e-9))
        arr = m**-1.5 * np.cos(2.0 * pi * x * m)
        arr[0] = draw(st.sampled_from((1e101, -1e101, 1.0)))
    elif kind == "tie":  # 1 + 2^-53 is a half-ulp tie, broken by a far 2^-300 term or not
        arr = np.zeros(n)
        arr[rng.integers(n)] = draw(st.sampled_from((1.0, -1.0, 3.0, 2.0**60)))
        arr[rng.integers(n)] += draw(st.sampled_from((2.0**-53, -(2.0**-54), 2.0**7)))
        arr[rng.integers(n)] += draw(st.sampled_from((0.0, 2.0**-300, -(2.0**-300))))
    elif kind == "subnormal":
        arr = rng.integers(-(2**40), 2**40, size=n) * 5e-324
    elif kind == "zero":  # exact cancellation to zero, negative zeros included
        half = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-100, 101, size=n // 2)
        arr = np.concatenate([half, -half, np.full(n % 2, -0.0)])
        rng.shuffle(arr)
        if draw(st.booleans()):
            arr[:] = -0.0
    else:  # any finite floats hypothesis picks, over a background of zeros or noise
        picks = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                              max_size=8))
        arr = np.zeros(n) if draw(st.booleans()) else rng.standard_normal(n)
        arr[rng.integers(n, size=len(picks))] = picks
    return arr


@settings(max_examples=300, deadline=None)
@given(_fsum_arrays())
def test_chunked_fsum_is_bit_for_bit_math_fsum(arr):
    assert _fsum_or_error(se.chunked_fsum, arr) == _fsum_or_error(_plain_fsum, arr)


_TIES = [(1.0, 2.0**-53), (1.0, -(2.0**-54)), (3.0, 2.0**-52), (-1.0, -(2.0**-53)),
         (2.0**60, -(2.0**6))]


@pytest.mark.parametrize("far", (0.0, 2.0**-300, -(2.0**-300)))
@pytest.mark.parametrize("tie", _TIES)
@pytest.mark.parametrize("size", (3, 2000, _B + 1))
def test_chunked_fsum_rounds_half_ulp_ties_like_math_fsum(tie, far, size):
    # a tie (the gap below a power of two is half the gap above it) goes to
    # even unless a far term breaks it
    arr = np.zeros(size)
    arr[[0, size // 2, size - 1]] = (*tie, far)
    assert repr(se.chunked_fsum(arr)) == repr(_plain_fsum(arr))


@pytest.mark.parametrize("head, outcome", [
    ([1e308, 1e308, -1e308], ("raised", OverflowError)),
    ([1.7976931348623157e308, 1e292], ("raised", OverflowError)),
    ([np.inf, -np.inf], ("raised", ValueError)),
    ([np.nan, np.inf, -np.inf], ("raised", ValueError)),
    ([1.0, np.nan], ("value", "nan")),
    ([np.inf, 1.0], ("value", "inf")),
    ([-np.inf], ("value", "-inf")),
])
@pytest.mark.parametrize("size", (3, 5000))
def test_chunked_fsum_raises_and_propagates_like_math_fsum(head, outcome, size):
    arr = np.concatenate([head, np.ones(size - len(head))])
    want = _fsum_or_error(_plain_fsum, arr)
    assert want[:2] == outcome
    assert _fsum_or_error(se.chunked_fsum, arr) == want


def test_chunked_fsum_holds_no_full_size_temporary():
    # blocks of _BLOCK floats: the peak stays far below one 8 MB copy of the input
    m = np.arange(1.0, 1e6 + 1.0)
    bracket = m**-1.5 * np.cos(2.0 * pi * m / 3.0)
    bracket[0] = 1e101
    for arr in (bracket, np.random.default_rng(5).standard_normal(m.size)):
        se.chunked_fsum(arr[:5000])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            total = se.chunked_fsum(arr)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert total == math.fsum(arr.tolist())


# ---------------------------------------------------------------------------
# the x-free caches: bit-identical to the uncached sum, in any order, across
# threads, and bounded in what they keep
# ---------------------------------------------------------------------------

_GRID_NUS = tuple(range(1, 61)) + (120, 260)
_GRID_TOLS = (1e-6, 1e-9, 1e-12, 1e-14)
_CUT_NUS = (40, 60, 120, 260)


def _relative_tol(nu, lattice):
    """1e-12 of the first term's size, |pi Y_nu(4 pi lattice)|: where the top cut engages."""
    return 1e-12 * abs(pi * sf.bessel_Y_int(nu, 4.0 * pi * lattice))


def _grid_cases(nus):
    """(nu, x, tol, lattice) over the pinned grid, nu in the given order.

    At nu in _CUT_NUS a relative tol joins the grid, so sums trimmed by the
    top cut are pinned too."""
    rng = random.Random(20260418)
    xs = (0.0, 0.25, 0.5, 1.0 / 3.0, rng.random(), rng.random())
    for nu in nus:
        for lattice in (1, 2):
            tols = _GRID_TOLS + ((_relative_tol(nu, lattice),) if nu in _CUT_NUS else ())
            for x in xs:
                for tol in tols:
                    yield nu, x, tol, lattice


def _library_sum(nu, x, tol, lattice):
    try:
        res = se.regularized_bracket_sum(nu, x, tol=tol, lattice=lattice)
        raised = False
    except se.SeriesConvergenceError as err:
        res, raised = err.best, True
    return res.value, res.tail_bound, res.terms_used, raised


@pytest.fixture(scope="module")
def uncached_grid():
    return {case: uncached_bracket_sum(*case[:2], tol=case[2], lattice=case[3])
            for case in _grid_cases(_GRID_NUS)}


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty caches for one test; the module's own come back afterwards."""
    empty_caches(monkeypatch)


@pytest.mark.parametrize("order", ("ascending", "descending", "scrambled"))
def test_cached_bracket_sum_is_bit_identical_to_the_uncached_sum(order, uncached_grid, fresh_caches):
    # value, tail_bound, terms_used and the raise decision, whichever nu
    # grew the tables first
    nus = list(_GRID_NUS)
    if order == "descending":
        nus.reverse()
    elif order == "scrambled":
        random.Random(7).shuffle(nus)
    for case in _grid_cases(nus):
        assert _library_sum(*case) == uncached_grid[case], case


def test_grid_pins_trimmed_sums(uncached_grid):
    # the relative tols reach the top cut on both lattices
    trimmed = {(nu, lattice) for (nu, x, tol, lattice), (_, _, terms, raised)
               in uncached_grid.items()
               if not raised and terms < se._plan(nu, lattice).base.brackets.size}
    assert {(nu, lattice) for nu in (60, 120, 260) for lattice in (1, 2)} <= trimmed


@pytest.mark.parametrize("lattice", (1, 2))
@pytest.mark.parametrize("nu", _CUT_NUS)
def test_trimmed_sum_lies_within_its_added_bound_of_the_base_range_sum(nu, lattice):
    # the dropped terms m > j are at most the stair the bound adds; each of the
    # two correctly rounded sums rounds once more
    tol = _relative_tol(nu, lattice)
    for x in (0.1, 0.25, 1.0 / 3.0, 0.5, 0.62, 0.9):
        got = se.regularized_bracket_sum(nu, x, tol=tol, lattice=lattice)
        full, full_bound, full_terms, _ = uncached_bracket_sum(nu, x, tol=tol, lattice=lattice,
                                                               top_cut=False)
        # at x = 1/4 the sum runs on the doubled lattice, over that plan's base range
        base = se._plan(nu, 2 * lattice if x == 0.25 else lattice).base.brackets.size
        assert got.terms_used <= full_terms == base
        assert full_bound <= got.tail_bound <= tol, x
        assert abs(got.value - full) <= got.tail_bound - full_bound + 2 * math.ulp(full), x


def test_lattice_sum_is_bit_identical_to_the_uncached_sums(uncached_grid):
    # the regularizer's C_{1/2}, S_{1/2} come from the order-0 Wood polynomial
    for (nu, x, tol, lattice), (value, bound, terms, raised) in uncached_grid.items():
        if raised or nu > 24 or (nu % 2 and x in (0.0, 0.5)):
            continue
        half = uncached_periodic_zeta(x, 0)[nu % 2][0]
        got = se.lattice_bessel_sum(nu, x, tol=tol, lattice=lattice)
        assert got.value == value - 0.5 * lattice**-0.5 * float(half), (nu, x, tol, lattice)
        assert got.terms_used == terms


@pytest.mark.parametrize("nu", (4, 5))
def test_regularizer_allowance_covers_its_error(nu):
    # T = C_{1/2}(x), or S_{1/2}(x) for odd nu, and its rounding grow like
    # (2 pi x')^{-1/2} towards either end: the allowance _ZETA_EPS max(1, |T|)
    # covers the error against the 40-digit polylogarithm there (a flat
    # _ZETA_EPS fails from x' = 1e-3 on), and the lattice sum adds exactly it
    ends = (1e-8, 1e-5, 1e-3)
    for x in (*ends, *(1.0 - e for e in ends), *map(float, X_GRID)):
        for lattice in (1, 2):
            closed, rounding = se._regularizer_sum(nu, x, lattice)
            true = 0.5 * lattice**-0.5 * polylog_trig_oracle(0.5, x)[nu % 2]
            assert abs(closed - true) <= rounding, (x, lattice, abs(closed - true) / rounding)
            if nu % 2 and x == 0.5:
                continue  # the lattice sum is exactly 0 there
            reg = se.regularized_bracket_sum(nu, x, 1e-6, lattice=lattice)
            got = se.lattice_bessel_sum(nu, x, 1e-6, lattice=lattice)
            assert (got.value, got.tail_bound) == (reg.value - closed, reg.tail_bound + rounding), x


def test_zeta_tails_within_two_ulp(fresh_caches):
    # the closed tails zeta(s, M + 1), s = 3/2..59/2, at the base range M0 of
    # every even-nu plan (nu <= 260, lattices 1 and 2), at both sides of the
    # Euler-Maclaurin start 48 and at 100,000, far past every base range
    bases = {max(math.ceil(sf.asymptotic_crossover(nu) / (4 * pi * lattice)) + 1, 8)
             for nu in range(2, 261, 2) for lattice in (1, 2)}
    ms = sorted(bases | {1, 46, 47, 48, 100_000})

    def tails(m):
        return [sf.hurwitz_zeta(k + 0.5, m + 1.0) for k in range(1, se._ORDERS)]

    for m in ms:
        for k, (got, ref) in enumerate(zip(tails(m), hurwitz_zeta_oracle(29, m + 1)), 1):
            assert abs(mp.mpf(got) - ref) <= 2 * math.ulp(float(ref)), (m, k)
    # a spread of them against mpmath.zeta itself, which at an integer m + 1
    # subtracts from zeta(s) and loses about (s - 1) log10(m + 1) digits: at 40
    # digits it reports false 1e-10 errors from m = 100 on
    for m in (min(bases), 47, 48, sorted(bases)[len(bases) // 2], max(bases)):
        got = tails(m)
        with mp.workdps(150):
            for k in (1, 8, 15, 22, 29):
                ref = mp.zeta(k + mp.mpf(1) / 2, m + 1)
                assert abs(mp.mpf(got[k - 1]) - ref) <= 2 * math.ulp(float(ref)), (m, k)


@pytest.mark.parametrize("k_max", (0, 1, 5, 29, 30))
def test_periodic_zeta_entries_do_not_depend_on_k_max(k_max):
    rng = random.Random(k_max)
    for x in (0.0, 0.25, 0.5, 0.75, 1.0 / 3.0, *(rng.random() for _ in range(200))):
        c, s = se.periodic_zeta(x, k_max)
        ref_c, ref_s = uncached_periodic_zeta(x, k_max)
        assert np.array_equal(c, ref_c) and np.array_equal(s, ref_s), x


def test_cached_bracket_sum_under_threads(uncached_grid, monkeypatch):
    # ten threads fill and read the same caches at a tiny switch interval;
    # every value stays exact
    cases = [case for case in uncached_grid if case[0] <= 24 or case[0] == 120]
    # each thread climbs in nu, so the caches fill while the others read them
    samples = [sorted(random.Random(seed).sample(cases, 200), key=lambda case: case[0])
               for seed in range(10)]
    mismatches, errors = [], []

    def worker(sample):
        try:
            for case in sample:
                if _library_sum(*case) != uncached_grid[case]:
                    mismatches.append(case)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    empty_caches(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(sample,)) for sample in samples]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not mismatches, (errors, mismatches[:5])


@pytest.mark.parametrize("nu, lattice", ((4, 1), (16, 2), (40, 1), (121, 1), (260, 2)))
def test_far_brackets_match_a_python_float_recomputation(nu, lattice):
    # past the crossover a plan's brackets take only quotients, sums, one
    # square root and products, each correctly rounded under every SIMD
    # kernel, so they are bit for bit what Python's own floats give
    plan = se._plan(nu, lattice)
    b = plan.b.tolist()
    top = sf._hankel_top(plan.b, 1, float(lattice * (plan.near + 1)))
    for m in range(plan.near + 1, plan.base.brackets.size + 1):
        q = float(lattice * m)
        total = b[top]
        for k in range(top - 1, 0, -1):
            total = total / q + b[k]
        assert plan.base.brackets[m - 1] == total / (math.sqrt(q) * q), (nu, lattice, m)
    # the orders summed there and the envelopes at M0 take Python's powers, so K and
    # the bounds are the same on every host too
    sizes = [abs(bk) * float(lattice * (plan.near + 1)) ** -k for k, bk in enumerate(b[1:], 1)]
    assert top == max(k for k, size in enumerate(sizes, 1) if size >= 1e-17 * max(sizes)), (nu, lattice)
    assert plan.top == top, (nu, lattice)
    m, qm = plan.base.brackets.size, float(lattice * plan.base.brackets.size)
    assert plan.envelopes.tolist() == [abs(bk) * qm ** -(k + 1.5) * m / (k + 0.5)
                                       for k, bk in enumerate(b[2:], 1)], (nu, lattice)


def test_trig_rows_match_python_floats():
    # the phases of every explicit range M0 (nu = 1..121, lattices 1 and 2) at
    # X_GRID and at 200 seeded p/q with q <= 64: numpy's cos and sin rows are
    # bit for bit math.cos and math.sin of the same arguments, 2 pi x m
    lengths = sorted({se._plan(nu, lattice).base.brackets.size for nu in range(1, 122) for lattice in (1, 2)})
    rng = random.Random(20)
    points = [float(x) for x in X_GRID]
    while len(points) < len(X_GRID) + 200:
        q = rng.randint(2, 64)
        points.append(rng.randint(1, q - 1) / q)
    for x in points:
        phases = [2.0 * pi * x * m for m in range(1, lengths[-1] + 1)]
        for even_nu, trig in ((True, math.cos), (False, math.sin)):
            want = np.array([trig(phase) for phase in phases]).view(np.int64)
            for m0 in lengths:
                got = se._trig(even_nu, x, se._INDEX[:m0]).view(np.int64)
                assert np.array_equal(got, want[:m0]), (x, even_nu, m0, int(np.argmax(got != want[:m0])))


def test_kept_tables_stay_small(fresh_caches):
    # the residual rows span the base range M0, one per (nu, lattice, K) of a
    # closed-path sum, each as long as the plan's brackets and with no copy of the lattice
    # points; a sum at x = 0 keeps its bracket and lattice results; a Lerch
    # tail keeps its x-free part per start a, at most DEFAULT_MAX_TERMS brackets
    cap = se.DEFAULT_MAX_TERMS
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for nu in range(1, 122):
            for lattice in (1, 2):
                for x in (0.0, 1.0 / 3.0):
                    try:
                        se.lattice_bessel_sum(nu, x, tol=1e-12, lattice=lattice)
                    except se.SeriesConvergenceError:
                        pass
        with pytest.raises(se.SeriesConvergenceError):  # 6/x' passes the cap
            se.lattice_bessel_sum(16, 1e-5, tol=1e-12)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    brackets = sum(se._plan(nu, lattice).base.brackets.nbytes for nu in range(1, 122) for lattice in (1, 2))
    # each sum at x = 1/3 keeps a residual row, or on the Lerch tail a Lerch entry, never
    # both, and the one at x = 1e-5 a Lerch entry
    kept = se._residual.cache_info().currsize
    assert kept + se._watson.cache_info().misses == 2 * 121 + 1
    assert se._zero_sum.cache_info().currsize == 60 * 2
    bracket, lattice_sum = se._zero_sum(4, 2)
    assert bracket is se.regularized_bracket_sum(4, 0.0, 1.0, lattice=2)
    assert lattice_sum is se.lattice_bessel_sum(4, 0.0, 1.0, lattice=2)
    hits = se._watson.cache_info().hits
    assert se._watson(16, 1, cap)[0].brackets.size == cap and se._watson.cache_info().hits == hits + 1
    # the plans' brackets, a row per kept residual, the Lerch tails and the constants
    assert 2 * brackets < held < 3.5 * brackets, (held, brackets)
    # the plan holds the base range M0 only, and every cache is bounded
    for nu, lattice in ((4, 1), (4, 2), (121, 1), (121, 2)):
        base = max(math.ceil(sf.asymptotic_crossover(nu) / (4 * pi * lattice)) + 1, 8)
        assert se._plan(nu, lattice).base.brackets.size == base, (nu, lattice)
    for module, name in CACHES:
        assert getattr(importlib.import_module(f"zagier_kit.{module}"), name).cache_info().maxsize \
            is not None, name


def test_lerch_tails_of_one_band_share_one_entry(fresh_caches):
    # at nu = 16 (M0 = 42) the starts double: ceil(6/x') = 6,000 and 5,455 both
    # take a = 42 * 2^8 = 10,752, at x and 1 - x alike, and one x-free entry;
    # 3,000 takes 5,376 and a second; each sum is the uncached one bit for bit
    band, other = (1e-3, 1.1e-3, 1.0 - 1e-3), 2e-3
    for x in band:
        got = se.regularized_bracket_sum(16, x, 1e-12)
        assert (got.value, got.tail_bound, got.terms_used, False) == uncached_bracket_sum(16, x, 1e-12)
        assert got.terms_used == 42 * 2**8
    info = se._watson.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(band) - 1, 1)
    assert se.regularized_bracket_sum(16, other, 1e-12).terms_used == 42 * 2**7
    assert se._watson.cache_info().currsize == 2


def test_lerch_path_builds_no_residual_row(fresh_caches):
    # the closed-versus-Lerch choice reads the plan's rows alone: a sum that
    # takes the Lerch tail past a = 376 keeps its Lerch entry and no residual row
    res = se.regularized_bracket_sum(17, 61 / 62, 1e-12)
    assert res.terms_used == 376 and res.tail_bound <= 1e-12
    assert se._watson.cache_info().currsize == 1
    assert se._residual.cache_info().currsize == 0


@pytest.mark.parametrize("nu", (14, 40))
def test_brackets_past_the_base_range_reuse_the_plans_top_order(nu, fresh_caches, monkeypatch):
    # once the plan is built, a Lerch entry past M0 and the brackets through 2 M0
    # take the Hankel top order the plan picked at the crossover, and pick none afresh
    base = se._plan(nu, 1).base.brackets.size
    calls, top = [], sf._hankel_top

    def counted(*args):
        calls.append(args)
        return top(*args)

    monkeypatch.setattr(sf, "_hankel_top", counted)
    monkeypatch.setattr(se, "_hankel_top", counted)
    rng, _ = se._watson(nu, 1, 2 * base)
    brackets = se._bracket_values(nu, 1, 2 * base)
    assert calls == []
    assert rng.brackets.size == 2 * base and np.array_equal(brackets, rng.brackets)


def test_cached_sum_at_zero_is_the_same_for_any_tol(monkeypatch):
    # at x = 0 every order is closed to the smallest envelope whatever tol,
    # so the cached (value, bound) is shared by every tol and is what a
    # fresh cache gives
    for nu, lattice in ((4, 1), (16, 2), (40, 1), (120, 1)):
        seen = {_library_sum(nu, 0.0, tol, lattice)[:3] for tol in (1e-3, 1e-9, 1e-14, 1e-30)}
        assert len(seen) == 1, (nu, lattice, seen)
        empty_caches(monkeypatch)
        assert _library_sum(nu, 0.0, 1e-9, lattice)[:3] in seen
        assert se._zero_sum.cache_info().currsize == 1


@pytest.mark.parametrize("fn", (se.regularized_bracket_sum, se.lattice_bessel_sum))
@pytest.mark.parametrize("kwargs", (
    {"lattice": 0}, {"lattice": -1}, {"lattice": 1.25}, {"lattice": 2.0},
    {"nu": 0}, {"nu": -2}, {"nu": 4.0}, {"nu": True}, {"nu": np.int64(-3)}, {"lattice": True},
    {"lattice": np.int64(0)},
))
def test_lattice_sums_reject_bad_arguments(fn, kwargs):
    args = {"nu": 4, "x": 0.3, **kwargs}
    with pytest.raises(ValueError, match="nu|lattice"):
        fn(**args)


@pytest.mark.parametrize("m_terms", (0, -5, 2.5, 3.0, True))
def test_partial_sum_rejects_bad_m_terms(m_terms):
    with pytest.raises(ValueError, match="m_terms must be an integer >= 1"):
        se.bessel_series_partial(4, 0.3, m_terms)


def test_lattice_bessel_sum_checks_arguments_before_exact_zeros():
    # odd nu at x = 0 and 1/2 returns 0 without summing; the arguments are checked first
    assert se.lattice_bessel_sum(3, 0.5).value == 0.0
    for kwargs in ({"lattice": 0}, {"lattice": True}):
        with pytest.raises(ValueError):
            se.lattice_bessel_sum(3, 0.5, **kwargs)


def test_brackets_past_the_double_range_raise_at_once():
    # the first, largest bracket is checked on its own, before the ~nu^2 others
    se._plan(260, 1)
    for nu, lattice in ((261, 1), (400, 2), (10**4, 1)):
        with pytest.raises(ValueError, match=rf"Y_{nu}\({4 * lattice} pi\) exceeds the double range"):
            se.regularized_bracket_sum(nu, 0.3, lattice=lattice)


def test_nan_bound_raises(monkeypatch):
    # a NaN tolerance or a NaN bound cannot meet the tolerance
    with pytest.raises(se.SeriesConvergenceError):
        se.regularized_bracket_sum(4, 0.3, tol=float("nan"))
    # fresh caches, so the plan is rebuilt with the NaN envelopes
    empty_caches(monkeypatch)
    monkeypatch.setattr(se, "_envelopes", lambda b, lattice, m: np.full(se._ORDERS - 1, np.nan))
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.regularized_bracket_sum(4, 0.3)
    assert math.isnan(err.value.best.tail_bound)


def test_bisected_closed_orders_match_the_linear_scan(monkeypatch):
    # K, the first order whose envelope is within tol (else the smallest
    # envelope's), comes from a bisection of the plan's prefix minima; it is
    # the order of the first envelope <= tol, found by scanning them, at tol
    # on each envelope, one float either side of it, on a log grid a decade
    # past them both ways, and at 0, inf and nan; a closed-path sum then builds
    # the residual row of that K, and a Lerch-path sum none
    seen = []
    residual, bisect_right = se._residual, bisect.bisect_right

    def recorded(nu, lattice, orders):
        seen.append(orders)
        return residual(nu, lattice, orders)

    def bisected(minima, key):
        found = bisect_right(minima, key)
        seen.append(min(found + 1, len(minima)))
        return found

    monkeypatch.setattr(se, "_residual", recorded)
    monkeypatch.setattr(se, "bisect", types.SimpleNamespace(bisect_right=bisected))
    for nu in range(1, 122):
        for lattice in (1, 2):
            plan = se._plan(nu, lattice)
            envelopes = plan.envelopes.tolist()
            lo, hi = (4 * math.floor(math.log10(f(envelopes))) for f in (min, max))
            tols = [10.0 ** (k / 4) for k in range(lo - 4, hi + 9, 2)] + [0.0, math.inf, math.nan]
            tols += [t for e in envelopes for t in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
            for tol in tols:
                seen.clear()
                try:
                    se.regularized_bracket_sum(nu, 1.0 / 3.0, tol, lattice=lattice)
                except se.SeriesConvergenceError:
                    pass
                scan = next((k for k, e in enumerate(envelopes, 1) if e <= tol), 0) or plan.base.orders
                assert seen in ([scan], [scan, scan]), (nu, lattice, tol)
