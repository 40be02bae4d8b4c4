"""Series engine: trig power sums against the polylogarithm, g-series
against extended precision, bracket decay, and the acceleration contracts."""

from __future__ import annotations

import math
from math import pi, sqrt

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp_special

from zagier_kit import series_engine as se
from zagier_kit import specfun as sf

from conftest import g_sum_nsum_oracle, g_sum_plain_oracle, polylog_trig_oracle


# ---------------------------------------------------------------------------
# trig power sums
# ---------------------------------------------------------------------------

def test_half_power_split_sums_to_hurwitz():
    for x in (0.1, 0.3, 0.5, 0.77):
        tps = se.trig_power_sums(x)
        assert abs(tps.cos_sum_half + tps.sin_sum_half
                   - sf.hurwitz_zeta_half(x).value) < 1e-10


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
        zx = sf.hurwitz_zeta_half(x + 1.0).value + x ** -0.5
        z1x = sf.hurwitz_zeta_half(1.0 - x).value
        assert abs(tps.cos_sum_half - 0.5 * (zx + z1x)) < 1e-10


@pytest.mark.parametrize("k", range(21))
def test_periodic_zeta_vs_polylog(k):
    # one closed form for every half-integer s = k + 1/2
    for x in (0.01, 0.1, 0.37, 0.5, 0.8, 0.99):
        c, sn = polylog_trig_oracle(k + 0.5, x)
        got_c, got_s = se.periodic_zeta(x, k)
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


def test_trig_sums_domain():
    with pytest.raises(ValueError):
        se.trig_power_sums(0.0)
    with pytest.raises(ValueError):
        se.trig_power_sums(1.0)


# ---------------------------------------------------------------------------
# g-series
# ---------------------------------------------------------------------------

def test_g_term_dominant_closed_form():
    # single-term identity at y = 1
    for n in (1, 2, 5):
        for x in (0.2, 0.5, 0.9):
            lhs = se.g_term(1.0, n, x)
            rhs = 2.0 ** (4 * n) / (
                (2.0 + x + sqrt(x * (x + 4.0))) ** (2 * n) * sqrt(x * (x + 4.0))
            )
            assert abs(lhs - rhs) < 1e-14 * rhs


def test_g_term_positive_and_domain():
    assert se.g_term(3.0, 0.5, 0.1) > 0.0
    with pytest.raises(ValueError):
        se.g_term(1.0, 1.0, -0.5)  # (y-1+x) < 0


def test_g_term_large_y_extended_precision():
    with mp.workdps(60):
        y, r, x = mp.mpf(10) ** 6, 1, mp.mpf("0.5")
        naive = (y + 1 + x - mp.sqrt((y - 1 + x) * (y + 3 + x))) ** (2 * r) / mp.sqrt(
            (y - 1 + x) * (y + 3 + x)
        )
        ref = float(naive)
    got = se.g_term(1e6, 1.0, 0.5)
    assert abs(got - ref) < 1e-12 * ref


def test_g_tail_sum_accelerated_vs_plain():
    for (r, x) in [(1.5, 0.3), (2.0, 0.8), (1.0, 1.0)]:
        fast = se.g_tail_sum(r, x)
        plain = g_sum_plain_oracle(r, x, tol=1e-11, max_terms=10**6)
        assert abs(fast.value - plain) < 2e-11
        assert fast.accelerated


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
    a = se.conjugate_power_sum(2.5, 1.0, 4.0, prefix=400).value
    b = se.conjugate_power_sum(2.5, 1.0, 4.0, prefix=800).value
    assert abs(a - b) < 1e-12


def test_g_tail_sum_honours_tol():
    # the prefix grows as tol shrinks, and the reported bound covers the error
    ref = g_sum_nsum_oracle(1.0, 0.3, dps=40)
    used = []
    for tol in (1e-6, 1e-9, 1e-12, 1e-15):
        res = se.g_tail_sum(1.0, 0.3, tol=tol)
        used.append(res.terms_used)
        assert abs(res.value - ref) <= min(res.tail_bound, tol + 1e-15), tol
    assert used == sorted(used) and used[0] < 400 < used[-1]
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.g_tail_sum(0.5, 0.3, tol=1e-30, max_terms=64)
    assert err.value.best.terms_used == 64


def test_g_tail_sum_rejects_small_exponent():
    with pytest.raises(ValueError):
        se.g_tail_sum(0.25, 0.5)


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
            got = float(se._bracket_asymptotic(nu, np.array([m]))[0])
            assert abs(got - ref) < 1e-13, (nu, m)


@pytest.mark.parametrize("nu", (16, 200))
def test_lattice_brackets_vs_oracle(nu):
    # upward recurrence from exact-phase Y_0, Y_1 over the explicit range
    # (scipy's yn is off by ~5e-14 at nu = 16 and ~1e-12 at nu = 200 here)
    brackets = se._lattice_brackets(nu, 1)
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
    tol = 1e-9
    res = se.bessel_cos_series(2, 0.3, tol=tol)
    forced = se.regularized_bracket_sum(4, 0.3, m_terms=2 * res.terms_used)
    doubled = forced.value - 0.5 * se.periodic_zeta(0.3, 0)[0][0]
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
    # default budget vs a 4x explicit budget: values overlap within the
    # combined reported tail bounds (plus rounding slack)
    rng = np.random.default_rng(20140401)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = float(rng.uniform(0.05, 0.95))
        base = se.regularized_bracket_sum(2 * n, x, tol=1e-8)
        wide = se.regularized_bracket_sum(2 * n, x, m_terms=4 * base.terms_used)
        allowed = base.tail_bound + wide.tail_bound + 1e-12
        assert abs(base.value - wide.value) <= allowed, (n, x)


def _default_or_best(nu, x, lattice):
    try:
        return se.regularized_bracket_sum(nu, x, lattice=lattice)
    except se.SeriesConvergenceError as err:
        return err.best


@pytest.mark.parametrize("lattice", (1, 2))
def test_bracket_sum_bounds_are_honest(lattice):
    # the default evaluation (or the result it gave up on) and one over a
    # 4x explicit range differ by no more than their two reported bounds
    for nu in range(1, 41):
        for x in (0.0, 0.01, 1.0 / 3.0, 0.5, 0.99):
            base = _default_or_best(nu, x, lattice)
            wide = se.regularized_bracket_sum(nu, x, lattice=lattice,
                                              m_terms=4 * max(base.terms_used, 1))
            assert abs(base.value - wide.value) <= base.tail_bound + wide.tail_bound, (nu, x)


def test_closed_tails_keep_the_explicit_range_at_the_crossover():
    # every order past M is closed, so a tight tolerance costs orders, not terms
    res = se.regularized_bracket_sum(4, 1.0 / 3.0, tol=1e-12)
    assert res.terms_used <= 64
    assert res.tail_bound <= 1e-12
    for tol in (1e-6, 1e-9, 1e-12):
        assert se.regularized_bracket_sum(40, 0.3, tol=tol * 1e15).terms_used == 256


def test_series_convergence_error():
    with pytest.raises(se.SeriesConvergenceError) as err:
        se.regularized_bracket_sum(4, 0.3, tol=1e-30, max_terms=50)
    assert err.value.best is not None
    assert err.value.best.terms_used <= 50


def test_outside_window_flag():
    res = se.bessel_cos_series(1, 0.005, tol=1e-8)
    assert res.outside_window
    res2 = se.bessel_cos_series(1, 0.5, tol=1e-8)
    assert not res2.outside_window


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
