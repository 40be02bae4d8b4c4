"""Special-function layer: frozen regression digits, high-precision oracles,
and the structural invariants (Wronskian, boundedness, monotone envelope,
crossover continuity)."""

from __future__ import annotations

import math
from math import pi, sqrt

import numpy as np
import pytest
from scipy import special as sp_special

from zagier_kit import specfun as sf

from conftest import (
    bessel_j_series_oracle,
    bessel_y_oracle,
    dj_dnu_fd_oracle,
    p_func_reference,
    q_func_reference,
    zeta_even,
)


# ---------------------------------------------------------------------------
# Bessel J
# ---------------------------------------------------------------------------

def test_bessel_j_at_zero():
    assert sf.bessel_J(0.0, 0.0).value == 1.0
    assert sf.bessel_J(2.0, 0.0).value == 0.0
    assert sf.bessel_J(0.5, 0.0).value == 0.0


def test_bessel_j_half_order_closed_form():
    got = sf.bessel_J(0.5, pi / 2).value
    assert abs(got - 2.0 / pi) < 1e-14


def test_bessel_j_vs_series_oracle():
    got = sf.bessel_J(3.0, 2.0).value
    assert abs(got - bessel_j_series_oracle(3.0, 2.0)) < 1e-14


@pytest.mark.parametrize(
    "nu,z,ref",
    [
        (100.0, 500.0, 0.034329532854951521),
        (37.3, 250.0, 0.010241176680424718),
        (3.0, 2.0, 0.12894324947440205),
    ],
)
def test_bessel_j_accuracy_targets(nu, z, ref):
    got = sf.bessel_J(nu, z).value
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_bessel_j_method_labels():
    assert sf.bessel_J(3.0, 10.0).method == "recurrence"
    assert sf.bessel_J(0.5, 1000.0).method == "asymptotic"
    assert sf.bessel_J(2.5, 10.0).method == "series"


def test_bessel_j_domain():
    with pytest.raises(ValueError):
        sf.bessel_J(-1.0, 2.0)
    with pytest.raises(ValueError):
        sf.bessel_J(1.0, -2.0)


# ---------------------------------------------------------------------------
# Miller batch
# ---------------------------------------------------------------------------

def test_batch_head_matches_single():
    z = 7.3
    assert abs(sf.bessel_J_int_batch(0, z)[0] - sf.bessel_J(0.0, z).value) < 1e-14


def test_batch_normalization_identity():
    for z in (2.0, 4 * pi, 8 * pi, 40.0):
        b = sf.bessel_J_int_batch(140, z)
        total = b[0] + 2.0 * math.fsum(b[2::2].tolist())
        assert abs(total - 1.0) < 1e-12, z


def test_batch_spot_checks_vs_series_oracle():
    b = sf.bessel_J_int_batch(50, 4 * pi)
    for idx in (10, 25, 40):
        ref = bessel_j_series_oracle(float(idx), 4 * pi, terms=90)
        assert abs(b[idx] - ref) < 1e-11 * max(abs(ref), 1e-250), idx


def test_batch_agrees_with_bessel_j():
    z = 11.0
    b = sf.bessel_J_int_batch(30, z)
    for n in range(0, 31, 5):
        single = sf.bessel_J(float(n), z).value
        if abs(single) > 1e-250:
            assert abs(b[n] - single) < 1e-11 * max(abs(single), 1e-30)


# ---------------------------------------------------------------------------
# Bessel Y
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,printed,tol",
    [
        (2, 0.134559, 5e-7),
        (4, -0.0357975, 5e-8),
        (6, -0.14694, 5e-6),
        (8, 0.246447, 5e-7),
    ],
)
def test_bessel_y_published_digits(n, printed, tol):
    assert abs(sf.bessel_Y_int(n, 4 * pi).value - printed) < tol


def test_y0_y1_from_order_derivative_vs_oracle():
    # (pi/2) Y_0 and (pi/2) Y_1 + J_0/z are the order derivative of J at 0 and 1
    for z in (0.5, 1.0, 3.7, 4 * pi, 8 * pi, 12 * pi, 39.9, 40.0):
        y0, y1 = sf.bessel_Y01(z)
        assert abs(y0 - bessel_y_oracle(0, z)) < 1e-15 * max(1.0, abs(y0)), z
        assert abs(y1 - bessel_y_oracle(1, z)) < 1e-15 * max(1.0, abs(y1)), z


def test_bessel_y_domain():
    with pytest.raises(ValueError):
        sf.bessel_Y_int(2, 0.0)
    with pytest.raises(ValueError):
        sf.bessel_Y_int(2, -1.0)


def test_bessel_y_large_argument_vs_oracle():
    for (n, z) in [(2, 1e4), (0, 500.0), (9, 2.0e3)]:
        res = sf.bessel_Y_int(n, z)
        assert res.method == "asymptotic"
        assert abs(res.value - bessel_y_oracle(n, z)) < 1e-11


def test_crossover_continuity():
    # recurrence path and asymptotic path agree in a window around the switch
    for n in range(0, 11):
        zc = sf.asymptotic_crossover(n)
        for z in (zc * 1.001, zc * 1.05, zc * 1.3):
            asym = sf._asymptotic_JY(float(n), z)[1]
            rec = float(sp_special.yn(n, z))
            assert abs(asym - rec) < 1e-9, (n, z)


def test_y_nonzero_and_order_asymptotic_trend():
    # Y_{2n}(4 pi) never vanishes up to n = 20; beyond the turning point
    # (2n > 4 pi) its sign matches the order asymptotic and the ratio to the
    # one-term order formula decreases monotonically toward 1
    ratios = []
    for n in range(1, 21):
        y = sf.bessel_Y_int(2 * n, 4 * pi).value
        assert y != 0.0
        if n >= 7:
            nu = 2 * n
            asym = -sqrt(2.0 / (pi * nu)) * (math.e * 4 * pi / (2 * nu)) ** (-nu)
            ratios.append(y / asym)
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 3.0


def test_wronskian():
    for nu in range(0, 11):
        for z in (1.0, 4 * pi, 8 * pi):
            lhs = (sf.bessel_J(float(nu), z).value * sf.bessel_Y_int(nu + 1, z).value
                   - sf.bessel_J(float(nu + 1), z).value * sf.bessel_Y_int(nu, z).value)
            assert abs(lhs - (-2.0 / (pi * z))) < 1e-10, (nu, z)


def test_j_bounded_by_one():
    for n in range(0, 40, 3):
        for z in (0.5, 4 * pi, 8 * pi, 123.0):
            assert abs(sf.bessel_J(float(n), z).value) <= 1.0 + 1e-12


def test_envelope_monotone_decreasing():
    # z (J_{2n}^2 + Y_{2n}^2) is nonincreasing in z for order > 1/2
    for n in range(1, 6):
        vals = []
        for m in range(1, 11):
            z = 4 * pi * m
            jj = sf.bessel_J(float(2 * n), z).value
            yy = sf.bessel_Y_int(2 * n, z).value
            vals.append(z * (jj * jj + yy * yy))
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), n


# ---------------------------------------------------------------------------
# order derivative of J
# ---------------------------------------------------------------------------

def test_dj_dnu_zero_order_closed_form():
    got = sf.dJ_dnu_at_int(0, 1.0).value
    ref = 0.5 * pi * sf.bessel_Y_int(0, 1.0).value
    assert abs(got - ref) < 1e-12


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_dj_dnu_vs_finite_difference(n, m):
    z = 4 * pi * m
    got = sf.dJ_dnu_at_int(n, z).value
    assert abs(got - dj_dnu_fd_oracle(n, z)) < 1e-6


def test_dj_dnu_small_argument_vanishes():
    for n in (1, 2, 5):
        assert abs(sf.dJ_dnu_at_int(n, 1e-8).value) < 1e-6


# ---------------------------------------------------------------------------
# digamma / Hurwitz zeta
# ---------------------------------------------------------------------------

def test_digamma_values():
    assert sf.digamma_int(1) == -sf.EULER_GAMMA
    assert abs(sf.digamma_int(3) - (-sf.EULER_GAMMA + 1.5)) < 1e-15
    for n in range(1, 8):
        harmonic = math.fsum(1.0 / j for j in range(1, 2 * n + 1))
        assert sf.digamma_int(2 * n + 1) + sf.EULER_GAMMA - harmonic == 0.0


def test_hurwitz_zeta_half_at_one():
    res = sf.hurwitz_zeta_half(1.0)
    assert abs(res.value - (-1.4603545088095868)) < 1e-13
    assert res.abs_err_estimate < 1e-12


def test_hurwitz_ladder():
    for x in (0.1, 0.37, 0.5, 0.93, 1.0):
        lhs = sf.hurwitz_zeta_half(x).value - sf.hurwitz_zeta_half(x + 1.0).value
        assert abs(lhs - x ** -0.5) < 1e-12, x


def test_hurwitz_half_at_half():
    # zeta(1/2, 1/2) = (sqrt(2) - 1) zeta(1/2); also re-derived by a slow
    # regularized direct sum
    val = sf.hurwitz_zeta_half(0.5).value
    assert abs(val - (sqrt(2.0) - 1.0) * sf.zeta_half()) < 1e-13
    n_terms = 10**6
    ms = np.arange(n_terms, dtype=float) + 0.5
    slow = (math.fsum((ms ** -0.5).tolist()) - 2.0 * sqrt(n_terms + 0.5)
            + 0.5 * (n_terms + 0.5) ** -0.5)
    assert abs(val - slow) < 1e-9


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        sf.hurwitz_zeta_half(0.0)
    with pytest.raises(ValueError):
        sf.hurwitz_zeta_half(2.5)
    with pytest.raises(ValueError):
        sf.hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        sf.hurwitz_zeta(-0.5, 0.5)


# ---------------------------------------------------------------------------
# Schlaefli polynomial, P/Q functions
# ---------------------------------------------------------------------------

def test_schlafli_zero_and_two():
    assert sf.schlafli_S(0, 3.0) == 0.0
    for z in (1.0, 4 * pi):
        assert abs(sf.schlafli_S(2, z) - (z / 2.0) ** -2) < 1e-16


def test_schlafli_direct_sum():
    # independent term-by-term evaluation at (n, z) = (6, 8 pi)
    n, z = 6, 8 * pi
    terms = [math.factorial(n - r - 1) / math.factorial(r) * (z / 2) ** (2 * r - n)
             for r in range((n - 2) // 2 + 1)]
    assert abs(sf.schlafli_S(n, z) - math.fsum(terms)) < 1e-18


@pytest.mark.parametrize("n,z", [(2, 4 * pi), (4, 8 * pi)])
def test_pq_mutual_oracle(n, z):
    assert abs(sf.P_func(n, z).value - p_func_reference(n, z)) < 1e-9
    assert abs(sf.Q_func(n, z).value - q_func_reference(n, z)) < 1e-9


def test_schlafli_bessel_assembly():
    # S_n(z) = -pi Y_n + 2(gamma + log(z/2)) J_n + P_n - 2 Q_n
    for (n, z) in [(2, 4 * pi), (4, 8 * pi), (6, 12 * pi)]:
        lhs = sf.schlafli_S(n, z)
        rhs = (-pi * sf.bessel_Y_int(n, z).value
               + 2.0 * (sf.EULER_GAMMA + math.log(z / 2.0)) * sf.bessel_J(float(n), z).value
               + sf.P_func(n, z).value - 2.0 * sf.Q_func(n, z).value)
        assert abs(lhs - rhs) < 1e-9, (n, z)


# ---------------------------------------------------------------------------
# Coates integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,u", [(1, 4 * pi), (2, 8 * pi)])
def test_coates_mutual_oracle(n, u):
    series = sf.coates_series(n, u)
    quad = sf.coates_integral(n, u)
    assert quad.method == "quadrature"
    assert abs(series.value - quad.value) < 1e-7


def test_coates_small_u_limit():
    for n in (1, 2, 4):
        val = sf.coates_integral(n, 1e-4).value
        assert abs(val - (-1.0) ** (n + 1) / (2.0 * n)) < 1e-3
        sval = sf.coates_series(n, 1e-4).value
        assert abs(sval - (-1.0) ** (n + 1) / (2.0 * n)) < 1e-3


def test_coates_panel_limit():
    with pytest.raises(sf.QuadratureError):
        sf.coates_integral(1, 16 * pi, panel_limit=50)


# ---------------------------------------------------------------------------
# zeta at even integers
# ---------------------------------------------------------------------------

def test_zeta_even_classical_values():
    assert abs(zeta_even(1) - pi**2 / 6.0) < 1e-15
    assert abs(zeta_even(2) - pi**4 / 90.0) < 1e-15


def test_zeta_even_direct_sum():
    direct = math.fsum(m ** -20.0 for m in range(1, 21))
    assert abs(zeta_even(10) - direct) < 1e-15


# ---------------------------------------------------------------------------
# Chebyshev float evaluator
# ---------------------------------------------------------------------------

def test_chebyshev_float_against_exact():
    from fractions import Fraction

    from zagier_kit import exact_core as ec

    for n in (1, 4, 9, 16):
        for t in (-0.95, -0.5, 0.0, 0.3, 0.99, 1.0, 1.5):
            exact = float(ec.chebyshev_U(n)(Fraction(t).limit_denominator(10**6)))
            assert abs(sf.chebyshev_U_value(n, t) - exact) < 1e-10 * max(1.0, abs(exact))
