"""Exact-layer tests: every value here is either a frozen known constant or
recomputed through an independent oracle (Akiyama-Tanigawa, the term-by-term
Fraction assemblies of conftest, brute-force quadratic residues, direct
defining sums)."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zagier_kit import exact_core as ec

from conftest import akiyama_tanigawa_bernoulli, modified_bernoulli_oracle, zagier_polynomial_oracle


@pytest.fixture(scope="module")
def at_bernoulli():
    """B_0..B_300 from the Akiyama-Tanigawa triangle (~0.35 s)."""
    return akiyama_tanigawa_bernoulli(300)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

def test_bernoulli_basics():
    assert ec.bernoulli_number(0) == 1
    assert ec.bernoulli_number(1) == Fraction(-1, 2)
    assert ec.bernoulli_number(12) == Fraction(-691, 2730)
    for n in range(3, 40, 2):
        assert ec.bernoulli_number(n) == 0


def test_bernoulli_vs_akiyama_tanigawa(at_bernoulli):
    for n in range(301):
        assert ec.bernoulli_number(n) == at_bernoulli[n], n


def test_bernoulli_polynomial_small():
    assert ec.bernoulli_polynomial(0).coefficients == (Fraction(1),)
    assert ec.bernoulli_polynomial(1).coefficients == (Fraction(-1, 2), Fraction(1))
    assert ec.bernoulli_polynomial(2).coefficients == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_bernoulli_polynomial_binomial_expansion():
    for n in range(12):
        poly = ec.bernoulli_polynomial(n)
        x = Fraction(3, 7)
        direct = sum(comb(n, k) * ec.bernoulli_number(k) * x ** (n - k) for k in range(n + 1))
        assert poly(x) == direct


def test_bernoulli_polynomial_at_zero_is_number():
    for n in range(25):
        assert ec.bernoulli_polynomial(n)(0) == ec.bernoulli_number(n)


def test_bernoulli_half_value_identity():
    # B_n(1/2) = (2^{1-n} - 1) B_n
    for n in range(30):
        lhs = ec.bernoulli_polynomial(n)(Fraction(1, 2))
        rhs = (Fraction(2) ** (1 - n) - 1) * ec.bernoulli_number(n)
        assert lhs == rhs, n


# ---------------------------------------------------------------------------
# modified Bernoulli numbers / Zagier polynomials
# ---------------------------------------------------------------------------

def _modified_direct(n: int) -> Fraction:
    # defining sum, written independently of the production code
    return sum(
        (Fraction(comb(n + r, 2 * r), n + r) * ec.bernoulli_number(r) for r in range(n + 1)),
        Fraction(0),
    )


def test_modified_bernoulli_values():
    assert ec.modified_bernoulli(1) == Fraction(3, 4)
    assert ec.modified_bernoulli(3) == Fraction(-1, 4)
    assert ec.modified_bernoulli(2) == Fraction(1, 24)
    for n in range(1, 30):
        assert ec.modified_bernoulli(n) == _modified_direct(n)


def test_modified_bernoulli_vs_fraction_oracle(at_bernoulli):
    for n in range(1, 201):
        assert ec.modified_bernoulli(n) == modified_bernoulli_oracle(n, at_bernoulli), n


def test_zagier_polynomial_vs_fraction_oracle(at_bernoulli):
    for n in list(range(1, 61)) + [120]:
        assert ec.zagier_polynomial(n).coefficients == zagier_polynomial_oracle(n, at_bernoulli), n


def test_six_periodicity_table():
    table = {1: Fraction(3, 4), 3: Fraction(-1, 4), 5: Fraction(-1, 4),
             7: Fraction(1, 4), 9: Fraction(1, 4), 11: Fraction(-3, 4)}
    for k in range(0, 31):
        n = 2 * k + 1
        assert ec.modified_bernoulli(n) == table[n % 12], n


def test_zagier_polynomial_constant_term():
    for n in range(1, 15):
        assert ec.zagier_polynomial(n)(0) == ec.modified_bernoulli(n)


def test_zagier_half_value():
    assert ec.zagier_eval(2, Fraction(1, 2)) == Fraction(23, 48)


def test_zagier_odd_vanishes_at_minus_three_halves():
    for k in range(0, 11):
        assert ec.zagier_eval(2 * k + 1, Fraction(-3, 2)) == 0


def test_zagier_unit_increment():
    # B_{2n}^*(1) = B_{2n}^* + n
    for n in range(1, 11):
        assert ec.zagier_eval(2 * n, 1) - ec.zagier_eval(2 * n, 0) == n


def test_zagier_eval_matches_definition():
    x = Fraction(2, 5)
    for n in range(1, 12):
        direct = sum(
            (Fraction(comb(n + r, 2 * r), n + r) * ec.bernoulli_polynomial(r)(x)
             for r in range(n + 1)),
            Fraction(0),
        )
        assert ec.zagier_eval(n, x) == direct


@given(
    n=st.integers(min_value=1, max_value=20),
    num=st.integers(min_value=-30, max_value=30),
    den=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_reflection_symmetry(n, num, den):
    x = Fraction(num, den)
    assert ec.zagier_eval(n, -x - 3) == (-1) ** n * ec.zagier_eval(n, x)


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------

def test_chebyshev_small():
    assert ec.chebyshev_T(2).coefficients == (Fraction(-1), Fraction(0), Fraction(2))
    assert ec.chebyshev_U(0).coefficients == (Fraction(1),)
    assert ec.chebyshev_U(1).coefficients == (Fraction(0), Fraction(2))


def test_chebyshev_special_values():
    for n in range(1, 12):
        assert ec.chebyshev_U(2 * n)(0) == (-1) ** n
        assert ec.chebyshev_U(2 * n - 1)(0) == 0
        assert ec.chebyshev_U(2 * n - 1)(1) == 2 * n
        assert ec.chebyshev_U(2 * n)(1) == 2 * n + 1


def test_chebyshev_integer_coefficients():
    for n in range(15):
        for c in ec.chebyshev_U(n).coefficients + ec.chebyshev_T(n).coefficients:
            assert c.denominator == 1


def test_chebyshev_high_degree_matches_recurrence():
    # degree 520 used to exhaust the interpreter's recursion limit
    t = Fraction(3, 7)
    ts, us = [Fraction(1), t], [Fraction(1), 2 * t]
    while len(ts) <= 520:
        ts.append(2 * t * ts[-1] - ts[-2])
        us.append(2 * t * us[-1] - us[-2])
    assert ec.chebyshev_T(520)(t) == ts[520]
    assert ec.chebyshev_U(520)(t) == us[520]


def test_chebyshev_pell_identity():
    # T_n^2 - (x^2-1) U_{n-1}^2 = 1
    x2m1 = ec.RationalPolynomial((Fraction(-1), Fraction(0), Fraction(1)))
    one = ec.RationalPolynomial((Fraction(1),))
    for n in range(1, 10):
        t, u = ec.chebyshev_T(n), ec.chebyshev_U(n - 1)
        assert t * t - x2m1 * (u * u) == one


# ---------------------------------------------------------------------------
# shift identity
# ---------------------------------------------------------------------------

def test_shift_empty_sum():
    assert ec.zagier_shift(5, Fraction(1, 3), 0) == ec.zagier_eval(5, Fraction(1, 3))


def test_shift_unit_on_even():
    for n in range(1, 9):
        assert ec.zagier_shift(2 * n, 0, 1) == ec.modified_bernoulli(2 * n) + n


@given(
    n=st.integers(min_value=1, max_value=15),
    k=st.integers(min_value=-5, max_value=5),
    num=st.integers(min_value=-20, max_value=20),
    den=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_shift_bit_exact(n, k, num, den):
    x = Fraction(num, den)
    assert ec.zagier_shift(n, x, k) == ec.zagier_eval(n, x + k)


def test_shift_high_degree():
    assert ec.zagier_shift(520, Fraction(1, 3), 2) == ec.zagier_eval(520, Fraction(7, 3))


def test_even_split_identity_as_polynomials():
    # 2 B_{2n}^*(x) = sum_r (-1)^{n+r} C(n+r,2r) B_{2r}(x)/(n+r)
    #              + U_{2n-1}(x/2) + U_{2n-1}((x+1)/2), exactly
    half = Fraction(1, 2)
    for n in range(1, 13):
        lhs = ec.zagier_polynomial(2 * n).scale(2)
        rhs = ec.RationalPolynomial.zero()
        for r in range(n + 1):
            coef = Fraction((-1) ** (n + r) * comb(n + r, 2 * r), n + r)
            rhs = rhs + ec.bernoulli_polynomial(2 * r).scale(coef)
        u = ec.chebyshev_U(2 * n - 1)
        rhs = rhs + u.compose_linear(0, half) + u.compose_linear(half, half)
        assert lhs == rhs, n


# ---------------------------------------------------------------------------
# Jacobi symbol and the odd closed form
# ---------------------------------------------------------------------------

def _jacobi_brute(a: int, n: int) -> int:
    """Brute force via factorization into odd primes and residue counting."""
    result = 1
    m = n
    p = 3
    while m > 1:
        while p * p <= m and m % p:
            p += 2
        q = p if p * p <= m else m
        while m % q == 0:
            m //= q
            if a % q == 0:
                return 0
            is_residue = any(pow(t, 2, q) == a % q for t in range(1, q))
            result *= 1 if is_residue else -1
    return result


def test_jacobi_symbol():
    assert ec.jacobi_symbol(7, 1) == 1
    assert ec.jacobi_symbol(-4, 5) == 1
    assert ec.jacobi_symbol(-3, 7) == 1
    for n in range(1, 46, 2):
        for a in range(-8, 9):
            assert ec.jacobi_symbol(a, n) == _jacobi_brute(a, n), (a, n)
    with pytest.raises(ValueError):
        ec.jacobi_symbol(3, 4)
    with pytest.raises(ValueError):
        ec.jacobi_symbol(3, -5)


def test_odd_closed_form():
    assert ec.odd_modified_closed_form(0) == Fraction(3, 4)
    assert ec.odd_modified_closed_form(5) == Fraction(-3, 4)
    for n in range(0, 31):
        assert ec.odd_modified_closed_form(n) == ec.modified_bernoulli(2 * n + 1)


# ---------------------------------------------------------------------------
# denominators
# ---------------------------------------------------------------------------

def test_two_adic_prediction_examples():
    assert ec.two_adic_valuation_prediction(6) == 2
    assert ec.two_adic_valuation_prediction(2) == 3
    for k in range(0, 10):
        assert ec.two_adic_valuation_prediction(2 * k + 1) == 2


def test_two_adic_valuation_matches_denominators():
    for n in range(1, 61):
        denom = ec.modified_bernoulli(n).denominator
        assert ec.two_adic_valuation(denom) == ec.two_adic_valuation_prediction(n), n


def test_odd_denominator_is_four():
    for k in range(0, 25):
        assert ec.modified_bernoulli(2 * k + 1).denominator == 4


# ---------------------------------------------------------------------------
# polynomial container and cache
# ---------------------------------------------------------------------------

def test_rational_polynomial_normalization():
    p = ec.RationalPolynomial((Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
    assert p.degree == 1
    assert ec.RationalPolynomial.zero().degree == -1


def test_compose_linear():
    p = ec.RationalPolynomial((Fraction(1), Fraction(0), Fraction(1)))  # 1 + x^2
    q = p.compose_linear(Fraction(1, 2), Fraction(1, 3))
    x = Fraction(5, 7)
    assert q(x) == 1 + (Fraction(1, 2) + x / 3) ** 2


def test_cache_disk_roundtrip(tmp_path):
    path = str(tmp_path / "bern.tsv")
    cache = ec.BernoulliCache(path)
    cache.get(24)
    cache.save()
    with open(path) as fh:
        assert fh.readline().rstrip() == "zagier-kit bernoulli-cache v1"
    fresh = ec.BernoulliCache(path)
    assert fresh.known() >= 24
    for n in range(25):
        assert fresh.get(n) == ec.bernoulli_number(n)


def test_cache_round_trip_past_str_digit_limit(tmp_path):
    # a 5,001-digit numerator is written and read in full, with the
    # interpreter's int/str digit limit left as it is
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    digits = "1" + "0" * 4999 + "1"
    path = tmp_path / "long.tsv"
    path.write_text(f"{ec.CACHE_HEADER}\n0\t1/1\n1\t-{digits}/3\n")
    cache = ec.BernoulliCache(str(path))
    assert cache.get(1) == Fraction(-(10**5000 + 1), 3)
    again = tmp_path / "again.tsv"
    cache.save(str(again))
    assert again.read_text() == path.read_text()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cache_rejects_bad_record(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(f"{ec.CACHE_HEADER}\n1\t-1.5/2\n")
    with pytest.raises(ValueError):
        ec.BernoulliCache(str(path))


def test_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("something else\n1\t-1/2\n")
    with pytest.raises(ValueError):
        ec.BernoulliCache(str(path))


def test_cache_fill_orders_agree(tmp_path):
    stepwise = ec.BernoulliCache()
    first = stepwise.prefix(10)
    first_copy = list(first)
    for n in (10, 601, 333):
        stepwise.get(n)
    # extension swaps in a new list: a reader holding the old one sees it unchanged
    assert first == first_copy
    assert all(a is b for a, b in zip(first, stepwise.prefix(601)))

    fresh = ec.BernoulliCache()
    fresh.get(601)

    path = tmp_path / "bern50.tsv"
    lines = ["zagier-kit bernoulli-cache v1"]
    lines += [f"{n}\t{v.numerator}/{v.denominator}" for n, v in enumerate(fresh.prefix(49)[:50])]
    path.write_text("\n".join(lines) + "\n")
    loaded = ec.BernoulliCache(str(path))
    assert loaded.known() == 49
    loaded.get(600)
    assert loaded.known() >= 600

    table = stepwise.prefix(601)[:602]
    assert fresh.prefix(601)[:602] == table
    assert loaded.prefix(600)[:601] == table[:601]


def test_cache_concurrent_extension_stress():
    # more threads than cores, a short switch interval, and indices in an
    # order that forces many extensions while other threads read
    reference = ec.BernoulliCache().prefix(400)
    cache = ec.BernoulliCache()
    errors = []

    def worker(seed):
        try:
            for n in sorted(range(0, 401, 7), key=lambda m: (m * seed) % 401):
                assert cache.get(n) == reference[n]
                table = cache.prefix(n)
                assert table[: n + 1] == reference[: n + 1]
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(3, 13)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_cache_concurrent_reads():
    cache = ec.BernoulliCache()
    errors = []

    def worker():
        try:
            for n in (10, 30, 50):
                assert cache.get(n) == ec.bernoulli_number(n)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
