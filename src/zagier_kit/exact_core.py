"""Exact rational arithmetic for Bernoulli and Zagier polynomials.

Every result is a `fractions.Fraction` (or a polynomial of them), so results
are bit-exact and safe to use as ground truth against the floating-point
formula evaluators.  The inner loops run in integers: Bernoulli numbers come
from the integer tangent-number recurrence, and even modified Bernoulli
numbers, Zagier polynomials, their values and their shifts are summed as
integer numerators over one common denominator, reduced once at the end; odd
modified Bernoulli numbers come from Zagier's 6-periodic closed form.

Convention: Bernoulli numbers come from the generating function
z*e^{xz}/(e^z - 1), so B_1 = -1/2.  The other sign convention (B_1 = +1/2)
silently breaks every modified-Bernoulli identity in this package; do not
"fix" it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, lcm, prod
from typing import Iterable

__all__ = [
    "RationalPolynomial",
    "BernoulliCache",
    "default_cache",
    "bernoulli_number",
    "bernoulli_polynomial",
    "modified_bernoulli",
    "zagier_polynomial",
    "zagier_eval",
    "zagier_shift",
    "chebyshev_T",
    "chebyshev_U",
    "jacobi_symbol",
    "odd_modified_closed_form",
    "two_adic_valuation",
    "two_adic_valuation_prediction",
]

RationalLike = Fraction | int


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial with exact rational coefficients, index = power of x."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        # strip trailing zeros; the zero polynomial keeps a single 0 coefficient
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike]) -> "RationalPolynomial":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls((Fraction(0),))

    @property
    def degree(self) -> int:
        if len(self.coefficients) == 1 and self.coefficients[0] == 0:
            return -1
        return len(self.coefficients) - 1

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        xf = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * xf + c
        return acc


class BernoulliCache:
    """Append-only in-memory table of the Bernoulli numbers B_0..B_m.

    The table is always computed, never read from outside: an extension
    runs the tangent-number recurrence (`_next_column`) from the column
    kept beside the table, so extending costs only the new entries.
    Reads are lock-free; writes hold a lock so concurrent callers cannot
    corrupt the table.  It also keeps the B_2s/(4s)! table of
    `modified_bernoulli`, which only even indices read.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1)]
        # the tangent-number column of B_0..B_2K (see `_next_column`); only
        # touched under the lock
        self._column: list[int] = []
        self._gamma: tuple[list[int], list[int], list[tuple[int, list[int]]]] = (
            [1], [1], [(1, [0])])
        self._lock = threading.Lock()

    def get(self, n: int) -> Fraction:
        return self.prefix(n)[n]

    def prefix(self, n: int) -> list[Fraction]:
        """The table B_0..B_m, m >= n; m = n when this call extended it.

        Read only; do not mutate.  A reader keeps the list it was given:
        an extension swaps in a longer list by one assignment.
        """
        if n < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        values = self._values
        if n >= len(values):
            with self._lock:
                self._extend_locked(n)
                values = self._values
        return values

    def _extend_locked(self, n: int) -> None:
        values = self._values
        if n < len(values):
            return
        column = self._column
        fresh = []
        for i in range(len(values), n + 1):
            if i % 2:
                fresh.append(Fraction(-1, 2) if i == 1 else Fraction(0))
                continue
            column = _next_column(column)
            k, four_k = i // 2, 1 << i
            b = Fraction(2 * k * column[-1], four_k * (four_k - 1))
            fresh.append(b if k % 2 else -b)
        self._column = column
        self._values = values + fresh

    def _gamma_table(self, half: int) -> tuple[list[int], tuple[int, list[int]]]:
        """gamma_s = B_2s/(4s)! for s <= S, S >= half, as (rho, (G_S, g)).

        With G_t = (4t)! lcm(den B_2, ..., den B_2t): rho[t] = G_t/G_{t-1},
        a small integer, and g[s] = gamma_s G_S with S = len(g) - 1 and
        g[0] = 0, so the Horner sum of `modified_bernoulli` runs on integers
        of about G_S bits.  S is the smallest of the kept scales 0, 1, 3, 7,
        ..., 2^j - 1 and the top one that reaches half: that size depends on
        half alone, within a factor of about 2, and not on the largest index
        asked so far.  The state (rho, lcms, tables) also keeps
        lcms[t] = lcm(den B_2, ..., den B_2t), so growth never divides a
        G_t by (4t)!.  Read only.
        """
        rho, _, tables = self._gamma
        if half >= len(rho):
            with self._lock:
                if half >= len(self._gamma[0]):
                    self._grow_gamma_locked(half)
                rho, _, tables = self._gamma
        return rho, tables[min(half.bit_length(), len(tables) - 1)]

    def _grow_gamma_locked(self, half: int) -> None:
        # each scale comes from the one below: its entries times the integer
        # G_stop/G_top, then the new ones from the top down as
        # g_s = num_s (lcms[stop]/den_s) (4 stop)!/(4s)!; the new state is
        # swapped in whole, so a lock-free reader sees a consistent one
        self._extend_locked(2 * half)
        bern = self._values
        rho, lcms, tables = (list(part) for part in self._gamma)
        big, g = tables[-1]
        for t in range(len(rho), half + 1):
            lcms.append(lcm(lcms[-1], bern[2 * t].denominator))
            rho.append((4 * t) * (4 * t - 1) * (4 * t - 2) * (4 * t - 3) * (lcms[t] // lcms[t - 1]))
        while len(g) <= half:
            top = len(g) - 1
            stop = min(half, (1 << (top + 1).bit_length()) - 1)
            ratio = prod(rho[top + 1: stop + 1])
            big *= ratio
            fresh, rising = [], 1
            for s in range(stop, top, -1):
                b = bern[2 * s]
                fresh.append(b.numerator * (lcms[stop] // b.denominator) * rising)
                rising *= (4 * s) * (4 * s - 1) * (4 * s - 2) * (4 * s - 3)
            if top & (top + 1):
                tables.pop()  # a top scale that is not 2^j - 1 is not kept
            g = [c * ratio for c in g] + fresh[::-1]
            tables.append((big, g))
        self._gamma = (rho, lcms, tables)

    def known(self) -> int:
        return len(self._values) - 1


def _next_column(column: list[int]) -> list[int]:
    """The tangent-number recurrence of Brent & Harvey, one column at a time.

    Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (arXiv:1108.0286), Algorithm TangentNumbers runs stages
    k = 2..K over t[k..K], t[j] <- (j-k) t[j-1] + (j-k+2) t[j], from
    t[j] = (j-1)!.  `column` holds t[K] as it starts and after each stage
    2..K (its last entry is the tangent number T_K); the result is the same
    for K + 1, in K + 1 small multiply-adds and no division.
    """
    if not column:
        return [1]
    prev = len(column) * column[0]
    out = [prev]
    # stage k = 2..K: (K+1-k) t[K] + (K+3-k) t[K+1]; stage K+1 doubles
    for a, c in zip(range(len(column) - 1, 0, -1), islice(column, 1, None)):
        prev = a * c + (a + 2) * prev
        out.append(prev)
    out.append(2 * prev)
    return out


_DEFAULT_CACHE = BernoulliCache()


def default_cache() -> BernoulliCache:
    return _DEFAULT_CACHE


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n with B_1 = -1/2; odd n > 1 give 0."""
    return _DEFAULT_CACHE.get(n)


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> RationalPolynomial:
    """B_n(x) = sum_k C(n,k) B_k x^{n-k}, exact coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return RationalPolynomial(tuple(coeffs))


def modified_bernoulli(n: int) -> Fraction:
    """Modified Bernoulli number B_n^* = sum_{r=0}^n C(n+r,2r) B_r/(n+r).

    Only r = 0, r = 1 and even r = 2s contribute, and C(n+2s,4s)/(n+2s) =
    C(n+2s-1,4s-1)/(4s) = n prod_{j<2s} (n^2 - j^2)/(4s)!, so with y = n^2
    and gamma_s = B_2s/(4s)!:

        B_n^* = 1/n - n/4 + n (y-1) [gamma_1 + (y-4)(y-9) [gamma_2
                + (y-16)(y-25) [gamma_3 + ...]]],

    summed to s = n//2 by Horner over the integers g_s = gamma_s G of
    `BernoulliCache._gamma_table`: one multiply by a small integer and one
    add per step.  The common factor G/G_{n//2} is divided out before the
    one reduction.  Odd n take Zagier's 6-periodic closed form
    `odd_modified_closed_form` and touch no table.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2:
        return odd_modified_closed_form(n // 2)
    half = n // 2
    rho, (big, g) = _DEFAULT_CACHE._gamma_table(half)
    y = n * n
    acc = 0
    for s in range(half, 0, -1):
        acc = acc * ((y - 4 * s * s) * (y - (2 * s + 1) ** 2)) + g[s]
    cut = prod(rho[half + 1: len(g)])  # G_S/G_{n//2}
    den = big // cut
    acc //= cut
    return Fraction((4 - y) * den + 4 * y * (y - 1) * acc, 4 * n * den)


@lru_cache(maxsize=None)
def _zagier_numerators(n: int) -> tuple[tuple[int, ...], int]:
    """B_n^*(x) = sum_j nums[j] x^j / den, in integers.

    Over L = lcm(n..2n) and M = lcm(den B_0, ..., den B_n), write
    C(n+r,2r)/(n+r) = w_r/L and B_k = beta_k/M; expanding each
    B_r(x) = sum_k C(r,k) B_k x^(r-k) in place gives
    nums[j] = sum_k beta_k C(j+k,k) w_{j+k} and den = L*M.
    """
    bern = _DEFAULT_CACHE.prefix(n)[: n + 1]
    lcm_w = lcm(*range(n, 2 * n + 1))
    lcm_b = lcm(*(b.denominator for b in bern))
    w = []
    c = 1  # C(n+r, 2r), by the ratio recurrence in r
    for r in range(n + 1):
        w.append(c * (lcm_w // (n + r)))
        c = c * (n + r + 1) * (n - r) // ((2 * r + 1) * (2 * r + 2))
    nums = [0] * (n + 1)
    for k, b in enumerate(bern):
        if not b:
            continue
        beta = b.numerator * (lcm_b // b.denominator)
        c = 1  # C(j+k, k), by the ratio recurrence in j
        for j in range(n - k + 1):
            nums[j] += c * w[j + k] * beta
            c = c * (j + k + 1) // (j + 1)
    return tuple(nums), lcm_w * lcm_b


def zagier_polynomial(n: int) -> RationalPolynomial:
    """Zagier polynomial B_n^*(x) = sum_{r=0}^n C(n+r,2r) B_r(x)/(n+r)."""
    if n < 1:
        raise ValueError("n must be positive")
    nums, den = _zagier_numerators(n)
    return RationalPolynomial(tuple(Fraction(c, den) for c in nums))


def zagier_eval(n: int, x: RationalLike) -> Fraction:
    """Exact B_n^*(x) at rational x = p/q.

    Horner in integers on sum_j nums[j] p^j q^(n-j), reduced once at the end.
    """
    if n < 1:
        raise ValueError("n must be positive")
    nums, den = _zagier_numerators(n)
    xf = Fraction(x)
    p, q = xf.numerator, xf.denominator
    acc, q_pow = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * q_pow
        q_pow *= q
    return Fraction(acc, den * q ** n)


def _chebyshev_coeffs(n: int, first: list[int]) -> list[int]:
    """Integer coefficients of P_n from P_0 = 1, P_1 = first, P_{m+1} = 2x P_m - P_{m-1}."""
    prev, cur = [1], first
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


@lru_cache(maxsize=None)
def chebyshev_T(n: int) -> RationalPolynomial:
    """Chebyshev polynomial of the first kind, integer coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return RationalPolynomial.from_coeffs(_chebyshev_coeffs(n, [0, 1]))


@lru_cache(maxsize=None)
def chebyshev_U(n: int) -> RationalPolynomial:
    """Chebyshev polynomial of the second kind: U_0 = 1, U_1 = 2x."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return RationalPolynomial.from_coeffs(_chebyshev_coeffs(n, [0, 2]))


def _chebyshev_u_at(n: int, a: int, b: int) -> int:
    """b^n U_n(a/b) by the three-term recurrence on V_m = b^m U_m(a/b), in integers:
    V_{-1} = 0, V_0 = 1, V_{m+1} = 2a V_m - b^2 V_{m-1}."""
    a2, b2 = 2 * a, b * b
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, a2 * cur - b2 * prev
    return cur


def zagier_shift(n: int, x: RationalLike, k: int) -> Fraction:
    """B_n^*(x+k) through the Chebyshev shift identity, bit-exact.

    For k >= 0:
        B_n^*(x+k) = B_n^*(x) + (1/2) sum_{j=1}^{k} U_{n-1}((x+j-1)/2 + 1).
    For k < 0 the telescoped sum is inverted:
        B_n^*(x+k) = B_n^*(x) - (1/2) sum_{j=1}^{-k} U_{n-1}((x+k+j-1)/2 + 1).
    With x = p/q every argument is (p + (i+1)q)/(2q), i = j or k+j, so
    the U_{n-1} are summed as integers over (2q)^(n-1), reduced once.
    """
    if n < 1:
        raise ValueError("n must be positive")
    xf = Fraction(x)
    p, q = xf.numerator, xf.denominator
    lo = 1 if k >= 0 else k + 1
    corr = sum(_chebyshev_u_at(n - 1, p + (i + 1) * q, 2 * q) for i in range(lo, lo + abs(k)))
    return zagier_eval(n, xf) + Fraction(corr if k >= 0 else -corr, 2 * (2 * q) ** (n - 1))


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def odd_modified_closed_form(n: int) -> Fraction:
    """B_{2n+1}^* via Jacobi symbols: (1/4)(-4|2n+1) + (1/2)(-3|2n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = 2 * n + 1
    return Fraction(jacobi_symbol(-4, m), 4) + Fraction(jacobi_symbol(-3, m), 2)


def two_adic_valuation(k: int) -> int:
    """Exponent of 2 in k (k nonzero)."""
    if k == 0:
        raise ValueError("valuation of 0 is undefined")
    k = abs(k)
    v = 0
    while k % 2 == 0:
        k //= 2
        v += 1
    return v


def two_adic_valuation_prediction(n: int) -> int:
    """Predicted 2-adic valuation of the denominator of B_n^*.

    Equals 2 + v2(n) minus 1 when n = 6 mod 12, minus 2 when n = 0 mod 12.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n % 12 == 6:
        corr = 1
    elif n % 12 == 0:
        corr = 2
    else:
        corr = 0
    return 2 + two_adic_valuation(n) - corr
