"""Exact rational arithmetic for Bernoulli and Zagier polynomials.

Every result is a `fractions.Fraction` (or a polynomial of them), so results
are bit-exact and safe to use as ground truth against the floating-point
formula evaluators.  The inner loops run in integers: Bernoulli numbers come
from the integer tangent-number recurrence, and modified Bernoulli numbers,
Zagier polynomials and their values are summed as integer numerators over
one common denominator, reduced once at the end.

Convention: Bernoulli numbers come from the generating function
z*e^{xz}/(e^z - 1), so B_1 = -1/2.  The other sign convention (B_1 = +1/2)
silently breaks every modified-Bernoulli identity in this package; do not
"fix" it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterable, Sequence

__all__ = [
    "RationalPolynomial",
    "BernoulliCache",
    "default_cache",
    "attach_disk_cache",
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

CACHE_HEADER = "zagier-kit bernoulli-cache v1"

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

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(tuple(out))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def scale(self, factor: RationalLike) -> "RationalPolynomial":
        f = Fraction(factor)
        return RationalPolynomial(tuple(c * f for c in self.coefficients))

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPolynomial(tuple(out))

    def compose_linear(self, shift: RationalLike, slope: RationalLike) -> "RationalPolynomial":
        """Return p(shift + slope*x), exactly."""
        s, m = Fraction(shift), Fraction(slope)
        lin = RationalPolynomial((s, m))
        acc = RationalPolynomial.zero()
        for c in reversed(self.coefficients):
            acc = acc * lin + RationalPolynomial((c,))
        return acc


class BernoulliCache:
    """Append-only cache of Bernoulli numbers, optionally disk backed.

    The on-disk format is line oriented: a header line followed by one
    record per line, "n<TAB>numerator/denominator".  Reads are lock-free;
    writes hold a lock so concurrent callers cannot corrupt the table.
    """

    def __init__(self, path: str | None = None):
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()
        self.path = path
        if path and os.path.exists(path):
            self.load(path)

    def get(self, n: int) -> Fraction:
        return self.prefix(n)[n]

    def prefix(self, n: int) -> list[Fraction]:
        """The table B_0..B_m for some m >= n (read only; do not mutate)."""
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
        # recompute from scratch, at least doubling, so n = 1, 2, 3, ... costs
        # O(log n) rebuilds; the longer list is swapped in by one assignment,
        # so a lock-free reader never sees a changed prefix
        fresh = _bernoulli_table(max(n, 2 * (len(values) - 1)))
        self._values = values + fresh[len(values):]

    def known(self) -> int:
        return len(self._values) - 1

    def save(self, path: str | None = None) -> None:
        path = path or self.path
        if path is None:
            raise ValueError("no cache path configured")
        with self._lock:
            lines = [CACHE_HEADER]
            for n, v in enumerate(self._values):
                # Decimal writes and reads integers past str()'s 4,300-digit limit
                lines.append(f"{n}\t{Decimal(v.numerator)}/{Decimal(v.denominator)}")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)

    def load(self, path: str) -> None:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().rstrip("\n")
            if header != CACHE_HEADER:
                raise ValueError(f"unrecognized cache header: {header!r}")
            loaded: dict[int, Fraction] = {}
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                idx_s, frac_s = line.split("\t")
                num_s, den_s = frac_s.split("/")
                if not (num_s.lstrip("-") + den_s).isdigit():
                    raise ValueError(f"bad cache record: {line[:40]!r}")
                loaded[int(idx_s)] = Fraction(int(Decimal(num_s)), int(Decimal(den_s)))
        with self._lock:
            n = 0
            values = [Fraction(1)]
            while n + 1 in loaded:
                n += 1
                values.append(loaded[n])
            if len(values) > len(self._values):
                self._values = values


def _tangent_numbers(k_max: int) -> list[int]:
    """T_1..T_k_max (index 0 unused), the tangent numbers.

    Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (arXiv:1108.0286), Algorithm TangentNumbers: O(k_max^2)
    integer operations, no division.
    """
    t = [0] * (k_max + 1)
    if k_max >= 1:
        t[1] = 1
    for k in range(2, k_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = -1/2, from B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    values = [Fraction(0)] * (n + 1)
    values[0] = Fraction(1)
    if n >= 1:
        values[1] = Fraction(-1, 2)
    t = _tangent_numbers(n // 2)
    for k in range(1, n // 2 + 1):
        four_k = 1 << (2 * k)
        b = Fraction(2 * k * t[k], four_k * (four_k - 1))
        values[2 * k] = b if k % 2 else -b
    return values


_DEFAULT_CACHE = BernoulliCache()


def default_cache() -> BernoulliCache:
    return _DEFAULT_CACHE


def attach_disk_cache(path: str) -> BernoulliCache:
    """Point the process-wide Bernoulli cache at a disk file (loaded if present)."""
    if os.path.exists(path):
        _DEFAULT_CACHE.load(path)
    _DEFAULT_CACHE.path = path
    return _DEFAULT_CACHE


def bernoulli_number(n: int, cache: BernoulliCache | None = None) -> Fraction:
    """Exact B_n with B_1 = -1/2; odd n > 1 give 0."""
    return (cache or _DEFAULT_CACHE).get(n)


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

    Only r = 0, r = 1 and even r = 2s contribute, and C(n+r,2r)/(n+r) =
    C(n+r-1,2r-1)/(2r), so B_n^* = 1/n - n/4 + sum_{s=1}^{n//2}
    C(n+2s-1,4s-1) B_2s/(4s), summed in integers over one denominator.
    """
    if n < 1:
        raise ValueError("n must be positive")
    half = n // 2
    evens = _DEFAULT_CACHE.prefix(2 * half)[2: 2 * half + 1: 2]
    den = lcm(n, 4 * lcm(*range(1, half + 1))) * lcm(*(b.denominator for b in evens))
    acc = den // n - n * (den // 4)
    c = (n + 1) * n * (n - 1) // 6  # C(n+2s-1, 4s-1), by the ratio recurrence in s
    for s, b in enumerate(evens, 1):
        acc += c * b.numerator * (den // (4 * s * b.denominator))
        c = (c * (n + 2 * s) * (n + 2 * s + 1) * (n - 2 * s) * (n - 2 * s - 1)
             // ((4 * s) * (4 * s + 1) * (4 * s + 2) * (4 * s + 3)))
    return Fraction(acc, den)


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


def _chebyshev_u_at(n: int, x: Fraction) -> Fraction:
    """U_n(a/b) by the three-term recurrence on V_m = b^m U_m(a/b), in integers:
    V_{-1} = 0, V_0 = 1, V_{m+1} = 2a V_m - b^2 V_{m-1}."""
    if n < 0:
        return Fraction(0)  # U_{-1} = 0, consistent with the recurrence
    a2, b = 2 * x.numerator, x.denominator
    b2 = b * b
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, a2 * cur - b2 * prev
    return Fraction(cur, b ** n)


def zagier_shift(n: int, x: RationalLike, k: int) -> Fraction:
    """B_n^*(x+k) through the Chebyshev shift identity, bit-exact.

    For k >= 0:
        B_n^*(x+k) = B_n^*(x) + (1/2) sum_{j=1}^{k} U_{n-1}((x+j-1)/2 + 1).
    For k < 0 the telescoped sum is inverted:
        B_n^*(x+k) = B_n^*(x) - (1/2) sum_{j=1}^{-k} U_{n-1}((x+k+j-1)/2 + 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    xf = Fraction(x)
    base = zagier_eval(n, xf)
    half = Fraction(1, 2)
    if k >= 0:
        corr = sum((_chebyshev_u_at(n - 1, (xf + j - 1) / 2 + 1) for j in range(1, k + 1)),
                   Fraction(0))
        return base + half * corr
    corr = sum((_chebyshev_u_at(n - 1, (xf + k + j - 1) / 2 + 1) for j in range(1, -k + 1)),
               Fraction(0))
    return base - half * corr


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
