"""Exact rational arithmetic for Bernoulli and Zagier polynomials.

Everything in this module is computed with `fractions.Fraction`, so results
are bit-exact and safe to use as ground truth against the floating-point
formula evaluators.

Convention: Bernoulli numbers come from the generating function
z*e^{xz}/(e^z - 1), so B_1 = -1/2.  The other sign convention (B_1 = +1/2)
silently breaks every modified-Bernoulli identity in this package; do not
"fix" it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
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
        if n < 0:
            raise ValueError("Bernoulli index must be nonnegative")
        if n >= len(self._values):
            with self._lock:
                self._extend_locked(n)
        return self._values[n]

    def _extend_locked(self, n: int) -> None:
        values = self._values
        while len(values) <= n:
            m = len(values)
            # sum_{k=0}^{m} C(m+1,k) B_k = 0  ->  B_m
            acc = Fraction(0)
            for k in range(m):
                if values[k] != 0:
                    acc += comb(m + 1, k) * values[k]
            values.append(-acc / (m + 1))

    def known(self) -> int:
        return len(self._values) - 1

    def save(self, path: str | None = None) -> None:
        path = path or self.path
        if path is None:
            raise ValueError("no cache path configured")
        with self._lock:
            lines = [CACHE_HEADER]
            for n, v in enumerate(self._values):
                lines.append(f"{n}\t{v.numerator}/{v.denominator}")
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
                loaded[int(idx_s)] = Fraction(int(num_s), int(den_s))
        with self._lock:
            n = 0
            values = [Fraction(1)]
            while n + 1 in loaded:
                n += 1
                values.append(loaded[n])
            if len(values) > len(self._values):
                self._values = values


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
    """Modified Bernoulli number B_n^* = sum_{r=0}^n C(n+r,2r) B_r/(n+r)."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = Fraction(0)
    for r in range(n + 1):
        br = bernoulli_number(r)
        if br != 0:
            acc += Fraction(comb(n + r, 2 * r), n + r) * br
    return acc


@lru_cache(maxsize=None)
def zagier_polynomial(n: int) -> RationalPolynomial:
    """Zagier polynomial B_n^*(x) = sum_{r=0}^n C(n+r,2r) B_r(x)/(n+r)."""
    if n < 1:
        raise ValueError("n must be positive")
    acc = RationalPolynomial.zero()
    for r in range(n + 1):
        acc = acc + bernoulli_polynomial(r).scale(Fraction(comb(n + r, 2 * r), n + r))
    return acc


def zagier_eval(n: int, x: RationalLike) -> Fraction:
    """Exact B_n^*(x) at rational x (Horner on the cached polynomial)."""
    return zagier_polynomial(n)(x)


@lru_cache(maxsize=None)
def chebyshev_T(n: int) -> RationalPolynomial:
    """Chebyshev polynomial of the first kind, integer coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return RationalPolynomial((Fraction(1),))
    if n == 1:
        return RationalPolynomial((Fraction(0), Fraction(1)))
    two_x = RationalPolynomial((Fraction(0), Fraction(2)))
    return two_x * chebyshev_T(n - 1) - chebyshev_T(n - 2)


@lru_cache(maxsize=None)
def chebyshev_U(n: int) -> RationalPolynomial:
    """Chebyshev polynomial of the second kind: U_0 = 1, U_1 = 2x."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return RationalPolynomial((Fraction(1),))
    if n == 1:
        return RationalPolynomial((Fraction(0), Fraction(2)))
    two_x = RationalPolynomial((Fraction(0), Fraction(2)))
    return two_x * chebyshev_U(n - 1) - chebyshev_U(n - 2)


def _chebyshev_u_at(n: int, x: Fraction) -> Fraction:
    if n < 0:
        return Fraction(0)  # U_{-1} = 0, consistent with the recurrence
    return chebyshev_U(n)(x)


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
