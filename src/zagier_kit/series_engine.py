"""Accelerated evaluation of the slowly convergent Bessel and algebraic series.

The conditionally convergent sums over Y_nu(4 pi m) converge like m^{-1/2}
with oscillation, hopeless to sum naively.  The engine regularizes each
term with +1/(2 sqrt(m)) (making the bracket decay like m^{-3/2}) and folds
the subtracted 1/(2 sqrt(m)) weights into the closed periodic zeta values
C_{1/2}(x), S_{1/2}(x).  Past the Hankel crossover the bracket on the 4 pi m
lattice is a pure power series in 1/m, sum_k b_k m^{-(k+1/2)}, so every
order of the tail beyond the explicit range is summed in closed form, again
through periodic zeta values at s = k + 1/2 (Wood's polylogarithm
expansion).  Their weights fold into Wood's coefficients once per residual
row, so the closed orders together are one polynomial in a(x) with x-free
coefficients (:class:`_Wood`).  At x = 0 each closed order is a Hurwitz zeta value
zeta(k + 1/2, M + 1), a sum of positive terms.  The explicit range
therefore sits at the crossover 2 nu^2/(4 pi), and the tolerance picks how
many orders are closed.  At x != 0 a loose tolerance also cuts the top of
that range: Y_nu(4 pi m) falls like m^{-nu}, so at large nu under a
relative tolerance one or two terms remain.  Where a closed difference
cancels too many digits for the tolerance, the tail past a, the first
M0 2^i >= 6/x', is summed at its own size instead, by the Lerch expansion
(Watson's lemma on the Lerch transcendent, Apostol, Pacific J. Math. 1,
1951), with a rigorous remainder.  The reported bound is the first dropped order plus
the rounding of every piece, plus what the cut dropped or the Lerch
remainder, and a tolerance below it raises.  Every g-sum is one engine
(:func:`_g_sums`): direct terms and an Euler-Maclaurin closure through B_12
of the Taylor coefficients of its completely monotone terms, which a
recurrence gives with majorants (:func:`_taylor`), so the B_14 term bounds
what is left.  A public g-sum (:func:`g_tail_sum`, :func:`conjugate_power_sum`)
is its order 0 after a short prefix, or no term at all when its first term
fits the tolerance.  The formulas' g-sums come from one x-free table of 31
orders per (r, c) (:func:`_g_table`): the polynomial formulas' pair at x and
1 - x is one even or odd polynomial in h = x - 1/2 (:func:`_g_pair`), bounded
by Cauchy's estimate, and the number and type formulas' sum at gap 1 is the
table at h = 1/2 (:func:`_g_one`), bounded by Lagrange's remainder.

Every reduction over m is correctly rounded: it returns exactly what
math.fsum returns for the same terms, so results are reproducible bit for
bit and depend on no order.  Up to 1,024 terms that is math.fsum itself;
longer sums split the terms exactly into a few parts that whole-array
sums add without error (error-free extraction, Rump, Ogita and Oishi,
SIAM J. Sci. Comput. 31, 2008) and round those parts with math.fsum
(:func:`chunked_fsum`).

In a lattice sum only the phases trig(2 pi m x) depend on x.  What does not
is built once and cached, and every cached value is the one a call would
otherwise build, so no value depends on what was cached before:
  * one plan per (nu, lattice) (:func:`_plan`, 512 entries): the bracket
    coefficients b_k and |b_k|, the bracket values through the base
    explicit range M0 (at most 10,760 floats) and their m-sums, the tail
    envelopes at M0 and the weights b_k lattice^{-s} (29 floats each, by
    Python's powers), the envelopes' negated prefix minima, which a call
    bisects for the number K of closed orders (at most 29 floats, an
    array('d')) and the closed tails' rounding per order (2 x at most 29
    floats);
  * the x-free part of a Lerch tail per (nu, lattice, a), a the doubling
    start min(M0 2^i, DEFAULT_MAX_TERMS) (:func:`_watson`, 64 entries): the
    brackets through a (the plan's own at a = M0, at most 20,000 floats
    past it), the orders K it closes and their truncation, the two m-sums
    of |bracket| and the Lerch rows F_n, |F|_n (2 x 49 floats, as lists);
  * the coefficients of the cot-derivative polynomials of the Lerch tail
    (:func:`_cot_table`, 49 x 50 floats, built on first use);
  * at x != 0, one residual row per (nu, lattice, K) (:func:`_residual`,
    512 entries of at most 10,760 + 109 floats): bracket(q) minus its first
    K orders, the Wood polynomial of those K closed orders (at most 2 x 32 +
    29 coefficients, the negligible top ones dropped), the two scalars of the
    closed tails' rounding bound and the stairs of the top cut;
  * at x = 0, where K and the sum depend on neither x nor tol, the finished
    bracket sum and lattice sum per (nu, lattice), the regularizer's closed
    sum and allowance folded into the second (:func:`_zero_sum`, 512
    entries of two results);
  * the Taylor coefficients of a g-sum pair's tail and the finished g-sum
    at gap 1 per (r, c) (:func:`_g_table`, 512 entries of 31 floats, two
    scalars and one result), and the factors every g-sum shares
    (:func:`_g_steps`, built on first use);
  * the Wood polynomial of a unit weight per order and parity
    (:func:`_unit_wood`, at most 60 entries): order 0 gives the regularizer's
    C_{1/2}(x) or S_{1/2}(x), and all of them :func:`periodic_zeta`;
  * built once on first use: Wood's coefficient tables (:func:`_wood_tables`);
  * at import, one read-only row m = 1..DEFAULT_MAX_TERMS (160 KB), from
    which every call slices the indices of its phases.
  Nothing is kept per x.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass, field
from math import pi, sqrt
from typing import NamedTuple

import numpy as np

from .specfun import (ASYM_Z_MIN, HANKEL_ORDERS, _bernoulli_ratios, _hankel_sum, _hankel_top,
                      _orders_sum, asymptotic_crossover, bessel_Y01, bessel_Y_upward, hankel_lattice,
                      hurwitz_zeta)

__all__ = [
    "SeriesResult",
    "SeriesConvergenceError",
    "TrigPowerSums",
    "trig_power_sums",
    "periodic_zeta",
    "g_tail_sum",
    "conjugate_power_sum",
    "bessel_cos_series",
    "bessel_sin_series",
    "lattice_bessel_sum",
    "regularized_bracket_sum",
    "bessel_series_partial",
    "chunked_fsum",
    "DEFAULT_TOL",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_X_WINDOW",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_TERMS = 20000  # the cap on the Lerch range a and on a g-sum prefix
DEFAULT_X_WINDOW = (0.01, 0.99)

_FSUM_CUTOFF = 1024  # sums up to this length go to math.fsum of a list, which is faster there
_BLOCK = 1 << 15     # floats per block of the extraction passes
_LEVELS = 2          # extraction levels per block and pass
_MAX_PASSES = 4      # passes before a sum falls back to math.fsum
_ORDERS = HANKEL_ORDERS  # orders k of the bracket expansion sum_k b_k m^{-(k+1/2)}
_WOOD_TERMS = 64    # terms of Wood's expansion; 2^{-64} is far below rounding
_EPS = 2.2e-16      # two units of double rounding
_ZETA_EPS = 2.5e-15  # of sum_k |w_k|: a Wood polynomial (0.9 of it against mpmath) and the subtraction
_EM_ORDERS = 6       # Euler-Maclaurin corrections B_2..B_12 that close a g-sum prefix
_EM_START = 4        # the shortest g-sum prefix they close
_LERCH_TERMS = 48    # the last order n of the Lerch expansion; 2 pi x'(a + 1) > 12 pi needs ~40
_LERCH_REACH = 6.0   # the Lerch tail starts past a >= _LERCH_REACH/x'
_G_SPLIT = 2         # J: a g-sum pair sums j < J directly, and its table's Taylor orders the rest
_G_ORDERS = 30       # K: the table's orders; q <= 1/4 leaves 2^-62 of A(1/2) past them
_G_FAR = 16          # N*: the table closes its sums by Euler-Maclaurin from j = N*
_G_TOP = _G_ORDERS + 2 * _EM_ORDERS + 1  # the highest order of f the closure takes, at B_14


class SeriesConvergenceError(RuntimeError):
    """Requested tolerance unreachable; `best` holds the result that missed it."""

    def __init__(self, message: str, best: "SeriesResult | None" = None):
        super().__init__(message)
        self.best = best


class SeriesResult(NamedTuple):
    """A series value, the terms summed one by one and a bound on its error: a named
    tuple, immutable and hashable, and built without a setattr per field."""

    value: float
    terms_used: int
    tail_bound: float
    outside_window: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class TrigPowerSums:
    """Closed values of sum_m cos(2 pi m x)/m^{s} and the sine companion.

    `cos_sum_half`/`sin_sum_half` carry s = 1/2; `higher` maps odd k >= 3 to
    the pair for s = k/2.
    """

    x: float
    cos_sum_half: float
    sin_sum_half: float
    higher: dict[int, tuple[float, float]] = field(default_factory=dict)


def chunked_fsum(values: np.ndarray) -> float:
    """The correctly rounded sum of values, bit for bit ``math.fsum(values.tolist())``.

    Past _FSUM_CUTOFF values the sum comes from :func:`_extracted_sum`;
    where that declines, and for short arrays, math.fsum forms it, so its
    exceptions and signs of zero are kept."""
    flat = np.ascontiguousarray(values, dtype=float)
    if flat.size > _FSUM_CUTOFF and (total := _extracted_sum(flat)) is not None:
        return total
    return math.fsum(flat.tolist())


def _extract(src: np.ndarray, sigma: float, q: np.ndarray, rem: np.ndarray) -> None:
    """q = (sigma + src) - sigma and rem = src - q, both without rounding
    when sigma is a power of two at least (size + 2) max|src|."""
    np.add(src, sigma, out=q)
    np.subtract(q, sigma, out=q)
    np.subtract(src, q, out=rem)


def _extracted_sum(p: np.ndarray) -> float | None:
    """math.fsum of a 1-D float array by error-free extraction, or None.

    The array is read in blocks of _BLOCK floats.  A level takes sigma, the
    power of two at least (size + 2) max|r| for the block's remainder r;
    then q = (sigma + r) - sigma is a multiple of 2^-53 sigma with
    |q| <= sigma/(size + 2), so the whole-block sum of q is exact, and r - q
    is the next remainder, at most 2^-53 sigma (Rump, Ogita and Oishi,
    Accurate floating-point summation, SIAM J. Sci. Comput. 31, 2008).
    A pass adds _LEVELS levels to every block, recomputing its remainder
    from the block's kept sigmas.  What is left sums to at most
    bound = sum over blocks of size max|r|, and rounding is monotone, so once
    fsum(parts - bound) and fsum(parts + bound) agree with fsum(parts),
    that is fsum of the whole array, half-ulp ties included.  Returns None
    for a non-finite value, a sigma near overflow or with 2^-53 sigma
    subnormal, a sum still undecided after _MAX_PASSES passes, and an exact
    zero, whose sign is math.fsum's to choose.
    """
    blocks = [p[i : i + _BLOCK] for i in range(0, p.size, _BLOCK)]
    q, rem = np.empty(blocks[0].size), np.empty(blocks[0].size)
    kept: list[list[float]] = [[] for _ in blocks]
    parts: list[float] = []
    for _ in range(_MAX_PASSES):
        bounds = []
        for blk, sigmas in zip(blocks, kept):
            t, r = q[: blk.size], rem[: blk.size]
            src = blk
            for sigma in sigmas:
                _extract(src, sigma, t, r)
                src = r
            grow = (blk.size + 1).bit_length()  # 2^grow >= size + 2
            top = max(float(src.max()), -float(src.min()))  # inf or nan if the block holds one
            if not math.isfinite(top):
                return None
            for _ in range(_LEVELS):
                if not top:
                    break
                exp = math.frexp(top)[1] + grow
                if exp > 1020 or exp < -969:
                    return None
                sigmas.append(2.0**exp)
                _extract(src, sigmas[-1], t, r)
                src = r
                parts.append(float(t.sum()))
                top = max(float(r.max()), -float(r.min()))
            bounds.append(top * 2.0**grow)
        total = math.fsum(parts)
        bound = math.nextafter(math.fsum(bounds), math.inf)
        if math.fsum(parts + [bound]) == total == math.fsum(parts + [-bound]):
            return total or None
    return None


@functools.cache
def _wood_tables() -> tuple[np.ndarray, ...]:
    """Wood's expansions of :func:`periodic_zeta` as even polynomials in a,
    row k for s = k + 1/2, k = 0.._ORDERS.

    Returns (cos, sin, gamma_c, gamma_s).  Columns i < h = _WOOD_TERMS/2 of
    cos and sin hold the expansion about x = 0, cos[k, i] = (-1)^i zeta(s - 2i)/(2i)!
    and sin[k, i] = (-1)^i zeta(s - 2i - 1)/(2i + 1)!, and columns h + i the one
    about x = 1/2, cos[k, h + i] = -(-1)^i eta(s - 2i)/(2i)! and sin[k, h + i] =
    (-1)^i eta(s - 2i - 1)/(2i + 1)! with eta(z) = (1 - 2^{1-z}) zeta(z);
    gamma_c[k] + i gamma_s[k] = Gamma(1-s) e^{-i pi (s-1)/2}.  Zeta at positive
    half-integers comes from :func:`specfun.hurwitz_zeta` at 1, at negative
    ones from the reflection zeta(z) = 2^z pi^{z-1} sin(pi z/2) Gamma(1-z) zeta(1-z).
    Built on first use, so importing the package costs nothing.
    """
    positive = [hurwitz_zeta(k + 0.5, 1.0) for k in range(max(_ORDERS, _WOOD_TERMS) + 1)]

    def zeta_at(k: int) -> float:  # zeta(k + 1/2)
        if k >= 0:
            return positive[k]
        h = k + 0.5
        return 2.0**h * pi ** (h - 1.0) * math.sin(pi * h / 2.0) * math.gamma(1.0 - h) * positive[-k]

    def row(k: int, parity: int) -> list[float]:
        near, far = [], []
        for i in range(_WOOD_TERMS // 2):
            j = 2 * i + parity
            zeta, scale = zeta_at(k - j), (-1.0) ** i * (1 / math.factorial(j))
            near.append(zeta * scale)
            far.append((1.0 - 2.0 ** (0.5 - k + j)) * zeta * (scale if parity else -scale))
        return near + far

    ks = range(_ORDERS + 1)
    gamma = np.array([math.gamma(0.5 - k) for k in ks])
    theta = pi * (np.arange(_ORDERS + 1) - 0.5) / 2.0
    tables = (np.array([row(k, 0) for k in ks]), np.array([row(k, 1) for k in ks]),
              gamma * np.cos(theta), -gamma * np.sin(theta))
    for table in tables:
        table.flags.writeable = False
    return tables


def _horner(row: tuple[float, ...] | array, t: float) -> float:
    """The polynomial with coefficients row, highest power first, at t."""
    total = 0.0
    for a in row:
        total = total * t + a
    return total


@dataclass(frozen=True)
class _Wood:
    """sum_k w_k T_s(x) over orders k = lo, lo + 1, ..., s = k + 1/2, with T_s = C_s,
    or S_s when odd, of :func:`periodic_zeta`: Wood's expansions with the weights
    folded in (:func:`_wood`), so that only a, a^2 and Horner's rule depend on x."""

    near: array      # coefficients in a^2 of the regular part at t <= 1/4, highest first
    singular: array  # coefficients in a of sum_k w_k Gamma-term a^{k-lo}, highest first
    far: array       # coefficients in a^2 at t > 1/4, highest first
    lo: int
    odd: bool

    def at(self, x: float) -> float:
        """The sum at 0 <= x < 1: t = min(x, 1 - x), a = 2 pi t and the singular part
        times a^{lo-1/2} for t <= 1/4, else a = pi (1 - 2t); the sine parts carry one
        more a and turn sign past 1/2.  At x = 0 it is sum_k w_k zeta(s), 0 when odd."""
        t = 1.0 - x if x > 0.5 else x
        if t <= 0.25:
            if x == 0.0:
                return 0.0 if self.odd else self.near[-1]
            a = 2.0 * pi * t
            head, rows = _horner(self.singular, a) * a ** (self.lo - 0.5), self.near
        else:
            a = pi * (1.0 - 2.0 * t)
            head, rows = 0.0, self.far
        value = _horner(rows, a * a)
        if not self.odd:
            return value + head
        value = a * value + head
        return -value if x > 0.5 else value


_WOOD_CUT = 1e-18  # of sum_k |w_k|: what the dropped top coefficients may add at a = pi/2
# a^{2i}, or a^{2i+1} for the sine, at a = pi/2 by Python's power, for both halves of a table
_WOOD_SIZE = tuple(np.array([(0.5 * pi) ** j for j in range(odd, _WOOD_TERMS + odd, 2)] * 2)
                   for odd in (0, 1))


def _wood(weights, lo: int, odd: bool) -> _Wood:
    """The :class:`_Wood` of weights w_k at orders k = lo, lo + 1, ...

    At a <= pi/2 the expansions' terms fall like 4^{-j}.  A column of the
    products w_k times :func:`_wood_tables` is bounded by the sum of their
    sizes, which numpy adds in order of k, and in each half of the table the
    top columns whose bounds at a = pi/2 together stay below _WOOD_CUT
    sum_k |w_k| are dropped, which leaves 11 to 29 of the 32.  Each
    coefficient kept is one math.fsum of its column; the singular ones are
    single products."""
    tables, half = _wood_tables(), _WOOD_TERMS // 2
    w = np.asarray(weights, dtype=float)
    rows = slice(lo, lo + w.size)
    terms = w[:, None] * tables[odd][rows]
    bounds = (np.abs(terms).sum(axis=0) * _WOOD_SIZE[odd]).tolist()
    columns = list(zip(*terms.tolist()))
    cut = _WOOD_CUT * float(np.abs(w).sum())

    def folded(start: int) -> array:  # highest power first
        top, dropped = start + half, 0.0
        while top > start + 1 and (dropped := dropped + bounds[top - 1]) <= cut:
            top -= 1
        return array("d", [math.fsum(columns[i]) for i in range(top - 1, start - 1, -1)])

    singular = array("d", (w * tables[2 + odd][rows])[::-1].tolist())
    return _Wood(folded(0), singular, folded(half), lo, odd)


@functools.lru_cache(maxsize=2 * (_ORDERS + 1))  # every order of both parities
def _unit_wood(k: int, odd: bool) -> _Wood:
    """The :class:`_Wood` of one unit weight at order k: C_{k+1/2}, or S_{k+1/2} when odd."""
    return _wood(np.ones(1), k, odd)


def periodic_zeta(x: float, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """C_s(x) = sum_m cos(2 pi m x)/m^s and S_s(x) = sum_m sin(2 pi m x)/m^s
    for s = 1/2, 3/2, ..., k_max + 1/2 (entry k holds s = k + 1/2), 0 <= x < 1.

    C_s + i S_s = Li_s(e^{2 pi i t}) at t = min(x, 1-x), conjugated for
    x > 1/2.  For t <= 1/4 Wood's expansion about e^0 (Wood 1992, "The
    computation of polylogarithms")
        Li_s(e^mu) = Gamma(1-s) (-mu)^{s-1} + sum_j zeta(s-j) mu^j/j!,
    mu = 2 pi i t; for t > 1/4 the regular expansion about e^{i pi}
        Li_s(-e^v) = -sum_j eta(s-j) v^j/j!,  v = i pi (2t - 1).
    Either way |mu|, |v| <= pi/2, so the terms fall like 2^{-j} and their
    sum carries at most ~e^{pi/2} times the value's rounding.  At x = 0 the
    pair is (zeta(s), 0); for s = 1/2 that is the analytic continuation.
    Each entry is the :class:`_Wood` of a unit weight at its order
    (:func:`_unit_wood`), so it is the same whatever k_max; nothing is
    cached per x.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    if not 0 <= k_max <= _ORDERS:
        raise ValueError(f"k_max must lie in [0, {_ORDERS}]")
    return tuple(np.array([_unit_wood(k, odd).at(x) for k in range(k_max + 1)]) for odd in (False, True))


def trig_power_sums(x: float) -> TrigPowerSums:
    """Half-integer trigonometric power sums at x in (0, 1).

    The s = 1/2 pair and the absolutely convergent exponents 3/2, 5/2, 7/2,
    all from :func:`periodic_zeta`.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    c, s = periodic_zeta(x, 3)
    higher = {2 * k + 1: (float(c[k]), float(s[k])) for k in (1, 2, 3)}
    return TrigPowerSums(x=x, cos_sum_half=float(c[0]), sin_sum_half=float(s[0]),
                         higher=higher)


# ---------------------------------------------------------------------------
# the Lerch tail sum_{m>a} e^{2 pi i m x} f(m)
# ---------------------------------------------------------------------------

@functools.cache
def _cot_table() -> np.ndarray:
    """Row n holds the coefficients of c^j in h_n(c) = |cot^(n)(theta)|/(n! 2^{n+1}),
    c = cot theta in [0, inf), n = 0.._LERCH_TERMS.

    cot^(n) = (-1)^n Q_n(c) with Q_0 = c and Q_{n+1} = (1 + c^2) Q_n', so every
    coefficient of Q_n is a nonnegative integer and h_n(c) sums terms of one
    sign.  Each entry is one correctly rounded integer quotient."""
    table = np.zeros((_LERCH_TERMS + 1, _LERCH_TERMS + 2))
    q = [0, 1]
    for n in range(_LERCH_TERMS + 1):
        scale = math.factorial(n) << (n + 1)
        table[n, : len(q)] = [v / scale for v in q]
        dq = [j * v for j, v in enumerate(q)][1:] + [0, 0]
        q = [dq[j] + (dq[j - 2] if j >= 2 else 0) for j in range(len(dq))]
    table.flags.writeable = False
    return table


_LERCH_SIGNS = np.array([(-1.0) ** (n // 2) for n in range(_LERCH_TERMS + 1)])
# row j, column n: the rising factorial (s)_n at s = j + 1/2, an integer over 2^n
# rounded once
_RISING = np.array([[math.prod(range(2 * j + 1, 2 * (j + n), 2)) / 2**n
                     for n in range(_LERCH_TERMS + 1)] for j in range(_ORDERS + 1)])


def _lerch_rows(coeffs, lo: int, a: int) -> tuple[list[float], list[float]]:
    """(sigma_n F_n, |F|_n), n = 0.._LERCH_TERMS as two lists, the x-free half of :func:`_lerch_sum`
    for f(m) = sum_k c_k m^{-s_k}, s_k = lo + k + 1/2: F_n = sum_k c_k (s_k)_n
    (a+1)^{-s_k-n}, |F|_n the same sum of |terms| and sigma_n = (-1)^{floor(n/2)}
    the sign H_n's part carries.  The weights c_k (a+1)^{-s_k} are Python's
    powers and (a+1)^{-n} the running product of 1/(a+1), so with the rounded
    (s_k)_n of _RISING a term carries at most 2n + 5 units of 2^-53 before
    the sum over k."""
    a1 = float(a + 1)
    coeffs = np.asarray(coeffs).tolist()
    weights = np.array([c * a1 ** -(lo + k + 0.5) for k, c in enumerate(coeffs)])
    rising = _RISING[lo : lo + weights.size]
    scale = np.full(_LERCH_TERMS + 1, 1.0 / a1)
    scale[0] = 1.0
    np.cumprod(scale, out=scale)
    # sums of products, not BLAS or einsum, whose first use in a process starts
    # buffers of about 0.5 MB, and whose sums may change with the BLAS threads
    return ((_LERCH_SIGNS * scale * (rising * weights[:, None]).sum(axis=0)).tolist(),
            (scale * (rising * np.abs(weights)[:, None]).sum(axis=0)).tolist())


def _lerch_sum(x: float, a: int, rows: tuple[list[float], list[float]],
               orders: int) -> tuple[float, float, float, float]:
    """(Re T, Im T, remainder bound, rounding) for T = sum_{m>a} z^m f(m), z = e^{2 pi i x},
    0 < x < 1, f(m) = sum_k c_k m^{-s_k} over `orders` orders, rows from :func:`_lerch_rows`.

    With m^{-s} = Gamma(s)^{-1} integral_0^inf t^{s-1} e^{-m t} dt the tail is
    z^{a+1} Gamma(s)^{-1} integral t^{s-1} e^{-(a+1) t} g(t) dt, g(t) = 1/(1 - z e^{-t})
    (Apostol, Pacific J. Math. 1, 1951), and Watson's lemma with the Taylor
    coefficients H_n of g gives T = z^{a+1} sum_{n<N} H_n F_n + R.  Here
    g(t) = 1/2 + (i/2) cot(pi x + i t/2), so H_0 = 1/2 + i h_0 and H_n =
    i (-i)^n h_n with h_n of :func:`_cot_table` at c = cot(pi x'), x' =
    min(x, 1 - x): odd n feed the real part and even n the imaginary part,
    with the signs sigma_n.  For x > 1/2, T is the conjugate of the tail at x'.

    Partial fractions, g(t) = 1/2 - sum_k 1/(p_k - t) with p_k = 2 pi i (x' - k)
    on the imaginary axis, so |p_k - t| >= |p_k| for real t, bound the
    Taylor remainder on the whole half-line: |g - sum_{n<N} H_n t^n| <= t^N
    sum_k |p_k|^{-N-1}, which is |H_N| = h_N for odd N.  Hence
    |R| <= h_N sum_k |c_k| (s_k)_N (a+1)^{-s_k-N}, for any a and x'.  N is
    the first odd order whose remainder is below _EPS of the terms before
    it, else the odd order of the smallest remainder: fixed by bounds alone,
    before anything is summed.  The terms fall like ((s + n)/(2 pi x' (a+1)))^n,
    so a >= _LERCH_REACH/x' lets them fall far.
    The rounding counts 4n + orders + 7 units of _EPS per term (c carries 4
    units of 2^-53, so h_n about 6n + 8, and F_n 2n + orders + 5), at most
    4N + orders + 3, and the turn of the phase 2 pi x'(a+1)."""
    F, F_abs = rows
    t = 1.0 - x if x > 0.5 else x
    c = math.cos(pi * t) / math.sin(pi * t)
    # c^j for j < top stays below e^700; below x' ~ 1e-7 the rows of h that need
    # a higher power are infinite and never summed
    top = _LERCH_TERMS + 2 if c <= 1.0 else min(_LERCH_TERMS + 2, int(700.0 / math.log(c)) + 1)
    powers = np.full(top, c)
    powers[0] = 1.0
    np.cumprod(powers, out=powers)
    h = ((_cot_table()[: top - 1, :top] * powers).sum(axis=1).tolist()
         + [math.inf] * (_LERCH_TERMS + 2 - top))
    sizes = [hn * fn for hn, fn in zip(h, F_abs)]
    sizes[0] += 0.5 * F_abs[0]  # |H_0| <= 1/2 + h_0
    N, before = 1, sizes[0]
    for n in range(1, min(_LERCH_TERMS, top - 1), 2):
        if sizes[n] <= _EPS * before:
            N = n
            break
        if sizes[n] < sizes[N]:
            N = n
        before += sizes[n] + sizes[n + 1]
    terms = [hn * fn for hn, fn in zip(h[:N], F)]
    re, im = math.fsum([0.5 * F[0]] + terms[1::2]), math.fsum(terms[0::2])
    turn = t * (a + 1)
    angle = 2.0 * pi * math.fmod(turn, 1.0)
    cs, sn = math.cos(angle), math.sin(angle)
    real, imag = cs * re - sn * im, sn * re + cs * im
    rounding = _EPS * (4 * N + orders + 13 + 2.0 * pi * turn) * math.fsum(sizes[:N])
    remainder = sizes[N] * (1.0 + (4 * N + orders + 7) * _EPS)
    return real, (-imag if x > 0.5 else imag), remainder, rounding


# ---------------------------------------------------------------------------
# algebraic g-series
# ---------------------------------------------------------------------------

def _f(gap: float, r: float, c: float) -> tuple[float, float, float, float]:
    """(f, rho, w, w^{2r}) at A = c + gap for the g-sum term f(A) = w^{2r}/rho, rho =
    sqrt(A^2 - c^2) and w = A - rho, with rho^2 formed as gap (gap + 2c) and w as
    c^2/(A + rho): a small gap keeps its digits, nothing cancels, w carries at
    most 4.5 units of 2^-53 and Python's power 9 r + 1 more (OverflowError for
    w > 1 and a huge r)."""
    rho = sqrt(gap * (gap + 2.0 * c))
    w = c * c / (c + gap + rho)
    wp = w ** (2.0 * r)
    return wp / rho, rho, w, wp


def _g_edge(gap: float, r: float, c: float) -> tuple[float, float, float]:
    """(I + f(a0)/2, bound, f(a0)) for sum_{j>=0} f(a0 + j), a0 = c + gap, with no term
    summed: f is positive and decreasing, so the sum lies in [I, I + f(a0)], I =
    w(a0)^{2r}/(2r).  The bound is f(a0)/2, the rounding (:func:`_f`'s and a few
    units) and 2^-1075 for each of the five parts that may round below the
    normal range, the power's reaching f/2 and I through 1/(2 rho) and 1/(2r)."""
    f, rho, _, wp = _f(gap, r, c)
    half, integral = 0.5 * f, wp / (2.0 * r)
    bound = (half + _EPS * (5.0 * r + 3.0) * (integral + 2.0 * half)
             + 2.0**-1074 * (2.0 + 0.25 / rho + 0.25 / r))
    return integral + half, bound, f


@functools.cache
def _g_steps() -> tuple[list[float], list[float], list[float], np.ndarray, list[float]]:
    """The x- and r-free factors of :func:`_taylor` and :func:`_g_sums`: -(2k + 3)/(k + 2),
    (k + 1)^2 and 1/((k + 1)(k + 2)) for the steps k = 0.._G_TOP - 2, and the
    Euler-Maclaurin weights -B_2i/(2i)! (k + 1)...(k + 2i - 1) of f^(k+2i-1)/(k+2i-1)!
    in the sum of f^(k)/k!, row k <= _G_ORDERS, i = 1..7, and row 0 as a list."""
    ks = [float(k) for k in range(_G_TOP - 1)]
    ratios = _bernoulli_ratios()[: _EM_ORDERS + 1]
    weights = [[-ratio * math.prod(range(k + 1, k + 2 * i)) for i, ratio in enumerate(ratios, 1)]
               for k in range(_G_ORDERS + 1)]
    return ([-(2.0 * k + 3.0) / (k + 2.0) for k in ks], [(k + 1.0) * (k + 1.0) for k in ks],
            [1.0 / ((k + 1.0) * (k + 2.0)) for k in ks], np.array(weights), weights[0])


def _taylor(r: float, c: float, g, f, rho, w, top: int):
    """a_k = f^(k)(A)/k! and majorants b_k >= |a_k|, k = 0..top, at A = c + g (:func:`_f`).

    f solves (A^2 - c^2) f'' + 3A f' + (1 - 4r^2) f = 0, the Laplace-transformed
    Bessel equation, so from a_0 = f and a_1 = -(f/rho)(2r + 1 + w/rho)
        a_{k+2} = -[A (k+1)(2k+3) a_{k+1} + ((k+1)^2 - 4r^2) a_k]/(rho^2 (k+1)(k+2)).
    Past k + 1 = 2r the second product subtracts; the same step with both
    products' magnitudes gives b_k, and a_k errs by at most (6r + 6 + 4k)
    units _EPS of b_k (f's own rounding and four units per step).  One point gives two
    lists in plain floats; an array of points one array of rows k, a then b.
    """
    s1, squares, s2 = _g_steps()[:3]
    inv = 1.0 / (g * (g + 2.0 * c))  # rho^{-2}
    a1 = -(f / rho) * (2.0 * r + 1.0 + w / rho)
    p, four = (c + g) * inv, 4.0 * r * r
    # a_{k+2} = t1 a_{k+1} + t2 a_k with t1 = s1_k p and t2 = (4r^2 - squares_k) s2_k inv;
    # s1 < 0 < p, inv, so b_{k+2} = -t1 b_{k+1} + |t2| b_k
    if not isinstance(g, np.ndarray):
        a, b = [f, a1], [f, abs(a1)]
        for u, q, v in zip(s1[: top - 1], squares, s2):
            t1, t2 = u * p, (four - q) * v * inv
            a.append(t1 * a[-1] + t2 * a[-2])
            b.append(abs(t2) * b[-2] - t1 * b[-1])
        return a, b
    t1 = np.multiply.outer(s1[: top - 1], p)
    t2 = np.multiply.outer((four - np.array(squares[: top - 1])) * s2[: top - 1], inv)
    step1, step2 = np.concatenate([t1, -t1], axis=1), np.concatenate([t2, np.abs(t2)], axis=1)
    rows = np.empty((top + 1, 2 * g.size))
    rows[0], rows[1] = np.concatenate([f, f]), np.concatenate([a1, np.abs(a1)])
    for k in range(top - 1):
        np.multiply(step1[k], rows[k + 1], out=rows[k + 2])
        rows[k + 2] += step2[k] * rows[k]
    return rows


def _g_sums(r: float, c: float, start: float, count: int, orders: int,
            at: tuple[list[float], list[float]] | None = None) -> tuple[list[float], list[float]]:
    """(D, errors): D_k = sum_{j >= 0} f^(k)(c + start + j)/k!, k <= orders, f of
    :func:`_f`, and a bound on the error of each.  At order 0, at holds the two
    lists of :func:`_taylor` at A*, which the caller formed to choose count.

    The terms j < count are direct, and Euler-Maclaurin at A* = c + start + count
    through B_12 closes the rest with integral_{A*}^inf f^(k) = -f^(k-1)(A*)
    and w^{2r}/(2r) at k = 0, all one math.fsum.  f(A) = c^{2r} integral_0^inf
    e^{-As} I_{2r}(cs) ds (Gradshteyn-Ryzhik 6.611), so (-1)^k f^(k) is
    completely monotone and the B_14 term bounds the remainder; the error adds
    each part's rounding, from :func:`_taylor`'s majorants, and _EPS |D_k|.
    Past order 0 the recurrence runs on every point at once and the closure on
    every order at once; at order 0 only A* needs it, in plain floats.  The
    points' rho and w are :func:`_f`'s in one pass, since numpy's square roots,
    sums, products and quotients round correctly; every power is Python's.
    """
    two_r, top = 2.0 * r, orders + 2 * _EM_ORDERS + 1
    g = np.array([start + j for j in range(count + 1)], dtype=float)  # each rounded once, as _f's gap
    rho = np.sqrt(g * (g + 2.0 * c))
    w = c * c / (c + g + rho)
    wps = [v**two_r for v in w.tolist()]
    f, wp = np.array(wps) / rho, wps[-1]
    if not orders:
        (a, b), fs = at, f.tolist()
        unit, integral = _EPS * (6.0 * r + 6.0), wp / two_r
        parts, slack = fs[:-1] + [integral, 0.5 * a[0]], [(math.fsum(fs) + integral) * unit]
        for k, weight in zip(range(1, top + 1, 2), _g_steps()[4]):
            parts.append(weight * a[k])
            slack.append(abs(weight) * b[k] * (unit + 4.0 * k * _EPS))
        truncation, value = abs(parts.pop()), math.fsum(parts)
        return [value], [math.fsum(slack) + truncation + _EPS * abs(value)]
    rows = _taylor(r, c, g, f, rho, w, top)
    a, b = rows[:, : g.size], rows[:, g.size :]
    ks = np.arange(orders + 1)
    at = a[:, -1]  # the a_k at A*
    weights = _g_steps()[3][: orders + 1]
    integral = np.concatenate([[wp / two_r], -at[:orders] / ks[1:]])
    higher = ks[:, None] + 2 * np.arange(1, _EM_ORDERS + 2) - 1  # the order k + 2i - 1
    corrections = weights * at[higher]
    parts = np.concatenate([a[: orders + 1, :-1], integral[:, None], 0.5 * at[: orders + 1, None],
                            corrections[:, :-1]], axis=1)
    coefs = [math.fsum(row) for row in parts.tolist()]
    unit = _EPS * (6.0 * r + 6.0 + 4.0 * np.arange(top + 1.0))
    # the B_14 term, then each part's rounding: the a_k at every point (the last
    # one for half the term), the integral and the corrections
    integral_b = np.concatenate([integral[:1], b[:orders, -1] / ks[1:]])
    slack = np.concatenate([np.abs(corrections[:, -1:]), b[: orders + 1] * unit[: orders + 1, None],
                            (integral_b * unit[: orders + 1])[:, None],
                            np.abs(weights) * b[higher, -1] * unit[higher]], axis=1).tolist()
    return coefs, [math.fsum(row) + _EPS * abs(d) for row, d in zip(slack, coefs)]


def conjugate_power_sum(a0: float, r: float, csq: float, tol: float = 1e-12) -> SeriesResult:
    """sum_{j>=0} f(a0 + j) with f(A) = (A - sqrt(A^2-csq))^{2r}/sqrt(A^2-csq).

    Terms fall off like (c/2A)^{2r}/A.  Euler-Maclaurin through B_12 closes a
    prefix of 4, 8, 16, ... terms, the first whose B_14 term fits tol, at
    most DEFAULT_MAX_TERMS (SeriesConvergenceError past it), or none when
    half the first term fits tol (:func:`_conjugate_sum`).  The bound adds
    the rounding, which drives neither the prefix nor the raise.
    """
    if r < 0.5:
        raise ValueError("exponent r must be >= 1/2 for a usable tail bound")
    return _conjugate_sum(a0 - sqrt(csq), r, sqrt(csq), tol)


def _conjugate_sum(gap, r, c, tol=1e-12):
    """:func:`conjugate_power_sum` at a0 = c + gap, any r > 0, from the gap (:func:`_f`):
    empty when half of f(a0) and its rounding fit tol (:func:`_g_edge`), else
    order 0 of :func:`_g_sums` with N direct terms, N the first of _EM_START,
    twice that, ... whose B_14 term, from :func:`_taylor` at a0 + N, fits tol."""
    if gap <= 0.0:
        raise ValueError("series start must satisfy a0 > sqrt(csq)")
    value, bound, _ = _g_edge(gap, r, c)
    if bound <= tol:
        return SeriesResult(value, 0, bound)
    n_direct, top = _EM_START, 2 * _EM_ORDERS + 1
    while True:
        at = _taylor(r, c, gap + n_direct, *_f(gap + n_direct, r, c)[:3], top)
        truncation = abs(_g_steps()[4][-1] * at[0][top])
        if not truncation > tol or n_direct >= DEFAULT_MAX_TERMS:
            break
        n_direct = min(2 * n_direct, DEFAULT_MAX_TERMS)
    (value,), (bound,) = _g_sums(r, c, gap, n_direct, 0, at)
    result = SeriesResult(value, n_direct, bound)
    if truncation > tol:
        raise SeriesConvergenceError(f"conjugate_power_sum: Euler-Maclaurin correction {truncation:.2e} "
                                     f"exceeds tol {tol:.2e} at the {DEFAULT_MAX_TERMS}-term cap", result)
    return result


def g_tail_sum(r: float, x: float, tol: float = 1e-12) -> SeriesResult:
    """sum_{m >= 1} g(m, r, x) on the gap A - 2 = m - 1 + x (:func:`_conjugate_sum`); the
    sum from m = k is g_tail_sum(r, x + k - 1).  Even r = 1/2 sums 16 terms at tol 1e-17."""
    if r < 0.5:
        raise ValueError("g_tail_sum requires r >= 1/2")
    return _conjugate_sum(x, r, 2.0, tol)


@functools.lru_cache(maxsize=512)  # 31 floats, two scalars and one SeriesResult each
def _g_table(r: float, c: float) -> tuple[tuple[float, ...], tuple[float, ...], float, float, SeriesResult]:
    """(even, odd, size, error, one): the x-free part of :func:`_g_pair` for one (r, c).

    D_k = sum_{j >= J} f^(k)(c + 1/2 + j)/k!, k <= K (J = _G_SPLIT, K = _G_ORDERS),
    are the Taylor coefficients about g = 1/2 of the tail T(g) = sum_{j >= J}
    f(c + g + j) of A(g) = sum_{j >= 0} f(c + g + j): :func:`_g_sums` with
    N* - J direct terms (N* = _G_FAR).  even holds D_0, D_2, ..., D_K and odd
    D_1, ..., D_{K-1}, highest first; size bounds A(1/2) = sum_{j<J} f(c + 1/2 + j)
    + D_0, and error 2 sum_k |error of D_k| 2^{-k}.

    one is A(1) = f(c + 1) + f(c + 2) + T(1), T(1) = sum_{k<K} D_k 2^{-k}: two
    one-signed Horner sums in h^2 = 1/4 and one math.fsum.  (-1)^K T^(K) is
    positive and decreasing, so Lagrange's remainder at h = 1/2 is at most
    |D_K| 2^{-K}; the bound adds it, half the table's error (which counts
    both sides of a pair) and the rounding.  terms_used counts the direct
    terms and the orders summed.
    """
    coefs, errors = _g_sums(r, c, 0.5 + _G_SPLIT, _G_FAR - _G_SPLIT, _G_ORDERS)
    error = 2.0 * math.fsum(e * 0.5**k for k, e in enumerate(errors))
    head = [_f(0.5 + j, r, c)[0] for j in range(_G_SPLIT)]
    size = math.fsum(head + coefs[:1]) * (1.0 + _EPS * (6.0 * r + 6.0)) + errors[0]
    even, odd = tuple(coefs[::-2]), tuple(coefs[-2::-2])
    near = [_f(float(j), r, c)[0] for j in range(1, _G_SPLIT + 1)]
    evens, odds = _horner(even[1:], 0.25), 0.5 * _horner(odd, 0.25)
    value = math.fsum(near + [evens, odds])
    rounding = (_EPS * (6.0 * r + 4.0) * sum(near) + _EPS * (_G_ORDERS + 4) * (abs(evens) + abs(odds))
                + _EPS * abs(value))
    one = SeriesResult(value, _G_SPLIT + _G_ORDERS, abs(even[0]) * 0.5**_G_ORDERS + 0.5 * error + rounding)
    return even, odd, size, error, one


def _g_pair(x: float, sign: float, r: float, c: float, tol: float, table: tuple | None = None) -> SeriesResult:
    """A(x) + sign A(1 - x), sign = +1 or -1, 0 < x < 1, for the g-sums
    A(g) = sum_{j >= 0} f(c + g + j) of :func:`_conjugate_sum`.

    With h = x - 1/2 the tails past j = J (:func:`_g_table`) are
    T(x) + sign T(1 - x) = 2 sum_k D_k h^k over the k of sign's parity, one
    Horner sum in h^2 of one sign, since (-1)^k D_k > 0; with the terms
    j < J of both sides it is one math.fsum.  T is completely monotone on
    g > -J, so on the disc |g - 1/2| <= J it is at most T(1/2 - J) = A(1/2),
    and by Cauchy's estimate the orders k >= k0 of sign's parity add at most
    2 A(1/2) q^{k0}/(1 - q^2), q = |h|/J.  The call sums the fewest orders
    whose bound fits tol and raises SeriesConvergenceError when all K do
    not; the bound adds the table's error and the rounding.  When half of
    each side's first term fits tol nothing is summed (:func:`_g_edge`); the
    table, unless the caller passes it, is fetched first, so every call leaves
    it built.  terms_used counts the direct terms and the orders summed.
    """
    even, odd, size, error, _ = table or _g_table(r, c)
    x = float(x)
    y = 1.0 - x
    (value_x, bound_x, f_x), (value_y, bound_y, f_y) = _g_edge(x, r, c), _g_edge(y, r, c)
    if bound_x <= tol and bound_y <= tol:
        return SeriesResult(value_x + sign * value_y, 0, bound_x + bound_y)
    near, far = [f_x], [f_y]
    for j in range(1, _G_SPLIT):
        near.append(_f(x + j, r, c)[0])
        far.append(_f(y + j, r, c)[0])
    h = x - 0.5
    h2 = h * h
    q2 = h2 / (_G_SPLIT * _G_SPLIT)
    coefs = even if sign > 0 else odd
    truncation = 2.0 * size / (1.0 - q2) * (1.0 if sign > 0 else abs(h) / _G_SPLIT)
    used = 0
    while truncation > tol and used < len(coefs):
        used += 1
        truncation *= q2
    series = 2.0 * _horner(coefs[len(coefs) - used:], h2) * (1.0 if sign > 0 else h)
    value = math.fsum(near + [sign * v for v in far] + [series])
    rounding = (_EPS * (6.0 * r + 4.0) * (sum(near) + sum(far)) + _EPS * (2 * used + 4) * abs(series)
                + _EPS * abs(value))
    result = SeriesResult(value, 2 * _G_SPLIT + used, truncation + error + rounding)
    if truncation > tol:
        raise SeriesConvergenceError(
            f"g-sum pair: truncation {truncation:.2e} exceeds tol {tol:.2e} at the "
            f"table's {_G_ORDERS} orders", result)
    return result


def _g_one(r: float, c: float) -> SeriesResult:
    """A(1) = sum_{j >= 0} f(c + 1 + j), the g-sum of :func:`_g_pair` at g = 1, kept in
    the same (r, c) entry of :func:`_g_table`.  It depends on no tol and never raises."""
    return _g_table(r, c)[4]


# ---------------------------------------------------------------------------
# regularized Bessel sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """The x-free part of the lattice sum for one (nu, lattice)."""

    b: np.ndarray          # b_0..b_ORDERS of bracket(q) ~ sum_k b_k q^{-(k+1/2)}, b_0 = 0
    near: int              # the last m with 4 pi lattice m at or below the crossover
    brackets: np.ndarray   # bracket(lattice m) for m = 1..M0, the base explicit range
    envelopes: np.ndarray  # :func:`_envelopes` at M0
    b_abs: np.ndarray      # |b_1..b_ORDERS|
    # the closed tails' rounding per order k <= orders, P_k = sum_{m<=M0} q^{-s}
    closed_err: np.ndarray     # |b_k| (_ZETA_EPS lattice^{-s} + _EPS P_k)
    closed_moment: np.ndarray  # |b_k| sum_{m<=M0} m q^{-s}
    abs_sum: float         # sum_m |bracket| over m = 1..M0
    abs_moment: float      # sum_m m |bracket|
    orders: int            # K of the smallest envelope at M0, the orders of the x = 0 and Lerch tails
    # entry k - 1, k <= orders: the float just above -min(envelopes[:k]), which is
    # above -tol just when that minimum is within tol, so bisect_right at -tol counts
    # the orders before the first envelope within tol, and a NaN tol counts them all
    minima: array
    weights: np.ndarray    # w_k = b_k lattice^{-s} for k = 1..ORDERS, by Python's power


@functools.lru_cache(maxsize=512)  # at most 10,760 brackets each (nu = 260, lattice 1)
def _plan(nu: int, lattice: int) -> _Plan:
    """The coefficients, ranges, brackets and tail envelopes of one (nu, lattice).

    bracket(q) = (-1)^{floor(nu/2)} pi Y_nu(4 pi q) + 1/(2 sqrt(q)), so b is
    (-1)^{floor(nu/2)} d^Y of :func:`specfun.hankel_lattice` with b_0 = 0:
    the regularizer cancels the order-0 term -1/(2 sqrt(q)).  M0 =
    max(ceil(crossover/(4 pi lattice)) + 1, 8) is the explicit range of every
    lattice sum.  Up to the crossover Y_0, Y_1
    (:func:`_lattice_y01`) are carried up to Y_nu; past it the bracket is its
    power series in 1/q, no trig of large arguments.
    ValueError when the first, largest bracket exceeds the double range.
    """
    cross = asymptotic_crossover(nu) / (4.0 * pi * lattice)
    near, base = int(cross), max(int(math.ceil(cross)) + 1, 8)
    # the first, largest term in floats first: past the double range nothing
    # of size near (which grows like nu^2) is built
    y0, y1 = _lattice_y01(np.array([float(lattice)]))[:, 0].tolist()
    if not math.isfinite(pi * bessel_Y_upward(nu, 4.0 * pi * lattice, y0, y1)):
        raise ValueError(f"the Bessel term Y_{nu}({4 * lattice} pi) exceeds the double range")
    b = (-1.0) ** (nu // 2) * hankel_lattice(nu)[1]
    b[0] = 0.0
    q = lattice * np.arange(1.0, near + 1.0)
    y_nu = bessel_Y_upward(nu, 4.0 * pi * q, *_lattice_y01(q))
    brackets = np.concatenate([(-1.0) ** (nu // 2) * pi * y_nu + 0.5 / np.sqrt(q),
                               _far_brackets(b, near, lattice, near, base)])
    envelopes = _envelopes(b, lattice, base)
    ms = np.arange(1.0, base + 1.0)
    size = np.abs(brackets)
    abs_sum = float(size.sum())
    abs_moment = float(np.multiply(ms, size, out=size).sum())
    # a sum at x != 0 closes K <= orders orders, since the first envelope within tol comes no
    # later than the smallest; row k - 1 of powers is q^{-s}, the running product of 1/q
    orders = int(np.argmin(envelopes)) + 1
    q = lattice * ms
    powers = np.empty((orders, base))
    powers[0], powers[1:] = [v**-1.5 for v in q.tolist()], 1.0 / q
    np.cumprod(powers, axis=0, out=powers)
    b_abs = np.abs(b[1:])
    lam_s = np.array([float(lattice) ** -s for s in _S.tolist()])  # lattice^{-s}
    weights = b[1:] * lam_s
    minima = np.nextafter(-np.minimum.accumulate(envelopes[:orders]), math.inf)
    plan = _Plan(b, near, brackets, envelopes, b_abs,
                 b_abs[:orders] * (_ZETA_EPS * lam_s[:orders] + _EPS * powers.sum(axis=1)),
                 b_abs[:orders] * np.multiply(powers, ms, out=powers).sum(axis=1),
                 abs_sum, abs_moment, orders, array("d", minima.tolist()), weights)
    for table in (plan.b, plan.brackets, plan.envelopes, plan.b_abs, plan.closed_err,
                  plan.closed_moment, plan.weights):
        table.flags.writeable = False
    return plan


def _lattice_y01(q: np.ndarray) -> np.ndarray:
    """Rows Y_0, Y_1 at z = 4 pi q for ascending lattice points q at or below the
    crossover: :func:`specfun.bessel_Y01` up to z = 40, their lattice series d^Y
    beyond."""
    z = 4.0 * pi * q
    low = int(np.count_nonzero(z <= ASYM_Z_MIN))
    y01 = np.empty((2, q.size))
    for i in range(low):
        y01[:, i] = bessel_Y01(z[i])
    y01[:, low:] = [_hankel_sum(hankel_lattice(k)[1], 0, q[low:]) / pi for k in (0, 1)]
    return y01


def _far_brackets(b: np.ndarray, near: int, lattice: int, start: int, m_terms: int) -> np.ndarray:
    """bracket(lattice m) for m = start+1..m_terms, start >= near, from its power series
    in 1/q; the orders summed are those :func:`specfun._hankel_sum` takes at the first m
    past the crossover, near + 1, so every value is the same whatever start and m_terms."""
    top = _hankel_top(b, 1, float(lattice * (near + 1)))
    return _orders_sum(b, 1, top, lattice * np.arange(start + 1, m_terms + 1, dtype=float))


def _bracket_values(nu: int, lattice: int, m_terms: int) -> np.ndarray:
    """bracket(lattice m) for m = 1..m_terms: a slice of the plan's brackets
    through the base range, and past it those with the terms m > M0 built afresh."""
    plan = _plan(nu, lattice)
    if m_terms <= plan.brackets.size:
        return plan.brackets[:m_terms]
    far = _far_brackets(plan.b, plan.near, lattice, plan.brackets.size, m_terms)
    return np.concatenate([plan.brackets, far])


def _envelopes(b: np.ndarray, lattice: int, m: int) -> np.ndarray:
    """Entry K-1: |b_{K+1}| sum_{j>m} (lattice j)^{-(K+3/2)} bounded by its
    integral, the first order dropped when orders 1..K are closed past m.  The
    powers are Python's, which round the same on every host."""
    qm = float(lattice) * m
    return np.array([abs(bk) * qm ** -(k + 1.5) * m / (k + 0.5) for k, bk in enumerate(b[2:].tolist(), 1)])


_S = np.arange(1, _ORDERS + 1) + 0.5  # s = k + 1/2 of the orders k = 1.._ORDERS
# m = 1..DEFAULT_MAX_TERMS: a call slices its phases' indices from this one row
_INDEX = np.arange(1.0, DEFAULT_MAX_TERMS + 1.0)
_INDEX.flags.writeable = False

@dataclass(frozen=True)
class _Residual:
    """The x-free part of a lattice sum at x != 0 that closes orders 1..K past M.

    The closed tails sum_k w_k T_s(x), w_k = b_k lattice^{-s}, are one
    :class:`_Wood` polynomial in a(x), and the rounding they add is
    err0 + 2 pi x err1, the plan's closed_err and _EPS closed_moment summed
    over k <= K: trig(2 pi m x) rounds by _EPS (1 + 2 pi x m) in the
    subtracted partial sums."""

    row: np.ndarray            # bracket(q) - c(q), c(q) = sum_{k<=K} b_k q^{-(k+1/2)}
    wood: _Wood                # the closed tails, cos for even nu, sin for odd
    err0: float
    err1: float
    stairs: tuple[float, ...]  # sum_{m>j} |row_m| at j = 1, 2, 4, ... < M0, rounded up


@functools.lru_cache(maxsize=512)  # at most 10,760 + 109 floats each (nu = 260, lattice 1)
def _residual(nu: int, lattice: int, orders: int) -> _Residual:
    """The :class:`_Residual` of (nu, lattice) over the base range M0, `orders` orders closed.

    The closed orders subtract sum_k b_k P_s(M) = sum_m trig(2 pi m x) c(q), so
    a call sums row * trig once, not one partial sum P_s per order.  c comes
    by Horner's rule in 1/q, never as an orders x M array.
    A stair of the top cut sums at most M0 terms, each of which passes at
    most M0 additions, and the value's products row * trig round once more:
    the factor 1 + M0 _EPS covers both.
    """
    plan = _plan(nu, lattice)
    base = plan.brackets.size
    row = plan.brackets - _orders_sum(plan.b, 1, orders, lattice * np.arange(1.0, base + 1.0))
    steps = np.add.reduceat(np.abs(row), 1 << np.arange((base - 1).bit_length()))
    stairs = tuple((np.cumsum(steps[::-1])[::-1] * (1.0 + base * _EPS)).tolist())
    row.flags.writeable = False
    return _Residual(row, _wood(plan.weights[:orders], 1, bool(nu % 2)),
                     float(plan.closed_err[:orders].sum()),
                     _EPS * float(plan.closed_moment[:orders].sum()), stairs)


@functools.lru_cache(maxsize=512)  # two SeriesResults each
def _zero_sum(nu: int, lattice: int) -> tuple[SeriesResult, SeriesResult]:
    """(bracket sum, lattice sum) at x = 0 for even nu over the base range M0:
    orders 1..K closed as b_k lattice^{-s} zeta(s, M0 + 1), K the order of the
    smallest envelope, and the bound that envelope plus the rounding; the
    lattice sum is the bracket sum less the regularizer's closed sum
    zeta(1/2)/(2 sqrt(lattice)), its allowance added to the bound
    (:func:`_regularizer_sum`).  None depends on tol."""
    plan = _plan(nu, lattice)
    brackets = plan.brackets
    orders = plan.orders
    truncation = float(plan.envelopes[orders - 1])
    tails = [hurwitz_zeta(s, brackets.size + 1.0) for s in _S[:orders].tolist()]
    closed = plan.weights[:orders] * np.array(tails)
    value = chunked_fsum(brackets) + math.fsum(closed.tolist())
    rounding = (2e-15 + _EPS) * plan.abs_sum + _ZETA_EPS * float(np.abs(closed).sum())
    bracket = SeriesResult(value, brackets.size, truncation + rounding)
    regularizer, allowance = _regularizer_sum(nu, 0.0, lattice)
    return bracket, SeriesResult(value - regularizer, brackets.size, bracket.tail_bound + allowance)


def _exact_zero(nu: int, lattice: int) -> SeriesResult:
    """The sum of odd nu at x = 0 or 1/2, where every sine vanishes.  The plan
    is built first, as at any other x, so that no later call builds it;
    past the double range there is none."""
    try:
        _plan(nu, lattice)
    except ValueError:
        pass
    return SeriesResult(0.0, 0, 0.0)


def _trig(even_nu: bool, x: float, ms: np.ndarray) -> np.ndarray:
    return np.cos(2.0 * pi * x * ms) if even_nu else np.sin(2.0 * pi * x * ms)


def _check_count(name: str, value, least: int = 1) -> None:
    # a plain int skips the isinstance checks, which cost more than the rest of the test
    if (type(value) is not int and (isinstance(value, bool) or not isinstance(value, (int, np.integer)))
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def regularized_bracket_sum(
    nu: int,
    x: float,
    tol: float = DEFAULT_TOL,
    *,
    lattice: int = 1,
) -> SeriesResult:
    """sum_{m>=1} bracket(lattice*m) * trig(2 pi m x), 0 <= x < 1.

    trig is cos for even nu, sin for odd nu; x = 0 is allowed.  The
    explicit range [1, M] uses true bracket values and ends just past the
    Hankel crossover, at the plan's base range M0.  Beyond M the orders
    k = 1..K of bracket(q) ~ sum_k b_k q^{-(k+1/2)} are summed in closed
    form, b_k (lattice^{-s} T_s(x) - P_s(M)) with s = k + 1/2, T_s the
    periodic zeta value and P_s its partial sum over m <= M.  K is the
    first order whose dropped successor is below tol, or the smallest
    dropped order when none is.  The P_s are never formed: the explicit
    terms and sum_k b_k P_s(M) are one sum of trig times the residual row
    of :func:`_residual`, and sum_k b_k lattice^{-s} T_s(x) is the row's
    Wood polynomial at x (:class:`_Wood`).  ValueError unless 0 <= x < 1.

    A closed difference cancels O(1) values down to its tail, so it carries
    an absolute rounding error of a few units times |b_k|, and |b_k| reaches
    6e4 at nu = 20.  When that breaks tol while the explicit terms' rounding
    and the dropped order fit it, the closed differences give way to the
    Lerch tail of :func:`_lerch_bracket_sum`: the brackets m <= a as they
    are, a the first of M, 2M, 4M, ... at least ceil(6/x'), at most
    DEFAULT_MAX_TERMS, and the tail past a at its own size.  The starts
    double so that the x-free part is kept per band of x (:func:`_watson`).
    Its remainder bound holds for any a: a larger a only shrinks it, and
    where the cap shortens a (x' below 3e-4) the bound only grows, and it
    raises like any other when that bound exceeds tol.

    At x = 1/4 and 3/4 an even nu's sum is the x = 1/2 sum on the doubled
    lattice, exactly: cos(pi m/2) vanishes at odd m and is (-1)^j at m = 2j.
    The call takes that path, whose phases are exactly +-1: the odd m, whose
    cosines round to about 6e-17 rather than 0, leave the sum, and with them
    the largest bracket, m = 1, leaves the rounding bound.

    At x = 0 (even nu) the difference is lattice^{-s} zeta(s, M + 1), taken
    whole from :func:`specfun.hurwitz_zeta`: it cancels nothing and carries
    a few units of its own size.  Every order is closed up to the smallest
    dropped one, whatever tol: the finished result is kept per
    (nu, lattice) (:func:`_zero_sum`), and a call only compares its bound
    with tol.

    The reported bound is the dropped order plus the rounding of the
    explicit terms and of the closed tails, or the Lerch tail's remainder
    and rounding; SeriesConvergenceError is raised unless it is at most tol.
    ValueError is raised for nu or lattice not a positive integer, and when
    a bracket exceeds the double range (from nu = 261 on the 4 pi m lattice).

    At x != 0, with the closed differences' bound within tol, the top of
    the explicit range is cut: the residual row falls like
    m^{-nu} up to 4 pi m ~ nu, so the smallest j = 1, 2, 4, ... < M whose
    x-free suffix sum_{m>j} |row_m| (the stairs of :func:`_residual`) fits
    both 1e-4 tol and tol minus the bound ends the sum at j, and that
    suffix joins the bound.  Under a relative tol at large nu a few terms remain: the formula
    becomes its own asymptotic expansion with a bound.  terms_used counts the
    m summed term by term: j after a cut, a on the Lerch tail, M otherwise,
    all on the doubled lattice at x = 1/4 and 3/4.
    Only the phases depend on x; the rest comes from the caches the module
    docstring lists.
    """
    _check_count("nu", nu)
    _check_count("lattice", lattice)
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    even_nu = nu % 2 == 0
    if not even_nu and x == 0.0:
        return _exact_zero(nu, lattice)
    if even_nu and (x == 0.25 or x == 0.75):
        # cos(pi m/2) is 0 at odd m and (-1)^j at m = 2j: the sum at x = 1/2 on the
        # doubled lattice, whose phases are exactly +-1
        x, lattice = 0.5, 2 * lattice
    plan = _plan(nu, lattice)
    M, envelopes = plan.brackets.size, plan.envelopes
    remainder = 0.0  # the Lerch tail's Watson remainder, when it is taken
    if x == 0.0:
        # every phase is 1 and order k closes as b_k lattice^{-s} zeta(s, M + 1), a sum
        # of positive terms: nothing cancels, and the finished result depends on
        # neither x nor tol
        result = _zero_sum(nu, lattice)[0]
        truncation, bound = float(envelopes[plan.orders - 1]), result.tail_bound
    else:
        # the first order whose envelope is within tol, else the smallest envelope's
        K = min(bisect.bisect_right(plan.minima, -tol) + 1, plan.orders)
        truncation = float(envelopes[K - 1])
        res = _residual(nu, lattice, K)
        xi = 2.0 * pi * x
        fixed = truncation + (2e-15 + _EPS) * plan.abs_sum + xi * _EPS * plan.abs_moment
        W, bound = M, fixed + res.err0 + xi * res.err1
        if bound > tol and fixed <= tol:
            # the closed differences cancel: sum the tail past a at its own size instead
            value, W, truncation, remainder, bound = _lerch_bracket_sum(nu, x, lattice, M)
        else:
            if res.stairs[-1] <= 1e-4 * tol and bound + res.stairs[-1] <= tol:
                # the top cut: drop m > j = 2^i, the first whose |row| sum fits 1e-4 tol and the
                # slack (the stairs fall, so the last one decides whether any fits)
                i = next(i for i, stair in enumerate(res.stairs)
                         if stair <= 1e-4 * tol and bound + stair <= tol)
                W, bound = 1 << i, bound + res.stairs[i]
            # sum_m trig (bracket - c) plus sum_k b_k lattice^{-s} T_s(x) for k = 1..K
            trig = _trig(even_nu, x, _INDEX[:W])
            value = chunked_fsum(res.row[:W] * trig) + res.wood.at(x)
        result = SeriesResult(value, W, bound)
    if not bound <= tol:
        parts = [f"truncation term {truncation:.2e}",
                 f"rounding bound {bound - truncation - remainder:.2e}"]
        if remainder:
            parts.append(f"Lerch remainder {remainder:.2e} past a={W}")
        raise SeriesConvergenceError(
            f"regularized_bracket_sum: bound {bound:.2e} ({', '.join(parts)}) exceeds tol {tol:.2e} "
            f"(nu={nu}, M={M})",
            result,
        )
    return result


def _lerch_start(x: float, least: int) -> int:
    """a = max(least, min(ceil(_LERCH_REACH/x'), DEFAULT_MAX_TERMS)), x' = min(x, 1 - x),
    the least start of a Lerch tail at 0 < x < 1."""
    return max(least, math.ceil(min(_LERCH_REACH / min(x, 1.0 - x), DEFAULT_MAX_TERMS)))


@dataclass(frozen=True)
class _Watson:
    """The x-free part of a Lerch tail past a for one (nu, lattice)."""

    brackets: np.ndarray  # bracket(lattice m) for m = 1..a
    orders: int           # K: the tail closes orders 1..K
    truncation: float     # the first dropped order, the envelope of :func:`_envelopes` at a
    abs_sum: float        # sum_m |bracket| over m = 1..a
    abs_moment: float     # sum_m m |bracket|
    rows: tuple[list[float], list[float]]  # :func:`_lerch_rows` of orders 1..K at a


@functools.lru_cache(maxsize=64)  # at most DEFAULT_MAX_TERMS brackets each
def _watson(nu: int, lattice: int, a: int) -> _Watson:
    """The :class:`_Watson` of (nu, lattice) at a start a >= M0 (:func:`_lerch_bracket_sum`).

    At a = M0 it is all the plan's, K the order of the smallest envelope.  Past M0
    the brackets m <= M0 are the plan's and the rest come from the power series in
    1/q through the orders the plan takes at the crossover (:func:`_bracket_values`),
    so each is the value any range would hold; K is the first order whose envelope
    at a is no larger than the plan's truncation at M0."""
    plan = _plan(nu, lattice)
    K, brackets = plan.orders, plan.brackets
    truncation, abs_sum, abs_moment = float(plan.envelopes[K - 1]), plan.abs_sum, plan.abs_moment
    if a > brackets.size:
        envelopes = _envelopes(plan.b, lattice, a)
        K = int(np.argmax(envelopes <= truncation)) + 1
        truncation = float(envelopes[K - 1])
        brackets = _bracket_values(nu, lattice, a)
        brackets.flags.writeable = False
        size = np.abs(brackets)
        abs_sum = float(size.sum())
        abs_moment = float(np.multiply(_INDEX[:a], size, out=size).sum())
    return _Watson(brackets, K, truncation, abs_sum, abs_moment, _lerch_rows(plan.weights[:K], 1, a))


def _lerch_bracket_sum(nu: int, x: float, lattice: int,
                       least: int) -> tuple[float, int, float, float, float]:
    """(value, a, truncation, remainder, bound) of the bracket sum at 0 < x < 1 with the tail
    past a closed by :func:`_lerch_sum`: a = min(M0 2^i, DEFAULT_MAX_TERMS), least = M0,
    the first of M0, 2 M0, 4 M0, ... that reaches :func:`_lerch_start`, so that the
    points of one band share one :func:`_watson` entry.

    The brackets m <= a are summed as they are, their phases formed at x' =
    min(x, 1 - x).  Past a, f(m) = sum_{k<=K} b_k (lattice m)^{-s}, and its
    first dropped order, the envelope of :func:`_envelopes` at a, is the
    truncation.  All of that is x-free and comes from :func:`_watson`; only the
    phases and the Lerch kernel's cot(pi x') rows depend on x.  The bound adds
    the truncation, the explicit terms' rounding, as on the closed path, the
    Watson remainder and the tail's rounding.
    """
    reach = _lerch_start(x, least)
    # least 2^i with 2^{i-1} least < reach <= 2^i least: i is the bit length of ceil(reach/least) - 1
    tail = _watson(nu, lattice, min(least << (-(-reach // least) - 1).bit_length(), DEFAULT_MAX_TERMS))
    a = tail.brackets.size
    even_nu, t = nu % 2 == 0, min(x, 1.0 - x)
    # the phases at x' (exact), whose rounding grows like x' m rather than x m:
    # sin(2 pi m x) = -sin(2 pi m x') for x > 1/2
    value = chunked_fsum(tail.brackets * _trig(even_nu, t, _INDEX[:a]))
    re, im, remainder, rounding = _lerch_sum(x, a, tail.rows, tail.orders)
    bound = (tail.truncation + (2e-15 + _EPS) * tail.abs_sum + 2.0 * pi * t * _EPS * tail.abs_moment
             + remainder + rounding)
    value = re + value if even_nu else im + (value if x <= 0.5 else -value)
    return value, a, tail.truncation, remainder, bound


def _regularizer_sum(nu: int, x: float, lattice: int) -> tuple[float, float]:
    """sum_m trig(2 pi m x)/(2 sqrt(lattice m)) = (1/2) lattice^{-1/2} T, T = C_{1/2}(x)
    for even nu and S_{1/2}(x) for odd nu from the Wood polynomial of order 0, and its
    allowance (1/2) lattice^{-1/2} _ZETA_EPS max(1, |T|): T's rounding grows with T."""
    half, t = 0.5 * lattice**-0.5, _unit_wood(0, bool(nu % 2)).at(x)
    return half * t, half * _ZETA_EPS * max(1.0, abs(t))


def lattice_bessel_sum(
    nu: int,
    x: float,
    tol: float = DEFAULT_TOL,
    *,
    lattice: int = 1,
) -> SeriesResult:
    """sum_m (-1)^{floor(nu/2)} pi Y_nu(4 pi lattice m) trig(2 pi m x), 0 <= x < 1.

    The regularized bracket sum minus the closed sum of its regularizer,
    zeta(1/2)/(2 sqrt(lattice)) at x = 0; the bound adds that sum's allowance
    (:func:`_regularizer_sum`).  At x = 0 that result is kept whole per
    (nu, lattice) beside the bracket sum's (:func:`_zero_sum`), and a call
    only compares the bracket sum's bound with tol.  For odd nu at x = 0 and
    1/2 the sum is exactly 0.  Points 0 < x outside DEFAULT_X_WINDOW are
    flagged: the closed sum grows like x^{-1/2}.  ValueError for nu or
    lattice out of their domains, as in :func:`regularized_bracket_sum`;
    each call checks them here at x = 0 and before an exact zero, and in the
    bracket sum otherwise.  When the bracket sum raises,
    SeriesConvergenceError carries its message and, as best, the lattice sum
    formed from the bracket sum it gave up on.
    """
    if x == 0.0 or (x == 0.5 and isinstance(nu, (int, np.integer)) and nu % 2):
        _check_count("nu", nu)
        _check_count("lattice", lattice)
        if nu % 2:
            return _exact_zero(nu, lattice)
        bracket, result = _zero_sum(nu, lattice)
        if bracket.tail_bound <= tol:
            return result
    failure = None  # the bracket sum's message, not the error: its traceback holds this frame
    try:
        reg = regularized_bracket_sum(nu, x, tol, lattice=lattice)
    except SeriesConvergenceError as err:
        reg, failure = err.best, str(err)
    closed, rounding = _regularizer_sum(nu, x, lattice)
    result = SeriesResult(reg.value - closed, reg.terms_used, reg.tail_bound + rounding,
                          not (x == 0.0 or DEFAULT_X_WINDOW[0] <= x <= DEFAULT_X_WINDOW[1]))
    if failure is not None:
        raise SeriesConvergenceError(failure, result)
    return result


def bessel_cos_series(n: int, x: float, tol: float = DEFAULT_TOL) -> SeriesResult:
    """sum_m (-1)^n pi Y_{2n}(4 pi m) cos(2 pi m x), 0 < x < 1 (:func:`lattice_bessel_sum`)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    return lattice_bessel_sum(2 * n, x, tol)


def bessel_sin_series(n: int, x: float, tol: float = DEFAULT_TOL) -> SeriesResult:
    """sum_m (-1)^n pi Y_{2n+1}(4 pi m) sin(2 pi m x), 0 < x < 1 (:func:`lattice_bessel_sum`)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    return lattice_bessel_sum(2 * n + 1, x, tol)


def bessel_series_partial(nu: int, x: float, m_terms: int) -> float:
    """Plain M-term partial sum of the conditionally convergent series.

    Diagnostic only (convergence studies); the error decays like M^{-1/2}.
    """
    _check_count("nu", nu)
    _check_count("m_terms", m_terms)
    ms = np.arange(1, m_terms + 1, dtype=float)
    terms = _bracket_values(nu, 1, m_terms) - 0.5 / np.sqrt(ms)
    return chunked_fsum(terms * _trig(nu % 2 == 0, x, ms))
