"""Accelerated evaluation of the slowly convergent Bessel and algebraic series.

The conditionally convergent sums over Y_nu(4 pi m) converge like m^{-1/2}
with oscillation, hopeless to sum naively.  The engine regularizes each
term with +1/(2 sqrt(m)) (making the bracket decay like m^{-3/2}) and folds
the subtracted 1/(2 sqrt(m)) weights into the closed periodic zeta values
C_{1/2}(x), S_{1/2}(x).  Past the Hankel crossover the bracket on the 4 pi m
lattice is a pure power series in 1/m, sum_k b_k m^{-(k+1/2)}, so every
order of the tail beyond the explicit range is summed in closed form, again
through periodic zeta values at s = k + 1/2 (Wood's polylogarithm
expansion).  At x = 0 each closed order is a Hurwitz zeta value
zeta(k + 1/2, M + 1), a sum of positive terms.  The explicit range
therefore sits at the crossover 2 nu^2/(4 pi), and the tolerance picks how
many orders are closed.  At x != 0 a loose tolerance also cuts the top of
that range: Y_nu(4 pi m) falls like m^{-nu}, so at large nu under a
relative tolerance one or two terms remain.  The reported bound is the
first dropped order plus the rounding of every piece, plus what the cut
dropped, and a tolerance below it raises.  An algebraic g-sum whose first
term fits the tolerance sums no term at all; any other closes a prefix of
a few terms by Euler-Maclaurin through B_12 with exact derivatives, and
since its terms are completely monotone, the B_14 term bounds what is left.

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
    explicit range M0 (at most 10,760 floats), the tail envelopes at M0 and
    lattice^{-s} with its rounding _ZETA_EPS lattice^{-s} (29 floats each);
  * at x != 0, one residual row per (nu, lattice, K) (:func:`_residual`,
    512 entries of at most 10,760 + 72 floats): bracket(q) minus its first
    K orders, the m-sums the rounding bound reads and the stairs of the top
    cut;
  * at x = 0, where K and the sum depend on neither x nor tol, the value,
    truncation and bound per (nu, lattice) (:func:`_zero_sum`, 512 entries);
  * the Euler-Maclaurin coefficients of the g-sums per exponent r
    (:func:`_em_rows`, 512 entries of 56 floats);
  * the periodic zeta values at every order, per (x, parity) (128
    entries): a sum over cos phases forms only C_s(x), one over sin phases
    only S_s(x), and a bracket sum and its regularizer share that row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .specfun import (ASYM_Z_MIN, HANKEL_ORDERS, _bernoulli_ratios, _hankel_sum, _orders_sum,
                      asymptotic_crossover, bessel_Y01, bessel_Y_upward, hankel_lattice, hurwitz_zeta)

__all__ = [
    "SeriesResult",
    "SeriesConvergenceError",
    "TrigPowerSums",
    "trig_power_sums",
    "periodic_zeta",
    "g_term",
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
DEFAULT_MAX_TERMS = 20000  # the cap on a window and on a g-sum prefix
DEFAULT_X_WINDOW = (0.01, 0.99)

_FSUM_CUTOFF = 1024  # sums up to this length go to math.fsum of a list, which is faster there
_BLOCK = 1 << 15     # floats per block of the extraction passes
_LEVELS = 2          # extraction levels per block and pass
_MAX_PASSES = 4      # passes before a sum falls back to math.fsum
_ORDERS = HANKEL_ORDERS  # orders k of the bracket expansion sum_k b_k m^{-(k+1/2)}
_WOOD_TERMS = 64    # terms of Wood's expansion; 2^{-64} is far below rounding
_EPS = 2.2e-16      # two units of double rounding
_ZETA_EPS = 2.5e-15  # periodic_zeta (<= 1.8e-15 against mpmath) and the subtraction
_EM_ORDERS = 6       # Euler-Maclaurin corrections B_2..B_12 that close a g-sum prefix
_EM_START = 4        # the shortest g-sum prefix they close


class SeriesConvergenceError(RuntimeError):
    """Requested tolerance unreachable; `best` holds the result that missed it."""

    def __init__(self, message: str, best: "SeriesResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SeriesResult:
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
    """Coefficients of the expansions in :func:`periodic_zeta`, s = k + 1/2.

    Returns (zeta, eta, gamma_c, gamma_s, re, im) with zeta[k, j] =
    zeta(s - j) and eta[k, j] = (1 - 2^{1-s+j}) zeta(s - j) for j <
    _WOOD_TERMS, gamma_c[k] + i gamma_s[k] = Gamma(1-s) e^{-i pi (s-1)/2}
    and re[j] + i im[j] = i^j / j!.  Zeta at positive half-integers comes
    from :func:`specfun.hurwitz_zeta` at 1, at negative ones from the
    reflection zeta(h) = 2^h pi^{h-1} sin(pi h/2) Gamma(1-h) zeta(1-h).
    Built on first use, so importing the package costs nothing.
    """
    positive = [hurwitz_zeta(k + 0.5, 1.0) for k in range(max(_ORDERS, _WOOD_TERMS) + 1)]

    def zeta_at(k: int) -> float:  # zeta(k + 1/2)
        if k >= 0:
            return positive[k]
        h = k + 0.5
        return 2.0**h * pi ** (h - 1.0) * math.sin(pi * h / 2.0) * math.gamma(1.0 - h) * positive[-k]

    ks = np.arange(_ORDERS + 1)
    js = np.arange(_WOOD_TERMS)
    zeta = np.array([[zeta_at(k - j) for j in js] for k in ks])
    eta = (1.0 - 2.0 ** (0.5 - np.subtract.outer(ks, js))) * zeta
    gamma = np.array([math.gamma(0.5 - k) for k in ks])
    theta = pi * (ks - 0.5) / 2.0
    inv_fact = np.array([1.0 / math.factorial(j) for j in js])
    quarter = js % 4
    re = inv_fact * np.select([quarter == 0, quarter == 2], [1.0, -1.0], 0.0)
    im = inv_fact * np.select([quarter == 1, quarter == 3], [1.0, -1.0], 0.0)
    tables = (zeta, eta, gamma * np.cos(theta), -gamma * np.sin(theta), re, im)
    for table in tables:
        table.flags.writeable = False
    return tables


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
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    if not 0 <= k_max <= _ORDERS:
        raise ValueError(f"k_max must lie in [0, {_ORDERS}]")
    return tuple(_periodic_zeta_rows(x, odd)[: k_max + 1].copy() for odd in (False, True))


_J = np.arange(_WOOD_TERMS, dtype=float)  # powers j of Wood's expansion
_ALTERNATE = (-1.0) ** _J                 # (-1)^j
_SINGULAR = np.arange(_ORDERS + 1) - 0.5   # exponents s - 1 of its singular term


@functools.lru_cache(maxsize=128)  # a bracket sum and its regularizer ask at the same (x, parity)
def _periodic_zeta_rows(x: float, odd: bool) -> np.ndarray:
    """C_s(x), or S_s(x) when odd, of :func:`periodic_zeta` at every order
    0.._ORDERS; each entry is the same whatever the number of orders or
    the parity formed beside it, since the sum over j runs row by row."""
    if not 0.0 <= x < 1.0:  # the lattice sums reach here without periodic_zeta's checks
        raise ValueError("x must lie in [0, 1)")
    zeta, eta, gamma_c, gamma_s, re, im = _wood_tables()
    if x == 0.0:
        row = np.zeros(_ORDERS + 1) if odd else zeta[:, 0].copy()
    else:
        t = 1.0 - x if x > 0.5 else x
        if t <= 0.25:
            a = 2.0 * pi * t
            rows = zeta
            head = (gamma_s if odd else gamma_c) * a**_SINGULAR
            powers = a**_J
        else:
            a = pi * (1.0 - 2.0 * t)  # v = -i a; numpy's power is ~8x slower for a negative base
            rows = -eta
            head = 0.0
            powers = _ALTERNATE * a**_J
        row = head + (rows * (powers * (im if odd else re))).sum(axis=1)
        if odd and x > 0.5:
            row = -row
    row.flags.writeable = False
    return row


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
# algebraic g-series
# ---------------------------------------------------------------------------

def g_term(y: float, r: float, x: float) -> float:
    """(y+1+x - sqrt((y-1+x)(y+3+x)))^{2r} / sqrt(...), cancellation-free.

    Uses (A - sqrt(A^2-4)) = 4/(A + sqrt(A^2-4)) with A = y+1+x.
    """
    prod = (y - 1.0 + x) * (y + 3.0 + x)
    if prod <= 0.0:
        raise ValueError("g_term requires (y-1+x)(y+3+x) > 0")
    a = y + 1.0 + x
    root = sqrt(prod)
    return (4.0 / (a + root)) ** (2.0 * r) / root


def _derivative_rows(r: float, k_max: int = 13) -> list[list[float]]:
    """Coefficients c_0..c_k of Q_k, k = 0..k_max, with
        f^(k)(A) = (-1)^k f(A) rho^{-k} Q_k(t),  Q_k(t) = sum_j c_j t^j,
    for f(A) = w^{2r}/rho, rho = sqrt(A^2 - c^2), w = A - rho and t = w/(2 rho).

    Q_0 = 1, and Q_{k+1} has c'_j = (2r + 1 + k + 2j) c_j + 2(k + j) c_{j-1},
    so every coefficient is positive for r > -1/2 and nothing cancels,
    neither here nor in Q_k(t) at t > 0.  With u = w/c and v = u^2, so that
    1 - v = 2 u rho/c, this is f^(k) = (-1)^k f (2u/c)^k (1-v)^{-2k} P_k(v)
    with P_k(v) = (1-v)^k Q_k(v/(1-v)): P_k in the basis v^j (1-v)^{k-j},
    where its coefficients are the c_j.
    """
    rows, row = [[1.0]], [1.0]
    for k in range(k_max):
        row = [(2.0 * r + 1.0 + k + 2 * j) * (row[j] if j <= k else 0.0)
               + 2.0 * (k + j) * (row[j - 1] if j else 0.0) for j in range(k + 2)]
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=512)  # 56 floats each
def _em_rows(r: float) -> tuple[tuple[float, ...], ...]:
    """B_2j/(2j)! times the coefficients of Q_{2j-1} (:func:`_derivative_rows`),
    highest power first, for j = 1.._EM_ORDERS + 1: the Euler-Maclaurin
    corrections through B_12 and the first dropped one, B_14 > 0."""
    rows = _derivative_rows(r, 2 * _EM_ORDERS + 1)
    return tuple(tuple(ratio * a for a in reversed(rows[2 * j - 1]))
                 for j, ratio in enumerate(_bernoulli_ratios()[: _EM_ORDERS + 1], 1))


def _horner(row: tuple[float, ...], t: float) -> float:
    """The polynomial with coefficients row, highest power first, at t."""
    total = 0.0
    for a in row:
        total = total * t + a
    return total


def conjugate_power_sum(a0: float, r: float, csq: float, tol: float = 1e-12) -> SeriesResult:
    """sum_{j>=0} f(a0 + j) with f(A) = (A - sqrt(A^2-csq))^{2r}/sqrt(A^2-csq).

    Terms fall off like (c/2A)^{2r}/A.  A direct prefix is closed by
    Euler-Maclaurin through B_12 with exact derivatives; the integral term
    has the closed form (A - sqrt(A^2-csq))^{2r}/(2r).  The prefix is the
    smallest power of two >= 4 whose first dropped (B_14) correction is
    <= tol, at most DEFAULT_MAX_TERMS; SeriesConvergenceError is raised if
    that correction still exceeds tol there.  The reported bound adds the
    rounding of the terms, the integral and the corrections to it; the
    rounding drives neither the prefix nor the raise.  When half the first
    term and its rounding fit tol, no term is summed: the value is the
    integral plus half the first term and terms_used = 0 (:func:`_conjugate_sum`).
    """
    if r < 0.5:
        raise ValueError("exponent r must be >= 1/2 for a usable tail bound")
    return _conjugate_sum(a0 - sqrt(csq), r, sqrt(csq), tol)


def _conjugate_sum(gap, r, c, tol=1e-12):
    """:func:`conjugate_power_sum` at a0 = c + gap, any r > 0: each A^2 - c^2 is
    formed as (A - c)(A + c) from the gap, so a small gap keeps its digits.

    f is positive and decreasing, so the sum lies in [I, I + f(a0)] with
    I = integral_{a0}^inf f = w(a0)^{2r}/(2r), w(A) = A - sqrt(A^2 - csq).
    When half of f(a0), with the rounding, fits tol, the prefix is empty:
    the value is I + f(a0)/2, the bound f(a0)/2 plus the rounding of w(a0)
    raised to 2r, and terms_used = 0.

    Otherwise the N prefix terms, I and f/2 at a0 + N and the corrections
    B_2j/(2j)! f^(2j-1) through B_12 (:func:`_em_rows`) are one math.fsum.
    f(A) = c^{2r} integral_0^inf e^{-As} I_{2r}(cs) ds (Gradshteyn-Ryzhik
    6.611) is completely monotone, so the remainder lies between 0 and the
    first dropped correction, the B_14 term, which is the truncation bound.
    """
    if gap <= 0.0:
        raise ValueError("series start must satisfy a0 > sqrt(csq)")
    csq, a0, two_r = c * c, c + gap, 2.0 * r
    root = sqrt(gap * (gap + 2.0 * c))
    wp = (csq / (a0 + root)) ** two_r  # OverflowError for w(a0) > 1 and a huge r
    half, integral = 0.5 * wp / root, wp / two_r
    # w(a0) carries at most 4.5 units of 2^-53, so w^{2r} 9 r + 1 and I + f/2 a few more
    bound = half + _EPS * (5.0 * r + 3.0) * (integral + 2.0 * half)
    if bound <= tol:
        return SeriesResult(integral + half, 0, bound)

    rows = _em_rows(r)
    n_direct = _EM_START
    while True:
        end = gap + n_direct
        rho = sqrt(end * (end + 2.0 * c))
        w = csq / (c + end + rho)
        wp, inv = w**two_r, 1.0 / rho
        t = 0.5 * w * inv
        truncation = wp * inv ** (2 * _EM_ORDERS + 2) * _horner(rows[-1], t)
        if not truncation > tol or n_direct >= DEFAULT_MAX_TERMS:
            break
        n_direct = min(2 * n_direct, DEFAULT_MAX_TERMS)
    # B_2j/(2j)! f^(2j-1) is f rho^{1-2j} times row j at t, f = wp/rho
    corrections, scale = [], wp * inv * inv
    for row in rows[:-1]:
        corrections.append(scale * _horner(row, t))
        scale *= inv * inv
    parts = corrections + [wp / two_r, 0.5 * wp * inv]
    for j in range(n_direct):
        g = gap + j
        s = sqrt(g * (g + 2.0 * c))
        parts.append((csq / (c + g + s)) ** two_r / s)
    value = math.fsum(parts)
    # a term, I and f/2 carry at most 11 r + 6 units of 2^-53 (w 4.5, its power
    # 9 r + 1, rho and the division 3.5, the rounded A (2 r + 1)); a correction
    # or the truncation up to 220 more (13 factors 1/rho, Q's 13 steps and t^13)
    spread = sum(map(abs, corrections)) + truncation
    rounding = _EPS * ((6.0 * r + 4.0) * (value + spread) + 120.0 * spread)
    result = SeriesResult(value, n_direct, truncation + rounding)
    if truncation > tol:
        raise SeriesConvergenceError(
            f"conjugate_power_sum: Euler-Maclaurin correction {truncation:.2e} exceeds "
            f"tol {tol:.2e} at the {DEFAULT_MAX_TERMS}-term cap",
            result,
        )
    return result


def g_tail_sum(r: float, x: float, tol: float = 1e-12) -> SeriesResult:
    """sum_{m >= 1} g(m, r, x); the sum from m = k is g_tail_sum(r, x + k - 1).

    A prefix of 4, 8, 16, ... terms is closed by Euler-Maclaurin through
    B_12, so even the slow r = 1/2 exponent sums 16 terms at tol 1e-17.
    It runs on the gap A - 2 = m - 1 + x.  When half the first term fits
    tol the prefix is empty and terms_used = 0 (:func:`_conjugate_sum`).
    """
    if r < 0.5:
        raise ValueError("g_tail_sum requires r >= 1/2")
    return _conjugate_sum(x, r, 2.0, tol)


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
    lam_s: np.ndarray      # lattice^{-s}, s = k + 1/2 for k = 1..ORDERS
    zeta_err: np.ndarray   # _ZETA_EPS lattice^{-s}, the rounding of the periodic zeta values


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
                               _far_brackets(b, near, lattice, base)])
    lam_s = float(lattice) ** -_S
    plan = _Plan(b, near, brackets, _envelopes(b, lattice, base), np.abs(b[1:]), lam_s,
                 _ZETA_EPS * lam_s)
    for array in (plan.b, plan.brackets, plan.envelopes, plan.b_abs, plan.lam_s, plan.zeta_err):
        array.flags.writeable = False
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


def _far_brackets(b: np.ndarray, near: int, lattice: int, m_terms: int) -> np.ndarray:
    """bracket(lattice m) for m = near+1..m_terms, from its power series in 1/q;
    the orders summed are set by the first m past the crossover, so every
    value is the same whatever m_terms."""
    return _hankel_sum(b, 1, lattice * np.arange(near + 1, m_terms + 1, dtype=float))


def _bracket_values(nu: int, lattice: int, m_terms: int) -> np.ndarray:
    """bracket(lattice m) for m = 1..m_terms: a slice of the plan's brackets
    through the base range, built afresh beyond it."""
    plan = _plan(nu, lattice)
    if m_terms <= plan.brackets.size:
        return plan.brackets[:m_terms]
    far = _far_brackets(plan.b, plan.near, lattice, m_terms)
    return np.concatenate([plan.brackets[: plan.near], far])


def _envelopes(b: np.ndarray, lattice: int, m: int) -> np.ndarray:
    """Entry K-1: |b_{K+1}| sum_{j>m} (lattice j)^{-(K+3/2)} bounded by its
    integral, the first order dropped when orders 1..K are closed past m."""
    ks = np.arange(1, _ORDERS, dtype=float)
    return np.abs(b[2:]) * (float(lattice) * m) ** -(ks + 1.5) * m / (ks + 0.5)


_S = np.arange(1, _ORDERS + 1) + 0.5  # s = k + 1/2 of the orders k = 1.._ORDERS

@dataclass(frozen=True)
class _Residual:
    """The x-free part of a lattice sum at x != 0 that closes orders 1..K past M."""

    row: np.ndarray            # bracket(q) - c(q), c(q) = sum_{k<=K} b_k q^{-(k+1/2)}
    abs_sum: float             # sum_m |bracket(q)| over m = 1..M
    abs_moment: float          # sum_m m |bracket(q)|
    power_sums: np.ndarray     # sum_m q^{-s}, s = k + 1/2 for k = 1..K
    power_moments: np.ndarray  # sum_m m q^{-s}
    stairs: tuple[float, ...]  # sum_{m>j} |row_m| at j = 1, 2, 4, ... < M0, rounded up


@functools.lru_cache(maxsize=512)  # at most 10,760 + 72 floats each (nu = 260, lattice 1)
def _residual(nu: int, lattice: int, orders: int) -> _Residual:
    """The :class:`_Residual` of (nu, lattice) over the base range M0, `orders` orders closed.

    The closed orders subtract sum_k b_k P_s(M) = sum_m trig(2 pi m x) c(q), so
    a call sums row * trig once, not one partial sum P_s per order.  c comes
    by Horner's rule in 1/q, never as an orders x M array.  The bound's
    m-sums only scale a rounding allowance: numpy's pairwise sum forms them.
    A stair of the top cut sums at most M0 terms, each of which passes at
    most M0 additions, and the value's products row * trig round once more:
    the factor 1 + M0 _EPS covers both.
    """
    plan = _plan(nu, lattice)
    brackets, base = plan.brackets, plan.brackets.size
    ms = np.arange(1.0, base + 1.0)
    q = lattice * ms
    size = np.abs(brackets)
    abs_sum = float(size.sum())
    abs_moment = float(np.multiply(ms, size, out=size).sum())
    row = brackets - _orders_sum(plan.b, 1, orders, q) if orders else brackets
    power, sums, moments = q**-1.5, [], []
    for _ in range(orders):
        sums.append(float(power.sum()))
        moments.append(float(np.multiply(ms, power, out=size).sum()))
        np.divide(power, q, out=power)
    steps = np.add.reduceat(np.abs(row, out=size), 1 << np.arange((base - 1).bit_length()))
    stairs = tuple((np.cumsum(steps[::-1])[::-1] * (1.0 + base * _EPS)).tolist())
    residual = _Residual(row, abs_sum, abs_moment, np.array(sums), np.array(moments), stairs)
    for array in (residual.row, residual.power_sums, residual.power_moments):
        array.flags.writeable = False
    return residual


@functools.lru_cache(maxsize=512)  # three floats each
def _zero_sum(nu: int, lattice: int) -> tuple[float, float, float]:
    """(value, truncation, bound) at x = 0 over the base range M0: orders 1..K
    closed as b_k lattice^{-s} zeta(s, M0 + 1), K the order of the smallest
    envelope, and the bound that envelope plus the rounding.  None depends on tol."""
    plan = _plan(nu, lattice)
    brackets = plan.brackets
    orders = int(np.argmin(plan.envelopes)) + 1
    truncation = float(plan.envelopes[orders - 1])
    tails = [hurwitz_zeta(s, brackets.size + 1.0) for s in _S[:orders].tolist()]
    closed = plan.b[1 : orders + 1] * plan.lam_s[:orders] * np.array(tails)
    value = chunked_fsum(brackets) + math.fsum(closed.tolist())
    rounding = ((2e-15 + _EPS) * float(np.abs(brackets).sum())
                + _ZETA_EPS * float(np.abs(closed).sum()))
    return value, truncation, truncation + rounding


def _trig(even_nu: bool, x: float, ms: np.ndarray) -> np.ndarray:
    return np.cos(2.0 * pi * x * ms) if even_nu else np.sin(2.0 * pi * x * ms)


def _check_count(name: str, value, least: int = 1) -> None:
    # a plain int skips the isinstance checks, which cost more than the rest of the test
    if (type(value) is not int and (isinstance(value, bool) or not isinstance(value, (int, np.integer)))
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_lattice_args(nu, lattice) -> None:
    _check_count("nu", nu)
    _check_count("lattice", lattice)


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
    of :func:`_residual`.

    A closed difference cancels O(1) values down to its tail, so it carries
    an absolute rounding error of a few units times |b_k|, and |b_k| reaches
    6e4 at nu = 20.  When that alone breaks tol, the high orders, whose tails
    beyond a window m <= W are negligible, are summed term by term over
    (M, W] instead, W doubling from 2M up to DEFAULT_MAX_TERMS; the row keeps
    the rest.

    At x = 0 (even nu) the difference is lattice^{-s} zeta(s, M + 1), taken
    whole from :func:`specfun.hurwitz_zeta`: it cancels nothing and carries
    a few units of its own size.  Every order is closed up to the smallest
    dropped one, whatever tol, and no window opens: the finished value and
    bound are kept per (nu, lattice), and a call only compares the bound with tol.

    The reported bound is the dropped order plus the rounding of the
    explicit terms, of the closed tails and of the window (with its
    remainder); SeriesConvergenceError is raised unless it is at most tol.
    ValueError is raised for nu or lattice not a positive integer, and when
    a bracket exceeds the double range (from nu = 261 on the 4 pi m lattice).

    At x != 0, with no window and that bound within tol,
    the top of the explicit range is cut: the residual row falls like
    m^{-nu} up to 4 pi m ~ nu, so the smallest j = 1, 2, 4, ... < M whose
    x-free suffix sum_{m>j} |row_m| (the stairs of :func:`_residual`) fits
    both 1e-4 tol and tol minus the bound ends the sum at j, and that
    suffix joins the bound.  Under a relative tol at large nu a few terms remain: the formula
    becomes its own asymptotic expansion with a bound.  terms_used counts the
    m summed term by term: j after a cut, W with a window, M otherwise.
    Only the phases depend on x; the rest comes from the caches the module
    docstring lists.
    """
    _check_lattice_args(nu, lattice)
    even_nu = nu % 2 == 0
    if not even_nu and x == 0.0:
        return SeriesResult(0.0, 0, 0.0)
    plan = _plan(nu, lattice)
    b, M, envelopes = plan.b, plan.brackets.size, plan.envelopes
    if x == 0.0:
        # every phase is 1 and order k closes as b_k lattice^{-s} zeta(s, M + 1),
        # a sum of positive terms: nothing cancels, so no window is needed, and
        # the finished value and bound depend on neither x nor tol
        value, truncation, bound = _zero_sum(nu, lattice)
        W = M
    else:
        K = (next((k for k, envelope in enumerate(envelopes.tolist(), 1) if envelope <= tol), 0)
             or int(np.argmin(envelopes)) + 1)
        truncation = float(envelopes[K - 1])
        res = _residual(nu, lattice, K)
        s, b_abs, lam_s = _S[:K], plan.b_abs[:K], plan.lam_s[:K]
        xi = 2.0 * pi * x
        # trig(2 pi m x) is rounded by _EPS (1 + 2 pi x m), so its m-sums are x-free
        closed_err = b_abs * (plan.zeta_err[:K] + _EPS * (res.power_sums + xi * res.power_moments))
        fixed = truncation + (2e-15 + _EPS) * res.abs_sum + xi * _EPS * res.abs_moment
        W, split, bound = M, K, fixed + float(closed_err.sum())

        def windowed(w: int) -> tuple[int, float]:
            # orders split+1..K over (M, w], each with its remainder past w
            err = (b_abs * lam_s * (w ** (1.0 - s) + _EPS * (1.0 + xi * w) * M ** (1.0 - s))
                   / (s - 1.0))
            better = err < closed_err
            k = 0 if better.all() else K - int(np.argmin(better[::-1]))
            return k, fixed + float(closed_err[:k].sum() + err[k:].sum())

        if bound > tol and windowed(DEFAULT_MAX_TERMS)[1] <= tol:
            W = min(2 * M, DEFAULT_MAX_TERMS)
            while (found := windowed(W))[1] > tol:
                W = min(2 * W, DEFAULT_MAX_TERMS)
            split, bound = found
            res = _residual(nu, lattice, split)
        elif res.stairs[-1] <= 1e-4 * tol and bound + res.stairs[-1] <= tol:
            # the top cut: drop m > j = 2^i, the first whose |row| sum fits 1e-4 tol and the slack
            # (the stairs fall, so the last one decides whether any fits)
            i = next(i for i, stair in enumerate(res.stairs)
                     if stair <= 1e-4 * tol and bound + stair <= tol)
            W, bound = 1 << i, bound + res.stairs[i]
        # orders 1..split: sum_m trig (bracket - c) plus b_k lattice^{-s} T_s(x)
        top = min(W, M)
        trig = _trig(even_nu, x, np.arange(1.0, top + 1.0))
        zeta_row = _periodic_zeta_rows(x, not even_nu)
        closed = b[1 : split + 1] * lam_s[:split] * zeta_row[1 : split + 1]
        value = chunked_fsum(res.row[:top] * trig) + math.fsum(closed.tolist())
        if split < K:
            mw = np.arange(M + 1, W + 1, dtype=float)
            value += chunked_fsum(_trig(even_nu, x, mw) * _orders_sum(b, split + 1, K, lattice * mw))
    result = SeriesResult(value, W, bound)
    if not bound <= tol:
        rounding = bound - truncation
        cause = (f"rounding bound {rounding:.2e}" if rounding > tol
                 else f"bound {bound:.2e} (truncation term {truncation:.2e})")
        raise SeriesConvergenceError(
            f"regularized_bracket_sum: {cause} exceeds tol {tol:.2e} (nu={nu}, M={M})",
            result,
        )
    return result


def _regularizer_sum(nu: int, x: float, lattice: int) -> float:
    """sum_m trig(2 pi m x)/(2 sqrt(lattice m)): (1/2) lattice^{-1/2} times C_{1/2}(x)
    for even nu, S_{1/2}(x) for odd nu."""
    return 0.5 * lattice**-0.5 * float(_periodic_zeta_rows(x, bool(nu % 2))[0])


def lattice_bessel_sum(
    nu: int,
    x: float,
    tol: float = DEFAULT_TOL,
    *,
    lattice: int = 1,
) -> SeriesResult:
    """sum_m (-1)^{floor(nu/2)} pi Y_nu(4 pi lattice m) trig(2 pi m x), 0 <= x < 1.

    The regularized bracket sum minus the closed sum of its regularizer,
    zeta(1/2)/(2 sqrt(lattice)) at x = 0; the bound adds that value's
    _ZETA_EPS.  For odd nu at x = 0 and 1/2 the sum is exactly 0.  Points
    0 < x outside DEFAULT_X_WINDOW are flagged: the closed sum grows like x^{-1/2}.
    ValueError for nu or lattice out of their domains, as in
    :func:`regularized_bracket_sum`; each call checks them once, here before
    an exact zero and in the bracket sum otherwise.  When the bracket sum
    raises, SeriesConvergenceError carries its message and, as best, the
    lattice sum formed from the bracket sum it gave up on.
    """
    if x in (0.0, 0.5) and isinstance(nu, (int, np.integer)) and nu % 2:
        _check_lattice_args(nu, lattice)
        return SeriesResult(0.0, 0, 0.0)
    outside = not (x == 0.0 or DEFAULT_X_WINDOW[0] <= x <= DEFAULT_X_WINDOW[1])

    def unregularized(reg: SeriesResult) -> SeriesResult:
        return SeriesResult(reg.value - _regularizer_sum(nu, x, lattice), reg.terms_used,
                            reg.tail_bound + 0.5 * lattice**-0.5 * _ZETA_EPS, outside_window=outside)

    try:
        reg = regularized_bracket_sum(nu, x, tol, lattice=lattice)
    except SeriesConvergenceError as err:
        raise SeriesConvergenceError(str(err), unregularized(err.best)) from err
    return unregularized(reg)


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
