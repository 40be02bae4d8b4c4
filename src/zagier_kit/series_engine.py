"""Accelerated evaluation of the slowly convergent Bessel and algebraic series.

The conditionally convergent sums over Y_nu(4 pi m) converge like m^{-1/2}
with oscillation, hopeless to sum naively.  The engine regularizes each
term with +1/(2 sqrt(m)) (making the bracket decay like m^{-3/2}) and folds
the subtracted 1/(2 sqrt(m)) weights into the closed periodic zeta values
C_{1/2}(x), S_{1/2}(x).  Past the Hankel crossover the bracket on the 4 pi m
lattice is a pure power series in 1/m, sum_k b_k m^{-(k+1/2)}, so every
order of the tail beyond the explicit range is summed in closed form, again
through periodic zeta values at s = k + 1/2 (Wood's polylogarithm
expansion).  The explicit range therefore sits at the crossover
2 nu^2/(4 pi) whatever the tolerance; the tolerance only picks how many
orders are closed.  The reported bound is the first dropped order plus
the rounding of every piece, and a tolerance below it raises.

All reductions over m run in fixed ascending order through exact float
summation (math.fsum) over fixed-size chunks, so results are reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .specfun import (ASYM_Z_MIN, asymptotic_crossover, bessel_Y01, bessel_Y_int,
                      bessel_Y_upward, hankel_coefficients, hurwitz_zeta)

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
    "regularized_bracket_sum",
    "bessel_series_partial",
    "chunked_fsum",
    "DEFAULT_TOL",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_X_WINDOW",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_TERMS = 20000
DEFAULT_X_WINDOW = (0.01, 0.99)

_CHUNK = 4096
_ORDERS = 30        # orders k of the bracket expansion sum_k b_k m^{-(k+1/2)}
_WOOD_TERMS = 64    # terms of Wood's expansion; 2^{-64} is far below rounding
_EPS = 2.2e-16      # two units of double rounding
_ZETA_EPS = 2.5e-15  # periodic_zeta (<= 1.8e-15 against mpmath) and the subtraction


class SeriesConvergenceError(RuntimeError):
    """Requested tolerance unreachable within the term budget."""

    def __init__(self, message: str, best: "SeriesResult | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    tail_bound: float
    accelerated: bool
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
    """Deterministic compensated reduction: exact fsum over fixed chunks."""
    flat = np.ascontiguousarray(values, dtype=float)
    if flat.size <= _CHUNK:
        return math.fsum(flat.tolist())
    partials = [
        math.fsum(flat[i : i + _CHUNK].tolist()) for i in range(0, flat.size, _CHUNK)
    ]
    return math.fsum(partials)


@functools.cache
def _wood_tables() -> tuple[np.ndarray, ...]:
    """Coefficients of the expansions in :func:`periodic_zeta`, s = k + 1/2.

    Returns (zeta, eta, gamma_c, gamma_s, re, im) with zeta[k, j] =
    zeta(s - j) and eta[k, j] = (1 - 2^{1-s+j}) zeta(s - j) for j <
    _WOOD_TERMS, gamma_c[k] + i gamma_s[k] = Gamma(1-s) e^{-i pi (s-1)/2}
    and re[j] + i im[j] = i^j / j!.  Zeta at positive half-integers comes
    from the Euler-Maclaurin Hurwitz values, at negative ones from the
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
    else:
        a = pi * (2.0 * t - 1.0)
        rows = -eta[: k_max + 1]
        c = s = 0.0
    powers = a ** np.arange(_WOOD_TERMS, dtype=float)
    c = c + (rows * (powers * re)).sum(axis=1)
    s = s + (rows * (powers * im)).sum(axis=1)
    return c, -s if x > 0.5 else s


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


def _conj_f(a: float, r: float, csq: float) -> tuple[float, float, float]:
    """(f, f', closed tail integral) for f(A) = (A - sqrt(A^2-csq))^{2r}/sqrt(A^2-csq)."""
    root = sqrt(a * a - csq)
    w = csq / (a + root)  # A - sqrt(A^2 - csq)
    wp = w ** (2.0 * r)
    f = wp / root
    fprime = -wp * (2.0 * r * root + a) / root**3
    integral = wp / (2.0 * r)
    return f, fprime, integral


def conjugate_power_sum(
    a0: float,
    r: float,
    csq: float,
    tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
    prefix: int | None = None,
) -> SeriesResult:
    """sum_{j>=0} f(a0 + j) with f(A) = (A - sqrt(A^2-csq))^{2r}/sqrt(A^2-csq).

    Terms fall off like (c/2A)^{2r}/A.  A direct prefix is closed with the
    Euler-Maclaurin tail; the integral term has the closed form
    (A - sqrt(A^2-csq))^{2r}/(2r).  The prefix is the smallest power of two
    >= 8 whose next Euler-Maclaurin correction is <= tol, at most
    max_terms; SeriesConvergenceError is raised if that correction still
    exceeds tol there.  A forced prefix is used as given and never raises.
    The reported bound adds the rounding of the terms, at least 1e-16, to
    that correction; the rounding drives neither the prefix nor the raise.
    """
    if r < 0.5:
        raise ValueError("exponent r must be >= 1/2 for a usable tail bound")
    return _conjugate_sum(a0 - sqrt(csq), r, sqrt(csq), tol, max_terms, prefix)


def _conjugate_sum(gap, r, c, tol=1e-12, max_terms=DEFAULT_MAX_TERMS, prefix=None):
    """:func:`conjugate_power_sum` at a0 = c + gap, any r > 0: each A^2 - c^2 is
    formed as (A - c)(A + c) from the gap, so a small gap keeps its digits."""
    if gap <= 0.0:
        raise ValueError("series start must satisfy a0 > sqrt(csq)")
    csq, a0 = c * c, c + gap

    def correction(n: int) -> float:
        # next Euler-Maclaurin correction (B_4 f''' / 4!) as the honest remainder scale
        a_end = a0 + n
        return _conj_f(a_end, r, csq)[0] * (2.0 * r + 3.0) ** 3 / (720.0 * a_end * a_end)

    if prefix is not None:
        n_direct = min(prefix, max_terms)
    else:
        # start from where the large-A form f ~ (csq/2A)^{2r}/A puts the
        # correction at tol; f lies above that form, so only doubling remains
        a_tol = ((csq / 2.0) ** (2.0 * r) * (2.0 * r + 3.0) ** 3 / (720.0 * tol)) ** (1.0 / (2.0 * r + 3.0))
        n_direct = min(1 << max(3, math.ceil(math.log2(max(a_tol - a0, 1.0)))), max_terms)
        while correction(n_direct) > tol and n_direct < max_terms:
            n_direct = min(2 * n_direct, max_terms)
    gaps = gap + np.arange(n_direct, dtype=float)
    roots = np.sqrt(gaps * (gaps + 2.0 * c))
    w = csq / (c + gaps + roots)  # A - sqrt(A^2 - csq)
    terms = w ** (2.0 * r) / roots
    head = chunked_fsum(terms)
    a_end = a0 + n_direct
    f_end, fp_end, integral = _conj_f(a_end, r, csq)
    value = head + integral + 0.5 * f_end - fp_end / 12.0
    truncation = correction(n_direct)
    rounding = 1e-16 + _EPS * (2.0 * r + 1.0) * head  # ~2r+1 roundings per term
    result = SeriesResult(value, n_direct, truncation + rounding, accelerated=True)
    if prefix is None and truncation > tol:
        raise SeriesConvergenceError(
            f"conjugate_power_sum: Euler-Maclaurin correction {truncation:.2e} exceeds "
            f"tol {tol:.2e} at the {max_terms}-term budget",
            result,
        )
    return result


def g_tail_sum(
    r: float,
    x: float,
    start_m: int = 1,
    tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """sum_{m >= start_m} g(m, r, x).

    A short prefix is closed by the Euler-Maclaurin tail, which is what
    makes the r = 1/2 exponent affordable.  It runs on the gap A - 2 = m - 1 + x.
    """
    if r < 0.5:
        raise ValueError("g_tail_sum requires r >= 1/2")
    return _conjugate_sum(start_m - 1.0 + x, r, 2.0, tol, max_terms)


# ---------------------------------------------------------------------------
# regularized Bessel sums
# ---------------------------------------------------------------------------

def _bracket_sign(nu: int, k: int) -> float:
    if nu % 2 == 0:
        return 1.0 if k % 4 in (1, 2) else -1.0
    return 1.0 if k % 4 in (2, 3) else -1.0


@functools.cache
def _bracket_coeffs(nu: int) -> np.ndarray:
    """b_0..b_ORDERS with bracket(q) ~ sum_k b_k q^{-(k+1/2)} past the crossover.

    bracket(q) = (-1)^{floor(nu/2)} pi Y_nu(4 pi q) + 1/(2 sqrt(q)) and
    b_k = sign(nu, k) u_k / (2 (4 pi)^k) with the Hankel coefficients u_k;
    b_0 = 0.  On arguments 4 pi q the oscillatory phase of Y_nu is a
    constant, which is what leaves a pure power series.
    """
    u = hankel_coefficients(float(nu), _ORDERS)
    b = np.array([0.0] + [_bracket_sign(nu, k) * u[k] / (2.0 * (4.0 * pi) ** k)
                          for k in range(1, _ORDERS + 1)])
    b.flags.writeable = False
    return b


def _hankel_sum(b: np.ndarray, lo: int, m: np.ndarray) -> np.ndarray:
    """sum_{k >= lo} b_k m^{-(k+1/2)} past the crossover, for an ascending array m,
    through the last order that reaches 1e-17 of the largest at min(m)."""
    if not m.size:
        return m
    sizes = np.abs(b[lo:]) * float(m[0]) ** -np.arange(lo, b.size, dtype=float)
    top = lo + int(np.flatnonzero(sizes >= 1e-17 * sizes.max())[-1])
    return _orders_sum(b, lo, top, m)


def _bracket_asymptotic(nu: int, m: np.ndarray) -> np.ndarray:
    """Regularized bracket on the 4*pi lattice past the crossover from its power
    series in 1/m (ascending m): no trig of large arguments, no phase error."""
    return _hankel_sum(_bracket_coeffs(nu), 1, m)


def _orders_sum(b: np.ndarray, lo: int, hi: int, q: np.ndarray) -> np.ndarray:
    """sum_{k=lo}^{hi} b_k q^{-(k+1/2)} by Horner's rule in 1/q."""
    total = np.full_like(q, b[hi])
    for k in range(hi - 1, lo - 1, -1):
        total = total / q + b[k]
    return total * q ** -(lo + 0.5)


@functools.cache
def _lattice_brackets(nu: int, lattice: int) -> np.ndarray:
    """bracket(lattice m) for every m with 4 pi lattice m at or below the crossover:
    Y_0, Y_1 from :func:`specfun.bessel_Y01` up to z = 40 and from their lattice
    series beyond, carried up to Y_nu.  ValueError past the double range."""
    if not math.isfinite(pi * bessel_Y_int(nu, 4.0 * pi * lattice).value):  # largest at m = 1
        raise ValueError(f"the Bessel term Y_{nu}({4 * lattice} pi) exceeds the double range")
    q = lattice * np.arange(1.0, int(asymptotic_crossover(nu) / (4.0 * pi * lattice)) + 1.0)
    z, root = 4.0 * pi * q, np.sqrt(q)
    low = int(np.count_nonzero(z <= ASYM_Z_MIN))
    y01 = np.empty((2, q.size))
    for i in range(low):
        y01[:, i] = bessel_Y01(z[i])
    for k in (0, 1):  # bracket = pi Y_k + 1/(2 sqrt(q)) at orders 0 and 1
        y01[k, low:] = (_bracket_asymptotic(k, q[low:]) - 0.5 / root[low:]) / pi
    out = (-1.0) ** (nu // 2) * pi * bessel_Y_upward(nu, z, *y01) + 0.5 / root
    out.flags.writeable = False
    return out


def _bracket_values(nu: int, lattice: int, m_terms: int) -> np.ndarray:
    """bracket(lattice m) for m = 1..m_terms."""
    near = _lattice_brackets(nu, lattice)[:m_terms]
    q = lattice * np.arange(near.size + 1, m_terms + 1, dtype=float)
    return np.concatenate([near, _bracket_asymptotic(nu, q)])


def _tail_envelopes(b: np.ndarray, lam: float, m: int) -> np.ndarray:
    """Entry K-1: |b_{K+1}| sum_{j>m} (lam j)^{-(K+3/2)} bounded by its
    integral, the first order dropped when orders 1..K are closed past m."""
    ks = np.arange(1, _ORDERS, dtype=float)
    return np.abs(b[2:]) * (lam * m) ** -(ks + 1.5) * m / (ks + 0.5)


def _trig(even_nu: bool, x: float, ms: np.ndarray) -> np.ndarray:
    return np.cos(2.0 * pi * x * ms) if even_nu else np.sin(2.0 * pi * x * ms)


def regularized_bracket_sum(
    nu: int,
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    lattice: int = 1,
    m_terms: int | None = None,
) -> SeriesResult:
    """sum_{m>=1} bracket(lattice*m) * trig(2 pi m x), 0 <= x < 1.

    trig is cos for even nu, sin for odd nu; x = 0 is allowed (the closed
    sums degenerate to Riemann zeta values).  The explicit range [1, M]
    uses true bracket values and ends just past the Hankel crossover.
    Beyond M the orders k = 1..K of bracket(q) ~ sum_k b_k q^{-(k+1/2)}
    are summed in closed form, b_k (lattice^{-s} T_s(x) - P_s(M)) with
    s = k + 1/2, T_s the periodic zeta value and P_s its partial sum over
    m <= M.  K is the first order whose dropped successor is below tol; M
    doubles, up to max_terms, only while no order gets there.

    A closed difference cancels O(1) values down to its tail, so it carries
    an absolute rounding error of a few units times |b_k|, and |b_k|
    reaches 6e4 at nu = 20.  When that alone breaks tol, the high orders, whose
    tails beyond a window m <= W are negligible, are summed term by term
    over (M, W] instead, W doubling from 2M up to max_terms.

    The reported bound is the dropped order plus the rounding of the
    explicit terms, of the closed differences and of the window (with its
    remainder); SeriesConvergenceError is raised when it exceeds tol.  A
    forced m_terms truncates at the smallest dropped order instead, closes
    every order and never raises that.  ValueError is raised when a bracket
    exceeds the double range (from nu = 261 on the 4 pi m lattice).
    terms_used counts the m summed term by term, max(M, W).
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    even_nu = nu % 2 == 0
    if not even_nu and x == 0.0:
        return SeriesResult(0.0, 0, 0.0, accelerated=True)
    b = _bracket_coeffs(nu)
    lam = float(lattice)
    if m_terms is not None:
        M = max(int(m_terms), 1)
        envelopes = _tail_envelopes(b, lam, M)
        K = int(np.argmin(envelopes)) + 1
    else:
        cross = asymptotic_crossover(nu)
        M = min(max(int(math.ceil(cross / (4.0 * pi * lam))) + 1, 8), max_terms)
        while True:
            envelopes = _tail_envelopes(b, lam, M)
            below = np.flatnonzero(envelopes <= tol)
            if below.size or M >= max_terms:
                break
            M = min(2 * M, max_terms)
        K = int(below[0]) + 1 if below.size else int(np.argmin(envelopes)) + 1
    truncation = float(envelopes[K - 1])
    ms = np.arange(1, M + 1, dtype=float)
    q = lam * ms
    brackets = _bracket_values(nu, lattice, M)
    trig = _trig(even_nu, x, ms)
    explicit = chunked_fsum(brackets * trig)
    phase = _EPS * (1.0 + 2.0 * pi * x * ms)  # rounding of trig(2 pi m x)
    s = np.arange(1, K + 1) + 0.5
    b_abs = np.abs(b[1 : K + 1])
    powers = q ** -s[:, None]  # row k-1: (lattice m)^{-s}
    closed_err = b_abs * (_ZETA_EPS * lam**-s + powers @ phase)
    fixed = truncation + float(np.dot(np.abs(brackets), 2e-15 + phase))
    W, split, bound = M, K, fixed + float(closed_err.sum())

    def windowed(w: int) -> tuple[int, float]:
        # orders split+1..K over (M, w], each with its remainder past w
        err = (b_abs * lam**-s * (w ** (1.0 - s) + _EPS * (1.0 + 2.0 * pi * x * w) * M ** (1.0 - s))
               / (s - 1.0))
        better = err < closed_err
        k = 0 if better.all() else K - int(np.argmin(better[::-1]))
        return k, fixed + float(closed_err[:k].sum() + err[k:].sum())

    if m_terms is None and bound > tol and M < max_terms and windowed(max_terms)[1] <= tol:
        W = min(2 * M, max_terms)
        while (found := windowed(W))[1] > tol:
            W = min(2 * W, max_terms)
        split, bound = found
    tail = 0.0
    if split:
        closed = periodic_zeta(x, split)[0 if even_nu else 1][1:] * lam**-s[:split]
        partial = np.array([chunked_fsum(trig * row) for row in powers[:split]])
        tail = math.fsum((b[1 : split + 1] * (closed - partial)).tolist())
    if split < K:
        mw = np.arange(M + 1, W + 1, dtype=float)
        tail += chunked_fsum(_trig(even_nu, x, mw) * _orders_sum(b, split + 1, K, lam * mw))
    result = SeriesResult(explicit + tail, W, bound, accelerated=True)
    if m_terms is None and bound > tol:
        cause = (f"truncation term {truncation:.2e} at the {max_terms}-term budget"
                 if truncation > tol else f"rounding bound {bound - truncation:.2e}")
        raise SeriesConvergenceError(
            f"regularized_bracket_sum: {cause} exceeds tol {tol:.2e} (nu={nu}, M={M})",
            result,
        )
    return result


def _window_flag(x: float) -> bool:
    return not (DEFAULT_X_WINDOW[0] <= x <= DEFAULT_X_WINDOW[1])


def bessel_cos_series(
    n: int,
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """sum_m (-1)^n pi Y_{2n}(4 pi m) cos(2 pi m x), 0 < x < 1.

    Evaluated as the regularized bracket sum minus half the closed
    cos/sqrt(m) power sum.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    reg = regularized_bracket_sum(2 * n, x, tol=tol, max_terms=max_terms)
    c12 = float(periodic_zeta(x, 0)[0][0])
    return SeriesResult(
        reg.value - 0.5 * c12,
        reg.terms_used,
        reg.tail_bound,
        accelerated=True,
        outside_window=_window_flag(x),
    )


def bessel_sin_series(
    n: int,
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """sum_m (-1)^n pi Y_{2n+1}(4 pi m) sin(2 pi m x), 0 < x < 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if x == 0.5:
        # sin(pi m) vanishes term by term
        return SeriesResult(0.0, 0, 0.0, accelerated=True,
                            outside_window=_window_flag(x))
    reg = regularized_bracket_sum(2 * n + 1, x, tol=tol, max_terms=max_terms)
    s12 = float(periodic_zeta(x, 0)[1][0])
    return SeriesResult(
        reg.value - 0.5 * s12,
        reg.terms_used,
        reg.tail_bound,
        accelerated=True,
        outside_window=_window_flag(x),
    )


def bessel_series_partial(nu: int, x: float, m_terms: int) -> float:
    """Plain M-term partial sum of the conditionally convergent series.

    Diagnostic only (convergence studies); the error decays like M^{-1/2}.
    """
    if nu < 1 or m_terms < 1:
        raise ValueError("nu and m_terms must be positive")
    ms = np.arange(1, m_terms + 1, dtype=float)
    terms = _bracket_values(nu, 1, m_terms) - 0.5 / np.sqrt(ms)
    return chunked_fsum(terms * _trig(nu % 2 == 0, x, ms))
