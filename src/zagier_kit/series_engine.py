"""Accelerated evaluation of the slowly convergent Bessel and algebraic series.

The conditionally convergent sums over Y_nu(4 pi m) converge like m^{-1/2}
with oscillation, hopeless to sum naively.  The engine regularizes each
term with +1/(2 sqrt(m)) (making the bracket decay like m^{-3/2}), folds
the subtracted 1/(2 sqrt(m)) weights into closed half-integer trigonometric
power sums obtained from the Hurwitz zeta function, and pushes the
remaining bracket tail through the large-argument Bessel expansion at
orders m^{-3/2} and m^{-5/2}.  The first dropped order sets the reported
tail bound.

All reductions run in fixed ascending-m order through exact float
summation (math.fsum) over fixed-size chunks, so results are reproducible
bit for bit regardless of threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np
from scipy import special as sp_special

from .specfun import asymptotic_crossover, hankel_coefficients, hurwitz_zeta

__all__ = [
    "SeriesResult",
    "SeriesConvergenceError",
    "TrigPowerSums",
    "trig_power_sums",
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


def _cs_pair(s: float, x: float) -> tuple[float, float]:
    """(C_s(x), S_s(x)) for half-integer s = k + 1/2 via the Hurwitz functional
    equation (DLMF 25.11.9).

    C_s = sigma_c (8 pi)^k k!/(2 (2k)!) (zeta(1-s, x) + zeta(1-s, 1-x)) and
    S_s = sigma_s (same factor) (zeta(1-s, x) - zeta(1-s, 1-x)), where the signs
    are those of cos(pi s/2) and sin(pi s/2): sigma_c = +1 for k mod 4 in {0, 3},
    sigma_s = +1 for k mod 4 in {0, 1}.
    """
    k = int(s)
    if s != k + 0.5 or k < 0:
        raise ValueError(f"unsupported exponent {s}")
    # divide by the exact integer 2 (2k)!/k!; k!/(2 (2k)!) itself is no double
    factor = (8.0 * pi) ** k / (2 * math.factorial(2 * k) // math.factorial(k))
    c = factor if k % 4 in (0, 3) else -factor
    sn = factor if k % 4 in (0, 1) else -factor
    zx = hurwitz_zeta(1.0 - s, x)
    z1x = hurwitz_zeta(1.0 - s, 1.0 - x)
    return c * (zx + z1x), sn * (zx - z1x)


def trig_power_sums(x: float) -> TrigPowerSums:
    """Half-integer trigonometric power sums at x in (0, 1).

    The s = 1/2 pair is the even/odd split of zeta(1/2, x); the absolutely
    convergent exponents 3/2, 5/2, 7/2 come out of the same functional
    equation at negative first argument.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    c12, s12 = _cs_pair(0.5, x)
    higher = {k: _cs_pair(k / 2.0, x) for k in (3, 5, 7)}
    return TrigPowerSums(x=x, cos_sum_half=c12, sin_sum_half=s12, higher=higher)


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
    prefix: int = 400,
) -> SeriesResult:
    """sum_{j>=0} f(a0 + j) with f(A) = (A - sqrt(A^2-csq))^{2r}/sqrt(A^2-csq).

    Terms fall off like (c/2A)^{2r}/A.  A direct prefix is closed with the
    Euler-Maclaurin tail; the integral term has the closed form
    (A - sqrt(A^2-csq))^{2r}/(2r).
    """
    if r < 0.5:
        raise ValueError("exponent r must be >= 1/2 for a usable tail bound")
    if a0 * a0 <= csq:
        raise ValueError("series start must satisfy a0^2 > csq")
    n_direct = min(prefix, max_terms)
    a_vals = a0 + np.arange(n_direct, dtype=float)
    roots = np.sqrt(a_vals * a_vals - csq)
    w = csq / (a_vals + roots)
    terms = w ** (2.0 * r) / roots
    head = chunked_fsum(terms)
    a_end = a0 + n_direct
    f_end, fp_end, integral = _conj_f(a_end, r, csq)
    value = head + integral + 0.5 * f_end - fp_end / 12.0
    # next Euler-Maclaurin correction (B_4 f''' / 4!) as the honest remainder scale
    bound = f_end * (2.0 * r + 3.0) ** 3 / (720.0 * a_end * a_end) + 1e-16
    return SeriesResult(value, n_direct, bound, accelerated=True)


def g_tail_sum(
    r: float,
    x: float,
    start_m: int = 1,
    tol: float = 1e-12,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """sum_{m >= start_m} g(m, r, x).

    A short prefix is closed by the Euler-Maclaurin tail, which is what
    makes the r = 1/2 exponent affordable.
    """
    if r < 0.5:
        raise ValueError("g_tail_sum requires r >= 1/2")
    return conjugate_power_sum(start_m + 1.0 + x, r, 4.0, tol=tol, max_terms=max_terms)


# ---------------------------------------------------------------------------
# regularized Bessel sums
# ---------------------------------------------------------------------------

def _bracket_tail_coeffs(nu: int) -> tuple[float, float, float]:
    """Leading tail coefficients of the regularized bracket.

    bracket(m) = (-1)^{floor(nu/2)} pi Y_nu(4 pi m) + 1/(2 sqrt(m))
               = c1 m^{-3/2} + c2 m^{-5/2} + O(m^{-7/2}).
    Returns (c1, c2, |c3|).
    """
    u = hankel_coefficients(float(nu), 3)
    s1 = 1.0 if nu % 2 == 0 else -1.0
    c1 = s1 * u[1] / (2.0 * (4.0 * pi))
    c2 = u[2] / (2.0 * (4.0 * pi) ** 2)
    c3 = abs(u[3]) / (2.0 * (4.0 * pi) ** 3)
    return c1, c2, c3


def _bracket_sign(nu: int, k: int) -> float:
    if nu % 2 == 0:
        return 1.0 if k % 4 in (1, 2) else -1.0
    return 1.0 if k % 4 in (2, 3) else -1.0


def _bracket_asymptotic(nu: int, m: np.ndarray, kmax: int = 30) -> np.ndarray:
    """Regularized bracket on the 4*pi lattice via the exact-phase expansion.

    On arguments z = 4 pi m the oscillatory phase of Y_nu is a constant, so
    the bracket collapses to a pure power series in 1/m: no trig of large
    arguments, no phase-reduction error.  Valid beyond the asymptotic
    crossover.
    """
    u = hankel_coefficients(float(nu), kmax)
    t = np.ones_like(m)
    total = np.zeros_like(m)
    for k in range(1, kmax + 1):
        t = t / (4.0 * pi * m)
        total += _bracket_sign(nu, k) * u[k] * t
    return total / (2.0 * np.sqrt(m))


def _bracket_values(nu: int, q: np.ndarray) -> np.ndarray:
    """bracket(q) for an ascending array of lattice indices q."""
    n = nu // 2
    sign = (-1.0) ** n
    cross = asymptotic_crossover(nu)
    out = np.empty_like(q)
    small = 4.0 * pi * q <= cross
    if small.any():
        zs = 4.0 * pi * q[small]
        out[small] = sign * pi * sp_special.yn(nu, zs) + 0.5 / np.sqrt(q[small])
    if (~small).any():
        out[~small] = _bracket_asymptotic(nu, q[~small])
    return out


def regularized_bracket_sum(
    nu: int,
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    lattice: int = 1,
    m_terms: int | None = None,
) -> SeriesResult:
    """sum_{m>=1} bracket(lattice*m) * trig(2 pi m x).

    trig is cos for even nu, sin for odd nu; x = 0 is allowed for the even
    case (the closed sums degenerate to Riemann zeta values).  The explicit
    range [1, M] uses true bracket values; beyond M the m^{-3/2} and
    m^{-5/2} orders are summed in closed form and the first dropped order
    is reported as the tail bound.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    even_nu = nu % 2 == 0
    if not even_nu and x == 0.0:
        return SeriesResult(0.0, 0, 0.0, accelerated=True)
    c1, c2, c3 = _bracket_tail_coeffs(nu)
    lam = float(lattice)
    truncation_fail = False
    if m_terms is not None:
        M = max(int(m_terms), 1)
    else:
        cross = asymptotic_crossover(nu)
        m_floor = max(int(math.ceil(cross / (4.0 * pi * lam))) + 1, 8)
        m_needed = (c3 * 0.4 / tol) ** 0.4 / lam if tol > 0 else math.inf
        M = max(m_floor, int(math.ceil(m_needed)))
        if M > max_terms:
            M = max_terms
            truncation_fail = True
    ms = np.arange(1, M + 1, dtype=float)
    q = lam * ms
    brackets = _bracket_values(nu, q)
    trig = np.cos(2.0 * pi * x * ms) if even_nu else np.sin(2.0 * pi * x * ms)
    explicit = chunked_fsum(brackets * trig)
    if x == 0.0:
        t32, t52 = hurwitz_zeta(1.5, 1.0), hurwitz_zeta(2.5, 1.0)
    else:
        idx = 0 if even_nu else 1
        t32 = _cs_pair(1.5, x)[idx]
        t52 = _cs_pair(2.5, x)[idx]
    p32 = chunked_fsum(trig * q**-1.5)
    p52 = chunked_fsum(trig * q**-2.5)
    tail = c1 * (t32 * lam**-1.5 - p32) + c2 * (t52 * lam**-2.5 - p52)
    bound = c3 * 0.4 * (lam * M) ** -2.5 + 2e-15 * float(np.sum(np.abs(brackets)))
    result = SeriesResult(explicit + tail, M, bound, accelerated=True)
    if truncation_fail and bound > tol:
        raise SeriesConvergenceError(
            f"regularized_bracket_sum: tail bound {bound:.2e} exceeds tol {tol:.2e} "
            f"at the {max_terms}-term budget",
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
    c12, _ = _cs_pair(0.5, x)
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
    _, s12 = _cs_pair(0.5, x)
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
    n = nu // 2
    ms = np.arange(1, m_terms + 1, dtype=float)
    ys = np.empty_like(ms)
    cross = asymptotic_crossover(nu)
    small = 4.0 * pi * ms <= cross
    if small.any():
        ys[small] = sp_special.yn(nu, 4.0 * pi * ms[small])
    if (~small).any():
        big = ms[~small]
        sign = (-1.0) ** n
        ys[~small] = sign * (_bracket_asymptotic(nu, big) - 0.5 / np.sqrt(big)) / pi
    trig = np.cos(2.0 * pi * x * ms) if nu % 2 == 0 else np.sin(2.0 * pi * x * ms)
    return chunked_fsum(((-1.0) ** n * pi) * ys * trig)
