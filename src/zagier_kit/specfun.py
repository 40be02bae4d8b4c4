"""Floating-point special functions backing the Bessel-series identities.

Double precision throughout.  Each evaluator returns an :class:`EvalResult`
carrying a heuristic absolute-error estimate and the method that produced
the value.  Integer J comes from Miller's recurrence, integer Y from the
upward recurrence over Y_0, Y_1, and non-integer J from mpmath (imported
on first use); the large-argument branch is our own Hankel-type expansion
with smallest-term truncation, because the series engine needs its
coefficients and its exact-phase form on the 4*pi*m lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import cos, log, pi, sin, sqrt
from typing import Literal

import numpy as np

from .exact_core import bernoulli_number

__all__ = [
    "EvalResult",
    "QuadratureError",
    "EULER_GAMMA",
    "digamma_int",
    "asymptotic_crossover",
    "bessel_J",
    "bessel_J_int_batch",
    "bessel_Y_int",
    "dJ_dnu_at_int",
    "schlafli_S",
    "P_func",
    "Q_func",
    "hurwitz_zeta",
    "hurwitz_zeta_half",
    "zeta_half",
    "coates_integral",
    "coates_series",
    "chebyshev_U_value",
]

EULER_GAMMA = 0.57721566490153286

Method = Literal["series", "recurrence", "asymptotic", "quadrature"]

# large-argument branch activates for z > max(ASYM_Z_MIN, ASYM_NU_FACTOR * nu^2);
# with these values the smallest-term truncation error sits below 1e-12
ASYM_Z_MIN = 40.0
ASYM_NU_FACTOR = 2.0

DEFAULT_PANEL_LIMIT = 500_000


class QuadratureError(RuntimeError):
    """Adaptive quadrature exceeded its panel budget."""


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_estimate: float
    method: Method

    def __float__(self) -> float:
        return self.value


def digamma_int(n: int) -> float:
    """psi(n) = -gamma + H_{n-1} for positive integer n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return -EULER_GAMMA + math.fsum(1.0 / j for j in range(1, n))


def asymptotic_crossover(nu: float) -> float:
    return max(ASYM_Z_MIN, ASYM_NU_FACTOR * nu * nu)


def hankel_coefficients(nu: float, kmax: int) -> list[float]:
    """u_k of the large-argument expansion; term k is u_k / z^k.

    u_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k).
    """
    out = [1.0]
    acc = 1.0
    four_nu2 = 4.0 * nu * nu
    for k in range(1, kmax + 1):
        acc *= (four_nu2 - (2 * k - 1) ** 2) / (8.0 * k)
        out.append(acc)
    return out


def _asymptotic_JY(nu: float, z: float) -> tuple[float, float, float]:
    """(J_nu(z), Y_nu(z), err) via the Hankel expansion, smallest-term truncated."""
    w = z - 0.5 * pi * nu - 0.25 * pi
    u = hankel_coefficients(nu, 60)
    p_sum = 1.0
    q_sum = 0.0
    term = 1.0
    last_mag = 1.0
    dropped = 0.0
    for k in range(1, 61):
        term /= z
        t = u[k] * term
        mag = abs(t)
        if mag >= last_mag:
            dropped = mag
            break
        if k % 2 == 0:
            p_sum += t if k % 4 == 0 else -t
        else:
            q_sum += t if k % 4 == 1 else -t
        last_mag = mag
        dropped = mag
    amp = sqrt(2.0 / (pi * z))
    j_val = amp * (cos(w) * p_sum - sin(w) * q_sum)
    y_val = amp * (sin(w) * p_sum + cos(w) * q_sum)
    err = amp * dropped + 4e-16 * (abs(j_val) + abs(y_val)) + abs(z) * 1.2e-16 * amp
    return j_val, y_val, err


def bessel_J_int_batch(n_max: int, z: float) -> np.ndarray:
    """J_0(z)..J_{n_max}(z) by Miller's backward recurrence.

    Normalized with J_0 + 2 * sum_k J_{2k} = 1.  Stable for all orders at
    once, which is what the J-series evaluators below consume.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if z < 0:
        raise ValueError("z must be nonnegative")
    out = np.zeros(n_max + 1)
    if z == 0.0:
        out[0] = 1.0
        return out
    start = int(n_max + max(20.0, round(1.2 * z + 15.0 * z ** (1.0 / 3.0)))) | 1
    jp = 0.0
    j = 1e-300
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / z) * j - jp
        jp, j = j, jm
        idx = k - 1
        if idx <= n_max:
            out[idx] = j
        if idx > 0 and idx % 2 == 0:
            norm += 2.0 * j
        if abs(j) > 1e250:
            jp *= 1e-250
            j *= 1e-250
            norm *= 1e-250
            out *= 1e-250
    norm += j
    out /= norm
    return out


def bessel_J(nu: float, z: float) -> EvalResult:
    """J_nu(z) for nu >= 0, z >= 0.

    Integer orders ride the Miller batch below the asymptotic crossover;
    non-integer orders come from mpmath there.  Above the crossover both
    use the Hankel expansion.
    """
    if nu < 0 or z < 0:
        raise ValueError("bessel_J requires nu >= 0 and z >= 0")
    if z == 0.0:
        return EvalResult(1.0 if nu == 0 else 0.0, 0.0, "series")
    if z > asymptotic_crossover(nu):
        j_val, _, err = _asymptotic_JY(nu, z)
        return EvalResult(j_val, err, "asymptotic")
    n = round(nu)
    if abs(nu - n) < 1e-12:
        val = float(bessel_J_int_batch(int(n), z)[int(n)])
        return EvalResult(val, 1e-13 * max(abs(val), 1e-30) + 1e-16, "recurrence")
    import mpmath  # only non-integer orders below the crossover need it

    val = float(mpmath.besselj(nu, z))
    return EvalResult(val, 4e-15 * max(abs(val), 1e-30) + 1e-16, "series")


def bessel_Y_upward(n: int, z, y0, y1):
    """Y_n from Y_0 and Y_1 (floats or arrays) by the stable upward recurrence
    Y_{k+1} = (2k/z) Y_k - Y_{k-1}; past the double range it gives inf or nan."""
    prev, cur = y0, y1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            prev, cur = cur, (2.0 * k / z) * cur - prev
    return y0 if n == 0 else cur


@functools.lru_cache(maxsize=64)  # the lattice needs only 4 pi, 8 pi and 12 pi
def bessel_Y01(z: float) -> tuple[float, float]:
    """(Y_0(z), Y_1(z)) for 0 < z <= ASYM_Z_MIN from the order derivative of J:
    (pi/2) Y_0 = dJ/dnu at 0, (pi/2) Y_1 = dJ/dnu at 1 - J_0/z (DLMF 10.15.4)."""
    dj0, dj1 = dJ_dnu_at_int(0, z).value, dJ_dnu_at_int(1, z).value
    return 2.0 / pi * dj0, 2.0 / pi * (dj1 - bessel_J(0.0, z).value / z)


def bessel_Y_int(n: int, z: float) -> EvalResult:
    """Y_n(z) for integer n >= 0, z > 0.

    Below the crossover: Y_0, Y_1 (:func:`bessel_Y01` up to z = 40, the
    large-argument expansion beyond) with the upward recurrence; above it,
    the large-argument expansion truncated at its smallest term.
    """
    if z <= 0:
        raise ValueError("bessel_Y_int requires z > 0")
    if n < 0:
        raise ValueError("order must be nonnegative")
    if z > asymptotic_crossover(n):
        _, y_val, err = _asymptotic_JY(float(n), z)
        return EvalResult(y_val, err, "asymptotic")
    y01 = bessel_Y01(z) if z <= ASYM_Z_MIN else [_asymptotic_JY(k, z)[1] for k in (0.0, 1.0)]
    val = float(bessel_Y_upward(n, z, *y01))
    return EvalResult(val, 2e-14 * max(abs(val), 1e-30) + 1e-16, "recurrence")


def dJ_dnu_at_int(n: int, z: float) -> EvalResult:
    """d/dnu J_nu(z) at integer order n.

    (log(z/2) - psi(n+1)) J_n(z) - sum_{k>=1} (-1)^k (2k+n)/(k(k+n)) J_{2k+n}(z),
    truncated once the Bessel factors fall below 1e-18 of the running value.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if z <= 0:
        raise ValueError("z must be positive")
    kmax = int((z + 40.0) / 2) + 10
    jvals = bessel_J_int_batch(n + 2 * kmax, z)
    total = (log(z / 2.0) - digamma_int(n + 1)) * jvals[n]
    sign = -1.0
    for k in range(1, kmax + 1):
        term = sign * (2 * k + n) / (k * (k + n)) * jvals[2 * k + n]
        total -= term
        if abs(jvals[2 * k + n]) < 1e-18 * max(abs(total), 1e-30) and k > 4:
            break
        sign = -sign
    return EvalResult(total, 1e-13 * max(abs(total), 1e-16) + 1e-16, "series")


def schlafli_S(n: int, z: float) -> float:
    """Finite Laurent-type polynomial S_n(z); S_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if z <= 0:
        raise ValueError("z must be positive")
    if n == 0:
        return 0.0
    a = 2 if n % 2 == 0 else 1
    half_z = z / 2.0
    return math.fsum(
        math.factorial(n - r - 1) / math.factorial(r) * half_z ** (2 * r - n)
        for r in range((n - a) // 2 + 1)
    )


def _pq_batch(n: int, z: float) -> tuple[np.ndarray, int]:
    kmax = int((z + 40.0) / 2) + n + 10
    return bessel_J_int_batch(n + 2 * kmax, z), kmax


def P_func(n: int, z: float) -> EvalResult:
    """P_n(z) = sum_k (J_{n+2k}(z) - J_{n-2k}(z))/k for even n >= 2."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    jvals, kmax = _pq_batch(n, z)
    parts = []
    for k in range(1, kmax + 1):
        jp = jvals[n + 2 * k]
        idx = n - 2 * k
        jm = jvals[idx] if idx >= 0 else jvals[-idx]  # J_{-2m} = J_{2m}
        parts.append((jp - jm) / k)
    val = math.fsum(parts)
    return EvalResult(val, 1e-13 * max(abs(val), 1e-16) + 1e-16, "series")


def Q_func(n: int, z: float) -> EvalResult:
    """Q_n(z) = J_n(z) H_n + sum_k (-1)^k (n+2k)/(k(n+k)) J_{n+2k}(z), even n >= 2."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    jvals, kmax = _pq_batch(n, z)
    parts = [jvals[n] * math.fsum(1.0 / j for j in range(1, n + 1))]
    for k in range(1, kmax + 1):
        parts.append((-1) ** k * (n + 2 * k) / (k * (n + k)) * jvals[n + 2 * k])
    val = math.fsum(parts)
    return EvalResult(val, 1e-13 * max(abs(val), 1e-16) + 1e-16, "series")


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta by Euler-Maclaurin (M = 50, corrections through B_6),
    for real s > 0, s != 1, and x > 0."""
    if x <= 0:
        raise ValueError("x must be positive")
    if s <= 0:
        raise ValueError("s must be positive")
    if s == 1.0:
        raise ValueError("s = 1 is a pole")
    m_terms, j_corr = 50, 3
    parts = [(m + x) ** (-s) for m in range(m_terms)]
    a = m_terms + x
    parts.append(a ** (1.0 - s) / (s - 1.0))
    parts.append(0.5 * a ** (-s))
    poch = s
    fac = a ** (-s - 1.0)
    for j in range(1, j_corr + 1):
        parts.append(float(bernoulli_number(2 * j)) / math.factorial(2 * j) * poch * fac)
        poch *= (s + 2 * j - 1.0) * (s + 2 * j)
        fac /= a * a
    return math.fsum(parts)


def hurwitz_zeta_half(x: float) -> EvalResult:
    """zeta(1/2, x) on 0 < x <= 2 (Euler-Maclaurin, M = 50, through B_6)."""
    if not 0.0 < x <= 2.0:
        raise ValueError("x must lie in (0, 2]")
    val = hurwitz_zeta(0.5, x)
    # first omitted correction (B_8 term) plus summation slop
    a = 50.0 + x
    poch = 0.5
    for i in range(1, 7):
        poch *= 0.5 + i
    omitted = abs(float(bernoulli_number(8))) / math.factorial(8) * poch * a ** (-7.5)
    return EvalResult(val, omitted + 60 * 2.3e-16, "series")


@functools.cache
def zeta_half() -> float:
    """zeta(1/2) = zeta(1/2, 1), computed once."""
    return hurwitz_zeta_half(1.0).value


def coates_integral(
    n: int,
    u: float,
    tol: float = 1e-9,
    panel_limit: int = DEFAULT_PANEL_LIMIT,
) -> EvalResult:
    """(-1)^{n+1} * integral_0^inf e^{-2 n phi} cos(u cosh phi) dphi.

    Panels are sized to a quarter of the local oscillation period
    (frequency u*sinh(phi)), 12-point Gauss-Legendre on each.  The range is
    cut once the integrated tail bound e^{-2 n phi}/(u sinh phi) drops
    below tol * 1e-3.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if u <= 0:
        raise ValueError("u must be positive")
    tail_tol = tol * 1e-3
    phi_max = 1.0
    while math.exp(-2 * n * phi_max) / (u * math.sinh(phi_max)) > tail_tol:
        phi_max += 0.25
    edges = [0.0]
    a = 0.0
    while a < phi_max:
        freq = u * (math.sinh(a) + 0.5)
        width = min(0.5 * pi / freq, 0.25, phi_max - a)
        a += width
        edges.append(a)
        if len(edges) > panel_limit:
            raise QuadratureError(
                f"coates_integral: panel budget {panel_limit} exhausted at phi={a:.3f}"
            )
    nodes, weights = np.polynomial.legendre.leggauss(12)
    e = np.asarray(edges)
    mid = 0.5 * (e[1:] + e[:-1])
    rad = 0.5 * (e[1:] - e[:-1])
    phi = mid[:, None] + rad[:, None] * nodes[None, :]
    vals = np.exp(-2.0 * n * phi) * np.cos(u * np.cosh(phi))
    total = float(np.dot(rad, vals @ weights))
    tail = math.exp(-2 * n * phi_max) / (u * math.sinh(phi_max))
    abs_mass = float(np.dot(rad, np.abs(vals) @ np.abs(weights)))
    err = tail + 5e-15 * abs_mass + 1e-16
    return EvalResult((-1) ** (n + 1) * total, err, "quadrature")


def coates_series(n: int, u: float) -> EvalResult:
    """Bessel-series form of the oscillatory integral above.

    (log(u/2) - psi(2n+1)) J_{2n}(u)
      - (1/2) sum_k (-1)^k (J_{2n+2k}(u) + J_{2n-2k}(u))/k
      - sum_k (-1)^k J_{2n+2k}(u)/(k+2n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if u <= 0:
        raise ValueError("u must be positive")
    kmax = int((u + 40.0) / 2) + n + 10
    jvals = bessel_J_int_batch(2 * n + 2 * kmax, u)
    parts = [(log(u / 2.0) - digamma_int(2 * n + 1)) * jvals[2 * n]]
    for k in range(1, kmax + 1):
        sgn = -1.0 if k % 2 else 1.0
        jp = jvals[2 * n + 2 * k]
        idx = 2 * n - 2 * k
        jm = jvals[idx] if idx >= 0 else jvals[-idx]
        parts.append(-0.5 * sgn * (jp + jm) / k)
        parts.append(-sgn * jp / (k + 2 * n))
    val = math.fsum(parts)
    return EvalResult(val, 1e-13 * max(abs(val), 1e-16) + 1e-15, "series")


def chebyshev_U_value(n: int, t: float) -> float:
    """U_n(t) as a double, stable on [-1, 1] via the sine form."""
    if n < 0:
        return 0.0  # U_{-1} = 0
    if abs(t) <= 1.0:
        theta = math.acos(t)
        s = sin(theta)
        if s < 1e-9:
            return (n + 1.0) * (1.0 if t > 0 else (-1.0) ** n)
        return sin((n + 1) * theta) / s
    eta = math.acosh(abs(t))
    v = math.sinh((n + 1) * eta) / math.sinh(eta)
    return v if t > 0 else v * (-1.0) ** n
