"""Floating-point special functions backing the Bessel-series identities.

Double precision throughout, numpy only; each evaluator returns a float.
Below the asymptotic crossover integer J comes from Miller's recurrence,
half-integer J from the closed J_{-1/2}, J_{1/2} by the upward recurrence,
and integer Y from the upward recurrence over Y_0, Y_1.  Past the
crossover every J and Y comes from one Hankel series (DLMF 10.17).  On the
lattice z = 4*pi*q its phase is a constant, so pi C_nu(4 pi q) is a power
series in 1/q: the series engine sums its tails in closed form, and off
the lattice the same series is turned by libm's exactly reduced cos z and
sin z.  That exact phase is why the package keeps its own expansion.
"""

from __future__ import annotations

import functools
import math
from math import cos, log, pi, sin, sqrt

import numpy as np

from .exact_core import bernoulli_number

__all__ = [
    "EULER_GAMMA",
    "asymptotic_crossover",
    "bessel_J",
    "bessel_J_int_batch",
    "bessel_Y_int",
    "dJ_dnu_at_int",
    "schlafli_S",
    "P_func",
    "Q_func",
    "hurwitz_zeta",
    "zeta_half",
    "coates_integral",
    "coates_series",
    "chebyshev_U_value",
]

EULER_GAMMA = 0.57721566490153286

# large-argument branch activates for z > max(ASYM_Z_MIN, ASYM_NU_FACTOR * nu^2);
# past it the Hankel series falls below 1e-17 of its first order within
# HANKEL_ORDERS orders
ASYM_Z_MIN = 40.0
ASYM_NU_FACTOR = 2.0
HANKEL_ORDERS = 30

def digamma_int(n: int) -> float:
    """psi(n) = -gamma + H_{n-1} for positive integer n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return -EULER_GAMMA + math.fsum(1.0 / j for j in range(1, n))


def asymptotic_crossover(nu: float) -> float:
    return max(ASYM_Z_MIN, ASYM_NU_FACTOR * nu * nu)


@functools.lru_cache(maxsize=512)  # the lattice needs nu <= 260; sweeps stay bounded
def hankel_lattice(nu: float) -> np.ndarray:
    """Rows d^J, d^Y with pi C_nu(4 pi q) ~ sum_k d_k q^{-(k+1/2)} at integer q.

    On z = 4 pi q the Hankel phase z - nu pi/2 - pi/4 is the constant w =
    -(nu/2 + 1/4) pi: d_k = (-1)^{floor(k/2)} u_k f_k / (sqrt 2 (4 pi)^k), u_k =
    prod_{j<=k} (4 nu^2 - (2j-1)^2)/(8j), f_k = cos w, -sin w (even, odd k) in
    d^J and sin w, cos w in d^Y, from nu pi/2 reduced by whole quarter turns.
    """
    turns = round(nu)
    c, s = cos(0.5 * pi * (nu - turns)), sin(0.5 * pi * (nu - turns))
    for _ in range(turns % 4):  # (c, s) = (cos, sin) of nu pi/2, exact at integer nu
        c, s = -s, c
    u, dj, dy = 1.0, [], []
    for k in range(HANKEL_ORDERS + 1):
        u *= (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k) if k else 1.0
        t = (-1.0) ** (k // 2) * u / (4.0 * pi) ** k  # sqrt 2 (cos w, sin w) = (c - s, -c - s)
        dj.append(t * (c + s if k % 2 else c - s) / 2)
        dy.append(t * (c - s if k % 2 else -c - s) / 2)
    out = np.array([dj, dy])
    out.flags.writeable = False
    return out


def _orders_sum(d: np.ndarray, lo: int, hi: int, q: np.ndarray) -> np.ndarray:
    """sum_{k=lo}^{hi} d_k q^{-(k+1/2)} by Horner's rule in 1/q.

    The last step divides by sqrt(q) q^lo, q^lo a run of products: numpy's
    square roots, products and quotients round correctly under every SIMD
    kernel, where its powers do not, so the bits are the same on every host."""
    total = np.full_like(q, d[hi])
    for k in range(hi - 1, lo - 1, -1):
        total = total / q + d[k]
    scale = np.sqrt(q)
    for _ in range(lo):
        scale = scale * q
    return total / scale


def _hankel_top(d: np.ndarray, lo: int, q0: float) -> int:
    """The last order k >= lo whose d_k q0^{-(k+1/2)} reaches 1e-17 of the largest,
    by Python's powers, which round the same on every host."""
    sizes = [abs(dk) * q0 ** -k for k, dk in enumerate(d.tolist()[lo:], lo)]
    least = 1e-17 * max(sizes)
    return lo + max(i for i, size in enumerate(sizes) if size >= least)


def _hankel_sum(d: np.ndarray, lo: int, q: np.ndarray) -> np.ndarray:
    """sum_{k >= lo} d_k q^{-(k+1/2)} past the crossover, for an ascending array q,
    through the last order that reaches 1e-17 of the largest at min(q)."""
    if not q.size:
        return q
    return _orders_sum(d, lo, _hankel_top(d, lo, float(q[0])), q)


def _asymptotic_JY(nu: float, z: float) -> tuple[float, float]:
    """(J_nu(z), Y_nu(z)) past the crossover: the lattice series S_J, S_Y at
    q = z/(4 pi) turned by the phase z, pi J = cos z S_J - sin z S_Y and
    pi Y = cos z S_Y + sin z S_J, with libm's exactly reduced cos z and sin z."""
    q = np.array([z / (4.0 * pi)])
    s_j, s_y = (float(_hankel_sum(d, 0, q)[0]) for d in hankel_lattice(nu))
    cz, sz = cos(z), sin(z)
    return (cz * s_j - sz * s_y) / pi, (cz * s_y + sz * s_j) / pi


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


def bessel_J(nu: float, z: float) -> float:
    """J_nu(z) for nu >= 0, z >= 0.

    Past the asymptotic crossover every order uses the Hankel expansion.
    Below it integer orders ride the Miller batch.  Half-integer orders
    start from J_{-1/2}, J_{1/2} = sqrt(2/(pi z)) (cos z, sin z) (DLMF
    10.16.1): nu <= z climbs to them by the upward recurrence, stable while
    the order stays below z, and nu > z by Miller's backward recurrence,
    normalized to the larger of the two (J_{1/2} vanishes on the 4 pi
    lattice).  Any other order there raises ValueError.
    """
    if nu < 0 or z < 0:
        raise ValueError("bessel_J requires nu >= 0 and z >= 0")
    if z == 0.0:
        return 1.0 if nu == 0 else 0.0
    if z > asymptotic_crossover(nu):
        return _asymptotic_JY(nu, z)[0]
    n = round(nu)
    if abs(nu - n) < 1e-12:
        return float(bessel_J_int_batch(int(n), z)[int(n)])
    steps = round(nu - 0.5)
    if abs(nu - 0.5 - steps) >= 1e-12:
        raise ValueError(f"bessel_J below the crossover {asymptotic_crossover(nu):g} takes integer "
                         f"or half-integer orders, not nu = {nu:g}")
    r = sqrt(2.0 / (pi * z))
    if nu <= z:
        prev, cur = r * cos(z), r * sin(z)
        for k in range(steps):  # J_{k+3/2} = ((2k+1)/z) J_{k+1/2} - J_{k-1/2}
            prev, cur = cur, (2 * k + 1) / z * cur - prev
        return cur
    # down from J_{top+1/2} = 1e-300, J_{top+3/2} = 0, far past nu and z, as for the batch
    top = steps + int(max(20.0, round(1.2 * z + 15.0 * z ** (1.0 / 3.0))))
    prev, cur, value = 0.0, 1e-300, 0.0
    for k in range(top, -1, -1):  # J_{k-1/2} = ((2k+1)/z) J_{k+1/2} - J_{k+3/2}
        if k == steps:
            value = cur
        prev, cur = cur, (2 * k + 1) / z * cur - prev
        if abs(cur) > 1e250:
            prev, cur, value = prev * 1e-250, cur * 1e-250, value * 1e-250
    # now cur, prev hold J_{-1/2}, J_{1/2} up to one common factor
    cz, sz = cos(z), sin(z)
    return value * (r * cz / cur if abs(cz) >= abs(sz) else r * sz / prev)


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
    dj0, dj1 = dJ_dnu_at_int(0, z), dJ_dnu_at_int(1, z)
    return 2.0 / pi * dj0, 2.0 / pi * (dj1 - bessel_J(0.0, z) / z)


def bessel_Y_int(n: int, z: float) -> float:
    """Y_n(z) for integer n >= 0, z > 0: Y_0, Y_1 (:func:`bessel_Y01` up to
    z = 40, the Hankel series beyond), then the upward recurrence."""
    if z <= 0:
        raise ValueError("bessel_Y_int requires z > 0")
    if n < 0:
        raise ValueError("order must be nonnegative")
    y01 = bessel_Y01(z) if z <= ASYM_Z_MIN else [_asymptotic_JY(k, z)[1] for k in (0, 1)]
    return float(bessel_Y_upward(n, z, *y01))


def dJ_dnu_at_int(n: int, z: float) -> float:
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
    return total


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


def P_func(n: int, z: float) -> float:
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
    return math.fsum(parts)


def Q_func(n: int, z: float) -> float:
    """Q_n(z) = J_n(z) H_n + sum_k (-1)^k (n+2k)/(k(n+k)) J_{n+2k}(z), even n >= 2."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    jvals, kmax = _pq_batch(n, z)
    parts = [jvals[n] * math.fsum(1.0 / j for j in range(1, n + 1))]
    for k in range(1, kmax + 1):
        parts.append((-1) ** k * (n + 2 * k) / (k * (n + k)) * jvals[n + 2 * k])
    return math.fsum(parts)


@functools.cache
def _bernoulli_ratios() -> tuple[float, ...]:
    """B_2j/(2j)! for j = 1..10, each rounded once from exact_core's B_2j."""
    return tuple(float(bernoulli_number(2 * j) / math.factorial(2 * j)) for j in range(1, 11))


def hurwitz_zeta(s: float, x: float) -> float:
    """zeta(s, x) = sum_{j >= 0} (x + j)^{-s} for real s > 0, s != 1, and x > 0.

    The terms below a = x + max(ceil(48 - x), 0) are summed directly and the
    rest by Euler-Maclaurin at a through B_20, whose first dropped
    correction is below 1e-19 of the value for s <= 59/2.  Every power is
    Python's and every part is summed by math.fsum, so zeta(k + 1/2, M + 1)
    lies within 2 ulp of the true value; near the zero of zeta(1/2, x) at
    x ~ 0.3 the direct terms cancel against a^{1/2}/(s - 1) down to ~1e-15
    absolute.  This one kernel serves the closed tails at x = 0, the zeta
    table of :func:`periodic_zeta` and :func:`zeta_half`.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if s <= 0:
        raise ValueError("s must be positive")
    if s == 1.0:
        raise ValueError("s = 1 is a pole")
    direct = max(math.ceil(48.0 - x), 0)
    a = x + direct
    parts = [(x + j) ** -s for j in range(direct)]
    parts += [a ** (1.0 - s) / (s - 1.0), 0.5 * a**-s]
    rising = s  # s (s+1) ... (s+2j-2)
    for j, ratio in enumerate(_bernoulli_ratios(), 1):
        parts.append(ratio * rising * a ** (1.0 - s - 2 * j))
        rising *= (s + 2 * j - 1.0) * (s + 2 * j)
    return math.fsum(parts)


@functools.cache
def zeta_half() -> float:
    """zeta(1/2) = zeta(1/2, 1), computed once."""
    return hurwitz_zeta(0.5, 1.0)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights 2/((1 - x^2) P'(x)^2) of the order-point Gauss-Legendre
    rule on [-1, 1], by Newton's method on P_order from cos(pi (k + 3/4)/(order +
    1/2)).  Elementwise numpy, no LAPACK, so the bits do not depend on BLAS threads."""
    x = np.cos(pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(5):  # quadratic: the fourth step already reaches rounding at order 1000
        p_prev, p = np.ones_like(x), x
        for j in range(2, order + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = order * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def coates_integral(n: int, u: float) -> float:
    """(-1)^{n+1} * integral_0^inf e^{-2 n phi} cos(u cosh phi) dphi, by contour rotation.

    For n >= 1 the integrand's analytic form e^{-2 n phi + i u cosh phi} vanishes
    far out in 0 <= Im phi <= pi/2, so the path moves to 0 -> i pi/2 -> i pi/2 + inf
    and the value is (-1)^n A - R, with the arc A = int_0^{pi/2} sin(u cos theta
    - 2 n theta) dtheta and the ray R = int_0^inf e^{-2 n t - u sinh t} dt, which
    does not oscillate.  R is cut at T = min(45/(2n), asinh(45/u)), where
    2 n T + u sinh T >= 45, so its dropped tail is below e^{-45}/2.  One
    Gauss-Legendre rule of order 32 + ceil(w/2 + 3 w^{1/3}) serves both legs:
    w = (u + 2 n) pi/4 bounds the arc's phase rate in the rule's variable, and
    the arc's Legendre coefficients fall off past degree ~w; 32 nodes carry R
    at any (n, u).  math.fsum forms each leg's weighted sum.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if u <= 0:
        raise ValueError("u must be positive")
    w = (u + 2 * n) * pi / 4
    x, weights = _gauss_legendre(32 + math.ceil(w / 2 + 3 * w ** (1 / 3)))
    theta = pi / 4 * (x + 1.0)
    arc = pi / 4 * math.fsum(weights * np.sin(u * np.cos(theta) - 2 * n * theta))
    cut = min(45.0 / (2 * n), math.asinh(45.0 / u))
    t = cut / 2 * (x + 1.0)
    return (-1) ** n * arc - cut / 2 * math.fsum(weights * np.exp(-2 * n * t - u * np.sinh(t)))


def coates_series(n: int, u: float) -> float:
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
    return math.fsum(parts)


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
