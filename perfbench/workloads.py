"""Seeded workloads for the zagier-kit benchmark.

Each workload turns a seed into a list of plain-data op specs
(`generate`), binds them to the package's public functions and computes
exact reference values during set-up (`prepare`), and checks every
delivered result outside the timed region (`Prepared.check`).

Generation imports nothing from the package, so the same seed gives the
same inputs on every commit.  Only set-up and checking touch `zagier_kit`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

OK, RAISED, WRONG, ERROR = "ok", "raised", "wrong", "error"

# the identity suites of `zagier-kit verify`, one op each
VERIFY_SUITES = (
    "denominators", "form-s1", "integral-id", "lemma33", "lemma34",
    "poisson-series", "reflection", "series-007", "shift", "telescope",
    "thm12", "thm13", "thm15", "zagier-sum",
)

EXACT_N_MAX = 120       # zagier_eval index range 1..EXACT_N_MAX
EXACT_MODB_MAX = 600    # modified_bernoulli index range 1..EXACT_MODB_MAX
EXACT_BASE_POINTS = 5   # one per value stratum of [-3/2, 5/2]; each also appears as -x-3
EXACT_SHIFT_NS = tuple(range(10, EXACT_N_MAX + 1, 10))
DIGITS_CAP = 17.0       # a float cannot carry more digits than this


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # fixed tail percentile, so that commits compare like with like: the
    # highest of 50/75/90/99/99.9 that keeps at least ten samples beyond it
    # at the seed commit's throughput in a 15 s run
    tail_pct: float
    # passes of the op list in a traced run; fixed so call counts repeat
    trace_passes: int
    # True: every round is exactly one pass in a fresh interpreter (the
    # program's caches stay cold); False: each round runs several passes
    cold_rounds: bool
    # scaled seconds one pass took at the seed commit; the runner turns
    # --seconds into a fixed number of passes with it, so the op count of
    # a run never depends on how fast the machine happens to be
    pass_s: float
    # False only for the stress workload whose failures are the measurement
    expect_all_ok: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("exact-table",
                 "cold exact core as a CLI user meets it: Zagier polynomial "
                 "assembly, Horner steps, the Bernoulli table to 600 and shifts",
                 tail_pct=99.0, trace_passes=1, cold_rounds=True, pass_s=5.9, expect_all_ok=True),
        Workload("series-loose",
                 "fixed per-call cost of the four series evaluators at index "
                 "1..8 and tol 1e-9 relative; no op fails at the seed",
                 tail_pct=99.0, trace_passes=2, cold_rounds=False, pass_s=0.82,
                 expect_all_ok=True),
        Workload("series-tight",
                 "series evaluators at index 1..60 and tol 1e-12 relative: term "
                 "budget, closed tails and the failure and wrong-answer shares",
                 tail_pct=99.0, trace_passes=2, cold_rounds=False, pass_s=2.44,
                 expect_all_ok=False),
        Workload("verify-all",
                 "each of the 14 identity suites through in-process cli.main: "
                 "quadrature, Poisson, Coates and the verify and cli layers",
                 tail_pct=90.0, trace_passes=1, cold_rounds=False, pass_s=1.47,
                 expect_all_ok=True),
    )
}

SERIES_REL_TOL = {"series-loose": 1e-9, "series-tight": 1e-12}
SERIES_N_MAX = {"series-loose": 8, "series-tight": 60}
# ops per (evaluator, index) pair, the same for all four evaluators: even
# and odd each take this many stratified points x, and the x-free number
# and type ops are repeated this many times.  series-loose has few indices
# and short ops, so it takes more points, enough that the median op of a
# pass barely depends on the seed; series-tight keeps few, so that its
# exact references stay a small part of set-up
SERIES_OPS_PER_EVALUATOR = {"series-loose": 16, "series-tight": 4}


# ---------------------------------------------------------------------------
# generation: seed -> plain-data op specs
# ---------------------------------------------------------------------------

def _rng(name: str, seed: int) -> random.Random:
    # string seeds hash through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _rational_in(rng: random.Random, lo: Fraction, hi: Fraction,
                 q_lo: int = 2, q_hi: int = 64) -> Fraction:
    """A p/q with q_lo <= q <= q_hi drawn from [lo, hi]."""
    while True:
        q = rng.randint(q_lo, q_hi)
        p_lo = math.ceil(lo * q)
        p_hi = math.floor(hi * q)
        if p_lo <= p_hi:
            return Fraction(rng.randint(p_lo, p_hi), q)


def _stratified_points(rng: random.Random, count: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    width = (hi - lo) / count
    return [_rational_in(rng, lo + j * width, lo + (j + 1) * width) for j in range(count)]


# denominator bands for the exact points: exact arithmetic costs grow with
# the size of q, so each seed gets one point per band
EXACT_Q_BANDS = ((2, 8), (9, 16), (17, 32), (33, 48), (49, 64))


def generate(name: str, seed: int) -> list[tuple]:
    """The op specs of one pass of workload `name`, in the order they run."""
    rng = _rng(name, seed)
    if name == "exact-table":
        bands = list(EXACT_Q_BANDS)
        rng.shuffle(bands)
        lo, width = Fraction(-3, 2), Fraction(4, EXACT_BASE_POINTS)
        base = [_rational_in(rng, lo + j * width, lo + (j + 1) * width, *bands[j])
                for j in range(EXACT_BASE_POINTS)]
        points = base + [-x - 3 for x in base]
        rng.shuffle(points)
        specs: list[tuple] = [("eval", n, x) for n in range(1, EXACT_N_MAX + 1) for x in points]
        specs += [("modb", n) for n in range(1, EXACT_MODB_MAX + 1)]
        for n in EXACT_SHIFT_NS:
            k = rng.choice([k for k in range(-5, 6) if k != 0])
            specs.append(("shift", n, rng.choice(base), k))
        return specs
    if name in SERIES_REL_TOL:
        lo, hi = Fraction(1, 100), Fraction(99, 100)
        specs = []
        for n in range(1, SERIES_N_MAX[name] + 1):
            for kind in ("even", "odd"):
                points = _stratified_points(rng, SERIES_OPS_PER_EVALUATOR[name], lo, hi)
                specs += [(kind, n, x) for x in points]
            specs += [("number", n), ("type", n)] * SERIES_OPS_PER_EVALUATOR[name]
        rng.shuffle(specs)
        return specs
    if name == "verify-all":
        # the suites take no inputs; they run in the order of `verify
        # --identity all`, because the order moves garbage-collection and
        # allocator costs between suites
        return [("verify", suite) for suite in VERIFY_SUITES]
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


# ---------------------------------------------------------------------------
# ops: each looks its target up on the package at call time, so a traced
# run sees the rebound functions
# ---------------------------------------------------------------------------

def _op_eval(zk, n, x):
    return zk.zagier_eval(n, x)


def _op_modb(zk, n):
    return zk.modified_bernoulli(n)


def _op_shift(zk, n, x, k):
    return zk.zagier_shift(n, x, k)


def _op_even(zk, n, x, tol):
    return zk.zagier_even_formula(n, x, tol=tol).formula_value


def _op_odd(zk, n, x, tol):
    return zk.zagier_odd_formula(n, x, tol=tol).formula_value


def _op_number(zk, n, tol):
    return zk.zagier_number_formula(n, tol=tol).formula_value


def _op_type(zk, n, tol):
    return zk.zagier_type_sum(n, tol=tol).formula_value


def _op_verify(zk, suite):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = zk.cli.main(["verify", "--identity", suite, "--format", "json"])
    return rc, buf.getvalue()


@dataclass
class Prepared:
    """Bound calls for the timed loop plus what the checker needs."""

    specs: list[tuple]
    calls: list[tuple[Callable, tuple]]
    warm: list[tuple[Callable, tuple]]
    checker: Callable[[list[Any]], tuple[list[str], list[float]]]
    refs: dict = field(default_factory=dict)

    def check(self, outs: list[Any]) -> tuple[list[str], list[float]]:
        """Outcome (ok/raised/wrong/error) and digits for each op of one pass."""
        if len(outs) != len(self.specs):
            raise ValueError("check takes exactly one pass of results")
        return self.checker(outs)


def prepare(name: str, specs: list[tuple], zk) -> Prepared:
    """Bind specs to `zk` (the imported package) and compute references."""
    if name == "exact-table":
        ops = {"eval": _op_eval, "modb": _op_modb, "shift": _op_shift}
        calls = [(ops[s[0]], (zk,) + s[1:]) for s in specs]
        return Prepared(specs, calls, [], lambda outs: check_exact(zk, specs, outs))
    if name in SERIES_REL_TOL:
        return _prepare_series(name, specs, zk)
    if name == "verify-all":
        calls = [(_op_verify, (zk, s[1])) for s in specs]
        return Prepared(specs, calls, list(calls), lambda outs: check_verify(outs))
    raise KeyError(name)


def series_reference(zk, spec: tuple) -> Fraction:
    """Exact value of a series op, from the exact core."""
    kind, n = spec[0], spec[1]
    if kind == "even":
        return zk.zagier_eval(2 * n, spec[2])
    if kind == "odd":
        return zk.zagier_eval(2 * n + 1, spec[2])
    if kind == "number":
        return zk.modified_bernoulli(2 * n)
    return zk.zagier_eval(2 * n, Fraction(-3, 2)) + zk.modified_bernoulli(2 * n)


def _prepare_series(name: str, specs: list[tuple], zk) -> Prepared:
    rel = SERIES_REL_TOL[name]
    exact = [float(series_reference(zk, s)) for s in specs]
    tols = [rel * max(1.0, abs(e)) for e in exact]
    ops = {"even": _op_even, "odd": _op_odd, "number": _op_number, "type": _op_type}
    calls = []
    for spec, tol in zip(specs, tols):
        point = (float(spec[2]),) if len(spec) == 3 else ()
        calls.append((ops[spec[0]], (zk, spec[1]) + point + (tol,)))
    warm, seen = [], set()
    for spec, call in zip(specs, calls):
        if spec[:2] not in seen:
            seen.add(spec[:2])
            warm.append(call)
    return Prepared(specs, calls, warm,
                    lambda outs: check_series(exact, tols, outs, zk.SeriesConvergenceError),
                    refs={"exact": exact, "tol": tols})


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def digits(value: float, exact: float) -> float:
    """-log10 of the error relative to |exact|, clamped to [0, 17].

    An exact value of 0 scores the cap when it is met exactly, and the
    absolute error otherwise.
    """
    err = abs(value - exact) / abs(exact) if exact else abs(value)
    if not math.isfinite(err):
        return 0.0
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def check_series(exact: list[float], tols: list[float], outs: list[Any],
                 convergence_error: type) -> tuple[list[str], list[float]]:
    outcomes, dig = [], []
    for e, tol, out in zip(exact, tols, outs):
        if isinstance(out, BaseException):
            outcomes.append(RAISED if isinstance(out, convergence_error) else ERROR)
            dig.append(0.0)
            continue
        ok = isinstance(out, float) and math.isfinite(out) and abs(out - e) <= tol
        outcomes.append(OK if ok else WRONG)
        dig.append(digits(out, e) if isinstance(out, float) else 0.0)
    return outcomes, dig


def check_verify(outs: list[Any]) -> tuple[list[str], list[float]]:
    outcomes = []
    for out in outs:
        if isinstance(out, BaseException):
            outcomes.append(ERROR)
            continue
        rc, text = out
        try:
            passed = json.loads(text)["summary"]["passed"] is True
        except (ValueError, KeyError, TypeError):
            passed = False
        outcomes.append(OK if rc == 0 and passed else WRONG)
    return outcomes, [0.0] * len(outs)


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m > 0."""
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def odd_modified_bernoulli(n: int) -> Fraction:
    """B_n^* for odd n: (1/4)(-4|n) + (1/2)(-3|n)."""
    return Fraction(jacobi(-4, n), 4) + Fraction(jacobi(-3, n), 2)


def denominator_2adic(n: int) -> int:
    """Predicted 2-adic valuation of the denominator of B_n^*."""
    v = (n & -n).bit_length() - 1
    return 2 + v - {6: 1, 0: 2}.get(n % 12, 0)


def chebyshev_u_table(t: Fraction, n_max: int) -> list[Fraction]:
    """U_0(t) .. U_n_max(t) by the three-term recurrence."""
    us = [Fraction(1), 2 * t]
    while len(us) <= n_max:
        us.append(2 * t * us[-1] - us[-2])
    return us


def check_exact(zk, specs: list[tuple], outs: list[Any]) -> tuple[list[str], list[float]]:
    """Exact ops, each checked through a different code path:

    - eval(n, x): the reflection B_n^*(-x-3) = (-1)^n B_n^*(x) against the
      partner op, and B_n^*(x+1) - B_n^*(x) = U_{n-1}(x/2+1)/2 with U from
      this module's recurrence;
    - modb(n): the Jacobi closed form for odd n; for even n the 2-adic
      valuation of the denominator, and B_n^*(0) from the polynomial;
    - shift(n, x, k): B_n^*(x+k) by direct evaluation.
    """
    values = {spec: out for spec, out in zip(specs, outs) if isinstance(out, Fraction)}
    u_tables: dict[Fraction, list[Fraction]] = {}
    n_eval = max((s[1] for s in specs if s[0] == "eval"), default=0)
    outcomes = []
    for spec, out in zip(specs, outs):
        if isinstance(out, BaseException):
            outcomes.append(ERROR)
            continue
        if not isinstance(out, Fraction):
            outcomes.append(WRONG)
            continue
        kind, n = spec[0], spec[1]
        if kind == "eval":
            x = spec[2]
            partner = values.get(("eval", n, -x - 3))
            ok = partner is None or partner == (-1) ** n * out
            if x not in u_tables:
                u_tables[x] = chebyshev_u_table(x / 2 + 1, n_eval)
            ok = ok and zk.zagier_eval(n, x + 1) - out == u_tables[x][n - 1] / 2
        elif kind == "modb":
            if n % 2:
                ok = out == odd_modified_bernoulli(n)
            else:
                den = out.denominator
                ok = (den & -den).bit_length() - 1 == denominator_2adic(n)
                if n <= n_eval:
                    ok = ok and out == zk.zagier_eval(n, 0)
        else:
            x, k = spec[2], spec[3]
            ok = out == zk.zagier_eval(n, x + k)
        outcomes.append(OK if ok else WRONG)
    return outcomes, [0.0] * len(outs)
