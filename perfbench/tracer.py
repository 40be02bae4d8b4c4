"""Per-layer tracing by rebinding public functions of the package.

`Tracer.install` replaces each listed function, in every `zagier_kit`
module namespace that holds it (the `from ... import` copies included),
with a wrapper that records a span: its time, its caller, and the time of
its child spans.  Self time is span time minus child time, so the self
times of all spans plus the time outside any span add up to the traced
wall time.  `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

TRACED = {
    "exact_core": ("bernoulli_number", "zagier_polynomial", "zagier_eval",
                   "modified_bernoulli", "zagier_shift"),
    "series_engine": ("regularized_bracket_sum", "chunked_fsum", "conjugate_power_sum",
                      "g_tail_sum", "trig_power_sums", "bessel_cos_series",
                      "bessel_sin_series"),
    "specfun": ("hurwitz_zeta", "zeta_half", "chebyshev_U_value", "bessel_Y_int",
                "coates_integral", "coates_series", "P_func", "Q_func",
                "dJ_dnu_at_int", "schlafli_S"),
    "formulas": ("zagier_even_formula", "zagier_odd_formula", "zagier_number_formula",
                 "zagier_type_sum", "fourier_coeff_P_check", "fourier_coeff_dJ_check",
                 "poisson_J_series_check"),
    "cli": ("main",),
}
EVALUATORS = ("formulas.zagier_even_formula", "formulas.zagier_odd_formula",
              "formulas.zagier_number_formula", "formulas.zagier_type_sum")
PACKAGE = "zagier_kit"
ROOT = "(op)"


class Tracer:
    def __init__(self, default_max_terms: int):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        # (caller, callee) -> [calls, seconds]: the parent of every span
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.explicit_terms = 0
        self.budget_exhausted = 0
        self._max_terms = default_max_terms
        self._names = [ROOT]      # open spans, innermost last
        self._child_s = [0.0]     # child time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    @property
    def spans_s(self) -> float:
        """Time spent inside top-level spans since install."""
        return self._child_s[0]

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        pkg = sys.modules[PACKAGE]
        for mod_name, fn_names in TRACED.items():
            mod = getattr(pkg, mod_name)
            for fn_name in fn_names:
                self._rebind(modules, getattr(mod, fn_name), f"{mod_name}.{fn_name}")
        run_identity = pkg.verify.run_identity
        self._rebind(modules, run_identity, None)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _rebind(self, modules, original: Callable, name: str | None) -> None:
        wrapper = self._wrap(original, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn: Callable, name: str | None) -> Callable:
        names, child_s, clock = self._names, self._child_s, time.perf_counter
        hook = self._bracket_hook if name == "series_engine.regularized_bracket_sum" else None

        def wrapper(*args, **kwargs):
            # verify suites get one span name each: verify.<identity>
            span = name if name is not None else f"verify.{args[0]}"
            parent = names[-1]
            names.append(span)
            child_s.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[span] += 1
                # SeriesConvergenceError carries the result it gave up on
                if hook is not None and getattr(exc, "best", None) is not None:
                    hook(exc.best, kwargs)
                raise
            finally:
                elapsed = clock() - t0
                names.pop()
                self.self_s[span] += elapsed - child_s.pop()
                self.total_s[span] += elapsed
                self.calls[span] += 1
                child_s[-1] += elapsed
                edge = self.edges[(parent, span)]
                edge[0] += 1
                edge[1] += elapsed
            if hook is not None:
                hook(out, kwargs)
            return out

        return wrapper

    def _bracket_hook(self, result, kwargs) -> None:
        self.explicit_terms += result.terms_used
        if result.terms_used >= kwargs.get("max_terms", self._max_terms):
            self.budget_exhausted += 1

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Self time and calls per listed function, counts, and verify suites."""
        out: dict[str, float] = {}
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                key = f"{mod_name}.{fn_name}"
                out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
                out[f"{key}.calls"] = self.calls.get(key, 0)
        out["series_engine.explicit_terms"] = self.explicit_terms
        out["series_engine.budget_exhausted"] = self.budget_exhausted
        out["formulas.raised"] = sum(self.raised.get(k, 0) for k in EVALUATORS)
        suites = [span for span in self.calls if span.startswith("verify.")]
        for span in suites:
            out[f"{span}.s"] = self.total_s[span]
        out["verify.self_s"] = sum(self.self_s[span] for span in suites)
        out["trace.unlisted_self_s"] = wall_s - self.spans_s
        return out
