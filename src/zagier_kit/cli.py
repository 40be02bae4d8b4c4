"""Command-line front end: evaluate, tabulate, verify, and emit convergence
studies for the Zagier-polynomial formulas.

Exit codes: 0 success, 1 failed verification, 2 bad arguments or a value
outside the double range, 3 series non-convergence.  Output is
deterministic: floats are printed with 17 significant digits, CSV uses '.'
decimals, JSON arrays keep a fixed field order, and table rows follow the
input order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import exact_core, formulas, series_engine, verify
from .series_engine import SeriesConvergenceError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CONVERGENCE = 3

ENV_CACHE = "ZAGIER_CACHE"

EVAL_METHODS = ("exact", "even-formula", "odd-formula", "zagier-number",
                "zagier-type", "asymptotic")


@dataclass(frozen=True)
class RunConfig:
    tol: float = 1e-9
    max_terms: int = 20000
    output_format: str = "text"  # text | json | csv
    cache_path: str | None = None

    def validate(self) -> None:
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.output_format not in ("text", "json", "csv"):
            raise ValueError("output_format must be text, json or csv")


# config-file key -> parser of its value; every other key is an error
CONFIG_KEYS = {"tol": float, "max_terms": int, "output_format": str, "cache_path": str}


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw.rstrip()}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} in {path}; "
                             f"known keys: {', '.join(CONFIG_KEYS)}")
        out[key] = value.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        cfg = replace(cfg, **{key: CONFIG_KEYS[key](value) for key, value in raw.items()})
    if os.environ.get(ENV_CACHE):
        cfg = replace(cfg, cache_path=os.environ[ENV_CACHE])
    if getattr(args, "cache_path", None):
        cfg = replace(cfg, cache_path=args.cache_path)
    if getattr(args, "tol", None) is not None:
        cfg = replace(cfg, tol=args.tol)
    if getattr(args, "max_terms", None) is not None:
        cfg = replace(cfg, max_terms=args.max_terms)
    if getattr(args, "format", None):
        cfg = replace(cfg, output_format=args.format)
    cfg.validate()
    return cfg


def fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def parse_x(text: str) -> tuple[float, Fraction | None]:
    """Parse an evaluation point.

    "p/q" is exact; a decimal snaps to a nearby rational only when it sits
    within 1e-12 of one with denominator <= 64 (then it is flagged exact).
    """
    text = text.strip()
    if "/" in text:
        frac = Fraction(text)
        return float(frac), frac
    value = float(text)
    snapped = Fraction(value).limit_denominator(64)
    if abs(float(snapped) - value) < 1e-12:
        return float(snapped), snapped
    return value, None


def _emit_rows(rows: list[dict], columns: list[str], cfg: RunConfig,
               stream) -> None:
    if cfg.output_format == "json":
        payload = [{c: row.get(c) for c in columns} for row in rows]
        json.dump(payload, stream, indent=2, default=fmt)
        stream.write("\n")
    elif cfg.output_format == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(fmt(row.get(c)) for c in columns) + "\n")
    else:
        widths = {c: max(len(c), *(len(fmt(r.get(c))) for r in rows)) if rows else len(c)
                  for c in columns}
        stream.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
        for row in rows:
            stream.write("  ".join(fmt(row.get(c)).ljust(widths[c]) for c in columns).rstrip() + "\n")


def _zagier_index_report(method: str, n: int, x_text: str | None, cfg: RunConfig):
    """Dispatch an eval by polynomial index n of B_n^*(x)."""
    if method == "exact":
        if x_text is None:
            return {"n": n, "x": "0", "exact": exact_core.modified_bernoulli(n)}
        _, xq = parse_x(x_text)
        if xq is None:
            raise ValueError("exact evaluation needs a rational x (p/q)")
        return {"n": n, "x": str(xq), "exact": exact_core.zagier_eval(n, xq)}
    if method in ("even-formula", "odd-formula"):
        if x_text is None:
            raise ValueError(f"{method} requires --x")
        xf, xq = parse_x(x_text)
        lo, hi = series_engine.DEFAULT_X_WINDOW
        if not lo <= xf <= hi:
            print(f"warning: x={xf} lies outside the supported window "
                  f"[{lo}, {hi}]; accuracy near the endpoints degrades like "
                  f"x^(-1/2)", file=sys.stderr)
        if method == "even-formula":
            if n % 2 or n < 2:
                raise ValueError("even-formula needs an even index n >= 2")
            rep = formulas.zagier_even_formula(n // 2, xq if xq is not None else xf,
                                               tol=cfg.tol, max_terms=cfg.max_terms)
        else:
            if n % 2 == 0 or n < 1:
                raise ValueError("odd-formula needs an odd index n >= 1")
            rep = formulas.zagier_odd_formula((n - 1) // 2, xq if xq is not None else xf,
                                              tol=cfg.tol, max_terms=cfg.max_terms)
        return {"n": n, "x": x_text, "report": rep}
    if method == "zagier-number":
        if n % 2 or n < 2:
            raise ValueError("zagier-number needs an even index n >= 2")
        return {"n": n, "x": None,
                "report": formulas.zagier_number_formula(n // 2, tol=cfg.tol,
                                                         max_terms=cfg.max_terms)}
    if method == "zagier-type":
        if n % 2 or n < 2:
            raise ValueError("zagier-type needs an even index n >= 2")
        return {"n": n, "x": "-3/2",
                "report": formulas.zagier_type_sum(n // 2, tol=cfg.tol,
                                                   max_terms=cfg.max_terms)}
    if method == "asymptotic":
        xf = parse_x(x_text)[0] if x_text is not None else 0.0
        if n % 2 == 0:
            value = formulas.even_asymptotic(n // 2, xf)
        else:
            if x_text is None:
                raise ValueError("asymptotic odd-index evaluation requires --x")
            value = formulas.odd_asymptotic((n - 1) // 2, xf)
        return {"n": n, "x": x_text, "value": value}
    raise ValueError(f"unknown method {method}")


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    _wire_cache(cfg)
    try:
        res = _zagier_index_report(args.method, args.n, args.x, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SeriesConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    out = sys.stdout
    if "exact" in res:
        out.write(fmt(res["exact"]) + "\n")
        return EXIT_OK
    if "value" in res:
        out.write(fmt(res["value"]) + "\n")
        return EXIT_OK
    rep = res["report"]
    row = {
        "n": res["n"], "x": res["x"],
        "formula": rep.formula_value,
        "exact": rep.exact,
        "abs_err": rep.abs_error,
        "terms_used": max((m.terms_used for m in rep.series_meta), default=0),
        "tail_bound": max((m.tail_bound for m in rep.series_meta), default=0.0),
    }
    _emit_rows([row], ["n", "x", "formula", "exact", "abs_err", "terms_used", "tail_bound"],
               cfg, out)
    return EXIT_OK


def _table_cell(method: str, n: int, x_text: str | None, cfg: RunConfig,
                compare: bool) -> dict:
    x_label = x_text if x_text is not None else "0"
    xq = parse_x(x_text)[1] if x_text is not None else Fraction(0)
    exact = exact_core.zagier_eval(n, xq) if xq is not None and n >= 1 else None
    try:
        exact_f = float(exact) if exact is not None else None
    except OverflowError:
        raise ValueError(f"table cell n={n}, x={x_label}: the exact value exceeds the "
                         f"double range; print it with eval --method exact") from None
    row: dict = {"n": n, "x": x_label, "exact": exact_f,
                 "formula": None, "abs_err": None, "rel_err": None, "terms_used": 0}
    if method == "exact":
        row["formula"] = exact_f
        row["abs_err"] = 0.0 if exact is not None else None
        return row
    res = _zagier_index_report(method, n, x_text, cfg)
    if "value" in res:
        row["formula"] = res["value"]
    else:
        rep = res["report"]
        row["formula"] = rep.formula_value
        row["terms_used"] = max((m.terms_used for m in rep.series_meta), default=0)
    if compare and exact is not None and row["formula"] is not None:
        row["abs_err"] = abs(row["formula"] - exact_f)
        row["rel_err"] = (row["abs_err"] / abs(exact_f)) if exact != 0 else None
    return row


def cmd_table(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    _wire_cache(cfg)
    ns = list(range(args.n_start, args.n_end + 1, args.n_step))
    xs = args.x.split(",") if args.x else [None]
    try:
        rows = [_table_cell(args.method, n, x, cfg, args.compare) for n in ns for x in xs]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SeriesConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _emit_rows(rows, ["n", "x", "exact", "formula", "abs_err", "rel_err", "terms_used"],
               cfg, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    _wire_cache(cfg)
    names = sorted(verify.IDENTITIES) if args.identity == "all" else [args.identity]
    options = {}
    if args.n_max is not None:
        options["n_max"] = args.n_max
    all_checks: list[verify.CheckResult] = []
    for name in names:
        try:
            all_checks.extend(verify.run_identity(name, **options))
        except SeriesConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
    n_failed = sum(1 for c in all_checks if not c.passed)
    summary = {
        "identities": names,
        "checks": len(all_checks),
        "failed": n_failed,
        "passed": n_failed == 0,
    }
    if cfg.output_format == "csv":
        cols = ["identity", "case", "value", "expected", "abs_error", "tolerance", "passed"]
        _emit_rows([c.to_dict() for c in all_checks], cols, cfg, sys.stdout)
    elif cfg.output_format == "json":
        payload = {"summary": summary, "checks": [c.to_dict() for c in all_checks]}
        json.dump(payload, sys.stdout, indent=2, default=fmt)
        sys.stdout.write("\n")
    else:
        for c in all_checks:
            status = "PASS" if c.passed else "FAIL"
            sys.stdout.write(
                f"{status} {c.identity} {c.case}: value={fmt(c.value)} "
                f"expected={fmt(c.expected)} err={c.abs_error:.3e} tol={c.tolerance:.1e}\n"
            )
        sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK if n_failed == 0 else EXIT_CHECK_FAILED


def _converge_rows(series: str, n: int, x_text: str | None,
                   m_list: list[int]) -> list[dict]:
    """Plain partial and accelerated Bessel sums against the exact value.

    For bessel-cos/-sin the exact column is the exact B_nu^*(x) minus the
    non-Bessel part of its formula, so the errors are those of the Bessel sum
    alone; for zagier-number every column carries the whole formula for B_{2n}^*.
    """
    if series in ("bessel-cos", "bessel-sin"):
        if x_text is None:
            raise ValueError(f"{series} requires --x")
        xf, xq = parse_x(x_text)
        if xq is None:
            raise ValueError("convergence study needs a rational x for the exact column")
        nu = 2 * n if series == "bessel-cos" else 2 * n + 1
        tps = series_engine.trig_power_sums(xf)  # rejects x outside (0, 1)
        closed = tps.cos_sum_half if nu % 2 == 0 else tps.sin_sum_half
        rest, _ = formulas._formula_rest(nu, xf, 0.0, 1e-14)
        exact = float(exact_core.zagier_eval(nu, xq)) - rest
    elif series == "zagier-number":
        nu, xf = 2 * n, 0.0
        rest, _ = formulas._formula_rest(nu, 0.0, 0.0, 1e-14)
        exact = float(exact_core.modified_bernoulli(nu))
    else:
        raise ValueError(f"unknown series {series}")
    rows = []
    for m in m_list:
        reg = series_engine.regularized_bracket_sum(nu, xf, m_terms=m)
        if series == "zagier-number":
            # naive column: truncate the regularized sum, no tail correction
            brackets = series_engine._bracket_values(nu, np.arange(1, m + 1, dtype=float))
            partial = rest + series_engine.chunked_fsum(brackets)
            accel = rest + reg.value
        else:
            partial = series_engine.bessel_series_partial(nu, xf, m)
            accel = reg.value - 0.5 * closed
        rows.append({
            "m_terms": m,
            "partial_value": partial,
            "partial_error": abs(partial - exact),
            "accelerated_value": accel,
            "accelerated_error": abs(accel - exact),
            "exact": exact,
        })
    return rows


def cmd_converge(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    _wire_cache(cfg)
    try:
        m_list = [int(tok) for tok in args.m_list.split(",")]
        rows = _converge_rows(args.series, args.n, args.x, m_list)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except SeriesConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _emit_rows(rows, ["m_terms", "partial_value", "partial_error",
                      "accelerated_value", "accelerated_error", "exact"],
               cfg, sys.stdout)
    return EXIT_OK


def _wire_cache(cfg: RunConfig) -> None:
    if cfg.cache_path:
        exact_core.attach_disk_cache(cfg.cache_path)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="series tolerance (default 1e-9)")
    p.add_argument("--max-terms", type=int, default=None, dest="max_terms")
    p.add_argument("--format", choices=("text", "json", "csv"), default=None)
    p.add_argument("--cache-path", dest="cache_path", default=None,
                   help="Bernoulli cache file to read, as written by BernoulliCache.save "
                        "(env ZAGIER_CACHE also honored)")
    p.add_argument("--config", default=None, help="config file with key = value lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zagier-kit",
        description="Zagier polynomials and modified Bernoulli numbers: exact values, "
                    "Bessel-series formulas, identity verification, convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate B_n^*(x) by one method")
    p_eval.add_argument("--n", type=int, required=True, help="index n of B_n^*(x)")
    p_eval.add_argument("--x", default=None, help="evaluation point, p/q or decimal")
    p_eval.add_argument("--method", choices=EVAL_METHODS, default="exact")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="tabulate values over an index range")
    p_table.add_argument("--method", choices=EVAL_METHODS, default="exact")
    p_table.add_argument("--n-start", type=int, required=True)
    p_table.add_argument("--n-end", type=int, required=True)
    p_table.add_argument("--n-step", type=int, default=1)
    p_table.add_argument("--x", default=None, help="comma-separated grid of points")
    p_table.add_argument("--compare", action="store_true",
                         help="include exact values and errors")
    _add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--identity", required=True,
                          choices=sorted(verify.IDENTITIES) + ["all"])
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("converge", help="naive vs accelerated convergence study")
    p_conv.add_argument("--series", required=True,
                        choices=("bessel-cos", "bessel-sin", "zagier-number"))
    p_conv.add_argument("--n", type=int, required=True,
                        help="series parameter n (order 2n or 2n+1)")
    p_conv.add_argument("--x", default=None)
    p_conv.add_argument("--m-list", default="10,25,50,100,250,500",
                        help="comma-separated explicit-term budgets")
    _add_common(p_conv)
    p_conv.set_defaults(func=cmd_converge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_ARGS if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    raise SystemExit(main())
