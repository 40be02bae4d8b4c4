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
import inspect
import json
import os
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

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
    if isinstance(v, Fraction):  # Decimal prints integers past str()'s 4,300-digit limit
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def parse_x(text: str) -> tuple[float, Fraction | None]:
    """Parse an evaluation point.

    "p/q" is exact; a decimal snaps to a nearby rational only when it sits
    within 1e-12 of one with denominator <= 64 (then it is flagged exact).
    """
    text = text.strip()
    try:
        frac = Fraction(text)  # also rejects inf and nan
        value = float(frac)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"bad evaluation point {text!r}: not p/q or a finite decimal") from None
    if "/" in text:
        return value, frac
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


# series formula -> (evaluator, parity of the index n, whether it takes --x)
FORMULAS = {
    "even-formula": (formulas.zagier_even_formula, 0, True),
    "odd-formula": (formulas.zagier_odd_formula, 1, True),
    "zagier-number": (formulas.zagier_number_formula, 0, False),
    "zagier-type": (formulas.zagier_type_sum, 0, False),
}


def _evaluate(method: str, n: int, x_text: str | None, cfg: RunConfig) -> dict:
    """B_n^*(x) by one method, the one path behind eval and table.

    Returns n, the x label (None when no --x is given or taken), the value
    under "formula", its exact rational reference under "exact" (None at an
    irrational x) and, for the series formulas, their EvalReport.  The
    zagier-type value is B_n^*(-3/2) + B_n^*, and so is its reference.
    """
    xf, xq = parse_x(x_text) if x_text is not None else (0.0, Fraction(0))
    row = {"n": n, "x": x_text, "terms_used": 0, "report": None}
    if method in FORMULAS:
        formula, parity, takes_x = FORMULAS[method]
        if takes_x != (x_text is not None):
            raise ValueError(f"{method} requires --x" if takes_x else f"{method} takes no --x")
        if n % 2 != parity or n < 2 - parity:
            raise ValueError(f"{method} needs an {('even', 'odd')[parity]} index n >= {2 - parity}")
        point = (xq if xq is not None else xf,) if takes_x else ()
        rep = formula(n // 2, *point, tol=cfg.tol, max_terms=cfg.max_terms)
        if rep.series_meta[0].outside_window:
            print(f"warning: x={x_text} lies outside the supported window; accuracy near "
                  f"the endpoints degrades like x^(-1/2)", file=sys.stderr)
        return {**row, "x": "-3/2" if method == "zagier-type" else x_text,
                "formula": rep.formula_value, "exact": rep.exact, "report": rep,
                "terms_used": max(m.terms_used for m in rep.series_meta)}
    if method == "exact":
        if xq is None:
            raise ValueError("exact evaluation needs a rational x (p/q)")
        exact = (exact_core.modified_bernoulli(n) if x_text is None
                 else exact_core.zagier_eval(n, xq))
        return {**row, "formula": exact, "exact": exact}
    if method == "asymptotic":
        if n % 2 == 0:
            value = formulas.even_asymptotic(n // 2, xf)
        elif x_text is None:
            raise ValueError("asymptotic odd-index evaluation requires --x")
        else:
            value = formulas.odd_asymptotic(n // 2, xf)
        exact = exact_core.zagier_eval(n, xq) if xq is not None else None
        return {**row, "formula": value, "exact": exact}
    raise ValueError(f"unknown method {method}")


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    res = _evaluate(args.method, args.n, args.x, cfg)
    rep = res["report"]
    if rep is None:
        sys.stdout.write(fmt(res["formula"]) + "\n")
        return EXIT_OK
    row = {**res, "abs_err": rep.abs_error, "tail_bound": rep.tail_bound}
    _emit_rows([row], ["n", "x", "formula", "exact", "abs_err", "terms_used", "tail_bound"],
               cfg, sys.stdout)
    return EXIT_OK


def cmd_table(args: argparse.Namespace, cfg: RunConfig) -> int:
    rows = []
    for n in range(args.n_start, args.n_end + 1, args.n_step):
        for x_text in args.x.split(",") if args.x else [None]:
            res = _evaluate(args.method, n, x_text, cfg)
            x_label = res["x"] or "0"
            try:
                exact = float(res["exact"]) if res["exact"] is not None else None
            except OverflowError:
                raise ValueError(f"table cell n={n}, x={x_label}: the exact value exceeds the "
                                 f"double range; print it with eval --method exact") from None
            row = {**res, "x": x_label, "exact": exact, "abs_err": None, "rel_err": None}
            if args.method == "exact":
                row.update(formula=exact, abs_err=0.0)
            elif args.compare and exact is not None:
                row["abs_err"] = abs(row["formula"] - exact)
                row["rel_err"] = row["abs_err"] / abs(exact) if res["exact"] != 0 else None
            rows.append(row)
    _emit_rows(rows, ["n", "x", "exact", "formula", "abs_err", "rel_err", "terms_used"],
               cfg, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    names = sorted(verify.IDENTITIES) if args.identity == "all" else [args.identity]
    options = {}
    if args.n_max is not None:
        if args.n_max < 1:
            raise ValueError("--n-max must be >= 1")
        if args.identity != "all" and \
                "n_max" not in inspect.signature(verify.IDENTITIES[args.identity]).parameters:
            raise ValueError(f"{args.identity} has no index range; drop --n-max")
        options["n_max"] = args.n_max
    all_checks: list[verify.CheckResult] = []
    for name in names:
        all_checks.extend(verify.run_identity(name, **options))
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
        rest = formulas._formula_rest(nu, xf, 0.0, 1e-14)[0]
        exact = float(exact_core.zagier_eval(nu, xq)) - rest
    elif series == "zagier-number":
        nu, xf = 2 * n, 0.0
        rest = formulas._formula_rest(nu, 0.0, 0.0, 1e-14)[0]
        exact = float(exact_core.modified_bernoulli(nu))
    else:
        raise ValueError(f"unknown series {series}")
    rows = []
    for m in m_list:
        reg = series_engine.regularized_bracket_sum(nu, xf, m_terms=m)
        if series == "zagier-number":
            # naive column: truncate the regularized sum, no tail correction
            brackets = series_engine._bracket_values(nu, 1, m)
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


def cmd_converge(args: argparse.Namespace, cfg: RunConfig) -> int:
    m_list = [int(tok) for tok in args.m_list.split(",")]
    rows = _converge_rows(args.series, args.n, args.x, m_list)
    _emit_rows(rows, ["m_terms", "partial_value", "partial_error",
                      "accelerated_value", "accelerated_error", "exact"],
               cfg, sys.stdout)
    return EXIT_OK


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
        cfg = build_config(args)
        if cfg.cache_path:
            exact_core.attach_disk_cache(cfg.cache_path)
        return args.func(args, cfg)
    except (ValueError, SeriesConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS if isinstance(exc, ValueError) else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
