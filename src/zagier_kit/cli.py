"""Command-line front end: evaluate, tabulate, verify, and emit convergence
studies for the Zagier-polynomial formulas.

Exit codes: 0 success, 1 failed verification, 2 bad arguments or a value
outside the double range, 3 series non-convergence.  Output is
deterministic: floats are printed with 17 significant digits, CSV uses '.'
decimals, JSON arrays keep a fixed field order, and table rows follow the
input order.

Only the exact core is imported at load time; a command imports the numeric
modules (and numpy) when it evaluates a series formula, an asymptotic, a
convergence study or an identity suite, so the exact methods start without
them.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import exact_core

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CONVERGENCE = 3

EVAL_METHODS = ("exact", "even-formula", "odd-formula", "zagier-number",
                "zagier-type", "asymptotic")

# sorted(verify.IDENTITIES), spelled out so that parsing imports no numeric module
IDENTITY_NAMES = ("denominators", "form-s1", "integral-id", "lemma33", "lemma34",
                  "poisson-series", "reflection", "series-007", "shift", "telescope",
                  "thm12", "thm13", "thm15", "zagier-sum")

# largest `converge --m-list` entry: it bounds the naive partial sums, each of
# which forms its M bracket values, phases and terms as M-float arrays
CONVERGE_MAX_TERMS = 100_000


def _series_tol(args: argparse.Namespace) -> dict:
    """The --tol that was given, checked, as a keyword argument of a series
    formula: the engine holds the default."""
    if args.tol is None:
        return {}
    if not 0.0 < args.tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    return {"tol": args.tol}


def fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):  # Decimal prints integers past str()'s 4,300-digit limit
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


_CONTAINERS = (dict, list, tuple)


def _json_text(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, default=fmt), byte for byte; pad is the newline and
    indent before obj's closing bracket.

    An indent sends json to its pure-Python encoder, which builds the text piece by
    piece; with none it takes the C encoder.  So a dict or list that holds no
    container is one C pass whose item separator carries the newline and the
    padding, and one that holds containers is joined here, item by item."""
    inner = pad + "  "
    if isinstance(obj, dict):
        nested = any(isinstance(value, _CONTAINERS) for value in obj.values())
    else:
        nested = isinstance(obj, (list, tuple)) and any(isinstance(value, _CONTAINERS) for value in obj)
    if not nested:
        text = json.JSONEncoder(separators=("," + inner, ": "), default=fmt).encode(obj)
        # the first item follows the opening bracket and the last precedes the closing one
        return text[0] + inner + text[1:-1] + pad + text[-1] if isinstance(obj, _CONTAINERS) and obj else text
    if isinstance(obj, dict):
        # a key that is not a str prints as json's own text of it, as json.dumps does
        items = [f"{json.dumps(key if isinstance(key, str) else json.dumps(key))}: {_json_text(value, inner)}"
                 for key, value in obj.items()]
        brackets = "{}"
    else:
        items, brackets = [_json_text(value, inner) for value in obj], "[]"
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def parse_x(text: str) -> tuple[float, Fraction | None]:
    """Parse an evaluation point.

    "p/q" is exact; a decimal snaps to a nearby rational only when it sits
    within 1e-12 of one with denominator <= 64 (then it is flagged exact),
    and a decimal inside (0, 1) never snaps to 0 or 1.
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
    if abs(float(snapped) - value) < 1e-12 and not (0.0 < value < 1.0 and snapped in (0, 1)):
        return float(snapped), snapped
    return value, None


def _emit_rows(rows: list[dict], columns: list[str], output_format: str, stream) -> None:
    if output_format == "json":
        stream.write(_json_text([{c: row.get(c) for c in columns} for row in rows]) + "\n")
    elif output_format == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(fmt(row.get(c)) for c in columns) + "\n")
    else:
        widths = {c: max(len(c), *(len(fmt(r.get(c))) for r in rows)) if rows else len(c)
                  for c in columns}
        stream.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
        for row in rows:
            stream.write("  ".join(fmt(row.get(c)).ljust(widths[c]) for c in columns).rstrip() + "\n")


# series formula -> (evaluator in `formulas`, parity of the index n, whether it takes --x)
FORMULAS = {
    "even-formula": ("zagier_even_formula", 0, True),
    "odd-formula": ("zagier_odd_formula", 1, True),
    "zagier-number": ("zagier_number_formula", 0, False),
    "zagier-type": ("zagier_type_sum", 0, False),
}


def _evaluate(method: str, n: int, x_text: str | None, options: dict) -> dict:
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
        from . import formulas, series_engine

        point = (xq if xq is not None else xf,) if takes_x else ()
        rep = getattr(formulas, formula)(n // 2, *point, **options)
        tol = options.get("tol", series_engine.DEFAULT_TOL)
        if not rep.tail_bound <= tol:
            print(f"warning: {method} at n={n}{f', x={x_text}' if takes_x else ''}: the error bound "
                  f"{rep.tail_bound:.3g} exceeds tol {tol:.3g}", file=sys.stderr)
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
        from . import formulas

        if n % 2 == 0:
            value = formulas.even_asymptotic(n // 2, xf)
        elif x_text is None:
            raise ValueError("asymptotic odd-index evaluation requires --x")
        else:
            value = formulas.odd_asymptotic(n // 2, xf)
        exact = exact_core.zagier_eval(n, xq) if xq is not None else None
        return {**row, "formula": value, "exact": exact}
    raise ValueError(f"unknown method {method}")


def cmd_eval(args: argparse.Namespace) -> int:
    res = _evaluate(args.method, args.n, args.x, _series_tol(args))
    rep = res["report"]
    if rep is None:
        sys.stdout.write(fmt(res["formula"]) + "\n")
        return EXIT_OK
    row = {**res, "abs_err": rep.abs_error, "tail_bound": rep.tail_bound}
    _emit_rows([row], ["n", "x", "formula", "exact", "abs_err", "terms_used", "tail_bound"],
               args.format, sys.stdout)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    options = _series_tol(args)
    if args.n_step < 1 or args.n_end < args.n_start:
        raise ValueError("empty index range: need --n-start <= --n-end and --n-step >= 1")
    rows = []
    for n in range(args.n_start, args.n_end + 1, args.n_step):
        for x_text in args.x.split(",") if args.x else [None]:
            res = _evaluate(args.method, n, x_text, options)
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
               args.format, sys.stdout)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    names = list(IDENTITY_NAMES) if args.identity == "all" else [args.identity]
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
    if args.format == "csv":
        cols = ["identity", "case", "value", "expected", "abs_error", "tolerance", "passed"]
        _emit_rows([c.to_dict() for c in all_checks], cols, "csv", sys.stdout)
    elif args.format == "json":
        sys.stdout.write(_json_text({"summary": summary, "checks": [c.to_dict() for c in all_checks]}) + "\n")
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
    """Plain partial sums, one per M, and the engine's own sum against the exact value.

    For bessel-cos/-sin the exact column is the exact B_nu^*(x) minus the
    non-Bessel part of its formula, so the errors are those of the Bessel sum
    alone; for zagier-number every column carries the whole formula for B_{2n}^*.
    The accelerated columns are the engine's default sum at tol
    1e-12 max(1, |exact|), the same on every row; when it raises, they carry
    the result it gave up on, whose bound then exceeds that tol.
    """
    from . import formulas, series_engine

    if series == "zagier-number":
        nu, xf = 2 * n, 0.0
    elif series in ("bessel-cos", "bessel-sin"):
        if x_text is None:
            raise ValueError(f"{series} requires --x")
        xf, xq = parse_x(x_text)
        if xq is None:
            raise ValueError("convergence study needs a rational x for the exact column")
        if not 0.0 < xf < 1.0:
            raise ValueError("x must lie in (0, 1)")
        nu = 2 * n if series == "bessel-cos" else 2 * n + 1
    else:
        raise ValueError(f"unknown series {series}")
    if nu < 1:
        raise ValueError("n must be nonnegative" if nu % 2 else "n must be positive")
    # the naive sums first: past the double range they raise the engine's
    # ValueError before the exact value meets its float conversion
    if series == "zagier-number":
        # the explicit brackets and the closed regularizer, no tail correction
        naive = [series_engine.chunked_fsum(series_engine._bracket_values(nu, 1, m)) for m in m_list]
        regularizer = series_engine._regularizer_sum(nu, 0.0, 1)[0]
    else:
        naive = [series_engine.bessel_series_partial(nu, xf, m) for m in m_list]
        regularizer = 0.0
    rest = formulas.non_lattice_part(nu, xf, 1e-11)  # its algebraic sums to 1e-14
    if series == "zagier-number":
        exact = float(exact_core.modified_bernoulli(nu))
    else:  # the columns carry the Bessel sum alone
        exact, rest = float(exact_core.zagier_eval(nu, xq)) - rest, 0.0
    try:
        bessel = series_engine.lattice_bessel_sum(nu, xf, 1e-12 * max(1.0, abs(exact)))
    except series_engine.SeriesConvergenceError as err:
        bessel = err.best
    accel = rest + bessel.value
    engine = {"accelerated_value": accel, "accelerated_error": abs(accel - exact),
              "accelerated_terms": bessel.terms_used, "accelerated_bound": bessel.tail_bound,
              "exact": exact}
    partials = [rest + plain - regularizer for plain in naive]
    return [{"m_terms": m, "partial_value": p, "partial_error": abs(p - exact), **engine}
            for m, p in zip(m_list, partials)]


def cmd_converge(args: argparse.Namespace) -> int:
    tokens = args.m_list.split(",")
    if not all(tok.strip().isdigit() and int(tok) > 0 for tok in tokens):
        raise ValueError(f"bad --m-list {args.m_list!r}: need comma-separated positive integers")
    m_list = [int(tok) for tok in tokens]
    if max(m_list) > CONVERGE_MAX_TERMS:
        raise ValueError(f"--m-list entry {max(m_list)} exceeds the cap of {CONVERGE_MAX_TERMS} terms")
    rows = _converge_rows(args.series, args.n, args.x, m_list)
    _emit_rows(rows, ["m_terms", "partial_value", "partial_error", "accelerated_value",
                      "accelerated_error", "accelerated_terms", "accelerated_bound", "exact"],
               args.format, sys.stdout)
    return EXIT_OK


def _add_series_tol(p: argparse.ArgumentParser) -> None:
    # only eval and table evaluate a formula to a tolerance; verify and
    # converge fix their own, so they reject the flag
    p.add_argument("--tol", type=float, default=None, help="series tolerance (default 1e-9)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


@functools.cache  # built once per process: parsing keeps no state between calls
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
    _add_series_tol(p_eval)
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
    _add_series_tol(p_table)
    _add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--identity", required=True,
                          choices=[*IDENTITY_NAMES, "all"])
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
                        help="comma-separated explicit-term budgets, each at most "
                             f"{CONVERGE_MAX_TERMS}")
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
    except RuntimeError as exc:
        # only a loaded engine can raise its convergence error: look the
        # engine up, never import it here
        engine = sys.modules.get(f"{__package__}.series_engine")
        if engine is None or not isinstance(exc, engine.SeriesConvergenceError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
