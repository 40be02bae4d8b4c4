"""Command-line contract: exit codes, output formats, determinism, and the
flags each command accepts."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from zagier_kit import cli
from zagier_kit import exact_core as ec


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_exact_number():
    code, out = run_cli("eval", "--n", "2", "--x", "0", "--method", "exact")
    assert code == 0 and out.strip() == "1/24"


def test_eval_exact_no_x():
    code, out = run_cli("eval", "--n", "3", "--method", "exact")
    assert code == 0 and out.strip() == "-1/4"


def test_eval_exact_polynomial_point():
    code, out = run_cli("eval", "--n", "2", "--x", "1/2", "--method", "exact")
    assert code == 0 and out.strip() == "23/48"


def test_eval_formula_row():
    code, out = run_cli("eval", "--n", "2", "--x", "1/2",
                        "--method", "even-formula", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["exact"] == "23/48"
    assert abs(float(row["formula"]) - 23.0 / 48.0) < 1e-8
    assert float(row["abs_err"]) < 1e-8


def test_eval_bad_args_exit_2():
    # odd index with the even formula
    code, _ = run_cli("eval", "--n", "3", "--x", "1/2", "--method", "even-formula")
    assert code == 2
    # non-rational x for exact evaluation
    code, _ = run_cli("eval", "--n", "2", "--x", "0.123456789", "--method", "exact")
    assert code == 2
    # unknown flag
    code, _ = run_cli("eval", "--bogus")
    assert code == 2


def test_eval_nonconvergence_exit_3():
    code, _ = run_cli("eval", "--n", "4", "--x", "1/3", "--method", "even-formula",
                      "--tol", "1e-30")
    assert code == 3
    # Y_260(4 pi) is still finite, so the tolerance is what fails there
    code, _ = run_cli("eval", "--n", "260", "--method", "zagier-number")
    assert code == 3


@pytest.mark.parametrize("args", [
    ("--method", "even-formula", "--n", "16", "--x", "1/3"),
    ("--method", "odd-formula", "--n", "17", "--x", "2/7"),
    ("--method", "zagier-number", "--n", "16"),
    ("--method", "zagier-type", "--n", "16"),
    ("--method", "even-formula", "--n", "20", "--x", "1/3"),
    ("--method", "zagier-number", "--n", "20"),
])
def test_eval_high_index_reaches_tight_tol(args):
    code, out = run_cli("eval", "--tol", "1e-10", "--format", "json", *args)
    assert code == 0
    row = json.loads(out)[0]
    # tail_bound weights each component bound by its coefficient in the formula
    assert float(row["abs_err"]) <= float(row["tail_bound"]) <= 1e-10


def test_eval_decimal_snapping():
    # 0.25 sits within 1e-12 of 1/4 (denominator <= 64) and is snapped
    code, out = run_cli("eval", "--n", "4", "--x", "0.25", "--method", "exact")
    assert code == 0
    assert out.strip() == str(ec.zagier_eval(4, Fraction(1, 4)))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_odd_six_cycle():
    code, out = run_cli("table", "--method", "exact", "--n-start", "1",
                        "--n-end", "23", "--n-step", "2", "--x", "0",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    cycle = [float(r["exact"]) for r in rows]
    assert cycle[:6] == [0.75, -0.25, -0.25, 0.25, 0.25, -0.75]
    assert cycle[:6] == cycle[6:]


def test_table_csv_roundtrip():
    code, out = run_cli("table", "--method", "even-formula", "--n-start", "2",
                        "--n-end", "6", "--n-step", "2", "--x", "1/3,1/2",
                        "--compare", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    for row in rows:
        assert float(row["abs_err"]) < 1e-7
        assert int(row["terms_used"]) > 0


def test_table_asymptotic_compare_decreasing():
    code, out = run_cli("table", "--method", "asymptotic", "--n-start", "10",
                        "--n-end", "30", "--n-step", "10", "--x", "1/10",
                        "--compare", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    rels = [float(r["rel_err"]) for r in rows]
    assert rels[0] > rels[1] > rels[2]


@pytest.mark.parametrize("method, n, x", [
    ("even-formula", 2, "1/2"), ("even-formula", 6, "1/10"), ("even-formula", 8, "0.3"),
    ("odd-formula", 3, "2/7"), ("odd-formula", 7, "1/3"),
    ("zagier-number", 2, None), ("zagier-number", 10, None),
    ("zagier-type", 2, None), ("zagier-type", 8, None),
])
def test_table_matches_eval(method, n, x):
    point = ("--x", x) if x is not None else ()
    code, out = run_cli("eval", "--method", method, "--n", str(n), *point, "--format", "json")
    assert code == 0
    want = json.loads(out)[0]
    code, out = run_cli("table", "--method", method, "--n-start", str(n), "--n-end", str(n),
                        *point, "--compare", "--format", "json")
    assert code == 0
    got = json.loads(out)[0]
    assert got["x"] == (want["x"] or "0")
    assert got["formula"] == want["formula"]
    assert got["exact"] == float(Fraction(want["exact"]))
    assert got["abs_err"] == want["abs_err"] < 1e-9


def test_runs_without_scipy():
    # scipy is a test oracle only: with it unimportable every identity suite
    # and every eval method still run
    code = textwrap.dedent("""
        import io, json, sys
        from contextlib import redirect_stdout
        sys.modules["scipy"] = None
        from zagier_kit import cli
        runs = [["verify", "--identity", "all", "--format", "json"],
                ["eval", "--n", "6", "--x", "1/3", "--method", "exact"],
                ["eval", "--n", "6", "--x", "1/3", "--method", "even-formula"],
                ["eval", "--n", "7", "--x", "2/7", "--method", "odd-formula"],
                ["eval", "--n", "8", "--method", "zagier-number"],
                ["eval", "--n", "6", "--method", "zagier-type"],
                ["eval", "--n", "30", "--x", "1/10", "--method", "asymptotic"]]
        out = []
        for argv in runs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                out.append((argv[0], cli.main(argv), buf.getvalue()))
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    runs = json.loads(done.stdout)
    assert [code for _, code, _ in runs] == [0] * 7
    summary = json.loads(runs[0][2])["summary"]
    assert summary["passed"] is True and summary["checks"] == 353
    assert all(out.strip() for _, _, out in runs)


def test_identity_names_are_the_verify_registry():
    from zagier_kit import verify

    assert cli.IDENTITY_NAMES == tuple(sorted(verify.IDENTITIES))


def test_fmt_prints_fractions_past_str_digit_limit():
    value = Fraction(-(10**5000 + 1), 3)
    assert cli.fmt(value) == "-1" + "0" * 4999 + "1/3"


def test_table_deterministic_and_thread_stable():
    args = ("table", "--method", "even-formula", "--n-start", "2", "--n-end", "8",
            "--n-step", "2", "--x", "1/10,1/3,1/2", "--compare", "--format", "json")
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_telescope_pass():
    code, out = run_cli("verify", "--identity", "telescope", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["passed"] is True
    assert payload["summary"]["failed"] == 0


def test_verify_json_prints_every_passed_as_a_boolean():
    code, out = run_cli("verify", "--identity", "lemma34", "--format", "json")
    assert code == 0
    assert [c["passed"] for c in json.loads(out)["checks"]] == [True] * 6


def test_verify_json_is_the_same_bytes_at_one_and_two_blas_threads():
    # no reduction of the verify suites may be split across BLAS threads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "zagier_kit.cli", "verify", "--identity", "all", "--format", "json"],
            env=env, capture_output=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["summary"]["passed"] is True
    assert outputs[0] == outputs[1]


_ODD_ROWS = [
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "zero": -0.0, "tiny": 5e-324},
    {"fraction": Fraction(-7, 3), "quote": 'a "b" \\ c', "lines": "one\ntwo\r\tthree", "none": None,
     "bool": True, "int": 10**30, "unicode": "x\u00e9\u2028"},
    {}, [], {"empty dict": {}, "empty list": [], "nested": [{"a": [1, [2.5]]}, []], 3: "int key"},
]


@pytest.mark.parametrize("identity", cli.IDENTITY_NAMES)
def test_json_text_is_the_indented_json_bytes(identity):
    # each suite's verify payload, and the table rows of its checks, as
    # json.dumps(indent=2) writes them; so are rows of odd values
    from zagier_kit import verify

    checks = verify.run_identity(identity)
    summary = {"identities": [identity], "checks": len(checks), "failed": 0, "passed": True}
    rows = [c.to_dict() for c in checks]
    for payload in ({"summary": summary, "checks": rows}, rows, _ODD_ROWS, *_ODD_ROWS, 1.5, "s", None):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, default=cli.fmt)


def test_verify_denominators():
    code, out = run_cli("verify", "--identity", "denominators", "--n-max", "60",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["checks"] == 60


def test_verify_text_format_lines():
    code, out = run_cli("verify", "--identity", "shift")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert json.loads(lines[-1])["passed"] is True


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_bessel_cos_schema_and_claims():
    code, out = run_cli("converge", "--series", "bessel-cos", "--n", "1",
                        "--x", "1/2", "--m-list", "10,100,500", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["m_terms"] for r in rows] == ["10", "100", "500"]
    exacts = {r["exact"] for r in rows}
    assert len(exacts) == 1  # exact column constant across rows
    final = rows[-1]
    assert float(final["partial_error"]) > 1e-2
    assert float(final["accelerated_error"]) < 1e-8


def test_converge_zagier_number():
    code, out = run_cli("converge", "--series", "zagier-number", "--n", "2",
                        "--m-list", "50,500,5000", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    p_errs = [float(r["partial_error"]) for r in rows]
    a_errs = [float(r["accelerated_error"]) for r in rows]
    # naive error shrinks ~ sqrt(10) per decade of M; accelerated is tiny
    assert 2.0 < p_errs[0] / p_errs[1] < 5.0
    assert 2.0 < p_errs[1] / p_errs[2] < 5.0
    assert a_errs[-1] < 1e-9


def test_converge_schema_stable_across_runs():
    args = ("converge", "--series", "bessel-sin", "--n", "1", "--x", "1/4",
            "--m-list", "10,50", "--format", "json")
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2
    assert list(json.loads(out1)[0].keys()) == [
        "m_terms", "partial_value", "partial_error", "accelerated_value",
        "accelerated_error", "accelerated_terms", "accelerated_bound", "exact",
    ]


@pytest.mark.parametrize("n, x, m_list", [(20, "1/10", "1,8"), (9, "1/4", "53,1000"),
                                          (11, "1/4", "53,1000")])
def test_converge_reports_the_engine_result_with_an_honest_bound(n, x, m_list):
    # one engine sum on every row, its error within its bound; at n = 9 the
    # closed differences cancel and the Lerch tail meets the relative tol; at
    # x = 1/4 the sum is the x = 1/2 one on the doubled lattice, which meets it
    # at n = 9 and 11 alike
    code, out = run_cli("converge", "--series", "bessel-cos", "--n", str(n), "--x", x,
                        "--m-list", m_list, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len({(r["accelerated_value"], r["accelerated_terms"]) for r in rows}) == 1
    assert all(r["accelerated_error"] <= r["accelerated_bound"] for r in rows)
    tol = 1e-12 * max(1.0, abs(rows[0]["exact"]))
    assert rows[0]["accelerated_bound"] <= tol


def test_converge_requires_rational_x():
    code, _ = run_cli("converge", "--series", "bessel-cos", "--n", "1",
                      "--x", "0.123456789")
    assert code == 2


# ---------------------------------------------------------------------------
# config / cache plumbing
# ---------------------------------------------------------------------------

def test_env_cache(tmp_path):
    # the exact core computes its own Bernoulli numbers: a table file that
    # sets B_2 = 1/5, named by ZAGIER_CACHE in a fresh process, changes no value
    path = tmp_path / "bern-cache.tsv"
    path.write_text("zagier-kit bernoulli-cache v1\n0\t1/1\n1\t-1/2\n2\t1/5\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-m", "zagier_kit.cli", "eval", "--n", "4",
                           "--method", "exact"], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src, "ZAGIER_CACHE": str(path)})
    assert done.stdout.strip() == "-27/80"


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "thm12", "--n-max", "3", "--tol", "1e-2"),
    ("verify", "--identity", "thm12", "--n-max", "3", "--max-terms", "1"),
    ("converge", "--series", "bessel-cos", "--n", "2", "--x", "1/3", "--tol", "0.5"),
    ("converge", "--series", "bessel-cos", "--n", "2", "--x", "1/3", "--max-terms", "1"),
    ("eval", "--n", "4", "--method", "exact", "--cache-path", "bern-cache.tsv"),
    ("eval", "--n", "4", "--method", "exact", "--config", "zk.conf"),
    ("eval", "--n", "4", "--x", "1/3", "--method", "even-formula", "--max-terms", "50"),
    ("table", "--method", "zagier-number", "--n-start", "2", "--n-end", "4", "--max-terms", "50"),
], ids=["verify-tol", "verify-max-terms", "converge-tol", "converge-max-terms",
        "eval-cache-path", "eval-config", "eval-max-terms", "table-max-terms"])
def test_unread_flags_are_rejected(capsys, argv):
    # verify and converge set their own tolerances, the engine caps every
    # series at its own term count, no command reads a cache file, and flags
    # are the only settings
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_parse_x():
    xf, xq = cli.parse_x("2/3")
    assert xq == Fraction(2, 3)
    xf, xq = cli.parse_x("0.5")
    assert xq == Fraction(1, 2)
    xf, xq = cli.parse_x("0.1234567891")
    assert xq is None and abs(xf - 0.1234567891) < 1e-15


@pytest.mark.parametrize("argv, needle", [
    *[(("eval", "--n", "2", "--method", "exact", "--tol", tol), "tol must lie in (0, 1)")
      for tol in ("2", "0", "nan")],
    (("table", "--method", "exact", "--n-start", "300", "--n-end", "300", "--x", "1/3"),
     "table cell n=300, x=1/3"),
    (("eval", "--n", "400", "--x", "0.3", "--method", "asymptotic"),
     "B_400^*(x) exceeds the double range"),
    (("eval", "--n", "401", "--x", "0.3", "--method", "asymptotic"),
     "B_401^*(x) exceeds the double range"),
    (("converge", "--series", "bessel-cos", "--n", "1", "--x", "0"), "x must lie in"),
    (("converge", "--series", "bessel-sin", "--n", "1", "--x", "1"), "x must lie in"),
    (("table", "--method", "exact", "--n-start", "1", "--n-end", "2", "--x", "0.123456789"),
     "exact evaluation needs a rational x"),
    (("table", "--method", "exact", "--n-start", "0", "--n-end", "2"),
     "n must be positive"),
    (("eval", "--method", "zagier-number", "--n", "8", "--x", "1/3"),
     "zagier-number takes no --x"),
    (("eval", "--method", "zagier-type", "--n", "8", "--x", "1/3"),
     "zagier-type takes no --x"),
    (("table", "--method", "zagier-number", "--n-start", "2", "--n-end", "4", "--n-step", "2",
      "--x", "1/3", "--compare"), "zagier-number takes no --x"),
    (("table", "--method", "zagier-type", "--n-start", "2", "--n-end", "4", "--n-step", "2",
      "--x", "1/3", "--compare"), "zagier-type takes no --x"),
    (("eval", "--method", "even-formula", "--n", "400", "--x", "1/3"),
     "Y_400(4 pi) exceeds the double range"),
    (("eval", "--method", "odd-formula", "--n", "261", "--x", "1/3"),
     "Y_261(4 pi) exceeds the double range"),
    (("eval", "--method", "zagier-number", "--n", "600"),
     "Y_600(4 pi) exceeds the double range"),
    *[(("eval", "--n", "2", "--method", "exact", "--x", x), "bad evaluation point")
      for x in ("1/0", "inf", "1e400", "nan")],
    *[(("verify", "--identity", "thm12", "--n-max", n), "--n-max must be >= 1")
      for n in ("0", "-1")],
    *[(("verify", "--identity", name, "--n-max", "3"), f"{name} has no index range")
      for name in ("lemma33", "lemma34", "integral-id", "form-s1", "poisson-series",
                   "series-007", "telescope")],
    (("table", "--method", "exact", "--n-start", "5", "--n-end", "2"),
     "empty index range"),
    *[(("table", "--method", "exact", "--n-start", "2", "--n-end", "5", "--n-step", step),
       "empty index range") for step in ("-1", "0")],
    (("converge", "--series", "zagier-number", "--n", "0"), "n must be positive"),
    (("converge", "--series", "bessel-cos", "--n", "0", "--x", "1/3"),
     "n must be positive"),
    (("converge", "--series", "bessel-sin", "--n", "-1", "--x", "1/3"),
     "n must be nonnegative"),
    *[(("converge", "--series", "bessel-cos", "--n", "1", "--x", "1/3", "--m-list", m),
       "bad --m-list") for m in ("10,,20", "10,0")],
    (("converge", "--series", "bessel-cos", "--n", "1", "--x", "1/3", "--m-list", "10,100001"),
     "--m-list entry 100001 exceeds the cap of 100000 terms"),
    (("converge", "--series", "bessel-sin", "--n", "130", "--x", "1/3"),
     "Y_261(4 pi) exceeds the double range"),
    (("converge", "--series", "bessel-cos", "--n", "131", "--x", "1/3"),
     "Y_262(4 pi) exceeds the double range"),
    (("converge", "--series", "zagier-number", "--n", "131"),
     "Y_262(4 pi) exceeds the double range"),
    (("eval", "--n", "201", "--x", "1/2", "--method", "asymptotic"),
     "does not exist at x = 1/2"),
], ids=["tol-2", "tol-0", "tol-nan",
        "exact-table-overflow", "even-asymptotic-overflow", "odd-asymptotic-overflow",
        "converge-x-0", "converge-x-1", "exact-table-irrational-x", "exact-table-n-0",
        "eval-number-x", "eval-type-x", "table-number-x", "table-type-x",
        "even-bessel-overflow", "odd-bessel-overflow", "number-bessel-overflow",
        "x-zero-denominator", "x-inf", "x-1e400", "x-nan", "n-max-0", "n-max-negative",
        "n-max-lemma33", "n-max-lemma34", "n-max-integral-id", "n-max-form-s1",
        "n-max-poisson-series", "n-max-series-007", "n-max-telescope",
        "table-end-before-start", "table-step-negative", "table-step-0", "converge-number-n-0",
        "converge-cos-n-0", "converge-sin-n-negative", "m-list-empty-token", "m-list-zero",
        "m-list-past-cap",
        "converge-sin-overflow", "converge-cos-overflow", "converge-number-overflow",
        "odd-asymptotic-at-half"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_clean_failures_exit_2(capsys, argv, needle):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("x", (pytest.param("1/100000000000000000", id="1e-17"),
                               pytest.param(f"1/{10**100}", id="1e-100"),
                               pytest.param(f"1/{10**300}", id="1e-300"),
                               pytest.param(f"{2**53 - 1}/{2**53}", id="1-2^-53"),
                               pytest.param(f"1/{2**1074}", id="2^-1074")))
@pytest.mark.parametrize("method", ("even-formula --n 2", "even-formula --n 8", "odd-formula --n 3",
                                    "odd-formula --n 9"))
def test_polynomial_formulas_near_either_end_exit_cleanly(capsys, method, x):
    # a Chebyshev argument at t = +-1 or a subnormal x ends in exit 0, 2 or 3, never a traceback
    code, _ = run_cli("eval", "--method", *method.split(), "--x", x)
    assert code in (0, 2, 3) and "Traceback" not in capsys.readouterr().err, (method, x, code)
