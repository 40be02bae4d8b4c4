"""Acceptance gate: the headline checks at their pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is fixed here; nothing is calibrated at
runtime.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from math import pi, sqrt

from zagier_kit import cli
from zagier_kit import exact_core as ec
from zagier_kit import formulas as fm
from zagier_kit import specfun as sf
from zagier_kit import verify

X_GRID = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
          Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


@contextmanager
def criterion(num: int, label: str):
    detail: dict = {}
    try:
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL - {label} {detail or ''}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {label} {detail or ''}")


def test_criterion_01_even_formula_grid():
    with criterion(1, "even-index formula vs exact on the 5x6 grid, tol 1e-7") as d:
        t0 = time.monotonic()
        worst = 0.0
        for n in range(1, 6):
            for x in X_GRID:
                rep = fm.zagier_even_formula(n, x)
                worst = max(worst, rep.abs_error)
                assert rep.abs_error < 1e-7, (n, x, rep.abs_error)
        elapsed = time.monotonic() - t0
        d["worst"] = f"{worst:.2e}"
        d["seconds"] = f"{elapsed:.1f}"
        assert elapsed < 60.0


def test_criterion_02_odd_formula_grid():
    with criterion(2, "odd-index formula vs exact on the 6x6 grid, tol 1e-7") as d:
        worst = 0.0
        for n in range(0, 6):
            for x in X_GRID:
                rep = fm.zagier_odd_formula(n, x)
                worst = max(worst, rep.abs_error)
                assert rep.abs_error < 1e-7, (n, x, rep.abs_error)
        d["worst"] = f"{worst:.2e}"


def test_criterion_03_modified_bernoulli_series():
    with criterion(3, "modified-Bernoulli series formula, n = 1..8, tol 1e-7") as d:
        worst = 0.0
        for n in range(1, 9):
            rep = fm.zagier_number_formula(n)
            worst = max(worst, rep.abs_error)
            assert rep.abs_error < 1e-7, (n, rep.abs_error)
        assert ec.modified_bernoulli(2) == Fraction(1, 24)
        d["worst"] = f"{worst:.2e}"


def test_criterion_04_zagier_type_sum():
    with criterion(4, "8-pi-lattice formula for B*(-3/2)+B*, n = 1..5, tol 1e-7") as d:
        worst = 0.0
        for n in range(1, 6):
            rep = fm.zagier_type_sum(n)
            worst = max(worst, rep.abs_error)
            assert rep.abs_error < 1e-7, (n, rep.abs_error)
        d["worst"] = f"{worst:.2e}"


def test_criterion_05_numeric_regressions():
    with criterion(5, "published Bessel-Y digits and the telescoping constant") as d:
        targets = [(2, 0.134559, 5e-7), (4, -0.0357975, 5e-8),
                   (6, -0.14694, 5e-6), (8, 0.246447, 5e-7)]
        for n, printed, tol in targets:
            got = sf.bessel_Y_int(n, 4 * pi)
            assert abs(got - printed) < tol, (n, got)
        checks = verify.run_identity("telescope")
        total = next(c for c in checks if c.case == "sum")
        assert total.abs_error < 1e-10
        d["telescope_err"] = f"{total.abs_error:.1e}"


def test_criterion_06_denominator_valuations():
    with criterion(6, "2-adic denominator prediction, n = 1..60, zero failures") as d:
        failures = [c for c in verify.run_identity("denominators", n_max=60)
                    if not c.passed]
        assert not failures
        d["checks"] = 60


def test_criterion_07_periodicity_and_closed_form():
    with criterion(7, "6-periodic odd values and the Jacobi closed form, bit-exact") as d:
        table = {1: Fraction(3, 4), 3: Fraction(-1, 4), 5: Fraction(-1, 4),
                 7: Fraction(1, 4), 9: Fraction(1, 4), 11: Fraction(-3, 4)}
        for k in range(0, 31):
            n = 2 * k + 1
            value = ec.modified_bernoulli(n)
            assert value == table[n % 12], n
            assert ec.odd_modified_closed_form(k) == value, n
        d["range"] = "n = 1..61 odd"


def test_criterion_08_fourier_coefficient_lemmas():
    with criterion(8, "Fourier-coefficient checks: quadrature vs P and dJ/dnu") as d:
        worst_p = worst_d = 0.0
        for n in (1, 2):
            for m in (1, 2):
                rp = fm.fourier_coeff_P_check(n, m)
                assert abs(rp.formula_value - rp.reference) < 1e-8, ("P", n, m)
                worst_p = max(worst_p, abs(rp.formula_value - rp.reference))
                rd = fm.fourier_coeff_dJ_check(n, m)
                assert abs(rd.formula_value - rd.reference) < 1e-7, ("dJ", n, m)
                worst_d = max(worst_d, abs(rd.formula_value - rd.reference))
        d["worst_P"] = f"{worst_p:.1e}"
        d["worst_dJ"] = f"{worst_d:.1e}"


def test_criterion_09_oscillatory_integral_identity():
    with criterion(9, "oscillatory integral vs Bessel series, plus the ODE residual") as d:
        for n, u in ((1, 4 * pi), (2, 8 * pi)):
            quad = sf.coates_integral(n, u)
            series = sf.coates_series(n, u)
            assert abs(quad - series) < 1e-13, (n, u)
        residual = next(c for c in verify.run_identity("integral-id")
                        if c.case.startswith("ode"))
        assert residual.abs_error < 1e-5
        d["ode_residual"] = f"{residual.abs_error:.1e}"


def test_criterion_10_asymptotic_ladder():
    with criterion(10, "one-term asymptotic: errors strictly decrease, < 1e-3 at n=15") as d:
        rels = []
        for n in (5, 10, 15):
            approx = fm.even_asymptotic(n, 0.1)
            exact = float(ec.zagier_eval(2 * n, Fraction(1, 10)))
            rels.append(abs(approx - exact) / abs(exact))
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 1e-3
        d["rel_errors"] = "[" + ", ".join(f"{r:.1e}" for r in rels) + "]"


def test_criterion_11_acceleration_claim(capsys):
    with criterion(11, "acceleration: 1e-8 with <= 500 terms where naive still errs > 1e-2") as d:
        code = cli.main(["converge", "--series", "bessel-cos", "--n", "1",
                         "--x", "1/2", "--m-list", "100,500", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        import csv as _csv
        import io as _io

        rows = list(_csv.DictReader(_io.StringIO(out)))
        by_m = {int(r["m_terms"]): r for r in rows}
        assert float(by_m[100]["accelerated_error"]) < 1e-8
        assert float(by_m[500]["accelerated_error"]) < 1e-8
        assert float(by_m[500]["partial_error"]) > 1e-2
        # the claim reads the engine's own term count
        assert int(by_m[500]["accelerated_terms"]) <= 500
        d["accel_terms"] = by_m[500]["accelerated_terms"]
        d["accel_err_at_100"] = f"{float(by_m[100]['accelerated_error']):.1e}"
        d["naive_err_at_500"] = f"{float(by_m[500]['partial_error']):.1e}"
