"""Public surface: every exported name resolves, and the package exports a
pinned list, so a deletion cannot silently drop a public name.  The exact
side imports and runs without the numeric stack, and the numeric side
without mpmath."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import zagier_kit

MODULES = ("zagier_kit", "zagier_kit.exact_core", "zagier_kit.specfun",
           "zagier_kit.series_engine", "zagier_kit.formulas", "zagier_kit.verify")

PACKAGE_ALL = [
    "BernoulliCache", "RationalPolynomial", "bernoulli_number", "bernoulli_polynomial",
    "chebyshev_T", "chebyshev_U", "jacobi_symbol", "modified_bernoulli",
    "odd_modified_closed_form", "two_adic_valuation", "two_adic_valuation_prediction",
    "zagier_eval", "zagier_polynomial", "zagier_shift",
    "EvalReport", "even_asymptotic", "odd_asymptotic", "zagier_even_formula",
    "zagier_number_formula", "zagier_odd_formula", "zagier_type_sum",
    "SeriesConvergenceError", "SeriesResult", "TrigPowerSums", "bessel_cos_series",
    "bessel_sin_series", "g_tail_sum", "trig_power_sums",
    "bessel_J", "bessel_J_int_batch", "bessel_Y_int", "coates_integral",
    "coates_series", "dJ_dnu_at_int", "schlafli_S",
    "__version__",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_pinned_list():
    assert zagier_kit.__all__ == PACKAGE_ALL


def test_dir_lists_every_exported_name():
    assert set(zagier_kit.__all__) <= set(dir(zagier_kit))


def test_numeric_name_is_bound_on_first_use():
    value = zagier_kit.zagier_even_formula
    assert vars(zagier_kit)["zagier_even_formula"] is value
    assert value is importlib.import_module("zagier_kit.formulas").zagier_even_formula
    with pytest.raises(AttributeError, match="no_such_name"):
        zagier_kit.no_such_name


def _python(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(zagier_kit.__file__))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})


def test_import_loads_no_numeric_module():
    done = _python("""
        import sys
        import zagier_kit, zagier_kit.cli
        numeric = ("numpy", "mpmath", "zagier_kit.formulas", "zagier_kit.series_engine",
                   "zagier_kit.specfun", "zagier_kit.verify")
        print(sorted(name for name in numeric if name in sys.modules))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_exact_side_runs_with_numpy_blocked():
    done = _python("""
        import io, sys
        from contextlib import redirect_stdout
        sys.modules["numpy"] = None
        import zagier_kit, zagier_kit.cli
        runs = [["eval", "--method", "exact", "--n", "8", "--x", "1/3"],
                ["eval", "--method", "exact", "--n", "600"],
                ["table", "--method", "exact", "--n-start", "1", "--n-end", "40", "--x", "1/3"]]
        for argv in runs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = zagier_kit.cli.main(argv)
            assert code == 0 and buf.getvalue().strip(), (argv, code)
        print(zagier_kit.modified_bernoulli(12))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(zagier_kit.modified_bernoulli(12))


def test_verify_runs_with_mpmath_blocked():
    # mpmath is a test extra: the half-integer Poisson check needs no import of it
    done = _python("""
        import io, sys
        from contextlib import redirect_stdout
        sys.modules["mpmath"] = None
        import zagier_kit.cli
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = zagier_kit.cli.main(["verify", "--identity", "poisson-series"])
        assert code == 0 and "nu=2.5" in buf.getvalue(), (code, buf.getvalue())
        print(sys.modules["mpmath"])
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"
