"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

import run
import workloads
from tracer import TRACED, Tracer

zk = pytest.importorskip("zagier_kit")
import zagier_kit.cli  # noqa: E402,F401


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    if name != "verify-all":
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_series_inputs_cover_the_documented_ranges():
    specs = workloads.generate("series-tight", 3)
    assert {s[1] for s in specs} == set(range(1, 61))
    points = [s[2] for s in specs if len(s) == 3]
    assert all(Fraction(1, 100) <= x <= Fraction(99, 100) and x.denominator <= 64 for x in points)
    assert {s[0] for s in specs} == {"even", "odd", "number", "type"}


@pytest.mark.parametrize("name", sorted(workloads.SERIES_REL_TOL))
def test_series_mix_weights_the_four_evaluators_equally_at_every_index(name):
    specs = workloads.generate(name, 2)
    per = workloads.SERIES_OPS_PER_EVALUATOR[name]
    for n in range(1, workloads.SERIES_N_MAX[name] + 1):
        kinds = sorted(s[0] for s in specs if s[1] == n)
        assert kinds == sorted(["even", "odd", "number", "type"] * per)


def test_digits_is_relative_to_the_exact_value():
    assert workloads.digits(0.5005, 0.5) == pytest.approx(3.0)
    assert workloads.digits(2.0, 2.0) == workloads.DIGITS_CAP
    assert workloads.digits(1e-6, 0.0) == pytest.approx(6.0)
    assert workloads.digits(float("nan"), 1.0) == 0.0


def test_exact_inputs_include_negative_points_and_points_above_one():
    points = {s[2] for s in workloads.generate("exact-table", 5) if s[0] == "eval"}
    assert len(points) == 2 * workloads.EXACT_BASE_POINTS
    assert any(x < 0 for x in points) and any(x > 1 for x in points)
    assert all(-x - 3 in points and x.denominator <= 64 for x in points)


def test_own_closed_forms_match_the_exact_core():
    for n in range(1, 80):
        b = zk.modified_bernoulli(n)
        if n % 2:
            assert b == workloads.odd_modified_bernoulli(n)
        d = b.denominator
        assert (d & -d).bit_length() - 1 == workloads.denominator_2adic(n)
    assert workloads.jacobi(-3, 35) == zk.jacobi_symbol(-3, 35)


def _small_exact_specs():
    points = [Fraction(1, 3), Fraction(-10, 3), Fraction(7, 5), Fraction(-22, 5)]
    specs = [("eval", n, x) for n in range(1, 13) for x in points]
    specs += [("modb", n) for n in range(1, 30)]
    specs += [("shift", 9, Fraction(1, 3), -4)]
    return specs


def test_exact_checker_passes_true_values_and_flags_perturbed_ones():
    specs = _small_exact_specs()
    prepared = workloads.prepare("exact-table", specs, zk)
    outs = [fn(*args) for fn, args in prepared.calls]
    outcomes, _ = prepared.check(outs)
    assert set(outcomes) == {workloads.OK}
    for i in (specs.index(("eval", 7, Fraction(7, 5))), specs.index(("modb", 13)),
              specs.index(("modb", 24)), len(specs) - 1):
        bad = list(outs)
        bad[i] += Fraction(1, 10**30)
        outcomes, _ = prepared.check(bad)
        assert outcomes[i] == workloads.WRONG


def _series_subset(name, count=12):
    specs = workloads.generate(name, 1)
    keep = []
    for kind in ("even", "odd", "number", "type"):
        keep += [s for s in specs if s[0] == kind][: count // 4]
    return keep


def test_series_checker_flags_a_perturbed_value_and_counts_it_as_wrong():
    specs = _series_subset("series-loose")
    prepared = workloads.prepare("series-loose", specs, zk)
    outs = [fn(*args) for fn, args in prepared.calls]
    outcomes, digits = prepared.check(outs)
    assert set(outcomes) == {workloads.OK}
    assert min(digits) > 6
    bad = list(outs)
    bad[2] += 10 * prepared.refs["tol"][2]
    bad[5] = float("nan")
    bad[7] = zk.SeriesConvergenceError("budget")
    outcomes, digits = prepared.check(bad)
    assert (outcomes[2], outcomes[5], outcomes[7]) == (workloads.WRONG, workloads.WRONG,
                                                        workloads.RAISED)
    assert digits[7] == 0.0
    spec = workloads.WORKLOADS["series-loose"]
    summary = run.summarize(spec, [{"outcomes": outcomes, "digits": digits, "errors": []}])
    assert summary["wrong_share"] == pytest.approx(2 / len(specs))
    assert summary["failed_share"] == pytest.approx(3 / len(specs))
    assert summary["correct"] is False


def test_verify_checker_needs_exit_zero_and_a_passed_summary():
    good = (0, json.dumps({"summary": {"passed": True}}))
    outcomes, _ = workloads.check_verify([good, (1, good[1]),
                                          (0, json.dumps({"summary": {"passed": False}})),
                                          (0, "not json"), RuntimeError("boom")])
    assert outcomes == [workloads.OK, workloads.WRONG, workloads.WRONG, workloads.WRONG,
                        workloads.ERROR]


def test_tracer_restores_every_rebound_function():
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "zagier_kit" or name.startswith("zagier_kit.")}
    tracer = Tracer(zk.series_engine.DEFAULT_MAX_TERMS)
    tracer.install()
    try:
        assert zk.series_engine.hurwitz_zeta is not modules["zagier_kit.specfun"]["hurwitz_zeta"]
        assert zk.series_engine.hurwitz_zeta is zk.specfun.hurwitz_zeta
        zk.zagier_even_formula(2, 0.3, tol=1e-9)
    finally:
        tracer.restore()
    for name, saved in modules.items():
        current = vars(sys.modules[name])
        assert all(current[k] is v for k, v in saved.items() if k in current)
    assert tracer.calls["formulas.zagier_even_formula"] == 1
    assert tracer.calls["series_engine.regularized_bracket_sum"] == 1
    assert tracer.explicit_terms > 0


def test_per_layer_names_cover_every_traced_function():
    names = {name for name, _ in run.PER_LAYER}
    for mod, fns in TRACED.items():
        for fn in fns:
            assert f"{mod}.{fn}.self_s" in names and f"{mod}.{fn}.calls" in names
    assert len(names) == len(run.PER_LAYER) <= 128


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_traced_call_counts_repeat_exactly_between_two_runs():
    deadline = run.time.monotonic() + 120
    first, second = (run.run_round("series-loose", 4, ["--passes", "1", "--trace"], deadline)
                     for _ in range(2))
    counts = [{k: v for k, v in r["trace"].items()
               if k.endswith(".calls") or k in ("series_engine.explicit_terms",
                                                "series_engine.budget_exhausted",
                                                "formulas.raised", "formulas.over_tol")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["formulas.zagier_even_formula.calls"] > 0
    assert first["outcomes"] == second["outcomes"]
    assert first["digits"] == second["digits"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_count_of_a_run_depends_only_on_its_arguments(name):
    spec = workloads.WORKLOADS[name]
    for seconds in (1, 15, 60):
        rounds, passes = run.plan(spec, seconds)
        assert rounds >= run.ROUNDS and passes >= 1
        assert (rounds, passes) == run.plan(spec, seconds)
