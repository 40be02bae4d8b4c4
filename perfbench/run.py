"""Seeded, accuracy-checked benchmark for zagier-kit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the package under `src/` of the
checkout that holds this file.  Every round is a fresh interpreter
(perfbench/worker.py) with `ZAGIER_CACHE` removed from its environment
and BLAS/OpenMP threads capped at the CPU count.  The load is a closed
loop: one client in one process.

--trace 0 runs four rounds (exact-table: one cold pass per round, at
least four rounds) of a fixed number of passes, about --seconds of timed
work at the seed commit's speed, and reports the end-to-end metrics.  Their times are scaled to a reference core by the
calibration loop of perfbench/calibrate.py, run between ops, because the
speed of a shared machine drifts; the same metrics computed from the
measured times, and the loop time, are printed beside them.  --trace 1
runs a fixed number of passes once untraced and once traced, and reports
the per-layer metrics: self time (measured, not scaled) and calls per
public function, counts, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts ops that did not
deliver a checked-correct result (raised, wrong or crashed).  `correct`
is false when an op crashed with an unexpected exception, or when any op
failed on a workload that expects every op to pass; series-tight measures
the failure and wrong-answer shares, so its failures are counted in
`failed` without making the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import workloads
from tracer import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

ROUNDS = 4              # rounds per untraced run; set-up is their median
MAX_COLD_ROUNDS = 12    # cap for exact-table, whose rounds are one pass each
RUN_DEADLINE_S = 170.0  # the whole run, every child included

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    (("failed_share", "share"), ("wrong_share", "share"), ("digits_p50", "digits"),
     ("trace.overhead_share", "share"), ("trace.ops_s", "s"),
     ("trace.unlisted_self_s", "s"),
     ("setup.import_s", "s"), ("setup.inputs_s", "s"), ("setup.warmup_s", "s"))
    + tuple((f"{mod}.{fn}.{kind}", unit)
            for mod, fns in TRACED.items() for fn in fns
            for kind, unit in (("self_s", "s"), ("calls", "count")))
    + (("series_engine.explicit_terms", "count"), ("series_engine.budget_exhausted", "count"),
       ("formulas.raised", "count"), ("formulas.over_tol", "count"),
       ("verify.self_s", "s"))
    + tuple((f"verify.{suite}.s", "s") for suite in workloads.VERIFY_SUITES)
)


class RoundError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ZAGIER_CACHE", None)
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        try:
            current = int(env.get(var, cpus))
        except ValueError:
            current = cpus
        env[var] = str(max(1, min(current, cpus)))
    env["PYTHONPATH"] = SRC
    return env


def run_round(workload: str, seed: int, mode: list[str], deadline: float) -> dict:
    """Spawn one worker; set-up time runs from spawn until it prints READY.

    The scaled set-up time uses the mean of the speed factor taken just
    before the spawn and the one the worker takes just after READY.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--src", SRC] + mode
    factor = calibrate.speed_factor()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if ready.strip() != "READY" or code != 0 or not lines:
        raise RoundError(f"worker {' '.join(mode)} exited with {code}")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_measured_s"] = setup_s
    result["setup_scaled_s"] = setup_s * (factor + result["ready_factor"]) / 2
    return result


def tail_rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile `pct` among `count` samples."""
    return max(1, math.ceil(pct / 100.0 * count))


def pass_rates(r: dict, key: str) -> list[float]:
    """Ops per second of each pass of round `r`, from its `key` latencies."""
    lat = r[key]
    width = len(lat) // r["passes"]
    return [width / sum(lat[i:i + width]) for i in range(0, len(lat), width)]


def summarize(spec: workloads.Workload, rounds: list[dict]) -> dict:
    outcomes = [o for r in rounds for o in r["outcomes"]]
    digits = [d for r in rounds for d in r["digits"]]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o != workloads.OK)
    wrong = sum(1 for o in outcomes if o == workloads.WRONG)
    errors = sum(1 for o in outcomes if o == workloads.ERROR)
    for r in rounds:
        for msg in r["errors"]:
            print(f"unexpected exception: {msg}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": errors == 0 and (failed == 0 or not spec.expect_all_ok),
        "failed_share": failed / attempted,
        "wrong_share": wrong / attempted,
        "digits_p50": statistics.median(digits) if spec.name in workloads.SERIES_REL_TOL else 0.0,
    }


def timing_metrics(spec: workloads.Workload, rounds: list[dict], kind: str) -> dict:
    """End-to-end metrics from the `kind` ("scaled" or "measured") times.

    Medians over passes and over ops: a slow spell on a shared machine
    moves a minority of the passes.  op_p50_ms is the median over the ops
    of a pass of each op's mean latency, which stays off the boundary
    between two ops' sample groups when a pass has few ops.
    """
    key = "scaled_s" if kind == "scaled" else "latencies_s"
    lat = sorted(x for r in rounds for x in r[key])
    width = len(rounds[0][key]) // rounds[0]["passes"]
    per_op = [[] for _ in range(width)]
    for r in rounds:
        for i, x in enumerate(r[key]):
            per_op[i % width].append(x)
    return {
        "setup_s": statistics.median(r[f"setup_{kind}_s"] for r in rounds),
        "ops_per_s": statistics.median(x for r in rounds for x in pass_rates(r, key)),
        "op_p50_ms": statistics.median(statistics.fmean(x) for x in per_op) * 1e3,
        "op_tail_ms": lat[tail_rank(len(lat), spec.tail_pct) - 1] * 1e3,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }


def plan(spec: workloads.Workload, seconds: int) -> tuple[int, int]:
    """(rounds, passes per round) that fill about `seconds` of timed work
    at the seed commit's speed; a function of its arguments only."""
    if spec.cold_rounds:
        return min(MAX_COLD_ROUNDS, max(ROUNDS, round(seconds / spec.pass_s))), 1
    return ROUNDS, max(1, round(seconds / ROUNDS / spec.pass_s))


def untraced(spec: workloads.Workload, seed: int, seconds: int, deadline: float):
    count, passes = plan(spec, seconds)
    rounds = [run_round(spec.name, seed, ["--passes", str(passes)], deadline)
              for _ in range(count)]
    summary = summarize(spec, rounds)
    metrics = timing_metrics(spec, rounds, "scaled")
    measured = timing_metrics(spec, rounds, "measured")
    width = len(rounds[0]["latencies_s"]) // rounds[0]["passes"]
    for i, r in enumerate(rounds, 1):
        print(f"round {i}: set-up {r['setup_measured_s']:.3f} s measured, "
              f"{r['setup_scaled_s']:.3f} s scaled "
              f"(import {r['setup']['import_s']:.3f}, inputs {r['setup']['inputs_s']:.3f}, "
              f"warm-up {r['setup']['warmup_s']:.3f}); {r['passes']} passes of {width} ops, "
              f"{statistics.median(pass_rates(r, 'latencies_s')):.2f} ops/s measured; "
              f"calibration loop {r['loop_s_median'] * 1e3:.2f} ms "
              f"(reference {calibrate.REFERENCE_S * 1e3:g} ms)")
    print("measured (unscaled): " + "  ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    samples = sum(len(r["latencies_s"]) for r in rounds)
    beyond = samples - tail_rank(samples, spec.tail_pct)
    print(f"op_tail_ms is p{spec.tail_pct:g} of {samples} samples ({beyond} beyond it)")
    print(f"failed_share {summary['failed_share']:.6f}  wrong_share {summary['wrong_share']:.6f}  "
          f"digits_p50 {summary['digits_p50']:.4f}")
    return summary, metrics, END_TO_END


def traced(spec: workloads.Workload, seed: int, deadline: float):
    mode = ["--passes", str(spec.trace_passes)]
    plain = run_round(spec.name, seed, mode, deadline)
    trace = run_round(spec.name, seed, mode + ["--trace"], deadline)
    summary = summarize(spec, [trace])
    plain_rate, trace_rate = (len(r["scaled_s"]) / sum(r["scaled_s"]) for r in (plain, trace))
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(trace["trace"])
    metrics.update({
        "failed_share": summary["failed_share"],
        "wrong_share": summary["wrong_share"],
        "digits_p50": summary["digits_p50"],
        "trace.overhead_share": (plain_rate - trace_rate) / plain_rate,
        "trace.ops_s": sum(trace["latencies_s"]),
    })
    for key in ("import_s", "inputs_s", "warmup_s"):
        metrics[f"setup.{key}"] = statistics.median(r["setup"][key] for r in (plain, trace))
    unknown = set(metrics) - {name for name, _ in PER_LAYER}
    if unknown:
        raise RoundError(f"tracer reported unlisted metrics {sorted(unknown)}")
    listed = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    print(f"traced {len(trace['latencies_s'])} ops in {metrics['trace.ops_s']:.3f} s; "
          f"self times sum to {listed:.3f} s; untraced {sum(plain['latencies_s']):.3f} s")
    print("spans (caller -> callee: calls, inclusive s):")
    for parent, child, calls, seconds in sorted(trace["edges"], key=lambda e: -e[3])[:25]:
        print(f"  {parent} -> {child}: {calls}, {seconds:.4f}")
    return summary, metrics, PER_LAYER


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zagier_kit", "__init__.py")):
        print(f"error: no zagier_kit package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            summary, metrics, names = traced(spec, args.seed, deadline)
        else:
            summary, metrics, names = untraced(spec, args.seed, args.seconds, deadline)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
