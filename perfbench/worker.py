"""One benchmark round in a fresh interpreter.

Set-up (import, seeded inputs, exact references, warm-up) runs first; the
worker then prints READY so the parent can time set-up from spawn.  The
timed phase is a closed loop: one op is issued only after the previous one
returned.  It runs a fixed number of whole passes over the op list, so
every op is attempted equally often and the attempted and failed counts
repeat exactly for a seed, however fast the machine runs.  Every
result is checked after the timed phase, and the worker prints one RESULT
line of JSON.

    python3 perfbench/worker.py --workload NAME --seed N --passes P [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import workloads


CALIBRATE_EVERY_S = 0.2


def run_passes(calls, passes: int):
    """Closed loop over whole passes, with the calibration loop run between
    ops at least every CALIBRATE_EVERY_S.

    Returns (latencies_s, scaled_s, outs, loop_times_s), where
    each scaled latency uses the mean of the calibrations around its op.
    """
    clock = time.perf_counter
    lat: list[float] = []
    starts: list[float] = []
    outs: list = []
    loop_times = [calibrate.loop_s()]
    loop_at = [clock()]
    for _ in range(passes):
        for fn, args in calls:
            if clock() - loop_at[-1] >= CALIBRATE_EVERY_S:
                loop_times.append(calibrate.loop_s())
                loop_at.append(clock())
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # every failure is recorded and checked
                exc.__traceback__ = None
                out = exc
            lat.append(clock() - t0)
            starts.append(t0)
            outs.append(out)
    loop_times.append(calibrate.loop_s())
    loop_at.append(clock())
    scaled = []
    j = 0
    for t0, x in zip(starts, lat):
        while loop_at[j + 1] <= t0:
            j += 1
        scaled.append(x * calibrate.REFERENCE_S * 2 / (loop_times[j] + loop_times[j + 1]))
    return lat, scaled, outs, loop_times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory that holds zagier_kit")
    parser.add_argument("--passes", type=int, required=True, help="whole passes to time")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    clock = time.perf_counter

    t0 = clock()
    import zagier_kit
    import zagier_kit.cli  # noqa: F401  (the verify-all ops and the tracer need it)
    import_s = clock() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(zagier_kit.__file__).startswith(src + os.sep):
        print(f"error: zagier_kit imported from {zagier_kit.__file__}, not {src}", file=sys.stderr)
        return 2

    t0 = clock()
    specs = workloads.generate(args.workload, args.seed)
    prepared = workloads.prepare(args.workload, specs, zagier_kit)
    inputs_s = clock() - t0

    t0 = clock()
    for fn, call_args in prepared.warm:
        try:
            fn(*call_args)
        except Exception:  # the timed phase records and checks the same op
            pass
    warmup_s = clock() - t0
    print("READY", flush=True)
    ready_factor = calibrate.speed_factor()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(zagier_kit.series_engine.DEFAULT_MAX_TERMS)
        tracer.install()
    try:
        lat, scaled, outs, loop_times = run_passes(prepared.calls, args.passes)
    finally:
        if tracer is not None:
            tracer.restore()

    outcomes: list[str] = []
    digits: list[float] = []
    first_errors: list[str] = []
    width = len(prepared.calls)
    for i in range(0, len(outs), width):
        got, dig = prepared.check(outs[i:i + width])
        outcomes += got
        digits += dig
    for out, outcome in zip(outs, outcomes):
        if outcome == workloads.ERROR and len(first_errors) < 3:
            first_errors.append(repr(out))

    result = {
        "setup": {"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s},
        "latencies_s": lat,
        "scaled_s": scaled,
        "outcomes": outcomes,
        "digits": digits,
        "passes": args.passes,
        "ready_factor": ready_factor,
        "loop_s_median": statistics.median(loop_times),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": first_errors,
    }
    if tracer is not None:
        trace = tracer.metrics(sum(lat))
        trace["formulas.over_tol"] = sum(
            1 for spec, o in zip(specs * result["passes"], outcomes)
            if o == workloads.WRONG and spec[0] in ("even", "odd", "number", "type"))
        result["trace"] = trace
        result["edges"] = [[p, c, n, s] for (p, c), (n, s) in sorted(tracer.edges.items())]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
