"""One closed-loop run of a workload, meant to run in a fresh process.

The result is a dict of plain values, so it crosses a process boundary,
and the process's peak resident memory belongs to this run alone.  As a
worker of ``run.py``:

    PYTHONPATH=src python3 perfbench/measure.py FD '{"workload": ..., "seed": ...}'

runs ``run_once`` with the JSON keyword arguments and writes the pickled
result to the inherited file descriptor FD.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time

from plantmpc import bench, simulate
from plantmpc.plant import PlantConfig

import checks
import tracing
import workloads


def run_once(workload: str, seed: int, scale: str = "paper",
             traced: bool = False, reference: bool = False,
             cpu: int | None = None) -> dict:
    """Generate the inputs, run the closed loop and check its output.

    ``cpu`` pins the process to one CPU.  Hours and set-up are timed in
    process CPU time; wall times are kept for the report.  ``reference``
    times the reference work between hours (see ``tracing.HourClock``).
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    spec = workloads.make_spec(workloads.WORKLOADS[workload], seed,
                               workloads.SCALES[scale])
    config = PlantConfig()
    started = time.perf_counter()
    truth = workloads.make_truth(spec, seed)
    inputs_s = time.perf_counter() - started

    clock = tracing.HourClock(reference)
    tracer = tracing.Tracer() if traced else None
    with tracing.instrument(clock, tracer):
        started, cpu_started = time.perf_counter(), time.process_time()
        if tracer is None:
            trace = simulate.run_closed_loop(config, spec, truth)
        else:
            trace = tracer.call(tracing.ROOT, simulate.run_closed_loop,
                                (config, spec, truth), {})
        ended, cpu_ended = time.perf_counter(), time.process_time()

    started_summary = time.perf_counter()
    result = bench.summarize_trace(trace, 0)
    summarize_s = time.perf_counter() - started_summary
    out = {
        "hours": spec.sim_hours,
        "wall_s": ended - started,
        "cpu_s": cpu_ended - cpu_started,
        # CPU time until the second hour starts: the run's set-up.
        "setup_s": (clock.cpu_ends + [cpu_ended])[0] - cpu_started,
        "hour_s": [b - a for a, b in zip(clock.starts, clock.starts[1:] + [ended])],
        "hour_cpu_s": [b - a for a, b in
                       zip(clock.cpu_starts, clock.cpu_ends + [cpu_ended])],
        "references": clock.references,
        "problems": checks.check_trace(config, spec, truth, trace),
        "fingerprint": checks.fingerprint(trace),
        "iterations": trace.solver_iterations,
        "ccp_usd": result.ccp,
        "violations_per_100h": result.violation_rate,
        "fallback_hours": result.fallback_hours,
        "inputs_s": inputs_s,
        "summarize_s": summarize_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        own = tracer.self_seconds()
        out["layers"] = tracing.layer_metrics(tracer, spec.sim_hours)
        out["accounted_s"] = float(own.sum())
    return out


def main(argv: list[str]) -> None:
    fd, request = int(argv[0]), json.loads(argv[1])
    result = run_once(**request)
    with os.fdopen(fd, "wb") as out:
        pickle.dump(result, out)


if __name__ == "__main__":
    main(sys.argv[1:])
