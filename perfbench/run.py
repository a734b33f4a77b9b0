"""Closed-loop performance benchmark of plantmpc.

    python3 perfbench/run.py --workload det-monthend --seed 0 --seconds 12 --trace 0

Run from the repository root.  Each closed loop runs in a fresh worker
process (``measure.py``), one at a time, so a run's peak memory is its own
and no run inherits another's caches; the command waits for each worker to
end and starts no other process.

Consecutive runs are pinned to the usable CPUs in turn: on a shared host
each CPU's speed drifts on its own over seconds, and a run that stays on a
slow one would read as a slow program.

With ``--trace 0`` the command repeats the workload's closed loop until
``--seconds`` of loop time have passed, and at least twice.

Hours are timed in the worker's CPU time.  On a shared host the same work
still runs up to a quarter slower for seconds to minutes at a time, so
between hours the timed loops also time ``tracing.reference_work``, a
fixed piece of work that no program change touches, and each hour is
divided by the reference time measured around it.  A ``ref`` is one such
reference time (a few ms).  The end-to-end metrics:

- ``warm_hour_ref``: take each simulated hour after the first at its
  lowest over the timed loops, in refs, then the median over those hours;
- ``mean_hour_ref``: the mean of the same per-hour figures.  Unlike the
  median it keeps the rare expensive hours (AR refits, cold reloads at a
  month boundary, HiGHS re-solves after a peak ratchet), so it also moves
  with how much of that work a seed's inputs cause;
- ``warm_hour_ms`` and ``hours_per_s``: the median and the rate of the
  same hours in plain CPU time, not divided by the reference;
- ``setup_s``: CPU time until the loop starts its second hour, median
  over the timed loops.  It covers the AR fits, the storage-noise
  estimate for the whole window, the cold presolved LP solve and one
  restoration;
- ``ccp_usd``, ``violations_per_100h``, ``failed_hour_share`` (fallback
  hours and hours of failed runs over attempted hours) and
  ``peak_rss_mb``.

With ``--trace 1`` it runs the loop once untraced and once with layer
spans (``tracing.py``), and prints the per-layer metrics and the tracing
overhead.  Every run's output is checked (``checks.py``) and must be
identical across runs of the same code and seed; a failed check makes the
command exit with 1.  The last line of standard output is a JSON object
with the metrics that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures one closed loop at a time on one
# core, and results must not depend on a thread count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import plantmpc  # noqa: E402,F401  (fails here when the sources are absent)

import workloads  # noqa: E402

#: At least MIN_TIMED timed loops (the set-up samples and the per-hour
#: minima need two), at most MAX_TIMED, and none that might end after
#: BUDGET_S.
MIN_TIMED = 2
MAX_TIMED = 10
BUDGET_S = 150.0
FINGERPRINT_DIR = REPO / ".bench_build" / "perfbench"
WORKER = Path(__file__).resolve().parent / "measure.py"
WORKER_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])),
}


def describe(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1 - pct / 100) >= 10:
            value = ordered[min(n - 1, int(n * pct / 100))]
            return f"{text}, p{pct:g} {value:.6g} (n={n})"
    return f"{text}, max {ordered[-1]:.6g} (n={n}, too few for a percentile)"


def warm_hours(runs: list[dict]) -> list[float]:
    """CPU seconds of each hour after the first, at its fastest over ``runs``."""
    return [min(hour) for hour in zip(*(r["hour_cpu_s"][1:] for r in runs))]


def hour_references(run: dict) -> list[float]:
    """Reference time for each hour after the first: the mean of the
    reference measured last before the hour and the one measured first
    after it (the last one for the closing hours)."""
    marks = run["references"]
    out, i = [], 0
    for t in range(1, run["hours"]):
        while i + 1 < len(marks) and marks[i + 1][0] <= t:
            i += 1
        after = marks[i + 1][1] if i + 1 < len(marks) else marks[i][1]
        out.append((marks[i][1] + after) / 2)
    return out


def hour_refs(runs: list[dict]) -> list[float]:
    """Each hour after the first in reference times, at its lowest over ``runs``."""
    return [min(hour) for hour in zip(*(
        [h / ref for h, ref in zip(r["hour_cpu_s"][1:], hour_references(r))]
        for r in runs))]


def hours_per_s(runs: list[dict]) -> float:
    hours = warm_hours(runs)
    return len(hours) / sum(hours)


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder in (REPO / "src", Path(__file__).resolve().parent):
        for path in sorted(folder.rglob("*.py")):
            digest.update(path.relative_to(REPO).as_posix().encode())
            digest.update(path.read_bytes())
    for version in (sys.version, numpy.__version__, scipy.__version__):
        digest.update(version.encode())
    return digest.hexdigest()[:16]


def compare_fingerprint(name: str, exact: dict) -> list[str]:
    """Check ``exact`` against every earlier run of the same code and seed."""
    path = FINGERPRINT_DIR / f"{name}-{source_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"determinism: {key} is {exact[key]!r}, an earlier run gave {stored[key]!r}"
        for key in sorted(set(stored) & set(exact))
        if stored[key] != exact[key]
    ]
    if not problems:
        FINGERPRINT_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**stored, **exact}, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


class Runner:
    """Runs closed loops one at a time, each in a fresh worker process
    (``measure.py``) that has ended before the next one starts."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.args = {"workload": workload, "seed": seed, "scale": scale}
        self.name = f"{workload}-{seed}-{scale}"
        self.hours_attempted = 0
        self.hours_failed = 0
        self.problems: list[str] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.runs = 0

    def run(self, label: str, planned_hours: int, cpu: int | None = None,
            **kwargs) -> dict | None:
        self.hours_attempted += planned_hours
        if cpu is None:
            cpu = self.cpus[self.runs % len(self.cpus)]
        self.runs += 1
        request = json.dumps({**self.args, "cpu": cpu, **kwargs})
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                worker = subprocess.Popen(
                    [sys.executable, str(WORKER), str(write_fd), request],
                    pass_fds=(write_fd,), env=WORKER_ENV)
            finally:
                os.close(write_fd)
            try:
                data = pipe.read()
                code = worker.wait()
            finally:
                if worker.returncode is None:  # interrupted: stop the worker
                    worker.kill()
                    worker.wait()
        if code != 0 or not data:
            # The worker's traceback, if any, is on standard error.
            self.fail(label, planned_hours, f"worker exited with code {code}")
            return None
        result = pickle.loads(data)
        for problem in result["problems"]:
            self.fail(label, planned_hours, problem)
        return result

    def fail(self, label: str, hours: int, problem: str) -> None:
        self.problems.append(f"{label}: {problem}")
        self.hours_failed += hours

    def fingerprint(self, exact: dict, hours: int) -> None:
        for problem in compare_fingerprint(self.name, exact):
            self.fail("fingerprint", hours, problem)

    def same(self, label: str, runs: list[dict], key: str) -> None:
        values = {json.dumps(r[key]) for r in runs}
        if len(values) > 1:
            self.fail(label, sum(r["hours"] for r in runs),
                      f"determinism: runs differ in {key}")


def end_to_end(runner: Runner, planned: int, seconds: float, started: float):
    """Timed loops until ``seconds`` of loop time, and at least MIN_TIMED."""
    timed: list[dict] = []
    while True:
        t0 = time.perf_counter()
        result = runner.run(f"timed run {len(timed) + 1}", planned, reference=True)
        if result is None:
            break
        timed.append(result)
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - t0
        enough = (len(timed) >= MIN_TIMED
                  and sum(r["wall_s"] for r in timed) >= seconds)
        if enough or len(timed) == MAX_TIMED or elapsed + last > BUDGET_S:
            break
    runner.same("timed runs", timed, "fingerprint")
    if not timed:
        return {}, []

    first = timed[0]
    runner.fingerprint({
        "trace": first["fingerprint"],
        "iterations": first["iterations"],
        "ccp_usd": repr(first["ccp_usd"]),
        "fallback_hours": first["fallback_hours"],
    }, planned)
    failed_hours = runner.hours_failed + sum(r["fallback_hours"] for r in timed)
    samples = {
        "warm_hour_ref": (hour_refs(timed), "ref"),
        "mean_hour_ref": ([statistics.fmean(hour_refs(timed))], "ref"),
        "warm_hour_ms": ([1e3 * s for s in warm_hours(timed)], "ms"),
        "hours_per_s": ([hours_per_s(timed)], "h/s"),
        "setup_s": ([r["setup_s"] for r in timed], "s"),
        "ccp_usd": ([first["ccp_usd"]], "USD"),
        "violations_per_100h": ([first["violations_per_100h"]], "1/100h"),
        "failed_hour_share": (
            [min(failed_hours, runner.hours_attempted) / runner.hours_attempted],
            "share"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in timed], "MB"),
    }
    metrics = {
        name: (statistics.median(values), unit, describe(values))
        for name, (values, unit) in samples.items()
    }
    lines = [
        f"{len(timed)} timed loops; wall {describe([r['wall_s'] for r in timed])} s, "
        f"CPU {describe([r['cpu_s'] for r in timed])} s",
        f"reference work: "
        f"{describe([1e3 * x for r in timed for _, x in r['references']])} ms",
        f"simplex iterations {first['iterations']}; fallback hours "
        f"{first['fallback_hours']} of {first['hours']}",
    ]
    return metrics, lines


def per_layer(runner: Runner, planned: int):
    """One untraced and one traced loop; layer figures and overhead.

    Both loops run on the same CPU, so the overhead compares tracing, not
    CPUs.
    """
    cpu = runner.cpus[0]
    plain = runner.run("untraced run", planned, cpu=cpu)
    traced = runner.run("traced run", planned, cpu=cpu, traced=True)
    if plain is None or traced is None:
        return {}, []
    runner.same("traced vs untraced", [plain, traced], "fingerprint")
    layers = traced["layers"]
    runner.fingerprint({
        "trace": traced["fingerprint"],
        "iterations": traced["iterations"],
        "iters_cold": layers["lp.iters_cold"][0],
        "ccp_usd": repr(traced["ccp_usd"]),
        "fallback_hours": traced["fallback_hours"],
        **{k: layers[k][0] for k in ("mpc.lp_cols", "mpc.lp_rows", "mpc.lp_nnz",
                                     "mpc.lp_mb")},
    }, planned)
    unnamed = layers["simulate.loop_self_ms_per_h"][0] * planned / 1e3
    overhead = 100.0 * (hours_per_s([plain]) / hours_per_s([traced]) - 1.0)
    metrics = {name: (v, unit, f"{n} calls") for name, (v, unit, n) in layers.items()}
    metrics["bench.validation_set_ms"] = (traced["inputs_s"] * 1e3, "ms", "1 call")
    metrics["bench.summarize_ms"] = (traced["summarize_s"] * 1e3, "ms", "1 call")
    metrics["trace.overhead_pct"] = (overhead, "%", "traced vs untraced hours_per_s")
    lines = [
        f"traced wall {traced['wall_s']:.6g} s; self times of the named layers "
        f"{traced['accounted_s'] - unnamed:.6g} s, simulate.loop_self (no named "
        f"layer) {unnamed:.6g} s ({100 * unnamed / traced['wall_s']:.2f}%)",
        f"hours_per_s (CPU) untraced {hours_per_s([plain]):.6g}, traced "
        f"{hours_per_s([traced]):.6g}",
        f"traced hour wall: {describe([s * 1e3 for s in traced['hour_s']])} ms",
    ]
    return metrics, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="paper", choices=sorted(workloads.SCALES),
                        help="smoke shrinks the workload for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    spec = workloads.make_spec(workload, args.seed, workloads.SCALES[args.scale])
    print(f"environment: nproc {os.cpu_count()}, usable cpus "
          f"{len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}, BLAS threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']}")
    why = {w["name"]: w["why"] for w in declared["workloads"]}[workload.name]
    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed} (held-out seed {workloads.HELD_OUT_SEED}), scale "
          f"{args.scale}, {spec.sim_hours} h, N {spec.horizon}, q {spec.ar_order}, "
          f"S {spec.controller.scenarios}")

    runner = Runner(args.workload, args.seed, args.scale)
    if args.trace:
        measured, lines = per_layer(runner, spec.sim_hours)
    else:
        measured, lines = end_to_end(runner, spec.sim_hours, args.seconds, started)
    for line in lines:
        print(line)
    for name, (value, unit, note) in measured.items():
        print(f"metric {name} = {value:.6g} {unit}  [{note}]")
    for problem in runner.problems:
        print(f"FAILED {problem}")

    metrics = {}
    for entry in wanted:
        if entry["name"] in measured:
            value, unit, _ = measured[entry["name"]]
            if unit != entry["unit"]:
                raise SystemExit(f"{entry['name']}: unit {unit} != {entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": unit}
    correct = not runner.problems and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.hours_attempted,
        "failed": runner.hours_failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
