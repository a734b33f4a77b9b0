"""The quality gate that chose ``simulate.KEPT_SCENARIOS``.

    python3 experiments/scenario_reduction.py --out experiments/scenario_reduction.json --jobs 2

Run from the repository root.  The stochastic controller samples S
scenarios and, at each AR refit, keeps K of them by fast forward selection
(``forecast.reduce_scenarios``).  This script runs it closed loop on
month-long windows of one synthetic campus, at paper scale, three ways:

- unreduced at S = 100, on two scenario seeds (r = 0 and r = 1);
- reduced from S = 100 to each candidate K, on seed r = 0.

The windows (``CONFIG["start_days"]``) are consecutive, non-overlapping
744-hour stretches of one campus, each with its own 184-day history before
it, and all outside days 160-230 of the year, where the default plant
cannot serve the default campus's chilled-water load.  Every window is
one billing month; there is no validation perturbation.  The storage-noise
seed of window w is ``SeedSequence((campus_seed, w, 1))`` and the scenario
seed of draw r is ``SeedSequence((campus_seed, w, 2, r))``, so every
variant of a window sees the same tank noise, and the reduced runs draw the
same S paths as the unreduced r = 0 run.

For each metric (ccp, unmet energy and violations per 100 h) and each K,
the gate pairs the reduced run with the unreduced r = 0 run by window.  K
passes a metric when the mean paired difference lies within one paired
standard error of zero, or is smaller in magnitude than the mean paired
difference between the two unreduced seeds.  "Within" includes the
boundary, to 1e-12 relative: when a single window differs, the mean and
its standard error are equal in exact arithmetic (both are that window's
difference over the number of windows), and their floating-point values
may round apart.  The chosen K is the smallest candidate that passes all
three; ``null`` when none does.

The JSON holds the configuration, every run's figures and the gate; it
depends only on the configuration and the code, not on ``--jobs``.  CPU
times go to standard error.  ``--config`` overrides keys of ``CONFIG``
from a JSON file (the test suite runs a reduced one).
"""

from __future__ import annotations

import os

# One BLAS thread: a paper-scale trace depends on the thread count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from plantmpc import bench, forecast, simulate  # noqa: E402
from plantmpc.plant import PlantConfig  # noqa: E402

#: The configuration of the committed run.
CONFIG = {
    "campus_seed": 0,
    "campus_days": 520,
    "start_days": [250, 281, 312, 343, 374, 405, 436, 467],
    "window_hours": 744,
    "horizon": 168,
    "ar_order": 168,
    "history_days": 184,
    "scenarios": 100,
    "candidates": [15, 20, 30],
    "beta": 0.0,
}

METRICS = ("ccp", "unmet_kwh", "violations_per_100h")


def _seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def check(config: dict) -> None:
    """Reject windows that overlap, lack their history or leave the campus."""
    if set(config) != set(CONFIG):
        raise ValueError(f"config keys must be {sorted(CONFIG)}")
    days = config["window_hours"] / 24
    starts = config["start_days"]
    if len(starts) < 2:
        raise ValueError("need at least two windows for a standard error")
    if any(b - a < days for a, b in zip(starts, starts[1:])):
        raise ValueError("windows must be ascending and must not overlap")
    if starts[0] < config["history_days"]:
        raise ValueError("the first window's history starts before the campus")
    end = starts[-1] * 24 + config["window_hours"] + config["horizon"]
    if end > config["campus_days"] * 24:
        raise ValueError(f"the last window needs {end} campus hours")
    if max(config["candidates"]) >= config["scenarios"]:
        raise ValueError("every candidate K must be below the sample size")


def tasks(config: dict) -> list[tuple[int, int | None, int]]:
    """(window, K or None for unreduced, scenario draw r) of every run."""
    out = []
    for w in range(len(config["start_days"])):
        out += [(w, None, 0), (w, None, 1)]
        out += [(w, k, 0) for k in config["candidates"]]
    return out


@functools.lru_cache(maxsize=1)
def _campus(seed: int, days: int):
    return forecast.generate_synthetic_campus(seed, days)


def run(config: dict, task: tuple[int, int | None, int]) -> dict:
    """One closed-loop run of a window, summarized."""
    w, k, r = task
    history = 24 * config["history_days"]
    spec = simulate.RunSpec(
        controller=simulate.ControllerSpec(
            simulate.STOCHASTIC, beta=config["beta"], scenarios=config["scenarios"]),
        sim_hours=config["window_hours"],
        horizon=config["horizon"],
        ar_order=config["ar_order"],
        history_hours=history,
        calendar=(config["window_hours"] - 1,),
        scenario_seed=_seed(config["campus_seed"], w, 2, r),
        zoh_seed=_seed(config["campus_seed"], w, 1),
    )
    start = 24 * config["start_days"][w] - history
    campus = _campus(config["campus_seed"], config["campus_days"])
    truth = campus.slice(start, start + spec.required_truth_hours())
    kept = simulate.KEPT_SCENARIOS
    simulate.KEPT_SCENARIOS = config["scenarios"] if k is None else k
    cpu = time.process_time()
    try:
        trace = simulate.run_closed_loop(PlantConfig(), spec, truth)
    finally:
        simulate.KEPT_SCENARIOS = kept
    cpu = time.process_time() - cpu
    print(f"window {w} K {k} r {r}: {cpu:.1f} s CPU", file=sys.stderr, flush=True)
    result = bench.summarize_trace(trace, w)
    return {
        "window": w,
        "start_day": config["start_days"][w],
        "kept": k,
        "draw": r,
        "ccp": result.ccp,
        "unmet_kwh": float(trace.unmet[-1].sum()),
        "violations_per_100h": result.violation_rate,
        "fallback_hours": result.fallback_hours,
        "solver_iterations": result.solver_iterations,
    }


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def gate(config: dict, runs: list[dict]) -> dict:
    """Per candidate K and metric, the paired differences and the verdict."""
    def series(k, r, metric):
        rows = sorted((x for x in runs if x["kept"] == k and x["draw"] == r),
                      key=lambda x: x["window"])
        return np.array([x[metric] for x in rows])

    out = {}
    for k in config["candidates"]:
        verdict = {}
        for metric in METRICS:
            base = series(None, 0, metric)
            mean, se = _mean_se(series(k, 0, metric) - base)
            seeds, seeds_se = _mean_se(series(None, 1, metric) - base)
            verdict[metric] = {
                "mean_difference": mean, "paired_se": se,
                "seed_difference": seeds, "seed_se": seeds_se,
                "passes": bool(abs(mean) <= se * (1.0 + 1e-12)
                               or abs(mean) < abs(seeds)),
            }
        verdict["passes"] = all(verdict[m]["passes"] for m in METRICS)
        out[str(k)] = verdict
    return out


def experiment(config: dict, jobs: int = 1) -> dict:
    check(config)
    work = tasks(config)
    # Unreduced runs first: they take the longest.
    order = sorted(range(len(work)), key=lambda i: work[i][1] is not None)
    if jobs > 1:
        with multiprocessing.get_context("spawn").Pool(min(jobs, len(work))) as pool:
            done = pool.starmap(run, [(config, work[i]) for i in order], chunksize=1)
    else:
        done = [run(config, work[i]) for i in order]
    runs = [None] * len(work)
    for i, result in zip(order, done):
        runs[i] = result
    return report(config, runs)


def report(config: dict, runs: list[dict]) -> dict:
    """The JSON document of a finished experiment."""
    verdicts = gate(config, runs)
    passing = [k for k in config["candidates"] if verdicts[str(k)]["passes"]]
    return {"config": config, "gate": verdicts,
            "chosen": min(passing) if passing else None, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON path")
    parser.add_argument("--config", help="JSON file overriding keys of CONFIG")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    config = dict(CONFIG)
    if args.config:
        config.update(json.loads(Path(args.config).read_text()))
    result = experiment(config, args.jobs)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
