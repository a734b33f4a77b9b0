"""Command-line interface: synthetic data, single runs, and benchmarks.

Configuration lives in a single JSON document (see ``--help`` of each
subcommand); command-line flags override file values, which override the
built-in defaults mirroring the reference experiment configuration
(168 h horizon and AR order, 100 forecast scenarios, 184-day history,
10% deterministic buffer, 0% stochastic buffer).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bench, forecast, simulate
from .plant import CHANNELS, PlantConfig


class CliError(Exception):
    """Fatal configuration or data problem; exits with code 1."""


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {p}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(f"config root must be an object: {path}")
    return data


#: Keys the config's ``run`` section may set, with the type each holds.
#: ``float`` takes any finite JSON number and ``int`` a JSON integer;
#: neither takes ``true`` or ``false``.
RUN_KEYS = {
    "beta_det": float, "beta_sto": float, "scenarios": int, "horizon": int,
    "ar_order": int, "history_days": int, "sim_hours": int,
    "refit_every": int, "seed": int, "apply_storage_noise": bool,
    "initial_soc": float,
}

#: Keys the config's ``validation`` section may set, typed as ``RUN_KEYS``.
VALIDATION_KEYS = {"amplitude": float}

_EXPECTED = {float: "a finite number", int: "an integer", bool: "true or false"}


def _section(cfg: dict, name: str, keys: dict) -> dict:
    """The config's ``name`` section, each value checked against ``keys``."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise CliError(f"config section {name!r} must be an object")
    unknown = set(section) - keys.keys()
    if unknown:
        raise CliError(f"unknown {name} config fields: {sorted(unknown)}")
    typed = {}
    for key, value in section.items():
        kind = keys[key]
        if kind is float:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        else:
            ok = isinstance(value, kind)
        if not ok or (kind is not bool and isinstance(value, bool)):
            raise CliError(
                f"{name}.{key} must be {_EXPECTED[kind]}, got {json.dumps(value)}"
            )
        typed[key] = kind(value)
    return typed


def _run_config(cfg: dict) -> dict:
    run_cfg = _section(cfg, "run", RUN_KEYS)
    if run_cfg.get("seed", 0) < 0:
        raise CliError(f"run.seed must be >= 0, got {run_cfg['seed']}")
    return run_cfg


def _validation_amplitude(cfg: dict) -> float:
    amplitude = _section(cfg, "validation", VALIDATION_KEYS).get("amplitude", 0.05)
    if amplitude < 0:
        raise CliError(f"validation.amplitude must be >= 0, got {amplitude}")
    return amplitude


def _pick(flag, run_cfg: dict, key: str, default):
    """A command-line value if given, else the config's, else the default."""
    return flag if flag is not None else run_cfg.get(key, default)


def _plant_config(cfg: dict) -> PlantConfig:
    try:
        return PlantConfig(**cfg.get("plant", {}))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad plant config: {exc}") from exc


def _load_truth(path: str):
    p = Path(path)
    if not p.exists():
        raise CliError(f"data file not found: {p}")
    try:
        return forecast.read_trajectory_csv(p)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _profile(arg: str) -> forecast.SeasonalProfile:
    if arg == "default":
        return forecast.DEFAULT_PROFILE
    data = _load_json(arg)
    if not isinstance(data, dict):
        raise CliError(f"bad profile {arg}: the root must be an object")
    unknown = set(data) - {*CHANNELS, "start_weekday"}
    if unknown:
        raise CliError(f"bad profile {arg}: unknown fields {sorted(unknown)}")
    try:
        channels = {name: forecast.ChannelProfile(**data[name]) for name in CHANNELS}
        return forecast.SeasonalProfile(
            **channels, start_weekday=data.get("start_weekday", 0)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad profile {arg}: {exc}") from exc


def _parse_controller(token: str, run_cfg: dict, args) -> simulate.ControllerSpec:
    parts = token.split(":")
    kind = parts[0]
    if kind not in (simulate.DETERMINISTIC, simulate.STOCHASTIC, simulate.PERFECT):
        raise CliError(
            f"unknown controller token {token!r}; expected det[:beta], "
            "sto[:beta], or perf"
        )
    if len(parts) > 2:
        raise CliError(f"malformed controller token {token!r}")
    if kind == simulate.PERFECT:
        if len(parts) > 1:
            raise CliError("perf takes no buffer")
        return simulate.ControllerSpec(simulate.PERFECT)
    default_beta = (
        run_cfg.get("beta_det", 0.1)
        if kind == simulate.DETERMINISTIC
        else run_cfg.get("beta_sto", 0.0)
    )
    beta = args.beta if args.beta is not None else default_beta
    if len(parts) == 2:
        try:
            beta = float(parts[1])
        except ValueError as exc:
            raise CliError(f"bad buffer in {token!r}") from exc
    scenarios = _pick(args.scenarios, run_cfg, "scenarios", 100)
    try:
        return simulate.ControllerSpec(kind, beta=beta, scenarios=scenarios)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _run_template(
    run_cfg: dict, args, controller: simulate.ControllerSpec, data_hours: int
) -> simulate.RunSpec:
    horizon = _pick(args.horizon, run_cfg, "horizon", 168)
    ar_order = _pick(args.ar_order, run_cfg, "ar_order", 168)
    history_hours = 24 * _pick(args.history_days, run_cfg, "history_days", 184)
    sim_hours = _pick(args.sim_hours, run_cfg, "sim_hours", None)
    seed = _pick(args.seed, run_cfg, "seed", 1)
    if sim_hours is None:
        sim_hours = data_hours - history_hours - horizon
    if sim_hours < 1 or data_hours < history_hours + sim_hours + horizon:
        raise CliError(
            f"data too short: have {data_hours} h but need history "
            f"{history_hours} h + simulation {max(sim_hours, 1)} h + horizon "
            f"{horizon} h"
        )
    try:
        return simulate.RunSpec(
            controller=controller,
            sim_hours=sim_hours,
            horizon=horizon,
            ar_order=ar_order,
            history_hours=history_hours,
            refit_every=run_cfg.get("refit_every", 24),
            scenario_seed=seed,
            zoh_seed=seed + 1,
            apply_storage_noise=run_cfg.get("apply_storage_noise", True),
            initial_soc=run_cfg.get("initial_soc", 0.5),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_gen_data(args) -> int:
    profile = _profile(args.profile)
    traj = forecast.generate_synthetic_campus(args.seed, args.days, profile)
    forecast.write_trajectory_csv(args.out, traj)
    print(f"wrote {len(traj)} hours to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    config = _plant_config(cfg)
    truth = _load_truth(args.data)
    run_cfg = _run_config(cfg)
    controller = _parse_controller(args.controller, run_cfg, args)
    spec = _run_template(run_cfg, args, controller, len(truth))
    trace = simulate.run_closed_loop(config, spec, truth)
    trace.to_csv(args.out)
    summary_path = Path(args.out).with_suffix(".summary.json")
    trace.write_summary(summary_path)
    phi, components = bench.annual_cost(trace)
    print(
        f"{controller.label}: {len(trace)} h, total cost {phi:,.2f} USD "
        f"(elec {components.electricity:,.2f}, water {components.water:,.2f}, "
        f"gas {components.gas:,.2f}, demand {components.demand:,.2f}), "
        f"violations {trace.violation_hours}"
    )
    print(f"trace: {args.out}\nsummary: {summary_path}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    config = _plant_config(cfg)
    truth = _load_truth(args.data)
    run_cfg = _run_config(cfg)
    tokens = [tok for tok in args.controllers.split(",") if tok]
    if not tokens:
        raise CliError("no controllers given")
    controllers = [_parse_controller(tok, run_cfg, args) for tok in tokens]
    labels = [c.label for c in controllers]
    if len(set(labels)) != len(labels):
        raise CliError(f"duplicate controllers after parsing: {labels}")
    template = _run_template(run_cfg, args, controllers[0], len(truth))
    report = bench.run_benchmark(
        config,
        controllers,
        truth,
        args.validation_count,
        template,
        seed=_pick(args.seed, run_cfg, "seed", 0),
        jobs=args.jobs,
        validation_amplitude=_validation_amplitude(cfg),
    )
    report.write_json(args.out)
    base = Path(args.out)
    report.write_runs_csv(base.with_suffix(".runs.csv"))
    report.write_cdf_csv(base.with_suffix(".ccp_cdf.csv"))
    for label in report.controllers:
        rows = report.by_controller(label)
        if not rows:
            print(f"{label}: all runs failed")
            continue
        ccp_mean, ccp_se = report.mean_se(label, "ccp")
        vio_mean, _ = report.mean_se(label, "violation_rate")
        print(
            f"{label}: CCP {ccp_mean:,.2f} ± {ccp_se:,.2f} USD, "
            f"violations/100h {vio_mean:.3f} ({len(rows)} runs)"
        )
    if report.failures():
        print(f"{len(report.failures())} runs failed; see report", file=sys.stderr)
    print(f"report: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantmpc",
        description=(
            "Central-plant MPC: synthetic campus data, closed-loop runs, and "
            "controller benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic campus CSV")
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--days", type=_positive_int, required=True)
    gen.add_argument(
        "--profile", default="default",
        help="'default' or a JSON file with per-channel shape parameters",
    )
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_data)

    # Flags shared by ``run`` and ``bench``; each overrides the config file.
    settings = argparse.ArgumentParser(add_help=False)
    for flag, kind in (
        ("--beta", float), ("--scenarios", _positive_int),
        ("--horizon", _positive_int), ("--ar-order", _positive_int),
        ("--history-days", _positive_int), ("--sim-hours", _positive_int),
        ("--seed", _nonnegative_int),
    ):
        settings.add_argument(flag, type=kind)

    run = sub.add_parser(
        "run", parents=[settings], help="one closed-loop run, trace to CSV"
    )
    run.add_argument("--controller", required=True, help="det | sto | perf")
    run.add_argument("--config", help="JSON config (plant + run sections)")
    run.add_argument("--data", required=True, help="truth CSV")
    run.add_argument("--out", required=True, help="trace CSV path")
    run.set_defaults(func=_cmd_run)

    bn = sub.add_parser(
        "bench", parents=[settings],
        help="benchmark controllers on a validation set",
    )
    bn.add_argument("--config", help="JSON config")
    bn.add_argument("--data", required=True, help="base truth CSV")
    bn.add_argument("--validation-count", type=_positive_int, required=True)
    bn.add_argument(
        "--controllers", required=True,
        help="comma list of det[:beta] / sto[:beta] / perf tokens",
    )
    bn.add_argument("--out", required=True, help="report JSON path")
    bn.add_argument("--jobs", type=_positive_int, default=1)
    bn.set_defaults(func=_cmd_bench)
    return parser


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
