"""Command-line surface.

Subcommands map onto the package's run types:

  simulate   flow the configured initial state and save the trajectory
  verify     run the enabled identity/inequality checks on that state
  barrier    pinned-disk run between its flat-slice barriers
  flatness   perturbed slice, time until the inner region is theta-flat
  rescale    recentred convergence table over the configured lambdas
  refine     refinement-order study on a coarse/fine grid pair

Every command reads one config file (defaults apply when ``--config`` is
omitted), writes ``report.json`` plus CSV series into the output
directory, and exits 0 when everything passed, 1 when a check or run
failed, and 2 on a configuration problem.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from . import experiments, flow, geometry, grids, oracles, reporting, snapshots
from .config import RunConfig, load_config
from .errors import DsmcfError, ModeUnsupportedError, ParseError, ValidationError


def _new_report(config: RunConfig) -> reporting.Report:
    report = reporting.Report(config=config.as_dict())
    if config.bc == flow.SLICING:
        report.notes.append(reporting.SLICING_NOTE)
    return report


def _fine_state(config: RunConfig) -> flow.GraphState:
    spec = replace(config.grid, resolution=2 * config.grid.resolution - 1)
    grid = spec.build()
    return flow.GraphState(
        u=grids.Field(grid, config.initial.build(grid)),
        s=0.0,
        bc=flow.BoundaryCondition(config.bc),
    )


def _add_all(report, outcome) -> None:
    if isinstance(outcome, (list, tuple)):
        for entry in outcome:
            report.add_check(entry)
    else:
        report.add_check(outcome)


def _add_supported(report, name: str, check, *args) -> None:
    """Add a check's reports, or a note when the check does not apply here."""
    try:
        _add_all(report, check(*args))
    except ModeUnsupportedError as exc:
        report.notes.append(f"{name} skipped: {exc}")


def _cmd_verify(config: RunConfig) -> tuple[reporting.Report, bool]:
    report = _new_report(config)
    checks = config.checks
    state = config.initial_state()
    needs_pair = checks.tilt_gradient or checks.coordinate_laplacians or checks.tilt_evolution
    fine = _fine_state(config) if needs_pair else None
    needs_window = (
        checks.tilt_evolution
        or checks.tilt_bounds
        or checks.curvature_evolution
        or checks.weight_evolution
    )
    window = flow.evolve_window(state, checks.dt, config.flow) if needs_window else None
    fine_window = (
        flow.evolve_window(fine, checks.dt / 4.0, config.flow)
        if checks.tilt_evolution
        else None
    )
    cutoff = geometry.CutoffSpec(
        alpha=checks.alpha,
        radius=checks.weight_radius,
        epsilon=checks.epsilon,
        t_min=checks.t_min,
    )

    if checks.restriction_gradients:
        _add_all(report, oracles.check_restriction_gradients(state))
    if checks.coordinate_laplacians:
        _add_all(report, oracles.check_coordinate_laplacians(state, fine))
    if checks.tilt_gradient:
        _add_all(report, oracles.check_tilt_gradient(state, fine))
    if checks.tilt_evolution:
        _add_supported(
            report, "tilt_evolution", oracles.check_tilt_evolution, window, fine_window
        )
    if checks.tilt_bounds:
        _add_all(report, oracles.check_tilt_bounds(window, checks.delta))
    if checks.curvature_evolution:
        _add_supported(
            report, "curvature_evolution", oracles.check_curvature_evolution, window
        )
    if checks.weight_evolution:
        _add_all(report, oracles.check_weight_evolution(window, cutoff))
    if checks.weight_gradient:
        _add_all(report, oracles.check_weight_gradient(state, cutoff))
    if checks.jet_sampling:
        _add_all(report, oracles.check_random_jets(config.seed, checks.jet_count))
    return report, report.all_passed()


def _cmd_simulate(config: RunConfig) -> tuple[reporting.Report, bool]:
    report = _new_report(config)
    traj = flow.run(config.initial_state(), config.flow)
    report.steps = traj.steps
    s = traj.s_values()
    grid = traj.snapshots[0].u.grid
    center = int(np.argmin(np.ravel(grid.radius_squared())))
    centers = [float(np.ravel(snap.u.values)[center]) for snap in traj.snapshots]
    report.add_series("center_height", ("s", "value"), [list(s), centers])
    snapshots.save_trajectory(traj, _out_path(config, "trajectory.dsmcf"))
    if traj.failure is not None:
        report.notes.append(f"flow run failed: {traj.failure}")
    return report, traj.failure is None


def _cmd_barrier(config: RunConfig) -> tuple[reporting.Report, bool]:
    if config.grid.extent != config.experiment.disk_radius:
        raise ValidationError(
            f"barrier runs need grid.extent == experiment.disk_radius, "
            f"got {config.grid.extent} and {config.experiment.disk_radius}"
        )
    report = _new_report(config)
    grid = config.grid.build()
    result = experiments.barrier_run(config.experiment.disk_radius, grid, config.flow)
    report.steps = result.steps
    report.add_experiment("barrier", result)
    report.add_series(
        "barrier",
        ("s", "w0", "bound_3s"),
        [list(result.s), list(result.center_height), list(result.upper_bound)],
    )
    ok = result.monotone and result.within_bounds
    if len(result.translation_slack) > 0:
        report.add_series(
            "barrier_translation_slack",
            ("s", "value"),
            [list(result.translation_s), list(result.translation_slack)],
        )
        ok = ok and float(np.min(result.translation_slack)) >= -result.tolerance
    else:
        report.notes.append(
            "translation inequality skipped: run shorter than the unit stepping horizon"
        )
    return report, ok


def _cmd_flatness(config: RunConfig) -> tuple[reporting.Report, bool]:
    report = _new_report(config)
    result = experiments.flatness_run(
        config.initial_state(), config.experiment.theta, config.flow
    )
    report.steps = result.steps
    report.add_experiment("flatness", result)
    report.add_series(
        "flatness_tilt_excess", ("s", "value"), [list(result.s), list(result.tilt_excess)]
    )
    report.add_series(
        "flatness_height_spread",
        ("s", "value"),
        [list(result.s), list(result.height_spread)],
    )
    return report, result.reached and result.eventually_decreasing


def _cmd_rescale(config: RunConfig) -> tuple[reporting.Report, bool]:
    report = _new_report(config)
    traj = flow.run(config.initial_state(), config.flow)
    report.steps = traj.steps
    if traj.failure is not None:
        report.notes.append(f"flow run failed: {traj.failure}")
        return report, False
    table = experiments.convergence_table(
        traj, np.asarray(config.experiment.lambdas), config.experiment.rho
    )
    report.add_experiment("convergence", table)
    report.add_series(
        "convergence",
        ("lambda", "sup_u_err", "sup_v_err"),
        [list(table.lambdas), list(table.height_error), list(table.tilt_error)],
    )
    already_flat = (
        float(np.max(table.height_error)) < 1e-12
        and float(np.max(table.tilt_error)) < 1e-12
    )
    if already_flat and not table.decreasing:
        report.notes.append(
            "recentred errors at machine zero for every lambda; "
            "monotone decrease not applicable"
        )
    return report, table.decreasing or already_flat


def _cmd_refine(config: RunConfig) -> tuple[reporting.Report, bool]:
    report = _new_report(config)
    state = config.initial_state()
    fine = _fine_state(config)
    _add_all(report, oracles.check_coordinate_laplacians(state, fine))
    _add_all(report, oracles.check_tilt_gradient(state, fine))
    window = flow.evolve_window(state, config.checks.dt, config.flow)
    fine_window = flow.evolve_window(fine, config.checks.dt / 4.0, config.flow)
    _add_supported(
        report, "tilt_evolution", oracles.check_tilt_evolution, window, fine_window
    )
    return report, report.all_passed()


COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "barrier": _cmd_barrier,
    "flatness": _cmd_flatness,
    "rescale": _cmd_rescale,
    "refine": _cmd_refine,
}


def _out_path(config: RunConfig, name: str):
    from pathlib import Path

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmcf",
        description="Spacelike graph mean curvature flow: runs, checks, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--config", help="path to a JSON run config")
        cmd.add_argument("--out", help="output directory (overrides the config)")
        cmd.add_argument("--seed", type=int, help="seed for sampled checks")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    config = replace(config, kind=args.command)
    if args.out is not None:
        config = replace(config, out=args.out)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report, ok = COMMANDS[args.command](config)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DsmcfError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    report.wall_seconds = time.perf_counter() - started
    report.outcome = ok
    written = reporting.emit_report(report, config.out)

    if not args.quiet:
        for entry in report.checks:
            print(entry["summary"])
        for name, result in report.experiments.items():
            flags = {k: v for k, v in result.items() if isinstance(v, bool)}
            print(f"{name}: {flags}")
        status = "PASS" if ok else "FAIL"
        print(f"{status} ({len(report.checks)} check(s), "
              f"{len(report.experiments)} experiment(s), "
              f"{report.wall_seconds:.2f}s) -> {written[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
