"""Command-line surface.

Subcommands map onto the package's run types:

  simulate   flow the configured initial state and save the trajectory
  verify     run the enabled identity/inequality checks on that state
  barrier    pinned-disk run between its flat-slice barriers
  flatness   perturbed slice, time until the inner region is theta-flat
  rescale    recentred convergence table over the configured lambdas

Every command reads one config file (defaults apply when ``--config`` is
omitted), writes ``report.json`` plus CSV series into the output
directory, and exits 0 when everything passed, 1 when a check or run
failed, and 2 on a configuration problem.

This is the one layer that runs flows: ``simulate``, ``barrier``,
``flatness`` and ``rescale`` each go through ``_flow``, which records a
failed run in the report, and hand the trajectory to the analyses in
``experiments``.  ``verify`` records a state its checks read as not
spacelike the same way.  A failed run still writes its report, with
whatever series the recorded part of the run gives, and ``main`` prints
one ``run failed:`` line for it.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from . import experiments, flow, geometry, grids, oracles, reporting, snapshots
from .config import InitialSpec, RunConfig, load_config
from .errors import DsmcfError, NonSpacelikeError, ParseError, ValidationError


def _new_report(config: RunConfig) -> reporting.Report:
    report = reporting.Report(config=config.as_dict())
    if config.bc == flow.SLICING:
        report.notes.append(reporting.SLICING_NOTE)
    return report


def _flow(
    config: RunConfig, report: reporting.Report, state: flow.GraphState
) -> flow.Trajectory:
    """Run the configured flow from ``state``; a failed run is recorded in ``report``."""
    traj = flow.run(state, config.flow)
    report.steps = traj.steps
    if traj.failure is not None:
        report.record_failure(f"flow run failed: {traj.failure}")
    return traj


def _below_max_height(what: str, *states) -> flow.GraphState:
    """The first of ``states`` once their heights keep the checks' e^{2u} finite,
    the one home of that rule; ``what`` names those heights."""
    peak = max(float(np.max(state.u.values)) for state in states)
    if not peak < geometry.MAX_HEIGHT:
        raise ValidationError(
            f"{what} {peak:.6g} is not below {geometry.MAX_HEIGHT:.6g}, "
            "where the checks' e^(2u) overflows"
        )
    return states[0]


#: Each boolean ``CheckSpec`` field and its oracle call, in report order, on
#: ``oracles.WindowRates`` for a window check, else on the state's geometry.
_CHECKS = {
    "restriction_gradients": lambda g, c: oracles.check_restriction_gradients(g),
    "coordinate_laplacians": lambda g, c: oracles.check_coordinate_laplacians(g),
    "tilt_gradient": lambda g, c: oracles.check_tilt_gradient(g),
    "tilt_evolution": lambda w, c: oracles.check_tilt_evolution(w),
    "tilt_bounds": lambda w, c: oracles.check_tilt_bounds(w, c.checks.delta),
    "curvature_evolution": lambda w, c: oracles.check_curvature_evolution(w),
    "weight_evolution": lambda w, c: oracles.check_weight_evolution(w, c.checks.cutoff()),
    "weight_gradient": lambda g, c: oracles.check_weight_gradient(g, c.checks.cutoff()),
    "jet_sampling": lambda _, c: oracles.check_random_jets(c.seed, c.checks.jet_count),
}

#: The window checks, each with the fields whose rates it reads.
_RATE_FIELDS = {
    "tilt_evolution": lambda c: (oracles.tilt_squared,),
    "tilt_bounds": lambda c: (oracles.tilt_squared,),
    "curvature_evolution": lambda c: oracles.CURVATURE_FIELDS,
    "weight_evolution": lambda c: (oracles.WeightField(c.checks.cutoff()),),
}

#: The checks whose orders a fine pass measures.
_REFINED = ("coordinate_laplacians", "tilt_gradient", "tilt_evolution", "curvature_evolution")

#: The checks that apply only on some grids, each with the reason a grid
#: gives it to skip, or None.
_SKIP_REASONS = {
    "tilt_evolution": oracles.tilt_evolution_skip_reason,
    "tilt_bounds": oracles.tilt_evolution_skip_reason,
    "curvature_evolution": oracles.curvature_evolution_skip_reason,
}


def _measure(config: RunConfig, names, state) -> list:
    """One grid's pass over the named checks, their reports in table order.
    The window's after and before geometries are built, read for the rate
    fields and dropped one at a time; then the one geometry of ``state``
    serves the state checks and the rates, and the window is dropped
    before the checks run."""
    fields = dict.fromkeys(f for n in names if n in _RATE_FIELDS for f in _RATE_FIELDS[n](config))
    rates = geom = None
    if fields:
        window = flow.evolve_window(state, config.flow)
        _below_max_height("the displaced states' height", window.before, window.after)
        rates = oracles.material_rate(state, window, fields)
        geom = rates.geom
        del window
    elif set(names) - {"jet_sampling"}:
        geom = oracles.snapshot_geometry(state)
    outcomes = {n: _CHECKS[n](rates if n in _RATE_FIELDS else geom, config) for n in names}
    return [entry for n in names for entry in oracles.report_list(outcomes[n])]


def _cmd_verify(config: RunConfig) -> reporting.Report:
    """Run the enabled identity and inequality checks on the initial state."""
    report = _new_report(config)
    names = [name for name in _CHECKS if getattr(config.checks, name)]
    state = None
    if set(names) - {"jet_sampling"}:
        state = _below_max_height("initial height", config.initial_state())
    applied = []
    for name in names:
        reason = _SKIP_REASONS[name](state.grid) if name in _SKIP_REASONS else None
        if reason is None:
            applied.append(name)
        else:
            report.notes.append(f"{name} skipped: {reason}")
    try:  # a state the kernel reads as not spacelike fails the run
        reports = _measure(config, applied, state)
        fine_names = [n for n in applied if n in _REFINED]
        if fine_names:
            fine = replace(config, grid=config.grid.refined()).initial_state()
            reports = oracles.refined(reports, _measure(config, fine_names, fine))
    except NonSpacelikeError as exc:
        report.record_failure(str(exc))
        return report
    for entry in reports:
        report.add_check(entry)
    return report


def _cmd_simulate(config: RunConfig) -> reporting.Report:
    """Flow the configured initial state and save the trajectory."""
    report = _new_report(config)
    traj = _flow(config, report, config.initial_state())
    s = traj.s_values()
    grid = traj.snapshots[0].u.grid
    center = int(np.argmin(np.ravel(grid.radius_squared())))
    centers = [float(np.ravel(snap.u.values)[center]) for snap in traj.snapshots]
    report.add_series("center_height", ("s", "value"), [list(s), centers])
    snapshots.save_trajectory(traj, reporting.output_dir(config.out) / "trajectory.dsmcf")
    return report


def _cmd_barrier(config: RunConfig) -> reporting.Report:
    """Run the pinned disk between its flat-slice barriers."""
    if config.grid.mode != grids.RADIAL:
        raise ValidationError(
            f"barrier runs need grid.mode '{grids.RADIAL}', got '{config.grid.mode}'"
        )
    if config.grid.extent != config.experiment.disk_radius:
        raise ValidationError(
            f"barrier runs need grid.extent == experiment.disk_radius, "
            f"got {config.grid.extent} and {config.experiment.disk_radius}"
        )
    config = replace(config, bc=flow.PINNED)
    report = _new_report(config)
    disk = replace(config, initial=InitialSpec()).initial_state()
    traj = _flow(config, report, disk)
    result = experiments.barrier_run(traj)
    report.add_experiment("barrier", result)
    report.add_series(
        "barrier",
        ("s", "w0", "bound_3s"),
        [list(result.s), list(result.center_height), list(result.upper_bound)],
    )
    report.add_series(
        "barrier_health", experiments.HEALTH_COLUMNS, experiments.barrier_health(traj)
    )
    if len(result.translation_slack) > 0:
        report.add_series(
            "barrier_translation_slack",
            ("s", "value"),
            [list(result.translation_s), list(result.translation_slack)],
        )
    else:
        radius = config.experiment.disk_radius
        cause = (
            f"disk radius {radius:g} <= 1 leaves no radius inside the disk after the e^c stretch"
            if radius <= 1.0
            else "run shorter than the unit stepping horizon"
        )
        report.notes.append(f"translation inequality skipped: {cause}")
    return report


def _cmd_flatness(config: RunConfig) -> reporting.Report:
    """Flow a perturbed slice until its inner region is theta-flat."""
    report = _new_report(config)
    traj = _flow(config, report, config.initial_state())
    result = experiments.flatness_run(traj, config.experiment.theta)
    report.add_experiment("flatness", result)
    report.add_series(
        "flatness_tilt_excess", ("s", "value"), [list(result.s), list(result.tilt_excess)]
    )
    report.add_series(
        "flatness_height_spread",
        ("s", "value"),
        [list(result.s), list(result.height_spread)],
    )
    return report


def _cmd_rescale(config: RunConfig) -> reporting.Report:
    """Tabulate recentred convergence over the configured lambdas."""
    if config.experiment.rho > config.grid.extent:
        raise ValidationError(
            f"experiment.rho {config.experiment.rho:g} exceeds grid.extent "
            f"{config.grid.extent:g}"
        )
    report = _new_report(config)
    traj = _flow(config, report, config.initial_state())
    if traj.failure is not None:
        return report
    table = experiments.convergence_table(
        traj, np.asarray(config.experiment.lambdas), config.experiment.rho
    )
    report.add_experiment("convergence", table)
    report.add_series(
        "convergence",
        ("lambda", "sup_u_err", "sup_v_err"),
        [list(table.lambdas), list(table.height_error), list(table.tilt_error)],
    )
    if table.passed and not table.decreasing:
        report.notes.append(
            "recentred errors at machine zero for every lambda; "
            "monotone decrease not applicable"
        )
    return report


COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "barrier": _cmd_barrier,
    "flatness": _cmd_flatness,
    "rescale": _cmd_rescale,
}


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
        cmd.add_argument("--quiet", action="store_true", help="print no result or summary lines")
    return parser


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    given = {"out": args.out} if args.out is not None else {}
    return replace(config, kind=args.command, **given)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report = COMMANDS[args.command](config)
        report.wall_seconds = time.perf_counter() - started
        written = reporting.emit_report(report, config.out)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DsmcfError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if report.failure is not None:
        print(f"run failed: {report.failure}", file=sys.stderr)

    ok = report.all_passed()
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
