"""The three benchmark workloads: seeded configs, the command, the gates.

Each workload drives the real ``dsmcf`` entry point (``cli.main``) on a
JSON config that the benchmark writes from its seed, then checks the
outputs.  The seed only nudges the initial-profile parameters (and seeds
``jet_sampling``); the program sees nothing but the resulting config.

A workload iteration returns an ``Outcome``: the wall time of the whole
job (command plus post-processing), the flow time it advanced and the
wall time spent stepping, and the list of gates that failed.
"""

from __future__ import annotations

import copy
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

# wrinkled_simulate: w(0) at s_end = 1.6 when the benchmark was written
# (257 nodes, rk2, unperturbed profile).
WRINKLED_W0_REFERENCE = 4.8839941270
# Discretization allowance: 10x the gap |w_257 - w_513| = 9.5e-6 between the
# 257- and 513-node runs, so scheme changes of the same order pass.  Seed
# allowance: measured dw(0)/d ln(amplitude) = 0.10 and dw(0)/d ln(width) =
# -1.4e-3; the perturbations below move w(0) by at most 5.7e-5.
WRINKLED_W0_TOLERANCE = 1e-4 + 1e-4

# pinned_disk: flat slices are exact, so the untouched center sits at 3s.
FLAT_CENTER_TOLERANCE = 1e-9

# cartesian_verify: every reported refinement order must be second order.
ORDER_RANGE = (1.7, 2.3)
CARTESIAN_CHECKS = (
    "restriction-gradients",
    "coordinate-laplacians",
    "coordinate-laplacians-wave-route",
    "tilt-gradient",
    "tilt-evolution",
    "tilt-dissipation-bound",
    "tilt-decay-bound",
    "pinching-bound",
    "jet-restriction-gradients",
    "jet-tilt-gradient",
    "jet-pinching-bound",
)


@dataclass
class Outcome:
    wall_s: float
    flow_time: float = 0.0
    stepping_s: float = 0.0
    exit_code: int | None = None
    failed_gates: list = field(default_factory=list)
    checks_failed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed_gates


class StepClock:
    """Times the stepping calls of one iteration without tracing them.

    Wraps ``flow.run`` and ``flow.evolve_window`` (one call each per run or
    window, so the cost is a few microseconds per iteration) and sums the
    flow time they advanced and the wall time they took.
    """

    def __init__(self, flow_module):
        self.flow = flow_module
        self.flow_time = 0.0
        self.seconds = 0.0
        self._saved = {}

    def _wrap(self, name, advanced):
        inner = getattr(self.flow, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = inner(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.flow_time += advanced(args, result)
            return result

        self._saved[name] = inner
        setattr(self.flow, name, timed)

    def __enter__(self):
        self._wrap("run", lambda args, traj: traj.final.s - args[0].s)
        self._wrap("evolve_window", lambda args, win: win.after.s - win.before.s)
        return self

    def __exit__(self, *exc):
        for name, inner in self._saved.items():
            setattr(self.flow, name, inner)
        self._saved.clear()


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


class Workload:
    name = ""
    command = ""
    # Wrapped functions that must record calls in a traced run.
    must_run: tuple = ()

    def __init__(self, seed: int, work_dir: Path, dsmcf):
        self.seed = seed
        self.work_dir = work_dir
        self.dsmcf = dsmcf  # namespace of the dsmcf modules, by short name
        self.config = self.make_config(random.Random(f"{self.name}:{seed}"))

    def make_config(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def warmup_config(self) -> dict:
        """A smaller job on the same code paths, run once before timing."""
        raise NotImplementedError

    def config_path(self, warmup: bool = False) -> Path:
        return self.work_dir / ("warmup.json" if warmup else "config.json")

    def write_configs(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for warmup, cfg in ((False, self.config), (True, self.warmup_config())):
            cfg = dict(cfg, out=str(self.out_dir(warmup)))
            self.config_path(warmup).write_text(json.dumps(cfg, indent=2) + "\n")

    def out_dir(self, warmup: bool = False) -> Path:
        return self.work_dir / ("warmup-out" if warmup else "out")

    def iterate(self, warmup: bool = False) -> Outcome:
        """Run the command (and post-processing) once and gate the result."""
        cli = self.dsmcf.cli
        argv = [self.command, "--config", str(self.config_path(warmup)), "--quiet"]
        with StepClock(self.dsmcf.flow) as clock:
            t0 = time.perf_counter()
            code = cli.main(argv)
            extra = self.post_process(warmup) if code == 0 else None
            wall = time.perf_counter() - t0
        outcome = Outcome(
            wall_s=wall,
            flow_time=clock.flow_time,
            stepping_s=clock.seconds,
            exit_code=code,
        )
        if code != 0:
            outcome.failed_gates.append(f"exit code {code}")
        elif not warmup:
            report = json.loads((self.out_dir() / "report.json").read_text())
            self.gate(report, extra, outcome)
        return outcome

    def post_process(self, warmup: bool):
        return None

    def gate(self, report: dict, extra, outcome: Outcome) -> None:
        raise NotImplementedError


class WrinkledSimulate(Workload):
    """Criteria 7/8 problem: many small rk2 steps, ~765 snapshots, post-processing."""

    name = "wrinkled_simulate"
    command = "simulate"
    lambdas = (0.4, 0.8, 1.2)
    rho = 1.0
    must_run = (
        "cli.main",
        "cli.load_config",
        "flow.run",
        "flow.step",
        "flow.stable_dt",
        "geometry.graph_speed_fields",
        "grids.radial_jet",
        "snapshots.save_trajectory",
        "snapshots.load_trajectory",
        "experiments.convergence_table",
        "experiments.rescale_trajectory",
        "geometry.GeometryFields",
        "geometry.JetFields",
        "grids.interpolate",
        "reporting.emit_report",
    )

    def make_config(self, rng):
        return {
            "grid": {"mode": "radial", "dimension": 3, "extent": 3.0, "resolution": 257},
            "bc": "slicing",
            "initial": {
                "profile": "wrinkled",
                "amplitude": _jitter(rng, 0.2, 5e-4),
                "width": _jitter(rng, 1.2, 5e-3),
            },
            "flow": {
                "integrator": "rk2",
                "cfl_safety": 0.5,
                "s_end": 1.6,
                "snapshot_stride": 20,
            },
            "experiment": {"lambdas": list(self.lambdas), "rho": self.rho},
            "seed": self.seed,
        }

    def warmup_config(self):
        cfg = copy.deepcopy(self.config)
        cfg["grid"]["resolution"] = 129
        return cfg

    def post_process(self, warmup):
        dsmcf = self.dsmcf
        path = self.out_dir(warmup) / "trajectory.dsmcf"
        traj = dsmcf.snapshots.load_trajectory(path)
        table = dsmcf.experiments.convergence_table(traj, self.lambdas, self.rho)
        return traj, table

    def gate(self, report, extra, outcome):
        traj, table = extra
        s_end = self.config["flow"]["s_end"]
        s_final = float(traj.final.s)
        if traj.failure is not None:
            outcome.failed_gates.append(f"trajectory records a failure: {traj.failure}")
        if abs(s_final - s_end) > 1e-12 * s_end:
            outcome.failed_gates.append(f"final s {s_final!r} != s_end {s_end!r}")
        if not table.decreasing:
            outcome.failed_gates.append(
                "convergence table not strictly decreasing: "
                f"height {list(table.height_error)}, tilt {list(table.tilt_error)}"
            )
        w0 = float(traj.final.u.values[0])
        if not abs(w0 - WRINKLED_W0_REFERENCE) <= WRINKLED_W0_TOLERANCE:
            outcome.failed_gates.append(
                f"w(0) = {w0!r} at s_end, reference {WRINKLED_W0_REFERENCE} "
                f"+- {WRINKLED_W0_TOLERANCE:g}"
            )


class PinnedDisk(Workload):
    """Criterion 6 set-up to a fixed flow time: 2048 nodes, euler, little recording."""

    name = "pinned_disk"
    command = "barrier"
    must_run = (
        "cli.main",
        "cli.load_config",
        "experiments.barrier_run",
        "flow.run",
        "flow.step",
        "flow.stable_dt",
        "geometry.graph_speed_fields",
        "grids.radial_jet",
        "reporting.emit_report",
    )

    def make_config(self, rng):
        # barrier runs start from u = 0, so the seed nudges the disk radius
        # (which the grid extent must equal) instead of a profile parameter.
        radius = _jitter(rng, 4.0, 2.5e-3)
        return {
            "grid": {"mode": "radial", "dimension": 3, "extent": radius, "resolution": 2048},
            "bc": "pinned",
            "flow": {
                "integrator": "euler",
                "cfl_safety": 0.5,
                "s_end": 0.002,
                "snapshot_stride": 2000,
            },
            "experiment": {"disk_radius": radius},
            "seed": self.seed,
        }

    def warmup_config(self):
        cfg = copy.deepcopy(self.config)
        cfg["flow"]["s_end"] = 0.0002
        return cfg

    def gate(self, report, extra, outcome):
        barrier = report["experiments"]["barrier"]
        s, w0, bound = barrier["s"], barrier["center_height"], barrier["upper_bound"]
        tol = barrier["tolerance"]
        h = self.config["grid"]["extent"] / (self.config["grid"]["resolution"] - 1)
        if not math.isclose(tol, 10.0 * h * h, rel_tol=1e-9):
            outcome.failed_gates.append(f"barrier tolerance {tol!r} is not 10 h^2")
        if not barrier["monotone"] or any(b < a - 1e-12 for a, b in zip(w0, w0[1:])):
            outcome.failed_gates.append("center height not monotone")
        if not barrier["within_bounds"] or any(
            w > 3.0 * t + tol for w, t in zip(w0, s)
        ):
            outcome.failed_gates.append("center height above the 3s + 10h^2 barrier")
        if any(abs(b - 3.0 * t) > 1e-12 for b, t in zip(bound, s)):
            outcome.failed_gates.append("reported upper bound is not 3s")
        # Up to s_end the rim's influence has not reached the center, which
        # must then climb exactly with the flat slices: w(0) = 3s.
        drift = max(abs(w - 3.0 * t) for w, t in zip(w0, s))
        if drift > FLAT_CENTER_TOLERANCE:
            outcome.failed_gates.append(f"center height off the flat slice 3s by {drift:.3g}")
        s_end = self.config["flow"]["s_end"]
        if abs(s[-1] - s_end) > 1e-12 * s_end:
            outcome.failed_gates.append(f"final s {s[-1]!r} != s_end {s_end!r}")


class CartesianVerify(Workload):
    """Cartesian 49^3 bump: tensor assembly and oracles on big arrays.

    ``curvature_evolution`` is off: it is radial-only by design and with it
    on, ``verify`` aborts with exit 1 (ModeUnsupportedError) instead of
    reporting it as unsupported.
    """

    name = "cartesian_verify"
    command = "verify"
    must_run = (
        "cli.main",
        "cli.load_config",
        "flow.evolve_window",
        "flow.step",
        "geometry.graph_speed_fields",
        "geometry.GeometryFields",
        "geometry.JetFields",
        "grids.cartesian_jet",
        "grids.laplace_beltrami_cartesian",
        "oracles.check_restriction_gradients",
        "oracles.check_coordinate_laplacians",
        "oracles.check_tilt_gradient",
        "oracles.check_tilt_evolution",
        "oracles.check_tilt_bounds",
        "oracles.restriction_gradient_residuals",
        "oracles.tilt_gradient_residuals",
        "reporting.emit_report",
    )

    def make_config(self, rng):
        return {
            "grid": {"mode": "cartesian", "dimension": 3, "extent": 3.0, "resolution": 49},
            "bc": "slicing",
            "initial": {
                "profile": "bump",
                "amplitude": _jitter(rng, 0.2, 5e-3),
                "width": _jitter(rng, 1.2, 5e-3),
            },
            "checks": {"curvature_evolution": False, "jet_sampling": True},
            "seed": self.seed,
        }

    def warmup_config(self):
        cfg = copy.deepcopy(self.config)
        cfg["grid"]["resolution"] = 25
        return cfg

    def gate(self, report, extra, outcome):
        checks = report["checks"]
        names = tuple(c["name"] for c in checks)
        if names != CARTESIAN_CHECKS:
            outcome.failed_gates.append(f"checks ran {names}, expected {CARTESIAN_CHECKS}")
        failed = [c["name"] for c in checks if c["passed"] is not True]
        outcome.checks_failed = len(failed)
        if failed:
            outcome.failed_gates.append(f"checks failed: {failed}")
        low, high = ORDER_RANGE
        for c in checks:
            order = c.get("order")
            if order is not None and not low <= order <= high:
                outcome.failed_gates.append(
                    f"{c['name']}: order {order:.3f} outside [{low}, {high}]"
                )


WORKLOADS = {cls.name: cls for cls in (WrinkledSimulate, PinnedDisk, CartesianVerify)}
