"""Run configuration: a small JSON file with sections.

The file is a single JSON object.  Top-level keys name the run kind, the
grid, the boundary condition, solver settings, the initial profile, check
toggles, the output directory, and a seed.  Unknown keys anywhere are hard
parse errors so a typo cannot silently disable a check.  The keys of each
section are the fields of its spec class, and every value must have the
type that field declares.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import flow, geometry, grids
from .errors import ParseError, ValidationError

KINDS = ("simulate", "verify", "barrier", "flatness", "rescale")
PROFILES = ("flat", "bump", "wrinkled", "ramp")

#: Largest grid a config may ask for, counting the refined grid
#: (``GridSpec.refined``) that ``verify`` builds from it.
MAX_NODES = 2**24


@dataclass(frozen=True)
class GridSpec:
    mode: str = grids.RADIAL
    dimension: int = 3
    extent: float = 3.0
    resolution: int = 1024

    def build(self) -> grids.Grid:
        return grids.Grid(self.mode, self.dimension, extent=self.extent, resolution=self.resolution)

    def refined(self) -> "GridSpec":
        """The same box with half the spacing: 2 r - 1 nodes per axis."""
        return dataclasses.replace(self, resolution=2 * self.resolution - 1)


@dataclass(frozen=True)
class InitialSpec:
    """Named initial profile, evaluated on the grid at build time.

    flat      u = height
    bump      u = height + amplitude * exp(-(r/width)^2)
    wrinkled  u = height + oscillation normalized to peak amplitude
    ramp      constant-tilt profile u = -log(1 - c r), c from the tilt value
    """

    profile: str = "flat"
    amplitude: float = 0.2
    width: float = 1.0
    height: float = 0.0
    tilt: float = 2.0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got '{self.profile}'")
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.profile == "ramp" and not self.tilt > 1.0:
            raise ValueError(f"ramp tilt must exceed 1, got {self.tilt}")

    def build(self, grid: grids.Grid) -> np.ndarray:
        rsq = grid.radius_squared()
        r = np.sqrt(rsq)
        if self.profile == "flat":
            return np.full(grid.shape, self.height)
        if self.profile == "bump":
            return self.height + self.amplitude * np.exp(-rsq / self.width**2)
        if self.profile == "wrinkled":
            shape = np.sin(3.0 * r) * np.exp(-rsq / self.width**2)
            peak = np.max(np.abs(shape))
            return self.height + self.amplitude * shape / peak
        c = np.sqrt(1.0 - (1.0 / self.tilt) ** 2)
        reach = c * np.max(r)
        if reach >= 1.0:
            raise ValidationError(
                f"ramp tilt {self.tilt:g} is not spacelike out to radius {np.max(r):g}"
            )
        return self.height - np.log(1.0 - c * r)


@dataclass(frozen=True)
class CheckSpec:
    """Which oracle checks a verify run enables, and their knobs: ``delta``
    of the tilt dissipation bound, the weight's ``alpha``, ``epsilon`` and
    height threshold ``t_min``, and ``jet_count``.  No knob sets the step of
    the rates the window checks read (``flow.evolve_window``)."""

    tilt_evolution: bool = True
    tilt_gradient: bool = True
    tilt_bounds: bool = True
    curvature_evolution: bool = True
    coordinate_laplacians: bool = True
    restriction_gradients: bool = True
    weight_evolution: bool = False
    weight_gradient: bool = False
    jet_sampling: bool = False
    delta: float = 1.0 / 6.0
    alpha: float = 0.5
    epsilon: float = 0.1
    t_min: float = 10.0
    jet_count: int = 20_000

    def __post_init__(self):
        self.cutoff()
        if not 0.0 <= self.delta <= 1.0 / 3.0:
            raise ValueError(f"delta must lie in [0, 1/3], got {self.delta}")
        if not 0 < self.jet_count <= MAX_NODES:
            raise ValueError(f"jet_count must lie in [1, {MAX_NODES}], got {self.jet_count}")

    def cutoff(self) -> geometry.CutoffSpec:
        return geometry.CutoffSpec(alpha=self.alpha, epsilon=self.epsilon, t_min=self.t_min)


@dataclass(frozen=True)
class ExperimentSpec:
    disk_radius: float = 4.0
    theta: float = 0.05
    lambdas: tuple[float, ...] = (0.35, 0.5, 0.65)
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.lambdas or any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError(f"lambdas must be non-empty, strictly increasing, got {self.lambdas}")


@dataclass(frozen=True)
class RunConfig:
    kind: str = "simulate"
    grid: GridSpec = field(default_factory=GridSpec)
    bc: str = flow.SLICING
    flow: flow.FlowConfig = field(default_factory=flow.FlowConfig)
    initial: InitialSpec = field(default_factory=InitialSpec)
    checks: CheckSpec = field(default_factory=CheckSpec)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    out: str = "dsmcf-out"
    seed: int = 0

    def initial_state(self) -> flow.GraphState:
        grid = self.grid.build()
        with np.errstate(all="ignore"):
            values = self.initial.build(grid)
        bc = flow.BoundaryCondition(self.bc)
        try:  # a non-finite height
            return flow.GraphState(u=grids.Field(grid, values), s=0.0, bc=bc)
        except ValueError as exc:
            raise ValidationError(
                f"initial: {self.initial.profile} profile under bc '{self.bc}': {exc}"
            ) from exc

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["experiment"]["lambdas"] = list(self.experiment.lambdas)
        return out


_SECTIONS = {
    "grid": GridSpec,
    "flow": flow.FlowConfig,
    "initial": InitialSpec,
    "checks": CheckSpec,
    "experiment": ExperimentSpec,
}


def _finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


#: Value check and description per declared field type.
_TYPES = {
    "str": (lambda x: isinstance(x, str), "a string"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "float": (_finite_number, "a finite number"),
    "float | None": (lambda x: x is None or _finite_number(x), "a finite number or null"),
    "tuple[float, ...]": (
        lambda x: isinstance(x, list) and all(map(_finite_number, x)),
        "a list of finite numbers",
    ),
}


def _keys(spec) -> set[str]:
    return {f.name for f in dataclasses.fields(spec)}


def _check_types(prefix: str, data: dict, spec) -> None:
    declared = {f.name: f.type for f in dataclasses.fields(spec)}
    for key, value in data.items():
        ok, what = _TYPES[declared[key]]
        if not ok(value):
            raise ValidationError(f"{prefix}{key} must be {what}, got {value!r}")


def _key_line(text: str, key: str) -> int | None:
    for n, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return n
    return None


def _reject_unknown(section: str, data: dict, allowed: set[str], text: str) -> None:
    for key in data:
        if key not in allowed:
            line = _key_line(text, key)
            where = f" (line {line})" if line else ""
            raise ParseError(f"unknown key '{key}' in {section}{where}")


def _section(raw: dict, name: str, text: str):
    """The section ``name`` built from ``raw``; a value of the wrong type or
    out of its spec's range raises a ValidationError led by ``name``."""
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ParseError(f"section '{name}' must be an object")
    spec = _SECTIONS[name]
    _reject_unknown(name, data, _keys(spec), text)
    _check_types(f"{name}: ", data, spec)
    try:
        return spec(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _validate(config: RunConfig) -> RunConfig:
    """The top-level values and the rules that span sections; each section
    checked its own values when ``_section`` built it."""
    if config.kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got '{config.kind}'")
    if config.bc not in flow.BC_KINDS:
        raise ValidationError(f"unknown boundary kind '{config.bc}'")
    if config.flow.integrator == flow.IMPLICIT and config.grid.mode != grids.RADIAL:
        raise ValidationError(
            f"integrator '{flow.IMPLICIT}' needs grid.mode '{grids.RADIAL}', "
            f"got '{config.grid.mode}'"
        )
    try:
        grid = config.grid.build()
        fine = config.grid.refined().build()
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}") from exc
    if fine.node_count > MAX_NODES:
        raise ValidationError(
            f"grid too large: {grid.node_count:.3g} nodes, {fine.node_count:.3g} "
            f"once refined for verify (limit {MAX_NODES})"
        )
    return config


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; see load_config for the file form."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    _reject_unknown("config", raw, _keys(RunConfig), text)
    top = {k: v for k, v in raw.items() if k not in _SECTIONS}
    _check_types("", top, RunConfig)
    sections = {name: _section(raw, name, text) for name in _SECTIONS}
    return _validate(RunConfig(**top, **sections))


def load_config(path) -> RunConfig:
    """Read, parse, and range-check a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
