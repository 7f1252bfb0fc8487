"""Time stepping for the graphical expansion flow.

The graph moves so that its normal velocity equals its mean curvature H.
In the fixed spatial chart that is the quasilinear parabolic equation

    du/ds = H / v,

whose right-hand side ``graph_speed_fields`` provides (H/v is the vertical
speed of the surface; along the normal trajectories themselves the height
grows at the faster material rate H v, see the oracles module).  Flat
slices u = c + n s solve the equation exactly, also discretely, because
every stencil annihilates constants.

Every boundary condition moves the boundary heights at a constant speed
(see ``BoundaryCondition``): 0 for ``pinned``, which keeps whatever heights
the state starts with (the Dirichlet problem of Huisken, J. Differential
Equations 77, 1989), n for ``slicing``.  The flow's kernel wrapper writes
that speed into the boundary entries of the speed array, so every
integrator carries the boundary exactly, with nothing re-imposed afterwards.

The explicit integrators are euler, rk2 midpoint and classical rk4.  Their
step is a fraction of the monotone limit of forward Euler (``stable_dt``),
of order h^2 e^{2u} margin, which collapses with the margin.

The radial-only ``implicit`` integrator is backward Euler on the same
kernel speed (the implicit graph stepping of Deckelnick, Dziuk and Elliott,
Acta Numerica 14, 2005).  Each step solves u - dt S(u) = u_old by Newton
iteration with the exact banded Jacobian of the radial kernel; the boundary
row of that Jacobian is zero, so the boundary row of the system moves the
boundary node by dt times its boundary speed.  A Newton update whose
iterate fails the kernel's margin check is halved, never clamped.
Without ``dt_fixed`` the step size follows an accuracy control (step
doubling) instead of the monotone limit.

The steppers return bare states.  The health numbers of a state (smallest
margin and its node, largest tilt, range of H, mean-convexity violations)
come from ``diagnose``, one kernel evaluation on that state, so they
always describe the state and s they are read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, grids
from .errors import BlowupError, ConvergenceError, NonSpacelikeError

PINNED = "pinned"
SLICING = "slicing"
BC_KINDS = (PINNED, SLICING)

IMPLICIT = "implicit"
INTEGRATORS = ("euler", "rk2", "rk4", IMPLICIT)

MEAN_CONVEXITY_TOL = 1e-8

#: Local error target of one implicit step under step doubling, relative
#: to 1 + max|u|.  The pinned disk at 2048 nodes ends with the same margin
#: collapse at 1e-4 and at 1e-6, so the skirt's grid spacing, not this
#: target, limits it.
STEP_TOL = 1e-4
#: Newton on a backward-Euler step stops once the full update or the
#: residual is below this fraction of 1 + max|u|.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
#: An update halved this often without a spacelike iterate fails the step.
NEWTON_MAX_HALVINGS = 30


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary rule for the height field.

    * ``pinned``: boundary keeps its initial heights, whatever they are.
    * ``slicing``: boundary follows the flat-slice motion u0 + n (s - s0).

    Each rule is affine in s, so it is fully given by the boundary speed
    it implies: 0 for ``pinned``, n for ``slicing``.  The heights a state
    carries at its boundary are the rule's data.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")

    def speed(self, dimension: int) -> float:
        return float(dimension) if self.kind == SLICING else 0.0


@dataclass
class GraphState:
    """Height field at one flow time."""

    u: grids.Field
    s: float
    bc: BoundaryCondition

    @property
    def grid(self) -> grids.Grid:
        return self.u.grid

    def copy(self) -> "GraphState":
        return GraphState(u=self.u.copy(), s=self.s, bc=self.bc)


@dataclass(frozen=True)
class FlowConfig:
    """Stepping parameters.

    ``cfl_safety`` scales the monotone step of the explicit integrators
    (``stable_dt``; 1 is the limit itself); ``dt_max`` caps the step where
    the diffusion bound becomes huge (high slices make e^{2u} enormous
    while the reaction terms still move at unit rate in s), for the
    implicit integrator too.  ``dt_fixed`` forces a constant step.
    """

    integrator: str = "rk2"
    cfl_safety: float = 0.25
    s_end: float = 1.0
    max_steps: int = 20_000_000
    snapshot_stride: int = 100
    blowup_cap: float = 1e3
    dt_max: float = 0.05
    dt_fixed: float | None = None

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not (self.s_end > 0.0):
            raise ValueError("s_end must be positive")
        if self.max_steps < 1 or self.snapshot_stride < 1:
            raise ValueError("max_steps and snapshot_stride must be >= 1")
        if not (self.blowup_cap > 0.0):
            raise ValueError("blowup_cap must be positive")
        if not (self.dt_max > 0.0):
            raise ValueError("dt_max must be positive")
        if self.dt_fixed is not None and not (self.dt_fixed > 0.0):
            raise ValueError("dt_fixed must be positive")


@dataclass(frozen=True)
class StepDiagnostics:
    """Cheap health numbers of the state ``diagnose`` is given, at its s.

    ``min_margin_at`` is the node index of ``min_margin``; the tilt and
    mean curvature numbers cover the interior nodes.
    """

    s: float
    min_margin: float
    min_margin_at: tuple
    max_v: float
    min_H: float
    max_H: float
    mean_convexity_violations: int


@dataclass
class Trajectory:
    """Recorded flow run: snapshots plus the step size that reached each."""

    snapshots: list = field(default_factory=list)
    dt_history: list = field(default_factory=list)
    failure: str | None = None
    steps: int = 0

    @property
    def final(self) -> GraphState:
        return self.snapshots[-1]

    def s_values(self) -> np.ndarray:
        return np.array([st.s for st in self.snapshots])


@dataclass(frozen=True)
class TrajectoryWindow:
    """A state displaced by -eta and +eta times its kernel speed at every
    node, for rates taken at the state itself (``evolve_window``)."""

    before: GraphState
    after: GraphState
    eta: float


# ---------------------------------------------------------------------------
# stepping


def stable_dt(state: GraphState, cfl_safety: float, margin=None) -> float:
    """cfl times the monotone step: the largest dt that keeps every diagonal
    entry of I + dt J nonnegative, J the Jacobian of the principal part of
    the kernel speed.  That is the step half of the condition under which
    a forward-Euler step keeps the comparison principle (Oberman, SIAM J.
    Numer. Anal. 44, 2006); the signs off the diagonal are the stencils'.

    The step is (h^2 / 2) min(e^{2u} / d) with the diagonal weight d of
    each node's second-difference stencil: v^2 at a radial interior node,
    where only u'' sits on the diagonal; (n + 2) / 3 at the axis, whose row
    also carries the extrapolated (n - 1) u'/rho and where v = 1; and
    n - 1 + v^2 in Cartesian mode, the trace of e^{2u} gamma^{ij}.  With
    e^{2u} / v^2 = e^{2u} margin it is taken in log form (e^{2u} overflows
    past u = 354); a bound past the largest float is inf.  ``margin`` is
    the kernel's margin at ``state`` when the caller already has it;
    otherwise the kernel is evaluated here.
    """
    grid = state.grid
    n = grid.dimension
    if margin is None:
        _, _, _, margin = geometry.graph_speed_fields(state.u.values, grid)
    exponent = np.log(margin)
    exponent += 2.0 * state.u.values
    if grid.mode == grids.RADIAL:
        exponent[0] -= math.log((n + 2.0) / 3.0)
    else:
        exponent -= np.log1p((n - 1.0) * margin)
    log_dt = math.log(cfl_safety * grid.spacing**2 / 2.0)
    log_dt += float(exponent.min())
    try:
        return math.exp(log_dt)
    except OverflowError:
        return math.inf


def _speed_fields(values, grid, s: float):
    """The kernel's (speed, v^2, H, margin) at ``values``, the speed at every
    node its own.  A margin at or below the floor raises NonSpacelikeError
    naming the node and the flow time ``s``."""
    try:
        return geometry.graph_speed_fields(values, grid)
    except NonSpacelikeError as exc:
        raise NonSpacelikeError(f"at s = {s:.6g}: {exc}", location=exc.location)


def _kernel(values, grid, bc: BoundaryCondition, s: float):
    """``_speed_fields`` with the boundary entries of the speed set to the
    boundary speed of ``bc``.

    This is the one place the boundary condition enters the stepping: every
    integrator combines these speeds, so its stages, its result and the
    backward-Euler residual all move the boundary at that speed, written
    face by face.
    """
    speed, v2, H, margin = _speed_fields(values, grid, s)
    boundary_speed = bc.speed(grid.dimension)
    for face in grid.boundary():
        speed[face] = boundary_speed
    return speed, v2, H, margin


def diagnose(state: GraphState) -> StepDiagnostics:
    """Health numbers of ``state`` from one kernel evaluation.

    A state that is not spacelike raises NonSpacelikeError naming its worst
    node and s.
    """
    grid = state.grid
    _, v2, H, margin = _kernel(state.u.values, grid, state.bc, state.s)
    interior = grid.interior(1)
    H_int = H[interior]
    worst = int(np.argmin(margin))
    return StepDiagnostics(
        s=state.s,
        min_margin=float(margin.flat[worst]),
        min_margin_at=tuple(int(i) for i in np.unravel_index(worst, grid.shape)),
        max_v=float(np.sqrt(np.max(v2[interior]))),
        min_H=float(np.min(H_int)),
        max_H=float(np.max(H_int)),
        mean_convexity_violations=int(np.sum(H_int < -MEAN_CONVEXITY_TOL)),
    )


def step(state: GraphState, dt: float, config: FlowConfig, fields=None) -> GraphState:
    """One step of size dt; returns the new state.

    ``fields`` are the kernel fields (speed, v^2, H, margin) at ``state``
    when the caller already has them, their speed the one the step takes
    (``_kernel``'s, boundary speed included, or the window's own); otherwise
    ``_kernel``'s are evaluated here.
    """
    grid, u0, s, bc = state.grid, state.u.values, state.s, state.bc
    if fields is None:
        fields = _kernel(u0, grid, bc, s)
    speed = fields[0]
    if config.integrator == IMPLICIT:
        unew, _ = _backward_euler(grid, u0, fields, None, s + dt, dt, bc)
    elif config.integrator == "euler":
        unew = _stage(u0, dt, speed)
    elif config.integrator == "rk2":
        k2, _, _, _ = _kernel(_stage(u0, 0.5 * dt, speed), grid, bc, s + 0.5 * dt)
        unew = _stage(u0, dt, k2)
    else:  # rk4
        k2, _, _, _ = _kernel(_stage(u0, 0.5 * dt, speed), grid, bc, s + 0.5 * dt)
        k3, _, _, _ = _kernel(_stage(u0, 0.5 * dt, k2), grid, bc, s + 0.5 * dt)
        k4, _, _, _ = _kernel(_stage(u0, dt, k3), grid, bc, s + dt)
        k2 += k3
        k2 *= 2.0
        k2 += speed
        k2 += k4
        unew = _stage(u0, dt / 6.0, k2)
    return _finish_step(grid, unew, s + dt, bc, config)


def _stage(u0, dt, speed):
    """u0 + dt * speed as a new array, neither input written."""
    out = np.multiply(speed, dt)
    out += u0
    return out


def _finish_step(grid, unew, s_new, bc, config) -> GraphState:
    """Blow-up check and new state shared by every integrator.

    The blow-up check is the one finiteness scan of ``unew`` (max|u| is NaN
    or inf when a height is), so ``Field.stepped`` skips a second one.
    """
    peak = float(np.abs(unew).max())
    if not peak <= config.blowup_cap:
        if not np.isfinite(peak):
            raise BlowupError(f"non-finite heights at s = {s_new:.6g}")
        raise BlowupError(
            f"|u| reached {peak:.3g} (cap {config.blowup_cap:.3g}) at s = {s_new:.6g}"
        )
    return GraphState(u=grids.Field.stepped(grid, unew), s=s_new, bc=bc)


def _damped_update(u, update, grid, bc, s):
    """u - lam * update for the largest lam = 2^-k whose iterate is spacelike.

    Returns (iterate, lam, ``_kernel`` fields at the iterate).  The margin
    floor is checked on every node of every trial; nothing is clamped.
    """
    lam = 1.0
    for _ in range(NEWTON_MAX_HALVINGS):
        trial = u - lam * update
        try:
            return trial, lam, _kernel(trial, grid, bc, s)
        except NonSpacelikeError as exc:
            last = exc
            lam *= 0.5
    raise NonSpacelikeError(
        f"{last}, after {NEWTON_MAX_HALVINGS} halvings of the Newton update",
        location=last.location,
    )


def _backward_euler(grid, u_old, fields, jac, s_new, dt, bc):
    """Solve u - dt S(u) = u_old by damped Newton; return (u, fields at u).

    ``fields`` are the ``_kernel`` fields (speed, v^2, H, margin) at
    ``u_old`` and ``jac`` its ``radial_speed_jacobian`` there, or None.
    S carries the boundary speed, on which the Jacobian's zero boundary row
    agrees, so the first Newton update already puts the boundary node at
    u_old + dt S there.  Newton stops when its full update, or the residual,
    falls below NEWTON_TOL (1 + max|u_old|); a residual that small makes u
    the exact step from heights that differ from u_old by no more than that.
    """
    import scipy.linalg  # imported here: slow to import, and only implicit steps need it

    tol = NEWTON_TOL * (1.0 + float(np.max(np.abs(u_old))))
    u = u_old
    residual = u - u_old - dt * fields[0]
    for _ in range(NEWTON_MAX_ITER):
        if jac is None:
            jac = geometry.radial_speed_jacobian(u, grid)
        ab = -dt * jac
        ab[3] += 1.0
        try:
            update = scipy.linalg.solve_banded((1, 3), ab, residual, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Newton matrix at s = {s_new:.6g}, dt = {dt:.3g}"
            ) from exc
        u, lam, fields = _damped_update(u, update, grid, bc, s_new)
        jac = None
        residual = u - u_old - dt * fields[0]
        full_step_small = lam == 1.0 and float(np.max(np.abs(update))) <= tol
        if full_step_small or float(np.max(np.abs(residual))) <= tol:
            break
    else:
        raise ConvergenceError(
            f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
            f"at s = {s_new:.6g}, dt = {dt:.3g}"
        )
    return u, fields


def _doubling_step(state: GraphState, dt: float, config: FlowConfig):
    """One accepted implicit step from ``state`` under step-doubling control.

    A step of dt is compared with two steps of dt/2; their difference,
    relative to 1 + max|u|, estimates the local error of the full step.
    The two half steps are kept when the estimate is within STEP_TOL;
    otherwise, or when a solve fails, or when the update dt max|S| of a
    step shorter than ``dt_max`` is within Newton's tolerance (except on the
    step landing on ``s_end``), dt shrinks and the step is retried.
    The full step, the first half step and every retry start from the same
    heights, so they share one kernel evaluation and one Jacobian there.
    The last step lands exactly on ``s_end``.  Returns (new state, dt
    taken, suggested next dt).
    """
    grid, bc, s, u0 = state.grid, state.bc, state.s, state.u.values
    fields0 = _kernel(u0, grid, bc, s)
    jac0 = geometry.radial_speed_jacobian(u0, grid)
    floor_dt = 1e-12 * max(1.0, config.s_end)
    while True:
        remaining = config.s_end - s
        dt = min(dt, remaining)
        s_new = config.s_end if dt == remaining else s + dt
        try:
            full, _ = _backward_euler(grid, u0, fields0, jac0, s_new, dt, bc)
            half, fields = _backward_euler(grid, u0, fields0, jac0, s + 0.5 * dt, 0.5 * dt, bc)
            unew, fields = _backward_euler(grid, half, fields, None, s_new, 0.5 * dt, bc)
        except (NonSpacelikeError, ConvergenceError) as exc:
            reason, err = exc, np.inf
        else:
            scale = 1.0 + float(np.max(np.abs(unew)))
            err = float(np.max(np.abs(unew - full))) / scale
            reason = f"local error {err:.3g} above {STEP_TOL:.0e}"
            update = dt * float(np.max(np.abs(fields[0])))
            stalled = update <= NEWTON_TOL * scale and dt < config.dt_max
            if stalled and s_new != config.s_end:
                # Newton's stopping test holds for any iterate this close to
                # u0, so such a step shows nothing and the run would stall.
                # A full-size step is exempt: a state at rest (a small pinned
                # disk near its stationary profile, rim speed 0) takes full
                # steps and moves on.
                reason, err = f"step update {update:.3g} within the Newton tolerance", np.inf
        if err == 0.0:
            grow = 2.0
        else:
            grow = min(2.0, max(0.2, 0.9 * float(np.sqrt(STEP_TOL / err))))
        if err <= STEP_TOL:
            new = _finish_step(grid, unew, s_new, bc, config)
            return new, dt, min(grow * dt, config.dt_max)
        dt *= grow
        if dt < floor_dt:
            raise ConvergenceError(
                f"implicit step size fell below {floor_dt:.0e} at s = {s:.6g}: {reason}"
            )


def run(state: GraphState, config: FlowConfig) -> Trajectory:
    """Advance to ``config.s_end``, recording snapshots every stride steps.

    On NonSpacelikeError, BlowupError or ConvergenceError the partial
    trajectory is returned with ``failure`` set instead of propagating, so a
    long run is never lost to its last step.  The implicit integrator
    counts accepted steps only.

    A fixed or stability-limited step evaluates the kernel once at its
    start, for dt and the first stage.  ``diagnose`` reads the health of a
    recorded state.
    """
    current = state.copy()
    grid, bc = current.grid, current.bc
    traj = Trajectory()
    traj.snapshots.append(current.copy())
    traj.dt_history.append(0.0)

    s_end, stride, max_steps = config.s_end, config.snapshot_stride, config.max_steps
    dt_fixed, cfl_safety, dt_max = config.dt_fixed, config.cfl_safety, config.dt_max
    # the loop stops, and the step it stops after is recorded, past this s
    s_stop = s_end - 1e-14 * max(1.0, s_end)
    adaptive_implicit = config.integrator == IMPLICIT and dt_fixed is None
    steps = 0
    dt_next = dt_max
    try:
        while current.s < s_stop:
            if steps >= max_steps:
                traj.failure = f"max_steps ({max_steps}) exceeded"
                break
            if adaptive_implicit:
                current, dt, dt_next = _doubling_step(current, dt_next, config)
            else:
                fields = _kernel(current.u.values, grid, bc, current.s)
                dt = dt_fixed or min(stable_dt(current, cfl_safety, margin=fields[3]), dt_max)
                dt = min(dt, s_end - current.s)
                current = step(current, dt, config, fields=fields)
            steps += 1
            if steps % stride == 0 or current.s >= s_stop:
                traj.snapshots.append(current.copy())
                traj.dt_history.append(dt)
    except (NonSpacelikeError, BlowupError, ConvergenceError) as exc:
        traj.failure = str(exc)
    traj.steps = steps
    return traj


def evolve_window(state: GraphState, config: FlowConfig) -> TrajectoryWindow:
    """``state`` displaced to s -/+ eta along the kernel's own speed S at
    every node by two euler steps from one kernel evaluation, for the central
    difference (f(after) - f(before)) / (2 eta) = Df(u)[S] + O(eta^2) of
    Jacobian-free Newton-Krylov methods (Knoll and Keyes, J. Comput. Phys.
    193, 2004).  Nothing steps on from the displaced states, so stability
    does not bound eta = (h/8) n / max(n, max|S|): no height moves more than
    h n / 8, the O(eta^2) error keeps the order h^2, and the rounding
    eps |f| / eta stays far below it.  The boundary speed is not written in:
    the boundary condition is no part of the rates, and where it differs
    from the kernel's speed it would kink the displaced states at the rim,
    timelike where the rim is steep."""
    fields = _speed_fields(state.u.values, state.grid, state.s)
    n = state.grid.dimension
    eta = state.grid.spacing / 8.0 * n / max(n, float(np.max(np.abs(fields[0]))))
    euler = replace(config, integrator="euler")
    before = step(state, -eta, euler, fields=fields)
    return TrajectoryWindow(before=before, after=step(state, eta, euler, fields=fields), eta=eta)
