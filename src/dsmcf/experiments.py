"""Analyses of recorded trajectories that reproduce the qualitative flow
phenomena: a pinned disk whose center climbs without bound between its
barriers, flattening of perturbed and steep slices, and recentred
convergence to the uniformly climbing profile.  The commands in ``cli`` run
the flows; the functions here only read the trajectories they record,
failed runs included.  Each result's ``passed`` is its one verdict."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import flow, geometry, grids, oracles
from .errors import NonSpacelikeError, OutOfDomainError, SpanTooShortError

# Fraction of the box size used as the recentred time half-window.  The
# box bounds the height; the limiting profile climbs at rate n, so a full
# height excursion corresponds to a third of the box in flow time, and
# staying strictly inside that keeps converged runs clear of the height
# clip at the window ends.
RESCALE_TIME_FRACTION = 0.3


def _profile_at(s_values: np.ndarray, profiles: np.ndarray, tau: float) -> np.ndarray:
    """Linear time interpolation of stacked per-snapshot node arrays."""
    j = int(np.searchsorted(s_values, tau))
    j = min(max(j, 1), len(s_values) - 1)
    left, right = s_values[j - 1], s_values[j]
    theta = 0.0 if right == left else (tau - left) / (right - left)
    return (1.0 - theta) * profiles[j - 1] + theta * profiles[j]


def _snapshot_profiles(traj: flow.Trajectory) -> np.ndarray:
    return np.stack([st.u.values for st in traj.snapshots])


class _Result:
    """JSON form shared by the result records: arrays become float lists."""

    def as_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            is_series = isinstance(value, (np.ndarray, list, tuple))
            out[f.name] = [float(x) for x in value] if is_series else value
        return out


# ---------------------------------------------------------------------------
# pinned disk


@dataclass(frozen=True)
class BarrierResult(_Result):
    """Center-height history of the pinned-disk run.

    The center must stay between 0 and n*s (every slice started above the
    disk is an upper barrier) while growing monotonically; the recorded
    slack series measures how much room the self-similar stepping
    inequality has, with the shift constant taken from the run itself.
    """

    s: np.ndarray
    center_height: np.ndarray
    upper_bound: np.ndarray
    monotone: bool
    within_bounds: bool
    tolerance: float
    shift_constant: float
    translation_s: np.ndarray
    translation_slack: np.ndarray
    passed: bool


def _translation_series(s, profiles, grid: grids.Grid):
    """Shift constant c and the slack of w(x, 1+s) >= w(e^c x, s) + c.

    c is the measured center height at unit flow time.  The comparison
    only makes sense at radii that stay inside the disk (the grid extent)
    after stretching by e^c, and needs the run to cover [s, 1+s]; outside
    that, the series is empty and c is nan.
    """
    disk_radius = grid.extent
    if s[-1] < 1.0 or disk_radius <= 1.0:
        return math.nan, np.empty(0), np.empty(0)
    c = float(np.interp(1.0, s, profiles[:, 0]))
    stretch = math.exp(c)
    rho = grid.axis()
    sel = rho <= (disk_radius - 1.0) / stretch
    out_s, out_slack = [], []
    for k, sk in enumerate(s):
        if sk + 1.0 > s[-1] + 1e-12:
            break
        later = _profile_at(s, profiles, sk + 1.0)
        shifted = np.interp(stretch * rho[sel], rho, profiles[k])
        out_s.append(float(sk))
        out_slack.append(float(np.min(later[sel] - shifted - c)))
    return c, np.array(out_s), np.array(out_slack)


def barrier_run(traj: flow.Trajectory) -> BarrierResult:
    """Read the pinned-disk run: a radial flat disk, pinned at its rim.

    The disk radius is the grid extent.  The center height is validated
    against 0 <= u <= n*s + tol at every snapshot (tol is the 10 h^2
    discretization allowance), together with the monotone growth of the
    center.  The translation slack series quantifies the stepping
    inequality that forces the center to infinity.
    """
    grid = traj.final.grid
    s = traj.s_values()
    profiles = _snapshot_profiles(traj)
    center = profiles[:, 0].copy()
    upper = grid.dimension * s
    tol, _ = oracles.grid_tolerance(grid.spacing)
    within = bool(
        np.all(profiles.min(axis=1) >= -tol)
        and np.all(profiles.max(axis=1) <= upper + tol)
    )
    monotone = bool(np.all(np.diff(center) >= -1e-12))
    c, ts, slack = _translation_series(s, profiles, grid)
    translation_holds = len(slack) == 0 or bool(np.min(slack) >= -tol)
    return BarrierResult(
        s=s,
        center_height=center,
        upper_bound=upper,
        monotone=monotone,
        within_bounds=within,
        tolerance=tol,
        shift_constant=c,
        translation_s=ts,
        translation_slack=slack,
        passed=monotone and within and translation_holds,
    )


#: Columns of ``barrier_health``.
HEALTH_COLUMNS = (
    "s", "min_margin", "min_margin_rho", "max_v", "min_H", "max_H", "mean_convexity_violations"
)


def barrier_health(traj: flow.Trajectory) -> list:
    """Columns (``HEALTH_COLUMNS``) of ``flow.diagnose`` on each snapshot.

    The theorem assumes bounded mean curvature and tracks where the disk
    stays spacelike, so each row gives the smallest margin and its radius,
    the largest tilt, the range of H and the mean-convexity violations of
    one snapshot.  The rows stop before the first snapshot that is not
    spacelike: a failed explicit run can record one, and its failure note
    already names the node and s.
    """
    rho = traj.final.grid.axis()
    columns = [[] for _ in HEALTH_COLUMNS]
    for state in traj.snapshots:
        try:
            d = flow.diagnose(state)
        except NonSpacelikeError:
            break
        row = (d.s, d.min_margin, float(rho[d.min_margin_at]), d.max_v, d.min_H, d.max_H,
               d.mean_convexity_violations)
        for column, value in zip(columns, row):
            column.append(value)
    return columns


# ---------------------------------------------------------------------------
# flattening of a perturbed slice


@dataclass(frozen=True)
class FlatnessResult(_Result):
    """Decay of the tilt excess sup(v - 1) on the inner half-region."""

    s: np.ndarray
    tilt_excess: np.ndarray
    height_spread: np.ndarray
    theta: float
    flattening_time: float | None
    reached: bool
    eventually_decreasing: bool
    passed: bool


def flatness_run(traj: flow.Trajectory, theta: float) -> FlatnessResult:
    """Read when a flowed perturbed slice is theta-flat inside.

    Per snapshot, the tilt excess sup(v - 1) and the height spread
    sup |u - mean u| are taken over the inner half-region (radius up to
    half the grid extent).  The flattening time is the first snapshot
    with excess <= theta, in (0, 1) (``config.ExperimentSpec``); hitting
    the end of the run first is reported through ``reached``, not raised.
    """
    grid = traj.final.grid
    inner = grid.radius_squared() <= (0.5 * grid.extent) ** 2
    excess = np.empty(len(traj.snapshots))
    spread = np.empty(len(traj.snapshots))
    for k, st in enumerate(traj.snapshots):
        geom = geometry.GeometryFields(st.grid, st.u.values)
        excess[k] = max(0.0, float(np.max(geom.v[inner])) - 1.0)
        u_in = st.u.values[inner]
        spread[k] = float(np.max(np.abs(u_in - np.mean(u_in))))
    s = traj.s_values()
    hits = np.nonzero(excess <= theta)[0]
    reached = len(hits) > 0
    flattening = float(s[hits[0]]) if reached else None
    cut = max(1, (2 * len(excess)) // 3)
    tail = excess[cut:]
    decreasing = bool(
        len(tail) < 2 or np.all(np.diff(tail) <= 1e-12 * max(1.0, tail[0]))
    )
    return FlatnessResult(
        s=s,
        tilt_excess=excess,
        height_spread=spread,
        theta=theta,
        flattening_time=flattening,
        reached=reached,
        eventually_decreasing=decreasing,
        passed=reached and decreasing,
    )


# ---------------------------------------------------------------------------
# recentred convergence


@dataclass(frozen=True)
class RescaledField:
    """One recentred window of a trajectory.

    ``u`` holds the recentred heights u(e^{-a} x, s + lam) - a on the box
    nodes, sampled at the recentred times in ``s``; ``tilt`` holds v on
    the same samples (v is invariant under the recentring isometry).
    ``inside`` marks the samples whose height stays within the box.
    """

    lam: float
    rho: float
    offset: float
    climb_rate: float
    s: np.ndarray
    points: np.ndarray
    u: np.ndarray
    tilt: np.ndarray
    inside: np.ndarray

    def height_error(self) -> float:
        """sup over the box of |u - climb_rate * s|."""
        target = self.climb_rate * self.s[:, None]
        gaps = np.abs(self.u - target)[self.inside]
        return float(np.max(gaps)) if gaps.size else math.nan

    def tilt_error(self) -> float:
        """sup over the box of v - 1, clamped at zero."""
        vals = self.tilt[self.inside]
        if not vals.size:
            return math.nan
        return max(0.0, float(np.max(vals)) - 1.0)


def rescale_trajectory(
    traj: flow.Trajectory, lam: float, rho: float
) -> RescaledField:
    """Recentre a trajectory at flow time lam on the box of size rho.

    The surface is shifted by the ambient isometry that moves its point
    over the origin at time lam back to height zero, so the recentred
    height vanishes at the space-time origin by construction.  Heights
    come from spatial interpolation of the snapshot profiles and linear
    interpolation in time; the recentred times cover a fixed fraction of
    the box on either side of zero.  ``rescale`` checks 0 < rho <= extent.
    """
    grid = traj.final.grid
    s = traj.s_values()
    half = RESCALE_TIME_FRACTION * rho
    pad = 1e-12 * max(1.0, abs(float(s[-1])))
    if lam - half < s[0] - pad or lam + half > s[-1] + pad:
        raise SpanTooShortError(
            f"recentred window [{lam - half:.6g}, {lam + half:.6g}] outside the "
            f"recorded span [{s[0]:.6g}, {s[-1]:.6g}]"
        )

    profiles = _snapshot_profiles(traj)
    # v only on the snapshots ``_profile_at`` reads for the window's times
    first, last = np.clip(np.searchsorted(s, [lam - half - pad, lam + half + pad]), 1, len(s) - 1)
    near = slice(first - 1, last + 1)
    tilts = np.stack(
        [geometry.GeometryFields(grid, st.u.values).v for st in traj.snapshots[near]]
    )
    origin = np.zeros(grid.dimension)
    offset = float(
        grids.interpolate(grids.Field(grid, _profile_at(s, profiles, lam)), origin)
    )
    shrink = math.exp(-offset)
    points = grid.points()
    points = points[np.sum(points**2, axis=-1) <= rho**2 + 1e-12 * max(1.0, rho**2)]
    pulled = shrink * points
    reach = math.sqrt(float(np.max(np.sum(pulled**2, axis=-1)))) if len(pulled) else 0.0
    if reach > grid.extent + 1e-12 * max(1.0, grid.extent):
        raise OutOfDomainError(
            f"lambda {lam:.6g}: box radius {rho:.6g} pulls back to {reach:.6g}, "
            f"outside the grid extent {grid.extent:.6g}"
        )

    inside_window = s[(s >= lam - half - pad) & (s <= lam + half + pad)]
    times = np.unique(
        np.concatenate([inside_window, [lam - half, lam, lam + half]])
    )
    u_out = np.empty((len(times), len(points)))
    v_out = np.empty_like(u_out)
    for j, tau in enumerate(times):
        u_prof = grids.Field(grid, _profile_at(s, profiles, tau))
        v_prof = grids.Field(grid, _profile_at(s[near], tilts, tau))
        u_out[j] = np.asarray(grids.interpolate(u_prof, pulled)) - offset
        v_out[j] = np.asarray(grids.interpolate(v_prof, pulled))
    shifted = times - lam
    inside = np.abs(u_out) <= rho + 1e-12 * max(1.0, rho)
    return RescaledField(
        lam=lam,
        rho=rho,
        offset=offset,
        climb_rate=float(grid.dimension),
        s=shifted,
        points=points,
        u=u_out,
        tilt=v_out,
        inside=inside,
    )


@dataclass(frozen=True)
class RescaleTable(_Result):
    """Convergence table: recentring error per recentring time."""

    lambdas: np.ndarray
    height_error: np.ndarray
    tilt_error: np.ndarray
    rho: float
    decreasing: bool
    passed: bool


def convergence_table(
    traj: flow.Trajectory, lambdas, rho: float
) -> RescaleTable:
    """Recentre at several times and tabulate both error suprema.

    Later recentrings of a converging run should sit closer to the
    uniformly climbing profile; the ``decreasing`` flag records whether
    both columns are strictly decreasing.  ``lambdas`` increase strictly.
    """
    lams = np.asarray(lambdas, dtype=float)
    height = np.empty(len(lams))
    tilt = np.empty(len(lams))
    for k, lam in enumerate(lams):
        window = rescale_trajectory(traj, float(lam), rho)
        height[k] = window.height_error()
        tilt[k] = window.tilt_error()
    decreasing = bool(np.all(np.diff(height) < 0.0) and np.all(np.diff(tilt) < 0.0))
    # errors at machine zero for every lambda cannot decrease strictly
    already_flat = bool(np.max(height) < 1e-12 and np.max(tilt) < 1e-12)
    return RescaleTable(
        lambdas=lams,
        height_error=height,
        tilt_error=tilt,
        rho=rho,
        decreasing=decreasing,
        passed=decreasing or already_flat,
    )

