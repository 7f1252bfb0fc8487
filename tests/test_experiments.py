"""Scripted-run checks: the pinned disk climbing between its barriers, tilt
decay on steep ramps, flattening of wrinkled slices, recentred convergence
to the uniformly climbing profile, and pairwise ordering of flows."""

import numpy as np
import pytest

from dsmcf import config, experiments, flow, geometry, grids
from dsmcf.errors import NonSpacelikeError, OutOfDomainError, SpanTooShortError

import pointwise


def radial_grid(resolution, extent=3.0):
    return grids.Grid(grids.RADIAL, 3, extent=extent, resolution=resolution)


def slicing_state(grid, u0):
    return flow.GraphState(
        u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(flow.SLICING)
    )


def pinned_disk(grid):
    """The flat disk u = 0 over the whole grid, pinned at its rim."""
    return flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.PINNED),
    )


def wrinkled_profile(rho):
    """Oscillatory perturbation, normalized to peak height 0.2."""
    f = np.sin(3.0 * rho) * np.exp(-((rho / 1.2) ** 2))
    return 0.2 * f / np.max(np.abs(f))


def first_crossing(result, level):
    """First flow time at which the center height of a barrier result
    reaches ``level``, linearly interpolated between snapshots."""
    above = np.nonzero(result.center_height >= level)[0]
    if len(above) == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(result.s[0])
    w0, w1 = result.center_height[k - 1], result.center_height[k]
    frac = (level - w0) / (w1 - w0) if w1 > w0 else 1.0
    return float(result.s[k - 1] + frac * (result.s[k] - result.s[k - 1]))


def synthetic_trajectory(grid, s_values, family):
    snaps = [
        flow.GraphState(
            u=grids.Field(grid, family(float(s))),
            s=float(s),
            bc=flow.BoundaryCondition(flow.PINNED),
        )
        for s in s_values
    ]
    return flow.Trajectory(
        snapshots=snaps,
        dt_history=np.diff(s_values),
        failure=None,
    )


@pytest.fixture(scope="module")
def flattening_trajectory():
    grid = radial_grid(257)
    state = slicing_state(grid, wrinkled_profile(grid.axis()))
    return flow.run(state, flow.FlowConfig(cfl_safety=0.5, s_end=1.6))


class TestBarrier:
    def test_pinned_disk_climbs_between_barriers(self):
        grid = radial_grid(65, extent=4.0)
        cfg = flow.FlowConfig(integrator="euler", cfl_safety=0.5, s_end=0.45)
        res = experiments.barrier_run(flow.run(pinned_disk(grid), cfg))

        assert res.s[0] == 0.0
        assert res.center_height[0] == 0.0
        assert res.monotone
        assert res.within_bounds
        assert np.all(res.upper_bound == 3.0 * res.s)
        # center follows the free climb rate almost exactly, so the first
        # crossing of 1.0 sits at one third
        crossing = first_crossing(res, 1.0)
        assert abs(crossing - 1.0 / 3.0) < 0.02

    def test_health_stops_before_the_first_non_spacelike_snapshot(self):
        # ramps e^{-u} = 1 - c rho have margin 1 - c^2: the last is timelike
        grid = radial_grid(33, extent=0.5)
        rho = grid.axis()
        slopes = {0.0: 0.3, 0.1: 0.6, 0.2: 1.2}
        traj = synthetic_trajectory(
            grid, np.array(list(slopes)), lambda s: -np.log(1.0 - slopes[s] * rho)
        )
        columns = experiments.barrier_health(traj)
        assert len(columns) == len(experiments.HEALTH_COLUMNS)
        rows = list(zip(*columns))
        assert len(rows) == 2
        for row, state in zip(rows, traj.snapshots):
            d = flow.diagnose(state)
            assert row == (
                d.s,
                d.min_margin,
                rho[d.min_margin_at],
                d.max_v,
                d.min_H,
                d.max_H,
                d.mean_convexity_violations,
            )
        with pytest.raises(NonSpacelikeError, match=r"at s = 0.2: margin .* at node \(\d+,\)"):
            flow.diagnose(traj.final)

    def test_short_run_has_no_shift_constant(self):
        grid = radial_grid(33, extent=4.0)
        cfg = flow.FlowConfig(integrator="euler", cfl_safety=0.5, s_end=0.3)
        res = experiments.barrier_run(flow.run(pinned_disk(grid), cfg))
        assert np.isnan(res.shift_constant)
        assert len(res.translation_s) == 0
        assert len(res.translation_slack) == 0

    def test_translation_slack_vanishes_for_flat_family(self):
        # the stepped inequality holds with equality when every profile is a
        # flat slice: stretching a constant profile changes nothing
        grid = radial_grid(129, extent=4.0)
        s_values = np.linspace(0.0, 1.5, 61)
        profiles = np.stack([3.0 * s + np.zeros(grid.shape) for s in s_values])
        c, slack_s, slacks = experiments._translation_series(s_values, profiles, grid)
        assert c == pytest.approx(3.0)
        assert len(slack_s) == len(slacks) > 0
        assert np.max(np.abs(slacks)) < 1e-12

    def test_translation_slack_empty_below_unit_disk(self):
        grid = radial_grid(33, extent=0.8)
        s_values = np.linspace(0.0, 1.5, 16)
        profiles = np.zeros((16, grid.shape[0]))
        c, _, slacks = experiments._translation_series(s_values, profiles, grid)
        assert np.isnan(c)
        assert len(slacks) == 0


class TestFlatness:
    def test_flat_slice_is_flat_immediately(self):
        grid = radial_grid(33)
        state = slicing_state(grid, np.zeros(grid.shape))
        res = experiments.flatness_run(flow.run(state, flow.FlowConfig(s_end=0.2)), 0.05)
        assert res.reached
        assert res.flattening_time == 0.0
        assert np.max(res.tilt_excess) < 1e-12
        assert np.max(res.height_spread) < 1e-12

    def test_steep_ramp_decays_after_transient(self):
        # constant-boost ramp: e^{-u} = 1 - c*rho has tilt 5 at every node
        c = np.sqrt(1.0 - 1.0 / 25.0)
        grid = radial_grid(65, extent=0.6)
        state = slicing_state(grid, -np.log(1.0 - c * grid.axis()))
        cfg = flow.FlowConfig(integrator="euler", cfl_safety=0.5, s_end=0.05)
        res = experiments.flatness_run(flow.run(state, cfg), 0.5)
        assert res.tilt_excess[0] > 3.9
        assert res.tilt_excess[-1] < 1.0
        assert res.reached and res.eventually_decreasing and res.passed
        assert np.all(np.diff(res.tilt_excess[2:]) <= 1e-9)

    def test_wrinkled_slice_records_finite_crossing(self):
        grid = radial_grid(257)
        state = slicing_state(grid, wrinkled_profile(grid.axis()))
        cfg = flow.FlowConfig(cfl_safety=0.5, s_end=0.25)
        res = experiments.flatness_run(flow.run(state, cfg), 0.05)
        assert res.tilt_excess[0] > 0.3
        assert res.reached
        assert 0.005 < res.flattening_time < 0.05
        assert res.eventually_decreasing
        assert res.height_spread[-1] < res.height_spread[0]

    def test_crossing_time_stable_under_refinement(self):
        times = []
        for resolution in (129, 257):
            grid = radial_grid(resolution)
            state = slicing_state(grid, wrinkled_profile(grid.axis()))
            cfg = flow.FlowConfig(cfl_safety=0.5, s_end=0.25, snapshot_stride=20)
            res = experiments.flatness_run(flow.run(state, cfg), 0.05)
            assert res.reached
            times.append(res.flattening_time)
        assert abs(times[1] - times[0]) < 0.05 * times[0]

    def test_unreached_threshold_is_reported_not_fatal(self):
        grid = radial_grid(129)
        state = slicing_state(grid, wrinkled_profile(grid.axis()))
        cfg = flow.FlowConfig(cfl_safety=0.5, s_end=0.03)
        res = experiments.flatness_run(flow.run(state, cfg), 1e-4)
        assert not res.reached
        assert res.flattening_time is None

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.2])
    def test_rejects_theta_outside_open_interval(self, theta):
        # the range is checked once, where the config builds the value
        with pytest.raises(ValueError, match="theta"):
            config.ExperimentSpec(theta=theta)


class TestRescale:
    def test_lambda_zero_returns_original_fields(self):
        grid = radial_grid(257)
        rho = grid.axis()
        family = lambda s: 3.0 * s + 0.1 * (1.0 - np.exp(-(rho**2))) * np.exp(-s)
        traj = synthetic_trajectory(grid, np.linspace(-0.5, 0.5, 81), family)
        field = experiments.rescale_trajectory(traj, 0.0, 1.0)
        radii = np.sqrt(np.sum(field.points**2, axis=1))
        worst = max(
            float(np.max(np.abs(field.u[i] - np.interp(radii, rho, family(sv)))))
            for i, sv in enumerate(field.s)
        )
        assert worst < 1e-12

    def test_origin_value_is_exactly_zero(self, flattening_trajectory):
        field = experiments.rescale_trajectory(flattening_trajectory, 0.8, 1.0)
        at_zero = np.flatnonzero(field.s == 0.0)
        assert len(at_zero) == 1
        assert np.all(field.points[0] == 0.0)
        assert abs(field.u[at_zero[0]][0]) < 1e-14

    def test_matches_snapshotwise_recentring(self, flattening_trajectory):
        traj = flattening_trajectory
        grid = traj.final.grid
        rho = grid.axis()
        s_all = traj.s_values()
        profiles = np.stack([snap.u.values for snap in traj.snapshots])
        lam = 0.8
        field = experiments.rescale_trajectory(traj, lam, 1.0)
        shift = float(np.interp(lam, s_all, profiles[:, 0]))
        radii = np.sqrt(np.sum(field.points**2, axis=1))
        for i, sv in enumerate(field.s):
            snap_u = experiments._profile_at(s_all, profiles, sv + lam)
            recentred = pointwise.isometry_shift_state(
                flow.GraphState(
                    u=grids.Field(grid, snap_u),
                    s=0.0,
                    bc=flow.BoundaryCondition(flow.PINNED),
                ),
                shift,
            )
            expected = np.interp(radii, rho, recentred.u.values)
            assert np.max(np.abs(field.u[i] - expected)) < 1e-12

    # windows at the start, the middle and the end of the recorded span
    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.3])
    def test_tilt_reads_only_the_snapshots_that_bracket_the_window(
        self, flattening_trajectory, monkeypatch, lam
    ):
        traj = flattening_trajectory
        grid = traj.final.grid
        s_all = traj.s_values()
        tilts = np.stack([geometry.GeometryFields(grid, st.u.values).v for st in traj.snapshots])
        built = []

        class Counted(geometry.GeometryFields):
            def __init__(self, grid, u_values):
                built.append(grid.resolution)
                super().__init__(grid, u_values)

        monkeypatch.setattr(geometry, "GeometryFields", Counted)
        field = experiments.rescale_trajectory(traj, lam, 1.0)
        half, pad = 0.3, 1e-12 * max(1.0, s_all[-1])
        inside = s_all[(s_all >= lam - half - pad) & (s_all <= lam + half + pad)]
        assert 0 < len(built) <= len(inside) + 2 < len(s_all)
        # v equals its interpolation over every snapshot, bit for bit
        times = np.unique(np.concatenate([inside, [lam - half, lam, lam + half]]))
        assert np.array_equal(times - lam, field.s)
        pulled = np.exp(-field.offset) * field.points
        for tilt, tau in zip(field.tilt, times):
            v_prof = grids.Field(grid, experiments._profile_at(s_all, tilts, tau))
            assert np.array_equal(tilt, grids.interpolate(v_prof, pulled))

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ValueError, match="rho"):
            config.ExperimentSpec(rho=0.0)

    def test_window_outside_span_raises(self, flattening_trajectory):
        with pytest.raises(SpanTooShortError, match="recorded span"):
            experiments.rescale_trajectory(flattening_trajectory, 1.5, 1.0)

    def test_box_beyond_grid_names_lambda(self):
        # below height 0 the recentring stretches the box: e^0.6 x 1 > extent 1
        grid = radial_grid(33, extent=1.0)
        state = slicing_state(grid, np.full(grid.shape, -3.0))
        cfg = flow.FlowConfig(dt_fixed=0.05, s_end=1.2, snapshot_stride=1)
        with pytest.raises(OutOfDomainError, match="lambda 0.8"):
            experiments.rescale_trajectory(flow.run(state, cfg), 0.8, 1.0)


class TestConvergenceTable:
    def test_columns_decrease_on_flattening_run(self, flattening_trajectory):
        table = experiments.convergence_table(
            flattening_trajectory, np.array([0.4, 0.8, 1.2]), 1.0
        )
        assert table.decreasing
        assert np.all(np.diff(table.height_error) < 0)
        assert np.all(np.diff(table.tilt_error) < 0)
        assert np.all(table.height_error > 0)

    def test_flat_trajectory_gives_zero_rows(self):
        grid = radial_grid(65)
        state = slicing_state(grid, np.zeros(grid.shape))
        traj = flow.run(
            state, flow.FlowConfig(dt_fixed=1e-3, s_end=1.6)
        )
        table = experiments.convergence_table(
            traj, np.array([0.4, 0.8, 1.2]), 1.0
        )
        assert np.max(table.height_error) < 1e-12
        assert np.max(table.tilt_error) == 0.0

    def test_rejects_unsorted_lambdas(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            config.ExperimentSpec(lambdas=(0.8, 0.4))


class TestComparison:
    def make_pair(self):
        grid = radial_grid(129)
        rho = grid.axis()
        low = slicing_state(grid, 0.15 * np.exp(-(rho**2)) - 0.15)
        high = slicing_state(grid, 0.1 + 0.05 * np.cos(rho))
        return low, high

    @pytest.mark.parametrize("integrator", ["rk2", "implicit"])
    def test_ordered_pair_stays_ordered(self, integrator):
        low, high = self.make_pair()
        cfg = flow.FlowConfig(integrator=integrator, cfl_safety=0.5, s_end=1.0)
        res = pointwise.comparison_run(flow.run(low, cfg), flow.run(high, cfg))
        assert res.ordered
        assert np.all(res.worst_gap <= res.tolerance)
        assert res.tolerance == pytest.approx(10.0 * low.grid.spacing**2)

    # The rejections read short runs: the pinned-boundary pair below loses
    # its margin at the rim long before the default s_end.
    SHORT = flow.FlowConfig(s_end=0.01)

    def test_rejects_mismatched_grids(self):
        low, _ = self.make_pair()
        other = radial_grid(65)
        high = slicing_state(other, np.full(other.shape, 0.2))
        with pytest.raises(ValueError, match="share a grid"):
            pointwise.comparison_run(flow.run(low, self.SHORT), flow.run(high, self.SHORT))

    def test_rejects_mismatched_boundary_kinds(self):
        low, high = self.make_pair()
        high = flow.GraphState(
            u=high.u, s=0.0, bc=flow.BoundaryCondition(flow.PINNED)
        )
        with pytest.raises(ValueError, match="boundary kind"):
            pointwise.comparison_run(flow.run(low, self.SHORT), flow.run(high, self.SHORT))

    def test_rejects_unordered_initial_data(self):
        low, high = self.make_pair()
        with pytest.raises(ValueError, match="ordered"):
            pointwise.comparison_run(flow.run(high, self.SHORT), flow.run(low, self.SHORT))

    def test_rejects_a_failed_run(self):
        low, high = self.make_pair()
        stopped = flow.run(high, flow.FlowConfig(s_end=0.01, max_steps=1))
        assert stopped.failure is not None
        with pytest.raises(ValueError, match="max_steps"):
            pointwise.comparison_run(flow.run(low, self.SHORT), stopped)


def test_halving_cfl_changes_less_than_grid_error():
    grid = radial_grid(129)
    state = slicing_state(grid, wrinkled_profile(grid.axis()))
    finals = []
    for cfl in (0.5, 0.25):
        traj = flow.run(state, flow.FlowConfig(cfl_safety=cfl, s_end=0.4))
        assert traj.failure is None
        finals.append(traj.final.u.values)
    assert np.max(np.abs(finals[0] - finals[1])) < 10.0 * grid.spacing**2
