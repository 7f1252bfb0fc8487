"""Time stepping: exactness on slices, integrator orders, boundary rules,
failure handling, and the radial/cartesian cross-mode oracle."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from dsmcf import config, flow, geometry, grids
from dsmcf.errors import OutOfDomainError, ValidationError

import pointwise


def radial_state(resolution=33, extent=2.0, amplitude=0.2, kind=flow.PINNED):
    grid = grids.Grid(grids.RADIAL, 3, extent=extent, resolution=resolution)
    rho = grid.axis()
    u0 = amplitude * np.exp(-(rho**2))
    return flow.GraphState(
        u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(kind)
    )


# ---------------------------------------------------------------------------
# stable step


def test_stable_dt_frozen_flat_slice():
    grid = grids.Grid(grids.CARTESIAN, 3, extent=1.0, resolution=21)
    assert grid.spacing == pytest.approx(0.1)
    state = flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    dt = flow.stable_dt(state, cfl_safety=0.25)
    assert dt == pytest.approx(0.25 * 0.01 / 6.0, rel=1e-12)
    # raising the slice by ln 2 scales e^{2u} and hence dt by 4
    up = flow.GraphState(
        u=grids.Field(grid, np.full(grid.shape, math.log(2.0))),
        s=0.0,
        bc=state.bc,
    )
    assert flow.stable_dt(up, 0.25) == pytest.approx(4.0 * dt, rel=1e-12)


def test_stable_dt_matches_formula_on_tilted_state():
    state = radial_state(amplitude=0.4)
    _, v2, _, margin = geometry.graph_speed_fields(state.u.values, state.grid)
    expected = (
        0.3
        * state.grid.spacing**2
        * float(np.min(np.exp(2.0 * state.u.values) * margin))
        / 6.0
    )
    assert flow.stable_dt(state, 0.3) == pytest.approx(expected, rel=1e-12)


def test_flat_slicing_run_to_huge_heights_does_not_overflow():
    """e^{2u} overflows once u passes about 354; the stable step is taken in
    log form, and a bound beyond the largest float is inf, so dt_max rules."""
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    state = flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = flow.run(state, flow.FlowConfig(integrator="euler", s_end=130.0))
        assert flow.stable_dt(traj.final) == math.inf
    assert traj.failure is None
    assert traj.final.s == pytest.approx(130.0, rel=1e-14)
    np.testing.assert_allclose(traj.final.u.values, 390.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# one kernel evaluation per explicit stage


@pytest.mark.parametrize("integrator, stages", [("euler", 1), ("rk2", 2), ("rk4", 4)])
def test_run_evaluates_the_kernel_once_per_stage(monkeypatch, integrator, stages):
    kernel = geometry.graph_speed_fields
    calls = []

    def counted(u_values, grid):
        calls.append(1)
        return kernel(u_values, grid)

    monkeypatch.setattr(geometry, "graph_speed_fields", counted)
    cfg = flow.FlowConfig(integrator=integrator, s_end=4e-3, snapshot_stride=7)
    traj = flow.run(radial_state(amplitude=0.4), cfg)
    assert traj.failure is None and traj.steps > 10
    assert len(calls) == stages * traj.steps


@pytest.mark.parametrize("integrator", ["euler", "rk2", "rk4"])
def test_run_matches_a_loop_of_public_steps(integrator):
    """``run`` reuses one kernel evaluation for dt and the first stage; a
    loop of the public calls, each making its own evaluation, gives the
    same bits."""
    state = radial_state(amplitude=0.4)
    cfg = flow.FlowConfig(integrator=integrator, s_end=4e-3, snapshot_stride=7)
    traj = flow.run(state, cfg)

    current = state.copy()
    snapshots, dts = [current.copy()], [0.0]
    steps = 0
    while current.s < cfg.s_end - 1e-14 * max(1.0, cfg.s_end):
        dt = min(flow.stable_dt(current, cfg.cfl_safety), cfg.dt_max, cfg.s_end - current.s)
        current = flow.step(current, dt, cfg)
        steps += 1
        if steps % cfg.snapshot_stride == 0 or current.s >= cfg.s_end - 1e-14:
            snapshots.append(current.copy())
            dts.append(dt)

    assert traj.failure is None and traj.steps == steps
    # the step landing on s_end lies off the stride and is still recorded
    assert steps % cfg.snapshot_stride != 0
    assert current.s == traj.final.s
    assert traj.dt_history == dts
    assert [snap.s for snap in traj.snapshots] == [snap.s for snap in snapshots]
    for ours, theirs in zip(traj.snapshots, snapshots):
        np.testing.assert_array_equal(ours.u.values, theirs.u.values)


@pytest.mark.parametrize("integrator", flow.INTEGRATORS)
def test_fixed_step_run_matches_a_loop_of_public_steps(integrator, monkeypatch):
    """With ``dt_fixed`` every integrator takes the explicit path of ``run``
    (one kernel evaluation feeds ``step``) and never asks ``stable_dt``."""
    state = radial_state(amplitude=0.4)
    cfg = flow.FlowConfig(integrator=integrator, s_end=1e-3, snapshot_stride=3, dt_fixed=7e-5)
    current = state.copy()
    snapshots, dts = [current.copy()], [0.0]
    steps = 0
    while current.s < cfg.s_end - 1e-14 * max(1.0, cfg.s_end):
        dt = min(cfg.dt_fixed, cfg.s_end - current.s)
        current = flow.step(current, dt, cfg)
        steps += 1
        if steps % cfg.snapshot_stride == 0 or current.s >= cfg.s_end - 1e-14:
            snapshots.append(current.copy())
            dts.append(dt)

    def no_stable_dt(*args, **kwargs):
        raise AssertionError("stable_dt consulted under dt_fixed")

    monkeypatch.setattr(flow, "stable_dt", no_stable_dt)
    traj = flow.run(state, cfg)
    assert traj.failure is None and traj.steps == steps
    assert traj.dt_history == dts
    assert [snap.s for snap in traj.snapshots] == [snap.s for snap in snapshots]
    for ours, theirs in zip(traj.snapshots, snapshots):
        np.testing.assert_array_equal(ours.u.values, theirs.u.values)


def test_step_reuses_given_fields_and_skips_diagnostics():
    state = radial_state(amplitude=0.4)
    cfg = flow.FlowConfig(integrator="rk2")
    # the fields ``run`` hands to ``step``: the kernel's, with the boundary speed
    fields = flow._kernel(state.u.values, state.grid, state.bc, state.s)
    dt = flow.stable_dt(state, cfg.cfl_safety)
    assert flow.stable_dt(state, cfg.cfl_safety, margin=fields[3]) == dt
    plain = flow.step(state, dt, cfg)
    reused = flow.step(state, dt, cfg, fields=fields)
    # a step returns the bare state: diagnostics come from ``diagnose``
    assert isinstance(reused, flow.GraphState)
    np.testing.assert_array_equal(plain.u.values, reused.u.values)


# ---------------------------------------------------------------------------
# exactness on flat slices


@pytest.mark.parametrize("integrator", flow.INTEGRATORS)
def test_flat_slice_evolves_exactly(integrator):
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=33)
    c = 0.1
    state = flow.GraphState(
        u=grids.Field(grid, np.full(grid.shape, c)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    cfg = flow.FlowConfig(integrator=integrator, s_end=0.5)
    traj = flow.run(state, cfg)
    assert traj.failure is None
    final = traj.final
    assert final.s == pytest.approx(0.5, abs=1e-12)
    err = np.max(np.abs(final.u.values - (c + 3.0 * final.s)))
    assert err < 1e-12 * (1.0 + final.s)


def test_single_step_on_slice_is_exact():
    state = radial_state(amplitude=0.0, kind=flow.SLICING)
    new = flow.step(state, 0.01, flow.FlowConfig(integrator="euler"))
    np.testing.assert_allclose(new.u.values, 0.03, atol=1e-15)
    diag = flow.diagnose(new)
    assert diag.min_margin == pytest.approx(1.0, abs=1e-14)
    assert diag.max_H == pytest.approx(3.0, abs=1e-12)
    assert diag.mean_convexity_violations == 0


def test_flat_slice_cartesian_two_dim():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=17)
    state = flow.GraphState(
        u=grids.Field(grid, np.full(grid.shape, -0.2)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    traj = flow.run(state, flow.FlowConfig(s_end=0.3))
    err = np.max(np.abs(traj.final.u.values - (-0.2 + 2.0 * 0.3)))
    assert err < 1e-12 * 1.3


# ---------------------------------------------------------------------------
# integrator temporal order


def test_integrator_orders():
    state = radial_state()
    s_end = 2.56e-3

    def final_values(integrator, dt):
        cfg = flow.FlowConfig(
            integrator=integrator, dt_fixed=dt, s_end=s_end, snapshot_stride=10**6
        )
        traj = flow.run(state.copy(), cfg)
        assert traj.failure is None
        return traj.final.u.values

    ref = final_values("rk4", 1e-5)
    orders = {}
    for integrator in flow.INTEGRATORS:
        errs = [
            float(np.max(np.abs(final_values(integrator, dt) - ref)))
            for dt in (1.6e-4, 8e-5)
        ]
        orders[integrator] = math.log2(errs[0] / errs[1])
    assert 0.8 <= orders["euler"] <= 1.2
    assert 1.8 <= orders["rk2"] <= 2.2
    assert 3.5 <= orders["rk4"] <= 4.5
    assert 0.8 <= orders["implicit"] <= 1.2


# ---------------------------------------------------------------------------
# implicit integrator


def test_radial_speed_jacobian_matches_difference_quotients():
    grid = grids.Grid(grids.RADIAL, 3, extent=2.0, resolution=21)
    rho = grid.axis()
    u = 0.3 * np.exp(-(rho**2)) + 0.1 * np.sin(rho)
    ab = geometry.radial_speed_jacobian(u, grid)
    size = grid.resolution
    analytic = np.zeros((size, size))
    for i in range(size):
        for j in range(max(0, i - 1), min(size, i + 4)):
            analytic[i, j] = ab[3 + i - j, j]
    eps = 1e-6
    quotients = np.empty((size, size))
    for j in range(size):
        up, down = u.copy(), u.copy()
        up[j] += eps
        down[j] -= eps
        quotients[:, j] = (
            geometry.graph_speed_fields(up, grid)[0]
            - geometry.graph_speed_fields(down, grid)[0]
        ) / (2.0 * eps)
    # the boundary row is left to the boundary condition
    scale = np.max(np.abs(quotients))
    np.testing.assert_allclose(analytic[:-1], quotients[:-1], atol=1e-9 * scale)
    assert not np.any(analytic[-1])


def test_implicit_rejects_cartesian_grid():
    # the one check, made where the config pairs the integrator and the grid
    doc = '{"grid": {"mode": "cartesian"}, "flow": {"integrator": "implicit"}}'
    with pytest.raises(ValidationError, match="implicit.*radial"):
        config.parse_config(doc)


def test_implicit_run_lands_on_s_end_with_accuracy_control(monkeypatch):
    state = radial_state(kind=flow.SLICING)
    s_end = 0.05
    ref = flow.run(state.copy(), flow.FlowConfig(integrator="rk4", s_end=s_end))
    cfg = flow.FlowConfig(integrator="implicit", s_end=s_end)
    loose = flow.run(state.copy(), cfg)
    monkeypatch.setattr(flow, "STEP_TOL", 1e-2 * flow.STEP_TOL)
    traj = flow.run(state.copy(), cfg)
    assert traj.failure is None
    assert traj.final.s == s_end
    assert traj.steps < 100
    diag = flow.diagnose(traj.final)
    margin = geometry.graph_speed_fields(traj.final.u.values, state.grid)[3]
    assert diag.s == s_end
    assert diag.min_margin == pytest.approx(float(np.min(margin)), rel=1e-12)
    assert diag.min_margin_at == (int(np.argmin(margin)),)
    errors = [
        float(np.max(np.abs(run.final.u.values - ref.final.u.values)))
        for run in (loose, traj)
    ]
    assert loose.steps < traj.steps
    assert errors[1] < errors[0] < 1e-3


def test_implicit_pinned_small_disk_reaches_s_end():
    """The pinned disk of radius 0.5 settles to a stationary profile, where
    dt max|S| falls within Newton's tolerance; full-size steps still count,
    so the run reaches s_end instead of stalling."""
    grid = grids.Grid(grids.RADIAL, 3, extent=0.5, resolution=65)
    state = flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.PINNED),
    )
    traj = flow.run(state, flow.FlowConfig(integrator="implicit", s_end=3.0))
    assert traj.failure is None
    assert traj.final.s == 3.0 and traj.steps == 99
    assert traj.final.u.values[0] == pytest.approx(0.14385037138780454, rel=1e-12)


@pytest.mark.parametrize("bad", [{"dt_max": 0.0}, {"dt_fixed": -1e-3}])
def test_flow_config_rejects_nonpositive_steps(bad):
    with pytest.raises(ValueError):
        flow.FlowConfig(**bad)


# ---------------------------------------------------------------------------
# trajectories, snapshots, windows


def test_trajectory_snapshot_times():
    state = radial_state()
    cfg = flow.FlowConfig(dt_fixed=1e-3, s_end=0.02, snapshot_stride=5)
    traj = flow.run(state, cfg)
    assert traj.failure is None
    s_vals = traj.s_values()
    assert np.all(np.diff(s_vals) > 0)
    np.testing.assert_allclose(s_vals, [0.0, 5e-3, 1e-2, 1.5e-2, 2e-2], atol=1e-12)


def test_evolve_window():
    state = radial_state()
    win = flow.evolve_window(state, 1e-4, flow.FlowConfig())
    assert win.dt == 1e-4
    assert win.after.s == pytest.approx(2e-4, abs=1e-15)
    assert win.mid.s == pytest.approx(1e-4, abs=1e-15)


# ---------------------------------------------------------------------------
# failure handling


def test_run_records_blowup_instead_of_raising():
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    state = flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    cfg = flow.FlowConfig(s_end=1.0, blowup_cap=0.05, dt_fixed=1e-3)
    traj = flow.run(state, cfg)
    assert traj.failure is not None and "cap" in traj.failure
    assert len(traj.snapshots) >= 1


def test_run_records_margin_loss_instead_of_raising():
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=17)
    state = flow.GraphState(
        u=grids.Field(grid, 2.0 * grid.axis()),  # slope 2 is timelike near the axis
        s=0.0,
        bc=flow.BoundaryCondition(flow.FROZEN),
    )
    traj = flow.run(state, flow.FlowConfig(s_end=0.1))
    assert traj.failure is not None and "margin" in traj.failure


def test_run_records_non_finite_heights_instead_of_raising(monkeypatch):
    kernel = geometry.graph_speed_fields

    def poisoned(u_values, grid):
        speed, v2, H, margin = kernel(u_values, grid)
        return np.full_like(speed, np.nan), v2, H, margin

    monkeypatch.setattr(geometry, "graph_speed_fields", poisoned)
    traj = flow.run(radial_state(), flow.FlowConfig(integrator="euler", s_end=1e-3))
    assert traj.failure is not None and "non-finite" in traj.failure
    assert traj.steps == 0 and len(traj.snapshots) == 1


def test_run_scans_a_stepped_state_once(monkeypatch):
    """The blow-up check of ``_finish_step`` is the one finiteness scan of a
    stepped state, so a ``Field`` (which scans on construction) is built per
    recorded snapshot, not per step."""
    grid = grids.Grid(grids.RADIAL, 3, extent=4.0, resolution=2048)
    state = flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.PINNED),
    )
    cfg = flow.FlowConfig(integrator="euler", cfl_safety=0.5, s_end=2e-4, snapshot_stride=100)
    post_init = grids.Field.__post_init__
    scans = []

    def counted(field):
        scans.append(1)
        post_init(field)

    monkeypatch.setattr(grids.Field, "__post_init__", counted)
    traj = flow.run(state, cfg)
    assert traj.failure is None and traj.steps > 10 * len(traj.snapshots)
    # the run's own copy and its first snapshot, then one per recorded step
    assert len(scans) <= len(traj.snapshots) + 1


def test_max_steps_guard():
    state = radial_state()
    cfg = flow.FlowConfig(dt_fixed=1e-6, s_end=1.0, max_steps=10)
    traj = flow.run(state, cfg)
    assert traj.failure is not None and "max_steps" in traj.failure


# ---------------------------------------------------------------------------
# boundary conditions


def test_boundary_condition_is_a_kind_and_its_speed():
    assert [f.name for f in dataclasses.fields(flow.BoundaryCondition)] == ["kind"]
    speeds = {kind: flow.BoundaryCondition(kind).speed(3) for kind in flow.BC_KINDS}
    assert speeds == {flow.PINNED: 0.0, flow.SLICING: 3.0, flow.FROZEN: 0.0}


@pytest.mark.parametrize("kind", flow.BC_KINDS)
@pytest.mark.parametrize("integrator", flow.INTEGRATORS)
def test_step_moves_the_boundary_at_its_speed(integrator, kind):
    """``step`` takes a state as constructed, and every integrator moves the
    boundary node by dt times the boundary speed."""
    state = radial_state(amplitude=0.4, kind=kind)
    dt = 1e-4
    new = flow.step(state, dt, flow.FlowConfig(integrator=integrator))
    expected = state.u.values[-1] + dt * state.bc.speed(3)
    assert new.s == dt
    assert new.u.values[-1] == pytest.approx(expected, abs=1e-15)


def test_pinned_boundary_stays_constant():
    state = radial_state(kind=flow.PINNED)
    boundary_value = float(state.u.values[-1])
    traj = flow.run(state, flow.FlowConfig(dt_fixed=1e-4, s_end=5e-3))
    assert traj.failure is None
    assert traj.final.u.values[-1] == pytest.approx(boundary_value, abs=1e-14)


def test_pinned_rejects_nonconstant_boundary():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=9)
    X, Y = grid.meshes()
    state = flow.GraphState(
        u=grids.Field(grid, 0.1 * X),
        s=0.0,
        bc=flow.BoundaryCondition(flow.PINNED),
    )
    with pytest.raises(ValueError):
        state.bc.check(state)


def test_frozen_boundary_keeps_initial_profile():
    """Every node on a face, edge or corner keeps its height; the rest move."""
    for dimension in (2, 3):
        grid = grids.Grid(grids.CARTESIAN, dimension, extent=1.0, resolution=9)
        X, Y = grid.meshes()[:2]
        u0 = 0.05 * X + 0.02 * Y**2
        state = flow.GraphState(
            u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(flow.FROZEN)
        )
        traj = flow.run(state, flow.FlowConfig(dt_fixed=1e-4, s_end=2e-3))
        assert traj.failure is None
        on_boundary = np.zeros(grid.shape, dtype=bool)
        for axis in range(dimension):
            np.moveaxis(on_boundary, axis, 0)[[0, -1]] = True
        assert int(np.sum(on_boundary)) == 9**dimension - 7**dimension
        final = traj.final.u.values
        np.testing.assert_allclose(final[on_boundary], u0[on_boundary], atol=1e-14)
        assert np.all(np.abs(final - u0)[~on_boundary] > 1e-4)


def test_slicing_boundary_tracks_flat_motion():
    state = radial_state(kind=flow.SLICING)
    u0_boundary = float(state.u.values[-1])
    traj = flow.run(state, flow.FlowConfig(dt_fixed=1e-4, s_end=5e-3))
    expected = u0_boundary + 3.0 * traj.final.s
    assert traj.final.u.values[-1] == pytest.approx(expected, abs=1e-13)


# ---------------------------------------------------------------------------
# isometry shift at the state level


def test_isometry_shift_matches_analytic_pullback():
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=33)
    rho = grid.axis()
    state = flow.GraphState(
        u=grids.Field(grid, 0.5 - 0.2 * rho**2),
        s=0.0,
        bc=flow.BoundaryCondition(flow.FROZEN),
    )
    a = 0.4
    shifted = pointwise.isometry_shift_state(state, a)
    expected = 0.5 - 0.2 * (math.exp(-a) * rho) ** 2 - a
    np.testing.assert_allclose(shifted.u.values, expected, atol=1e-4)
    with pytest.raises(OutOfDomainError):
        pointwise.isometry_shift_state(state, -0.1)


def test_isometry_commutes_with_flow_on_slices():
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=17)
    state = flow.GraphState(
        u=grids.Field(grid, np.full(grid.shape, 0.2)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    a = 0.3
    cfg = flow.FlowConfig(s_end=0.25)
    shifted_then_flowed = flow.run(pointwise.isometry_shift_state(state, a), cfg).final
    flowed_then_shifted = pointwise.isometry_shift_state(flow.run(state, cfg).final, a)
    np.testing.assert_allclose(
        shifted_then_flowed.u.values, flowed_then_shifted.u.values, atol=1e-12
    )


# ---------------------------------------------------------------------------
# mean convexity diagnostics


def test_mean_convexity_flat_and_barrier_data():
    diag = flow.diagnose(radial_state(amplitude=0.0))
    assert diag.mean_convexity_violations == 0
    assert diag.min_H == pytest.approx(3.0, abs=1e-10)


def test_mean_convexity_violated_by_shifted_concave_bump():
    grid = grids.Grid(grids.RADIAL, 3, extent=3.0, resolution=129)
    rho = grid.axis()
    state = flow.GraphState(
        u=grids.Field(grid, -1.15 - 0.3 * np.exp(-(rho**2))),
        s=0.0,
        bc=flow.BoundaryCondition(flow.FROZEN),
    )
    diag = flow.diagnose(state)
    assert diag.mean_convexity_violations > 0
    assert diag.min_H < 0


# ---------------------------------------------------------------------------
# cross-mode oracle


def test_radial_and_cartesian_runs_agree_at_matched_time():
    """A rotationally symmetric bump evolved in full cartesian mode converges
    at stencil order to the high-resolution radial run of the same data."""
    s_end = 0.05
    extent = 3.0

    ref_grid = grids.Grid(grids.RADIAL, 3, extent=extent, resolution=257)
    rho = ref_grid.axis()
    ref_state = flow.GraphState(
        u=grids.Field(ref_grid, 0.1 * np.exp(-(rho**2))),
        s=0.0,
        bc=flow.BoundaryCondition(flow.SLICING),
    )
    ref = flow.run(ref_state, flow.FlowConfig(s_end=s_end))
    assert ref.failure is None

    sample_rho = rho[rho <= 2.0]
    ref_vals = np.interp(sample_rho, rho, ref.final.u.values)
    diag = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    errors = []
    for res in (25, 49):
        grid = grids.Grid(grids.CARTESIAN, 3, extent=extent, resolution=res)
        r2 = grid.radius_squared()
        state = flow.GraphState(
            u=grids.Field(grid, 0.1 * np.exp(-r2)),
            s=0.0,
            bc=flow.BoundaryCondition(flow.SLICING),
        )
        traj = flow.run(state, flow.FlowConfig(s_end=s_end))
        assert traj.failure is None
        worst = 0.0
        for direction in (np.array([1.0, 0.0, 0.0]), diag):
            pts = sample_rho[:, None] * direction[None, :]
            vals = grids.interpolate(traj.final.u, pts)
            worst = max(worst, float(np.max(np.abs(vals - ref_vals))))
        errors.append(worst)
    order = grids.refinement_order(*errors)
    assert 1.5 <= order <= 2.5, f"cross-mode order {order:.2f}"
