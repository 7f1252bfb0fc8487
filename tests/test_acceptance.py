"""End-to-end acceptance runs.

Each test is one numbered criterion and prints a single pass/fail line
with the measured quantities, so ``pytest tests/test_acceptance.py -v -s``
reads as a checklist.  Criterion 6 runs the pinned disk with the implicit
integrator: its spacelike margin collapses toward the null cone near the
rim, which starves every explicit step, while backward Euler under an
accuracy control carries the run past the crossing at full resolution.
"""

import time

import numpy as np
import pytest

from dsmcf import experiments, flow, geometry, grids, oracles

import pointwise

ORDER_LO, ORDER_HI = 1.7, 2.3


def report_line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def radial_grid(resolution, extent=3.0):
    return grids.Grid(grids.RADIAL, 3, extent=extent, resolution=resolution)


def slicing_state(grid, u0):
    return flow.GraphState(
        u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(flow.SLICING)
    )


def bump_state(resolution, amplitude=0.2, extent=3.0, height=0.0):
    grid = radial_grid(resolution, extent)
    rho = grid.axis()
    return slicing_state(grid, height + amplitude * np.exp(-(rho**2)))


def wrinkled_state(resolution, extent=3.0):
    grid = radial_grid(resolution, extent)
    rho = grid.axis()
    f = np.sin(3.0 * rho) * np.exp(-((rho / 1.2) ** 2))
    return slicing_state(grid, 0.2 * f / np.max(np.abs(f)))


def rates(state, *fields):
    """``oracles.WindowRates`` of ``fields`` at ``state``."""
    win = flow.evolve_window(state, flow.FlowConfig())
    return oracles.material_rate(state, win, fields)


def tilt_rates(state):
    return rates(state, oracles.tilt_squared)


def weight_rates(state, spec):
    return rates(state, oracles.WeightField(spec))


def refined(check, measure, coarse, fine):
    """``oracles.refined`` on ``check`` of ``measure`` (a geometry or window
    rates) over a grid-halving pair of states."""
    reports = [oracles.report_list(check(measure(x))) for x in (coarse, fine)]
    return oracles.refined(*reports)


def moderated_jets(rng, count):
    """Random spacelike jets kept away from the null cone (margin >= 0.4)
    with moderate curvature, where the closed forms evaluate to rounding."""
    u = rng.uniform(-0.5, 0.5, count)
    direction = rng.normal(size=(3, count))
    direction /= np.linalg.norm(direction, axis=0)
    mag = np.sqrt(rng.uniform(0.0, 0.6, count) * np.exp(2.0 * u))
    d2u = rng.normal(scale=0.2, size=(3, 3, count))
    d2u = 0.5 * (d2u + np.swapaxes(d2u, 0, 1))
    return geometry.JetFields(u, direction * mag, d2u)


def test_1_flat_slicing_exactness():
    started = time.perf_counter()
    worst_u = worst_v = worst_h = 0.0
    for integrator in flow.INTEGRATORS:
        grid = radial_grid(17, extent=1.0)
        state = slicing_state(grid, np.zeros(grid.shape))
        cfg = flow.FlowConfig(
            integrator=integrator, cfl_safety=0.5, s_end=10.0, snapshot_stride=10
        )
        traj = flow.run(state, cfg)
        assert traj.failure is None
        assert traj.final.s == pytest.approx(10.0, abs=1e-12)
        for snap in traj.snapshots:
            worst_u = max(worst_u, float(np.max(np.abs(snap.u.values - 3.0 * snap.s))))
            _, v2, big_h, _ = geometry.graph_speed_fields(snap.u.values, grid)
            worst_v = max(worst_v, float(np.max(np.abs(np.sqrt(v2) - 1.0))))
            worst_h = max(worst_h, float(np.max(np.abs(big_h - 3.0))))
    elapsed = time.perf_counter() - started
    ok = worst_u < 1e-10 and worst_v < 1e-12 and worst_h < 1e-12 and elapsed < 1.0
    report_line(
        1,
        ok,
        f"max |u - 3s| {worst_u:.2e}, max |v - 1| {worst_v:.2e}, "
        f"max |H - 3| {worst_h:.2e} over all integrators, {elapsed:.2f}s",
    )
    assert ok


def test_2_pointwise_identities_on_random_jets():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    jets = moderated_jets(rng, 100_000)
    restriction = oracles.restriction_gradient_residuals(jets)
    vec, scal = oracles.tilt_gradient_residuals(jets, jets.dv)
    worst = max(
        max(float(np.max(np.abs(arr))) for arr in restriction.values()),
        float(np.max(np.abs(vec))),
        float(np.max(np.abs(scal))),
    )
    lam = jets.extremal_curvature()
    pinch = float(np.min(jets.a2 + jets.H**2 - (4.0 / 3.0) * lam**2))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and pinch > -1e-10 and elapsed < 30.0
    report_line(
        2,
        ok,
        f"max identity residual {worst:.2e} on 100000 jets, "
        f"min pinching slack {pinch:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_3_discrete_laplacian_refinement_orders():
    started = time.perf_counter()

    def cart_state(res):
        grid = grids.Grid(grids.CARTESIAN, 3, extent=np.pi, resolution=res)
        x, y, _ = grid.meshes()
        return flow.GraphState(
            u=grids.Field(grid, 0.1 * np.sin(x) * np.cos(y)),
            s=0.0,
            bc=flow.BoundaryCondition(flow.PINNED),
        )

    orders = {}
    closed, wave = refined(
        oracles.check_coordinate_laplacians,
        oracles.snapshot_geometry,
        bump_state(65, amplitude=0.1),
        bump_state(129, amplitude=0.1),
    )
    orders["radial"] = closed.order
    orders["radial_dual"] = wave.order
    closed, wave = refined(
        oracles.check_coordinate_laplacians,
        oracles.snapshot_geometry,
        cart_state(33),
        cart_state(65),
    )
    orders["cartesian"] = closed.order
    orders["cartesian_dual"] = wave.order
    (tilt,) = refined(
        oracles.check_tilt_gradient,
        oracles.snapshot_geometry,
        bump_state(65, amplitude=0.1),
        bump_state(129, amplitude=0.1),
    )
    orders["radial_tilt"] = tilt.order
    elapsed = time.perf_counter() - started
    ok = all(ORDER_LO < order < ORDER_HI for order in orders.values()) and elapsed < 120.0
    pretty = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    report_line(3, ok, f"observed orders: {pretty}, {elapsed:.1f}s")
    assert ok


def test_4_tilt_evolution_refinement():
    started = time.perf_counter()
    (rep,) = refined(oracles.check_tilt_evolution, tilt_rates, bump_state(33), bump_state(65))
    flat = oracles.check_tilt_evolution(tilt_rates(bump_state(33, amplitude=0.0)))
    elapsed = time.perf_counter() - started
    ok = rep.order >= 1.7 and flat.linf < 1e-10 and elapsed < 300.0
    report_line(
        4,
        ok,
        f"bump order {rep.order:.2f}, flat residual {flat.linf:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_5_inequality_suite_with_negative_control():
    started = time.perf_counter()
    bump_win = tilt_rates(bump_state(65))
    worst = []
    for delta in (0.0, 1.0 / 6.0, 1.0 / 3.0):
        for rep in oracles.check_tilt_bounds(bump_win, delta):
            assert rep.passed, rep.summary()
            worst.append(rep.worst_slack / max(rep.tolerance, 1e-300))
    high = bump_state(65, amplitude=0.0, extent=2.0, height=10.0)
    for alpha in (0.5, 1.0):
        spec = geometry.CutoffSpec(alpha=alpha, epsilon=0.1, t_min=10.0)
        evo = oracles.check_weight_evolution(weight_rates(high, spec), spec)
        grad = oracles.check_weight_gradient(oracles.snapshot_geometry(high), spec)
        assert evo.passed and evo.violations == 0, evo.summary()
        assert grad.passed and grad.violations == 0, grad.summary()
    control = geometry.CutoffSpec(alpha=1.9, epsilon=0.1, t_min=0.5)
    low = bump_state(129, amplitude=0.0, height=1.0)
    evo = oracles.check_weight_evolution(weight_rates(low, control), control)
    grad = oracles.check_weight_gradient(oracles.snapshot_geometry(low), control)
    elapsed = time.perf_counter() - started
    ok = (
        evo.violations > 0
        and not evo.passed
        and grad.violations > 0
        and elapsed < 300.0
    )
    report_line(
        5,
        ok,
        f"9 one-sided bounds hold (worst slack/tol {min(worst):.1f}), weight bounds "
        f"hold at both exponents, negative control reports {evo.violations} + "
        f"{grad.violations} violations, {elapsed:.1f}s",
    )
    assert ok


def test_6_pinned_disk_barrier():
    """The full barrier run: the pinned disk at 2048 nodes to s = 1.2.

    The discrete pinned disk develops a near-null skirt inside a unit
    collar of the rim while its interior climbs at rate 3, so the
    spacelike margin collapses there and with it every explicit stable
    step.  The implicit integrator steps by accuracy instead; the margin
    floor is still checked on every node of every Newton iterate.  The
    snapshots sample the run about every 0.01 in s.  The smallest margin,
    its radius and the mean-convexity violations of the final state are
    reported, not asserted: they show the skirt's resolution limit."""
    started = time.perf_counter()
    grid = radial_grid(2048, extent=4.0)
    state = flow.GraphState(
        u=grids.Field(grid, np.zeros(grid.shape)),
        s=0.0,
        bc=flow.BoundaryCondition(flow.PINNED),
    )
    cfg = flow.FlowConfig(
        integrator="implicit",
        s_end=1.2,
        max_steps=1_500_000,
        snapshot_stride=1,
    )
    traj = flow.run(state, cfg)
    h2 = grid.spacing**2
    s = traj.s_values()
    w = np.array([float(snap.u.values[0]) for snap in traj.snapshots])
    monotone = bool(np.all(np.diff(w) > 0.0))
    within = bool(np.all(w <= 3.0 * s + 10.0 * h2))
    crossed = bool(np.any(w > 1.0))
    complete = traj.failure is None and s[-1] >= 1.0
    elapsed = time.perf_counter() - started
    ok = monotone and within and crossed and complete and elapsed < 600.0
    last = flow.diagnose(traj.final)
    skirt = (
        f"min margin {last.min_margin:.2e} at rho "
        f"{grid.axis()[last.min_margin_at]:.4f}, "
        f"{last.mean_convexity_violations} mean-convexity violations"
    )
    report_line(
        6,
        ok,
        f"reached s {s[-1]:.3f} of 1.2 in {traj.steps} steps, w(0) {w[-1]:.3f}, "
        f"monotone {monotone}, under 3s + 10h^2 {within}, crossed 1.0 {crossed}, "
        f"{skirt}, failure: {traj.failure}, {elapsed:.0f}s",
    )
    assert monotone and within, "the center must climb monotonically under 3s + 10h^2"
    assert ok, (
        "the implicit run must cross 1.0 and reach s >= 1 without failure "
        "within 600 s"
    )


def test_7_flattening_time_stable_under_refinement():
    started = time.perf_counter()
    cfg_lo = flow.FlowConfig(cfl_safety=0.5, s_end=1.6, snapshot_stride=20)
    cfg_hi = flow.FlowConfig(cfl_safety=0.5, s_end=0.25, snapshot_stride=50)
    lo = experiments.flatness_run(flow.run(wrinkled_state(513), cfg_lo), 0.05)
    hi = experiments.flatness_run(flow.run(wrinkled_state(1025), cfg_hi), 0.05)
    elapsed = time.perf_counter() - started
    rel = abs(lo.flattening_time - hi.flattening_time) / lo.flattening_time
    ok = lo.reached and hi.reached and rel < 0.05 and elapsed < 600.0
    report_line(
        7,
        ok,
        f"flattening time {lo.flattening_time:.5f} at 513 nodes, "
        f"{hi.flattening_time:.5f} at 1025, relative change {rel:.3%}, {elapsed:.0f}s",
    )
    assert ok


def test_8_recentred_convergence_table():
    started = time.perf_counter()
    cfg = flow.FlowConfig(cfl_safety=0.5, s_end=1.6, snapshot_stride=20)
    traj = flow.run(wrinkled_state(513), cfg)
    assert traj.failure is None
    table = experiments.convergence_table(traj, np.array([0.4, 0.8, 1.2]), 1.0)
    flat_grid = radial_grid(65)
    flat_traj = flow.run(
        slicing_state(flat_grid, np.zeros(flat_grid.shape)),
        flow.FlowConfig(dt_fixed=1e-3, s_end=1.6, snapshot_stride=20),
    )
    flat_table = experiments.convergence_table(flat_traj, np.array([0.4, 0.8, 1.2]), 1.0)
    flat_worst = max(
        float(np.max(flat_table.height_error)), float(np.max(flat_table.tilt_error))
    )
    elapsed = time.perf_counter() - started
    ok = table.decreasing and flat_worst < 1e-12 and elapsed < 300.0
    h_cols = ", ".join(f"{v:.2e}" for v in table.height_error)
    v_cols = ", ".join(f"{v:.2e}" for v in table.tilt_error)
    report_line(
        8,
        ok,
        f"height column [{h_cols}] and tilt column [{v_cols}] strictly decreasing "
        f"{table.decreasing}, flat rows max {flat_worst:.1e}, {elapsed:.0f}s",
    )
    assert ok


def test_9_ordered_pairs_stay_ordered():
    started = time.perf_counter()
    grid = radial_grid(129)
    rho = grid.axis()
    low = slicing_state(grid, 0.15 * np.exp(-(rho**2)) - 0.15)
    high = slicing_state(grid, 0.1 + 0.05 * np.cos(rho))
    cfg = flow.FlowConfig(cfl_safety=0.5, s_end=1.0)
    result = pointwise.comparison_run(flow.run(low, cfg), flow.run(high, cfg))
    elapsed = time.perf_counter() - started
    worst = float(np.max(result.worst_gap))
    ok = result.ordered and worst <= result.tolerance and elapsed < 300.0
    report_line(
        9,
        ok,
        f"ordered {result.ordered}, worst gap {worst:.2e} against allowance "
        f"{result.tolerance:.2e}, {elapsed:.0f}s",
    )
    assert ok
