"""Runtime verification checks: exact cancellation on flat slices, frozen
slice arithmetic for the one-sided bounds, refinement orders on bump flows,
negative controls, and a symbolic rederivation of every evolution identity
the window checks measure."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from dsmcf import cli, config, flow, geometry, grids, oracles
from dsmcf.errors import BelowThresholdError

import pointwise

ORDER_LO, ORDER_HI = 1.7, 2.3


def radial_state(resolution=33, extent=3.0, amplitude=0.2, height=0.0, dimension=3):
    grid = grids.Grid(grids.RADIAL, dimension, extent=extent, resolution=resolution)
    rho = grid.axis()
    u0 = height + amplitude * np.exp(-(rho**2))
    return flow.GraphState(
        u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(flow.SLICING)
    )


def window(state):
    return flow.evolve_window(state, flow.FlowConfig())


def bump_pair(amplitude=0.2):
    """Coarse/fine states of the same bump, the fine one with half the spacing."""
    return radial_state(33, amplitude=amplitude), radial_state(65, amplitude=amplitude)


def geom(state):
    return oracles.snapshot_geometry(state)


def rates(state, *fields):
    """``oracles.WindowRates`` of ``fields`` at ``state``."""
    return oracles.material_rate(state, window(state), fields)


def tilt_rates(state):
    return rates(state, oracles.tilt_squared)


def curvature_rates(state):
    return rates(state, *oracles.CURVATURE_FIELDS)


def refined(check, measure, coarse, fine):
    """``oracles.refined`` on ``check`` of ``measure`` (a geometry or window
    rates) over a grid-halving pair of states."""
    reports = [oracles.report_list(check(measure(x))) for x in (coarse, fine)]
    return oracles.refined(*reports)


def random_jets(rng, count, scale=0.5, with_hessian=True):
    u = rng.uniform(-1.0, 1.0, count)
    direction = rng.normal(size=(3, count))
    direction /= np.linalg.norm(direction, axis=0)
    mag = np.sqrt(rng.uniform(0.0, 0.95, count) * np.exp(2.0 * u))
    du = direction * mag
    if with_hessian:
        d2u = rng.normal(scale=scale, size=(3, 3, count))
        d2u = 0.5 * (d2u + np.swapaxes(d2u, 0, 1))
    else:
        d2u = np.zeros((3, 3, count))
    return geometry.JetFields(u, du, d2u)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_summaries_and_dicts():
    rep = oracles.ResidualReport(
        name="demo", linf=1e-3, l2=5e-4, count=7, order=1.95, passed=True
    )
    assert "demo" in rep.summary() and "order 1.95" in rep.summary()
    assert rep.as_dict()["count"] == 7
    ineq = oracles.InequalityReport(
        name="bound", worst_slack=-0.5, violations=3, tolerance=1e-2, passed=False
    )
    assert "3 violation" in ineq.summary()
    assert ineq.as_dict()["worst_slack"] == -0.5


def test_refinement_pair_is_validated():
    """``refined`` reads its pair from ``GridSpec.refined``: the same box and
    mode with half the spacing."""
    for mode in (grids.RADIAL, grids.CARTESIAN):
        spec = config.GridSpec(mode=mode, extent=3.0, resolution=33)
        grid, fine = spec.build(), spec.refined().build()
        assert (fine.mode, fine.dimension, fine.extent) == (mode, 3, 3.0)
        assert 2.0 * fine.spacing == pytest.approx(grid.spacing, rel=1e-15)


# ---------------------------------------------------------------------------
# material derivative along the flow


def test_material_rate_reproduces_flow_law_on_slices():
    """On the flat slicing the height climbs at exactly the slice mean
    curvature and the tilt stays pinned at 1, so the advected rate must
    return 3 and 0 without any discretization error."""
    state = radial_state(65, amplitude=0.0)
    fields = (lambda g: g.u, lambda g: g.v2)
    rate_u, rate_v2 = oracles.material_rate(state, window(state), fields).rates.values()
    assert np.max(np.abs(rate_u - 3.0)) < 1e-11
    assert np.max(np.abs(rate_v2)) < 1e-11


def test_material_rate_drift_vanishes_without_slope():
    measured = tilt_rates(radial_state(33, amplitude=0.0, height=0.7))
    (rate,), at = measured.rates.values(), measured.geom
    assert np.max(np.abs(at.du)) == 0.0
    assert np.max(np.abs(rate)) < 1e-11


# ---------------------------------------------------------------------------
# pointwise restriction identities


def test_restriction_gradients_on_random_jets():
    rng = np.random.default_rng(7)
    fields = random_jets(rng, 2000)
    res = oracles.restriction_gradient_residuals(fields)
    assert set(res) == {"height", "coordinate", "mixed"}
    for arr in res.values():
        assert np.max(np.abs(arr)) < 1e-12


def test_restriction_gradient_check_passes_on_state():
    rep = oracles.check_restriction_gradients(geom(radial_state(65, amplitude=0.3)))
    assert rep.passed
    assert rep.linf < 1e-10
    # height + three coordinate components + three mixed components per node
    assert rep.count == 7 * 65


# ---------------------------------------------------------------------------
# coordinate Laplacians


def test_coordinate_laplacians_flat_slice_exact():
    state = radial_state(33, amplitude=0.0, height=0.4)
    for rep in oracles.check_coordinate_laplacians(geom(state)):
        assert rep.linf < 1e-12, rep.summary()


def test_coordinate_laplacian_radial_orders():
    coarse = radial_state(65, amplitude=0.1)
    fine = radial_state(129, amplitude=0.1)
    closed, wave = refined(oracles.check_coordinate_laplacians, geom, coarse, fine)
    for rep in (closed, wave):
        assert rep.passed, rep.summary()
        assert ORDER_LO < rep.order < ORDER_HI
    # both assembly routes discretize the same operator
    assert wave.linf == pytest.approx(closed.linf, rel=1e-6)


def test_coordinate_laplacian_cartesian_orders():
    def state(res):
        grid = grids.Grid(grids.CARTESIAN, 2, extent=np.pi, resolution=res)
        x, y = grid.meshes()
        return flow.GraphState(
            u=grids.Field(grid, 0.1 * np.sin(x) * np.cos(y)),
            s=0.0,
            bc=flow.BoundaryCondition(flow.FROZEN),
        )

    closed, wave = refined(oracles.check_coordinate_laplacians, geom, state(25), state(49))
    assert ORDER_LO < closed.order < ORDER_HI
    assert ORDER_LO < wave.order < ORDER_HI


# ---------------------------------------------------------------------------
# tilt gradient identity


def test_tilt_gradient_cancels_on_linear_graphs():
    """With a vanishing Hessian the two closed-form terms must cancel to
    rounding: the gradient of v is zero on linear graphs even though each
    term separately is not."""
    rng = np.random.default_rng(7)
    fields = random_jets(rng, 2000, with_hessian=False)
    vec, scal = oracles.tilt_gradient_residuals(fields, fields.dv)
    assert np.max(np.abs(vec)) < 1e-11
    assert np.max(np.abs(scal)) < 5e-9


def test_tilt_gradient_closed_form_on_random_jets():
    rng = np.random.default_rng(7)
    fields = random_jets(rng, 2000)
    vec, scal = oracles.tilt_gradient_residuals(fields, fields.dv)
    assert np.max(np.abs(vec)) < 1e-10
    assert np.max(np.abs(scal)) < 1e-6  # quartic in v, so looser in absolute terms


def test_tilt_gradient_refinement_order():
    (rep,) = refined(oracles.check_tilt_gradient, geom, radial_state(65), radial_state(129))
    assert rep.passed, rep.summary()
    assert rep.order == pytest.approx(2.0, abs=0.3)


# ---------------------------------------------------------------------------
# tilt evolution


def test_tilt_evolution_exact_on_flat_slicing():
    rep = oracles.check_tilt_evolution(tilt_rates(radial_state(33, amplitude=0.0)))
    assert rep.linf < 1e-12


def test_tilt_evolution_bump_refinement():
    coarse, fine = bump_pair()
    (rep,) = refined(oracles.check_tilt_evolution, tilt_rates, coarse, fine)
    assert rep.passed, rep.summary()
    assert ORDER_LO < rep.order < ORDER_HI
    assert rep.linf < 5e-2


def test_rate_checks_leave_out_the_node_beside_the_boundary():
    """The boundary node moves at the slicing rate 3, not by the equation.
    A bump of width 0.6 has rim speed 3 to 1e-9, and the v^2 identity holds
    to rounding at the node beside the rim; a bump of width 1.2 has rim
    speed 3.005, and that node's residual grows like 1/h.  So the mask, not
    the kernel, has to drop that node."""
    beside = {}
    for width in (0.6, 1.2):
        for resolution in (129, 257):
            grid = grids.Grid(grids.RADIAL, 3, extent=3.0, resolution=resolution)
            u0 = 0.2 * np.exp(-((grid.axis() / width) ** 2))
            state = flow.GraphState(
                u=grids.Field(grid, u0), s=0.0, bc=flow.BoundaryCondition(flow.SLICING)
            )
            rates = tilt_rates(state)
            box, lhs, grad_v_sq = rates.tilt
            rhs = np.empty(lhs.shape)
            for slab, fields in rates.geom.slabs():
                rhs[slab] = oracles._tilt_rhs(fields, grad_v_sq[slab])
            covered = np.zeros(resolution, dtype=bool)
            covered[box] = True
            np.testing.assert_array_equal(covered, np.arange(resolution) < resolution - 2)
            beside[width, resolution] = abs(float((lhs - rhs)[-2]))
    assert beside[0.6, 129] < 1e-12 and beside[0.6, 257] < 1e-12
    assert beside[1.2, 129] > 1e-4
    assert 1.5 < beside[1.2, 257] / beside[1.2, 129] < 2.5


def test_tilt_evolution_residual_scales_with_amplitude():
    big = oracles.check_tilt_evolution(tilt_rates(radial_state(33, amplitude=0.2)))
    small = oracles.check_tilt_evolution(tilt_rates(radial_state(33, amplitude=0.1)))
    ratio = big.linf / small.linf
    assert 1.8 < ratio < 3.2


# ---------------------------------------------------------------------------
# one-sided tilt bounds


def test_tilt_bounds_frozen_slice_arithmetic():
    """On a flat slice the measured evolution is zero, so each slack is the
    bound itself: 86/3 for the dissipation bound at delta = 1/3 (28 at
    delta = 0), equality for the decay bound, and 32/3 for pinching."""
    win = tilt_rates(radial_state(33, amplitude=0.0))
    third = oracles.check_tilt_bounds(win, delta=1.0 / 3.0)
    by_name = {rep.name: rep for rep in third}
    assert by_name["tilt-dissipation-bound"].worst_slack == pytest.approx(86.0 / 3.0)
    assert abs(by_name["tilt-decay-bound"].worst_slack) < 1e-11
    assert by_name["pinching-bound"].worst_slack == pytest.approx(32.0 / 3.0)
    assert all(rep.violations == 0 for rep in third)

    zero = oracles.check_tilt_bounds(win, delta=0.0)
    assert zero[0].worst_slack == pytest.approx(28.0)


@pytest.mark.parametrize("delta", [-0.05, 0.34, 1.0])
def test_tilt_bounds_reject_bad_delta(delta):
    # checked once, where the config builds the value the bounds read
    with pytest.raises(ValueError, match="delta"):
        config.CheckSpec(delta=delta)


def test_nan_slack_violates_its_bound():
    """A NaN slack is no evidence for the bound: every NaN node in the box
    counts as a violation and the worst slack is NaN."""
    grid = grids.Grid(grids.RADIAL, 3, extent=3.0, resolution=33)
    slack = np.full(grid.shape, np.nan)
    box = grid.interior(2)
    pinching = oracles._inequality_report("pinching-bound", slack, box, 1e-10, None, {})
    assert np.isnan(pinching.worst_slack)
    assert pinching.violations == 31 and not pinching.passed


def test_tilt_bounds_hold_on_bump_flow():
    win = tilt_rates(radial_state(65))
    for rep in oracles.check_tilt_bounds(win, delta=0.2):
        assert rep.passed, rep.summary()
        assert rep.parameters["delta"] == 0.2


def test_pinching_bound_monte_carlo_jets():
    rng = np.random.default_rng(17)
    fields = random_jets(rng, 10**5)
    lam1 = fields.extremal_curvature()
    slack = fields.a2 + fields.H**2 - (4.0 / 3.0) * lam1**2
    assert float(np.min(slack)) > -1e-10


def test_random_jet_checks_pass_and_repeat():
    first = oracles.check_random_jets(seed=5, count=500)
    assert [r.name for r in first] == [
        "jet-restriction-gradients",
        "jet-tilt-gradient",
        "jet-pinching-bound",
    ]
    assert all(r.passed for r in first)
    again = oracles.check_random_jets(seed=5, count=500)
    assert [r.as_dict() for r in first] == [r.as_dict() for r in again]


# ---------------------------------------------------------------------------
# localization weight bounds


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_weight_bounds_hold_high_on_slices(alpha):
    # the slice sits at the threshold, so its displaced states dip below it
    spec = geometry.CutoffSpec(alpha=alpha, epsilon=0.1, t_min=10.0)
    state = radial_state(65, extent=2.0, amplitude=0.0, height=10.0)
    evo = oracles.check_weight_evolution(rates(state, oracles.WeightField(spec)), spec)
    assert evo.passed and evo.violations == 0
    assert evo.worst_slack > 0.0
    grad = oracles.check_weight_gradient(geom(state), spec)
    assert grad.passed and grad.violations == 0
    assert grad.worst_slack >= 0.0


def test_weight_checks_guard_the_height_threshold():
    spec = geometry.CutoffSpec(alpha=1.0, epsilon=0.1, t_min=10.0)
    low = radial_state(33, amplitude=0.0, height=0.0)
    with pytest.raises(BelowThresholdError):
        oracles.check_weight_evolution(rates(low, oracles.WeightField(spec)), spec)
    with pytest.raises(BelowThresholdError):
        oracles.check_weight_gradient(geom(low), spec)


def test_weight_negative_control_shows_violations():
    """Steep weight exponents at moderate heights genuinely break the
    bounds; the checks must report that instead of passing vacuously."""
    spec = geometry.CutoffSpec(alpha=1.9, epsilon=0.1, t_min=0.5)
    state = radial_state(129, amplitude=0.0, height=1.0)
    evo = oracles.check_weight_evolution(rates(state, oracles.WeightField(spec)), spec)
    assert not evo.passed
    assert evo.violations > 0
    assert evo.worst_slack < -1.0
    grad = oracles.check_weight_gradient(geom(state), spec)
    assert not grad.passed
    assert grad.violations > 0


# ---------------------------------------------------------------------------
# curvature evolution on radial profiles


@pytest.mark.parametrize("dimension", [2, 3, 5])
def test_curvature_profiles_match_eigenvalue_route(dimension):
    geom = oracles.snapshot_geometry(radial_state(65, dimension=dimension))
    kr, ka = oracles.radial_curvatures(geom)
    profiles = np.sort(np.stack([kr] + [ka] * (dimension - 1)), axis=0)
    eigen = pointwise.batch_shape_eigenvalues(geom).T
    assert np.max(np.abs(profiles - eigen)) < 1e-12
    angular = dimension - 1.0
    assert np.max(np.abs(kr**2 + angular * ka**2 - geom.a2)) < 1e-12
    assert np.max(np.abs(kr + angular * ka - geom.H)) < 1e-12


def test_curvature_evolution_exact_on_slices():
    ident, traceless = oracles.check_curvature_evolution(
        curvature_rates(radial_state(33, amplitude=0.0))
    )
    assert ident.linf < 1e-12
    assert traceless.worst_slack >= -1e-10
    # a raised slice only stresses the rounding, not the cancellation
    ident_up, _ = oracles.check_curvature_evolution(
        curvature_rates(radial_state(33, amplitude=0.0, height=0.3))
    )
    assert ident_up.linf < 1e-10


def test_curvature_evolution_bump_refinement():
    coarse, fine = bump_pair()
    ident, traceless = refined(oracles.check_curvature_evolution, curvature_rates, coarse, fine)
    assert ident.passed, ident.summary()
    assert ORDER_LO < ident.order < ORDER_HI
    assert traceless.passed and traceless.violations == 0
    assert traceless.worst_slack > 0.0


def test_refined_orders_the_identity_and_keeps_the_coarse_bound():
    """``refined`` gives the coarse identity report its order and verdict,
    and hands the traceless bound on exactly as the coarse check gives it."""
    coarse, fine = bump_pair()
    ident, traceless = refined(oracles.check_curvature_evolution, curvature_rates, coarse, fine)
    plain_ident, plain_traceless = oracles.check_curvature_evolution(curvature_rates(coarse))
    assert traceless == plain_traceless
    assert plain_ident.order is None and plain_ident.passed is None
    assert ident == replace(plain_ident, order=ident.order, passed=True)
    assert ORDER_LO < ident.order < ORDER_HI


def test_curvature_evolution_builds_each_snapshot_geometry_once(monkeypatch):
    """The identity and the traceless bound read their rates from one pass
    over each window: the after, before and state geometries."""
    coarse, fine = bump_pair()
    built = []

    class Counted(geometry.GeometryFields):
        def __init__(self, grid, u_values):
            built.append(grid.resolution)
            super().__init__(grid, u_values)

    monkeypatch.setattr(geometry, "GeometryFields", Counted)
    refined(oracles.check_curvature_evolution, curvature_rates, coarse, fine)
    assert sorted(built) == [33] * 3 + [65] * 3


def test_curvature_evolution_mode_guards():
    reason = oracles.curvature_evolution_skip_reason
    assert reason(grids.Grid(grids.RADIAL, 3, extent=2.0, resolution=9)) is None
    assert "radial" in reason(grids.Grid(grids.CARTESIAN, 3, extent=2.0, resolution=9))
    assert "dimension 3" in reason(grids.Grid(grids.RADIAL, 2, extent=2.0, resolution=17))


# ---------------------------------------------------------------------------
# symbolic rederivation of the evolution identities
#
# The identities the window checks measure are rederived here with sympy on
# rotationally symmetric jets: radius rho, X = e^{2u}, derivatives u1..u5,
# and v = sqrt(X / (X - u1^2)).  Chain-rule operators give the radial
# derivative, the flow derivative (graph velocity H v plus the tangential
# drift used by material_rate), and the surface Laplacian, all exactly.
# Evaluating at random rational points decides each identity exactly; no
# tolerance is involved.


@pytest.fixture(scope="module")
def symbolic_identity_residuals():
    rho, X, v = sp.symbols("rho X v", positive=True)
    u1, u2, u3, u4, u5 = sp.symbols("u1 u2 u3 u4 u5")
    n = 3

    w0 = (u2 + (n - 1) * u1 / rho + v**2 * u1**2 * u2 / X) / X + (n + 1) - v**2
    H = v * w0
    kappa1 = v * (u2 + X - 2 * u1**2) / (X - u1**2)
    kappa2 = v * (u1 / rho + X) / X
    a2 = kappa1**2 + 2 * kappa2**2
    dv_drho = v**3 * u1 * (u2 - u1**2) / X

    def d_rho(e):
        return (
            sp.diff(e, rho)
            + sp.diff(e, X) * 2 * u1 * X
            + sp.diff(e, u1) * u2
            + sp.diff(e, u2) * u3
            + sp.diff(e, u3) * u4
            + sp.diff(e, u4) * u5
            + sp.diff(e, v) * dv_drho
        )

    w1 = d_rho(w0)
    w2 = d_rho(w1)
    w3 = d_rho(w2)
    ds_v = v**3 * u1 * (w1 - u1 * w0) / X

    def d_flow(e):
        return (
            sp.diff(e, X) * 2 * w0 * X
            + sp.diff(e, u1) * w1
            + sp.diff(e, u2) * w2
            + sp.diff(e, u3) * w3
            + sp.diff(e, v) * ds_v
        )

    def laplacian(f):
        df = d_rho(f)
        return (v**2 / X) * (
            d_rho(df) + df * ((n - 1) / rho + (n - 2) * u1 + dv_drho / v)
        )

    def evolution(f):
        return d_flow(f) + (H * v * u1 / X) * d_rho(f) - laplacian(f)

    arc2 = v**2 / X  # squared d(arclength)/d(rho)
    warp2 = arc2 * (u1 + 1 / rho) ** 2
    grad_a2 = (
        arc2 * d_rho(kappa1) ** 2
        + 2 * arc2 * d_rho(kappa2) ** 2
        + 4 * warp2 * (kappa1 - kappa2) ** 2
    )

    residuals = {
        "curvature-trace": H - kappa1 - 2 * kappa2,
        "mean-curvature": evolution(H) - H * (3 - a2),
        "tilt": evolution(v**2)
        - (
            4 * H * v
            - 2 * v**4
            - 4 * v**2
            - 2 * a2 * v**2
            + 2 * kappa1**2 * (v**2 - 1)
            - 4 * (v - kappa1) ** 2 * (v**2 - 1)
        ),
        "radial-curvature": evolution(kappa1)
        - (-4 * warp2 * (kappa1 - kappa2) + 2 * H - kappa1 * (a2 + 3)),
        "angular-curvature": evolution(kappa2)
        - (2 * warp2 * (kappa1 - kappa2) + 2 * H - kappa2 * (a2 + 3)),
        "curvature-norm": evolution(a2)
        - (-2 * grad_a2 + 4 * H**2 - 2 * a2 * (3 + a2)),
    }
    symbols = (rho, X, v, u1, u2, u3, u4, u5)
    exprs = {"H": H, "a2": a2}
    return residuals, symbols, exprs


def exact_point(rng, symbols):
    rho, X, v, u1, u2, u3, u4, u5 = symbols
    xv = sp.Rational(int(rng.integers(8, 31)), 10)
    slope = sp.Rational(int(rng.integers(-9, 10)), 20)
    point = {
        rho: sp.Rational(int(rng.integers(5, 31)), 10),
        X: xv,
        u1: slope,
        v: sp.sqrt(xv / (xv - slope**2)),
    }
    for sym in (u2, u3, u4, u5):
        point[sym] = sp.Rational(int(rng.integers(-9, 10)), 10)
    return point


def test_evolution_identities_hold_symbolically(symbolic_identity_residuals):
    residuals, symbols, _ = symbolic_identity_residuals
    rng = np.random.default_rng(31)
    for trial in range(2):
        point = exact_point(rng, symbols)
        for name, expr in residuals.items():
            assert sp.simplify(expr.subs(point)) == 0, (name, trial)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expanding_spheres_solve_the_radial_flow_symbolically(n):
    """The sphere u_c = log((c + sqrt(c^2 + 1 + rho^2)) / (1 + rho^2)) whose
    parameter runs as dc/ds = n c moves by the radial graph speed,

        d_s u = e^{-2u} (v^2 u'' + (n - 1) u'/rho) + (n + 1) - v^2,

    with v^2 = 1 / (1 - e^{-2u} u'^2): an exact curved solution in every
    dimension.  It is decided with no tolerance at rational points where
    the root is rational too: w - c = a and w + c = (1 + rho^2) / a give
    w^2 = c^2 + 1 + rho^2 for every rational a > 0."""
    rho, c = sp.symbols("rho c", real=True)
    u = sp.log((c + sp.sqrt(c**2 + 1 + rho**2)) / (1 + rho**2))
    u1, u2 = sp.diff(u, rho), sp.diff(u, rho, 2)
    em2u = sp.exp(-2 * u)
    v2 = 1 / (1 - em2u * u1**2)
    speed = em2u * (v2 * u2 + (n - 1) * u1 / rho) + (n + 1) - v2
    residual = n * c * sp.diff(u, c) - speed
    rng = np.random.default_rng(40 + n)
    for _ in range(12):
        r = sp.Rational(int(rng.integers(1, 41)), 10)
        a = sp.Rational(int(rng.integers(1, 41)), 10)
        point = {rho: r, c: ((1 + r**2) / a - a) / 2}
        assert residual.subs(point) == 0, point


def test_flipped_reaction_terms_break_the_identity(symbolic_identity_residuals):
    """The reaction coefficients are not interchangeable: replacing the
    zeroth-order part 4H^2 - 2|A|^2(3 + |A|^2) with the sign-flipped
    variant -4H^2 + 2|A|^2(9 - |A|^2) shifts the residual by
    24(H^2/3 - |A|^2), which only vanishes on umbilic profiles.  A
    generic point must therefore reject the variant."""
    residuals, symbols, exprs = symbolic_identity_residuals
    H, a2 = exprs["H"], exprs["a2"]
    correct_reaction = 4 * H**2 - 2 * a2 * (3 + a2)
    flipped_reaction = -4 * H**2 + 2 * a2 * (9 - a2)
    assert sp.simplify(
        correct_reaction - flipped_reaction - 24 * (H**2 / 3 - a2)
    ) == 0
    flipped = residuals["curvature-norm"] + correct_reaction - flipped_reaction
    point = exact_point(np.random.default_rng(37), symbols)
    assert sp.simplify(flipped.subs(point)) != 0


# ---------------------------------------------------------------------------
# cartesian checks contract through the rank-one forms


def cartesian_verify_inputs(resolution):
    """The config and fine state of a cartesian 3-d bump's ``verify``, built
    as ``cli._cmd_verify`` builds them."""
    cfg = config.RunConfig(
        grid=config.GridSpec(mode=grids.CARTESIAN, dimension=3, extent=3.0, resolution=resolution),
        initial=config.InitialSpec(profile="bump", amplitude=0.2, width=1.2),
    )
    return cfg, replace(cfg, grid=cfg.grid.refined()).initial_state()


#: The checks whose fine pass ``verify`` runs on a cartesian 3-d grid.
CARTESIAN_REFINED = ("coordinate_laplacians", "tilt_gradient", "tilt_evolution")


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cartesian_checks_stay_within_their_memory_budget():
    """Peak allocation of the fine pass of a cartesian ``verify`` on a 33^3
    grid (refined 65^3), in fine node arrays.  The pass holds one geometry
    at a time, builds the Hessian entries slab by slab, takes each
    coordinate Laplacian once and streams the residuals one check reads, so
    its peak stays below 23 arrays (18 when this bound was set; the whole
    six Hessian entries and whole residuals took it to 31, and the (n, n, N)
    Hessian, the cached tilt vectors and the concatenated residual buffers
    to 46), and the kernel's below 16."""
    cfg, fine = cartesian_verify_inputs(33)
    node_array = fine.u.values.nbytes
    peaks = {
        "fine_pass": traced_peak(lambda: cli._measure(cfg, CARTESIAN_REFINED, fine))
        / node_array,
        "kernel": traced_peak(lambda: geometry.graph_speed_fields(fine.u.values, fine.grid))
        / node_array,
    }
    budget = {"fine_pass": 23, "kernel": 16}
    over = {name: round(peaks[name], 1) for name in budget if peaks[name] >= budget[name]}
    assert not over, f"peak node arrays {over} exceed {budget}"


def test_tensor_readers_build_no_node_tensors():
    """The restriction residuals and the radial principal curvatures read
    the rank-one closed forms: their peaks stay below the 2 n^2 and n^2 node
    arrays that (n, n, N) tensors of gamma^{-1}, h and gamma^{-1} h would
    take (n = 3)."""
    cfg, _ = cartesian_verify_inputs(33)
    fields = oracles.snapshot_geometry(cfg.initial_state())
    node_array = fields.u.nbytes
    restriction = traced_peak(lambda: oracles.restriction_gradient_residuals(fields))
    assert restriction / node_array < 18
    geom = oracles.snapshot_geometry(radial_state(200_001, amplitude=0.2))
    curvatures = traced_peak(lambda: oracles.radial_curvatures(geom))
    assert curvatures / geom.u.nbytes < 9


# ---------------------------------------------------------------------------
# one pass per grid: each snapshot geometry is built once


def cartesian_config(resolution=13, **checks):
    return config.RunConfig(
        grid=config.GridSpec(mode=grids.CARTESIAN, dimension=3, extent=3.0, resolution=resolution),
        initial=config.InitialSpec(profile="bump", amplitude=0.2, width=1.2),
        checks=config.CheckSpec(**checks),
    )


def count_calls(monkeypatch, module, name) -> list:
    """Record the grid resolution of every call to ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "command, cfg, builds",
    [
        # the parent commit built 14, 10 and 20 geometries
        (
            "verify",
            cartesian_config(curvature_evolution=False, jet_sampling=True, jet_count=100),
            6,
        ),
        (
            "verify",
            cartesian_config(
                restriction_gradients=False, tilt_bounds=False, curvature_evolution=False
            ),
            6,
        ),
        (
            "verify",
            config.RunConfig(
                grid=config.GridSpec(mode=grids.RADIAL, dimension=3, extent=3.0, resolution=129),
                initial=config.InitialSpec(profile="bump", amplitude=0.2, width=1.2),
            ),
            6,
        ),
    ],
)
def test_each_pass_builds_each_snapshot_geometry_once(monkeypatch, command, cfg, builds):
    """The coarse pass builds the window's after and before geometries and
    the state's; the fine pass builds the same three on the refined grid.
    Each pass evaluates the kernel once, for its window."""
    built = count_calls(monkeypatch, geometry, "GeometryFields")
    kernels = count_calls(monkeypatch, geometry, "graph_speed_fields")
    report = cli.COMMANDS[command](cfg)
    assert report.checks and report.failure is None
    assert len(built) == builds and len(kernels) == 2
    coarse, fine = cfg.grid.resolution, cfg.grid.refined().resolution
    assert [g.resolution for g in built] == [coarse] * 3 + [fine] * 3


def record_jet_slabs(monkeypatch) -> list:
    """(field, slab) of every ``grids.cartesian_jet`` call."""
    calls = []
    original = grids.cartesian_jet

    def recorded(values, grid, grad, slab):
        calls.append((values, slab))
        return original(values, grid, grad, slab)

    monkeypatch.setattr(grids, "cartesian_jet", recorded)
    return calls


def test_only_the_state_geometry_builds_the_cartesian_hessian(monkeypatch):
    """A Cartesian fine pass takes the Hessian entries of the state's
    geometry slab by slab, once per slab in each of its two passes that
    read them: H with |A|^2, then the tilt gradient with |W(P)|^2.  The
    window's displaced geometries, read for v^2 alone, take none, and
    neither does a geometry read for v, v^2 or the weight.  A whole
    ``verify`` adds a third pass on the coarse grid, for the pinching
    bound.  The slab size is cut so that the 17^3 grid has six slabs of
    three rows, the last of two."""
    monkeypatch.setattr(grids, "SLAB_NODES", 3 * 17 * 17)
    jets = record_jet_slabs(monkeypatch)
    cfg, fine = cartesian_verify_inputs(9)
    slabs = grids.slabs(fine.grid)
    assert len(slabs) == 6 and slabs[-1] == (slice(15, 17),)
    cli._measure(cfg, CARTESIAN_REFINED, fine)
    assert all(values is fine.u.values for values, _ in jets)
    assert [slab for _, slab in jets] == slabs * 2
    light = oracles.snapshot_geometry(fine)
    assert np.all(light.weight * light.v2 > 0.0)
    oracles.WeightField(cfg.checks.cutoff())(light)
    assert len(jets) == 2 * len(slabs)
    del jets[:]
    verify_cfg = cartesian_config(curvature_evolution=False, jet_sampling=True, jet_count=100)
    report = cli.COMMANDS["verify"](verify_cfg)
    assert report.checks and report.failure is None
    coarse, refined_grid = verify_cfg.grid.build(), verify_cfg.grid.refined().build()
    passes = grids.slabs(coarse) * 3 + grids.slabs(refined_grid) * 2
    assert len(passes) == 3 * 3 + 2 * 25
    assert [slab for _, slab in jets] == passes


def test_a_cartesian_fine_pass_forms_h_of_the_tilt_once_per_slab(monkeypatch):
    """The tilt-gradient residuals and |W(P)|^2 read one h(P): the fine
    pass applies the second form once per slab of the state's geometry,
    where it once did twice over the whole grid."""
    monkeypatch.setattr(grids, "SLAB_NODES", 3 * 17 * 17)
    forms = []
    original = geometry.JetFields.second_form

    def counted(fields, X):
        forms.append(fields)
        return original(fields, X)

    monkeypatch.setattr(geometry.JetFields, "second_form", counted)
    cfg, fine = cartesian_verify_inputs(9)
    cli._measure(cfg, CARTESIAN_REFINED, fine)
    assert [fields.box for fields in forms] == grids.slabs(fine.grid)
    assert all(fields.geom.u is fine.u.values for fields in forms)


@pytest.mark.parametrize("dimension, resolution", [(3, 21), (2, 33)])
def test_slabbed_geometry_equals_the_whole_grid_one(monkeypatch, dimension, resolution):
    """With slabs of four rows, which do not divide the rows of the grid, the
    kept fields and the extremal curvature equal a whole-grid ``JetFields``
    of the ``cartesian_jet`` entries bit for bit, and so do the streamed
    tilt-gradient and restriction reports, up to the order of their sums of
    squares."""
    grid = grids.Grid(grids.CARTESIAN, dimension, extent=2.0, resolution=resolution)
    monkeypatch.setattr(grids, "SLAB_NODES", 4 * grid.node_count // resolution)
    assert [slab[0].stop - slab[0].start for slab in grids.slabs(grid)][-1] == 1
    x = grid.meshes()
    u = 0.3 * np.exp(-sum((k + 1.0) * x[k] ** 2 for k in range(dimension))) + 0.05 * x[0] * x[1]
    geom = geometry.GeometryFields(grid, u)
    whole = geometry.JetFields(u, geom.du, grids.cartesian_jet(u, grid, geom.du, (slice(None),)))
    for name in ("H", "a2", "sheared_tilt_sq"):
        assert np.array_equal(getattr(geom, name), getattr(whole, name)), name
    if dimension == 3:
        assert np.array_equal(geom.extremal_curvature(), whole.extremal_curvature())
    dv = grids.field_gradient(geom.v, grid)
    expected = [
        oracles._residual_report(
            "tilt-gradient", oracles.tilt_gradient_residuals(whole, dv), grid.interior()
        ),
        oracles._residual_report(
            "restriction-gradients",
            list(oracles.restriction_gradient_residuals(whole).values()),
            (),
            tolerance=oracles.RESTRICTION_TOL,
        ),
    ]
    actual = [oracles.check_tilt_gradient(geom), oracles.check_restriction_gradients(geom)]
    for got, want in zip(actual, expected):
        assert got == replace(want, l2=pytest.approx(want.l2, rel=1e-12, abs=0.0))


def test_tilt_checks_share_one_material_rate_per_window(monkeypatch):
    """``check_tilt_evolution`` and ``check_tilt_bounds`` read the same v^2
    evolution parts: one ``material_rate`` per window, where the parent
    commit ran it three times."""
    windows = count_calls(monkeypatch, oracles, "material_rate")
    report = cli.COMMANDS["verify"](cartesian_config(curvature_evolution=False))
    names = [entry["name"] for entry in report.checks]
    assert "tilt-evolution" in names and "tilt-decay-bound" in names
    assert len(windows) == 2


def test_streamed_reports_match_the_one_buffer_reference():
    """A report gathers linf, the sum of squares and the count part by
    part; the reference squares every part into one buffer first."""
    rng = np.random.default_rng(23)
    grid = grids.Grid(grids.CARTESIAN, 3, extent=1.0, resolution=13)
    for trial in range(5):
        # one to five parts, each a scalar field or 1 to 3 components of one
        leads = [(int(k),) if k else () for k in rng.integers(0, 4, size=int(rng.integers(1, 6)))]
        parts = [
            rng.normal(scale=10.0 ** rng.uniform(-8, 2), size=lead + grid.shape)
            for lead in leads
        ]
        for box in ((), grid.interior(1), grid.interior(4), (slice(2, 7), 3, slice(None))):
            boxed = [part[(Ellipsis, *box)] for part in parts]
            flat = np.concatenate([b.reshape(-1) for b in boxed])
            rep = oracles._residual_report("demo", parts, box)
            assert rep.linf == float(np.max(np.abs(flat)))
            assert rep.count == flat.size
            assert rep.l2 == pytest.approx(float(np.sqrt(np.mean(flat**2))), rel=1e-14)


def test_box_aggregation_matches_the_concatenated_reference():
    """On index boxes the reports read each residual in place; the reference
    concatenates the residuals under a boolean mask of the same nodes first."""
    rng = np.random.default_rng(11)
    grid = grids.Grid(grids.CARTESIAN, 3, extent=1.0, resolution=17)
    vector = rng.normal(size=(3,) + grid.shape)
    scalar = rng.normal(size=grid.shape)
    for ring in (1, 2, 5):
        box = grid.interior(ring)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[ring:-ring, ring:-ring, ring:-ring] = True
        flat = np.concatenate([np.abs(r[..., mask]).reshape(-1) for r in (vector, scalar)])
        rep = oracles._residual_report("demo", [vector, scalar], box)
        assert rep.linf == float(np.max(flat)) and rep.count == flat.size
        assert rep.l2 == pytest.approx(float(np.sqrt(np.mean(flat**2))), rel=1e-15)

        ineq = oracles._inequality_report("demo", scalar, box, 0.5, 1.0, {})
        assert ineq.worst_slack == float(np.min(scalar[mask]))
        assert ineq.violations == int(np.count_nonzero(scalar[mask] < -0.5))

        tol, scale = oracles.grid_tolerance(0.1, 3.0 * scalar, vector, box=box)
        assert scale == max(1.0, float(np.max(np.abs(3.0 * scalar[mask]))),
                            float(np.max(np.abs(vector[..., mask]))))
        assert tol == oracles.GRID_TOL_FACTOR * 0.1 * 0.1 * scale
