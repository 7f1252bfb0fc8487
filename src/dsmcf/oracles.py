"""Residual and inequality checks for discrete flow states.

Every check here compares a discretely measured quantity against a closed
form or a one-sided bound, and packages the outcome in a small report
object.  Time derivatives are always taken along the normal motion: the
graph solver advances u at fixed x, so the rate seen by a point moving
with the surface picks up an advection term::

    (d/ds) f  =  (f(u + eta S) - f(u - eta S)) / (2 eta)  +  H v e^{-2u} du . grad f

evaluated at the state u itself, with S its flow speed and u -/+ eta S the
states ``flow.evolve_window`` displaces it to.  On a flat slicing du = 0
and the two notions coincide.

Each check reads its nodes through an index box of the grid (``grids``),
``()`` for every node, so its reads are views.  A residual that one check
reads is built slab by slab (``GeometryFields.slabs``) and streamed into
its report, so no whole array of it is built.  The inequality checks use a
grid tolerance of ``10 h^2 * scale`` with the scale taken from the dominant
term over that box.  A check measures a state's geometry or
its ``WindowRates``.  ``refined`` pairs the reports of the same checks
on a grid and its refinement (``GridSpec.refined``, half the spacing) and
gives each coarse residual report the order log2(e_h / e_{h/2}) of its name,
which passes inside ``ORDER_WINDOW``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import flow, geometry, grids
from .errors import BelowThresholdError

ORDER_WINDOW = (1.7, 2.3)
GRID_TOL_FACTOR = 10.0
#: Tolerance of the restriction identities on a grid state
#: (``check_restriction_gradients``), which are algebraic in the jet.
RESTRICTION_TOL = 1e-10
#: Tolerances of the random-jet spot checks (``check_random_jets``).
JET_RESTRICTION_TOL = 1e-10
JET_IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of an identity check: how far the two sides disagree."""

    name: str
    linf: float
    l2: float
    count: int
    tolerance: float | None = None
    order: float | None = None
    passed: bool | None = None

    def summary(self) -> str:
        extra = "" if self.order is None else f", order {self.order:.2f}"
        return f"{self.name}: max |residual| {self.linf:.3e} over {self.count} nodes{extra}"

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a one-sided bound: worst signed slack, negative = bad."""

    name: str
    worst_slack: float
    violations: int
    tolerance: float
    parameters: dict = field(default_factory=dict)
    passed: bool = True

    def summary(self) -> str:
        return (
            f"{self.name}: worst slack {self.worst_slack:.3e}, "
            f"{self.violations} violation(s) beyond {self.tolerance:.3e}"
        )

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# shared plumbing


def snapshot_geometry(state: flow.GraphState) -> geometry.GeometryFields:
    return geometry.GeometryFields(state.grid, state.u.values)


@dataclass
class _ResidualSum:
    """Max |residual|, sum of squares and node count over an index box,
    gathered one residual array at a time (after any leading component
    axes), so no buffer of squares is built.  The report of an empty box
    raises ValueError, as the max of no values does."""

    box: tuple
    linf: float = 0.0
    sum_sq: float = 0.0
    count: int = 0

    def add(self, residual, slab=()):
        """Gather ``residual``, an array over the grid slab ``slab`` (a box
        of ``grids.slabs``, or every node)."""
        part = np.abs(np.asarray(residual)[(Ellipsis, *grids.slab_box(self.box, slab))])
        if not part.size:
            return
        self.linf = float(np.maximum(self.linf, np.max(part)))  # NaN stays
        part *= part
        self.sum_sq += float(np.sum(part))
        self.count += part.size

    def report(self, name, tolerance=None) -> ResidualReport:
        """The report of what was added; with a ``tolerance`` it passes when
        its max |residual| is within it."""
        if not self.count:
            raise ValueError(f"{name}: no nodes in the box {self.box}")
        return ResidualReport(
            name=name,
            linf=self.linf,
            l2=float(np.sqrt(self.sum_sq / self.count)),
            count=self.count,
            tolerance=tolerance,
            passed=None if tolerance is None else bool(self.linf <= tolerance),
        )


def _residual_report(name, residuals, box, tolerance=None) -> ResidualReport:
    """Aggregate residual arrays over a node box (after any leading component
    axes), one array at a time; with a ``tolerance`` the report passes when
    its max |residual| is within it."""
    total = _ResidualSum(box)
    for residual in residuals:
        total.add(residual)
    return total.report(name, tolerance)


def refined(reports, fine_reports) -> list:
    """``reports`` with each residual report that ``fine_reports``, the same
    checks on the grid of half the spacing, also holds given the observed
    order log2(e_h / e_{h/2}) of its name: it passes when that lies in
    ``ORDER_WINDOW``, and where either error is at rounding level the order
    stays None.  Other reports, bound reports among them, are kept."""
    fine_linf = {r.name: r.linf for r in fine_reports if isinstance(r, ResidualReport)}
    reports = list(reports)
    for k, report in enumerate(reports):
        if report.name not in fine_linf:
            continue
        order = grids.refinement_order(report.linf, fine_linf[report.name])
        if order is None:
            continue
        passed = bool(ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1])
        reports[k] = replace(report, order=order, passed=passed)
    return reports


def report_list(outcome) -> list:
    """A check's outcome, one report or a tuple or list of them, as a list."""
    return list(outcome) if isinstance(outcome, (list, tuple)) else [outcome]


@dataclass
class WindowRates:
    """What the window checks read: the state's geometry, the window's eta,
    each field's rate at the state."""

    geom: geometry.GeometryFields
    eta: float
    rates: dict

    @cached_property
    def tilt(self) -> tuple:
        """(box, measured lhs, |grad v|^2) of the v^2 evolution, read by
        ``check_tilt_evolution`` and ``check_tilt_bounds``."""
        geom = self.geom
        grad_v_sq = geom.gamma_inv_norm_sq(grids.field_gradient(geom.v, geom.grid))
        lhs = geom.laplacian(geom.v2)
        np.subtract(self.rates[tilt_squared], lhs, out=lhs)
        return _rate_box(geom.grid), lhs, grad_v_sq


def material_rate(state: flow.GraphState, window: flow.TrajectoryWindow, fields) -> WindowRates:
    """Normal-motion rates at ``state`` of ``fields``, each a function of a
    snapshot geometry, from ``window``, the state displaced along its speed.
    The after and before geometries are built, read and dropped one at a
    time, and build no Hessian for fields of v^2 or the weight; the state's
    geometry is built last and kept in the result."""
    after = snapshot_geometry(window.after)
    fixed_rates = {f: f(after) for f in fields}
    del after
    before = snapshot_geometry(window.before)
    for f, value in fixed_rates.items():
        fixed_rates[f] = (value - f(before)) / (2.0 * window.eta)
    del before
    geom = snapshot_geometry(state)
    slope = geom.H * geom.v
    slope *= geom.em2u
    for f, rate in fixed_rates.items():
        advection = np.einsum("i...,i...->...", geom.du, grids.field_gradient(f(geom), geom.grid))
        advection *= slope
        rate += advection
    return WindowRates(geom, window.eta, fixed_rates)


def _rate_box(grid: grids.Grid) -> tuple:
    """Index box of the nodes where a ``material_rate`` check sees only the
    flow equation: the boundary node moves by its boundary condition and the
    node beside it reads it (a rate off by d there errs by d / h), so both
    modes drop two rings."""
    return grid.interior(2)


def _unless_three_dimensional(grid: grids.Grid, reason: str) -> str | None:
    return None if grid.dimension == 3 else f"{reason}, got {grid.dimension}"


def tilt_evolution_skip_reason(grid: grids.Grid) -> str | None:
    """Why ``check_tilt_evolution`` and ``check_tilt_bounds`` skip ``grid``,
    or None: both read the v^2 evolution identity."""
    return _unless_three_dimensional(grid, "the v^2 evolution coefficients assume dimension 3")


#: The node layers ``check_curvature_evolution`` leaves out at the boundary.
CURVATURE_COLLAR = 5


def curvature_evolution_skip_reason(grid: grids.Grid) -> str | None:
    """Why ``check_curvature_evolution`` skips ``grid``, or None."""
    if grid.mode != grids.RADIAL:
        return "curvature evolution is only measurable on radial grids"
    if grid.resolution <= CURVATURE_COLLAR:
        return (
            f"its {CURVATURE_COLLAR}-node boundary collar leaves no node "
            f"of a {grid.resolution}-node grid"
        )
    return _unless_three_dimensional(grid, "curvature evolution coefficients assume dimension 3")


def grid_tolerance(h: float, *term_arrays, box=()):
    """(tolerance, scale) of a discretized check: 10 h^2 times the scale,
    the dominant magnitude of the term arrays over ``box`` (at least 1)."""
    scale = 1.0
    for arr in term_arrays:
        a = np.asarray(arr)[(Ellipsis, *box)]
        if a.size:
            scale = max(scale, float(np.max(np.abs(a))))
    return GRID_TOL_FACTOR * h * h * scale, scale


def _inequality_report(name, slack, box, tolerance, scale, parameters) -> InequalityReport:
    boxed = np.asarray(slack)[box]
    worst = float(np.min(boxed))
    violations = boxed.size - int(np.count_nonzero(boxed >= -tolerance))  # NaN violates
    params = dict(parameters)
    params["scale"] = scale
    return InequalityReport(
        name=name,
        worst_slack=worst,
        violations=violations,
        tolerance=tolerance,
        parameters=params,
        passed=violations == 0,
    )


# ---------------------------------------------------------------------------
# pointwise restriction identities


def restriction_gradient_residuals(fields: geometry.JetFields) -> dict:
    """Residual arrays of the three coordinate-gradient identities.

    The surface gradients of the restricted ambient coordinates have closed
    forms in the graph data: |grad t|^2 = v^2 - 1, |grad x_i|^2 = gamma^{ii}
    matches the normal tilt g(nu, d_i) = v u_i as e^{-2u} + (e^{-2u} v u_i)^2,
    and the mixed product (gamma^{-1} du)_i is e^{-2t} v g(d_i, nu).  The left
    sides contract through the rank-one gamma^{-1} X = e^{-2u} (X + v^2
    e^{-2u} (du.X) du) of ``JetFields``.  All three are algebraic in the jet,
    so these residuals probe rounding and assembly, not discretization.
    """
    du = fields.du
    n = fields.dimension
    nu_inner = fields.v * du  # g(nu, d_i)
    height = fields.gamma_inv_norm_sq(du) - (fields.v2 - 1.0)
    axes = np.eye(n).reshape((n, n) + (1,) * fields.u.ndim)
    coord = np.empty_like(du)
    for i in range(n):
        coord[i] = fields.gamma_inv_norm_sq(axes[i])
        coord[i] -= fields.em2u + (fields.em2u * nu_inner[i]) ** 2
    mixed = fields.raise_index(du)
    mixed -= (fields.em2u * fields.v) * nu_inner
    return {"height": height, "coordinate": coord, "mixed": mixed}


def check_restriction_gradients(geom: geometry.GeometryFields) -> ResidualReport:
    total = _ResidualSum(())
    for slab, fields in geom.slabs():
        for residual in restriction_gradient_residuals(fields).values():
            total.add(residual, slab)
    return total.report("restriction-gradients", tolerance=RESTRICTION_TOL)


# ---------------------------------------------------------------------------
# coordinate Laplacians, both assembly routes


def _coordinate_closed_forms(geom: geometry.JetFields, axis):
    """(closed form, wave route) of the surface Laplacian of the height t
    (``axis`` None) or of the coordinate x_axis, from the closed forms of
    ``geometry``.  An x_i reads the normal's component along its one axis;
    the height's wave route reads all of them, for its |nu|^2 term."""
    if axis is None:
        nu_sp = (geom.v * geom.em2u) * geom.du
        closed = geometry.height_laplacian_value(geom.H, geom.v, geom.dimension)
        wave = geometry.height_laplacian_wave_value(geom.H, nu_sp, geom.v, geom.u, geom.dimension)
        return closed, wave
    du = geom.du[axis]
    closed = geometry.coordinate_laplacian_values(geom.H, geom.v, geom.u, geom.v * du)
    nu_sp = (geom.v * geom.em2u) * du
    return closed, geometry.coordinate_laplacian_wave_values(geom.H, nu_sp, geom.v)


def check_coordinate_laplacians(geom: geometry.GeometryFields) -> list[ResidualReport]:
    """Discrete surface Laplacian of the coordinate restrictions vs closed
    forms, assembled both directly and through the ambient wave operator:
    one report per route.  Each coordinate's Laplacian is taken once, read
    by both routes slab by slab and dropped before the next.

    Radial grids can only represent rotationally symmetric fields, so they
    check the height coordinate; Cartesian grids check all of them.
    """
    grid = geom.grid
    coordinates = [(geom.u, None)]
    if grid.mode == grids.CARTESIAN:
        coordinates += [(grid.coordinate(i), i) for i in range(grid.dimension)]
    box = grids.laplacian_box(grid)
    closed, wave = _ResidualSum(box), _ResidualSum(box)
    for coordinate, axis in coordinates:
        lap = geom.laplacian(coordinate)
        for slab, fields in geom.slabs():
            closed_value, wave_value = _coordinate_closed_forms(fields, axis)
            part = lap[slab]
            closed.add(part - closed_value, slab)
            part -= wave_value
            wave.add(part, slab)
    return [
        closed.report("coordinate-laplacians"),
        wave.report("coordinate-laplacians-wave-route"),
    ]


# ---------------------------------------------------------------------------
# gradient of the tilt factor


def tilt_gradient_residuals(fields: geometry.JetFields, dv_covector) -> tuple:
    """(vector residual gamma-norm, scalar residual) for the tilt gradient.

    The gradient of v is v P - W(P) with P the tangential part of d_t and
    W the shape operator, and its squared norm expands into
    v^2 (v^2 - 1) - 2 v A(P, P) + |W(P)|^2.  ``dv_covector`` supplies
    d_i v, either analytic (exact) or from finite differences (O(h^2)).
    The vector residual is raised once, as gamma^{-1} (dv + h(P)) - v P;
    h(P) is the one ``fields.sheared_tilt_sq`` reads.
    """
    dv = np.asarray(dv_covector, dtype=float)
    tilt = fields.tilt_tangent
    a_pp = np.einsum("i...,i...->...", tilt, fields.tilt_shear)
    residual = fields.tilt_shear + dv
    fields.raise_index(residual, out=residual)  # grad v + W(P)
    for i in range(fields.dimension):
        residual[i] -= fields.v * tilt[i]
    del tilt
    vec_residual = fields.gamma_norm_sq(residual)
    del residual
    np.maximum(vec_residual, 0.0, out=vec_residual)
    np.sqrt(vec_residual, out=vec_residual)
    closed_norm = (
        fields.v2 * (fields.v2 - 1.0)
        - 2.0 * fields.v * a_pp
        + fields.sheared_tilt_sq
    )
    scalar_residual = fields.gamma_inv_norm_sq(dv) - closed_norm
    return vec_residual, scalar_residual


def check_tilt_gradient(geom: geometry.GeometryFields) -> ResidualReport:
    """Finite-difference gradient of v against its closed form."""
    dv = grids.field_gradient(geom.v, geom.grid)
    total = _ResidualSum(geom.grid.interior())
    for slab, fields in geom.slabs():
        for residual in tilt_gradient_residuals(fields, dv[(slice(None), *slab)]):
            total.add(residual, slab)
    return total.report("tilt-gradient")


# ---------------------------------------------------------------------------
# evolution of the squared tilt factor


def tilt_squared(geom: geometry.GeometryFields) -> np.ndarray:
    """v^2, the field whose rate the tilt checks read."""
    return geom.v2


def _tilt_rhs(fields: geometry.JetFields, grad_v_sq) -> np.ndarray:
    """The closed-form right side of the v^2 evolution, given |grad v|^2."""
    rhs = 4.0 * fields.H * fields.v
    rhs -= 2.0 * fields.v2**2
    rhs -= 4.0 * fields.v2
    rhs -= 2.0 * fields.a2 * fields.v2
    rhs += 2.0 * fields.sheared_tilt_sq
    rhs -= 4.0 * grad_v_sq
    return rhs


def check_tilt_evolution(rates: WindowRates) -> ResidualReport:
    """Measured (d/ds - Lap) v^2 against its closed-form evolution, whose
    right side is built slab by slab.

    The identity's coefficients hold for three spatial dimensions only (on
    a flat 2-d slice its right side is -2, not 0); ``tilt_evolution_skip_reason``
    names the grids it does not apply to.
    """
    box, lhs, grad_v_sq = rates.tilt
    total = _ResidualSum(box)
    for slab, fields in rates.geom.slabs():
        residual = _tilt_rhs(fields, grad_v_sq[slab])
        np.subtract(lhs[slab], residual, out=residual)
        total.add(residual, slab)
    return total.report("tilt-evolution")


def check_tilt_bounds(rates: WindowRates, delta: float) -> list[InequalityReport]:
    """One-sided bounds on the measured v^2 evolution, plus the pointwise
    pinching bound |A|^2 >= (4/3) lambda_1^2 - H^2.

    ``delta`` steers the dissipation bound, in [0, 1/3] (``CheckSpec``).
    Returns one report per bound.  The bounds rest on the v^2 evolution of
    ``check_tilt_evolution``, so ``tilt_evolution_skip_reason`` covers them too.
    """
    (box, lhs, grad_v_sq), geom = rates.tilt, rates.geom
    h = geom.grid.spacing
    common = {"delta": delta, "h": h, "eta": rates.eta}

    dissipation = (
        -(4.0 + delta) * grad_v_sq
        - 2.0 * (1.0 - delta) * geom.v2**2
        + 2.0 * geom.H**2 * geom.v2
        + 4.0 * geom.H * geom.v
    )
    tol_a, scale_a = grid_tolerance(h, dissipation, lhs, box=box)
    reports = [
        _inequality_report(
            "tilt-dissipation-bound", dissipation - lhs, box, tol_a, scale_a, common
        )
    ]

    decay = -4.0 * grad_v_sq - 2.0 * (geom.v2 - 1.0)
    tol_b, scale_b = grid_tolerance(h, decay, lhs, box=box)
    reports.append(
        _inequality_report("tilt-decay-bound", decay - lhs, box, tol_b, scale_b, common)
    )

    pinching, tol_c = _pinching_slack(geom, box)
    reports.append(
        _inequality_report("pinching-bound", pinching, box, tol_c, None, common)
    )
    return reports


def _pinching_slack(fields: geometry.JetFields, box=()):
    """(|A|^2 + H^2 - (4/3) lambda_1^2, tolerance) of the pinching bound.

    The tolerance is rounding level, 1e-10 max(1, max |A|^2) over ``box``.
    """
    lam1 = fields.extremal_curvature()
    slack = fields.a2 + fields.H**2 - (4.0 / 3.0) * lam1**2
    return slack, 1e-10 * max(1.0, float(np.max(np.abs(fields.a2[box]))))


# ---------------------------------------------------------------------------
# Monte Carlo spot check on random jets


def _random_jets(rng, count) -> geometry.JetFields:
    """Spacelike jets in three dimensions with margin at least 0.05."""
    u = rng.uniform(-1.0, 1.0, count)
    direction = rng.normal(size=(3, count))
    direction /= np.linalg.norm(direction, axis=0)
    mag = np.sqrt(rng.uniform(0.0, 0.95, count) * np.exp(2.0 * u))
    d2u = rng.normal(scale=0.5, size=(3, 3, count))
    d2u = 0.5 * (d2u + np.swapaxes(d2u, 0, 1))
    return geometry.JetFields(u, direction * mag, d2u)


def check_random_jets(seed: int, count: int) -> list:
    """The pointwise identities and the pinching bound on ``count`` random
    jets drawn from ``seed``: two residual reports and one bound report."""
    jets = _random_jets(np.random.default_rng(seed), count)
    restriction = restriction_gradient_residuals(jets)
    pinching, tol = _pinching_slack(jets)
    return [
        _residual_report(
            "jet-restriction-gradients",
            list(restriction.values()),
            (),
            tolerance=JET_RESTRICTION_TOL,
        ),
        _residual_report(
            "jet-tilt-gradient",
            tilt_gradient_residuals(jets, jets.dv),
            (),
            tolerance=JET_IDENTITY_TOL,
        ),
        _inequality_report(
            "jet-pinching-bound",
            pinching,
            (),
            tol,
            None,
            {"seed": seed, "count": count},
        ),
    ]


# ---------------------------------------------------------------------------
# localization weight bounds


@dataclass(frozen=True)
class WeightField:
    """The weight e^{alpha t} |x|^2 of ``spec`` as a field of a snapshot
    geometry; equal specs give equal fields, which key the same rate.  It
    reads any heights: the displaced states of a slice at the threshold
    dip below it, so the checks test the threshold on the state."""

    spec: geometry.CutoffSpec

    def __call__(self, geom: geometry.GeometryFields) -> np.ndarray:
        return geom.grid.radius_squared() * np.exp(self.spec.alpha * geom.u)


def _above_threshold(geom: geometry.GeometryFields, spec: geometry.CutoffSpec):
    """``geom`` once its heights reach the weight bounds' threshold ``spec.t_min``."""
    low = float(np.min(geom.u))
    if low < spec.t_min:
        raise BelowThresholdError(f"height {low:.6g} below threshold {spec.t_min:.6g}")
    return geom


def check_weight_evolution(rates: WindowRates, spec: geometry.CutoffSpec) -> InequalityReport:
    """Measured (d/ds - Lap) of the weight e^{alpha t} |x|^2 against its
    guaranteed lower bound (-alpha^2 r - epsilon) v^2.

    The bound only holds above the height threshold; a state below it
    raises BelowThresholdError.  Negative controls (steep alpha at low
    heights) are expected to report violations rather than raise.
    """
    geom, weight = _above_threshold(rates.geom, spec), WeightField(spec)
    lhs = rates.rates[weight] - geom.laplacian(weight(geom))
    _, _, _, evol_lower = geometry.cutoff_arrays(
        geom.u, geom.grid.radius_squared(), geom.v, spec
    )
    box = _rate_box(geom.grid)
    h = geom.grid.spacing
    tol, scale = grid_tolerance(h, evol_lower, lhs, box=box)
    params = {
        "alpha": spec.alpha,
        "epsilon": spec.epsilon,
        "t_min": spec.t_min,
        "h": h,
        "eta": rates.eta,
    }
    return _inequality_report(
        "weight-evolution-bound", lhs - evol_lower, box, tol, scale, params
    )


def check_weight_gradient(
    geom: geometry.GeometryFields, spec: geometry.CutoffSpec
) -> InequalityReport:
    """Two-sided bound on |grad r|^2 for the localization weight, above the
    height threshold; a state below it raises BelowThresholdError."""
    r = WeightField(spec)(_above_threshold(geom, spec))
    grad_r = grids.field_gradient(r, geom.grid)
    grad_sq = geom.gamma_inv_norm_sq(grad_r)
    _, lower, upper, _ = geometry.cutoff_arrays(
        geom.u, geom.grid.radius_squared(), geom.v, spec
    )
    slack = np.minimum(grad_sq - lower, upper - grad_sq)
    box = geom.grid.interior()
    h = geom.grid.spacing
    tol, scale = grid_tolerance(h, lower, upper, grad_sq, box=box)
    params = {
        "alpha": spec.alpha,
        "epsilon": spec.epsilon,
        "t_min": spec.t_min,
        "h": h,
    }
    return _inequality_report("weight-gradient-bounds", slack, box, tol, scale, params)


# ---------------------------------------------------------------------------
# curvature evolution on radial grids


def radial_curvatures(geom: geometry.GeometryFields) -> tuple[np.ndarray, np.ndarray]:
    """(radial, angular) principal curvatures of a rotationally symmetric
    graph, the diagonal of the shape operator of the radial embedding:

        kappa_rho   = e^{-2u} v^3 (u'' + e^{2u} - 2 u'^2)
        kappa_theta = e^{-2u} v (u'/rho + e^{2u}).

    u'/rho is read from the Hessian entry (1, 1), whose axis value is the
    even extrapolation of ``GeometryFields``."""
    u_rho = geom.du[0]
    radial = (geom.hessian[0, 0] - 2.0 * (u_rho * u_rho) + geom.e2u) * geom.v
    radial *= geom.em2u * geom.v2
    angular = (geom.hessian[1, 1] + geom.e2u) * geom.v
    angular *= geom.em2u
    return radial, angular


def _curvature_norm_sq(geom: geometry.GeometryFields) -> np.ndarray:
    kr, ka = radial_curvatures(geom)
    return kr**2 + (geom.dimension - 1.0) * ka**2


def _traceless_curvature_sq(geom: geometry.GeometryFields) -> np.ndarray:
    return _curvature_norm_sq(geom) - geom.H**2 / 3.0


#: The fields whose rates ``check_curvature_evolution`` reads.
CURVATURE_FIELDS = (_curvature_norm_sq, _traceless_curvature_sq)


def _curvature_gradient_sq(geom: geometry.GeometryFields) -> np.ndarray:
    """|grad A|^2 of a rotationally symmetric surface from its curvature
    profiles: radial arclength derivatives plus the orbit-warping term."""
    kr, ka = radial_curvatures(geom)
    grid = geom.grid
    n = geom.dimension
    arc = geom.v * np.exp(-geom.u)  # d/d(arclength) = arc * d/d(rho)
    kr_s = arc * grids.radial_jet(kr, grid)[0]
    ka_s = arc * grids.radial_jet(ka, grid)[0]
    rho = grid.axis()
    warp = np.zeros_like(kr)
    warp[1:] = arc[1:] * (geom.du[0, 1:] + 1.0 / rho[1:]) * (kr[1:] - ka[1:])
    return kr_s**2 + (n - 1.0) * ka_s**2 + 2.0 * (n - 1.0) * warp**2


def check_curvature_evolution(rates: WindowRates) -> tuple[ResidualReport, InequalityReport]:
    """Measured evolution of |A|^2 on a radial surface, plus the one-sided
    bound on its traceless part.

    The identity checked is

        (d/ds - lap) |A|^2 = -2 |grad A|^2 + 4 H^2 - 2 |A|^2 (3 + |A|^2),

    whose right side vanishes on the flat slicing (0 + 36 - 36).  The
    coefficients are specific to three ambient spatial dimensions, and
    |grad A|^2 is only assembled from rotationally symmetric profiles, so
    ``curvature_evolution_skip_reason`` admits radial grids in three dimensions only.

    The traceless part Z = |A|^2 - H^2/3 is tested against the one-sided
    bound (d/ds - lap) Z <= 18 Z - (2/3) H^2 Z.  The measured drift is
    considerably more negative (the identity above gives -6 Z - 2 |A|^2 Z
    plus gradient terms), so the slack stays comfortably positive on
    smooth runs; the looser bound is kept because it is the one the
    downstream flatness estimates consume.
    """
    geom = rates.geom
    rate, rate_z = (rates.rates[f] for f in CURVATURE_FIELDS)
    a2 = _curvature_norm_sq(geom)
    lhs = rate - geom.laplacian(a2)
    rhs = (
        -2.0 * _curvature_gradient_sq(geom)
        + 4.0 * geom.H**2
        - 2.0 * a2 * (3.0 + a2)
    )
    # Curvature fields sit two derivatives deep in u, and the identity
    # differentiates them twice more (the Laplacian, |grad A|^2), so the
    # boundary node's one-sided values (and whatever the boundary
    # condition imposed there) reach four nodes in, with 1/h^2
    # amplification: behind a three-node collar the residual peaks at
    # the nodes N-5 and N-4 and grows 4x per halving of h.  Masking a
    # five-node collar keeps the report about the resolved interior.
    box = geom.grid.interior(CURVATURE_COLLAR)
    identity = _residual_report("curvature-evolution", [lhs - rhs], box)
    z = _traceless_curvature_sq(geom)
    lhs_z = rate_z - geom.laplacian(z)
    bound = 18.0 * z - (2.0 / 3.0) * geom.H**2 * z
    h = geom.grid.spacing
    tol, scale = grid_tolerance(h, bound, lhs_z, box=box)
    traceless = _inequality_report(
        "traceless-curvature-bound",
        bound - lhs_z,
        box,
        tol,
        scale,
        {"h": h, "eta": rates.eta},
    )
    return identity, traceless
