"""Pointwise reference geometry, kept with the tests because no command needs it.

The package computes in batches (``geometry.JetFields``, the vectorized flow
kernel).  This module is the independent route they are checked against,
one point at a time and with full tensors: the ambient chart, single graph
jets with their induced geometry, the chart isometry on points, jets and
grid states, criterion 9's comparison of two recorded flows, and two exact
curved solutions: the spacelike spheres and the tilted slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dsmcf import experiments, flow, grids, oracles
from dsmcf.errors import NonSpacelikeError, OutOfDomainError
from dsmcf.grids import MARGIN_FLOOR


# ---------------------------------------------------------------------------
# ambient space


@dataclass(frozen=True)
class AmbientPoint:
    """A point (x, t) of the ambient expanding chart."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))

    @property
    def dimension(self) -> int:
        return self.x.shape[0]


def ambient_metric(t: float, dimension: int = 3) -> np.ndarray:
    """Metric matrix diag(e^{2t}, ..., e^{2t}, -1) in coordinates (x, t)."""
    diag = np.full(dimension + 1, math.exp(2.0 * t))
    diag[-1] = -1.0
    return np.diag(diag)


def ambient_inner(X: np.ndarray, Y: np.ndarray, t, dimension: int = 3):
    """g(X, Y) at height t for (n+1)-component vectors (spatial first, t last)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    spatial = np.sum(X[..., :dimension] * Y[..., :dimension], axis=-1)
    return np.exp(2.0 * np.asarray(t)) * spatial - X[..., -1] * Y[..., -1]


def isometry_shift_point(point: AmbientPoint, a: float) -> AmbientPoint:
    """The boost (x, t) -> (e^a x, t - a), an isometry of the chart."""
    return AmbientPoint(x=math.exp(a) * point.x, t=point.t - a)


# ---------------------------------------------------------------------------
# graph jets


@dataclass(frozen=True)
class GraphSample:
    """Second-order jet (u, du, d2u) of a height function at one point."""

    u: float
    du: np.ndarray
    d2u: np.ndarray
    x: np.ndarray | None = None

    def __post_init__(self):
        du = np.atleast_1d(np.asarray(self.du, dtype=float))
        d2u = np.asarray(self.d2u, dtype=float)
        object.__setattr__(self, "du", du)
        object.__setattr__(self, "d2u", d2u)
        if self.x is not None:
            object.__setattr__(
                self, "x", np.atleast_1d(np.asarray(self.x, dtype=float))
            )
        n = du.shape[0]
        if d2u.shape != (n, n):
            raise ValueError(f"d2u must be {n}x{n}, got {d2u.shape}")
        scale = max(1.0, float(np.max(np.abs(d2u))))
        if np.max(np.abs(d2u - d2u.T)) > 1e-12 * scale:
            raise ValueError("d2u must be symmetric")
        m = spacelike_margin(self.u, du)
        if not m > MARGIN_FLOOR:
            raise NonSpacelikeError(
                f"jet has margin {m:.3e} <= {MARGIN_FLOOR:.0e}; "
                "the graph is not spacelike here"
            )

    @property
    def dimension(self) -> int:
        return self.du.shape[0]


def spacelike_margin(u, du):
    """m = 1 - e^{-2u} |du|^2, positive exactly on spacelike jets."""
    du = np.asarray(du, dtype=float)
    return 1.0 - np.exp(-2.0 * np.asarray(u)) * np.sum(du * du, axis=0)


def jet_after_isometry(sample: GraphSample, a: float) -> GraphSample:
    """Jet of the shifted graph u'(y) = u(e^{-a} y) - a at y = e^a x."""
    x = None if sample.x is None else math.exp(a) * sample.x
    return GraphSample(
        u=sample.u - a,
        du=math.exp(-a) * sample.du,
        d2u=math.exp(-2.0 * a) * sample.d2u,
        x=x,
    )


# ---------------------------------------------------------------------------
# surface geometry at a point


@dataclass(frozen=True)
class SurfaceGeometry:
    """Induced geometry of a spacelike graph at one point.

    ``nu`` has n+1 components in the (d_i, d_t) coordinate basis with the
    t-component last and positive.  ``h`` is the second fundamental form in
    the coordinate tangent basis e_i = d_i + u_i d_t.  ``lambda1`` is the
    principal curvature of largest magnitude, sign kept.
    """

    gamma: np.ndarray
    nu: np.ndarray
    v: float
    h: np.ndarray
    H: float
    a2: float
    a2_traceless: float
    lambda1: float
    margin: float
    sample: GraphSample


def shape_operator_eigenvalues(gamma: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Eigenvalues of gamma^{-1} h, ascending along the last axis.

    Works on batches: gamma and h may be (..., n, n).  The eigenvalues are
    real because gamma is positive definite; they are computed from the
    congruent symmetric matrix L^{-1} h L^{-T} with gamma = L L^T.  A gamma
    that is not positive definite raises ``np.linalg.LinAlgError``.
    """
    gamma = np.asarray(gamma, dtype=float)
    h = np.asarray(h, dtype=float)
    Linv = np.linalg.inv(np.linalg.cholesky(gamma))
    W = np.einsum("...ab,...bc,...dc->...ad", Linv, h, Linv)
    return np.linalg.eigvalsh(W)


def hessian_tensor(entries, n):
    """The (n, n, ...) Hessian tensor of a mapping from (i, j) to its entries,
    which holds (i, j) for i <= j at least (``JetFields.hessian``,
    ``grids.cartesian_jet``)."""
    return np.stack(
        [np.stack([entries[min(i, j), max(i, j)] for j in range(n)]) for i in range(n)]
    )


def tensor_forms(fields):
    """(gamma, gamma^{-1}, h, gamma^{-1} h) as (n, n, ...) node tensors, built
    from ``fields.du`` and ``fields.hessian`` with gamma^{-1} by matrix
    inversion: the independent reference for the rank-one closed forms of
    ``JetFields``."""
    n = fields.dimension
    du = fields.du
    d2u = hessian_tensor(fields.hessian, n)
    e2u = np.exp(2.0 * fields.u)
    v = 1.0 / np.sqrt(1.0 - np.einsum("i...,i...->...", du, du) / e2u)
    eye = np.eye(n).reshape((n, n) + (1,) * fields.u.ndim)
    outer = np.einsum("i...,j...->ij...", du, du)
    gamma = e2u * eye - outer
    h = v * (d2u + e2u * eye - 2.0 * outer)
    gamma_inv = np.moveaxis(
        np.linalg.inv(np.moveaxis(gamma, (0, 1), (-2, -1))), (-2, -1), (0, 1)
    )
    shape_op = np.einsum("ik...,kj...->ij...", gamma_inv, h)
    return gamma, gamma_inv, h, shape_op


def batch_shape_eigenvalues(fields) -> np.ndarray:
    """Shape-operator eigenvalues of a batch geometry (``geometry.JetFields``),
    ascending along the last axis, by the tensor route: ``eigvalsh`` of the
    Cholesky-congruent form of ``tensor_forms``' gamma and h."""
    gamma, _, h, _ = tensor_forms(fields)
    return shape_operator_eigenvalues(
        np.moveaxis(gamma, (0, 1), (-2, -1)), np.moveaxis(h, (0, 1), (-2, -1))
    )


def batch_extremal_curvature(fields) -> np.ndarray:
    """The principal curvature of largest magnitude, sign kept, of a batch
    geometry by the tensor route of ``batch_shape_eigenvalues``."""
    lam = batch_shape_eigenvalues(fields)
    low, high = lam[..., 0], lam[..., -1]
    return np.where(np.abs(high) >= np.abs(low), high, low)


def surface_geometry(sample: GraphSample) -> SurfaceGeometry:
    """Full induced geometry of the graph jet ``sample``, written out
    pointwise on its own."""
    n = sample.dimension
    u, du, d2u = sample.u, sample.du, sample.d2u
    e2u = math.exp(2.0 * u)
    em2u = 1.0 / e2u
    m = float(spacelike_margin(u, du))
    if not m > MARGIN_FLOOR:
        raise NonSpacelikeError(f"margin {m:.3e} at or below floor {MARGIN_FLOOR:.0e}")
    v = 1.0 / math.sqrt(m)

    outer = np.outer(du, du)
    gamma = e2u * np.eye(n) - outer
    nu = np.empty(n + 1)
    nu[:n] = v * em2u * du
    nu[-1] = v
    h = v * (d2u + e2u * np.eye(n) - 2.0 * outer)

    gamma_inv = em2u * (np.eye(n) + (v * v * em2u) * outer)
    S = gamma_inv @ h
    H = float(np.trace(S))
    a2 = float(np.einsum("ij,ji->", S, S))
    lam = shape_operator_eigenvalues(gamma, h)
    # extremal principal curvature by magnitude, sign kept
    lam1 = lam[-1] if abs(lam[-1]) >= abs(lam[0]) else lam[0]
    return SurfaceGeometry(
        gamma=gamma,
        nu=nu,
        v=v,
        h=h,
        H=H,
        a2=a2,
        a2_traceless=a2 - H * H / n,
        lambda1=float(lam1),
        margin=m,
        sample=sample,
    )


def tangential_projection(X: np.ndarray, geom: SurfaceGeometry) -> np.ndarray:
    """Project an ambient vector onto the tangent space: X + g(X, nu) nu."""
    X = np.asarray(X, dtype=float)
    n = geom.sample.dimension
    inner = ambient_inner(X, geom.nu, geom.sample.u, dimension=n)
    return X + inner * geom.nu


# ---------------------------------------------------------------------------
# state-level isometry


def isometry_shift_state(state: flow.GraphState, a: float) -> flow.GraphState:
    """Apply the chart isometry (x, t) -> (e^a x, t - a) to a graph state.

    The new height field is u'(y) = u(e^{-a} y) - a on the same grid.  The
    flow is equivariant under this map at fixed s.  For a < 0 the pulled
    back points leave the grid hull and interpolation raises
    OutOfDomainError.
    """
    grid = state.grid
    try:
        pulled = grids.interpolate(state.u, np.exp(-a) * grid.points())
    except OutOfDomainError as exc:
        raise OutOfDomainError(f"isometry shift a = {a:.6g}: {exc}") from exc
    values = np.asarray(pulled).reshape(grid.shape) - a
    new_state = flow.GraphState(u=grids.Field(grid, values), s=state.s, bc=state.bc)
    state.bc.check(new_state)
    return new_state


# ---------------------------------------------------------------------------
# discrete ordering principle (acceptance criterion 9)


@dataclass(frozen=True)
class ComparisonResult(experiments._Result):
    """Worst signed gap max(u_low - u_high) per matched snapshot."""

    s: np.ndarray
    worst_gap: np.ndarray
    tolerance: float
    ordered: bool
    passed: bool


def comparison_run(lo: flow.Trajectory, hi: flow.Trajectory) -> ComparisonResult:
    """Check that two flows from ordered initial states stay ordered.

    Both runs must have ended without failure, and their initial states
    must share a grid and boundary kind, with the first below the second.
    The upper run is interpolated in time onto the lower run's snapshot
    times, and the flows count as ordered when the lower one never exceeds
    the upper by more than the 10 h^2 allowance.
    """
    for traj in (lo, hi):
        if traj.failure is not None:
            raise ValueError(f"comparison runs must end without failure: {traj.failure}")
    low, high = lo.snapshots[0], hi.snapshots[0]
    if (
        low.grid.mode != high.grid.mode
        or low.grid.dimension != high.grid.dimension
        or low.grid.resolution != high.grid.resolution
        or abs(low.grid.extent - high.grid.extent) > 1e-12
    ):
        raise ValueError("comparison states must share a grid")
    if low.bc.kind != high.bc.kind:
        raise ValueError("comparison states must share a boundary kind")
    if np.any(low.u.values > high.u.values + 1e-12):
        raise ValueError("initial data must be ordered: first below second")

    s_lo = lo.s_values()
    s_hi = hi.s_values()
    hi_profiles = experiments._snapshot_profiles(hi)
    tol, _ = oracles.grid_tolerance(low.grid.spacing)
    gaps = np.empty(len(lo.snapshots))
    for k, st in enumerate(lo.snapshots):
        tau = min(max(float(s_lo[k]), float(s_hi[0])), float(s_hi[-1]))
        upper = experiments._profile_at(s_hi, hi_profiles, tau)
        gaps[k] = float(np.max(st.u.values - upper))
    ordered = bool(np.all(gaps <= tol))
    return ComparisonResult(
        s=s_lo,
        worst_gap=gaps,
        tolerance=tol,
        ordered=ordered,
        passed=ordered,
    )


# ---------------------------------------------------------------------------
# exact curved solutions: spacelike spheres and tilted slices


def sphere_profile(rho, c):
    """The spacelike sphere u_c = log((c + sqrt(c^2 + 1 + rho^2)) / (1 + rho^2)),
    the hyperboloid f = c - sqrt(c^2 + 1 + rho^2) in conformal time f = -e^{-u}.
    Its graph speed in n dimensions is d_s u = n c / sqrt(c^2 + 1 + rho^2)."""
    return np.log((c + np.sqrt(c * c + 1.0 + rho * rho)) / (1.0 + rho * rho))


def tilted_profile(x, c, s):
    """The tilted slice u = n s - log(1 - c x_1) at flow time ``s``, over the
    coordinate arrays ``x`` (``Grid.meshes``, n of them), spacelike where
    c x_1 < 1 for c < 1.  It is the level set of a linear function of the
    ambient Minkowski space, a totally umbilic section, curved up to every
    face and not radial: e^{-2u}|du|^2 = c^2 e^{-2ns}, so v is the same at
    every node, H = n v, every principal curvature is v, and its graph
    speed is n."""
    return len(x) * s - np.log(1.0 - c * x[0])
