"""Geometry of spacelike graphs in an expanding flat chart, over batches of
jets and over grids.

The ambient space is ``R^n x R`` with the Lorentzian metric

    g = e^{2t} (dx_1^2 + ... + dx_n^2) - dt^2,

an exponentially expanding flat slicing with unit Hubble rate.  Every level
set {t = const} is intrinsically flat and umbilic with mean curvature n
towards the future.  The covariant derivatives of the coordinate fields are

    D_i d_j = delta_ij e^{2t} d_t,    D_i d_t = D_t d_i = d_i,    D_t d_t = 0,

equivalently ``D_X d_t = X + g(X, d_t) d_t`` for any X.  From that table the
geometry of a spacelike graph t = u(x) with jet (u, du, d2u) follows:

    margin        m        = 1 - e^{-2u} |du|^2        (spacelike iff m > 0)
    tilt          v        = m^{-1/2} = -g(d_t, nu) >= 1
    metric        gamma_ij = e^{2u} delta_ij - u_i u_j
    unit normal   nu       = v (e^{-2u} u_i d_i + d_t)   (future pointing)
    tangents      e_i      = d_i + u_i d_t
    D_{e_i} e_j = (u_ij + delta_ij e^{2u}) d_t + u_j d_i + u_i d_j
    second form   h_ij     = -g(D_{e_i} e_j, nu)
                           = v (u_ij + e^{2u} delta_ij - 2 u_i u_j)
    H = gamma^{ij} h_ij,   |A|^2 = tr((gamma^{-1} h)^2).

The closed forms for gamma^{-1} and the mean curvature used below are

    gamma^{ij} = e^{-2u} (delta_ij + v^2 e^{-2u} u_i u_j)
    H / v      = e^{-2u} (tr d2u + v^2 e^{-2u} du.d2u.du) + (n + 1) - v^2,

both consequences of the rank-one structure of gamma.  The derivation of
h_ij from the covariant-derivative table is verified symbolically in
tests/test_geometry.py, and tests/pointwise.py evaluates these formulas one
jet at a time, with tensors, as the reference the batched forms here are
checked against.

Sign conventions: the normal is future pointing (positive d_t component),
and with the h_ij above a flat slice u = const has H = +n, so the flow
built on this module expands towards the future.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grids


# ---------------------------------------------------------------------------
# restriction identities in closed form


def coordinate_laplacian_values(H, v, t, nu_inner, dimension: int):
    """Surface Laplacians of the restricted coordinates, in closed form.

    ``nu_inner`` holds g(nu, d_i) per spatial axis.  Returns (Lap x_i array,
    Lap t).  The t-Laplacian is -n + H v - (v^2 - 1); the constant -n is the
    ambient wave operator of t.
    """
    em2t = np.exp(-2.0 * np.asarray(t, dtype=float))
    nu_inner = np.asarray(nu_inner, dtype=float)
    lap_x = H * em2t * nu_inner - 2.0 * em2t * v * nu_inner
    lap_t = -float(dimension) + H * v - (v * v - 1.0)
    return lap_x, lap_t


def coordinate_laplacian_wave_values(H, nu_sp, nu_t, t, dimension: int):
    """Same Laplacians assembled from the ambient wave-operator identity.

    Lap f = Box f + H nu(f) + Hess f(nu, nu) for the restriction of an
    ambient function f.  For the coordinates: Box x_i = 0, Box t = -n,
    Hess x_i has the single pair of entries (d_i, d_t) = -1, and
    Hess t(d_i, d_i) = -e^{2t}.  Algebraically identical to the closed
    forms, but assembled through an independent code path from the normal's
    spatial components ``nu_sp`` (leading axis) and its d_t component
    ``nu_t``.  Returns (Lap x_i array, Lap t).
    """
    nu_sp = np.asarray(nu_sp, dtype=float)
    e2t = np.exp(2.0 * np.asarray(t, dtype=float))
    lap_x = H * nu_sp - 2.0 * nu_sp * nu_t
    lap_t = -float(dimension) + H * nu_t - e2t * np.einsum("i...,i...->...", nu_sp, nu_sp)
    return lap_x, lap_t


# ---------------------------------------------------------------------------
# localization weight r = e^{alpha t} |x|^2


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of the localization weight r = e^{alpha t} |x|^2.

    ``epsilon`` is the slack the height threshold ``t_min`` buys in the
    bounds below.
    """

    alpha: float
    epsilon: float
    t_min: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")


def cutoff_arrays(t, radius_sq, v, spec: CutoffSpec):
    """(r, lower and upper bound on |grad r|^2, lower bound on (d/ds - Lap) r) per node."""
    t = np.asarray(t, dtype=float)
    r = np.exp(spec.alpha * t) * np.asarray(radius_sq, dtype=float)
    v2 = np.asarray(v, dtype=float) ** 2
    a2r = spec.alpha**2 * r
    grad_lower = a2r * (1.0 - spec.epsilon) * r * (v2 - 1.0) - spec.epsilon * r * v2
    grad_upper = 2.0 * a2r * r * (v2 - 1.0) + spec.epsilon * r * v2
    evol_lower = (-a2r - spec.epsilon) * v2
    return r, grad_lower, grad_upper, evol_lower


# ---------------------------------------------------------------------------
# vectorized geometry over jet batches and grids


def _margin_core(u, grad_sq):
    """(e^{-2u}, margin, v^2) from the height and |du|^2."""
    em2u = np.exp(-2.0 * u)
    margin = 1.0 - em2u * grad_sq
    grids.require_spacelike(margin)
    return em2u, margin, 1.0 / margin


def _speed_core(u, grad_sq, trace, quad, n):
    """The scalar closed forms shared by the Cartesian kernel and ``JetFields``.

    From the jet invariants |du|^2, tr d2u and du.d2u.du this gives
    (e^{-2u}, margin, v^2, v, H/v, H), with H/v from the module docstring.
    """
    em2u, margin, v2 = _margin_core(u, grad_sq)
    v = np.sqrt(v2)
    speed = em2u * (trace + v2 * em2u * quad) + (n + 1.0) - v2
    return em2u, margin, v2, v, speed, v * speed


#: The height at which e^{2u}, which every ``JetFields`` holds, overflows.
MAX_HEIGHT = 0.5 * float(np.log(np.finfo(float).max))


class JetFields:
    """Geometry quantities over a batch of jets, computed lazily.

    Index convention: tensor axes lead, so du is (n, ...) and d2u is
    (n, n, ...) over an arbitrary batch shape.  Everything heavier than the
    core scalars (e^{-2u}, v^2, v, H) is a cached property, so cheap
    consumers stay cheap.

    gamma = e^{2u} I - du du^T is a rank-one update of a multiple of the
    identity, so every contraction the checks take has a closed form in
    du and d2u (c = v^2 e^{-2u}, M = d2u + e^{2u} I - 2 du du^T = h / v, and
    N = e^{-2u} M, which stays finite where e^{4u} overflows):

        gamma^{-1} X       = e^{-2u} (X + c (du.X) du)
        |X|^2_gamma        = e^{2u} |X|^2 - (du.X)^2
        gamma^{ij} X_i X_j = e^{-2u} (|X|^2 + c (du.X)^2)
        h(X)               = v M X
        |A|^2              = v^2 (tr N^2 + 2 c |N du|^2 + c^2 (du.N du)^2).

    These are the only route: no (n, n, ...) node tensor is built, except
    the one (..., n, n) array ``eigvalsh`` reads in ``eigenvalues``.  The
    tensor forms live in the tests, as the reference these are checked
    against.
    """

    def __init__(self, u, du, d2u):
        self.u = np.asarray(u, dtype=float)
        self.du = np.asarray(du, dtype=float)
        self.d2u = np.asarray(d2u, dtype=float)
        self.dimension = self.du.shape[0]
        self.e2u = np.exp(2.0 * self.u)
        self.grad_sq = np.einsum("i...,i...->...", self.du, self.du)
        (self.em2u, _, self.v2, self.v, _, self.H) = _speed_core(
            self.u,
            self.grad_sq,
            np.einsum("ii...->...", self.d2u),
            np.einsum("i...,ij...,j...->...", self.du, self.d2u, self.du),
            self.dimension,
        )

    def _du_dot(self, X):
        return np.einsum("i...,i...->...", self.du, X)

    def _m_entry(self, i, j):
        """M_ij = d2u_ij + e^{2u} delta_ij - 2 u_i u_j, one node array."""
        m = self.d2u[i, j] - 2.0 * self.du[i] * self.du[j]
        if i == j:
            m += self.e2u
        return m

    def _m_dot(self, X):
        """M X = d2u.X + e^{2u} X - 2 (du.X) du for X of shape (n, ...)."""
        out = np.einsum("ij...,j...->i...", self.d2u, X)
        out += self.e2u * X
        out -= 2.0 * self._du_dot(X) * self.du
        return out

    def raise_index(self, X):
        """gamma^{ij} X_j for covector components X of shape (n, ...)."""
        out = (self.v2 * self.em2u * self._du_dot(X)) * self.du
        out += X
        out *= self.em2u
        return out

    def second_form(self, X):
        """h_ij X^j for tangent components X of shape (n, ...)."""
        return self.v * self._m_dot(X)

    @cached_property
    def a2(self):
        """|A|^2 = tr((gamma^{-1} h)^2), by the closed form in the class docstring."""
        n = self.dimension
        c = self.v2 * self.em2u
        n_du = self.em2u * self._m_dot(self.du)
        tr_n2 = np.zeros(self.u.shape)
        for i in range(n):
            for j in range(i, n):
                tr_n2 += (1.0 if i == j else 2.0) * (self.em2u * self._m_entry(i, j)) ** 2
        cross = np.einsum("i...,i...->...", n_du, n_du)
        quad = self._du_dot(n_du)
        return self.v2 * (tr_n2 + 2.0 * c * cross + (c * quad) ** 2)

    @cached_property
    def weight(self):
        """sqrt(det gamma) = e^{n u} / v, the volume density over dx, relative
        to e^{n max u}, which overflows past u = 236.6 in three dimensions;
        the Laplacian (1/w) d(w .) does not see the constant factor."""
        return np.exp(self.dimension * (self.u - np.max(self.u))) / self.v

    @cached_property
    def tilt_tangent(self):
        """e_i components of the tangential part of d_t (equals -grad t)."""
        return -(self.v2 * self.em2u) * self.du

    @cached_property
    def sheared_tilt(self):
        """Shape operator applied to the tangential part of d_t."""
        return self.raise_index(self.second_form(self.tilt_tangent))

    @cached_property
    def dv(self):
        """Spatial derivative of v implied by the jet (chain rule on m)."""
        dm = 2.0 * self.em2u * (
            self.du * self.grad_sq
            - np.einsum("ij...,j...->i...", self.d2u, self.du)
        )
        return -0.5 * self.v**3 * dm

    def eigenvalues(self):
        """Shape-operator eigenvalues, ascending along the last axis.

        They are those of the symmetric W = gamma^{-1/2} h gamma^{-1/2}, with
        gamma^{-1/2} = e^{-u} (I + k du du^T) and k = e^{-2u} v^2 / (v + 1)
        (k |du|^2 = v - 1, so flat nodes need no care).  W is assembled
        entry by entry, batch axes first, as ``eigvalsh`` wants it.
        """
        n = self.dimension
        k = self.em2u * self.v2 / (self.v + 1.0)
        m_du = self._m_dot(self.du)
        kq = k * self._du_dot(m_du)
        scale = self.v * self.em2u
        W = np.empty(self.u.shape + (n, n))
        for i in range(n):
            for j in range(i, n):
                w = self._m_entry(i, j)
                w += k * (m_du[i] * self.du[j] + self.du[i] * m_du[j])
                w += (k * kq) * self.du[i] * self.du[j]
                W[..., i, j] = W[..., j, i] = scale * w
        return np.linalg.eigvalsh(W)

    def extremal_curvature(self):
        """Principal curvature of largest magnitude at each point, sign kept."""
        lam = self.eigenvalues()
        low, high = lam[..., 0], lam[..., -1]
        return np.where(np.abs(high) >= np.abs(low), high, low)

    def gamma_norm_sq(self, X):
        """|X|^2_gamma for tangent components X of shape (n, ...)."""
        return self.e2u * np.einsum("i...,i...->...", X, X) - self._du_dot(X) ** 2

    def gamma_inv_norm_sq(self, X):
        """gamma^{ij} X_i X_j for covector components X of shape (n, ...)."""
        dot = self._du_dot(X)
        return self.em2u * (
            np.einsum("i...,i...->...", X, X) + self.v2 * self.em2u * dot * dot
        )


def _radial_jet(u, grid: grids.Grid):
    """(u', u'', u'/rho) of a radial profile, three new arrays.

    u'/rho is u' times the grid's cached ``inverse_radius``; its axis value
    is filled by even extrapolation.  Filling the axis node with a direct
    second-derivative stencil (its analytic limit) gives it a truncation
    error of h^2 u''''/12 while the neighbouring ratios carry h^2 u''''/6
    from the centered first derivative.  That mismatch is a genuine kink
    which second-difference consumers (the surface Laplacian of curvature
    fields) amplify into an O(1) error beside the axis.  Extrapolating the
    even profile through the first two interior nodes instead keeps the
    discretization error a smooth function of the radius.
    """
    u_rho, u_rhorho = grids.radial_jet(u, grid)
    sor = u_rho * grid.inverse_radius
    near, far = sor[1:3].tolist()
    sor[0] = (4.0 * near - far) / 3.0
    return u_rho, u_rhorho, sor


class GeometryFields(JetFields):
    """Jet geometry of a discrete height field over a grid.

    Radial profiles are embedded as jets along the first coordinate axis:
    du = (u', 0, ..., 0) and d2u = diag(u'', u'/rho, ..., u'/rho), with the
    axis value of u'/rho filled by even extrapolation.  The generic closed
    forms then apply unchanged in both modes.
    """

    def __init__(self, grid: grids.Grid, u_values):
        u_values = np.asarray(u_values, dtype=float)
        n = grid.dimension
        if grid.mode == grids.RADIAL:
            u_rho, u_rhorho, sor = _radial_jet(u_values, grid)
            du = np.zeros((n,) + grid.shape)
            du[0] = u_rho
            d2u = np.zeros((n, n) + grid.shape)
            d2u[0, 0] = u_rhorho
            for k in range(1, n):
                d2u[k, k] = sor
        else:
            du, d2u = grids.cartesian_jet(u_values, grid)
        self.grid = grid
        super().__init__(u_values, du, d2u)

    def laplacian(self, values) -> np.ndarray:
        """Discrete surface Laplacian of a node field on this geometry."""
        if self.grid.mode == grids.RADIAL:
            return grids.laplace_beltrami_radial(values, self.u, self.v, self.grid)
        return grids.laplace_beltrami_cartesian(
            values, self.weight, self.raise_index, self.grid
        )


def graph_speed_fields(u_values, grid: grids.Grid):
    """Lean flow kernel: four new arrays (H/v, v^2, H, margin).

    This is the hot path of the solver.  A Cartesian field needs only the
    jet invariants |du|^2, tr d2u and du.d2u.du, which
    ``grids.cartesian_invariants`` sums Hessian entry by entry without
    storing an (n, n, ...) tensor.  A radial
    profile works in place on the arrays of ``grids.radial_jet``; with
    v^2 e^{-2u} |du|^2 = v^2 - 1 its speed is

        H / v = e^{-2u} (v^2 u'' + (n - 1) u'/rho) + (n + 1) - v^2,

    exactly n on a flat slice, where every stencil vanishes.
    """
    u = np.asarray(u_values, dtype=float)
    n = grid.dimension
    if grid.mode == grids.RADIAL:
        # u', u'' and u'/rho become the margin, the speed and its slope term
        margin, speed, slope_term = _radial_jet(u, grid)
        em2u = np.multiply(u, -2.0)
        np.exp(em2u, out=em2u)
        margin *= margin
        margin *= em2u
        np.subtract(1.0, margin, out=margin)
        grids.require_spacelike(margin)
        v2 = np.divide(1.0, margin)
        speed *= v2
        slope_term *= n - 1.0
        speed += slope_term
        speed *= em2u
        speed += n + 1.0
        speed -= v2
        H = np.sqrt(v2)
        H *= speed
    else:
        grad_sq, trace, quad = grids.cartesian_invariants(u, grid)
        _, margin, v2, _, speed, H = _speed_core(u, grad_sq, trace, quad, n)
    return speed, v2, H, margin


def radial_speed_jacobian(u_values, grid: grids.Grid) -> np.ndarray:
    """Exact derivative of the radial kernel speed, in banded storage.

    In radial form the kernel speed is

        S = E (q + (n-1) sigma) + E^2 v^2 p^2 q + (n + 1) - v^2,

    with E = e^{-2u}, p = u', q = u'', sigma = u'/rho and v^2 = 1/(1 - E p^2)
    taken from the discrete stencils of ``graph_speed_fields``.  The chain
    rule through those stencils gives a matrix with one sub-diagonal and
    three super-diagonals: row 0 reaches node 3 through the even
    extrapolation of u'/rho at the axis.  The result is laid out for
    ``scipy.linalg.solve_banded((1, 3), ...)``: entry (i, j) sits at
    ``[3 + i - j, j]``.  The boundary row (the last node) is left zero for
    the caller's boundary condition.
    """
    u = np.asarray(u_values, dtype=float)
    n = grid.dimension
    h = grid.spacing
    p, q, sigma = _radial_jet(u, grid)
    g = p * p
    E, _, v2 = _margin_core(u, g)
    Eq = E * q
    # partial derivatives of S in the local jet (u, p, q, sigma), simplified
    # with 1 + v^2 E g = v^2
    d_q = E * v2
    d_sigma = (n - 1.0) * E
    d_p = (2.0 * p * v2) * d_q * (Eq - 1.0)
    d_u = -2.0 * (Eq + d_sigma * sigma + d_q * g * (Eq * (v2 + 1.0) - v2))

    ab = np.zeros((5, grid.resolution))
    inner = slice(1, grid.resolution - 1)
    first = (d_p[inner] + d_sigma[inner] * grid.inverse_radius[inner]) / (2.0 * h)
    second = d_q[inner] / (h * h)
    ab[4, :-2] = second - first
    ab[3, inner] = d_u[inner] - 2.0 * second
    ab[2, 2:] = second + first
    # axis row: q0 = 2 (u1 - u0) / h^2, sigma0 = (4 p1 / rho1 - p2 / rho2) / 3
    near = 4.0 * d_sigma[0] / (6.0 * h * h)
    far = d_sigma[0] / (6.0 * h * 2.0 * h)
    ab[3, 0] = d_u[0] - 2.0 * d_q[0] / (h * h) - near
    ab[2, 1] = 2.0 * d_q[0] / (h * h) + far
    ab[1, 2] = near
    ab[0, 3] = -far
    return ab
