"""Grids, finite-difference stencils, and discrete surface operators.

Two grid modes cover the geometries the solver works with:

* ``cartesian``: a uniform node-centered box ``[-extent, extent]^n``.
* ``radial``: a uniform 1-d grid on ``[0, extent]`` holding rotationally
  symmetric profiles.  Fields on radial grids are even functions of the
  radius, so the stencils at the axis use the even reflection and the
  derivative at rho = 0 vanishes identically.

All stencils are second order: central differences in the interior and
second-order one-sided differences on the outermost node layer.  They are
exact on quadratics, which the tests pin down.

A region of a grid is an index box, one slice or index per axis, so a read
through it is a view: ``Grid.interior`` leaves out node layers at the
boundary, ``Grid.boundary`` lists the boundary faces, and ``()`` is every node.
``slabs`` tiles a grid with boxes of whole rows along axis 0, so pointwise
chains can run over cache-sized blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonSpacelikeError, OutOfDomainError

CARTESIAN = "cartesian"
RADIAL = "radial"

#: Errors below this level are rounding noise; refinement ratios computed
#: from them would be meaningless.
DEGENERATE_RESIDUAL_FLOOR = 1e-14

#: Jets whose spacelike margin falls at or below this floor are rejected
#: rather than clamped; silently clamping would hide causality violations.
MARGIN_FLOOR = 1e-10


def require_spacelike(margin: np.ndarray) -> None:
    """Raise NonSpacelikeError naming the worst node of ``margin`` when it is
    at or below MARGIN_FLOOR or NaN (argmin finds a NaN first); no clamping."""
    worst_flat = int(margin.argmin())
    worst = float(margin.flat[worst_flat])
    if not worst > MARGIN_FLOOR:
        loc = tuple(int(i) for i in np.unravel_index(worst_flat, margin.shape))
        raise NonSpacelikeError(
            f"margin {worst:.3e} at node {loc} (floor {MARGIN_FLOOR:.0e})",
            location=loc,
        )


@dataclass(frozen=True)
class Grid:
    """Uniform grid description.

    ``resolution`` counts nodes per axis (so ``resolution - 1`` cells).
    ``extent`` is the half-width of the box in cartesian mode and the outer
    radius in radial mode.
    """

    mode: str
    dimension: int
    extent: float
    resolution: int

    def __post_init__(self):
        if self.mode not in (CARTESIAN, RADIAL):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if self.resolution < 5:
            raise ValueError(
                f"resolution {self.resolution} < 5: the one-sided "
                "second-derivative stencil needs at least 5 nodes"
            )
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.mode == RADIAL and self.dimension < 2:
            raise ValueError("radial mode needs dimension >= 2")
        if not 0 < self.extent < math.inf:
            raise ValueError("extent must be positive and finite")
        # h^2, and |x|^2 (``radius_squared``) or, radially, 1/h^2 (``radial_jet``)
        # and the shell edges to the power n (``radial_measure``), which bound it
        h, n = self.spacing, self.dimension
        try:
            if self.mode == RADIAL:
                scales = [h * h, 1.0 / (h * h), (0.5 * h) ** n, self.extent**n]
            else:
                scales = [h * h, n * self.extent**2]
        except (OverflowError, ZeroDivisionError):
            scales = [math.inf]
        if not all(0.0 < x < math.inf for x in scales):
            raise ValueError(f"extent {self.extent:g} overflows a stencil at spacing {h:g}")

    @property
    def spacing(self) -> float:
        if self.mode == CARTESIAN:
            return 2.0 * self.extent / (self.resolution - 1)
        return self.extent / (self.resolution - 1)

    @property
    def shape(self) -> tuple:
        if self.mode == CARTESIAN:
            return (self.resolution,) * self.dimension
        return (self.resolution,)

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (radius for radial mode).

        Built once per grid and shared, so the array is read-only.
        """
        return self._axis

    @cached_property
    def _axis(self) -> np.ndarray:
        low = -self.extent if self.mode == CARTESIAN else 0.0
        return _read_only(np.linspace(low, self.extent, self.resolution))

    def meshes(self) -> list:
        """Coordinate arrays per axis, each shaped like a field."""
        if self.mode == CARTESIAN:
            ax = self.axis()
            return list(np.meshgrid(*([ax] * self.dimension), indexing="ij"))
        return [self.axis()]

    def points(self) -> np.ndarray:
        """Node positions as (node_count, dimension) rows in node order.

        Radial nodes sit on the first coordinate axis at their radius.
        """
        if self.mode == RADIAL:
            pts = np.zeros((self.resolution, self.dimension))
            pts[:, 0] = self.axis()
            return pts
        return np.stack([m.ravel() for m in self.meshes()], axis=-1)

    def radius_squared(self) -> np.ndarray:
        """|x|^2 at every node."""
        if self.mode == RADIAL:
            return self.axis() ** 2
        square = self.axis() ** 2
        r2 = np.zeros(self.shape)
        for i in range(self.dimension):
            r2 += square.reshape((-1,) + (1,) * (self.dimension - 1 - i))
        return r2

    def coordinate(self, i: int) -> np.ndarray:
        """The Cartesian coordinate x_i at every node, a read-only broadcast
        view of the axis (no node array is built)."""
        column = self.axis().reshape((-1,) + (1,) * (self.dimension - 1 - i))
        return np.broadcast_to(column, self.shape)

    def interior(self, ring: int = 1) -> tuple:
        """Index box of the nodes ``ring`` layers in from the boundary, one
        slice per axis.  The radial axis node rho = 0 is interior; only the
        outer end is a boundary there."""
        if self.mode == RADIAL:
            return (slice(0, self.resolution - ring),)
        return (slice(ring, self.resolution - ring),) * self.dimension

    def boundary(self) -> tuple:
        """The boundary faces as index boxes: the outer end node of a radial
        grid, the first and last node layer along each Cartesian axis (the
        faces share their edges and corners)."""
        if self.mode == RADIAL:
            return ((-1,),)
        return tuple((slice(None),) * k + (end,) for k in range(self.dimension) for end in (0, -1))

    @cached_property
    def inverse_radius(self) -> np.ndarray:
        """1/rho at every radial node, read-only and built once; the axis
        entry 0 stands in for the extrapolation that fills u'/rho there."""
        inverse = np.zeros(self.resolution)
        inverse[1:] = 1.0 / self.axis()[1:]
        return _read_only(inverse)


#: About the nodes in a slab of ``slabs``: the dozen arrays of a pointwise
#: chain over a slab stay in a 2 MB cache.
SLAB_NODES = 16384


def slabs(grid: Grid) -> list:
    """Index boxes of whole rows along axis 0, in order, that tile ``grid``:
    as many rows as ``SLAB_NODES`` nodes hold, and one at least.  A slab
    spans every other axis in full, so a stencil along one of them reads
    only the slab's nodes.  A radial grid is one slab."""
    if grid.mode == RADIAL:
        return [()]
    n = grid.resolution
    rows = max(1, SLAB_NODES * n // grid.node_count)
    return [(slice(start, min(start + rows, n)),) for start in range(0, n, rows)]


def slab_box(box: tuple, slab: tuple) -> tuple:
    """The nodes of the index box ``box`` that lie in ``slab`` (a box of
    ``slabs``), in the slab's own indices; ``box`` holds explicit slices."""
    if not (box and slab):
        return box
    low, high = slab[0].start, slab[0].stop
    first = slice(max(box[0].start, low) - low, max(min(box[0].stop, high), low) - low)
    return (first, *box[1:])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class Field:
    """Scalar values, one per grid node, stored in row-major node order.

    Building one checks the shape and scans the values for finiteness.  A
    stepped state comes from ``stepped``: ``flow._finish_step`` scans it.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def stepped(cls, grid: Grid, values: np.ndarray) -> "Field":
        """A Field of float ``values`` of the grid's shape, built unscanned."""
        field = cls.__new__(cls)
        field.grid, field.values = grid, values
        return field

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


# ---------------------------------------------------------------------------
# stencils


def first_derivative(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order d/dx along ``axis``: central inside, one-sided at ends."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def second_derivative(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order d2/dx2 along ``axis``."""
    a = np.moveaxis(values, axis, -1)
    out = np.empty_like(a, dtype=float)
    h2 = h * h
    out[..., 1:-1] = (a[..., 2:] - 2.0 * a[..., 1:-1] + a[..., :-2]) / h2
    out[..., 0] = (2.0 * a[..., 0] - 5.0 * a[..., 1] + 4.0 * a[..., 2] - a[..., 3]) / h2
    out[..., -1] = (
        2.0 * a[..., -1] - 5.0 * a[..., -2] + 4.0 * a[..., -3] - a[..., -4]
    ) / h2
    return np.moveaxis(out, -1, axis)


def _row_second_derivative(values: np.ndarray, h: float, rows: slice) -> np.ndarray:
    """d2/dx_0^2 over ``rows`` of axis 0, as ``second_derivative`` gives it
    over the whole axis: it differences those rows with one more at each
    end, and four at least, so each row reads the nodes it reads there."""
    count = values.shape[0]
    start, stop, _ = rows.indices(count)
    low = max(0, min(start - 1, count - 4))
    high = min(count, max(stop + 1, low + 4))
    return second_derivative(values[low:high], h, axis=0)[start - low : stop - low]


def _hessian_entries(values: np.ndarray, grad, grid: Grid, rows=slice(None)):
    """(i, j, d2u_ij) for i <= j of a cartesian field over ``rows`` of axis
    0, each a new array.

    The diagonal is the direct second difference, the mixed entries the
    first difference of the gradient ``grad``.  Only (0, 0) differences
    across rows, so only it reads rows beside ``rows``.
    """
    h = grid.spacing
    for i in range(grid.dimension):
        if i == 0:
            yield 0, 0, _row_second_derivative(values, h, rows)
        else:
            yield i, i, second_derivative(values[rows], h, axis=i)
        for j in range(i + 1, grid.dimension):
            yield i, j, first_derivative(grad[i][rows], h, axis=j)


def cartesian_jet(values: np.ndarray, grid: Grid, grad, slab: tuple) -> dict:
    """The n(n+1)/2 Hessian entries of a cartesian field over ``slab``, a box
    of whole rows along axis 0 (as ``slabs`` gives), as a dict from (i, j),
    i <= j, to arrays; ``grad`` is the field's ``field_gradient``."""
    return {(i, j): entry for i, j, entry in _hessian_entries(values, grad, grid, slab[0])}


def cartesian_invariants(values: np.ndarray, grid: Grid):
    """(|du|^2, tr d2u, du.d2u.du) of a cartesian field.

    The stencils are those of ``cartesian_jet``, but the Hessian is summed
    entry by entry and never stored, so only scalar node arrays are built.
    """
    grad = [first_derivative(values, grid.spacing, axis=i) for i in range(grid.dimension)]
    grad_sq = np.zeros(grid.shape)
    trace = np.zeros(grid.shape)
    quad = np.zeros(grid.shape)
    for g in grad:
        grad_sq += g * g
    for i, j, entry in _hessian_entries(values, grad, grid):
        if i == j:
            trace += entry
        else:
            entry *= 2.0
        entry *= grad[i]
        entry *= grad[j]
        quad += entry
    return grad_sq, trace, quad


def radial_jet(values: np.ndarray, grid: Grid):
    """(du/drho, d2u/drho2) of an even radial profile: the radial stencils.

    Central inside; at the axis u' = 0 and u'' reflects u(-h) = u(h); one-sided
    at the outer end, in difference form so that, like the others, they vanish
    exactly on constants.  Both outputs are filled slice by slice in place.
    """
    h = grid.spacing
    d1 = np.empty_like(values, dtype=float)
    d2 = np.empty_like(values, dtype=float)
    inner1, inner2 = d1[1:-1], d2[1:-1]
    np.subtract(values[2:], values[:-2], out=inner1)
    inner1 *= 0.5 / h
    np.multiply(values[1:-1], 2.0, out=inner2)
    np.subtract(values[2:], inner2, out=inner2)
    inner2 += values[:-2]
    inner2 *= 1.0 / (h * h)
    first, second = values[:2].tolist()
    fourth, third, penult, last = values[-4:].tolist()
    near, mid, far = last - penult, penult - third, third - fourth
    d1[0] = 0.0
    d1[-1] = (3.0 * near - mid) / (2.0 * h)
    d2[0] = 2.0 * (second - first) / (h * h)
    d2[-1] = (2.0 * near - 3.0 * mid + far) / (h * h)
    return d1, d2


def field_gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spatial gradient covector (n, *shape) of a node field.

    Radial fields are rotationally symmetric, so the gradient points along
    the first axis with the radial derivative as its only component.
    """
    if grid.mode == RADIAL:
        out = np.zeros((grid.dimension,) + grid.shape)
        out[0] = radial_jet(values, grid)[0]
        return out
    out = np.empty((grid.dimension,) + grid.shape)
    for i in range(grid.dimension):
        out[i] = first_derivative(values, grid.spacing, axis=i)
    return out


# ---------------------------------------------------------------------------
# surface Laplacian in divergence form


def laplacian_box(grid: Grid) -> tuple:
    """Index box of the nodes where the discrete surface Laplacian is clean
    second order.

    The cartesian operator differentiates fluxes built from one-sided
    boundary stencils, which degrades the outermost two rings; the radial
    flux-form operator only loses the outer end node.
    """
    return grid.interior(ring=1 if grid.mode == RADIAL else 2)


def laplace_beltrami_cartesian(
    values: np.ndarray, weight: np.ndarray, raise_index, grid: Grid
) -> np.ndarray:
    """(1/w) d_i(w gamma^{ij} d_j f) with w = sqrt(det gamma).

    ``raise_index(X, out=X)`` turns a covector (n, *shape) into its
    gamma-raised vector gamma^{ij} X_j in place; the flux is w times the
    raised gradient of f, so the metric enters only through that map.
    Central differences throughout the interior keep the operator
    self-adjoint in the w-weighted inner product.  Boundary values fall back to one-sided stencils, which
    contaminates the outermost two node rings; norms should read the box of
    ``laplacian_box``.
    """
    flux = field_gradient(values, grid)
    raise_index(flux, out=flux)
    for i in range(grid.dimension):
        flux[i] *= weight
    # e^{-2u} in the raised flux nears the largest float at heights near
    # -MAX_HEIGHT, where the one-sided stencils' 2/h would overflow it: the
    # divergence runs on the flux scaled by a power of two, which is exact
    peak = max(max(float(np.max(f)), -float(np.min(f))) for f in flux)
    exponent = int(np.frexp(peak)[1])
    np.ldexp(flux, -exponent, out=flux)
    out = np.zeros(grid.shape)
    for i in range(grid.dimension):
        out += first_derivative(flux[i], grid.spacing, axis=i)
    np.ldexp(out, exponent, out=out)
    out /= weight
    return out


def radial_measure(u: np.ndarray, v: np.ndarray, grid: Grid) -> np.ndarray:
    """Node measure of the induced metric volume on a radial grid, relative
    to e^{n max u} (e^{nu} overflows past u = 236.6 in three dimensions).

    Node i owns the shell [rho_i - h/2, rho_i + h/2] (clipped at the axis
    and the outer edge).  Its measure is the shell volume of the metric
    density (e^{nu}/v) rho^{n-1}, with the smooth factor frozen at the node
    and the rho^{n-1} part integrated exactly, divided by h.  Away from the
    axis this is the point value of the density to O(h^2); near the axis
    the exact shell integral is what keeps the flux-form Laplacian both
    self-adjoint and uniformly second order.
    """
    n = grid.dimension
    h = grid.spacing
    rho = grid.axis()
    chat = np.exp(n * (u - np.max(u))) / v
    edges = np.concatenate(([0.0], rho[:-1] + 0.5 * h, [rho[-1]]))
    return chat * (edges[1:] ** n - edges[:-1] ** n) / (n * h)


def laplace_beltrami_radial(
    values: np.ndarray, u: np.ndarray, v: np.ndarray, grid: Grid
) -> np.ndarray:
    """Surface Laplacian of a rotationally symmetric field.

    The induced metric of the graph t = u(rho) is
    ``A^2 drho^2 + B^2 dsigma^2`` with A = e^u / v and B = e^u rho, so

        Lap f = (A B^{n-1})^{-1} d/drho ( (B^{n-1}/A) df/drho ).

    Discretized in flux form on the staggered half-grid: fluxes
    (B^{n-1}/A) f' live at cell faces (the axis face flux vanishes by
    symmetry) and their differences are divided by the shell measures of
    ``radial_measure``.  Fluxes and measures share its constant factor
    e^{-n max u}, which keeps them finite at any height below
    ``geometry.MAX_HEIGHT``.  That pairing makes the operator exactly
    self-adjoint in the measure-weighted inner product and keeps the nodes
    next to the axis at full second order; the outer boundary node falls
    back to a one-sided stencil and is excluded from norms.  A face margin
    at or below the floor raises NonSpacelikeError naming the face's inner
    node.
    """
    n = grid.dimension
    h = grid.spacing
    rho = grid.axis()
    f = np.asarray(values, dtype=float)

    u_mid = 0.5 * (u[:-1] + u[1:])
    du_mid = (u[1:] - u[:-1]) / h
    m_mid = 1.0 - np.exp(-2.0 * u_mid) * du_mid**2
    require_spacelike(m_mid)
    v_mid = 1.0 / np.sqrt(m_mid)
    rho_mid = 0.5 * (rho[:-1] + rho[1:])
    top = n * float(np.max(u))
    coef_mid = v_mid * np.exp((n - 2.0) * u_mid - top) * rho_mid ** (n - 1)
    flux = coef_mid * (f[1:] - f[:-1]) / h

    out = np.empty_like(f)
    measure = radial_measure(u, v, grid)
    padded = np.concatenate(([0.0], flux))
    out[:-1] = (padded[1:] - padded[:-1]) / (h * measure[:-1])

    # outer boundary: node-centered one-sided divergence of the flux
    df = radial_jet(f, grid)[0]
    node_flux = v * np.exp((n - 2.0) * u - top) * rho ** (n - 1) * df
    dflux_end = (3.0 * node_flux[-1] - 4.0 * node_flux[-2] + node_flux[-3]) / (2.0 * h)
    out[-1] = dflux_end / (np.exp(n * u[-1] - top) / v[-1] * rho[-1] ** (n - 1))
    return out


# ---------------------------------------------------------------------------
# interpolation


def interpolate(f: Field, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at spatial points (shape (m, n) or (n,)).

    Radial grids interpolate linearly in the radius of each point.  Points
    outside the grid hull raise OutOfDomainError.
    """
    grid = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != grid.dimension:
        raise ValueError(
            f"points have {pts.shape[-1]} coordinates, grid has "
            f"dimension {grid.dimension}"
        )
    scalar = np.ndim(points) == 1
    pad = 1e-12 * max(1.0, grid.extent)
    if grid.mode == RADIAL:
        rho = np.sqrt(np.sum(pts**2, axis=-1))
        if np.any(rho > grid.extent + pad):
            worst = float(np.max(rho))
            raise OutOfDomainError(
                f"radius {worst:.6g} outside radial grid of extent {grid.extent:.6g}"
            )
        out = np.interp(np.clip(rho, 0.0, grid.extent), grid.axis(), f.values)
    else:
        if np.any(np.abs(pts) > grid.extent + pad):
            worst = float(np.max(np.abs(pts)))
            raise OutOfDomainError(
                f"coordinate {worst:.6g} outside box of half-width {grid.extent:.6g}"
            )
        from scipy.interpolate import RegularGridInterpolator  # imported here: slow to import

        interp = RegularGridInterpolator(
            tuple([grid.axis()] * grid.dimension),
            f.values,
            method="linear",
            bounds_error=False,
            fill_value=None,
        )
        out = interp(np.clip(pts, -grid.extent, grid.extent))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# norms and refinement


def refinement_order(error_coarse: float, error_fine: float) -> float | None:
    """Observed order log2(e_h / e_{h/2}) from one grid-halving pair, or None
    where either error is at rounding level and their ratio means nothing."""
    if min(error_coarse, error_fine) < DEGENERATE_RESIDUAL_FLOOR:
        return None
    return math.log2(error_coarse / error_fine)
