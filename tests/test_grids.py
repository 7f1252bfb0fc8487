"""Stencil, interpolation, and surface-Laplacian oracles.

The Laplacian accuracy tests compare against manufactured solutions whose
exact surface Laplacians are derived independently (by hand for radial
profiles, by sympy for cartesian graphs).
"""

import numpy as np
import pytest
import sympy as sp

from dsmcf import geometry, grids, oracles
from dsmcf.errors import NonSpacelikeError, OutOfDomainError


def smooth_bump(r, radius):
    """C-infinity bump of a normalized distance array, supported on r < radius."""
    s = np.asarray(r, dtype=float) / radius
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def ring_mask(grid, ring):
    """Boolean mask of the nodes at least ``ring`` layers from the boundary,
    counted node by node: radially from the outer end only."""
    index = np.indices(grid.shape)
    depth = grid.resolution - 1 - index
    if grid.mode == grids.CARTESIAN:
        depth = np.minimum(depth, index)
    return np.min(depth, axis=0) >= ring


def box_mask(grid, *boxes):
    """Boolean mask of the nodes the index ``boxes`` select."""
    mask = np.zeros(grid.shape, dtype=bool)
    for box in boxes:
        mask[box] = True
    return mask


# ---------------------------------------------------------------------------
# grid bookkeeping


def test_grid_spacing_and_counts():
    cart = grids.Grid(grids.CARTESIAN, 2, extent=2.0, resolution=5)
    assert cart.spacing == pytest.approx(1.0)
    assert cart.shape == (5, 5)
    assert cart.node_count == 25
    rad = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=5)
    assert rad.spacing == pytest.approx(0.25)
    assert rad.shape == (5,)
    np.testing.assert_allclose(rad.axis(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_masks():
    """Interior boxes and boundary faces select the nodes of masks counted
    node by node, and the faces cover every edge and corner."""
    cart = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=5)
    assert int(np.sum(box_mask(cart, cart.interior()))) == 9
    assert int(np.sum(box_mask(cart, cart.interior(ring=2)))) == 1
    for grid in (cart, grids.Grid(grids.CARTESIAN, 3, extent=1.0, resolution=6)):
        for ring in (1, 2):
            inner = box_mask(grid, grid.interior(ring))
            np.testing.assert_array_equal(inner, ring_mask(grid, ring))
        np.testing.assert_array_equal(box_mask(grid, *grid.boundary()), ~ring_mask(grid, 1))
    rad = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=5)
    # the axis is interior; only the outer end is a boundary
    np.testing.assert_array_equal(box_mask(rad, rad.interior()), [1, 1, 1, 1, 0])
    np.testing.assert_array_equal(box_mask(rad, *rad.boundary()), [0, 0, 0, 0, 1])
    np.testing.assert_array_equal(box_mask(rad, rad.interior(ring=2)), ring_mask(rad, 2))


def test_grid_validation():
    with pytest.raises(ValueError, match="needs at least 5 nodes"):
        grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=4)
    with pytest.raises(ValueError):
        grids.Grid("spherical", 2, extent=1.0, resolution=9)
    with pytest.raises(ValueError):
        grids.Grid(grids.RADIAL, 1, extent=1.0, resolution=9)
    with pytest.raises(ValueError):
        grids.Grid(grids.CARTESIAN, 2, extent=-1.0, resolution=9)
    for mode, extent in ((grids.RADIAL, 1e103), (grids.RADIAL, 1e-110), (grids.CARTESIAN, 1e154)):
        with pytest.raises(ValueError, match="overflows a stencil"):
            grids.Grid(mode, 3, extent=extent, resolution=9)


def test_field_validation():
    grid = grids.Grid(grids.CARTESIAN, 1, extent=1.0, resolution=5)
    with pytest.raises(ValueError):
        grids.Field(grid, np.zeros(6))
    bad = np.zeros(5)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        grids.Field(grid, bad)
    f = grids.Field(grid, np.arange(5.0))
    g = f.copy()
    g.values[0] = 99.0
    assert f.values[0] == 0.0


# ---------------------------------------------------------------------------
# stencils


def test_stencils_exact_on_quadratics():
    grid = grids.Grid(grids.CARTESIAN, 1, extent=1.0, resolution=9)
    x = grid.axis()
    f = 2.0 + 3.0 * x - 1.5 * x**2
    d1 = grids.first_derivative(f, grid.spacing)
    d2 = grids.second_derivative(f, grid.spacing)
    np.testing.assert_allclose(d1, 3.0 - 3.0 * x, atol=1e-13)
    np.testing.assert_allclose(d2, -3.0, atol=1e-12)


def test_cartesian_jet_exact_on_quadratic():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=9)
    X, Y = grid.meshes()
    f = 0.5 * X**2 + 0.25 * X * Y - Y**2 + 3.0 * X + 2.0
    grad = grids.field_gradient(f, grid)
    hess = grids.cartesian_jet(f, grid, grad, (slice(None),))
    np.testing.assert_allclose(grad[0], X + 0.25 * Y + 3.0, atol=1e-12)
    np.testing.assert_allclose(grad[1], 0.25 * X - 2.0 * Y, atol=1e-12)
    assert sorted(hess) == [(0, 0), (0, 1), (1, 1)]  # the entries i <= j only
    np.testing.assert_allclose(hess[0, 0], 1.0, atol=1e-11)
    np.testing.assert_allclose(hess[0, 1], 0.25, atol=1e-11)
    np.testing.assert_allclose(hess[1, 1], -2.0, atol=1e-11)


def test_radial_stencils_exact_on_even_quadratic():
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    rho = grid.axis()
    f = 3.0 - 2.0 * rho**2
    df, d2f = grids.radial_jet(f, grid)
    np.testing.assert_allclose(df, -4.0 * rho, atol=1e-13)
    assert df[0] == 0.0
    np.testing.assert_allclose(d2f, -4.0, atol=1e-12)


def test_stencil_refinement_order_on_smooth_function():
    errs = []
    for res in (17, 33):
        grid = grids.Grid(grids.CARTESIAN, 1, extent=1.0, resolution=res)
        x = grid.axis()
        d2 = grids.second_derivative(np.sin(x), grid.spacing)
        errs.append(float(np.max(np.abs(d2 + np.sin(x)))))
    assert 1.8 <= grids.refinement_order(*errs) <= 2.2


def test_radial_stencil_refinement_order():
    errs1, errs2 = [], []
    for res in (33, 65):
        grid = grids.Grid(grids.RADIAL, 3, extent=2.0, resolution=res)
        rho = grid.axis()
        df, d2f = grids.radial_jet(np.cos(rho), grid)
        errs1.append(float(np.max(np.abs(df + np.sin(rho)))))
        errs2.append(float(np.max(np.abs(d2f + np.cos(rho)))))
    assert 1.8 <= grids.refinement_order(*errs1) <= 2.2
    assert 1.8 <= grids.refinement_order(*errs2) <= 2.2


def test_jets_of_a_product_and_a_paraboloid():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=9)
    X, Y = grid.meshes()
    grad = grids.field_gradient(X * Y, grid)
    hess = grids.cartesian_jet(X * Y, grid, grad, (slice(None),))
    assert grad.shape == (2,) + grid.shape and len(hess) == 3
    assert all(entry.shape == grid.shape for entry in hess.values())
    np.testing.assert_allclose(grad[0], Y, atol=1e-12)
    np.testing.assert_allclose(hess[0, 1], 1.0, atol=1e-11)

    rad = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    rho = rad.axis()
    df, d2f = grids.radial_jet(rho**2, rad)
    np.testing.assert_allclose(df, 2.0 * rho, atol=1e-12)
    np.testing.assert_allclose(d2f, 2.0, atol=1e-11)


# ---------------------------------------------------------------------------
# surface Laplacian


def test_laplacian_flat_slice_frozen_values():
    # flat slice: the surface Laplacian is the euclidean one
    rad = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=33)
    geom = geometry.GeometryFields(rad, np.zeros(rad.shape))
    out = geom.laplacian(rad.axis() ** 2)
    np.testing.assert_allclose(out[:-1], 6.0, rtol=1e-12)

    cart = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=17)
    X, Y = cart.meshes()
    geom2 = geometry.GeometryFields(cart, np.zeros(cart.shape))
    out2 = geom2.laplacian(X**2 + Y**2)
    np.testing.assert_allclose(out2, 4.0, atol=1e-11)


def test_radial_laplacian_names_a_node_of_a_timelike_face():
    """A zigzag profile has zero central slopes at the nodes and timelike
    faces between them; the face margins raise with a location."""
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=17)
    u = 0.6 * grid.spacing * (-1.0) ** np.arange(grid.resolution)
    with pytest.raises(NonSpacelikeError, match=r"at node \(0,\)") as info:
        grids.laplace_beltrami_radial(np.zeros(grid.shape), u, np.ones(grid.shape), grid)
    assert info.value.location == (0,)


def test_radial_laplacian_matches_analytic_solution():
    # graph u = 0.1 e^{-rho^2}, test function f = cos(2 rho); the exact
    # surface Laplacian of the warped-product metric is
    #   v^2 e^{-2u} [f'' + f' ((n-1)/rho + (n-2) u' + v'/v)],
    # with v'/v = v^2 e^{-2u} u' (u'' - u'^2) and the L'Hopital limit
    # n f''(0) v^2 e^{-2u} on the axis.
    def analytic(rho):
        a = 0.1
        e = np.exp(-(rho**2))
        u = a * e
        up = -2.0 * a * rho * e
        upp = 2.0 * a * (2.0 * rho**2 - 1.0) * e
        em2u = np.exp(-2.0 * u)
        v2 = 1.0 / (1.0 - em2u * up**2)
        dlogv = v2 * em2u * up * (upp - up**2)
        fp = -2.0 * np.sin(2.0 * rho)
        fpp = -4.0 * np.cos(2.0 * rho)
        out = np.empty_like(rho)
        out[1:] = v2[1:] * em2u[1:] * (
            fpp[1:] + fp[1:] * (2.0 / rho[1:] + up[1:] + dlogv[1:])
        )
        out[0] = 3.0 * fpp[0] * v2[0] * em2u[0]
        return out

    errs = []
    for res in (65, 129):
        grid = grids.Grid(grids.RADIAL, 3, extent=2.0, resolution=res)
        rho = grid.axis()
        geom = geometry.GeometryFields(grid, 0.1 * np.exp(-(rho**2)))
        discrete = geom.laplacian(np.cos(2.0 * rho))
        err = np.abs(discrete - analytic(rho))
        clean = np.arange(res) < res - 1  # all but the outer end node
        np.testing.assert_array_equal(box_mask(grid, grids.laplacian_box(grid)), clean)
        errs.append(float(np.max(err[clean])))
    order = grids.refinement_order(*errs)
    assert 1.7 <= order <= 2.3, f"radial Laplacian order {order:.2f}"


def test_cartesian_laplacian_matches_sympy_solution():
    x, y = sp.symbols("x y")
    u_expr = sp.sin(x) * sp.cos(y) / 10
    f_expr = sp.exp(x / 2) * sp.sin(y)
    du = [sp.diff(u_expr, x), sp.diff(u_expr, y)]
    gam = sp.Matrix(
        2, 2, lambda i, j: sp.exp(2 * u_expr) * (1 if i == j else 0) - du[i] * du[j]
    )
    ginv = gam.inv()
    w = sp.sqrt(gam.det())
    coords = (x, y)
    lap = sum(
        sp.diff(w * sum(ginv[i, j] * sp.diff(f_expr, coords[j]) for j in range(2)),
                coords[i])
        for i in range(2)
    ) / w
    lap_fn = sp.lambdify((x, y), lap, "numpy")
    u_fn = sp.lambdify((x, y), u_expr, "numpy")
    f_fn = sp.lambdify((x, y), f_expr, "numpy")

    errs = []
    for res in (25, 49):
        grid = grids.Grid(grids.CARTESIAN, 2, extent=1.5, resolution=res)
        X, Y = grid.meshes()
        geom = geometry.GeometryFields(grid, u_fn(X, Y))
        discrete = geom.laplacian(f_fn(X, Y))
        err = np.abs(discrete - lap_fn(X, Y))
        clean = np.zeros(grid.shape, dtype=bool)  # all but two rings
        clean[2:-2, 2:-2] = True
        np.testing.assert_array_equal(box_mask(grid, grids.laplacian_box(grid)), clean)
        errs.append(float(np.max(err[clean])))
    order = grids.refinement_order(*errs)
    assert 1.7 <= order <= 2.3, f"cartesian Laplacian order {order:.2f}"


def test_radial_laplacian_self_adjoint():
    grid = grids.Grid(grids.RADIAL, 3, extent=2.0, resolution=101)
    rho = grid.axis()
    geom = geometry.GeometryFields(grid, 0.15 * np.exp(-(rho**2)))
    # one bump touching the axis, one in an annulus, overlapping supports
    f = smooth_bump(rho, 0.9)
    g = smooth_bump(np.abs(rho - 0.8), 0.7)
    mu = grids.radial_measure(geom.u, geom.v, grid)
    ab = float(np.sum(mu * f * geom.laplacian(g)))
    ba = float(np.sum(mu * g * geom.laplacian(f)))
    assert abs(ab - ba) <= 1e-10 * max(1.0, abs(ab))


def test_cartesian_laplacian_self_adjoint():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=41)
    X, Y = grid.meshes()
    geom = geometry.GeometryFields(grid, 0.08 * np.sin(np.pi * X) * np.cos(np.pi * Y))
    f = smooth_bump(np.hypot(X + 0.2, Y - 0.1), 0.5)
    g = smooth_bump(np.hypot(X - 0.15, Y + 0.2), 0.55)
    mu = geom.weight  # sqrt(det gamma), the volume density over dx
    ab = float(np.sum(mu * f * geom.laplacian(g)))
    ba = float(np.sum(mu * g * geom.laplacian(f)))
    assert abs(ab - ba) <= 1e-10 * max(1.0, abs(ab))


# ---------------------------------------------------------------------------
# interpolation


def test_interpolation_exact_on_linear():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=9)
    X, Y = grid.meshes()
    f = grids.Field(grid, 2.0 + 3.0 * X - Y)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, size=(40, 2))
    exact = 2.0 + 3.0 * pts[:, 0] - pts[:, 1]
    np.testing.assert_allclose(grids.interpolate(f, pts), exact, atol=1e-12)


def test_interpolation_scalar_point_returns_float():
    grid = grids.Grid(grids.CARTESIAN, 1, extent=1.0, resolution=9)
    f = grids.Field(grid, grid.axis())
    out = grids.interpolate(f, np.array([0.3]))
    assert isinstance(out, float)
    assert out == pytest.approx(0.3, abs=1e-12)


def test_interpolation_cell_center_error_bound():
    grid = grids.Grid(grids.CARTESIAN, 1, extent=1.0, resolution=17)
    h = grid.spacing
    x = grid.axis()
    f = grids.Field(grid, x**2)
    mids = (x[:-1] + 0.5 * h)[:, None]
    err = np.abs(grids.interpolate(f, mids) - (mids[:, 0]) ** 2)
    assert float(np.max(err)) <= h * h / 4.0 + 1e-12


def test_interpolation_radial_profile():
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    f = grids.Field(grid, 1.0 + 0.5 * grid.axis())
    pts = np.array([[0.3, 0.0, 0.0], [0.1, 0.2, -0.2], [0.0, 0.0, 0.0]])
    exact = 1.0 + 0.5 * np.sqrt(np.sum(pts**2, axis=1))
    np.testing.assert_allclose(grids.interpolate(f, pts), exact, atol=1e-12)


def test_interpolation_out_of_domain():
    grid = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=9)
    f = grids.Field(grid, np.zeros(grid.shape))
    with pytest.raises(OutOfDomainError):
        grids.interpolate(f, np.array([[1.1, 0.0]]))
    # exactly on the hull is fine
    grids.interpolate(f, np.array([[1.0, -1.0]]))

    rad = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    g = grids.Field(rad, np.zeros(rad.shape))
    with pytest.raises(OutOfDomainError):
        grids.interpolate(g, np.array([[0.8, 0.8, 0.0]]))


# ---------------------------------------------------------------------------
# norms and refinement


def test_masked_norms_frozen():
    # the residual reports' masked norms
    vals = np.array([3.0, -4.0, 0.0, 1.0])
    rep = oracles._residual_report("demo", [vals], ())
    assert rep.linf == 4.0
    assert rep.l2 == pytest.approx(np.sqrt(26.0 / 4.0), abs=1e-14)
    assert rep.count == 4
    with pytest.raises(ValueError):
        oracles._residual_report("demo", [vals], (slice(0, 0),))


def test_refinement_order_frozen():
    assert grids.refinement_order(4e-4, 1e-4) == pytest.approx(2.0, abs=1e-12)
    assert grids.refinement_order(1e-15, 1e-16) is None


@pytest.mark.parametrize("mode", [grids.RADIAL, grids.CARTESIAN])
def test_axis_is_built_once_and_read_only(mode):
    grid = grids.Grid(mode, 3, extent=1.0, resolution=5)
    ax = grid.axis()
    assert grid.axis() is ax
    assert not ax.flags.writeable
    with pytest.raises(ValueError):
        ax[0] = 1.0


def test_inverse_radius_is_built_once_and_read_only():
    grid = grids.Grid(grids.RADIAL, 3, extent=2.0, resolution=9)
    inverse = grid.inverse_radius
    assert grid.inverse_radius is inverse and not inverse.flags.writeable
    assert inverse[0] == 0.0
    np.testing.assert_allclose(inverse[1:] * grid.axis()[1:], 1.0, rtol=1e-15)


def test_node_count_is_exact_for_huge_grids():
    grid = grids.Grid(grids.CARTESIAN, 3, extent=1.0, resolution=10_000_000)
    assert grid.node_count == 10**21


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_radius_and_coordinates_broadcast_the_axis(dimension):
    """|x|^2 sums the squared axis by broadcasting, in the order of the
    meshes, so it equals their sum bit for bit; a coordinate is a read-only
    view of the axis with the values of its mesh."""
    grid = grids.Grid(grids.CARTESIAN, dimension, extent=1.7, resolution=9)
    meshes = grid.meshes()
    reference = np.zeros(grid.shape)
    for mesh in meshes:
        reference += mesh**2
    np.testing.assert_array_equal(grid.radius_squared(), reference)
    for i, mesh in enumerate(meshes):
        coordinate = grid.coordinate(i)
        np.testing.assert_array_equal(coordinate, mesh)
        assert not coordinate.flags.writeable and np.shares_memory(coordinate, grid.axis())


def test_points_follow_node_order():
    cart = grids.Grid(grids.CARTESIAN, 2, extent=1.0, resolution=5)
    pts = cart.points()
    assert pts.shape == (25, 2)
    np.testing.assert_array_equal(np.sum(pts**2, axis=1), cart.radius_squared().ravel())
    rad = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=5)
    expected = np.zeros((5, 3))
    expected[:, 0] = rad.axis()
    np.testing.assert_array_equal(rad.points(), expected)
