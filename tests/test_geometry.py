"""Pointwise geometry oracles: frozen values, algebraic invariants, and the
symbolic re-derivation of the second fundamental form."""

import math

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from dsmcf import geometry, grids, oracles
from dsmcf.errors import NonSpacelikeError

import pointwise


def random_spacelike_jets(rng, count, dimension=3, min_margin=0.05, curvature=0.5):
    """Batch of spacelike jets with margins bounded away from zero."""
    n = dimension
    u = rng.uniform(-1.0, 1.0, size=count)
    margin = rng.uniform(min_margin, 1.0, size=count)
    direction = rng.normal(size=(n, count))
    direction /= np.linalg.norm(direction, axis=0)
    mag = np.sqrt((1.0 - margin) * np.exp(2.0 * u))
    du = direction * mag
    raw = rng.normal(scale=curvature, size=(n, n, count))
    d2u = 0.5 * (raw + np.swapaxes(raw, 0, 1))
    return u, du, d2u


def sample_of(u, du, d2u, i):
    return pointwise.GraphSample(u=float(u[i]), du=du[:, i], d2u=d2u[:, :, i])


def surface_geometry_generalized_eig(sample):
    """Shape eigenvalues via the generalized symmetric problem h w = s gamma w,
    an independent route for cross-checking the eigenvalue solver."""
    geom = pointwise.surface_geometry(sample)
    return scipy.linalg.eigh(geom.h, geom.gamma, eigvals_only=True)


# ---------------------------------------------------------------------------
# ambient metric


def test_ambient_metric_frozen_values():
    np.testing.assert_allclose(pointwise.ambient_metric(0.0), np.diag([1.0, 1.0, 1.0, -1.0]))
    np.testing.assert_allclose(
        pointwise.ambient_metric(math.log(2.0)), np.diag([4.0, 4.0, 4.0, -1.0])
    )


def test_ambient_metric_determinant():
    for t in (-0.7, 0.0, 1.3):
        for n in (2, 3, 4):
            det = np.linalg.det(pointwise.ambient_metric(t, dimension=n))
            assert det == pytest.approx(-math.exp(2 * n * t), rel=1e-12)


def test_isometry_is_an_isometry():
    rng = np.random.default_rng(11)
    a = 0.37
    ja = math.exp(a)
    for _ in range(20):
        x = rng.normal(size=3)
        t = rng.normal()
        p = pointwise.AmbientPoint(x=x, t=t)
        q = pointwise.isometry_shift_point(p, a)
        np.testing.assert_allclose(q.x, ja * x, rtol=1e-14)
        assert q.t == pytest.approx(t - a, abs=1e-14)
        # pull back the metric through the Jacobian diag(e^a, e^a, e^a, 1)
        jac = np.diag([ja, ja, ja, 1.0])
        pulled = jac.T @ pointwise.ambient_metric(q.t) @ jac
        np.testing.assert_allclose(pulled, pointwise.ambient_metric(p.t), rtol=1e-12)


# ---------------------------------------------------------------------------
# jet validation


def test_graph_sample_rejects_asymmetric_hessian():
    d2u = np.zeros((3, 3))
    d2u[0, 1] = 1.0
    with pytest.raises(ValueError):
        pointwise.GraphSample(u=0.0, du=np.zeros(3), d2u=d2u)


def test_graph_sample_rejects_null_and_timelike_jets():
    with pytest.raises(NonSpacelikeError):
        pointwise.GraphSample(u=0.0, du=np.array([1.0, 0.0, 0.0]), d2u=np.zeros((3, 3)))
    with pytest.raises(NonSpacelikeError):
        pointwise.GraphSample(u=0.0, du=np.array([1.5, 0.0, 0.0]), d2u=np.zeros((3, 3)))


def test_margin_failures_name_the_worst_node():
    # u = 2 rho is timelike off the axis; its worst node is the first one out
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    u = 2.0 * grid.axis()
    for build in (geometry.graph_speed_fields, geometry.GeometryFields):
        args = (u, grid) if build is geometry.graph_speed_fields else (grid, u)
        with pytest.raises(NonSpacelikeError, match=r"at node \(1,\) \(floor 1e-10\)") as info:
            build(*args)
        assert info.value.location == (1,)
    with pytest.raises(NonSpacelikeError, match=r"at node \(\)") as info:
        geometry.JetFields(0.0, np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)))
    assert info.value.location == ()


def test_margin_check_rejects_nan_heights():
    # a NaN height makes the margin NaN beside it; argmin finds the first
    grid = grids.Grid(grids.RADIAL, 3, extent=1.0, resolution=9)
    u = np.zeros(grid.shape)
    u[4] = np.nan
    for build in (geometry.graph_speed_fields, geometry.GeometryFields):
        args = (u, grid) if build is geometry.graph_speed_fields else (grid, u)
        with pytest.raises(NonSpacelikeError, match=r"margin nan at node \(3,\)") as info:
            build(*args)
        assert info.value.location == (3,)
    with pytest.raises(NonSpacelikeError):
        pointwise.GraphSample(u=float("nan"), du=np.zeros(3), d2u=np.zeros((3, 3)))


def test_margin_floor_rejects_barely_spacelike():
    # margin 1e-12 sits below the 1e-10 floor and must be rejected, not clamped
    mag = math.sqrt(1.0 - 1e-12)
    with pytest.raises(NonSpacelikeError):
        pointwise.GraphSample(u=0.0, du=np.array([mag, 0.0, 0.0]), d2u=np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# frozen surface geometry values


@pytest.mark.parametrize("c", [0.0, 1.0, -0.5])
def test_flat_slice_geometry(c):
    sample = pointwise.GraphSample(u=c, du=np.zeros(3), d2u=np.zeros((3, 3)))
    geom = pointwise.surface_geometry(sample)
    e2c = math.exp(2 * c)
    assert geom.v == pytest.approx(1.0, abs=1e-14)
    assert geom.margin == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(geom.gamma, e2c * np.eye(3), rtol=1e-14)
    np.testing.assert_allclose(geom.h, e2c * np.eye(3), rtol=1e-14)
    assert geom.H == pytest.approx(3.0, abs=1e-12)
    assert geom.a2 == pytest.approx(3.0, abs=1e-12)
    assert geom.a2_traceless == pytest.approx(0.0, abs=1e-12)
    assert geom.lambda1 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(geom.nu, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_flat_slice_dimension_generic():
    for n in (1, 2, 4):
        sample = pointwise.GraphSample(u=0.3, du=np.zeros(n), d2u=np.zeros((n, n)))
        geom = pointwise.surface_geometry(sample)
        assert geom.H == pytest.approx(n, abs=1e-12)
        assert geom.a2 == pytest.approx(n, abs=1e-12)


def test_tilted_jet_frozen_values():
    # margin 1 - 0.36 = 0.64, v = 1.25
    s1 = pointwise.GraphSample(u=0.0, du=np.array([0.6, 0.0, 0.0]), d2u=np.zeros((3, 3)))
    g1 = pointwise.surface_geometry(s1)
    assert g1.margin == pytest.approx(0.64, abs=1e-14)
    assert g1.v == pytest.approx(1.25, abs=1e-14)
    # same tilt expressed at height ln 2: e^{-2u}|du|^2 = 1.44 / 4 = 0.36
    s2 = pointwise.GraphSample(
        u=math.log(2.0), du=np.array([1.2, 0.0, 0.0]), d2u=np.zeros((3, 3))
    )
    g2 = pointwise.surface_geometry(s2)
    assert g2.margin == pytest.approx(0.64, abs=1e-14)
    assert g2.v == pytest.approx(1.25, abs=1e-14)


def test_normal_is_unit_future_and_orthogonal():
    rng = np.random.default_rng(7)
    u, du, d2u = random_spacelike_jets(rng, 50)
    for i in range(50):
        sample = sample_of(u, du, d2u, i)
        geom = pointwise.surface_geometry(sample)
        nn = pointwise.ambient_inner(geom.nu, geom.nu, sample.u)
        assert nn == pytest.approx(-1.0, abs=1e-12)
        assert geom.nu[-1] > 0
        assert geom.v == pytest.approx(geom.nu[-1], abs=1e-12)
        for k in range(3):
            e_k = np.zeros(4)
            e_k[k] = 1.0
            e_k[-1] = sample.du[k]
            assert pointwise.ambient_inner(e_k, geom.nu, sample.u) == pytest.approx(
                0.0, abs=1e-12
            )


# ---------------------------------------------------------------------------
# symbolic derivation of the second fundamental form


def test_second_fundamental_form_matches_symbolic_derivation():
    """Re-derive h_ij = v (u_ij + e^{2u} delta_ij - 2 u_i u_j) from the
    covariant-derivative table of the chart, with sympy doing the algebra."""
    n = 3
    E = sp.symbols("E", positive=True)  # e^{2u}
    ui = sp.symbols("u1 u2 u3")
    uij = sp.Matrix(3, 3, lambda i, j: sp.Symbol(f"u{min(i, j) + 1}{max(i, j) + 1}"))

    # D_{e_i} e_j from the table D_i d_j = delta_ij E d_t, D_i d_t = d_i,
    # D_t d_t = 0, plus the derivative of the coefficient u_j along e_i.
    def covariant(i, j):
        spatial = [sp.Integer(0)] * n
        spatial[j] += ui[i]
        spatial[i] += ui[j]
        t_comp = uij[i, j] + (E if i == j else 0)
        return spatial, t_comp

    # nu / v has components ((1/E) u_k, 1); g = diag(E, E, E, -1)
    for i in range(n):
        for j in range(n):
            spatial, t_comp = covariant(i, j)
            inner = sum(E * spatial[k] * ui[k] / E for k in range(n)) - t_comp
            h_over_v = sp.expand(-inner)
            claimed = uij[i, j] + (E if i == j else 0) - 2 * ui[i] * ui[j]
            assert sp.expand(h_over_v - claimed) == 0

    # closed-form inverse of gamma = E I - du du^T
    q = sum(x * x for x in ui)
    gamma = E * sp.eye(n) - sp.Matrix(ui) * sp.Matrix(ui).T
    gamma_inv = (sp.eye(n) + sp.Matrix(ui) * sp.Matrix(ui).T / (E - q)) / E
    assert sp.simplify(gamma * gamma_inv - sp.eye(n)) == sp.zeros(n, n)

    # closed-form mean curvature: H/v = em (tr + v^2 em q2) + (n+1) - v^2
    h_over_v_mat = uij + E * sp.eye(n) - 2 * sp.Matrix(ui) * sp.Matrix(ui).T
    H_over_v = sp.trace(gamma_inv * h_over_v_mat)
    v2 = E / (E - q)
    quad = (sp.Matrix(ui).T * uij * sp.Matrix(ui))[0, 0]
    claimed_H = (sp.trace(uij) + v2 * quad / E) / E + (n + 1) - v2
    assert sp.simplify(sp.together(H_over_v - claimed_H)) == 0


# ---------------------------------------------------------------------------
# projections


def test_tangential_projection_orthogonal_to_normal():
    rng = np.random.default_rng(3)
    u, du, d2u = random_spacelike_jets(rng, 30)
    for i in range(30):
        sample = sample_of(u, du, d2u, i)
        geom = pointwise.surface_geometry(sample)
        X = rng.normal(size=4)
        Xt = pointwise.tangential_projection(X, geom)
        assert pointwise.ambient_inner(Xt, geom.nu, sample.u) == pytest.approx(
            0.0, abs=1e-11
        )


def test_tangential_projection_frozen_cases():
    flat = pointwise.surface_geometry(
        pointwise.GraphSample(u=0.0, du=np.zeros(3), d2u=np.zeros((3, 3)))
    )
    e_t = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(pointwise.tangential_projection(e_t, flat), 0.0, atol=1e-14)
    e_1 = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(pointwise.tangential_projection(e_1, flat), e_1, atol=1e-14)

    tilted = pointwise.surface_geometry(
        pointwise.GraphSample(u=0.0, du=np.array([0.6, 0.0, 0.0]), d2u=np.zeros((3, 3)))
    )
    proj = pointwise.tangential_projection(e_t, tilted)
    norm_sq = pointwise.ambient_inner(proj, proj, 0.0)
    # |projection of d_t|^2 = v^2 - 1 = 0.5625 for v = 1.25
    assert norm_sq == pytest.approx(0.5625, abs=1e-12)


# ---------------------------------------------------------------------------
# shape operator spectra


def test_shape_eigenvalues_real_and_match_generalized_route():
    rng = np.random.default_rng(23)
    u, du, d2u = random_spacelike_jets(rng, 40)
    for i in range(40):
        sample = sample_of(u, du, d2u, i)
        geom = pointwise.surface_geometry(sample)
        raw = np.linalg.eigvals(np.linalg.solve(geom.gamma, geom.h))
        scale = max(1.0, np.max(np.abs(raw)))
        assert np.max(np.abs(raw.imag)) < 1e-10 * scale
        general = surface_geometry_generalized_eig(sample)
        mine = pointwise.shape_operator_eigenvalues(geom.gamma, geom.h)
        np.testing.assert_allclose(np.sort(mine), np.sort(general), atol=1e-10 * scale)
        extreme = raw.real[np.argmax(np.abs(raw.real))]
        assert geom.lambda1 == pytest.approx(float(extreme), abs=1e-9 * scale)


def test_traceless_a2_nonnegative():
    rng = np.random.default_rng(5)
    u, du, d2u = random_spacelike_jets(rng, 500)
    fields = geometry.JetFields(u, du, d2u)
    assert float(np.min(fields.a2 - fields.H**2 / 3.0)) >= -1e-12


def test_pinching_bound_monte_carlo():
    # |A|^2 >= (4/3) lambda_1^2 - H^2 across 1e5 random spacelike jets
    rng = np.random.default_rng(2026)
    u, du, d2u = random_spacelike_jets(rng, 100_000)
    fields = geometry.JetFields(u, du, d2u)
    lam1 = fields.extremal_curvature()
    slack = fields.a2 - (4.0 / 3.0) * lam1**2 + fields.H**2
    scale = np.maximum(1.0, fields.a2)
    assert float(np.min(slack / scale)) >= -1e-10


def test_geometry_invariant_under_isometry():
    rng = np.random.default_rng(17)
    u, du, d2u = random_spacelike_jets(rng, 25)
    for i in range(25):
        sample = sample_of(u, du, d2u, i)
        before = pointwise.surface_geometry(sample)
        for a in (-0.8, 0.6, 2.0):
            after = pointwise.surface_geometry(pointwise.jet_after_isometry(sample, a))
            assert after.v == pytest.approx(before.v, rel=1e-12)
            assert after.H == pytest.approx(before.H, rel=1e-10, abs=1e-10)
            assert after.a2 == pytest.approx(before.a2, rel=1e-10, abs=1e-10)
            assert after.lambda1 == pytest.approx(before.lambda1, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# coordinate Laplacians


def test_coordinate_laplacians_flat_slice():
    geom = pointwise.surface_geometry(
        pointwise.GraphSample(u=0.7, du=np.zeros(3), d2u=np.zeros((3, 3)))
    )
    # g(nu, d_i) = e^{2u} nu^i
    nu_inner = math.exp(1.4) * geom.nu[:3]
    lap_x, lap_t = geometry.coordinate_laplacian_values(
        geom.H, geom.v, 0.7, nu_inner, dimension=3
    )
    np.testing.assert_allclose(lap_x, 0.0, atol=1e-12)
    assert lap_t == pytest.approx(0.0, abs=1e-12)  # -3 + H v = -3 + 3


def test_coordinate_laplacian_frozen_combination():
    lap_x, lap_t = geometry.coordinate_laplacian_values(
        H=0.0, v=2.0, t=0.0, nu_inner=np.array([0.25, 0.0, 0.0]), dimension=3
    )
    assert lap_x[0] == pytest.approx(-4.0 * 0.25, abs=1e-14)
    assert lap_t == pytest.approx(-6.0, abs=1e-14)


def test_wave_route_matches_closed_form():
    rng = np.random.default_rng(29)
    u, du, d2u = random_spacelike_jets(rng, 50)
    for i in range(50):
        geom = pointwise.surface_geometry(sample_of(u, du, d2u, i))
        t = geom.sample.u
        a_x, a_t = geometry.coordinate_laplacian_values(
            geom.H, geom.v, t, math.exp(2.0 * t) * geom.nu[:3], dimension=3
        )
        b_x, b_t = geometry.coordinate_laplacian_wave_values(
            geom.H, geom.nu[:3], geom.nu[-1], t, dimension=3
        )
        scale = max(1.0, np.max(np.abs(a_x)), abs(a_t))
        np.testing.assert_allclose(a_x, b_x, atol=1e-11 * scale)
        assert a_t == pytest.approx(b_t, abs=1e-11 * scale)


# ---------------------------------------------------------------------------
# localization weight


def test_cutoff_frozen_values():
    spec = geometry.CutoffSpec(alpha=1.0, epsilon=0.1, t_min=-5.0)
    # the point x = (1, 0, 0) at t = 0 on a flat slice, where v = 1
    r, grad_lower, grad_upper, evolution_lower = geometry.cutoff_arrays(0.0, 1.0, 1.0, spec)
    assert r == pytest.approx(1.0, abs=1e-14)
    # on a flat slice v = 1: gradient bounds collapse to +-epsilon r
    assert grad_lower == pytest.approx(-0.1, abs=1e-12)
    assert grad_upper == pytest.approx(0.1, abs=1e-12)
    assert evolution_lower == pytest.approx(-(1.0 + 0.1), abs=1e-12)


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        geometry.CutoffSpec(alpha=2.0, epsilon=0.1, t_min=0.0)
    with pytest.raises(ValueError):
        geometry.CutoffSpec(alpha=0.5, epsilon=0.0, t_min=0.0)


# ---------------------------------------------------------------------------
# batch bundle consistency


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


def test_jet_fields_match_pointwise_geometry():
    rng = np.random.default_rng(41)
    u, du, d2u = random_spacelike_jets(rng, 64)
    fields = geometry.JetFields(u, du, d2u)
    extreme = fields.extremal_curvature()
    gamma, _, h, _ = tensor_forms(fields)
    for i in (0, 7, 33, 63):
        geom = pointwise.surface_geometry(sample_of(u, du, d2u, i))
        assert fields.v[i] == pytest.approx(geom.v, rel=1e-13)
        assert fields.H[i] == pytest.approx(geom.H, rel=1e-11, abs=1e-11)
        assert fields.a2[i] == pytest.approx(geom.a2, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(gamma[:, :, i], geom.gamma, rtol=1e-13)
        np.testing.assert_allclose(h[:, :, i], geom.h, rtol=1e-12, atol=1e-12)
        assert extreme[i] == pytest.approx(geom.lambda1, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# rank-one closed forms against the tensor forms


def cartesian_bump_fields(resolution=17):
    """Geometry of a bump with no symmetry on a cartesian 3-d grid."""
    grid = grids.Grid(grids.CARTESIAN, 3, extent=2.0, resolution=resolution)
    x, y, z = grid.meshes()
    u = 0.3 * np.exp(-(x**2 + 2.0 * y**2 + 0.5 * z**2)) + 0.05 * x * y - 0.1 * z
    return geometry.GeometryFields(grid, u)


def random_jet_fields():
    return oracles._random_jets(np.random.default_rng(8), 500)


def assert_rel_close(actual, desired, rel=1e-12):
    scale = max(1.0, float(np.max(np.abs(desired))))
    assert float(np.max(np.abs(actual - desired))) <= rel * scale


@pytest.mark.parametrize("make", [random_jet_fields, cartesian_bump_fields], ids=["jets", "bump"])
def test_rank_one_forms_equal_the_tensor_forms(make):
    fields = make()
    X = np.random.default_rng(3).normal(size=fields.du.shape)
    gamma, gamma_inv, h, shape_op = tensor_forms(fields)

    assert_rel_close(fields.raise_index(X), np.einsum("ij...,j...->i...", gamma_inv, X))
    assert_rel_close(fields.second_form(X), np.einsum("ij...,j...->i...", h, X))
    assert_rel_close(fields.gamma_norm_sq(X), np.einsum("i...,ij...,j...->...", X, gamma, X))
    assert_rel_close(
        fields.gamma_inv_norm_sq(X), np.einsum("i...,ij...,j...->...", X, gamma_inv, X)
    )
    assert_rel_close(
        fields.sheared_tilt, np.einsum("ij...,j...->i...", shape_op, fields.tilt_tangent)
    )
    assert_rel_close(fields.a2, np.einsum("ij...,ji...->...", shape_op, shape_op))
    tensor_route = pointwise.shape_operator_eigenvalues(
        np.moveaxis(gamma, (0, 1), (-2, -1)), np.moveaxis(h, (0, 1), (-2, -1))
    )
    assert_rel_close(fields.eigenvalues(), tensor_route)


def test_cartesian_kernel_matches_the_hessian_tensor_route(monkeypatch):
    """The kernel sums the Hessian entry by entry; it never builds the jet."""
    fields = cartesian_bump_fields()
    du, entries = grids.cartesian_jet(fields.u, fields.grid)
    d2u = hessian_tensor(entries, fields.dimension)
    _, margin, v2, _, speed, H = geometry._speed_core(
        fields.u,
        np.einsum("i...,i...->...", du, du),
        np.einsum("ii...->...", d2u),
        np.einsum("i...,ij...,j...->...", du, d2u, du),
        fields.dimension,
    )

    def no_jet(*args):
        raise AssertionError("the kernel built the cartesian jet")

    monkeypatch.setattr(grids, "cartesian_jet", no_jet)
    kernel = geometry.graph_speed_fields(fields.u, fields.grid)
    for actual, desired in zip(kernel, (speed, v2, H, margin)):
        assert_rel_close(actual, desired)


# ---------------------------------------------------------------------------
# the lean radial kernel against its closed-form reference


def reference_radial_stencils(values, h):
    """(u', u'') by the separate textbook stencils: central inside, zero
    derivative and reflected ghost at the axis, one-sided at the outer end."""
    d1 = np.empty_like(values)
    d1[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    d1[0] = 0.0
    # the outer end in difference form, each term exactly 0 on constants
    near, mid, far = values[-1] - values[-2], values[-2] - values[-3], values[-3] - values[-4]
    d1[-1] = (3.0 * near - mid) / (2.0 * h)
    d2 = np.empty_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / h**2
    d2[0] = 2.0 * (values[1] - values[0]) / h**2
    d2[-1] = (2.0 * near - 3.0 * mid + far) / h**2
    return d1, d2


def reference_radial_kernel(u, grid):
    """(speed, v^2, H, margin) from ``_speed_core`` on the invariants of the
    radial embedding: |du|^2 = u'^2, tr d2u = u'' + (n-1) u'/rho and
    du.d2u.du = u'^2 u''."""
    rho = grid.axis()
    p, q = reference_radial_stencils(u, grid.spacing)
    sor = np.empty_like(p)
    sor[1:] = p[1:] / rho[1:]
    sor[0] = (4.0 * sor[1] - sor[2]) / 3.0
    n = grid.dimension
    _, margin, v2, _, speed, H = geometry._speed_core(
        u, p * p, q + (n - 1.0) * sor, p * p * q, n
    )
    return speed, v2, H, margin


def random_spacelike_profile(rng, grid, min_margin=0.2):
    """A smooth random even profile, damped until its discrete margin is
    at least ``min_margin`` everywhere."""
    rho = grid.axis()
    k = np.arange(1, 7)
    modes = np.cos(np.outer(rho, k) * np.pi / grid.extent) / k
    shape = modes @ rng.normal(size=k.size)
    base = rng.uniform(-0.5, 0.5)
    amplitude = 1.0
    while True:
        u = base + amplitude * shape
        p, _ = reference_radial_stencils(u, grid.spacing)
        if np.min(1.0 - np.exp(-2.0 * u) * p * p) >= min_margin:
            return u
        amplitude *= 0.8


RESOLUTIONS = [65, 257, 2048]


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_lean_radial_kernel_matches_the_closed_form_reference(resolution):
    grid = grids.Grid(grids.RADIAL, 3, extent=3.0, resolution=resolution)
    rng = np.random.default_rng(resolution)
    for _ in range(5):
        u = random_spacelike_profile(rng, grid)
        lean = geometry.graph_speed_fields(u, grid)
        for actual, desired in zip(lean, reference_radial_kernel(u, grid)):
            assert_rel_close(actual, desired, rel=1e-13)


@pytest.mark.parametrize("dimension", [2, 3, 5])
@pytest.mark.parametrize("c", [0.0, 1.7, -3.25, math.log(2.0)])
def test_lean_radial_kernel_is_exact_on_flat_slices(dimension, c):
    """Every stencil vanishes exactly on a constant, the one-sided ones at
    the outer end included, so the kernel and the checks' geometry see a
    flat slice at every node."""
    grid = grids.Grid(grids.RADIAL, dimension, extent=2.0, resolution=257)
    u = np.full(grid.shape, c)
    speed, v2, H, margin = geometry.graph_speed_fields(u, grid)
    assert np.all(speed == dimension) and np.all(H == dimension)
    assert np.all(margin == 1.0) and np.all(v2 == 1.0)
    fields = geometry.GeometryFields(grid, u)
    assert np.all(fields.H == dimension) and np.all(fields.v == 1.0)


@pytest.mark.parametrize("c", [0.0, 0.5, -0.5, 2.0])
def test_radial_kernel_speed_converges_at_second_order_on_spheres(c):
    """The spacelike sphere ``pointwise.sphere_profile(rho, c)`` moves at the
    graph speed 3 c / sqrt(c^2 + 1 + rho^2) exactly, so the kernel's speed
    error shrinks at second order as the grid goes 129 -> 257 -> 513 nodes."""
    errors = []
    for resolution in (129, 257, 513):
        grid = grids.Grid(grids.RADIAL, 3, extent=3.0, resolution=resolution)
        rho = grid.axis()
        speed, _, _, _ = geometry.graph_speed_fields(pointwise.sphere_profile(rho, c), grid)
        errors.append(float(np.max(np.abs(speed - 3.0 * c / np.sqrt(c * c + 1.0 + rho**2)))))
    low, high = oracles.ORDER_WINDOW
    for coarse, fine in zip(errors, errors[1:]):
        order = grids.refinement_order(coarse, fine)
        assert order is not None and low <= order <= high, (errors, order)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_lean_radial_kernel_fails_at_the_reference_node(resolution):
    grid = grids.Grid(grids.RADIAL, 3, extent=3.0, resolution=resolution)
    rng = np.random.default_rng(resolution + 1)
    u = random_spacelike_profile(rng, grid)
    steep = u.copy()
    at = int(rng.integers(resolution // 4, 3 * resolution // 4))
    steep[at:] += 2.0 * (grid.axis()[at:] - grid.axis()[at]) * np.exp(steep[at:])
    nan = u.copy()
    nan[int(rng.integers(2, resolution - 2))] = np.nan
    for bad in (steep, nan):
        with pytest.raises(NonSpacelikeError) as expected:
            reference_radial_kernel(bad, grid)
        with pytest.raises(NonSpacelikeError) as lean:
            geometry.graph_speed_fields(bad, grid)
        assert lean.value.location == expected.value.location
        assert str(lean.value) == str(expected.value)
