"""Element pairs: dimensions, unisolvence, conformity, divergence consistency."""

import numpy as np
import pytest

from viscowave.fespace import (
    FAMILIES,
    HMZ,
    NEDELEC,
    StressSpace,
    VelocitySpace,
)
from viscowave.mesh import StructuredMesh

from fehelpers import (
    boundary_edge,
    dof_component,
    edge_normal_axis,
    edge_vertices,
    eval_stress,
    eval_velocity,
    local_coords,
    stress_basis_divergence,
    stress_basis_value,
    velocity_basis_value,
)


def hmz_dim(nx, ny):
    # s11 edge+interior, s22 edge+interior, s12 vertex
    return (
        (nx + 1) * ny + nx * ny + nx * (ny + 1) + nx * ny + (nx + 1) * (ny + 1)
    )


# ---------------------------------------------------------------- dimensions


@pytest.mark.parametrize(
    "family,nx,ny,dim",
    [
        (NEDELEC, 1, 1, 12),
        (NEDELEC, 4, 4, 75),
        (NEDELEC, 3, 5, 3 * 4 * 6),
        (HMZ, 1, 1, 10),
        (HMZ, 2, 2, 29),
        (HMZ, 4, 4, hmz_dim(4, 4)),
        (HMZ, 3, 5, hmz_dim(3, 5)),
    ],
)
def test_stress_dimensions(family, nx, ny, dim):
    assert StressSpace(StructuredMesh(nx, ny), family).dim == dim


@pytest.mark.parametrize(
    "family,nx,ny,dim",
    [(NEDELEC, 1, 1, 2), (NEDELEC, 4, 4, 32), (HMZ, 1, 1, 4), (HMZ, 4, 4, 64)],
)
def test_velocity_dimensions(family, nx, ny, dim):
    assert VelocitySpace(StructuredMesh(nx, ny), family).dim == dim


def test_unknown_family_rejected():
    mesh = StructuredMesh(2, 2)
    with pytest.raises(ValueError):
        StressSpace(mesh, "q2-q1")
    with pytest.raises(ValueError):
        VelocitySpace(mesh, "q2-q1")
    assert set(FAMILIES) == {NEDELEC, HMZ}


def test_eldof_indices_cover_space():
    for family in FAMILIES:
        ss = StressSpace(StructuredMesh(3, 2), family)
        assert ss.eldof.min() == 0
        assert ss.eldof.max() == ss.dim - 1
        assert len(np.unique(ss.eldof)) == ss.dim


# ----------------------------------------------------- pointwise basis values


def test_nedelec_nodal_basis_values():
    mesh = StructuredMesh(1, 1)
    ss = StressSpace(mesh, NEDELEC)
    # local dof 0 = s11 at lower-left vertex
    v = stress_basis_value(ss, 0, 0, 0.0, 0.0)
    np.testing.assert_allclose(np.asarray(v), [1.0, 0.0, 0.0], atol=1e-15)
    v = stress_basis_value(ss, 0, 0, 0.5, 0.5)
    np.testing.assert_allclose(np.asarray(v), [0.25, 0.0, 0.0], atol=1e-15)


def test_nedelec_nodal_divergence_at_center():
    ss = StressSpace(StructuredMesh(1, 1), NEDELEC)
    d = stress_basis_divergence(ss, 0, 0, 0.5, 0.5)
    np.testing.assert_allclose(np.asarray(d), [-0.5, 0.0], atol=1e-15)


def test_hmz_bubble_vanishes_at_edge_midpoints():
    ss = StressSpace(StructuredMesh(1, 1), HMZ)
    # local layout: [s11 left, s11 right, s11 bubble, s22 bottom, s22 top,
    #                s22 bubble, s12 at 4 vertices]
    for x, y in [(0.0, 0.5), (1.0, 0.5)]:
        v = stress_basis_value(ss, 0, 2, x, y)
        np.testing.assert_allclose(np.asarray(v), [0.0, 0.0, 0.0], atol=1e-15)
    v = stress_basis_value(ss, 0, 2, 0.5, 0.5)
    np.testing.assert_allclose(np.asarray(v), [1.0, 0.0, 0.0], atol=1e-15)


def test_hmz_s11_constant_in_y():
    ss = StressSpace(StructuredMesh(2, 2), HMZ)
    rng = np.random.default_rng(2)
    for ldof in (0, 1, 2):
        ys = rng.uniform(0.0, 0.5, size=5)
        vals = [np.asarray(stress_basis_value(ss, 0, ldof, 0.3, y)) for y in ys]
        assert np.ptp([v[0] for v in vals]) < 1e-14
        assert all(v[1] == 0.0 and v[2] == 0.0 for v in vals)


def test_velocity_basis_values():
    mesh = StructuredMesh(1, 1)
    q0 = VelocitySpace(mesh, NEDELEC)
    np.testing.assert_allclose(velocity_basis_value(q0, 0, 0, 0.7, 0.2), [1.0, 0.0])
    np.testing.assert_allclose(velocity_basis_value(q0, 0, 1, 0.7, 0.2), [0.0, 1.0])
    hv = VelocitySpace(mesh, HMZ)
    np.testing.assert_allclose(
        velocity_basis_value(hv, 0, 1, 0.5, 0.5), [0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(velocity_basis_value(hv, 0, 1, 1.0, 0.5), [1.0, 0.0])


def test_basis_argument_validation():
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, NEDELEC)
    with pytest.raises(ValueError):
        stress_basis_value(ss, 0, 12, 0.1, 0.1)  # ldof out of range
    with pytest.raises(ValueError):
        stress_basis_value(ss, 0, 0, 0.9, 0.9)  # point outside element 0
    vs = VelocitySpace(mesh, HMZ)
    with pytest.raises(ValueError):
        velocity_basis_value(vs, 0, 4, 0.1, 0.1)


# ------------------------------------------------------- unisolvence and DOFs


@pytest.mark.parametrize("family", FAMILIES)
def test_interpolation_reproduces_members(family):
    # canonical interpolation applied to a space member returns its coefficients
    mesh = StructuredMesh(3, 2)
    ss = StressSpace(mesh, family)
    rng = np.random.default_rng(17)
    for _ in range(5):
        coeffs = rng.standard_normal(ss.dim)

        def member(x, y):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape + (3,))
            flat = out.reshape(-1, 3)
            xf = x.reshape(-1)
            yf = np.asarray(y, dtype=float).reshape(-1)
            for k, (xk, yk) in enumerate(zip(xf, yf)):
                e = int(
                    min(xk // mesh.hx, mesh.nx - 1)
                    + min(yk // mesh.hy, mesh.ny - 1) * mesh.nx
                )
                xi, eta = local_coords(mesh, e, xk, yk)
                flat[k] = eval_stress(ss, coeffs, e, xi, eta)
            return out

        back = ss.interpolate(member)
        np.testing.assert_allclose(back, coeffs, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_constant_reproduction(family):
    mesh = StructuredMesh(2, 3)
    ss = StressSpace(mesh, family)
    const = np.array([1.3, -0.7, 0.4])

    coeffs = ss.interpolate(lambda x, y: np.broadcast_to(const, np.shape(x) + (3,)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = rng.integers(mesh.n_elements)
        xi, eta = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(eval_stress(ss, coeffs, e, xi, eta), const, atol=1e-13)


def test_nedelec_bilinear_reproduction():
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, NEDELEC)

    def field(x, y):
        x = np.asarray(x); y = np.asarray(y)
        return np.stack([x * y + 1.0, 2.0 * x - y, x + y * x], axis=-1)

    coeffs = ss.interpolate(field)
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = int(rng.integers(mesh.n_elements))
        cx, cy = mesh.element_centers()[e]
        x = rng.uniform(cx - 0.5 * mesh.hx, cx + 0.5 * mesh.hx)
        y = rng.uniform(cy - 0.5 * mesh.hy, cy + 0.5 * mesh.hy)
        xi, eta = local_coords(mesh, e, x, y)
        np.testing.assert_allclose(
            eval_stress(ss, coeffs, e, xi, eta), field(x, y), atol=1e-13
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_velocity_projection_reproduces_members(family):
    mesh = StructuredMesh(2, 2)
    vs = VelocitySpace(mesh, family)
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(vs.dim)

    def member(x, y):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (2,))
        flat = out.reshape(-1, 2)
        xf = x.reshape(-1); yf = np.asarray(y, dtype=float).reshape(-1)
        for k, (xk, yk) in enumerate(zip(xf, yf)):
            e = int(
                min(xk // mesh.hx, mesh.nx - 1)
                + min(yk // mesh.hy, mesh.ny - 1) * mesh.nx
            )
            xi, eta = local_coords(mesh, e, xk, yk)
            flat[k] = eval_velocity(vs, coeffs, e, xi, eta)
        return out

    np.testing.assert_allclose(vs.project(member), coeffs, atol=1e-12)


def test_q0_projection_is_cell_mean():
    mesh = StructuredMesh(1, 1)
    vs = VelocitySpace(mesh, NEDELEC)
    got = vs.project(lambda x, y: np.stack([np.asarray(x), 0.0 * np.asarray(x)], axis=-1))
    np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-14)


# ----------------------------------------------------------- H(div) conformity


def edge_elements(mesh):
    """Map edge index -> element indices touching it."""
    touch = {}
    for e in range(mesh.n_elements):
        for k in mesh.elem_edges[e]:
            touch.setdefault(int(k), []).append(e)
    return touch


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_normal_trace_continuity(family, n):
    # sigma.n single-valued across interior edges for random members
    mesh = StructuredMesh(n, n)
    ss = StressSpace(mesh, family)
    touch = edge_elements(mesh)
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal(ss.dim)
    frac = np.linspace(0.1, 0.9, 5)
    on_boundary, ends = boundary_edge(mesh), edge_vertices(mesh)
    normal_axis = edge_normal_axis(mesh)
    checked = 0
    for k, elems in touch.items():
        if len(elems) != 2:
            assert on_boundary[k]
            continue
        a, b = ends[k]
        pts = mesh.vertex_coords[a] + frac[:, None] * (
            mesh.vertex_coords[b] - mesh.vertex_coords[a]
        )
        axis = normal_axis[k]
        for x, y in pts:
            traces = []
            for e in elems:
                xi, eta = local_coords(mesh, e, x, y)
                s11, s22, s12 = eval_stress(ss, coeffs, e, xi, eta)
                tn = (s11, s12) if axis == 0 else (s12, s22)
                traces.append(tn)
            np.testing.assert_allclose(traces[0], traces[1], atol=1e-12)
            checked += 1
    assert checked == 5 * (2 * n * (n - 1))


@pytest.mark.parametrize("family", FAMILIES)
def test_divergence_matches_finite_differences(family):
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, family)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(40):
        e = int(rng.integers(mesh.n_elements))
        cx, cy = mesh.element_centers()[e]
        x = rng.uniform(cx - 0.5 * mesh.hx + 2 * h, cx + 0.5 * mesh.hx - 2 * h)
        y = rng.uniform(cy - 0.5 * mesh.hy + 2 * h, cy + 0.5 * mesh.hy - 2 * h)
        ldof = int(rng.integers(ss.n_local))
        div = np.asarray(stress_basis_divergence(ss, e, ldof, x, y))

        def val(px, py):
            return np.asarray(stress_basis_value(ss, e, ldof, px, py))

        dx = (val(x + h, y) - val(x - h, y)) / (2 * h)
        dy = (val(x, y + h) - val(x, y - h)) / (2 * h)
        fd = np.array([dx[0] + dy[2], dx[2] + dy[1]])
        np.testing.assert_allclose(div, fd, atol=1e-6)


@pytest.mark.parametrize("family", FAMILIES)
def test_local_divergence_consistent_with_pointwise(family):
    mesh = StructuredMesh(3, 2)
    ss = StressSpace(mesh, family)
    xi = np.array([-0.62, 0.0, 0.81])
    eta = np.array([0.44, -0.13, 0.99])
    loc = ss.local_divergence(xi, eta)  # (3, n_local, 2)
    e = 4
    cx, cy = mesh.element_centers()[e]
    for q in range(3):
        x = cx + 0.5 * xi[q] * mesh.hx
        y = cy + 0.5 * eta[q] * mesh.hy
        for l in range(ss.n_local):
            np.testing.assert_allclose(
                loc[q, l], np.asarray(stress_basis_divergence(ss, e, l, x, y)),
                atol=1e-13,
            )


def test_dof_metadata():
    ss = StressSpace(StructuredMesh(2, 2), HMZ)
    assert ss.dof_point.shape == (29, 2)
    assert set(np.unique(ss.dof_kind)) == {"edge", "interior", "vertex"}
    # one vertex dof per mesh vertex (the shear), edge dofs on edge midpoints
    assert (ss.dof_kind == "vertex").sum() == 9
    assert (ss.dof_kind == "interior").sum() == 8
    assert (ss.dof_kind == "edge").sum() == 12
    assert set(np.unique(dof_component(ss))) == {0, 1, 2}
    ns = StressSpace(StructuredMesh(2, 2), NEDELEC)
    assert np.all(ns.dof_kind == "vertex")
    assert np.all(np.bincount(dof_component(ns)) == 9)
