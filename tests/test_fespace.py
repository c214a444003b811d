"""Element pairs: dimensions, unisolvence, conformity, divergence consistency."""

import numpy as np
import pytest

from viscowave.fespace import (
    FAMILIES,
    HMZ,
    LOCAL_DOFS,
    NEDELEC,
    StressSpace,
    VelocitySpace,
)
from viscowave.assembly import assemble_coupling
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.quadrature import COMPOSITE, CORNERS

from fehelpers import (
    DIAGONAL,
    boundary_edge,
    dof_component,
    edge_counts,
    edge_elements,
    edge_normal_axis,
    edge_vertices,
    elem_edges,
    elem_vertices,
    element_at,
    eval_stress,
    eval_velocity,
    local_coords,
    mirrors,
    reflections,
    stress_basis_divergence,
    stress_basis_value,
    velocity_basis_value,
    vertex_coords,
)


def hmz_dim(n):
    # s11 edge+interior, s22 edge+interior, s12 vertex
    return 2 * ((n + 1) * n + n * n) + (n + 1) ** 2


def dimension_cases(*cases):
    """Cases ``(family, n, dim)`` with fixed ids ``family-n-n-dim``, so that
    each case keeps the name it has had in the suite."""
    return pytest.mark.parametrize(
        "family, n, dim", cases, ids=[f"{f}-{n}-{n}-{d}" for f, n, d in cases]
    )


# ---------------------------------------------------------------- dimensions


@dimension_cases(
    (NEDELEC, 1, 12),
    (NEDELEC, 4, 75),
    (NEDELEC, 3, 3 * 4 * 4),
    (HMZ, 1, 10),
    (HMZ, 2, 29),
    (HMZ, 4, hmz_dim(4)),
    (HMZ, 3, hmz_dim(3)),
)
def test_stress_dimensions(family, n, dim):
    assert StressSpace(StructuredMesh(n), family).dim == dim


@dimension_cases((NEDELEC, 1, 2), (NEDELEC, 4, 32), (HMZ, 1, 4), (HMZ, 4, 64))
def test_velocity_dimensions(family, n, dim):
    assert VelocitySpace(StructuredMesh(n), family).dim == dim


@pytest.mark.parametrize("family, lumped", [(NEDELEC, True), (HMZ, False)])
def test_lumping_follows_from_the_corner_dofs(family, lumped):
    # nedelec-q1q0 has all its dofs at corners; hmz has edge and centre dofs.
    assert StressSpace(StructuredMesh(2), family).lumped is lumped


def test_unknown_family_rejected():
    mesh = StructuredMesh(2)
    with pytest.raises(ValueError):
        StressSpace(mesh, "q2-q1")
    with pytest.raises(ValueError):
        VelocitySpace(mesh, "q2-q1")
    assert set(FAMILIES) == {NEDELEC, HMZ}


def test_eldof_indices_cover_space():
    for family in FAMILIES:
        ss = StressSpace(StructuredMesh(3), family)
        assert ss.eldof.min() == 0
        assert ss.eldof.max() == ss.dim - 1
        assert len(np.unique(ss.eldof)) == ss.dim


# ----------------------------------------------------- pointwise basis values


def test_nedelec_nodal_basis_values():
    mesh = StructuredMesh(1)
    ss = StressSpace(mesh, NEDELEC)
    # local dof 0 = s11 at lower-left vertex
    v = stress_basis_value(ss, 0, 0, 0.0, 0.0)
    np.testing.assert_allclose(np.asarray(v), [1.0, 0.0, 0.0], atol=1e-15)
    v = stress_basis_value(ss, 0, 0, 0.5, 0.5)
    np.testing.assert_allclose(np.asarray(v), [0.25, 0.0, 0.0], atol=1e-15)


def test_nedelec_nodal_divergence_at_center():
    ss = StressSpace(StructuredMesh(1), NEDELEC)
    d = stress_basis_divergence(ss, 0, 0, 0.5, 0.5)
    np.testing.assert_allclose(np.asarray(d), [-0.5, 0.0], atol=1e-15)


def test_hmz_bubble_vanishes_at_edge_midpoints():
    ss = StressSpace(StructuredMesh(1), HMZ)
    # local layout: [s11 left, s11 right, s11 bubble, s22 bottom, s22 top,
    #                s22 bubble, s12 at 4 vertices]
    for x, y in [(0.0, 0.5), (1.0, 0.5)]:
        v = stress_basis_value(ss, 0, 2, x, y)
        np.testing.assert_allclose(np.asarray(v), [0.0, 0.0, 0.0], atol=1e-15)
    v = stress_basis_value(ss, 0, 2, 0.5, 0.5)
    np.testing.assert_allclose(np.asarray(v), [1.0, 0.0, 0.0], atol=1e-15)


def test_hmz_s11_constant_in_y():
    ss = StressSpace(StructuredMesh(2), HMZ)
    rng = np.random.default_rng(2)
    for ldof in (0, 1, 2):
        ys = rng.uniform(0.0, 0.5, size=5)
        vals = [np.asarray(stress_basis_value(ss, 0, ldof, 0.3, y)) for y in ys]
        assert np.ptp([v[0] for v in vals]) < 1e-14
        assert all(v[1] == 0.0 and v[2] == 0.0 for v in vals)


def test_velocity_basis_values():
    mesh = StructuredMesh(1)
    q0 = VelocitySpace(mesh, NEDELEC)
    np.testing.assert_allclose(velocity_basis_value(q0, 0, 0, 0.7, 0.2), [1.0, 0.0])
    np.testing.assert_allclose(velocity_basis_value(q0, 0, 1, 0.7, 0.2), [0.0, 1.0])
    hv = VelocitySpace(mesh, HMZ)
    np.testing.assert_allclose(
        velocity_basis_value(hv, 0, 1, 0.5, 0.5), [0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(velocity_basis_value(hv, 0, 1, 1.0, 0.5), [1.0, 0.0])


def test_basis_argument_validation():
    mesh = StructuredMesh(2)
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
    mesh = StructuredMesh(3)
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
                e = element_at(mesh, xk, yk)
                xi, eta = local_coords(mesh, e, xk, yk)
                flat[k] = eval_stress(ss, coeffs, e, xi, eta)
            return out

        back = ss.interpolate(member)
        np.testing.assert_allclose(back, coeffs, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_constant_reproduction(family):
    mesh = StructuredMesh(3)
    ss = StressSpace(mesh, family)
    const = np.array([1.3, -0.7, 0.4])

    coeffs = ss.interpolate(lambda x, y: np.broadcast_to(const, np.shape(x) + (3,)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = rng.integers(mesh.n_elements)
        xi, eta = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(eval_stress(ss, coeffs, e, xi, eta), const, atol=1e-13)


def test_nedelec_bilinear_reproduction():
    mesh = StructuredMesh(2)
    ss = StressSpace(mesh, NEDELEC)

    def field(x, y):
        x = np.asarray(x); y = np.asarray(y)
        return np.stack([x * y + 1.0, 2.0 * x - y, x + y * x], axis=-1)

    coeffs = ss.interpolate(field)
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = int(rng.integers(mesh.n_elements))
        cx, cy = mesh.element_centers()[e]
        x = rng.uniform(cx - 0.5 * mesh.h, cx + 0.5 * mesh.h)
        y = rng.uniform(cy - 0.5 * mesh.h, cy + 0.5 * mesh.h)
        xi, eta = local_coords(mesh, e, x, y)
        np.testing.assert_allclose(
            eval_stress(ss, coeffs, e, xi, eta), field(x, y), atol=1e-13
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_velocity_projection_reproduces_members(family):
    mesh = StructuredMesh(2)
    vs = VelocitySpace(mesh, family)
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(vs.dim)

    def member(x, y):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (2,))
        flat = out.reshape(-1, 2)
        xf = x.reshape(-1); yf = np.asarray(y, dtype=float).reshape(-1)
        for k, (xk, yk) in enumerate(zip(xf, yf)):
            e = element_at(mesh, xk, yk)
            xi, eta = local_coords(mesh, e, xk, yk)
            flat[k] = eval_velocity(vs, coeffs, e, xi, eta)
        return out

    np.testing.assert_allclose(vs.project(member), coeffs, atol=1e-12)


def test_q0_projection_is_cell_mean():
    mesh = StructuredMesh(1)
    vs = VelocitySpace(mesh, NEDELEC)
    got = vs.project(lambda x, y: np.stack([np.asarray(x), 0.0 * np.asarray(x)], axis=-1))
    np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-14)


# ----------------------------------------------------------- H(div) conformity


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_normal_trace_continuity(family, n):
    # sigma.n single-valued across interior edges for random members
    mesh = StructuredMesh(n)
    ss = StressSpace(mesh, family)
    touch = edge_elements(mesh)
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal(ss.dim)
    frac = np.linspace(0.1, 0.9, 5)
    on_boundary, ends = boundary_edge(mesh), edge_vertices(mesh)
    normal_axis, xy = edge_normal_axis(mesh), vertex_coords(mesh)
    checked = 0
    for k, elems in touch.items():
        if len(elems) != 2:
            assert on_boundary[k]
            continue
        a, b = ends[k]
        pts = xy[a] + frac[:, None] * (xy[b] - xy[a])
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
    mesh = StructuredMesh(2)
    ss = StressSpace(mesh, family)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(40):
        e = int(rng.integers(mesh.n_elements))
        cx, cy = mesh.element_centers()[e]
        x = rng.uniform(cx - 0.5 * mesh.h + 2 * h, cx + 0.5 * mesh.h - 2 * h)
        y = rng.uniform(cy - 0.5 * mesh.h + 2 * h, cy + 0.5 * mesh.h - 2 * h)
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
    mesh = StructuredMesh(3)
    ss = StressSpace(mesh, family)
    xi = np.array([-0.62, 0.0, 0.81])
    eta = np.array([0.44, -0.13, 0.99])
    loc = ss.local_divergence(xi, eta)  # (3, n_local, 2)
    e = 4
    cx, cy = mesh.element_centers()[e]
    for q in range(3):
        x = cx + 0.5 * xi[q] * mesh.h
        y = cy + 0.5 * eta[q] * mesh.h
        for l in range(ss.n_local):
            np.testing.assert_allclose(
                loc[q, l], np.asarray(stress_basis_divergence(ss, e, l, x, y)),
                atol=1e-13,
            )


def test_dof_metadata():
    ss = StressSpace(StructuredMesh(2), HMZ)
    assert ss.grid.shape == ss.dof_point.shape == (29, 2)
    odd = ss.grid % 2
    # one shear dof per vertex (both coordinates even), one normal stress per
    # edge midpoint (one odd) and two bubbles per element centre (both odd)
    np.testing.assert_array_equal(np.bincount(odd.sum(axis=1)), [9, 12, 8])
    component = dof_component(ss)
    assert np.all(component[odd.sum(axis=1) == 0] == 2)
    # t11 on the vertical edges (x even), t22 on the horizontal ones
    edge = odd.sum(axis=1) == 1
    np.testing.assert_array_equal(component[edge], odd[edge, 0])
    assert ss.interior.shape == (4, 2)
    np.testing.assert_array_equal(np.sort(ss.interior, axis=None), np.flatnonzero(odd.all(axis=1)))
    np.testing.assert_array_equal(component[ss.interior], [[0, 1]] * 4)
    centres = 2 * np.column_stack([np.arange(4) % 2, np.arange(4) // 2]) + 1
    for k in range(2):
        np.testing.assert_array_equal(ss.grid[ss.interior[:, k]], centres)
    ns = StressSpace(StructuredMesh(2), NEDELEC)
    assert np.all(ns.grid % 2 == 0) and ns.interior.shape == (4, 0)
    assert np.all(np.bincount(dof_component(ns)) == 9)


# ------------------------------------------- the tables against their old forms
#
# Before each family was one table of local dofs, its numbering and local
# basis were written out per family; these are those constructions, which
# the tables must reproduce bit for bit.


def _hats(xi, eta):
    return 0.25 * np.stack(
        [(1 - xi) * (1 - eta), (1 + xi) * (1 - eta), (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)],
        axis=-1,
    )


def _hats_dxi(xi, eta):
    return 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)], axis=-1)


def _hats_deta(xi, eta):
    return 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)], axis=-1)


def _old_eldof(mesh, family):
    nv, ne = len(vertex_coords(mesh)), mesh.n_elements
    verts = elem_vertices(mesh)
    if family == NEDELEC:
        return np.concatenate([verts + c * nv for c in range(3)], axis=1)
    nve, nhe = edge_counts(mesh)
    edges, eid = elem_edges(mesh), np.arange(ne)
    return np.column_stack(
        [edges[:, :2], nve + eid, nve + ne + edges[:, 2:] - nve, nve + ne + nhe + eid,
         nve + 2 * ne + nhe + verts]
    )


def _old_midpoints(mesh):
    """Midpoints of the vertical and of the horizontal edges."""
    iv, jv = np.meshgrid(np.arange(mesh.n + 1), np.arange(mesh.n))
    ih, jh = np.meshgrid(np.arange(mesh.n), np.arange(mesh.n + 1))
    return (
        np.column_stack([mesh.h * iv.ravel(), mesh.h * (jv.ravel() + 0.5)]),
        np.column_stack([mesh.h * (ih.ravel() + 0.5), mesh.h * jh.ravel()]),
    )


def _old_dof_point(mesh, family):
    xy = vertex_coords(mesh)
    if family == NEDELEC:
        return np.tile(xy, (3, 1))
    vertical, horizontal = _old_midpoints(mesh)
    centres = mesh.element_centers()
    return np.vstack([vertical, centres, horizontal, centres, xy])


def _old_local_values(family, xi, eta):
    out = np.zeros(xi.shape + (len(LOCAL_DOFS[family]), 3))
    hats = _hats(xi, eta)
    if family == NEDELEC:
        for c in range(3):
            out[..., 4 * c : 4 * c + 4, c] = hats
        return out
    out[..., 0:3, 0] = np.stack([0.5 * (1.0 - xi), 0.5 * (1.0 + xi), 1.0 - xi * xi], axis=-1)
    out[..., 3:6, 1] = np.stack([0.5 * (1.0 - eta), 0.5 * (1.0 + eta), 1.0 - eta * eta], axis=-1)
    out[..., 6:10, 2] = hats
    return out


def _old_local_divergence(family, mesh, xi, eta):
    sx = sy = 2.0 / mesh.h
    out = np.zeros(xi.shape + (len(LOCAL_DOFS[family]), 2))
    dx, dy = sx * _hats_dxi(xi, eta), sy * _hats_deta(xi, eta)
    if family == NEDELEC:
        out[..., 0:4, 0], out[..., 4:8, 1] = dx, dy
        out[..., 8:12, 0], out[..., 8:12, 1] = dy, dx
        return out
    out[..., 0, 0], out[..., 1, 0], out[..., 2, 0] = -0.5 * sx, 0.5 * sx, -2.0 * xi * sx
    out[..., 3, 1], out[..., 4, 1], out[..., 5, 1] = -0.5 * sy, 0.5 * sy, -2.0 * eta * sy
    out[..., 6:10, 0], out[..., 6:10, 1] = dy, dx
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "n",
    [3, 64, 256, 5],
    # Fixed ids, so that each case keeps the name it has had in the suite.
    ids=["3-3-bounds0", "64-64-bounds1", "256-256-bounds2", "5-5-bounds3"],
)
def test_table_matches_old_construction(family, n):
    mesh = StructuredMesh(n)
    ss = StressSpace(mesh, family)
    np.testing.assert_array_equal(ss.eldof, _old_eldof(mesh, family))
    np.testing.assert_array_equal(_bits(ss.dof_point), _bits(_old_dof_point(mesh, family)))
    rng = np.random.default_rng(n)
    points = [COMPOSITE[0], CORNERS[0], rng.uniform(-1.0, 1.0, (1000, 2)), np.zeros((1, 2))]
    for xi, eta in (p.T for p in points):
        np.testing.assert_array_equal(
            _bits(ss.local_values(xi, eta)), _bits(_old_local_values(family, xi, eta))
        )
        np.testing.assert_array_equal(
            _bits(ss.local_divergence(xi, eta)),
            _bits(_old_local_divergence(family, mesh, xi, eta)),
        )


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_hmz_interpolant_matches_old_construction(example, t):
    # the old form: edge and vertex values, and each bubble the centre value
    # less the mean of its two edge values; at t = 0 the stress of examples
    # 1 and 2 is zero, where the bits still tell -0.0 from 0.0
    mesh = StructuredMesh(6)
    ss = StressSpace(mesh, HMZ)
    sigma = exact_fields(example).sigma
    vertical, horizontal = _old_midpoints(mesh)
    f_vm, f_hm = sigma(*vertical.T, t)[:, 0], sigma(*horizontal.T, t)[:, 1]
    f_cc = sigma(*mesh.element_centers().T, t)
    nve = len(vertical)
    left, right, bottom, top = elem_edges(mesh).T
    want = np.concatenate(
        [
            f_vm,
            f_cc[:, 0] - 0.5 * (f_vm[left] + f_vm[right]),
            f_hm,
            f_cc[:, 1] - 0.5 * (f_hm[bottom - nve] + f_hm[top - nve]),
            sigma(*vertex_coords(mesh).T, t)[:, 2],
        ]
    )
    got = ss.interpolate(lambda x, y: sigma(x, y, t))
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("example", [1, 2, 3])
def test_nedelec_interpolant_is_the_vertex_values(example, t):
    # bit for bit the field at the vertices, one component block after another
    mesh = StructuredMesh(6)
    ss = StressSpace(mesh, NEDELEC)
    sigma = exact_fields(example).sigma
    want = sigma(*vertex_coords(mesh).T, t).T.ravel()
    got = ss.interpolate(lambda x, y: sigma(x, y, t))
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("family", FAMILIES)
def test_interpolate_evaluates_each_dof_point_once(family):
    ss = StressSpace(StructuredMesh(5), family)
    seen = []

    def field(x, y):
        seen.extend(zip(x.tolist(), y.tolist()))
        return np.zeros(np.shape(x) + (3,))

    ss.interpolate(field)
    assert len(seen) == len(set(seen)) == len(np.unique(ss.dof_point, axis=0))


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_values_call_the_field_once_and_keep_its_array(family):
    q = VelocitySpace(StructuredMesh(3), family).quad
    calls = []

    def field(x, y, t):
        calls.append(np.stack([t * x, y], axis=-1))
        return calls[-1]

    values = q.values(field, 2.0)
    assert len(calls) == 1 and np.shares_memory(values, calls[0])
    assert values.shape == (9, 2 * len(q.weights))
    np.testing.assert_array_equal(values[:, 0::2], 2.0 * q.x)


@pytest.mark.parametrize("family", FAMILIES)
def test_projection_and_interpolant_refuse_a_wrong_shape(family):
    # One rule and one message for every evaluation of a field on points.
    mesh = StructuredMesh(4)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    four = lambda x, y: np.zeros(np.shape(x) + (4,))
    shapes = r"shape \(16, 14, 4\), expected \(16, 14, 2\)"
    with pytest.raises(ValueError, match=f"^field returned {shapes}$"):
        vs.project(four)
    shapes = r"shape \((\d+), 4\), expected \(\1, 3\)"
    with pytest.raises(ValueError, match=f"^field returned {shapes}$"):
        ss.interpolate(four)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 3, 4], ids=["1-1", "3-3", "4-4"])
def test_mirrors_reflect_grid_points(family, n):
    ss = StressSpace(StructuredMesh(n), family)
    (px, sx), (py, sy) = mirrors(ss)
    gx, gy = ss.grid.T
    assert np.array_equal(ss.grid[px], np.column_stack([2 * n - gx, gy]))
    assert np.array_equal(ss.grid[py], np.column_stack([gx, 2 * n - gy]))
    shear = dof_component(ss) == 2
    for p, s in ((px, sx), (py, sy)):
        assert np.array_equal(p[p], np.arange(ss.dim))
        assert np.array_equal(dof_component(ss)[p], dof_component(ss))
        assert np.array_equal(s, np.where(shear, -1.0, 1.0))
    assert np.array_equal(px[py], py[px])
    # The mesh is also symmetric about its diagonal, which swaps t11 and
    # t22, keeps the shear's sign and transposes the local offsets.
    assert list(ss.generators) == ["x -> 1 - x", "y -> 1 - y", DIAGONAL]
    p, s = ss.generators[DIAGONAL]
    assert np.array_equal(ss.grid[p], ss.grid[:, ::-1])
    assert np.array_equal(p[p], np.arange(ss.dim))
    assert np.array_equal(dof_component(ss)[p], np.array([1, 0, 2])[dof_component(ss)])
    assert np.array_equal(s, np.ones(ss.dim))
    table = LOCAL_DOFS[family]
    assert {((1, 0, 2)[c], d[::-1]) for c, d in table} == set(table)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_generators_match_brute_force_search(family, n):
    ss = StressSpace(StructuredMesh(n), family)
    want = reflections(ss)
    assert list(ss.generators) == list(want)
    for (p, s), (p_want, s_want) in zip(ss.generators.values(), want.values()):
        np.testing.assert_array_equal(p, p_want)
        np.testing.assert_array_equal(s, s_want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_generators_satisfy_the_relations_of_d4(family, n):
    # The split of the condensed stress matrix reads D4's character table,
    # which holds only if X^2 = Y^2 = D^2 = 1, XY = YX and DXD = Y, as
    # signed permutations: (P a)_i = s_i a_p(i), so P1 P2 = (p2[p1], s1 s2[p1]).
    X, Y, D = StressSpace(StructuredMesh(n), family).generators.values()

    def times(g1, g2):
        (p1, s1), (p2, s2) = g1, g2
        return p2[p1], s1 * s2[p1]

    def same(g1, g2):
        return np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    one = (np.arange(len(X[0])), np.ones(len(X[0])))
    assert all(same(times(g, g), one) for g in (X, Y, D))
    assert same(times(X, Y), times(Y, X))
    assert same(times(times(D, X), D), Y)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_coupling_commutes_with_the_generators(family, n):
    # B P_sigma = P_v B for X, Y and D, checked as check_symmetry checks S:
    # one random vector, and a gap of a few ulps of k max|B|.
    mesh = StructuredMesh(n)
    ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
    B = assemble_coupling(ss, vs)
    assert list(vs.generators) == list(ss.generators)
    x = np.random.default_rng(0).random(ss.dim)
    Bx = B @ x
    size = np.diff(B.indptr).max() * abs(B.data).max()
    for (p, s), (pv, sv) in zip(ss.generators.values(), vs.generators.values()):
        assert np.array_equal(pv[pv], np.arange(vs.dim)) and np.all(sv * sv[pv] == 1.0)
        assert np.abs(B @ (s * x[p]) - sv * Bx[pv]).max() <= 64 * np.finfo(float).eps * size


@pytest.mark.parametrize("family", FAMILIES)
def test_projection_of_a_reflected_field_is_the_image_of_the_projection(family):
    vs = VelocitySpace(StructuredMesh(3), family)

    def field(x, y):
        # Of degree 4 at most, so the composite rule integrates it against
        # the linear basis exactly, also after X and Y, which move the rule.
        return np.stack([x**2 + 3 * y, x * y**2 + x**3 * y], axis=-1)

    reflected = {
        "x -> 1 - x": lambda x, y: field(1 - x, y) * [-1.0, 1.0],
        "y -> 1 - y": lambda x, y: field(x, 1 - y) * [1.0, -1.0],
        DIAGONAL: lambda x, y: field(y, x)[..., ::-1],
    }
    b = vs.project(field)
    for name, (p, s) in vs.generators.items():
        np.testing.assert_allclose(vs.project(reflected[name]), s * b[p], rtol=0, atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_mirror_of_interpolant_is_interpolant_of_mirrored_field(family):
    # Reflecting x -> 1 - x keeps t11 and t22 and flips the shear t12.
    ss = StressSpace(StructuredMesh(3), family)

    def field(x, y):
        return np.stack([x**2 + 3 * y, x * y**2, np.sin(x + 2 * y)], axis=-1)

    flips = ((lambda x, y: (1 - x, y)), (lambda x, y: (x, 1 - y)))
    for (p, s), flip in zip(mirrors(ss), flips):
        mirrored = ss.interpolate(lambda x, y: field(*flip(x, y)) * [1.0, 1.0, -1.0])
        np.testing.assert_allclose(mirrored, s * ss.interpolate(field)[p], rtol=0, atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_diagonal_of_interpolant_is_interpolant_of_transposed_field(family):
    # Reflecting (x, y) -> (y, x) swaps t11 and t22 and keeps the shear t12.
    ss = StressSpace(StructuredMesh(3), family)

    def field(x, y):
        return np.stack([x**2 + 3 * y, x * y**2, np.sin(x + 2 * y)], axis=-1)

    p, s = ss.generators[DIAGONAL]
    transposed = ss.interpolate(lambda x, y: field(y, x)[..., [1, 0, 2]])
    np.testing.assert_allclose(transposed, s * ss.interpolate(field)[p], rtol=0, atol=1e-14)
