"""Structured rectangular mesh and the test tables of its vertices, elements and edges."""

import numpy as np
import pytest

from viscowave.mesh import StructuredMesh
from viscowave.quadrature import CORNERS

from fehelpers import (
    boundary_edge,
    boundary_vertex,
    edge_counts,
    edge_normal_axis,
    edge_vertices,
    elem_edges,
    elem_vertices,
    element_index,
    vertex_coords,
    vertex_index,
)


def test_counts_4x4():
    mesh = StructuredMesh(4, 4)
    assert len(vertex_coords(mesh)) == 25
    assert mesh.n_elements == 16
    assert edge_counts(mesh) == (20, 20)
    assert len(edge_vertices(mesh)) == 40


def test_counts_rectangular_grid():
    mesh = StructuredMesh(3, 5)
    assert len(vertex_coords(mesh)) == 4 * 6
    assert mesh.n_elements == 15
    assert edge_counts(mesh) == (4 * 5, 3 * 6)


def test_spacing_unit_square():
    mesh = StructuredMesh(8, 4)
    assert mesh.hx == pytest.approx(0.125)
    assert mesh.hy == pytest.approx(0.25)


def test_vertex_coords_x_fastest():
    mesh = StructuredMesh(2, 2)
    xy = vertex_coords(mesh)
    np.testing.assert_allclose(xy[0], [0.0, 0.0])
    np.testing.assert_allclose(xy[1], [0.5, 0.0])
    np.testing.assert_allclose(xy[3], [0.0, 0.5])
    np.testing.assert_allclose(xy[-1], [1.0, 1.0])


def test_vertex_index_roundtrip():
    mesh = StructuredMesh(5, 3)
    xy = vertex_coords(mesh)
    for j in range(4):
        for i in range(6):
            v = vertex_index(mesh, i, j)
            np.testing.assert_allclose(
                xy[v], [i * mesh.hx, j * mesh.hy]
            )


def test_elem_vertices_ccw_from_lower_left():
    mesh = StructuredMesh(3, 2)
    e = element_index(mesh, 1, 1)
    ll, lr, ur, ul = elem_vertices(mesh)[e]
    xy = vertex_coords(mesh)
    np.testing.assert_allclose(xy[lr] - xy[ll], [mesh.hx, 0.0])
    np.testing.assert_allclose(xy[ur] - xy[ll], [mesh.hx, mesh.hy])
    np.testing.assert_allclose(xy[ul] - xy[ll], [0.0, mesh.hy])


def test_element_centers_match_vertices():
    # centre plus half-sides times the reference corners gives each
    # element's vertices in ``elem_vertices`` order
    mesh = StructuredMesh(4, 3)
    corners = vertex_coords(mesh)[elem_vertices(mesh)]
    centers = mesh.element_centers()
    np.testing.assert_allclose(centers, corners.mean(axis=1), atol=1e-15)
    half = 0.5 * np.array([mesh.hx, mesh.hy])
    np.testing.assert_allclose(centers[:, None, :] + half * CORNERS[0], corners, atol=1e-15)


def test_elem_edges_incidence():
    # elem_edges rows are [left, right, bottom, top]; shared edge between
    # horizontal neighbours is right-of-left == left-of-right
    mesh = StructuredMesh(4, 4)
    edges = elem_edges(mesh)
    e0 = element_index(mesh, 1, 2)
    e1 = element_index(mesh, 2, 2)
    assert edges[e0][1] == edges[e1][0]
    e2 = element_index(mesh, 1, 3)
    assert edges[e0][3] == edges[e2][2]


def test_edge_normal_axis():
    mesh = StructuredMesh(3, 3)
    axis = edge_normal_axis(mesh)
    n_vertical = edge_counts(mesh)[0]
    assert np.all(axis[:n_vertical] == 0)
    assert np.all(axis[n_vertical:] == 1)


def test_edge_vertices_geometry():
    mesh = StructuredMesh(3, 4)
    xy = vertex_coords(mesh)
    ends, axis = edge_vertices(mesh), edge_normal_axis(mesh)
    assert ends.shape == (sum(edge_counts(mesh)), 2)
    for k in range(len(ends)):
        a, b = ends[k]
        d = xy[b] - xy[a]
        if axis[k] == 0:  # vertical edge: runs in y
            np.testing.assert_allclose(d, [0.0, mesh.hy])
        else:
            np.testing.assert_allclose(d, [mesh.hx, 0.0])


def test_boundary_masks():
    mesh = StructuredMesh(4, 4)
    xy = vertex_coords(mesh)
    on_bd = (
        (xy[:, 0] == 0.0) | (xy[:, 0] == 1.0) | (xy[:, 1] == 0.0) | (xy[:, 1] == 1.0)
    )
    np.testing.assert_array_equal(boundary_vertex(mesh), on_bd)
    assert boundary_vertex(mesh).sum() == 16
    # boundary edges: 2*(nx+ny)
    assert boundary_edge(mesh).sum() == 16
    mids = xy[edge_vertices(mesh)].mean(axis=1)
    edge_on_bd = (
        (mids[:, 0] == 0.0)
        | (mids[:, 0] == 1.0)
        | (mids[:, 1] == 0.0)
        | (mids[:, 1] == 1.0)
    )
    np.testing.assert_array_equal(boundary_edge(mesh), edge_on_bd)


def test_element_centers():
    mesh = StructuredMesh(2, 2)
    cs = mesh.element_centers()
    np.testing.assert_allclose(cs[0], [0.25, 0.25])
    np.testing.assert_allclose(cs[-1], [0.75, 0.75])


@pytest.mark.parametrize("nx,ny", [(0, 4), (4, 0), (-1, 2)])
def test_invalid_counts_rejected(nx, ny):
    with pytest.raises(ValueError):
        StructuredMesh(nx, ny)
