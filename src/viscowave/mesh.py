"""Uniform rectangular meshes of axis-aligned domains.

Vertices, elements, and edges are numbered lexicographically with x
running fastest.  Edges come in two runs: all vertical edges first (unit
normal fixed as +x), then all horizontal edges (unit normal +y).
"""

from __future__ import annotations

import numpy as np

__all__ = ["StructuredMesh"]


class StructuredMesh:
    """Uniform nx-by-ny mesh of congruent rectangles.

    Parameters
    ----------
    nx, ny : int
        Number of elements along each axis.
    bounds : tuple of float, optional
        Domain corners ``(x0, y0, x1, y1)``; defaults to the unit square.

    Attributes
    ----------
    hx, hy : float
        Element edge lengths.
    n_vertices, n_elements, n_edges : int
        Entity counts; ``n_edges`` counts vertical and horizontal edges
        together.
    vertex_coords : ndarray, shape (n_vertices, 2)
    elem_vertices : ndarray, shape (n_elements, 4)
        Vertex ids, counterclockwise from the lower-left corner.
    elem_edges : ndarray, shape (n_elements, 4)
        Edge ids in the order (left, right, bottom, top).
    """

    def __init__(self, nx, ny, bounds=(0.0, 0.0, 1.0, 1.0)):
        if int(nx) != nx or int(ny) != ny or nx < 1 or ny < 1:
            raise ValueError(f"element counts must be positive integers, got {nx}x{ny}")
        nx, ny = int(nx), int(ny)
        x0, y0, x1, y1 = (float(b) for b in bounds)
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate domain bounds {bounds}")
        self.nx = nx
        self.ny = ny
        self.bounds = (x0, y0, x1, y1)
        self.hx = (x1 - x0) / nx
        self.hy = (y1 - y0) / ny

        self.n_vertices = (nx + 1) * (ny + 1)
        self.n_elements = nx * ny
        self.n_vertical_edges = (nx + 1) * ny
        self.n_horizontal_edges = nx * (ny + 1)
        self.n_edges = self.n_vertical_edges + self.n_horizontal_edges

        X, Y = np.meshgrid(x0 + self.hx * np.arange(nx + 1), y0 + self.hy * np.arange(ny + 1))
        self.vertex_coords = np.column_stack([X.ravel(), Y.ravel()])

        ie, je = np.meshgrid(np.arange(nx), np.arange(ny))
        ie, je = ie.ravel(), je.ravel()
        ll = je * (nx + 1) + ie
        self.elem_vertices = np.column_stack([ll, ll + 1, ll + nx + 2, ll + nx + 1])
        left = je * (nx + 1) + ie
        bottom = self.n_vertical_edges + je * nx + ie
        self.elem_edges = np.column_stack([left, left + 1, bottom, bottom + nx])

    def element_centers(self) -> np.ndarray:
        """Centers of all elements, shape (n_elements, 2)."""
        ie = np.arange(self.n_elements) % self.nx
        je = np.arange(self.n_elements) // self.nx
        return np.column_stack(
            [
                self.bounds[0] + (ie + 0.5) * self.hx,
                self.bounds[1] + (je + 0.5) * self.hy,
            ]
        )

    def __repr__(self):
        return f"StructuredMesh(nx={self.nx}, ny={self.ny}, bounds={self.bounds})"
