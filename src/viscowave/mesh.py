"""Uniform rectangular meshes of axis-aligned domains.

Element ``(i, j)`` is numbered ``j * nx + i``, x running fastest; the
spaces (``fespace``) number their own degrees of freedom.
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
    n_elements : int
        Number of elements.
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
        self.n_elements = nx * ny

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
