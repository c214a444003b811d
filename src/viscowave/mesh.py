"""Uniform rectangular meshes of the unit square.

Element ``(i, j)`` is numbered ``j * nx + i``, x running fastest; the
spaces (``fespace``) number their own degrees of freedom.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .quadrature import COMPOSITE

__all__ = ["StructuredMesh"]


class StructuredMesh:
    """Uniform nx-by-ny mesh of congruent rectangles on the unit square.

    The unit square is the only domain: the built-in solutions (``mms``) are
    defined on it alone.

    Parameters
    ----------
    nx, ny : int
        Number of elements along each axis.

    Attributes
    ----------
    hx, hy : float
        Element edge lengths, ``1/nx`` and ``1/ny``.
    n_elements : int
        Number of elements.
    """

    def __init__(self, nx, ny):
        if int(nx) != nx or int(ny) != ny or nx < 1 or ny < 1:
            raise ValueError(f"element counts must be positive integers, got {nx}x{ny}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.hx = 1.0 / self.nx
        self.hy = 1.0 / self.ny
        self.n_elements = self.nx * self.ny

    def element_centers(self) -> np.ndarray:
        """Centers of all elements, shape (n_elements, 2)."""
        ie = np.arange(self.n_elements) % self.nx
        je = np.arange(self.n_elements) // self.nx
        return np.column_stack([(ie + 0.5) * self.hx, (je + 0.5) * self.hy])

    @cached_property
    def quad_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Points ``(x, y)`` of the composite rule on every element, each (n_elements, nq).

        Built on first use and kept, so both spaces of a mesh share them.  They
        are read-only and own their data, so nothing can change them in place
        and field factors may keep values computed on them (see ``mms``).
        """
        points = COMPOSITE[0]
        centers = self.element_centers()
        x = centers[:, 0, None] + (0.5 * self.hx) * points[:, 0]
        y = centers[:, 1, None] + (0.5 * self.hy) * points[:, 1]
        x.flags.writeable = y.flags.writeable = False
        return x, y

    def __repr__(self):
        return f"StructuredMesh(nx={self.nx}, ny={self.ny})"
