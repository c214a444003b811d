"""Uniform N-by-N meshes of the unit square.

Element ``(i, j)`` is numbered ``j * n + i``, x running fastest; the
spaces (``fespace``) number their own degrees of freedom.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .quadrature import COMPOSITE

__all__ = ["StructuredMesh"]


class StructuredMesh:
    """Uniform n-by-n mesh of congruent squares on the unit square.

    The unit square is the only domain: the built-in solutions (``mms``) are
    defined on it alone.

    Parameters
    ----------
    n : int
        Number of elements along each axis.

    Attributes
    ----------
    h : float
        Element edge length, ``1/n``.
    n_elements : int
        Number of elements.
    """

    def __init__(self, n):
        try:
            whole = int(n) == n
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not (whole and n >= 1):
            raise ValueError(f"element count must be a positive integer, got {n!r}")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.n_elements = self.n * self.n

    def element_centers(self) -> np.ndarray:
        """Centers of all elements, shape (n_elements, 2)."""
        ie = np.arange(self.n_elements) % self.n
        je = np.arange(self.n_elements) // self.n
        return np.column_stack([(ie + 0.5) * self.h, (je + 0.5) * self.h])

    @cached_property
    def quad_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Points ``(x, y)`` of the composite rule on every element, each (n_elements, nq).

        Built on first use and kept, so both spaces of a mesh share them.  They
        are read-only and own their data, so nothing can change them in place
        and field factors may keep values computed on them (see ``mms``).
        """
        points = COMPOSITE[0]
        centers = self.element_centers()
        x = centers[:, 0, None] + (0.5 * self.h) * points[:, 0]
        y = centers[:, 1, None] + (0.5 * self.h) * points[:, 1]
        x.flags.writeable = y.flags.writeable = False
        return x, y

    def __repr__(self):
        return f"StructuredMesh(n={self.n})"
