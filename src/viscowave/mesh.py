"""Uniform N-by-N meshes of the unit square.

Element ``(i, j)`` is numbered ``j * n + i``, x running fastest; the
spaces (``fespace``) number their own degrees of freedom.  A symmetry
group of the square (``symmetry``) splits the elements into orbits; the
composite-rule points are built on one element per orbit
(``StructuredMesh.orbits``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import COMPOSITE
from .symmetry import SymmetryGroup, images

__all__ = ["Orbits", "StructuredMesh"]


@dataclass(frozen=True)
class Orbits:
    """One element per orbit of a symmetry group, and how each element reaches it.

    ``elements`` are the representatives, each the least element of its
    orbit, grouped by orbit size, largest first, and in element order within
    a size; ``sizes`` holds the runs of them as (orbit size, slice) pairs.
    ``member`` gives each element the index, in ``group.members()``, of the
    first member that maps it to its representative, and ``position`` that
    representative's index in ``elements``.  ``x`` and ``y`` are
    the composite-rule points of the representatives, each
    (len(elements), nq), read-only and owning their data.
    """

    elements: np.ndarray
    sizes: tuple
    member: np.ndarray
    position: np.ndarray
    x: np.ndarray
    y: np.ndarray


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
        self._orbits = {}

    def element_centers(self) -> np.ndarray:
        """Centers of all elements, shape (n_elements, 2)."""
        ie = np.arange(self.n_elements) % self.n
        je = np.arange(self.n_elements) // self.n
        return np.column_stack([(ie + 0.5) * self.h, (je + 0.5) * self.h])

    def orbits(self, group: SymmetryGroup) -> Orbits:
        """The orbits of the elements under ``group``, built on first use and kept.

        The pair of points is shared by every space of the mesh with the
        group, and, read-only and owning its data, nothing can change it in
        place, so field factors may keep values computed on it (see ``mms``).
        """
        if group not in self._orbits:
            self._orbits[group] = self._orbits_of(group)
        return self._orbits[group]

    def _orbits_of(self, group):
        n, e = self.n, np.arange(self.n_elements)
        # The elements' images under X, Y and D, read off the (j, i) grid,
        # and under the group's members.
        grid, ones = e.reshape(n, n), np.ones(self.n_elements, dtype=np.int8)
        generators = [(p.ravel(), ones) for p in (grid[:, ::-1], grid[::-1], grid.T)]
        image = images(generators, e)[0][[k for k, _ in group.members()]]
        rep = image.min(axis=0)
        size = len(image) // (image == e).sum(axis=0)
        elements = np.flatnonzero(rep == e)
        elements = elements[np.argsort(-size[elements], kind="stable")]
        negated, counts = np.unique(-size[elements], return_counts=True)
        stops = np.cumsum(counts).tolist()
        sizes = tuple(
            (int(-k), slice(start, stop)) for k, start, stop in zip(negated, [0] + stops, stops)
        )
        points = COMPOSITE[0]
        # element_centers' formula on the representatives alone, so that the
        # trivial group's points keep their bits.
        x = ((elements % n + 0.5) * self.h)[:, None] + (0.5 * self.h) * points[:, 0]
        y = ((elements // n + 0.5) * self.h)[:, None] + (0.5 * self.h) * points[:, 1]
        x.flags.writeable = y.flags.writeable = False
        position = np.empty_like(e)
        position[elements] = np.arange(len(elements))
        return Orbits(elements, sizes, (image == rep).argmax(axis=0), position[rep], x, y)

    def __repr__(self):
        return f"StructuredMesh(n={self.n})"
