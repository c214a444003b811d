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
from .symmetry import TRIVIAL, SymmetryGroup, matrix

__all__ = ["Orbits", "StructuredMesh"]


@dataclass(frozen=True)
class Orbits:
    """One element per orbit of a symmetry group, and how each element reaches it.

    ``elements`` are the representatives, each the least element of its
    orbit, grouped by orbit size, largest first, and in element order within
    a size; ``sizes`` holds the runs of them as (orbit size, slice) pairs.
    ``member`` gives each element the index, in ``group.members()``, of the
    first member that maps it to its representative.  ``x`` and ``y`` are
    the composite-rule points of the representatives, each
    (len(elements), nq), read-only and owning their data.
    """

    elements: np.ndarray
    sizes: tuple
    member: np.ndarray
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

    @property
    def quad_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Points ``(x, y)`` of the composite rule on every element, each (n_elements, nq).

        They are the points of the trivial group's orbits, one per element,
        built on first use and kept, so every space of the mesh with the
        trivial group shares them; a run whose data has a larger group
        builds only the points of its representatives (``orbits``).
        """
        orbits = self.orbits(TRIVIAL)
        return orbits.x, orbits.y

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
        # Each element's centre, doubled and taken about the square's centre,
        # as a row of x and a column of y, and its images under the members.
        cx = 2 * np.arange(n) + 1 - n
        cy = cx[:, None]
        images = np.empty((len(group.members()), n, n), dtype=np.intp)
        for image, (word, _) in zip(images, group.members()):
            (a, b), (c, d) = matrix(word)
            image[:] = (c * cx + d * cy + n - 1) // 2 * n + (a * cx + b * cy + n - 1) // 2
        images = images.reshape(len(images), -1)
        rep = images.min(axis=0)
        size = len(images) // (images == e).sum(axis=0)
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
        return Orbits(elements, sizes, (images == rep).argmax(axis=0), x, y)

    def __repr__(self):
        return f"StructuredMesh(n={self.n})"
