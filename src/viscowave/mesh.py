"""Uniform N-by-N meshes of the unit square.

Element ``(i, j)`` is numbered ``j * n + i``, x running fastest, and ranked
``i * n + j``, in (gx, gy) order (``StructuredMesh.rank``); the spaces
(``fespace``) number their own degrees of freedom.  A symmetry group of the
square (``symmetry``) splits the elements into orbits, each named after its
first element in that order; the composite-rule points are built on one
element per orbit (``StructuredMesh.orbits``).  ``check_count`` is the one
rule for a count, which the time stepping's counts share.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .quadrature import COMPOSITE
from .symmetry import D, SymmetryGroup, X, Y, fold

__all__ = ["Orbits", "StructuredMesh", "check_count"]


def check_count(x, what: str) -> int:
    """``x`` as an int; ``ValueError``, naming it ``what``, unless it is a
    positive integer of an integer or a floating-point type, within the
    floating-point range."""
    try:
        whole = isinstance(x, numbers.Real) and float(x).is_integer()
    except OverflowError:
        raise ValueError(f"{what} is beyond the floating-point range") from None
    if not (whole and x >= 1):
        raise ValueError(f"{what} must be a positive integer, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class Orbits:
    """One element per orbit of a symmetry group.

    ``elements`` are the representatives, each its orbit's first element in
    (gx, gy) order (``StructuredMesh.rank``), grouped by orbit size, largest
    first, and in element order within a size; ``sizes`` holds the runs of
    them as (orbit size, slice) pairs.  ``x`` and ``y`` are the
    composite-rule points of the representatives, each (len(elements), nq),
    read-only and owning their data: the kernels of a mesh's two spaces
    share them and keep values computed on them (``fespace.QuadKernel``).
    """

    elements: np.ndarray
    sizes: tuple
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
        self.n = check_count(n, "element count")
        self.h = 1.0 / self.n
        self.n_elements = self.n * self.n
        self._orbits = {}

    def element_centers(self) -> np.ndarray:
        """Centers of all elements, shape (n_elements, 2)."""
        ie = np.arange(self.n_elements) % self.n
        je = np.arange(self.n_elements) // self.n
        return np.column_stack([(ie + 0.5) * self.h, (je + 0.5) * self.h])

    def orbits(self, group: SymmetryGroup) -> Orbits:
        """The orbits of the elements under ``group``, each named after its first
        element in ``rank``, built on first use and kept.

        The pair of points is shared by the kernels of every space of the
        mesh with the group, which keep values computed on it
        (``fespace.QuadKernel``), so it is read-only and owns its data:
        nothing can change it in place.
        """
        if group not in self._orbits:
            self._orbits[group] = self._orbits_of(group)
        return self._orbits[group]

    @property
    def rank(self) -> np.ndarray:
        """Element (i, j) ranks i n + j: ``symmetry.grid_rank`` of its centre (2i + 1, 2j + 1)."""
        return np.arange(self.n_elements).reshape(self.n, -1).T.ravel()

    @property
    def generators(self) -> dict:
        """X, Y and D (``symmetry``) as signed permutations ``(p, s)`` of the
        elements, p int32 and s int8 ones: under each, element e takes its
        field from p[e]."""
        grid = np.arange(self.n_elements, dtype=np.int32).reshape(self.n, -1)  # by (j, i)
        ones = np.ones(self.n_elements, dtype=np.int8)
        perms = grid[:, ::-1], grid[::-1], grid.T
        return {g: (p.ravel(), ones) for g, p in zip((X, Y, D), perms)}

    def _orbits_of(self, group):
        # The group's fold with every character +1 keeps every orbit, each
        # represented by its first element in (gx, gy) order.
        even = SymmetryGroup(tuple((name, 1) for name, _ in group.characters))
        orbits = fold(self.generators, even, self.rank)
        elements = orbits.reps[np.argsort(-orbits.sizes, kind="stable")]
        size, count = (a[::-1].tolist() for a in np.unique(orbits.sizes, return_counts=True))
        stops = np.cumsum(count).tolist()
        sizes = tuple(zip(size, map(slice, [0] + stops, stops)))
        n, points = self.n, COMPOSITE[0]
        # element_centers' formula on the representatives alone, so that the
        # trivial group's points keep their bits.
        x = ((elements % n + 0.5) * self.h)[:, None] + (0.5 * self.h) * points[:, 0]
        y = ((elements // n + 0.5) * self.h)[:, None] + (0.5 * self.h) * points[:, 1]
        x.flags.writeable = y.flags.writeable = False
        return Orbits(elements, sizes, x, y)

    def __repr__(self):
        return f"StructuredMesh(n={self.n})"
