"""Conforming stress/velocity element pairs on uniform N-by-N meshes.

Two pairs are available, keyed by family name:

* ``nedelec-q1q0``: every stress component is bilinear with vertex
  degrees of freedom, so the whole tensor is globally continuous;
  velocities are piecewise constant.
* ``hmz``: the normal stresses are quadratic along their own axis and
  constant along the other (two edge-midpoint values plus one interior
  value each), the shear stress is bilinear with vertex values, and each
  velocity component is linear along its own axis.

Both pairs give stress fields whose normal trace is continuous across
interior edges, hence a square-integrable divergence.  Local coordinates
``(xi, eta)`` live on [-1, 1]^2 with ``x = xc + (h/2) xi``.

A stress family is one table, ``LOCAL_DOFS``, from which everything else
is read.  Each local dof is a Voigt component and the offset ``(dx, dy)``
of its point from the element centre in half-steps, so on element
``(i, j)`` its point is ``(2i + 1 + dx, 2j + 1 + dy)`` on the half-step
grid ``x = (h/2) gx``.  Its local function has one factor per axis:
the hat ``(1 + d s)/2`` at offset ``d = +-1``, the bubble ``1 - s^2`` at
offset 0 on the component's own axis (``xi`` for t11, ``eta`` for t22),
and 1 otherwise.  The global dofs come in blocks of one component on one
sublattice ``(2i + ox, 2j + oy)``, in the order the table first reaches
them, each numbered with x running fastest.  A stress dof is the value at
its point, except that a centre dof (the ``hmz`` bubble) is the value
there less what the element's other functions give; velocity
coefficients come from element-local L2 projection.

Both spaces integrate through one kernel type, ``QuadKernel``; velocity
dofs alone are element-local, so ``VelocitySpace`` alone has ``spread``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from .mesh import StructuredMesh
from .mms import Separable
from .quadrature import COMPOSITE, CORNERS
from .symmetry import TRIVIAL, D, Fold, SymmetryGroup, X, Y, fold, grid_rank

__all__ = [
    "NEDELEC",
    "HMZ",
    "FAMILIES",
    "LOCAL_DOFS",
    "QuadKernel",
    "StressSpace",
    "VelocitySpace",
]

NEDELEC = "nedelec-q1q0"
HMZ = "hmz"

# The reference corners, counterclockwise from lower left, in half-steps.
_CORNERS = tuple((int(a), int(b)) for a, b in CORNERS[0])
LOCAL_DOFS = {
    NEDELEC: tuple((c, d) for c in range(3) for d in _CORNERS),
    HMZ: ((0, (-1, 0)), (0, (1, 0)), (0, (0, 0)), (1, (0, -1)), (1, (0, 1)), (1, (0, 0)))
    + tuple((2, d) for d in _CORNERS),
}
FAMILIES = tuple(LOCAL_DOFS)
# Local velocity functions: a component and the power of its own coordinate.
_VELOCITY_DOFS = {NEDELEC: ((0, 0), (1, 0)), HMZ: ((0, 0), (0, 1), (1, 0), (1, 1))}


def _factor(s, offset, own_axis):
    """One axis's factor of a local stress function and its derivative in ``s``."""
    if offset:
        return 0.5 * (1.0 + offset * s), 0.5 * offset
    if own_axis:
        return 1.0 - s * s, -2.0 * s
    return 1.0, 0.0


def _checked(values, x, d) -> np.ndarray:
    """A field's values at the points ``x``, refused unless shaped ``x.shape + (d,)``."""
    values = np.asarray(values, float)
    if values.shape != x.shape + (d,):
        raise ValueError(f"field returned shape {values.shape}, expected {x.shape + (d,)}")
    return values


@dataclass(frozen=True)
class QuadKernel:
    """The composite degree-5 rule on one element per orbit of either space's group.

    The space's ``group`` (``symmetry``) is the symmetry of every field
    integrated through the kernel, so it integrates on one representative
    element per orbit (``StructuredMesh.orbits``).  ``x`` and ``y`` are the
    representatives' points, shape (n_rep, nq): one read-only pair shared by
    both spaces of a mesh with one group, so that their kernels may keep
    values computed on them; ``weights`` (nq,) are the rule weights, the
    same on every element.  ``basis`` has shape (n_local, nq * d), with
    ``basis[l, q * d + c]`` component c of local function l at point q, so
    ``coeffs[eldof] @ basis`` is a discrete field at the representatives'
    points, shape (n_rep, nq * d), ``eldof`` holding the representatives'
    rows of the space's ``eldof`` as ``np.intp``, which a step's gathers need
    to be fast.  ``weighted`` (nq * d, n_local) is ``basis`` times the weights,
    transposed, so ``values(field, t) @ weighted`` integrates a field
    against every local function on every representative.

    ``orbits`` holds the runs of representatives with one orbit size as
    (size, slice) pairs: an integrand the group leaves unchanged integrates
    over the mesh as the sum over runs of the size times the run's sum.
    With the trivial group every element is its own representative, in
    element order, and the sums are those of the rule on every element.

    ``factors`` keeps the values on the points of each spatial factor of a
    ``Separable`` field (``mms``) the kernel has integrated, keyed weakly
    by the factor, so they go with the field.
    """

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    weighted: np.ndarray
    eldof: np.ndarray
    orbits: tuple
    factors: WeakKeyDictionary = _field(default_factory=WeakKeyDictionary, repr=False)

    def values(self, field, *t) -> np.ndarray:
        """``field(x, y, *t)`` on all points, as a (n_rep, nq * d) view.

        A ``Separable`` field is combined from its factors' kept values,
        each factor evaluated on its first use; any other field is called
        once.  It must return the points' shape plus (d,), the width of a
        basis value; any other shape, a transposed one say, is refused.
        """
        d = self.basis.shape[1] // len(self.weights)
        if isinstance(field, Separable):
            values = field.combine(self._factor, *t)
        else:
            values = field(self.x, self.y, *t)
        return _checked(values, self.x, d).reshape(len(self.x), -1)

    def _factor(self, factor) -> np.ndarray:
        if factor not in self.factors:
            self.factors[factor] = factor(self.x, self.y)
        return self.factors[factor]


class _Space:
    """What both spaces share: mesh, family, ``group`` and its ``quad`` and
    ``fold``, built lazily."""

    def __init__(self, mesh: StructuredMesh, family: str, group: SymmetryGroup):
        if family not in FAMILIES:
            raise ValueError(f"unknown element family {family!r}; expected one of {FAMILIES}")
        self.mesh = mesh
        self.family = family
        self.group = group

    @cached_property
    def quad(self) -> QuadKernel:
        orbits = self.mesh.orbits(self.group)
        points, fractions = COMPOSITE
        weights = self.mesh.h * self.mesh.h * fractions
        vals = self.local_values(points[:, 0], points[:, 1])
        nq, n_local, d = vals.shape
        basis = np.ascontiguousarray(vals.transpose(1, 0, 2).reshape(n_local, nq * d))
        return QuadKernel(
            x=orbits.x,
            y=orbits.y,
            weights=weights,
            basis=basis,
            weighted=np.ascontiguousarray((basis * np.repeat(weights, d)).T),
            eldof=self.eldof[orbits.elements].astype(np.intp),
            orbits=orbits.sizes,
        )

    @cached_property
    def fold(self) -> Fold:
        """The group's ``symmetry.fold``; an orbit's representative comes first in ``rank``."""
        return fold(self.generators, self.group, self.rank)

    def symmetries(self) -> tuple:
        """``generators`` and ``rank``, built anew, and the ``fold``, built from them if not yet."""
        generators, rank = self.generators, self.rank
        if "fold" not in vars(self):
            self.fold = fold(generators, self.group, rank)
        return generators, rank, self.fold

    @property
    def generators(self) -> dict:
        """X, Y and D (``symmetry``), which generate D4, as signed permutations
        ``(p, s)`` of every dof, by name: the image of the field with
        coefficients ``a`` has coefficients ``s * a[p]``.  Each element takes
        its image's coefficients (``mesh.generators``) by ``local_generators``,
        so an element matrix that commutes with those gives a global matrix
        that commutes with these; a reflection under which two elements that
        share a dof give it two images or signs is refused with ``ValueError``."""
        local = self.local_generators
        # Made first: made after a freed temporary, glibc would heap them and raise the peak.
        out = {g: (np.empty(self.dim, dtype=np.intp), np.empty(self.dim)) for g in local}
        eldof = self.eldof.astype(np.intp, copy=False)
        for name, (e, _) in self.mesh.generators.items():
            q, t = local[name]
            image = eldof[e[:, None], q]
            p, s = out[name]
            p[eldof], s[eldof] = image, t
            if not (np.array_equal(p[eldof], image) and np.all(s[eldof] == t)):
                raise ValueError(
                    f"the reflection {name} does not map each element's {self.family} dofs "
                    "onto its image's by one local signed permutation"
                )
        return out


class StressSpace(_Space):
    """Global tensor-valued stress space of one element family.

    Attributes
    ----------
    mesh, family
    table : tuple
        The family's ``LOCAL_DOFS`` entries ``(component, (dx, dy))``.
    lumped : bool
        Whether the scheme corner-lumps the stress mass: exactly when every
        local dof sits at a corner, so for ``nedelec-q1q0`` and not ``hmz``.
    dim : int
        Number of global degrees of freedom.
    n_local : int
        Degrees of freedom per element (12 for ``nedelec-q1q0``, 10 for ``hmz``).
    eldof : ndarray of int32, shape (n_elements, n_local)
        Local-to-global index map.
    grid : ndarray of int32, shape (dim, 2)
        Point of every dof on the half-step grid, ``2 x / h``.
    interior : ndarray, shape (n_elements, k)
        The dofs at each element's centre, which no other element shares.
    generators, local_generators : dict of (p, s) pairs
        X, Y and D, which generate D4, on every dof and on one element's.
    dof_point : ndarray, shape (dim, 2)
        Collocation point of each degree-of-freedom functional.
    group : SymmetryGroup
        The symmetry of every field integrated through ``quad``; trivial
        unless given.
    quad : QuadKernel
        The composite-rule kernel, built on first use and kept with the space.
    """

    def __init__(self, mesh: StructuredMesh, family: str, group: SymmetryGroup = TRIVIAL):
        super().__init__(mesh, family, group)
        self.table = LOCAL_DOFS[family]
        self.n_local = len(self.table)
        self.lumped = all(d in _CORNERS for _, d in self.table)
        n = mesh.n
        # A dof's block is its component and its sublattice (2i + ox, 2j + oy).
        blocks = [(c, (1 + dx) % 2, (1 + dy) % 2) for c, (dx, dy) in self.table]
        order = list(dict.fromkeys(blocks))
        width = {b: n + 1 - b[1] for b in order}
        size = [width[b] * (n + 1 - b[2]) for b in order]
        start = dict(zip(order, np.cumsum([0] + size).tolist()))
        self.dim = sum(size)
        self._blocks = [
            (c, (ox, oy), slice(start[c, ox, oy], start[c, ox, oy] + k))
            for (c, ox, oy), k in zip(order, size)
        ]
        self.grid = np.concatenate(
            [2 * np.indices((n + 1 - oy, n + 1 - ox))[::-1].reshape(2, -1) + [[ox], [oy]]
             for _, ox, oy in order],
            axis=1,
        ).T.astype(np.int32, order="C")
        # Element e = j n + i lies at j w + i = e + j (w - n) in a block of
        # width w; its dof at offset (dx, dy) is one column right for dx > 0
        # and one row up for dy > 0.  In place, to spare the temporaries.
        e = np.arange(mesh.n_elements, dtype=np.int32)
        self.eldof = (e // n)[:, None] * np.array([width[b] - n for b in blocks], np.int32)
        self.eldof += e[:, None]
        offsets = [start[b] + (dx > 0) + (dy > 0) * width[b]
                   for b, (_, (dx, dy)) in zip(blocks, self.table)]
        self.eldof += np.array(offsets, np.int32)
        self._centre = [l for l, (_, d) in enumerate(self.table) if d == (0, 0)]
        self.interior = self.eldof[:, self._centre]

    @property
    def local_generators(self) -> dict:
        """X, Y and D as signed permutations ``(q, t)`` of one element's dofs, by
        name, read off the table: local dof l takes its value from its image's
        local dof q(l) times t(l).  A reflection R is its own inverse and maps
        the field sigma to R sigma(R x) R^T, so a dof takes its value from the
        dof at the reflected point: of the same component under a mirror,
        which reverses the offset along its axis and flips the shear, and of
        the other normal component under the diagonal, which swaps the offsets
        and t11 with t22.  Each family's table is symmetric, so that dof
        exists, and a centre dof maps to a centre dof."""
        shear = np.array([-1.0 if c == 2 else 1.0 for c, _ in self.table])
        images = (
            (X, [(c, (-dx, dy)) for c, (dx, dy) in self.table], shear),
            (Y, [(c, (dx, -dy)) for c, (dx, dy) in self.table], shear),
            (D, [((1, 0, 2)[c], (dy, dx)) for c, (dx, dy) in self.table], np.ones(self.n_local)),
        )
        return {g: (np.array([self.table.index(d) for d in image]), s) for g, image, s in images}

    @property
    def rank(self) -> np.ndarray:
        """Each dof's place in (gx, gy) order (``symmetry.grid_rank``), which
        names the split's vectors too."""
        return grid_rank(self.grid)

    @property
    def dof_point(self) -> np.ndarray:
        """Physical point of every dof, ``(h/2) grid``."""
        return (0.5 * self.mesh.h) * self.grid

    def _basis(self, xi, eta):
        """Each local function's component, its value and its (xi, eta) derivatives."""
        for c, (dx, dy) in self.table:
            fx, dfx = _factor(xi, dx, c == 0)
            fy, dfy = _factor(eta, dy, c == 1)
            yield c, fx * fy, dfx * fy, fx * dfy

    def local_values(self, xi, eta) -> np.ndarray:
        """Local basis values at (xi, eta); shape broadcast(xi, eta) + (n_local, 3)."""
        xi, eta = np.broadcast_arrays(np.asarray(xi, float), np.asarray(eta, float))
        out = np.zeros(xi.shape + (self.n_local, 3))
        for l, (c, value, _, _) in enumerate(self._basis(xi, eta)):
            out[..., l, c] = value
        return out

    def local_divergence(self, xi, eta) -> np.ndarray:
        """Physical divergence of the local basis; shape broadcast + (n_local, 2).

        A normal stress t_cc contributes its derivative along axis c to row c
        of the divergence; the shear contributes d/dy to row 0 and d/dx to row 1.
        """
        xi, eta = np.broadcast_arrays(np.asarray(xi, float), np.asarray(eta, float))
        scale = 2.0 / self.mesh.h
        out = np.zeros(xi.shape + (self.n_local, 2))
        for l, (c, _, d_xi, d_eta) in enumerate(self._basis(xi, eta)):
            grad = (scale * d_xi, scale * d_eta)
            if c == 2:
                out[..., l, 0], out[..., l, 1] = grad[1], grad[0]
            else:
                out[..., l, c] = grad[c]
        return out

    def interpolate(self, field) -> np.ndarray:
        """Coefficients of the collocation interpolant of ``field(x, y) -> (..., 3)``.

        The field is evaluated once on each sublattice, and each block on it
        takes its component from those values.
        """
        points = self.dof_point
        coeffs = np.empty(self.dim)
        values = {}
        for c, lattice, dofs in self._blocks:
            if lattice not in values:
                x, y = points[dofs].T
                values[lattice] = _checked(field(x, y), x, 3)
            coeffs[dofs] = values[lattice][:, c]
        # A centre function is 1 at the centre, so its coefficient is the
        # field there less what the element's other functions give there.
        at_centre = self.local_values(0.0, 0.0)
        for l in self._centre:
            share = at_centre[:, self.table[l][0]]
            terms = [share[k] * coeffs[self.eldof[:, k]] for k in np.flatnonzero(share) if k != l]
            coeffs[self.eldof[:, l]] -= sum(terms[1:], terms[0])
        return coeffs


class VelocitySpace(_Space):
    """Element-wise vector velocity space partnered with one stress family.

    ``group`` is the symmetry of every field integrated through ``quad``
    (the load, ``project`` and the error norm); trivial unless given.  Its
    dofs are element-local, n_local e + l for dof l of element e, and their
    orbits are named on the kernel's elements (``rank``), so ``spread`` lifts
    them all through ``fold`` from the kernel's element vectors.
    """

    def __init__(self, mesh: StructuredMesh, family: str, group: SymmetryGroup = TRIVIAL):
        super().__init__(mesh, family, group)
        ne = mesh.n_elements
        self.table = _VELOCITY_DOFS[family]
        self.n_local = len(self.table)
        self.dim = self.n_local * ne
        self.eldof = self.n_local * np.arange(ne)[:, None] + np.arange(self.n_local)

    def local_values(self, xi, eta) -> np.ndarray:
        """Local basis values at (xi, eta); shape broadcast(xi, eta) + (n_local, 2)."""
        xi, eta = np.broadcast_arrays(np.asarray(xi, float), np.asarray(eta, float))
        out = np.zeros(xi.shape + (self.n_local, 2))
        for l, (c, power) in enumerate(self.table):
            out[..., l, c] = (xi, eta)[c] ** power
        return out

    @property
    def local_generators(self) -> dict:
        """X, Y and D as signed permutations ``(q, t)`` of one element's dofs, by
        name (``StressSpace.local_generators``): under the mirror of axis a a
        function of component a changes sign unless it is linear in its own
        coordinate, which the mirror reverses too, and the other component's
        functions keep theirs; under the diagonal component c comes from the
        other component's function of the same power."""
        comp, power = np.array(self.table).T
        same = np.arange(self.n_local)
        swap = np.array([self.table.index((1 - c, k)) for c, k in self.table])
        sx, sy = (np.where(comp == axis, (-1.0) ** (1 + power), 1.0) for axis in (0, 1))
        return {X: (same, sx), Y: (same, sy), D: (swap, np.ones(self.n_local))}

    @property
    def rank(self) -> np.ndarray:
        """Dof l of element e ranks n_local mesh.rank[e] + l: elements in (gx, gy) order."""
        return (self.n_local * self.mesh.rank[:, None] + np.arange(self.n_local)).ravel()

    @property
    def generators(self) -> dict:
        """As ``_Space.generators``, with no dof shared: dof l of element e is n_local e + l."""
        k, local = self.n_local, self.local_generators
        return {g: ((k * e[:, None] + local[g][0]).ravel(), np.tile(local[g][1], len(e)))
                for g, (e, _) in self.mesh.generators.items()}

    @cached_property
    def _at(self) -> np.ndarray:
        """Where ``fold``'s representatives sit in the kernel's element vectors
        (``rank``): the inverse of ``quad.eldof`` at them."""
        eldof = self.quad.eldof.ravel()
        at = np.empty(self.dim, dtype=np.intp)
        at[eldof] = np.arange(len(eldof))
        return at[self.fold.reps]

    def spread(self, local) -> np.ndarray:
        """Every dof's value from the element vectors of the kernel's representatives,
        in the order of ``mesh.orbits(group).elements``, lifted through ``fold``."""
        return self.fold.lift(local.ravel()[self._at])

    def project(self, field) -> np.ndarray:
        """Element-local L2 projection of ``field(x, y) -> (..., 2)``.

        The local basis is L2-orthogonal on every element, so the projection
        is the load of the field divided by the diagonal of the local mass;
        it is formed on the kernel's representatives and spread to every
        element, so the field must have the space's symmetry.
        """
        q = self.quad
        mass = np.einsum("lk,kl->l", q.basis, q.weighted)
        return self.spread(q.values(field) @ q.weighted / mass)
