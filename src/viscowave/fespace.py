"""Conforming stress/velocity element pairs on uniform rectangular meshes.

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
``(xi, eta)`` live on [-1, 1]^2 with ``x = xc + (hx/2) xi``.

A stress family is one table, ``LOCAL_DOFS``, from which everything else
is read.  Each local dof is a Voigt component and the offset ``(dx, dy)``
of its point from the element centre in half-steps, so on element
``(i, j)`` its point is ``(2i + 1 + dx, 2j + 1 + dy)`` on the half-step
grid ``x = (hx/2) gx``.  Its local function has one factor per axis:
the hat ``(1 + d s)/2`` at offset ``d = +-1``, the bubble ``1 - s^2`` at
offset 0 on the component's own axis (``xi`` for t11, ``eta`` for t22),
and 1 otherwise.  The global dofs come in blocks of one component on one
sublattice ``(2i + ox, 2j + oy)``, in the order the table first reaches
them, each numbered with x running fastest.  A stress dof is the value at
its point, except that a centre dof (the ``hmz`` bubble) is the value
there less what the element's other functions give; velocity
coefficients come from element-local L2 projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import StructuredMesh
from .quadrature import COMPOSITE, CORNERS

__all__ = [
    "NEDELEC",
    "HMZ",
    "FAMILIES",
    "LOCAL_DOFS",
    "QuadKernel",
    "quad_kernel",
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


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown element family {family!r}; expected one of {FAMILIES}")


def _factor(s, offset, own_axis):
    """One axis's factor of a local stress function and its derivative in ``s``."""
    if offset:
        return 0.5 * (1.0 + offset * s), 0.5 * offset
    if own_axis:
        return 1.0 - s * s, -2.0 * s
    return 1.0, 0.0


@dataclass(frozen=True)
class QuadKernel:
    """The composite degree-5 rule on every element, with the local basis there.

    ``x`` and ``y`` are the physical points, shape (n_elements, nq), the
    mesh's ``quad_points``: one read-only pair shared by both spaces of a
    mesh, so that field factors may keep values computed on them;
    ``weights`` (nq,) are the rule weights, the same on every element.
    ``basis`` has shape (n_local, nq * d), with ``basis[l, q * d + c]``
    component c of local function l at point q, so ``coeffs[eldof] @ basis``
    is a discrete field at every point, shape (n_elements, nq * d).
    ``weighted`` (nq * d, n_local) is ``basis`` times the weights, transposed,
    so ``values.reshape(n_elements, -1) @ weighted`` integrates a field
    against every local function.
    """

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    weighted: np.ndarray


def quad_kernel(space) -> QuadKernel:
    """Build the composite-rule kernel of a stress or velocity space."""
    mesh = space.mesh
    points, fractions = COMPOSITE
    weights = mesh.hx * mesh.hy * fractions
    vals = space.local_values(points[:, 0], points[:, 1])
    nq, n_local, d = vals.shape
    basis = np.ascontiguousarray(vals.transpose(1, 0, 2).reshape(n_local, nq * d))
    x, y = mesh.quad_points
    return QuadKernel(
        x=x,
        y=y,
        weights=weights,
        basis=basis,
        weighted=np.ascontiguousarray((basis * np.repeat(weights, d)).T),
    )


class _Space:
    """What both spaces share: the quadrature kernel, built on first use."""

    @cached_property
    def quad(self) -> QuadKernel:
        return quad_kernel(self)


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
    eldof : ndarray, shape (n_elements, n_local)
        Local-to-global index map.
    grid : ndarray of int, shape (dim, 2)
        Point of every dof on the half-step grid, ``2 x / h``.
    interior : ndarray, shape (n_elements, k)
        The dofs at each element's centre, which no other element shares.
    dof_point : ndarray, shape (dim, 2)
        Collocation point of each degree-of-freedom functional.
    quad : QuadKernel
        The composite-rule kernel, built on first use and kept with the space.
    """

    def __init__(self, mesh: StructuredMesh, family: str):
        _check_family(family)
        self.mesh = mesh
        self.family = family
        self.table = LOCAL_DOFS[family]
        self.n_local = len(self.table)
        self.lumped = all(d in _CORNERS for _, d in self.table)
        nx, ny = mesh.nx, mesh.ny
        # A dof's block is its component and its sublattice (2i + ox, 2j + oy).
        blocks = [(c, (1 + dx) % 2, (1 + dy) % 2) for c, (dx, dy) in self.table]
        order = list(dict.fromkeys(blocks))
        width = {b: nx + 1 - b[1] for b in order}
        size = [width[b] * (ny + 1 - b[2]) for b in order]
        start = dict(zip(order, np.cumsum([0] + size).tolist()))
        self.dim = sum(size)
        self._blocks = [
            (c, (ox, oy), slice(start[c, ox, oy], start[c, ox, oy] + n))
            for (c, ox, oy), n in zip(order, size)
        ]
        self.grid = np.concatenate(
            [2 * np.indices((ny + 1 - oy, nx + 1 - ox))[::-1].reshape(2, -1) + [[ox], [oy]]
             for _, ox, oy in order],
            axis=1,
        ).T.copy()
        # Element e = j nx + i lies at j w + i = e + j (w - nx) in a block of
        # width w; its dof at offset (dx, dy) is one column right for dx > 0
        # and one row up for dy > 0.  In place, to spare the temporaries.
        e = np.arange(mesh.n_elements)
        self.eldof = (e // nx)[:, None] * np.array([width[b] - nx for b in blocks])
        self.eldof += e[:, None]
        self.eldof += [
            start[b] + (dx > 0) + (dy > 0) * width[b]
            for b, (_, (dx, dy)) in zip(blocks, self.table)
        ]
        self._centre = [l for l, (_, d) in enumerate(self.table) if d == (0, 0)]
        self.interior = self.eldof[:, self._centre]

    @property
    def dof_point(self) -> np.ndarray:
        """Physical point of every dof, ``(h/2) grid``."""
        m = self.mesh
        return (0.5 * np.array([m.hx, m.hy])) * self.grid

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
        sx, sy = 2.0 / self.mesh.hx, 2.0 / self.mesh.hy
        out = np.zeros(xi.shape + (self.n_local, 2))
        for l, (c, _, d_xi, d_eta) in enumerate(self._basis(xi, eta)):
            grad = (sx * d_xi, sy * d_eta)
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
                p = points[dofs]
                v = values[lattice] = np.asarray(field(p[:, 0], p[:, 1]), float)
                if v.shape != (len(p), 3):
                    raise ValueError(f"stress field returned shape {v.shape}")
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
    """Element-wise vector velocity space partnered with one stress family."""

    def __init__(self, mesh: StructuredMesh, family: str):
        _check_family(family)
        self.mesh = mesh
        self.family = family
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

    def project(self, field) -> np.ndarray:
        """Element-local L2 projection of ``field(x, y) -> (..., 2)``.

        The local basis is L2-orthogonal on every element, so the projection
        is the load of the field divided by the diagonal of the local mass.
        """
        q = self.quad
        fv = np.asarray(field(q.x, q.y), float)
        if fv.shape != q.x.shape + (2,):
            raise ValueError(f"velocity field returned shape {fv.shape}")
        mass = np.einsum("lk,kl->l", q.basis, q.weighted)
        return (fv.reshape(len(fv), -1) @ q.weighted / mass).ravel()
