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

Degrees of freedom are collocation values: vertex values, edge-midpoint
values, and for the ``hmz`` interior degree of freedom the center value
minus the mean of the two edge values (the coefficient of the quadratic
bubble ``1 - xi^2``).  Stress coefficients follow these collocation
functionals; velocity coefficients come from element-local L2 projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import StructuredMesh
from .quadrature import COMPOSITE

__all__ = [
    "NEDELEC",
    "HMZ",
    "FAMILIES",
    "QuadKernel",
    "quad_kernel",
    "StressSpace",
    "VelocitySpace",
]

NEDELEC = "nedelec-q1q0"
HMZ = "hmz"
FAMILIES = (NEDELEC, HMZ)


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown element family {family!r}; expected one of {FAMILIES}")


def _hats(xi, eta):
    """Bilinear hats at the four corners, counterclockwise from lower left."""
    return 0.25 * np.stack(
        [
            (1.0 - xi) * (1.0 - eta),
            (1.0 + xi) * (1.0 - eta),
            (1.0 + xi) * (1.0 + eta),
            (1.0 - xi) * (1.0 + eta),
        ],
        axis=-1,
    )


def _hats_dxi(xi, eta):
    del xi
    return 0.25 * np.stack(
        [-(1.0 - eta), (1.0 - eta), (1.0 + eta), -(1.0 + eta)], axis=-1
    )


def _hats_deta(xi, eta):
    del eta
    return 0.25 * np.stack(
        [-(1.0 - xi), -(1.0 + xi), (1.0 + xi), (1.0 - xi)], axis=-1
    )


@dataclass(frozen=True)
class QuadKernel:
    """The composite degree-5 rule on every element, with the local basis there.

    ``x`` and ``y`` are the physical points, shape (n_elements, nq), read-only
    so that field evaluators may keep values computed on them;
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
    centers = mesh.element_centers()
    x = centers[:, 0, None] + (0.5 * mesh.hx) * points[:, 0]
    y = centers[:, 1, None] + (0.5 * mesh.hy) * points[:, 1]
    x.flags.writeable = y.flags.writeable = False
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
    dim : int
        Number of global degrees of freedom.
    n_local : int
        Degrees of freedom per element (12 for ``nedelec-q1q0``, 10 for ``hmz``).
    eldof : ndarray, shape (n_elements, n_local)
        Local-to-global index map.
    dof_kind : ndarray of str, shape (dim,)
        ``vertex``, ``edge``, or ``interior``.
    dof_point : ndarray, shape (dim, 2)
        Collocation point of each degree-of-freedom functional.
    quad : QuadKernel
        The composite-rule kernel, built on first use and kept with the space.
    """

    def __init__(self, mesh: StructuredMesh, family: str):
        _check_family(family)
        self.mesh = mesh
        self.family = family
        nx, ny = mesh.nx, mesh.ny
        nv = mesh.n_vertices
        if family == NEDELEC:
            self.n_local = 12
            self.dim = 3 * nv
            self.eldof = np.concatenate(
                [mesh.elem_vertices + c * nv for c in range(3)], axis=1
            )
            self.dof_kind = np.full(self.dim, "vertex")
            self.dof_point = np.tile(mesh.vertex_coords, (3, 1))
        else:
            nve = mesh.n_vertical_edges
            nhe = mesh.n_horizontal_edges
            ne = mesh.n_elements
            off_bub11 = nve
            off_edge22 = off_bub11 + ne
            off_bub22 = off_edge22 + nhe
            off_shear = off_bub22 + ne
            self.n_local = 10
            self.dim = off_shear + nv
            eid = np.arange(ne)
            vedge = mesh.elem_edges[:, :2]
            hedge = mesh.elem_edges[:, 2:] - nve
            self.eldof = np.column_stack(
                [
                    vedge[:, 0],
                    vedge[:, 1],
                    off_bub11 + eid,
                    off_edge22 + hedge[:, 0],
                    off_edge22 + hedge[:, 1],
                    off_bub22 + eid,
                    off_shear + mesh.elem_vertices,
                ]
            )
            self.dof_kind = np.concatenate(
                [
                    np.full(nve, "edge"),
                    np.full(ne, "interior"),
                    np.full(nhe, "edge"),
                    np.full(ne, "interior"),
                    np.full(nv, "vertex"),
                ]
            )
            centers = mesh.element_centers()
            self.dof_point = np.vstack(
                [
                    self._vertical_midpoints(),
                    centers,
                    self._horizontal_midpoints(),
                    centers,
                    mesh.vertex_coords,
                ]
            )

    def _vertical_midpoints(self):
        m = self.mesh
        iv, jv = np.meshgrid(np.arange(m.nx + 1), np.arange(m.ny))
        return np.column_stack(
            [
                m.bounds[0] + m.hx * iv.ravel(),
                m.bounds[1] + m.hy * (jv.ravel() + 0.5),
            ]
        )

    def _horizontal_midpoints(self):
        m = self.mesh
        ih, jh = np.meshgrid(np.arange(m.nx), np.arange(m.ny + 1))
        return np.column_stack(
            [
                m.bounds[0] + m.hx * (ih.ravel() + 0.5),
                m.bounds[1] + m.hy * jh.ravel(),
            ]
        )

    def local_values(self, xi, eta) -> np.ndarray:
        """Local basis values at (xi, eta); shape broadcast(xi, eta) + (n_local, 3)."""
        xi, eta = np.broadcast_arrays(np.asarray(xi, float), np.asarray(eta, float))
        out = np.zeros(xi.shape + (self.n_local, 3))
        hats = _hats(xi, eta)
        if self.family == NEDELEC:
            out[..., 0:4, 0] = hats
            out[..., 4:8, 1] = hats
            out[..., 8:12, 2] = hats
        else:
            out[..., 0, 0] = 0.5 * (1.0 - xi)
            out[..., 1, 0] = 0.5 * (1.0 + xi)
            out[..., 2, 0] = 1.0 - xi * xi
            out[..., 3, 1] = 0.5 * (1.0 - eta)
            out[..., 4, 1] = 0.5 * (1.0 + eta)
            out[..., 5, 1] = 1.0 - eta * eta
            out[..., 6:10, 2] = hats
        return out

    def local_divergence(self, xi, eta) -> np.ndarray:
        """Physical divergence of the local basis; shape broadcast + (n_local, 2)."""
        xi, eta = np.broadcast_arrays(np.asarray(xi, float), np.asarray(eta, float))
        sx = 2.0 / self.mesh.hx
        sy = 2.0 / self.mesh.hy
        out = np.zeros(xi.shape + (self.n_local, 2))
        dx = sx * _hats_dxi(xi, eta)
        dy = sy * _hats_deta(xi, eta)
        if self.family == NEDELEC:
            out[..., 0:4, 0] = dx
            out[..., 4:8, 1] = dy
            out[..., 8:12, 0] = dy
            out[..., 8:12, 1] = dx
        else:
            out[..., 0, 0] = -0.5 * sx
            out[..., 1, 0] = 0.5 * sx
            out[..., 2, 0] = -2.0 * xi * sx
            out[..., 3, 1] = -0.5 * sy
            out[..., 4, 1] = 0.5 * sy
            out[..., 5, 1] = -2.0 * eta * sy
            out[..., 6:10, 0] = dy
            out[..., 6:10, 1] = dx
        return out

    def interpolate(self, field) -> np.ndarray:
        """Coefficients of the collocation interpolant of ``field(x, y) -> (..., 3)``."""
        m = self.mesh
        vv = np.asarray(field(m.vertex_coords[:, 0], m.vertex_coords[:, 1]), float)
        if vv.shape != (m.n_vertices, 3):
            raise ValueError(f"stress field returned shape {vv.shape}")
        if self.family == NEDELEC:
            return np.concatenate([vv[:, 0], vv[:, 1], vv[:, 2]])
        vm = self._vertical_midpoints()
        hm = self._horizontal_midpoints()
        cc = m.element_centers()
        f_vm = np.asarray(field(vm[:, 0], vm[:, 1]), float)
        f_hm = np.asarray(field(hm[:, 0], hm[:, 1]), float)
        f_cc = np.asarray(field(cc[:, 0], cc[:, 1]), float)
        left = self.mesh.elem_edges[:, 0]
        right = self.mesh.elem_edges[:, 1]
        bottom = self.mesh.elem_edges[:, 2] - m.n_vertical_edges
        top = self.mesh.elem_edges[:, 3] - m.n_vertical_edges
        bub11 = f_cc[:, 0] - 0.5 * (f_vm[left, 0] + f_vm[right, 0])
        bub22 = f_cc[:, 1] - 0.5 * (f_hm[bottom, 1] + f_hm[top, 1])
        return np.concatenate([f_vm[:, 0], bub11, f_hm[:, 1], bub22, vv[:, 2]])


class VelocitySpace(_Space):
    """Element-wise vector velocity space partnered with one stress family."""

    def __init__(self, mesh: StructuredMesh, family: str):
        _check_family(family)
        self.mesh = mesh
        self.family = family
        ne = mesh.n_elements
        self.n_local = 2 if family == NEDELEC else 4
        self.dim = self.n_local * ne
        self.eldof = self.n_local * np.arange(ne)[:, None] + np.arange(self.n_local)

    def local_values(self, xi, eta) -> np.ndarray:
        """Local basis values at (xi, eta); shape broadcast(xi, eta) + (n_local, 2)."""
        xi, eta = np.broadcast_arrays(np.asarray(xi, float), np.asarray(eta, float))
        out = np.zeros(xi.shape + (self.n_local, 2))
        if self.family == NEDELEC:
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
        else:
            out[..., 0, 0] = 1.0
            out[..., 1, 0] = xi
            out[..., 2, 1] = 1.0
            out[..., 3, 1] = eta
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
