"""Sparse assembly of the bilinear forms on uniform meshes.

Every element of the uniform N-by-N mesh is congruent, so each form is
integrated once with a reference-square rule scaled to the element area,
and the local matrix is scattered with duplicate accumulation.  Matrices come
back in CSR format with sorted, deduplicated indices; assembly order is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import StressSpace, VelocitySpace
from .material import VOIGT_DOT, IsotropicMaterial
from .quadrature import COMPOSITE, CORNERS

__all__ = [
    "AssembledSystem",
    "assemble_mass_stress",
    "assemble_stress_gram",
    "assemble_div_gram",
    "assemble_coupling",
    "assemble_mass_velocity",
    "assemble_velocity_gram",
    "assemble_load",
    "assemble_system",
]

def _local_rule(mesh, lumped=False):
    """Element weights and local coordinates of the composite or corner rule."""
    points, weights = CORNERS if lumped else COMPOSITE
    return mesh.h * mesh.h * weights, points[:, 0], points[:, 1]


def _scatter(local, row_dofs, col_dofs, shape):
    """Scatter the nonzero entries of one local matrix onto every element.

    The exact zeros of ``local`` would add nothing to any sum, so they are
    not scattered.  The result is copied once after the sums that cancel are
    dropped: scipy keeps the buffer sized for every sum whenever more than
    half of it is used, and a run keeps C to its end and A and B through
    its set-up.
    """
    r, c = np.nonzero(local)
    rows = row_dofs.astype(np.int32)[:, r].ravel()
    cols = col_dofs.astype(np.int32)[:, c].ravel()
    data = np.tile(local[r, c], len(row_dofs))
    out = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    out.eliminate_zeros()
    return out.copy()


def _check_pair(stress_space, velocity_space):
    if stress_space.family != velocity_space.family:
        raise ValueError(
            f"mismatched element families {stress_space.family!r} and "
            f"{velocity_space.family!r}"
        )
    if stress_space.mesh.n != velocity_space.mesh.n:
        raise ValueError("stress and velocity spaces live on different meshes")


def _stress_gram(space, weight3, lumped=False):
    w, xi, eta = _local_rule(space.mesh, lumped)
    vals = space.local_values(xi, eta)
    local = np.einsum("qia,ab,qjb,q->ij", vals, VOIGT_DOT @ weight3, vals, w)
    n = space.dim
    return _scatter(local, space.eldof, space.eldof, (n, n))


def assemble_mass_stress(space: StressSpace, material: IsotropicMaterial) -> sp.csr_matrix:
    """Compliance-weighted stress mass matrix, corner-lumped when the family is.

    The family lumps when all its dofs sit at corners (``space.lumped``, so
    ``nedelec-q1q0``), which gives 3x3 blocks per vertex.
    """
    return _stress_gram(space, material.compliance_matrix(), space.lumped)


def assemble_stress_gram(space: StressSpace) -> sp.csr_matrix:
    """Plain L2 Gram matrix of the stress space under the tensor dot product."""
    return _stress_gram(space, np.eye(3))


def assemble_div_gram(space: StressSpace) -> sp.csr_matrix:
    """Gram matrix of stress divergences, int div(tau_j) . div(tau_i)."""
    w, xi, eta = _local_rule(space.mesh)
    div = space.local_divergence(xi, eta)
    local = np.einsum("qid,qjd,q->ij", div, div, w)
    n = space.dim
    return _scatter(local, space.eldof, space.eldof, (n, n))


def assemble_coupling(
    stress_space: StressSpace, velocity_space: VelocitySpace
) -> sp.csr_matrix:
    """Coupling matrix B with B[i, j] = int w_i . div(tau_j)."""
    _check_pair(stress_space, velocity_space)
    w, xi, eta = _local_rule(stress_space.mesh)
    div = stress_space.local_divergence(xi, eta)
    vel = velocity_space.local_values(xi, eta)
    local = np.einsum("qid,qjd,q->ij", vel, div, w)
    return _scatter(
        local,
        velocity_space.eldof,
        stress_space.eldof,
        (velocity_space.dim, stress_space.dim),
    )


def assemble_mass_velocity(
    space: VelocitySpace, material: IsotropicMaterial
) -> sp.csr_matrix:
    """Density-weighted velocity mass matrix (block diagonal by element)."""
    return material.rho * assemble_velocity_gram(space)


def assemble_velocity_gram(space: VelocitySpace) -> sp.csr_matrix:
    """Plain L2 Gram matrix of the velocity space."""
    w, xi, eta = _local_rule(space.mesh)
    vals = space.local_values(xi, eta)
    local = np.einsum("qid,qjd,q->ij", vals, vals, w)
    n = space.dim
    return _scatter(local, space.eldof, space.eldof, (n, n))


def assemble_load(space: VelocitySpace, f, t: float) -> np.ndarray:
    """Load vector F[i] = int f(x, y, t) . w_i.

    ``f`` must vectorize over coordinate arrays, return vectors in the last
    axis and have the space's symmetry (``space.group``).  Velocity dofs are
    numbered element by element, so nothing is scattered: the element loads
    of the kernel's representatives are spread to every element
    (``VelocitySpace.spread``).
    """
    q = space.quad
    return space.spread(q.values(f, t) @ q.weighted)


@dataclass
class AssembledSystem:
    """The three matrices of the semidiscrete system plus their spaces.

    ``A`` is the compliance-weighted stress mass matrix (corner-lumped when
    the stress space's ``lumped`` is set), ``B`` the
    velocity-against-stress-divergence coupling, and ``C`` the
    density-weighted velocity mass matrix.  ``material`` is the one they
    were assembled with, ``None`` for a system built by hand.

    A system that knows its material can ``release`` A and B: a run keeps
    only their folds past node 0, and the full-size pair would otherwise
    sit through the first factor, which sets the run's peak memory.  A read
    of a released A or B assembles it again, bit for bit, and keeps it.  C
    stays, as the energy of every node reads it.
    """

    stress_space: StressSpace
    velocity_space: VelocitySpace
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    material: IsotropicMaterial | None = None

    def release(self) -> list:
        """Drop A and B if ``material`` can assemble them again; the (nnz,
        bytes) of each one dropped, none for a system built by hand."""
        if self.material is None:
            return []
        sizes = [
            (M.nnz, M.data.nbytes + M.indices.nbytes + M.indptr.nbytes) for M in (self.A, self.B)
        ]
        del self.A, self.B
        return sizes

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: a released A or B.
        if name == "A":
            value = assemble_mass_stress(self.stress_space, self.material)
        elif name == "B":
            value = assemble_coupling(self.stress_space, self.velocity_space)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, value)
        return value


def assemble_system(
    stress_space: StressSpace,
    velocity_space: VelocitySpace,
    material: IsotropicMaterial,
) -> AssembledSystem:
    """Assemble A, B, C for a matched space pair; the family decides the lumping."""
    _check_pair(stress_space, velocity_space)
    return AssembledSystem(
        stress_space=stress_space,
        velocity_space=velocity_space,
        A=assemble_mass_stress(stress_space, material),
        B=assemble_coupling(stress_space, velocity_space),
        C=assemble_mass_velocity(velocity_space, material),
        material=material,
    )
