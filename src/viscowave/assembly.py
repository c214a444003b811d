"""Sparse assembly of the bilinear forms on uniform meshes.

Every element of the uniform N-by-N mesh is congruent, so each form is
integrated once with a reference-square rule scaled to the element area,
and the local matrix is scattered with duplicate accumulation.  Matrices come
back in CSR format with sorted, deduplicated indices; assembly order is
deterministic.  A system's ``elements`` holds the element matrices of A, B
and C; a run scatters A and B from them only at the rows it reads
(``AssembledSystem.at_rows``), each kept row array-equal to the full
matrix's, and inverts C from its element matrix alone.  Only checks build
the full-size B (``assemble_coupling``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fespace import StressSpace, VelocitySpace
from .linalg import block_diag_csr
from .material import VOIGT_DOT, IsotropicMaterial
from .quadrature import COMPOSITE, CORNERS

__all__ = [
    "AssembledSystem",
    "assemble_mass_stress",
    "assemble_stress_gram",
    "assemble_div_gram",
    "assemble_coupling",
    "assemble_velocity_gram",
    "assemble_load",
    "assemble_system",
]

log = logging.getLogger(__name__)


def _local_rule(mesh, lumped=False):
    """Element weights and local coordinates of the composite or corner rule."""
    points, weights = CORNERS if lumped else COMPOSITE
    return mesh.h * mesh.h * weights, points[:, 0], points[:, 1]


def _scatter(local, row_dofs, col_dofs, shape, rows=None):
    """Scatter the nonzero entries of one local matrix onto every element.

    The exact zeros of ``local`` would add nothing to any sum, so they are
    not scattered.  The result is copied once after the sums that cancel are
    dropped: scipy keeps the buffer sized for every sum whenever more than
    half of it is used, and a run keeps A's and B's rows through its set-up.

    With ``rows`` (ascending) only those rows are assembled and every other
    one is left empty: only the elements that touch them are scattered, in
    element order, and only the triplets in those rows are kept.  Each row
    then sums the same triplets in the same order as the full matrix's row,
    and ``coo -> csr`` orders and sums a row's duplicates from that row's
    triplets alone, so each kept row is array-equal to the full matrix's.
    """
    r, c = np.nonzero(local)
    if rows is not None:
        kept = np.zeros(shape[0], dtype=bool)
        kept[rows] = True
        touch = kept[row_dofs].any(axis=1)
        row_dofs, col_dofs = row_dofs[touch], col_dofs[touch]
    i = row_dofs.astype(np.int32)[:, r].ravel()
    j = col_dofs.astype(np.int32)[:, c].ravel()
    data = np.tile(local[r, c], len(row_dofs))
    if rows is not None:
        keep = kept[i]
        i, j, data = i[keep], j[keep], data[keep]
    out = sp.coo_matrix((data, (i, j)), shape=shape).tocsr()
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


def _stress_local(space, weight3, lumped=False):
    w, xi, eta = _local_rule(space.mesh, lumped)
    vals = space.local_values(xi, eta)
    return np.einsum("qia,ab,qjb,q->ij", vals, VOIGT_DOT @ weight3, vals, w)


def _square(local, space):
    return _scatter(local, space.eldof, space.eldof, (space.dim, space.dim))


def _local_mass_stress(space, material):
    """The element matrix of ``assemble_mass_stress``, the same on every element."""
    return _stress_local(space, material.compliance_matrix(), space.lumped)


def assemble_mass_stress(space: StressSpace, material: IsotropicMaterial) -> sp.csr_matrix:
    """Compliance-weighted stress mass matrix, corner-lumped when the family is.

    The family lumps when all its dofs sit at corners (``space.lumped``, so
    ``nedelec-q1q0``), which gives 3x3 blocks per vertex.
    """
    return _square(_local_mass_stress(space, material), space)


def assemble_stress_gram(space: StressSpace) -> sp.csr_matrix:
    """Plain L2 Gram matrix of the stress space under the tensor dot product."""
    return _square(_stress_local(space, np.eye(3)), space)


def assemble_div_gram(space: StressSpace) -> sp.csr_matrix:
    """Gram matrix of stress divergences, int div(tau_j) . div(tau_i)."""
    w, xi, eta = _local_rule(space.mesh)
    div = space.local_divergence(xi, eta)
    return _square(np.einsum("qid,qjd,q->ij", div, div, w), space)


def _local_coupling(stress_space, velocity_space):
    """The element matrix of ``assemble_coupling``, the same on every element."""
    _check_pair(stress_space, velocity_space)
    w, xi, eta = _local_rule(stress_space.mesh)
    div = stress_space.local_divergence(xi, eta)
    vel = velocity_space.local_values(xi, eta)
    return np.einsum("qid,qjd,q->ij", vel, div, w)


def assemble_coupling(stress_space: StressSpace, velocity_space: VelocitySpace) -> sp.csr_matrix:
    """Coupling matrix B with B[i, j] = int w_i . div(tau_j)."""
    ss, vs = stress_space, velocity_space
    return _scatter(_local_coupling(ss, vs), vs.eldof, ss.eldof, (vs.dim, ss.dim))


def _local_velocity_gram(space):
    w, xi, eta = _local_rule(space.mesh)
    vals = space.local_values(xi, eta)
    return np.einsum("qid,qjd,q->ij", vals, vals, w)


def assemble_velocity_gram(space: VelocitySpace) -> sp.csr_matrix:
    """Plain L2 Gram matrix of the velocity space, tiled: its dofs go element by element."""
    return block_diag_csr(_local_velocity_gram(space)[None], space.mesh.n_elements)


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
    """The semidiscrete system of a matched space pair and one material.

    A is the compliance-weighted stress mass matrix (corner-lumped when the
    stress space's ``lumped`` is set), B the velocity-against-stress-
    divergence coupling and C the density-weighted velocity mass matrix.
    ``elements`` holds the element matrices of A, B and C, the same on every
    element.

    A run reads A and B only at some rows, ``at_rows``, scattered from
    ``elements``: the stress solve's S (``linalg.build_schur``) and the
    stepper's folds (``CNStepper``) are formed from them, and their symmetry
    is checked on ``elements``.  C is block diagonal by element, so it is
    never assembled: its inverse is tiled from the inverse of its element
    matrix (``linalg.block_diag_inverse``), once for S and once for the
    stepper.  The energy takes the norms of A and C element by element
    (``stress_energy`` and ``velocity_energy``).  ``A`` is assembled on
    first read, for checks made from outside a run; a run never forms it.
    Only checks build the full-size B (``assemble_coupling``).
    """

    stress_space: StressSpace
    velocity_space: VelocitySpace
    material: IsotropicMaterial

    @cached_property
    def elements(self) -> tuple:
        """The element matrices of A, B and C; C is block diagonal by element,
        so each entry of its element matrix is one of C's."""
        ss, vs, material = self.stress_space, self.velocity_space, self.material
        return (
            _local_mass_stress(ss, material),
            _local_coupling(ss, vs),
            material.rho * _local_velocity_gram(vs),
        )

    @cached_property
    def A(self) -> sp.csr_matrix:
        return assemble_mass_stress(self.stress_space, self.material)

    @cached_property
    def at_rows(self) -> tuple:
        """A and B at the rows that ``build_schur`` and ``CNStepper`` read, every
        other row empty, each kept row array-equal to the full matrix's.

        A's rows are the stress fold's representatives.  B's are every
        velocity dof of an element that holds one of them, all that B^T's
        rows there and B^T Cinv B reach, and the velocity fold's
        representatives.  With the trivial group every row is kept.  Each is
        scattered from ``elements``.  A run drops them once the stepper has
        folded them.
        """
        ss, vs = self.stress_space, self.velocity_space
        is_rep = np.zeros(ss.dim, dtype=bool)
        is_rep[ss.fold.reps] = True
        holders = is_rep[ss.eldof].any(axis=1)
        wanted = np.zeros(vs.dim, dtype=bool)
        wanted[vs.eldof[holders]] = True
        wanted[vs.fold.reps] = True
        rows = np.flatnonzero(wanted)
        local_A, local_B, _ = self.elements
        A = _scatter(local_A, ss.eldof, ss.eldof, (ss.dim, ss.dim), ss.fold.reps)
        B = _scatter(local_B, vs.eldof, ss.eldof, (vs.dim, ss.dim), rows)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "assembled A at %d of %d rows and B at %d of %d rows, from %d and %d of %d "
                "elements",
                len(ss.fold.reps), ss.dim, len(rows), vs.dim, np.count_nonzero(holders),
                np.count_nonzero(wanted[vs.eldof].any(axis=1)), ss.mesh.n_elements,
            )
        return A, B

    def stress_energy(self, alpha) -> float:
        """alpha^T A alpha, summed element by element with A's element matrix."""
        a = alpha[self.stress_space.eldof]
        return float(np.vdot(a @ self.elements[0], a))

    def velocity_energy(self, beta) -> float:
        """beta^T C beta, summed element by element with C's element matrix."""
        b = beta[self.velocity_space.eldof]
        return float(np.vdot(b @ self.elements[2], b))


def assemble_system(
    stress_space: StressSpace,
    velocity_space: VelocitySpace,
    material: IsotropicMaterial,
) -> AssembledSystem:
    """The system of a matched space pair; the family decides the lumping.

    No matrix is assembled here; each is assembled where it is read
    (``AssembledSystem``).
    """
    _check_pair(stress_space, velocity_space)
    return AssembledSystem(stress_space, velocity_space, material)
