"""Error norms, convergence rates, discrete energy, and a pairing diagnostic.

Norms: the stress error is measured in the compliance-weighted a-norm
``||tau||_a^2 = int Cinv tau : tau`` and the velocity error in the
density-weighted c-norm ``||w||_c^2 = int rho w . w``, both integrated
with the composite degree-5 rule regardless of any lumping used by the
scheme itself.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .assembly import (
    assemble_coupling,
    assemble_div_gram,
    assemble_stress_gram,
    assemble_velocity_gram,
)
from .fespace import StressSpace, VelocitySpace
from .material import VOIGT_DOT, IsotropicMaterial
from .mesh import StructuredMesh

__all__ = [
    "StressErrorEvaluator",
    "VelocityErrorEvaluator",
    "check_study_parameters",
    "convergence_orders",
    "energy",
    "infsup_constants",
]

class _ErrorEvaluator:
    """Weighted L2 distance between a coefficient field and a reference field.

    ``weight`` is the (d, d) pointwise weight of the norm; it is tiled with
    the quadrature weights into one (nq * d, nq * d) matrix per element.
    """

    def __init__(self, space, weight):
        self.space = space
        self.quad = space.quad
        self.weight = np.kron(np.diag(self.quad.weights), weight)

    def __call__(self, coeffs, field, t: float) -> float:
        q = self.quad
        diff = np.asarray(coeffs, float)[self.space.eldof] @ q.basis
        diff -= np.asarray(field(q.x, q.y, t), float).reshape(diff.shape)
        val = np.vdot(diff @ self.weight, diff)
        return float(np.sqrt(max(val, 0.0)))


class StressErrorEvaluator(_ErrorEvaluator):
    """a-norm distance between a coefficient field and a reference tensor field."""

    def __init__(self, space: StressSpace, material: IsotropicMaterial):
        super().__init__(space, VOIGT_DOT @ material.compliance_matrix())


class VelocityErrorEvaluator(_ErrorEvaluator):
    """c-norm distance between a coefficient field and a reference vector field."""

    def __init__(self, space: VelocitySpace, material: IsotropicMaterial):
        super().__init__(space, material.rho * np.eye(2))


def check_study_parameters(params) -> list[float]:
    """A refinement study's parameters: at least two, positive, strictly increasing."""
    params = [float(p) for p in params]
    if len(params) < 2 or not (
        params[0] > 0.0 and all(b > a for a, b in zip(params, params[1:]))
    ):
        raise ValueError(
            "a refinement study needs at least two positive, strictly increasing "
            f"parameters, got {params}"
        )
    return params


def convergence_orders(pairs) -> list[float]:
    """Observed orders log(e_i/e_{i+1}) / log(p_{i+1}/p_i) for (param, error) pairs."""
    pairs = list(pairs)
    params = np.array(check_study_parameters(p for p, _ in pairs))
    errors = np.array([float(e) for _, e in pairs])
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(params[1:] / params[:-1]))


def energy(system, state) -> float:
    """Discrete energy ||sigma_h||_a^2 + ||v_h||_c^2 using the scheme's matrices."""
    a, b = state.alpha, state.beta
    return float(a @ (system.A @ a) + b @ (system.C @ b))


def _infsup_constant(stress_space, velocity_space) -> float:
    """Smallest generalized singular value of the pairing, dense computation."""
    B = assemble_coupling(stress_space, velocity_space)
    X = (assemble_stress_gram(stress_space) + assemble_div_gram(stress_space)).toarray()
    Gv = assemble_velocity_gram(velocity_space).toarray()
    Bd = B.toarray()
    K = Bd @ np.linalg.solve(X, Bd.T)
    evals = scipy.linalg.eigh(K, Gv, eigvals_only=True)
    return float(np.sqrt(max(evals[0], 0.0)))


def infsup_constants(family: str, mesh_sizes, max_n: int = 8) -> list[float]:
    """Discrete pairing constants on n-by-n unit meshes (dense; n capped).

    The constant is min over velocities of max over stresses of
    ``b(w, tau) / (||tau||_div ||w||_0)``; mesh sizes above ``max_n`` are
    rejected because the computation is dense.
    """
    out = []
    for n in mesh_sizes:
        if n > max_n:
            raise ValueError(f"mesh size {n} exceeds the dense-computation cap {max_n}")
        mesh = StructuredMesh(n, n)
        out.append(
            _infsup_constant(StressSpace(mesh, family), VelocitySpace(mesh, family))
        )
    return out
