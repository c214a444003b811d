"""Pointwise field and basis evaluation and rule application, used by the tests.

The solver itself works with whole-mesh basis tables; these helpers evaluate
one element at a time so the tests can check the tables point by point.
"""

import numpy as np

from viscowave.fespace import StressSpace, VelocitySpace
from viscowave.material import VoigtTensor
from viscowave.mesh import StructuredMesh
from viscowave.quadrature import QuadratureRule


def local_coords(mesh: StructuredMesh, elem, x, y):
    """Map physical coordinates to (xi, eta) in [-1, 1]^2 on element ``elem``."""
    rect = mesh.element_rect(elem)
    cx, cy = rect.center
    return (np.asarray(x, float) - cx) / (0.5 * rect.hx), (np.asarray(y, float) - cy) / (
        0.5 * rect.hy
    )


def eval_stress(space: StressSpace, coeffs, elem, xi, eta) -> np.ndarray:
    """Stress field of a coefficient vector on element ``elem`` at local coords."""
    vals = space.local_values(xi, eta)
    c = np.asarray(coeffs, float)[space.eldof[elem]]
    return np.einsum("...la,l->...a", vals, c)


def eval_velocity(space: VelocitySpace, coeffs, elem, xi, eta) -> np.ndarray:
    """Velocity field of a coefficient vector on element ``elem`` at local coords."""
    vals = space.local_values(xi, eta)
    c = np.asarray(coeffs, float)[space.eldof[elem]]
    return np.einsum("...ld,l->...d", vals, c)


def _local_point(space, elem, ldof, x, y):
    if not 0 <= elem < space.mesh.n_elements:
        raise ValueError(f"element id {elem} out of range")
    if not 0 <= ldof < space.n_local:
        raise ValueError(f"local dof {ldof} out of range for {space.family}")
    xi, eta = local_coords(space.mesh, elem, x, y)
    if abs(xi) > 1.0 + 1e-12 or abs(eta) > 1.0 + 1e-12:
        raise ValueError(f"point ({x}, {y}) lies outside element {elem}")
    return xi, eta


def stress_basis_value(space: StressSpace, elem, ldof, x, y) -> VoigtTensor:
    """Value of one local stress basis function at a physical point of its element."""
    xi, eta = _local_point(space, elem, ldof, x, y)
    return VoigtTensor(*space.local_values(xi, eta)[ldof])


def stress_basis_divergence(space: StressSpace, elem, ldof, x, y) -> np.ndarray:
    """Divergence of one local stress basis function at a physical point."""
    xi, eta = _local_point(space, elem, ldof, x, y)
    return space.local_divergence(xi, eta)[ldof]


def velocity_basis_value(space: VelocitySpace, elem, ldof, x, y) -> np.ndarray:
    """Value of one local velocity basis function at a physical point."""
    xi, eta = _local_point(space, elem, ldof, x, y)
    return space.local_values(xi, eta)[ldof]


def integrate(rule: QuadratureRule, f) -> float:
    """Apply the rule to ``f(x, y)``; ``f`` must vectorize over coordinate arrays."""
    vals = np.asarray(f(rule.points[:, 0], rule.points[:, 1]), dtype=float)
    if vals.shape != rule.weights.shape:
        raise ValueError(f"integrand returned shape {vals.shape}, expected {rule.weights.shape}")
    return float(rule.weights @ vals)
