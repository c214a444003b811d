"""Pointwise field and basis evaluation, rule application and einsum references.

The solver itself works with whole-mesh basis tables; these helpers evaluate
one element at a time so the tests can check the tables point by point.
``einsum_load`` and ``einsum_error`` are the load and error-norm formulas
written as single einsums over all elements, the references the solver's
matrix-product kernels are checked against.
"""

import numpy as np

from viscowave.fespace import StressSpace, VelocitySpace
from viscowave.material import VoigtTensor
from viscowave.mesh import StructuredMesh
from viscowave.quadrature import QuadratureRule, rect_rule


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


def _element_rule(space):
    """Composite-rule weights, local basis values and physical points of every element."""
    mesh = space.mesh
    rect = mesh.element_rect(0)
    rule = rect_rule(rect)
    cx, cy = rect.center
    xi = (rule.points[:, 0] - cx) / (0.5 * rect.hx)
    eta = (rule.points[:, 1] - cy) / (0.5 * rect.hy)
    points = mesh.element_centers()[:, None, :] + (rule.points - np.asarray(rect.center))
    return rule.weights, space.local_values(xi, eta), points


def einsum_load(space: VelocitySpace, f, t) -> np.ndarray:
    """Reference load vector F[i] = int f . w_i, by one einsum over all elements."""
    w, vals, pts = _element_rule(space)
    fv = np.asarray(f(pts[..., 0], pts[..., 1], t), float)
    local = np.einsum("eqd,qld,q->el", fv, vals, w)
    return np.bincount(space.eldof.ravel(), weights=local.ravel(), minlength=space.dim)


def einsum_error(space, weight, coeffs, field, t) -> float:
    """Reference weighted L2 distance between a coefficient field and ``field``.

    ``weight`` is the pointwise (d, d) weight: the Voigt-dot compliance for
    the stress a-norm, ``rho * I`` for the velocity c-norm.
    """
    w, vals, pts = _element_rule(space)
    field_h = np.einsum("qla,el->eqa", vals, np.asarray(coeffs, float)[space.eldof])
    diff = field_h - np.asarray(field(pts[..., 0], pts[..., 1], t), float)
    val = np.einsum("eqa,ab,eqb,q->", diff, weight, diff, w)
    return float(np.sqrt(max(val, 0.0)))
