"""Pointwise field and basis evaluation, rule application and reference formulas.

Voigt-triple algebra (``VoigtTensor``, ``voigt_inner``, ``apply_compliance``,
``compliance_bounds``) and mesh index helpers (``vertex_index``,
``element_index``) are used only here and by the tests.

The solver itself works with whole-mesh basis tables; these helpers evaluate
one element at a time so the tests can check the tables point by point.
``einsum_load`` and ``einsum_error`` are the load and error-norm formulas
written as single einsums over all elements, the references the solver's
matrix-product kernels are checked against.  ``reference_fields`` gives the
manufactured solutions as one closure per field and component, each
evaluating its time and space parts on every call: the reference the
time-separable fields of ``viscowave.mms`` are checked against.
"""

from typing import NamedTuple

import numpy as np

from viscowave.fespace import StressSpace, VelocitySpace
from viscowave.material import VOIGT_DOT, IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.quadrature import QuadratureRule, rect_rule


class VoigtTensor(NamedTuple):
    """Symmetric 2x2 tensor stored as (t11, t22, t12)."""

    t11: float
    t22: float
    t12: float


def voigt_inner(a, b):
    """Tensor dot product of Voigt triples; broadcasts over leading axes."""
    return (np.asarray(a, dtype=float) * np.asarray(b, dtype=float)) @ VOIGT_DOT.diagonal()


def apply_compliance(material: IsotropicMaterial, stress) -> np.ndarray:
    """Strain produced by a stress given as (..., 3) Voigt triples."""
    return np.asarray(stress, dtype=float) @ material.compliance_matrix().T


def compliance_bounds(material: IsotropicMaterial) -> tuple[float, float]:
    """Spectral bounds (M0, M1) of the compliance under the tensor dot product."""
    return (
        1.0 / (2.0 * material.mu + 2.0 * material.lam),
        1.0 / (2.0 * material.mu),
    )


def vertex_index(mesh: StructuredMesh, i, j):
    """Global id of vertex (i, j), 0 <= i <= nx, 0 <= j <= ny."""
    return j * (mesh.nx + 1) + i


def element_index(mesh: StructuredMesh, i, j):
    """Global id of element (i, j), 0 <= i < nx, 0 <= j < ny."""
    return j * mesh.nx + i


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


# ------------------------------------------------- manufactured-field references


def _bcast(x, y, t):
    return np.broadcast_arrays(
        np.asarray(x, float), np.asarray(y, float), np.asarray(t, float)
    )


def _vec(a, b):
    return np.stack(np.broadcast_arrays(a, b), axis=-1)


def _voigt(a, b, c):
    return np.stack(np.broadcast_arrays(a, b, c), axis=-1)


def _reference_example1(rho):
    def g(z):
        return z * z * (z - 1.0) ** 2

    def gp(z):
        return 2.0 * z * (z - 1.0) * (2.0 * z - 1.0)

    def gpp(z):
        return 12.0 * z * z - 12.0 * z + 2.0

    def gppp(z):
        return 24.0 * z - 12.0

    def u(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = -np.exp(-t)
        return _vec(e * g(x) * gp(y), e * g(y) * gp(x))

    def v(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(-t)
        return _vec(e * g(x) * gp(y), e * g(y) * gp(x))

    def v_t(x, y, t):
        return -v(x, y, t)

    def _sigma_spatial(x, y):
        s11 = 4.0 * gp(x) * gp(y)
        s12 = g(x) * gpp(y) + g(y) * gpp(x)
        return s11, s11, s12

    def sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        s11, s22, s12 = _sigma_spatial(x, y)
        return _voigt(te * s11, te * s22, te * s12)

    def sigma_t(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = (1.0 - t) * np.exp(-t)
        s11, s22, s12 = _sigma_spatial(x, y)
        return _voigt(te * s11, te * s22, te * s12)

    def div_sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        d1 = te * (5.0 * gpp(x) * gp(y) + g(x) * gppp(y))
        d2 = te * (5.0 * gp(x) * gpp(y) + g(y) * gppp(x))
        return _vec(d1, d2)

    def f(x, y, t):
        return rho * v_t(x, y, t) - div_sigma(x, y, t)

    return dict(u=u, v=v, v_t=v_t, sigma=sigma, sigma_t=sigma_t, div_sigma=div_sigma, f=f)


def _reference_example2(rho):
    pi = np.pi

    def u(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = -np.exp(-t) * np.sin(pi * x) * np.sin(pi * y)
        return _vec(e, e.copy())

    def v(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(-t) * np.sin(pi * x) * np.sin(pi * y)
        return _vec(e, e.copy())

    def v_t(x, y, t):
        return -v(x, y, t)

    def _sigma_spatial(x, y):
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        s11 = pi * (3.0 * cx * sy + sx * cy)
        s22 = pi * (3.0 * sx * cy + cx * sy)
        s12 = pi * (sx * cy + cx * sy)
        return s11, s22, s12

    def sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        s11, s22, s12 = _sigma_spatial(x, y)
        return _voigt(te * s11, te * s22, te * s12)

    def sigma_t(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = (1.0 - t) * np.exp(-t)
        s11, s22, s12 = _sigma_spatial(x, y)
        return _voigt(te * s11, te * s22, te * s12)

    def div_sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        te = t * np.exp(-t)
        d = pi * pi * te * (
            2.0 * np.cos(pi * x) * np.cos(pi * y)
            - 4.0 * np.sin(pi * x) * np.sin(pi * y)
        )
        return _vec(d, d.copy())

    def f(x, y, t):
        return rho * v_t(x, y, t) - div_sigma(x, y, t)

    return dict(u=u, v=v, v_t=v_t, sigma=sigma, sigma_t=sigma_t, div_sigma=div_sigma, f=f)


def _reference_example3(rho):
    pi = np.pi

    def p(z):
        return z**1.5 - z**2.5

    def pp(z):
        return 1.5 * z**0.5 - 2.5 * z**1.5

    def ppp(z):
        return 0.75 / np.sqrt(z) - 3.75 * np.sqrt(z)

    def u(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(t)
        return _vec(e * np.sin(pi * x) * p(y), e * np.sin(pi * y) * p(x))

    v = u
    v_t = u

    def sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(t)
        s11 = pi * e * (1.5 * np.cos(pi * x) * p(y) + 0.5 * np.cos(pi * y) * p(x))
        s22 = pi * e * (1.5 * np.cos(pi * y) * p(x) + 0.5 * np.cos(pi * x) * p(y))
        s12 = 0.5 * e * (np.sin(pi * x) * pp(y) + np.sin(pi * y) * pp(x))
        return _voigt(s11, s22, s12)

    sigma_t = sigma

    def div_sigma(x, y, t):
        x, y, t = _bcast(x, y, t)
        e = np.exp(t)
        d1 = e * (
            -1.5 * pi * pi * np.sin(pi * x) * p(y)
            + pi * np.cos(pi * y) * pp(x)
            + 0.5 * np.sin(pi * x) * ppp(y)
        )
        d2 = e * (
            -1.5 * pi * pi * np.sin(pi * y) * p(x)
            + pi * np.cos(pi * x) * pp(y)
            + 0.5 * np.sin(pi * y) * ppp(x)
        )
        return _vec(d1, d2)

    def f(x, y, t):
        return rho * v_t(x, y, t) - div_sigma(x, y, t)

    return dict(u=u, v=v, v_t=v_t, sigma=sigma, sigma_t=sigma_t, div_sigma=div_sigma, f=f)


def reference_fields(example, rho=1.0) -> dict:
    """The seven fields (u, v, v_t, sigma, sigma_t, div_sigma, f) of a built-in example."""
    builders = {1: _reference_example1, 2: _reference_example2, 3: _reference_example3}
    return builders[example](rho)
