"""Error norms, convergence rates, discrete energy, and a pairing diagnostic.

Norms: the stress error is measured in the compliance-weighted a-norm
``||tau||_a^2 = int Cinv tau : tau`` and the velocity error in the
density-weighted c-norm ``||w||_c^2 = int rho w . w``, both integrated
with the composite degree-5 rule regardless of any lumping used by the
scheme itself.  An evaluator integrates on the space's kernel
(``fespace.QuadKernel``): one element per orbit of the space's symmetry
group, every element for the trivial one.  It reads the reference field
once per time on the kernel's points, which both spaces of a run share,
through the checked ``QuadKernel.values``, and forms the discrete field,
the difference and the weighted dot product block by block of
``NORM_BLOCK`` elements, so no full-mesh temporary is made.  The blocks
of each orbit size are summed and the sum weighted by that size: the
discrete field and the reference share the group's symmetry, so every
element of an orbit carries the same integral.
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

# Elements per block of an error norm.  At N = 64 and 256 one block per
# mesh took about twice as long as blocks of 256 or 1024, which were even
# in sum; 256 was the fastest for the stress norm and 128 slower than 256.
NORM_BLOCK = 256


class _ErrorEvaluator:
    """Weighted L2 distance between a coefficient field and a reference field.

    ``weight`` is the (d, d) pointwise weight of the norm; it is tiled with
    the quadrature weights into one (nq * d, nq * d) matrix per element.
    The field is called once, on the kernel's points, and checked there
    (``QuadKernel.values``); the rest is done ``NORM_BLOCK`` elements at a
    time, each run of one orbit size on its own.  A sum below the smallest
    normal number, whose squares may have underflowed, is formed again from
    the coefficients and the field values scaled exactly by the 2^-k that
    brings the largest into [1/2, 1).
    """

    def __init__(self, space, weight):
        self.quad = space.quad
        self.weight = np.kron(np.diag(self.quad.weights), weight)

    def __call__(self, coeffs, field, t: float) -> float:
        coeffs = np.asarray(coeffs, float)
        values = self.quad.values(field, t)
        val, k = self._squared(coeffs, values), 0
        if val < np.finfo(float).tiny:  # the squares may have underflowed
            top = max(abs(coeffs).max(), abs(values).max())
            if top > 0.0:
                k = int(np.frexp(top)[1])
                val = self._squared(np.ldexp(coeffs, -k), np.ldexp(values, -k))
        return float(np.ldexp(np.sqrt(max(val, 0.0)), k))

    def _squared(self, coeffs, values):
        """The squared distance: each orbit size's run of representatives
        summed ``NORM_BLOCK`` elements at a time and weighted by the size."""
        q = self.quad
        val = 0.0
        for size, rows in q.orbits:
            part = 0.0
            for lo in range(rows.start, rows.stop, NORM_BLOCK):
                block = slice(lo, min(lo + NORM_BLOCK, rows.stop))
                diff = coeffs[q.eldof[block]] @ q.basis
                diff -= values[block]
                part += np.vdot(diff @ self.weight, diff)
            val += size * part
        return val


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


def convergence_orders(pairs, name="the error", runs=None) -> list[float]:
    """Observed orders log(e_i/e_{i+1}) / log(p_{i+1}/p_i) for (param, error) pairs.

    An error that is not positive, NaN too, is refused by ``name`` and its
    pair's entry of ``runs``, labels such as ``"N = 4, M = 200"`` that
    default to the parameter.
    """
    pairs = list(pairs)
    params = np.array(check_study_parameters(p for p, _ in pairs))
    errors = np.array([float(e) for _, e in pairs])
    for error, run in zip(errors, runs or [f"parameter {p:g}" for p in params]):
        if not error > 0.0:
            raise ValueError(
                f"{name} is {error:.3g} at {run}: an observed order needs positive errors"
            )
    return list(np.log(errors[:-1] / errors[1:]) / np.log(params[1:] / params[:-1]))


def energy(system, state) -> float:
    """Discrete energy ||sigma_h||_a^2 + ||v_h||_c^2 using the scheme's matrices.

    A state that carries A alpha for ``system`` (``timestepper.SimState``)
    has it reused, bit for bit the product it would otherwise form.
    """
    a, b = state.alpha, state.beta
    carried = state.carried(system)
    Aa = system.A @ a if carried is None else carried[0]
    return float(a @ Aa + b @ (system.C @ b))


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
        mesh = StructuredMesh(n)
        out.append(
            _infsup_constant(StressSpace(mesh, family), VelocitySpace(mesh, family))
        )
    return out
