"""Built-in space-time solutions with matching body force.

Three numbered solution families on the unit square, all vanishing on the
boundary in the displacement/velocity and all satisfying the constitutive
relation ``sigma + sigma_t = C eps(v)`` exactly for the unit material
(rho = mu = lam = 1):

1. polynomial displacement ``z^2 (z - 1)^2`` pattern, stress zero at t = 0;
2. trigonometric ``sin(pi x) sin(pi y)`` pattern, stress zero at t = 0;
3. reduced-regularity ``z^(3/2) - z^(5/2)`` pattern whose stress divergence
   blows up like ``z^(-1/2)`` toward the x = 0 and y = 0 edges and whose
   stress is nonzero at t = 0.

Each example declares v = c_v(t) V and sigma = c_s(t) S with D = div S;
one helper builds the body force ``f = rho v_t - div sigma`` from them as
rho c_v'(t) V - c_s(t) D, so the momentum equation holds by construction.
Every field is time-separable (``Separable``) and keeps no state: the
kernel that integrates a field (``fespace.QuadKernel``) evaluates each
spatial factor once on its points and keeps the values, and V, in both v
and f, is one function, so a kernel evaluates it once for both.  Those
points lie on one element per orbit of the reflections the three fields
share (``symmetry``): examples 1 and 2 are symmetric under the rotation
by pi and the diagonal reflection, so a run evaluates them on a quarter
of the mesh, and example 3 under the diagonal reflection alone, on half
of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .material import IsotropicMaterial

__all__ = ["ExactSolution", "Separable", "exact_fields"]

Field = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ExactSolution:
    """Velocity, stress and body force ``(x, y, t) -> array`` of one solution family.

    ``v`` and ``f`` return shape ``broadcast + (2,)``, ``sigma``
    ``broadcast + (3,)`` in Voigt storage.
    """

    example: int
    v: Field
    sigma: Field
    f: Field


def _stack(*components):
    return np.stack(np.broadcast_arrays(*components), axis=-1)


class Separable:
    """A time-separable field ``(x, y, t) -> sum_k c_k(t)[..., None] * F_k(x, y)``.

    ``terms`` are ``(c_k, F_k)`` pairs: a time coefficient and a spatial
    factor returning ``broadcast(x, y) + (d,)``.  A call evaluates every
    factor anew; ``combine`` takes the factors' values from elsewhere, so
    a kernel can keep them (``fespace.QuadKernel.values``).
    """

    def __init__(self, *terms):
        self.terms = terms

    def __call__(self, x, y, t):
        x, y = np.asarray(x, float), np.asarray(y, float)
        return self.combine(lambda factor: factor(x, y), t)

    def combine(self, value, t):
        """The field at ``t`` from ``value(F_k)``, the values of each factor."""
        t = np.asarray(t, float)
        (coef, factor), *rest = self.terms
        out = coef(t)[..., None] * value(factor)
        for coef, factor in rest:
            out += coef(t)[..., None] * value(factor)
        return out


def _solution(rho, V, S, D, c_v, dc_v, c_s):
    """v = c_v V, sigma = c_s S (div S = D) and f = rho dc_v V - c_s D, which share V."""
    return dict(
        v=Separable((c_v, V)),
        sigma=Separable((c_s, S)),
        f=Separable((lambda t: rho * dc_v(t), V), (lambda t: -c_s(t), D)),
    )


# Examples 1-2: velocity e^-t V and stress t e^-t S, zero at t = 0.
_DECAYING = (lambda t: np.exp(-t), lambda t: -np.exp(-t), lambda t: t * np.exp(-t))


def _example1(rho):
    def g(z):
        return z * z * (z - 1.0) ** 2

    def gp(z):
        return 2.0 * z * (z - 1.0) * (2.0 * z - 1.0)

    def gpp(z):
        return 12.0 * z * z - 12.0 * z + 2.0

    def gppp(z):
        return 24.0 * z - 12.0

    def V(x, y):
        return _stack(g(x) * gp(y), g(y) * gp(x))

    def S(x, y):
        s11 = 4.0 * gp(x) * gp(y)
        return _stack(s11, s11, g(x) * gpp(y) + g(y) * gpp(x))

    def D(x, y):
        return _stack(
            5.0 * gpp(x) * gp(y) + g(x) * gppp(y), 5.0 * gp(x) * gpp(y) + g(y) * gppp(x)
        )

    return _solution(rho, V, S, D, *_DECAYING)


def _example2(rho):
    pi = np.pi

    def V(x, y):
        s = np.sin(pi * x) * np.sin(pi * y)
        return _stack(s, s)

    def S(x, y):
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        return pi * _stack(3.0 * cx * sy + sx * cy, 3.0 * sx * cy + cx * sy, sx * cy + cx * sy)

    def D(x, y):
        d = pi * pi * (
            2.0 * np.cos(pi * x) * np.cos(pi * y) - 4.0 * np.sin(pi * x) * np.sin(pi * y)
        )
        return _stack(d, d)

    return _solution(rho, V, S, D, *_DECAYING)


def _example3(rho):
    pi = np.pi

    def p(z):
        return z**1.5 - z**2.5

    def pp(z):
        return 1.5 * z**0.5 - 2.5 * z**1.5

    def ppp(z):
        return 0.75 / np.sqrt(z) - 3.75 * np.sqrt(z)

    def U(x, y):
        return _stack(np.sin(pi * x) * p(y), np.sin(pi * y) * p(x))

    def S(x, y):
        cx, cy = np.cos(pi * x), np.cos(pi * y)
        return _stack(
            pi * (1.5 * cx * p(y) + 0.5 * cy * p(x)),
            pi * (1.5 * cy * p(x) + 0.5 * cx * p(y)),
            0.5 * (np.sin(pi * x) * pp(y) + np.sin(pi * y) * pp(x)),
        )

    def D(x, y):
        sx, sy = np.sin(pi * x), np.sin(pi * y)
        return _stack(
            -1.5 * pi * pi * sx * p(y) + pi * np.cos(pi * y) * pp(x) + 0.5 * sx * ppp(y),
            -1.5 * pi * pi * sy * p(x) + pi * np.cos(pi * x) * pp(y) + 0.5 * sy * ppp(x),
        )

    # Velocity e^t U = u = v_t and stress e^t S = sigma_t.
    return _solution(rho, U, S, D, np.exp, np.exp, np.exp)


_BUILDERS = {1: _example1, 2: _example2, 3: _example3}


def exact_fields(
    example: int, material: IsotropicMaterial | None = None, force: bool = False
) -> ExactSolution:
    """Return the numbered built-in solution.

    The stress fields satisfy the constitutive relation only for the unit
    material; other parameters are rejected unless ``force`` is set, in
    which case the body force is recomputed with the given density but the
    constitutive residual will not vanish.
    """
    if example not in _BUILDERS:
        raise ValueError(f"unknown solution id {example}; available: {sorted(_BUILDERS)}")
    material = material or IsotropicMaterial()
    if not force and (material.rho, material.mu, material.lam) != (1.0, 1.0, 1.0):
        raise ValueError(
            "built-in solutions require the unit material "
            f"(got rho={material.rho}, mu={material.mu}, lam={material.lam}); "
            "pass force=True (--force on the command line) to accept an "
            "inconsistent constitutive relation"
        )
    return ExactSolution(example=example, **_BUILDERS[example](material.rho))

