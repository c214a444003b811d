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

The body force is ``f = rho v_t - div sigma``, so the momentum equation
holds by construction.  Every field is time-separable, one or two time
coefficients times fixed spatial factors (``Separable``), so on a fixed
quadrature point set each spatial factor is evaluated once.  ``verify_residuals`` cross-checks every hand-coded
derivative field against fourth-order central differences of the primary
fields and evaluates both model equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import qmc

from .material import IsotropicMaterial, apply_stiffness

__all__ = ["ExactSolution", "Separable", "ResidualReport", "exact_fields", "verify_residuals"]

Field = Callable[..., np.ndarray]


@dataclass(frozen=True)
class ExactSolution:
    """Bundle of evaluators ``(x, y, t) -> array`` for one solution family.

    Vector fields return shape ``broadcast + (2,)``, tensor fields
    ``broadcast + (3,)`` in Voigt storage.
    """

    example: int
    reduced_regularity: bool
    u: Field
    v: Field
    v_t: Field
    sigma: Field
    sigma_t: Field
    div_sigma: Field
    f: Field


class ResidualReport(NamedTuple):
    """Maximum absolute momentum and constitutive residuals over the sample."""

    momentum: float
    constitutive: float


def _stack(*components):
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def _frozen(a) -> bool:
    """True for a read-only array that owns its data: nothing can change it in place."""
    return isinstance(a, np.ndarray) and not a.flags.writeable and a.base is None


class Separable:
    """A time-separable field ``(x, y, t) -> sum_k c_k(t)[..., None] * F_k(x, y)``.

    ``terms`` are ``(c_k, F_k)`` pairs: a time coefficient and a spatial
    factor returning ``broadcast(x, y) + (d,)``.  The factor values of the
    last point set are kept when both ``x`` and ``y`` are read-only arrays
    owning their data (matched by identity), so a fixed quadrature point set
    costs one spatial evaluation per field; any other points are evaluated
    on every call.
    """

    def __init__(self, *terms):
        self.terms = terms
        self._memo = (None, None, None)

    def _factors(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        frozen = _frozen(x) and _frozen(y)
        mx, my, values = self._memo
        if frozen and x is mx and y is my:
            return values
        values = [factor(x, y) for _, factor in self.terms]
        if frozen:
            self._memo = (x, y, values)
        return values

    def __call__(self, x, y, t):
        t = np.asarray(t, float)
        out = None
        for (coef, _), value in zip(self.terms, self._factors(x, y)):
            term = coef(t)[..., None] * value
            out = term if out is None else out + term
        return out


def _decaying(rho, V, S, D):
    """Examples 1-2: velocity e^-t V, stress t e^-t S with divergence t e^-t D."""

    def te(t):
        return t * np.exp(-t)

    return dict(
        u=Separable((lambda t: -np.exp(-t), V)),
        v=Separable((lambda t: np.exp(-t), V)),
        v_t=Separable((lambda t: -np.exp(-t), V)),
        sigma=Separable((te, S)),
        sigma_t=Separable((lambda t: (1.0 - t) * np.exp(-t), S)),
        div_sigma=Separable((te, D)),
        f=Separable((lambda t: -rho * np.exp(-t), V), (lambda t: -te(t), D)),
    )


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

    return _decaying(rho, V, S, D)


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

    return _decaying(rho, V, S, D)


def _example3(rho):
    """Velocity e^t U = u = v_t, stress e^t S = sigma_t with divergence e^t D."""
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

    u = Separable((np.exp, U))
    sigma = Separable((np.exp, S))
    return dict(
        u=u,
        v=u,
        v_t=u,
        sigma=sigma,
        sigma_t=sigma,
        div_sigma=Separable((np.exp, D)),
        f=Separable((lambda t: rho * np.exp(t), U), (lambda t: -np.exp(t), D)),
    )


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
    fields = _BUILDERS[example](material.rho)
    return ExactSolution(
        example=example, reduced_regularity=(example == 3), **fields
    )


def _fd_scale(num, h):
    h = np.asarray(h, float)
    if h.ndim:
        h = h.reshape(h.shape + (1,) * (num.ndim - h.ndim))
    return num / (12.0 * h)


def _fd_t(fn, x, y, t, h):
    num = (
        -fn(x, y, t + 2 * h) + 8 * fn(x, y, t + h) - 8 * fn(x, y, t - h) + fn(x, y, t - 2 * h)
    )
    return _fd_scale(num, h)


def _fd_x(fn, x, y, t, h):
    num = (
        -fn(x + 2 * h, y, t) + 8 * fn(x + h, y, t) - 8 * fn(x - h, y, t) + fn(x - 2 * h, y, t)
    )
    return _fd_scale(num, h)


def _fd_y(fn, x, y, t, h):
    num = (
        -fn(x, y + 2 * h, t) + 8 * fn(x, y + h, t) - 8 * fn(x, y - h, t) + fn(x, y - 2 * h, t)
    )
    return _fd_scale(num, h)


def verify_residuals(
    solution: ExactSolution,
    material: IsotropicMaterial | None = None,
    n_samples: int = 1000,
    t_final: float = 1.0,
    margin: float | None = None,
    seed: int = 7,
) -> ResidualReport:
    """Check both model equations at quasi-random interior sample points.

    Time derivatives of ``v`` and ``sigma`` and space derivatives for
    ``div sigma`` and ``eps(v)`` are formed by fourth-order central
    differences of the primary evaluators (step 1e-4); for
    reduced-regularity solutions the space step shrinks linearly with the
    distance to the singular edges and a boundary margin (default 1e-3)
    is excluded from the sample.
    """
    material = material or IsotropicMaterial()
    if margin is None:
        margin = 1e-3 if solution.reduced_regularity else 0.0
    sampler = qmc.Halton(d=3, scramble=True, seed=seed)
    pts = sampler.random(n_samples)
    x = margin + (1.0 - 2.0 * margin) * pts[:, 0]
    y = margin + (1.0 - 2.0 * margin) * pts[:, 1]
    t = t_final * pts[:, 2]

    ht = 1e-4
    if solution.reduced_regularity:
        hx = np.minimum(1e-4, x / 300.0)
        hy = np.minimum(1e-4, y / 300.0)
    else:
        hx = hy = 1e-4

    sig, vel = solution.sigma, solution.v
    dsx = _fd_x(sig, x, y, t, hx)
    dsy = _fd_y(sig, x, y, t, hy)
    div_fd = np.stack([dsx[:, 0] + dsy[:, 2], dsx[:, 2] + dsy[:, 1]], axis=-1)
    momentum = (
        material.rho * _fd_t(vel, x, y, t, ht) - div_fd - solution.f(x, y, t)
    )

    dvx = _fd_x(vel, x, y, t, hx)
    dvy = _fd_y(vel, x, y, t, hy)
    strain_fd = np.stack(
        [dvx[:, 0], dvy[:, 1], 0.5 * (dvy[:, 0] + dvx[:, 1])], axis=-1
    )
    constitutive = (
        sig(x, y, t) + _fd_t(sig, x, y, t, ht) - apply_stiffness(material, strain_fd)
    )
    return ResidualReport(
        momentum=float(np.abs(momentum).max()),
        constitutive=float(np.abs(constitutive).max()),
    )
