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
holds by construction; ``verify_residuals`` cross-checks every hand-coded
derivative field against fourth-order central differences of the primary
fields and evaluates both model equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import qmc

from .material import IsotropicMaterial, apply_stiffness

__all__ = ["ExactSolution", "ResidualReport", "exact_fields", "verify_residuals"]

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


def _bcast(x, y, t):
    return np.broadcast_arrays(
        np.asarray(x, float), np.asarray(y, float), np.asarray(t, float)
    )


def _vec(a, b):
    return np.stack(np.broadcast_arrays(a, b), axis=-1)


def _voigt(a, b, c):
    return np.stack(np.broadcast_arrays(a, b, c), axis=-1)


def _example1(rho):
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


def _example2(rho):
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


def _example3(rho):
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
