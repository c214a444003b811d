"""Isotropic material data in Voigt storage.

A symmetric 2x2 tensor is stored as the triple ``(t11, t22, t12)``.  The
tensor dot product counts the off-diagonal entry twice:

    s : t = s11 t11 + s22 t22 + 2 s12 t12.

The stiffness map is ``C e = 2 mu e + lam tr(e) I`` and its inverse is

    Cinv s = (1 / (2 mu)) * (s - lam / (2 mu + 2 lam) tr(s) I),

with spectral bounds M0 = 1/(2 mu + 2 lam) and M1 = 1/(2 mu) on the
compliance, so M0 ||t||^2 <= Cinv t : t <= M1 ||t||^2 pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VOIGT_DOT", "IsotropicMaterial"]


# Weight of the tensor dot product on Voigt triples: s : t = s @ VOIGT_DOT @ t.
VOIGT_DOT = np.diag([1.0, 1.0, 2.0])


@dataclass(frozen=True)
class IsotropicMaterial:
    """Density and Lame parameters of a homogeneous isotropic solid."""

    rho: float = 1.0
    mu: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        for name in ("rho", "mu", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.rho > 0.0):
            raise ValueError(f"density must be positive, got {self.rho}")
        if not (self.mu > 0.0):
            raise ValueError(f"shear modulus must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ValueError(f"first Lame parameter must be nonnegative, got {self.lam}")
        if 2.0 * self.mu + 2.0 * self.lam == 2.0 * self.lam:
            # c = lam / (2 mu + 2 lam) is then exactly 1/2: singular compliance
            raise ValueError(
                f"shear modulus mu={self.mu} is lost against lam={self.lam} "
                "(2 mu + 2 lam rounds to 2 lam), so the compliance is singular"
            )
        if math.isinf(1.0 / (2.0 * self.mu)):
            raise ValueError(
                f"shear modulus mu={self.mu} is so small that the compliance 1/(2 mu) overflows"
            )

    def compliance_matrix(self) -> np.ndarray:
        """Matrix of the inverse stiffness map acting on (t11, t22, t12)."""
        inv_two_mu = 1.0 / (2.0 * self.mu)
        c = self.lam / (2.0 * self.mu + 2.0 * self.lam)
        return inv_two_mu * np.array(
            [
                [1.0 - c, -c, 0.0],
                [-c, 1.0 - c, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )

