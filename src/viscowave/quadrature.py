"""The two reference-square rules every element integral uses.

All elements of a uniform N-by-N mesh are congruent squares of side h, so
each rule is given once on the reference square: points ``(xi, eta)`` in
[-1, 1]^2, shape (n, 2), and weights as fractions of the element's area,
shape (n,).  On an element of centre ``(xc, yc)`` the points are
``(xc + (h/2) xi, yc + (h/2) eta)`` and the weights ``h * h * w``.

``COMPOSITE`` splits the square along the lower-left to upper-right
diagonal and puts a seven-point degree-5 triangle rule on each half
(14 points, exact for total degree <= 5).  ``CORNERS`` puts a quarter of
the area on each corner, counterclockwise from lower left, the order of
the corner dofs in ``fespace.LOCAL_DOFS``; it is exact on bilinears and
gives the diagonal vertex blocks of a lumped mass matrix.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["COMPOSITE", "CORNERS"]

_SQRT15 = math.sqrt(15.0)
_A1 = (6.0 - _SQRT15) / 21.0
_A2 = (6.0 + _SQRT15) / 21.0
# Barycentric coordinates and area fractions of the seven-point rule.
_TRI_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A2, _A2, 1.0 - 2.0 * _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [1.0 - 2.0 * _A2, _A2, _A2],
    ]
)
_TRI_FRACS = np.array(
    [9.0 / 40.0]
    + [(155.0 - _SQRT15) / 1200.0] * 3
    + [(155.0 + _SQRT15) / 1200.0] * 3
)
# Corners of the unit element, counterclockwise from lower left.
_UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _frozen(points, weights):
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


# The points are placed on the unit element and then centred and scaled,
# which on meshes of 2^k elements per side reproduces bit for bit the
# rule placed on the first physical element and mapped back.
COMPOSITE = _frozen(
    (np.vstack([_TRI_BARY @ _UNIT[[0, 1, 2]], _TRI_BARY @ _UNIT[[0, 2, 3]]]) - 0.5) / 0.5,
    np.concatenate([0.5 * _TRI_FRACS, 0.5 * _TRI_FRACS]),
)
CORNERS = _frozen(2.0 * _UNIT - 1.0, np.full(4, 0.25))
