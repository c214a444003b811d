"""Quadrature rules used throughout: a seven-point degree-5 triangle rule,
its composite extension to rectangles, and the four-corner lumping rule.

The composite rectangle rule splits the rectangle into two triangles along
the lower-left to upper-right diagonal and is exact for total degree <= 5.
The corner rule (weight = area/4 at each corner) is exact on the bilinear
space and is what produces diagonal vertex blocks when used for mass
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "triangle_rule",
    "rect_rule",
    "lumped_rect_rule",
]

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


@dataclass(frozen=True)
class QuadratureRule:
    """Planar quadrature rule: points of shape (n, 2) and weights of shape (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape != (wts.size, 2):
            raise ValueError(f"inconsistent rule shapes {pts.shape} and {wts.shape}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


def triangle_rule(vertices) -> QuadratureRule:
    """Degree-5 rule on the triangle with the given (3, 2) vertex array."""
    verts = np.asarray(vertices, dtype=float)
    if verts.shape != (3, 2):
        raise ValueError(f"expected three planar vertices, got shape {verts.shape}")
    d1 = verts[1] - verts[0]
    d2 = verts[2] - verts[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    scale = max(np.abs(verts).max(), 1.0)
    if area <= 1e-14 * scale * scale:
        raise ValueError("degenerate triangle")
    return QuadratureRule(_TRI_BARY @ verts, area * _TRI_FRACS)


def _corners(rect) -> np.ndarray:
    if hasattr(rect, "corners"):
        return np.asarray(rect.corners, dtype=float)
    x0, y0, x1, y1 = (float(v) for v in rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle ({x0}, {y0}, {x1}, {y1})")
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def rect_rule(rect) -> QuadratureRule:
    """Composite degree-5 rule on a rectangle, 14 points over two triangles.

    ``rect`` is either an object with a ``corners`` attribute (counterclockwise
    from lower left) or a plain ``(x0, y0, x1, y1)`` tuple.
    """
    c = _corners(rect)
    lower = triangle_rule(c[[0, 1, 2]])
    upper = triangle_rule(c[[0, 2, 3]])
    return QuadratureRule(
        np.vstack([lower.points, upper.points]),
        np.concatenate([lower.weights, upper.weights]),
    )


def lumped_rect_rule(rect) -> QuadratureRule:
    """Four-corner rule with weight area/4 per corner; exact on bilinears."""
    c = _corners(rect)
    area = (c[1, 0] - c[0, 0]) * (c[3, 1] - c[0, 1])
    if area <= 0.0:
        raise ValueError("degenerate rectangle")
    return QuadratureRule(c, np.full(4, 0.25 * area))
