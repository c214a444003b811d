"""Triangle/rectangle quadrature: exactness degree and composite splitting."""

import math

import numpy as np
import pytest

from viscowave.mesh import ElementRect
from viscowave.quadrature import (
    QuadratureRule,
    lumped_rect_rule,
    rect_rule,
    triangle_rule,
)

from fehelpers import integrate

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_RECT = ElementRect(0.0, 0.0, 1.0, 1.0)


def tri_monomial_exact(p, q):
    # int_T x^p y^q over the reference triangle = p! q! / (p+q+2)!
    return (
        math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
    )


def test_triangle_rule_shape_and_weights():
    rule = triangle_rule(REF_TRI)
    assert rule.points.shape == (7, 2)
    assert rule.weights.shape == (7,)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    assert np.all(rule.weights > 0)


def test_triangle_rule_degree_5_exact():
    rule = triangle_rule(REF_TRI)
    for p in range(6):
        for q in range(6 - p):
            got = integrate(rule, lambda x, y: x**p * y**q)
            assert got == pytest.approx(tri_monomial_exact(p, q), rel=1e-13), (p, q)


def test_triangle_rule_x5_frozen_value():
    rule = triangle_rule(REF_TRI)
    assert integrate(rule, lambda x, y: x**5) == pytest.approx(1.0 / 42.0, rel=1e-14)


def test_triangle_rule_degree_6_not_exact():
    # x^6 integrates to 1/56; the rule misses it, which pins the degree at 5
    rule = triangle_rule(REF_TRI)
    got = integrate(rule, lambda x, y: x**6)
    assert got == pytest.approx(0.01777525825144873, rel=1e-12)
    assert abs(got - 1.0 / 56.0) > 5e-5


def test_triangle_rule_affine_invariance():
    verts = np.array([[0.2, -0.3], [1.7, 0.4], [0.5, 2.1]])
    rule = triangle_rule(verts)
    area = 0.5 * abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1])
    )
    assert rule.weights.sum() == pytest.approx(area, rel=1e-14)
    # linear exactness on the mapped triangle: centroid value times area
    got = integrate(rule, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
    cx, cy = verts.mean(axis=0)
    assert got == pytest.approx(area * (2.0 * cx - 3.0 * cy + 1.0), rel=1e-13)


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        triangle_rule(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_rect_rule_is_two_triangles():
    rule = rect_rule(UNIT_RECT)
    assert rule.points.shape == (14, 2)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)


def test_rect_rule_degree_5_exact_tensor_monomials():
    rule = rect_rule(UNIT_RECT)
    for p in range(6):
        for q in range(6):
            if p + q > 5:
                continue  # total degree 5: that is all the triangle split promises
            got = integrate(rule, lambda x, y: x**p * y**q)
            want = 1.0 / ((p + 1) * (q + 1))
            assert got == pytest.approx(want, rel=1e-13), (p, q)


def test_rect_rule_frozen_x2y3():
    rule = rect_rule(UNIT_RECT)
    assert integrate(rule, lambda x, y: x**2 * y**3) == pytest.approx(
        1.0 / 12.0, rel=1e-14
    )


def test_rect_rule_scaled_element():
    rect = ElementRect(0.25, 0.5, 0.75, 0.625)
    rule = rect_rule(rect)
    assert rule.weights.sum() == pytest.approx(rect.hx * rect.hy, rel=1e-13)
    got = integrate(rule, lambda x, y: x * y)
    want = (0.75**2 - 0.25**2) / 2 * (0.625**2 - 0.5**2) / 2
    assert got == pytest.approx(want, rel=1e-13)


def test_rect_rule_accepts_bounds_tuple():
    rule = rect_rule((0.0, 0.0, 0.5, 0.5))
    assert rule.weights.sum() == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ValueError):
        rect_rule((0.0, 0.0, 0.0, 0.5))


def test_lumped_rect_rule_corners():
    rule = lumped_rect_rule(ElementRect(0.0, 0.0, 0.5, 0.25))
    assert rule.points.shape == (4, 2)
    np.testing.assert_allclose(rule.weights, 0.5 * 0.25 / 4.0)
    # exact for bilinear functions
    got = integrate(rule, lambda x, y: (1.0 + 2.0 * x) * (3.0 - y))
    want = (0.5 + 0.25) * (3.0 * 0.25 - 0.25**2 / 2)
    assert got == pytest.approx(want, rel=1e-13)


def test_lumped_rect_rule_points_are_corners():
    rect = ElementRect(0.1, 0.2, 0.4, 0.9)
    rule = lumped_rect_rule(rect)
    np.testing.assert_allclose(np.sort(rule.points, axis=0), np.sort(rect.corners, axis=0))


def test_integrate_vectorized_callable():
    rule = rect_rule(UNIT_RECT)
    calls = []

    def f(x, y):
        calls.append(np.shape(x))
        return np.ones_like(x)

    assert integrate(rule, f) == pytest.approx(1.0)
    assert calls == [(14,)]  # one vectorized evaluation


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(points=np.zeros((3, 2)), weights=np.zeros(4))
    with pytest.raises(ValueError):
        QuadratureRule(points=np.zeros((3, 3)), weights=np.zeros(3))
