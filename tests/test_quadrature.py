"""Reference-square rules: exactness degree, the diagonal split, the corner rule."""

import numpy as np
import pytest

from viscowave.assembly import _local_rule
from viscowave.fespace import HMZ, LOCAL_DOFS, VelocitySpace
from viscowave.mesh import StructuredMesh
from viscowave.quadrature import _TRI_BARY, _TRI_FRACS, COMPOSITE, CORNERS

from fehelpers import integrate

POINTS, WEIGHTS = COMPOSITE
# The two seven-point triangle rules the composite rule is made of.
LOWER = (POINTS[:7], WEIGHTS[:7])
UPPER = (POINTS[7:], WEIGHTS[7:])


def unit(f):
    """``f(s, t)`` on the unit square as an integrand in (xi, eta).

    Weights are fractions of the area, so a rule applied to ``unit(f)``
    gives the integral of ``f`` over [0, 1]^2.
    """
    return lambda xi, eta: f(0.5 * (xi + 1.0), 0.5 * (eta + 1.0))


def lower_monomial_exact(p, q):
    # int s^p t^q over {0 <= t <= s <= 1} = 1 / ((q + 1)(p + q + 2))
    return 1.0 / ((q + 1) * (p + q + 2))


def test_triangle_rule_shape_and_weights():
    assert POINTS.shape == (14, 2)
    assert WEIGHTS.shape == (14,)
    for _, w in (LOWER, UPPER):
        assert w.sum() == pytest.approx(0.5, rel=1e-14)
        assert np.all(w > 0)


def test_triangle_rule_degree_5_exact():
    for p in range(6):
        for q in range(6 - p):
            got = integrate(LOWER, unit(lambda s, t: s**p * t**q))
            assert got == pytest.approx(lower_monomial_exact(p, q), rel=1e-13), (p, q)


def test_triangle_rule_x5_frozen_value():
    assert integrate(LOWER, unit(lambda s, t: s**5)) == pytest.approx(1.0 / 7.0, rel=1e-14)


def test_triangle_rule_degree_6_not_exact():
    # xi^6 averages 1/7 over the square; the rule misses it, which pins the degree at 5
    got = integrate(COMPOSITE, lambda xi, eta: xi**6)
    assert got == pytest.approx(0.1323759133282942, rel=1e-12)
    assert abs(got - 1.0 / 7.0) > 1e-2


def test_triangle_rule_affine_invariance():
    # the upper half is the lower half mirrored in the diagonal xi = eta
    def ordered(points, weights):
        k = np.lexsort(points.T)
        return points[k], weights[k]

    mirrored = ordered(LOWER[0][:, ::-1], LOWER[1])
    upper = ordered(*UPPER)
    np.testing.assert_allclose(mirrored[0], upper[0], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(mirrored[1], upper[1])


def test_rect_rule_is_two_triangles():
    assert np.all(LOWER[0][:, 1] < LOWER[0][:, 0])
    assert np.all(UPPER[0][:, 1] > UPPER[0][:, 0])
    assert np.all(np.abs(POINTS) < 1.0)
    assert WEIGHTS.sum() == pytest.approx(1.0, rel=1e-14)


def test_rect_rule_degree_5_exact_tensor_monomials():
    def mean(a):  # of xi^a over [-1, 1]
        return 0.0 if a % 2 else 1.0 / (a + 1)

    for a in range(6):
        for b in range(6 - a):  # total degree 5: that is all the triangle split promises
            got = integrate(COMPOSITE, lambda xi, eta: xi**a * eta**b)
            assert got == pytest.approx(mean(a) * mean(b), rel=1e-13, abs=1e-15), (a, b)


def test_rect_rule_frozen_x2y3():
    got = integrate(COMPOSITE, unit(lambda s, t: s**2 * t**3))
    assert got == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_rect_rule_scaled_element():
    # [0.25, 0.75] x [0.5, 0.625]: centre plus half-sides times (xi, eta), weights times the area
    hx, hy = 0.5, 0.125
    points = np.array([0.5, 0.5625]) + 0.5 * np.array([hx, hy]) * POINTS
    rule = (points, hx * hy * WEIGHTS)
    assert rule[1].sum() == pytest.approx(hx * hy, rel=1e-13)
    got = integrate(rule, lambda x, y: x * y)
    want = (0.75**2 - 0.25**2) / 2 * (0.625**2 - 0.5**2) / 2
    assert got == pytest.approx(want, rel=1e-13)


def test_lumped_rect_rule_corners():
    points, weights = CORNERS
    np.testing.assert_array_equal(weights, 0.25)
    # exact for bilinear functions, not for quadratics
    got = integrate(CORNERS, unit(lambda s, t: (1.0 + 2.0 * s) * (3.0 - t)))
    assert got == pytest.approx(2.0 * 2.5, rel=1e-14)
    assert integrate(CORNERS, unit(lambda s, t: s * s)) == pytest.approx(0.5)


def test_lumped_rect_rule_points_are_corners():
    # counterclockwise from lower left, the order of the corner dofs of every
    # stress family, which read it from here
    np.testing.assert_array_equal(CORNERS[0], [[-1, -1], [1, -1], [1, 1], [-1, 1]])
    for table in LOCAL_DOFS.values():
        for c in range(3):
            corners = [d for k, d in table if k == c and 0 not in d]
            if corners:
                np.testing.assert_array_equal(corners, CORNERS[0])


def test_integrate_vectorized_callable():
    calls = []

    def f(x, y):
        calls.append(np.shape(x))
        return np.ones_like(x)

    assert integrate(COMPOSITE, f) == pytest.approx(1.0)
    assert calls == [(14,)]  # one vectorized evaluation


def test_rules_refuse_writes():
    for rule in (COMPOSITE, CORNERS):
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0


@pytest.mark.parametrize("n", [64, 256])
def test_rules_match_first_element_rule_mapped_back(n):
    """Bit for bit, the rules as placed on element 0 of an n-by-n unit mesh and mapped back."""
    mesh = StructuredMesh(n, n)
    hx, hy = mesh.hx, mesh.hy
    corners = np.array([[0.0, 0.0], [hx, 0.0], [hx, hy], [0.0, hy]])
    centre = 0.5 * np.array([hx, hy])
    physical = np.vstack([_TRI_BARY @ corners[[0, 1, 2]], _TRI_BARY @ corners[[0, 2, 3]]])
    weights = np.concatenate([0.5 * (hx * hy) * _TRI_FRACS] * 2)
    for old_points, old_weights, lumped in (
        (physical, weights, False),
        (corners, np.full(4, 0.25 * (hx * hy)), True),
    ):
        local = (old_points - centre) / centre
        w, xi, eta = _local_rule(mesh, lumped)
        np.testing.assert_array_equal(xi, local[:, 0])
        np.testing.assert_array_equal(eta, local[:, 1])
        np.testing.assert_array_equal(w, old_weights)
    q = VelocitySpace(mesh, HMZ).quad
    offsets = physical - centre
    np.testing.assert_array_equal(q.x, mesh.element_centers()[:, 0, None] + offsets[:, 0])
    np.testing.assert_array_equal(q.y, mesh.element_centers()[:, 1, None] + offsets[:, 1])
    np.testing.assert_array_equal(q.weights, weights)
