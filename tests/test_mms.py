"""Manufactured solutions: symbolic re-derivation oracle and residual gates.

The symbolic oracle rebuilds each example from its displacement alone:
v = u_t, sigma solves sigma + sigma_t = C eps(v) with the example's time
profile, f = rho v_t - div sigma.  Everything the package evaluates
numerically is compared against lambdified sympy expressions, and the
two governing equations are verified to vanish identically.
"""

import numpy as np
import pytest
import sympy as sym
from fehelpers import ResidualReport, reference_fields, verify_residuals

from viscowave.fespace import FAMILIES, StressSpace, VelocitySpace
from viscowave.material import IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import Separable, exact_fields
from viscowave.symmetry import TRIVIAL, find_group

X, Y, T = sym.symbols("x y t", positive=False)


def c_eps(u1, u2, mu=1, lam=1):
    """Voigt components of C eps(u) for isotropic (mu, lam)."""
    e11 = sym.diff(u1, X)
    e22 = sym.diff(u2, Y)
    e12 = (sym.diff(u1, Y) + sym.diff(u2, X)) / 2
    return (
        (2 * mu + lam) * e11 + lam * e22,
        lam * e11 + (2 * mu + lam) * e22,
        2 * mu * e12,
    )


def displacement(example):
    if example == 1:
        g = lambda z: z**2 * (z - 1) ** 2
        u1 = -sym.exp(-T) * g(X) * sym.diff(g(Y), Y)
        u2 = -sym.exp(-T) * g(Y) * sym.diff(g(X), X)
    elif example == 2:
        s = lambda z: sym.sin(sym.pi * z)
        u1 = -sym.exp(-T) * s(X) * s(Y)
        u2 = u1
    elif example == 3:
        p = lambda z: z ** sym.Rational(3, 2) - z ** sym.Rational(5, 2)
        u1 = sym.exp(T) * sym.sin(sym.pi * X) * p(Y)
        u2 = sym.exp(T) * sym.sin(sym.pi * Y) * p(X)
    else:
        raise AssertionError(example)
    return u1, u2


def symbolic_solution(example):
    """(u, v, sigma, f) as sympy expressions, derived only from u."""
    u1, u2 = displacement(example)
    v1, v2 = sym.diff(u1, T), sym.diff(u2, T)
    s = c_eps(v1, v2)
    if example in (1, 2):
        # v carries e^{-t}: sigma = t C eps(v) solves sigma + sigma_t = C eps(v)
        sigma = tuple(T * c for c in s)
    else:
        # v = u here, so sigma_t = sigma and 2 sigma = C eps(v)
        sigma = tuple(c / 2 for c in s)
    f1 = sym.diff(v1, T) - (sym.diff(sigma[0], X) + sym.diff(sigma[2], Y))
    f2 = sym.diff(v2, T) - (sym.diff(sigma[2], X) + sym.diff(sigma[1], Y))
    return (u1, u2), (v1, v2), sigma, (f1, f2)


@pytest.mark.parametrize("example", [1, 2, 3])
def test_symbolic_pde_identities(example):
    # the derived fields satisfy both governing equations identically
    _, (v1, v2), sigma, (f1, f2) = symbolic_solution(example)
    s_cons = c_eps(v1, v2)
    for k in range(3):
        resid = sigma[k] + sym.diff(sigma[k], T) - s_cons[k]
        assert sym.simplify(resid) == 0, (example, k)
    mom1 = sym.diff(v1, T) - (sym.diff(sigma[0], X) + sym.diff(sigma[2], Y)) - f1
    mom2 = sym.diff(v2, T) - (sym.diff(sigma[2], X) + sym.diff(sigma[1], Y)) - f2
    assert sym.simplify(mom1) == 0
    assert sym.simplify(mom2) == 0


@pytest.mark.parametrize("example", [1, 2, 3])
def test_fields_match_symbolic_oracle(example):
    _, (v1, v2), sigma, (f1, f2) = symbolic_solution(example)
    lam = lambda e: sym.lambdify((X, Y, T), e, "numpy")
    fv = (lam(v1), lam(v2))
    fs = tuple(lam(c) for c in sigma)
    ff = (lam(f1), lam(f2))

    sol = exact_fields(example)
    rng = np.random.default_rng(example)
    # keep away from the singular edges of the reduced-regularity example
    lo = 0.05 if example == 3 else 0.0
    x = rng.uniform(lo, 1.0, size=200)
    y = rng.uniform(lo, 1.0, size=200)
    t = rng.uniform(0.0, 1.0, size=200)

    def cmp(mine, oracle, what, n):
        got = np.asarray(mine(x, y, t))
        want = np.stack([o(x, y, t) for o in oracle], axis=-1)
        assert got.shape == (200, n)
        np.testing.assert_allclose(got, want, atol=5e-13, err_msg=f"{example}:{what}")

    cmp(sol.v, fv, "v", 2)
    cmp(sol.sigma, fs, "sigma", 3)
    cmp(sol.f, ff, "f", 2)


@pytest.mark.parametrize("example", [1, 2, 3])
def test_homogeneous_displacement_boundary(example):
    # the displacement is the oracle's, from which v, sigma and f are derived
    u1, u2 = displacement(example)
    fu = [sym.lambdify((X, Y, T), c, "numpy") for c in (u1, u2)]

    def u(x, y, t):
        return np.stack([np.broadcast_to(c(x, y, t), x.shape) for c in fu], axis=-1)

    sol = exact_fields(example)
    t = np.linspace(0.0, 1.0, 7)
    s = np.linspace(0.0, 1.0, 23)
    for tt in t:
        for xb, yb in [
            (s, np.zeros_like(s)),
            (s, np.ones_like(s)),
            (np.zeros_like(s), s),
            (np.ones_like(s), s),
        ]:
            np.testing.assert_allclose(u(xb, yb, tt), 0.0, atol=1e-14)
            np.testing.assert_allclose(sol.v(xb, yb, tt), 0.0, atol=1e-14)


@pytest.mark.parametrize("example,zero_sigma0", [(1, True), (2, True), (3, False)])
def test_initial_data(example, zero_sigma0):
    sol = exact_fields(example)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0.01, 0.99, size=(2, 50))
    s0 = np.asarray(sol.sigma(x, y, 0.0))
    if zero_sigma0:
        np.testing.assert_allclose(s0, 0.0, atol=1e-15)
    else:
        assert np.abs(s0).max() > 1e-3


def test_example2_center_symmetry():
    sol = exact_fields(2)
    s = np.asarray(sol.sigma(0.5, 0.5, 0.7))
    assert s[0] == pytest.approx(0.0, abs=1e-14)
    assert s[1] == pytest.approx(0.0, abs=1e-14)


# ------------------------------------------------------------- residual gates


@pytest.mark.parametrize("example", [1, 2])
def test_residuals_smooth(example):
    rep = verify_residuals(exact_fields(example), n_samples=400, seed=12)
    assert isinstance(rep, ResidualReport)
    assert rep.momentum <= 1e-8
    assert rep.constitutive <= 1e-8


def test_residuals_reduced_regularity():
    rep = verify_residuals(exact_fields(3), n_samples=400, seed=12)
    assert rep.momentum <= 1e-8
    assert rep.constitutive <= 1e-8


def test_residuals_with_forced_material():
    # force=True recomputes only the body force: momentum balance holds for
    # the new density, while the constitutive residual exposes the mismatch
    mat = IsotropicMaterial(rho=2.0, mu=3.0, lam=0.5)
    sol = exact_fields(2, material=mat, force=True)
    rep = verify_residuals(sol, material=mat, n_samples=300, seed=4)
    assert rep.momentum <= 1e-8
    assert rep.constitutive > 1e-2


def test_residuals_catch_corruption():
    import dataclasses

    sol = exact_fields(1)
    bad = dataclasses.replace(
        sol, sigma=lambda x, y, t: 1.001 * np.asarray(sol.sigma(x, y, t))
    )
    rep = verify_residuals(bad, n_samples=200, seed=12)
    assert max(rep.momentum, rep.constitutive) > 1e-5


def test_residuals_deterministic_in_seed():
    r1 = verify_residuals(exact_fields(1), n_samples=100, seed=3)
    r2 = verify_residuals(exact_fields(1), n_samples=100, seed=3)
    assert r1 == r2


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        exact_fields(4)


def test_nonunit_material_requires_force():
    with pytest.raises(ValueError):
        exact_fields(1, material=IsotropicMaterial(mu=2.0))
    # unit material explicitly is fine
    exact_fields(1, material=IsotropicMaterial())


# ------------------------------------------------ time-separable field storage

FIELDS = ("v", "sigma", "f")


def _interior_points(example, n, seed):
    rng = np.random.default_rng(seed)
    lo = 0.05 if example == 3 else 0.0
    return rng.uniform(lo, 1.0, size=n), rng.uniform(lo, 1.0, size=n), rng.uniform(0.0, 1.0, n)


def _assert_fields_match(sol, ref, x, y, t):
    for name in FIELDS:
        got, want = getattr(sol, name)(x, y, t), ref[name](x, y, t)
        assert got.shape == want.shape, name
        err = np.abs(got - want).max()
        assert err <= 1e-14 * np.abs(want).max(), (sol.example, name, err)


@pytest.mark.parametrize("example", [1, 2, 3])
@pytest.mark.parametrize("rho", [1.0, 2.5])
def test_separable_fields_match_reference_closures(example, rho):
    mat = IsotropicMaterial(rho=rho)
    sol = exact_fields(example, mat, force=rho != 1.0)
    ref = reference_fields(example, rho)
    x, y, t = _interior_points(example, 200, seed=example)
    _assert_fields_match(sol, ref, x, y, t)  # array t, same shape as the points
    _assert_fields_match(sol, ref, x, y, 0.37)  # scalar t
    _assert_fields_match(sol, ref, x[0], y[0], t)  # scalar point, array t
    _assert_fields_match(sol, ref, x[0], y[0], 0.81)  # all scalars


def _counted(factor, calls):
    def wrapped(x, y):
        calls.append(factor)
        return factor(x, y)

    return wrapped


def _read_only(a):
    a = np.array(a, float)
    a.flags.writeable = False
    return a


def _count_factor_calls(fields, calls):
    """Append each spatial factor of ``fields`` to ``calls`` whenever it is evaluated."""
    for factor in {factor for field in fields for _, factor in field.terms}:
        fn = factor.fn
        factor.fn = lambda x, y, factor=factor, fn=fn: calls.append(factor) or fn(x, y)


def test_read_only_points_evaluate_each_factor_once():
    sol = exact_fields(1)
    calls = []
    _count_factor_calls((sol.f, sol.sigma), calls)
    x, y, _ = _interior_points(1, 30, seed=5)
    x, y = _read_only(x), _read_only(y)
    ref = reference_fields(1)
    for t in (0.0, 0.25, 0.5, 1.0):
        np.testing.assert_allclose(sol.f(x, y, t), ref["f"](x, y, t), rtol=1e-14, atol=1e-16)
        sol.sigma(x, y, t)
    assert len(calls) == 3  # V and D for f, S for sigma
    # a new point set is evaluated, and then kept in turn
    x2 = _read_only(x[::-1])
    for t in (0.5, 0.75):
        np.testing.assert_allclose(
            sol.f(x2, y, t), ref["f"](x2, y, t), rtol=1e-14, atol=1e-16
        )
    assert len(calls) == 5


@pytest.mark.parametrize("example", [1, 2, 3])
def test_velocity_factor_is_shared_by_v_and_f(example):
    """V (U in example 3) is one factor of v and f, evaluated once for both."""
    sol = exact_fields(example)
    ((_, velocity),) = sol.v.terms
    assert any(factor is velocity for _, factor in sol.f.terms)
    calls = []
    _count_factor_calls((sol.v, sol.f, sol.sigma), calls)
    orbits = StructuredMesh(4).orbits(TRIVIAL)
    x, y = orbits.x, orbits.y
    for t in (0.0, 0.5, 1.0):
        for field in (sol.v, sol.f, sol.sigma):
            field(x, y, t)
    assert calls.count(velocity) == 1
    assert len(calls) == len(set(calls)) == 3  # V or U, S and D


@pytest.mark.parametrize("example", [1, 2, 3])
def test_fields_on_many_points_match_one_evaluation_bit_for_bit(example):
    # The kept factor values are made, and the terms of f summed, on all
    # 65^2 elements' points at once.
    orbits = StructuredMesh(65).orbits(TRIVIAL)
    x, y = orbits.x, orbits.y
    sol = exact_fields(example)
    calls = []
    _count_factor_calls((sol.v, sol.f, sol.sigma), calls)
    for t in (0.0, 0.3):
        for field in (sol.v, sol.f, sol.sigma):
            np.testing.assert_array_equal(field(x, y, t), field(x.copy(), y.copy(), t))
    # kept: 3 factors, each made once; the copies: 4 whole factor calls per time
    assert len(calls) == 3 + 4 * 2


def test_writable_points_are_evaluated_on_every_call():
    calls = []
    field = Separable((np.exp, _counted(lambda x, y: np.stack([x * y, x + y], -1), calls)))
    x = np.linspace(0.1, 0.9, 7)
    y = np.linspace(0.2, 0.8, 7)
    first = field(x, y, 0.3)
    x *= 2.0  # in place: same object, new values
    np.testing.assert_array_equal(
        field(x, y, 0.3), np.exp(0.3) * np.stack([x * y, x + y], -1)
    )
    assert not np.array_equal(first, field(x, y, 0.3))
    # a read-only view sees writes to its writable base, so it is not kept either
    base = np.linspace(0.1, 0.9, 7)
    view = base[:]
    view.flags.writeable = False
    field(view, y, 0.3)
    base += 1.0
    np.testing.assert_array_equal(
        field(view, y, 0.3), np.exp(0.3) * np.stack([view * y, view + y], -1)
    )
    assert len(calls) == 5


def test_quadrature_points_refuse_writes():
    mesh = StructuredMesh(2)
    for space in (StressSpace(mesh, "hmz"), VelocitySpace(mesh, "nedelec-q1q0")):
        for points in (space.quad.x, space.quad.y):
            with pytest.raises(ValueError):
                points[0, 0] = 0.5


@pytest.mark.parametrize("family", FAMILIES)
def test_spaces_of_one_mesh_share_their_quadrature_points(family):
    mesh = StructuredMesh(3)
    sq, vq = StressSpace(mesh, family).quad, VelocitySpace(mesh, family).quad
    assert sq.x is vq.x is mesh.orbits(TRIVIAL).x
    assert sq.y is vq.y is mesh.orbits(TRIVIAL).y
    for points in (sq.x, sq.y):
        assert points.base is None and not points.flags.writeable
    # another mesh, even an equal one, has points of its own
    other = VelocitySpace(StructuredMesh(3), family).quad
    assert other.x is not sq.x
    np.testing.assert_array_equal(other.x, sq.x)
    # The kernels of a run with a symmetry group share one frozen pair too,
    # the representatives' points, and the full set is never built.
    mesh = StructuredMesh(3)
    sol = exact_fields(1)
    group = find_group((sol.sigma, sol.v, sol.f))
    sq, vq = StressSpace(mesh, family, group).quad, VelocitySpace(mesh, family, group).quad
    assert sq.x is vq.x is mesh.orbits(group).x and len(sq.x) == 4
    assert sq.y is vq.y is mesh.orbits(group).y
    for points in (sq.x, sq.y):
        assert points.base is None and not points.flags.writeable
    assert list(mesh._orbits) == [group]
