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

from viscowave.analysis import StressErrorEvaluator, VelocityErrorEvaluator
from viscowave.assembly import assemble_load
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


def _counted(fields, calls):
    """``fields`` with each spatial factor in one that appends itself to
    ``calls`` when evaluated; a factor two fields share stays shared."""
    made = {}

    def counted(factor):
        if factor not in made:
            def evaluate(x, y):
                calls.append(evaluate)
                return factor(x, y)

            made[factor] = evaluate
        return made[factor]

    return [Separable(*((c, counted(F)) for c, F in field.terms)) for field in fields]


def test_read_only_points_evaluate_each_factor_once():
    # A kernel's points are read-only and its own: over several times it
    # evaluates V, D and S once each; another mesh's kernel evaluates V and
    # D on its points, and then keeps them in turn.
    sol = exact_fields(1)
    calls = []
    sigma, f = _counted((sol.sigma, sol.f), calls)
    ref = reference_fields(1)
    mesh = StructuredMesh(3)
    stress, velocity = StressSpace(mesh, "hmz").quad, VelocitySpace(mesh, "hmz").quad
    for q in (stress, velocity):
        assert not q.x.flags.writeable and not q.y.flags.writeable
    for t in (0.0, 0.25, 0.5, 1.0):
        want = ref["f"](velocity.x, velocity.y, t).reshape(len(velocity.x), -1)
        np.testing.assert_allclose(velocity.values(f, t), want, rtol=1e-14, atol=1e-16)
        stress.values(sigma, t)
    assert len(calls) == 3  # V and D for f, S for sigma
    other = VelocitySpace(StructuredMesh(3), "hmz").quad
    for t in (0.5, 0.75):
        want = ref["f"](other.x, other.y, t).reshape(len(other.x), -1)
        np.testing.assert_allclose(other.values(f, t), want, rtol=1e-14, atol=1e-16)
    assert len(calls) == 5


@pytest.mark.parametrize("example", [1, 2, 3])
def test_velocity_factor_is_shared_by_v_and_f(example):
    """V (U in example 3) is one factor of v and f, evaluated once for both."""
    # Over several times, the stress norm reads S on the stress kernel and
    # the velocity norm and the load read V and D on the velocity kernel;
    # another mesh's kernel evaluates its own.
    sol = exact_fields(example)
    calls = []
    sigma, v, f = _counted((sol.sigma, sol.v, sol.f), calls)
    ((_, S),), ((_, V),), ((_, V_f), (_, D)) = sigma.terms, v.terms, f.terms
    assert V_f is V
    group = find_group((sol.sigma, sol.v, sol.f))
    mesh = StructuredMesh(4)
    ss, vs = StressSpace(mesh, "hmz", group), VelocitySpace(mesh, "hmz", group)
    stress_err = StressErrorEvaluator(ss, IsotropicMaterial())
    vel_err = VelocityErrorEvaluator(vs, IsotropicMaterial())
    alpha, beta = np.zeros(ss.dim), np.zeros(vs.dim)

    def called(field):  # not a Separable: called on the points, nothing kept
        return lambda x, y, t: field(x, y, t)

    for t in (0.0, 0.5, 1.0):
        assert stress_err(alpha, sigma, t) == stress_err(alpha, called(sol.sigma), t)
        assert vel_err(beta, v, t) == vel_err(beta, called(sol.v), t)
        np.testing.assert_array_equal(assemble_load(vs, f, t), assemble_load(vs, called(sol.f), t))
    assert calls == [S, V, D]
    assert set(ss.quad.factors) == {S} and set(vs.quad.factors) == {V, D}
    other = VelocitySpace(StructuredMesh(4), "hmz", group)
    for t in (0.0, 0.5):
        assemble_load(other, f, t)
    assert len(calls) == 5 and calls.count(V) == calls.count(D) == 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("example", [1, 2, 3])
def test_kernel_values_of_a_separable_field_are_those_of_a_call(example, family):
    # The kept factor values are made, and the terms of f summed, on all
    # 65^2 elements' points at once, and on the run's representatives.
    sol = exact_fields(example)
    mesh = StructuredMesh(65)
    for group in (TRIVIAL, find_group((sol.sigma, sol.v, sol.f))):
        stress, velocity = StressSpace(mesh, family, group), VelocitySpace(mesh, family, group)
        for q, fields in ((stress.quad, (sol.sigma,)), (velocity.quad, (sol.v, sol.f))):
            for t in (0.0, 0.3):
                for field in fields:
                    want = field(q.x.copy(), q.y.copy(), t).reshape(len(q.x), -1)
                    np.testing.assert_array_equal(q.values(field, t), want)
        assert len(stress.quad.factors) == 1 and len(velocity.quad.factors) == 2


def test_a_separable_field_called_directly_keeps_nothing():
    calls = []

    def factor(x, y):
        calls.append(None)
        return np.stack([x * y, x + y], -1)

    field = Separable((np.exp, factor))
    orbits = StructuredMesh(3).orbits(TRIVIAL)
    x, y = orbits.x, orbits.y
    for t in (0.3, 0.3, 0.7):
        np.testing.assert_array_equal(field(x, y, t), np.exp(t) * factor(x, y))
    assert len(calls) == 6
    assert vars(field) == {"terms": ((np.exp, factor),)}


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
