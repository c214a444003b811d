"""Error norms, convergence orders, energy bookkeeping, inf-sup diagnostic."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from viscowave import analysis
from viscowave.analysis import (
    StressErrorEvaluator,
    VelocityErrorEvaluator,
    _infsup_constant,
    convergence_orders,
    energy,
    infsup_constants,
)
from viscowave.assembly import (
    assemble_mass_stress,
    assemble_mass_velocity,
    assemble_system,
)
from viscowave.fespace import (
    FAMILIES,
    HMZ,
    NEDELEC,
    StressSpace,
    VelocitySpace,
)
from viscowave.material import VOIGT_DOT, IsotropicMaterial
from viscowave.mesh import StructuredMesh
from viscowave.mms import exact_fields
from viscowave.timestepper import SimState

from fehelpers import einsum_error, energy_residuals, eval_stress, eval_velocity, local_coords

UNIT = IsotropicMaterial()


def discrete_stress_field(mesh, ss, coeffs):
    def field(x, y):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (3,))
        flat = out.reshape(-1, 3)
        xf = x.reshape(-1)
        yf = np.asarray(y, dtype=float).reshape(-1)
        for k, (xk, yk) in enumerate(zip(xf, yf)):
            e = int(
                min(xk // mesh.hx, mesh.nx - 1)
                + min(yk // mesh.hy, mesh.ny - 1) * mesh.nx
            )
            xi, eta = local_coords(mesh, e, xk, yk)
            flat[k] = eval_stress(ss, coeffs, e, xi, eta)
        return out

    return field


@pytest.mark.parametrize("family", FAMILIES)
def test_stress_error_is_a_norm_of_coefficient_gap(family):
    # when the reference field is itself a discrete member, the quadrature
    # error norm must equal the A-norm of the coefficient difference
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, family)
    A = assemble_mass_stress(ss, UNIT)  # consistent, never lumped
    rng = np.random.default_rng(6)
    c0 = rng.standard_normal(ss.dim)
    c1 = rng.standard_normal(ss.dim)
    field = discrete_stress_field(mesh, ss, c0)
    err = StressErrorEvaluator(ss, UNIT)(c1, lambda x, y, t=None: field(x, y), 0.0)
    d = c1 - c0
    assert err == pytest.approx(np.sqrt(d @ (A @ d)), rel=1e-12)


def test_velocity_error_is_c_norm_of_coefficient_gap():
    mesh = StructuredMesh(2, 2)
    vs = VelocitySpace(mesh, HMZ)
    mat = IsotropicMaterial(rho=2.5)
    C = assemble_mass_velocity(vs, mat)
    rng = np.random.default_rng(8)
    c0 = rng.standard_normal(vs.dim)
    c1 = rng.standard_normal(vs.dim)

    def field(x, y):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (2,))
        flat = out.reshape(-1, 2)
        xf = x.reshape(-1); yf = np.asarray(y, dtype=float).reshape(-1)
        for k, (xk, yk) in enumerate(zip(xf, yf)):
            e = int(
                min(xk // mesh.hx, mesh.nx - 1)
                + min(yk // mesh.hy, mesh.ny - 1) * mesh.nx
            )
            xi, eta = local_coords(mesh, e, xk, yk)
            flat[k] = eval_velocity(vs, c0, e, xi, eta)
        return out

    err = VelocityErrorEvaluator(vs, mat)(c1, lambda x, y, t=None: field(x, y), 0.0)
    d = c1 - c0
    assert err == pytest.approx(np.sqrt(d @ (C @ d)), rel=1e-12)


def test_evaluators_against_zero_field_give_coefficient_norms():
    # the distance to the zero field is the consistent-mass norm of the
    # coefficients, and an evaluator gives the same value on every call
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(ss.dim)
    b = rng.standard_normal(vs.dim)
    sfield = lambda x, y, t: np.zeros(np.shape(x) + (3,))
    vfield = lambda x, y, t: np.zeros(np.shape(x) + (2,))
    A = assemble_mass_stress(ss, UNIT)
    C = assemble_mass_velocity(vs, UNIT)
    stress_err = StressErrorEvaluator(ss, UNIT)
    vel_err = VelocityErrorEvaluator(vs, UNIT)
    assert stress_err(a, sfield, 0.0) == pytest.approx(np.sqrt(a @ (A @ a)), rel=1e-12)
    assert vel_err(b, vfield, 0.0) == pytest.approx(np.sqrt(b @ (C @ b)), rel=1e-12)
    assert stress_err(a, sfield, 0.0) == stress_err(a, sfield, 0.0)
    assert vel_err(b, vfield, 0.0) == vel_err(b, vfield, 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_evaluators_match_einsum_reference(family):
    # In blocks of NORM_BLOCK = 256 elements, 64 elements fit in one block,
    # 289 end in a partial block and 529 span three.
    mat = IsotropicMaterial(rho=2.5, mu=0.7, lam=1.3)
    solution = exact_fields(1)
    rng = np.random.default_rng(11)
    for n in (8, 17, 23):
        mesh = StructuredMesh(n, n)
        ss, vs = StressSpace(mesh, family), VelocitySpace(mesh, family)
        stress_err = StressErrorEvaluator(ss, mat)
        vel_err = VelocityErrorEvaluator(vs, mat)
        for t in (0.0, 0.37, 1.0):
            a = rng.standard_normal(ss.dim)
            b = rng.standard_normal(vs.dim)
            want = einsum_error(ss, VOIGT_DOT @ mat.compliance_matrix(), a, solution.sigma, t)
            assert stress_err(a, solution.sigma, t) == pytest.approx(want, rel=1e-13)
            want = einsum_error(vs, mat.rho * np.eye(2), b, solution.v, t)
            assert vel_err(b, solution.v, t) == pytest.approx(want, rel=1e-13)


def test_error_zero_for_exact_member():
    mesh = StructuredMesh(3, 3)
    ss = StressSpace(mesh, HMZ)
    rng = np.random.default_rng(4)
    c = rng.standard_normal(ss.dim)
    field = discrete_stress_field(mesh, ss, c)
    err = StressErrorEvaluator(ss, UNIT)(c, lambda x, y, t=None: field(x, y), 0.0)
    assert err <= 1e-12


# ------------------------------------------------------------------- orders


def test_convergence_orders_recovers_exponent():
    ns = [4, 8, 16, 32]
    errs = [0.5 * (1.0 / n) ** 1.5 for n in ns]
    orders = convergence_orders(list(zip(ns, errs)))
    np.testing.assert_allclose(orders, 1.5, rtol=1e-12)
    assert len(orders) == 3


def test_convergence_orders_nonuniform_refinement():
    ms = [4, 8, 12, 16]
    errs = [(1.0 / m) ** 2 for m in ms]
    np.testing.assert_allclose(
        convergence_orders(list(zip(ms, errs))), 2.0, rtol=1e-12
    )


@pytest.mark.parametrize(
    "pairs",
    [
        [(4, 0.1)],  # too short
        [(4, 0.1), (4, 0.05)],  # parameters not increasing
        [(8, 0.1), (4, 0.05)],  # decreasing
        [(4, 0.1), (8, -0.05)],  # negative error
        [(4, 0.0), (8, 0.0)],  # zero error has no order
        [(0, 0.1), (4, 0.05)],  # zero parameter
        [(4, 0.1), (float("nan"), 0.05)],  # not a number
    ],
)
def test_convergence_orders_validation(pairs):
    with pytest.raises(ValueError):
        convergence_orders(pairs)


# ------------------------------------------------------------------- energy


def test_energy_closed_form():
    # interpolated sigma = I and v = (c1, c2): E = 0.5 + rho (c1^2 + c2^2)
    mesh = StructuredMesh(3, 3)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    mat = IsotropicMaterial(rho=2.0)
    system = assemble_system(ss, vs, mat)
    alpha = ss.interpolate(
        lambda x, y: np.broadcast_to([1.0, 1.0, 0.0], np.shape(x) + (3,))
    )
    beta = vs.project(lambda x, y: np.broadcast_to([0.3, -0.4], np.shape(x) + (2,)))
    state = SimState(alpha=alpha, beta=beta)
    assert energy(system, state) == pytest.approx(
        0.5 + 2.0 * (0.3**2 + 0.4**2), rel=1e-12
    )


def test_energy_uses_scheme_mass():
    # under lumping the energy must be measured with the lumped A
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    sys_l = assemble_system(ss, vs, UNIT)
    sys_c = dataclasses.replace(sys_l, A=assemble_mass_stress(ss, UNIT))
    rng = np.random.default_rng(2)
    state = SimState(alpha=rng.standard_normal(ss.dim), beta=np.zeros(vs.dim))
    el = energy(sys_l, state)
    ec = energy(sys_c, state)
    assert el == pytest.approx(
        state.alpha @ (sys_l.A @ state.alpha), rel=1e-13
    )
    assert el != pytest.approx(ec, rel=1e-6)  # genuinely different quadratures


def test_energy_residuals_contract():
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, HMZ)
    vs = VelocitySpace(mesh, HMZ)
    system = assemble_system(ss, vs, UNIT)
    zeros = SimState(alpha=np.zeros(ss.dim), beta=np.zeros(vs.dim))
    with pytest.raises(ValueError):
        energy_residuals(system, [zeros, zeros.copy()], 0.1)  # zero initial energy
    with pytest.raises(ValueError):
        energy_residuals(system, [zeros], 0.1)  # too short
    # a frozen (non-stepped) trajectory misses the dissipation term entirely,
    # so the defect equals 2 dt ||alpha||_A^2 / E0 exactly
    rng = np.random.default_rng(5)
    state = SimState(alpha=rng.standard_normal(ss.dim), beta=np.zeros(vs.dim))
    out = energy_residuals(system, [state, state.copy()], 0.1)
    aa = state.alpha @ (system.A @ state.alpha)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(2 * 0.1 * aa / aa, rel=1e-12)


# ------------------------------------------------------------------ inf-sup


# Self-generated regression baselines (dense computation, n = 2, 4, 8).
# The enriched pair is mesh-independent.  The vertex-continuous pair decays
# like h: from n = 8 on each refinement about halves its constant (0.3849
# at n = 8, 0.2022 at n = 16), although its stress converges like h^1.5.
INFSUP_BASELINES = {
    NEDELEC: [0.897758, 0.654616, 0.384913],
    HMZ: [0.969277, 0.967565, 0.967226],
}


def test_vertex_pair_constant_halves_from_n8():
    b8, b16 = infsup_constants(NEDELEC, [8, 16], max_n=16)
    assert b8 == pytest.approx(INFSUP_BASELINES[NEDELEC][2], abs=1e-6)
    assert 1.8 < b8 / b16 < 2.0


@pytest.mark.parametrize("family", FAMILIES)
def test_infsup_regression(family):
    betas = infsup_constants(family, [2, 4, 8])
    assert all(b > 0.05 for b in betas)
    np.testing.assert_allclose(betas, INFSUP_BASELINES[family], rtol=1e-4)


def test_infsup_mesh_independent_for_enriched_pair():
    betas = infsup_constants(HMZ, [2, 4, 8])
    # mesh-independence monitor: each refinement loses less than 20%
    for b0, b1 in zip(betas, betas[1:]):
        assert b1 >= 0.8 * b0


def test_infsup_cap_enforced():
    with pytest.raises(ValueError):
        infsup_constants(NEDELEC, [2, 16])


def test_infsup_zero_pairing_negative_control(monkeypatch):
    mesh = StructuredMesh(2, 2)
    ss = StressSpace(mesh, NEDELEC)
    vs = VelocitySpace(mesh, NEDELEC)
    Bzero = sp.csr_matrix((vs.dim, ss.dim))
    monkeypatch.setattr(analysis, "assemble_coupling", lambda ss, vs: Bzero)
    assert _infsup_constant(ss, vs) == 0.0
