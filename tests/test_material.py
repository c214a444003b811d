"""Isotropic stiffness/compliance in Voigt form and the weighted inner product."""

import numpy as np
import pytest

from viscowave.material import IsotropicMaterial

from fehelpers import (
    VoigtTensor,
    apply_compliance,
    apply_stiffness,
    compliance_bounds,
    stiffness_matrix,
    voigt_inner,
)


def test_stiffness_matrix_unit_material():
    m = IsotropicMaterial()
    np.testing.assert_allclose(
        stiffness_matrix(m), [[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]]
    )


def test_compliance_is_stiffness_inverse():
    # inverse must hold in the Voigt representation actually used:
    # C^{-1}(C eps) = eps for the (e11, e22, e12) component vector
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu, lam = rng.uniform(0.2, 5.0), rng.uniform(0.0, 5.0)
        m = IsotropicMaterial(mu=mu, lam=lam)
        eps = rng.standard_normal(3)
        back = m.compliance_matrix() @ (stiffness_matrix(m) @ eps)
        np.testing.assert_allclose(back, eps, atol=1e-13)


def test_apply_stiffness_componentwise():
    m = IsotropicMaterial(mu=2.0, lam=3.0)
    out = apply_stiffness(m, np.array([1.0, 0.0, 0.5]))
    # sigma11 = (2mu+lam) e11 + lam e22, sigma12 = 2 mu e12
    np.testing.assert_allclose(out, [7.0, 3.0, 2.0])


def test_apply_compliance_trace_split():
    # hydrostatic stress maps to hydrostatic strain with factor 1/(2mu+2lam)
    m = IsotropicMaterial(mu=1.5, lam=0.5)
    out = apply_compliance(m, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(out, [0.25, 0.25, 0.0])
    # pure shear sees 1/(2mu)
    out = apply_compliance(m, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0 / 3.0])


def test_apply_batched_shapes():
    m = IsotropicMaterial()
    arr = np.random.default_rng(0).standard_normal((4, 7, 3))
    out = apply_stiffness(m, arr)
    assert out.shape == arr.shape
    np.testing.assert_allclose(out[2, 3], apply_stiffness(m, arr[2, 3]))


def test_voigt_inner_doubles_shear():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    # s:t with symmetric off-diagonals counted twice
    assert voigt_inner(a, b) == pytest.approx(4.0 + 10.0 + 2.0 * 18.0)


def test_voigt_inner_matches_full_tensor_contraction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        A = np.array([[a[0], a[2]], [a[2], a[1]]])
        B = np.array([[b[0], b[2]], [b[2], b[1]]])
        assert voigt_inner(a, b) == pytest.approx(np.tensordot(A, B), rel=1e-13)


def test_compliance_bounds_unit_material():
    M0, M1 = compliance_bounds(IsotropicMaterial())
    assert M0 == pytest.approx(0.25)
    assert M1 == pytest.approx(0.5)


def test_compliance_bounds_are_eigenvalue_bounds():
    # M0 |t|^2 <= (C^{-1} t):t <= M1 |t|^2 in the doubled-shear inner product
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = IsotropicMaterial(mu=rng.uniform(0.3, 4.0), lam=rng.uniform(0.0, 4.0))
        M0, M1 = compliance_bounds(m)
        Minv = m.compliance_matrix()
        for _ in range(40):
            t = rng.standard_normal(3)
            tt = voigt_inner(t, t)
            ct = voigt_inner(Minv @ t, t)
            assert M0 * tt - 1e-12 <= ct <= M1 * tt + 1e-12


def test_voigt_tensor_passthrough():
    m = IsotropicMaterial()
    s = apply_stiffness(m, VoigtTensor(1.0, 0.0, 0.0))
    np.testing.assert_allclose(np.asarray(s), [3.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho=0.0),
        dict(rho=-1.0),
        dict(mu=0.0),
        dict(lam=-0.5),
        dict(rho=np.inf),
        dict(mu=np.nan),
        dict(lam=np.inf),
        dict(mu=1e-300),  # 2 mu + 2 lam rounds to 2 lam: singular compliance
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        IsotropicMaterial(**kwargs)

