"""Property tests for the reduced coupling and its polarization sum.

The closed form `conditional_polarization_sum` and the explicit
two-polarization sum `polarization_sum` are independent code paths (one uses
transversality algebraically, the other sums squares over a concrete basis);
agreeing to near machine precision over random geometries is the main
structural check on the coupling layer.
"""

import numpy as np
import pytest

from movingatom.coupling import (CouplingModel, conditional_polarization_sum,
                                 polarization_sum, reduced_coupling, shifted_velocity)
from movingatom.geometry import polarization_basis, rotate_basis
from movingatom.wavepacket import GaussianPacket, PointMass, expectation, project

rng = np.random.default_rng(771)


def random_direction():
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_standard_model_forces_flags_off():
    m = CouplingModel.standard()
    assert m.kind == "standard_dipole"
    assert not m.include_recoil_term and not m.apply_momentum_shift
    # even if a caller asks for them explicitly
    m2 = CouplingModel(kind="standard_dipole", include_recoil_term=True,
                       apply_momentum_shift=True)
    assert not m2.include_recoil_term and not m2.apply_momentum_shift


def test_model_labels():
    assert CouplingModel.roentgen().label == "roentgen"
    assert CouplingModel.standard().label == "standard"
    partial = CouplingModel(kind="roentgen", include_recoil_term=False,
                            apply_momentum_shift=True)
    assert "no_recoil" in partial.label


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CouplingModel(kind="minimal_coupling")


def test_shifted_velocity_formula_and_broadcast():
    n = np.array([0.0, 0.0, 1.0])
    beta = np.array([0.01, 0.0, 0.02])
    out = shifted_velocity(beta, 1.5, n, 1e-3)
    assert np.allclose(out, beta + 2 * 1e-3 * 1.5 * n, atol=1e-18)
    batch = rng.normal(scale=1e-2, size=(7, 3))
    xs = rng.uniform(0.5, 2.0, size=7)
    out = shifted_velocity(batch, xs, n, 1e-3)
    assert out.shape == (7, 3)
    for i in range(7):
        assert np.allclose(out[i], batch[i] + 2e-3 * xs[i] * n, atol=1e-18)


def test_reduced_coupling_matches_direct_formula():
    # G = (e_d.e_lam)(1 - n.beta_eff + eps x) + (e_d.n)(e_lam.beta_eff)
    model = CouplingModel.roentgen()
    for _ in range(300):
        n = random_direction()
        e_d = random_direction()
        basis = polarization_basis(n)
        e_lam = basis.e1 if rng.random() < 0.5 else basis.e2
        beta = rng.normal(scale=3e-2, size=3)
        x = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.0, 0.02)
        got = float(reduced_coupling(model, beta, x, n, e_lam, e_d, eps))
        beta_eff = beta + 2 * eps * x * n
        want = (np.dot(e_d, e_lam) * (1.0 - np.dot(n, beta_eff) + eps * x)
                + np.dot(e_d, n) * np.dot(e_lam, beta_eff))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_standard_coupling_is_pure_projection():
    model = CouplingModel.standard()
    n = random_direction()
    e_d = random_direction()
    basis = polarization_basis(n)
    beta = rng.normal(scale=0.05, size=3)
    g = float(reduced_coupling(model, beta, 1.7, n, basis.e2, e_d, 0.01))
    assert g == pytest.approx(float(np.dot(e_d, basis.e2)), rel=1e-15)


def test_closed_form_equals_basis_sum():
    # the headline identity, over random geometries and all model variants: the
    # closed form at a point mass (q0 at u = 0) against the explicit basis sum
    models = [
        CouplingModel.roentgen(),
        CouplingModel.standard(),
        CouplingModel(kind="roentgen", include_recoil_term=False, apply_momentum_shift=True),
        CouplingModel(kind="roentgen", include_recoil_term=True, apply_momentum_shift=False),
    ]
    for _ in range(250):
        model = models[rng.integers(len(models))]
        n = random_direction()
        e_d = random_direction()
        beta = rng.normal(scale=0.05, size=3)
        x = rng.uniform(0.1, 5.0)
        eps = rng.uniform(0.0, 0.05)
        closed = float(conditional_polarization_sum(model, x, n, e_d, eps,
                                                    project(PointMass(beta), n))[0])
        summed = float(polarization_sum(model, beta, x, n, e_d, eps))
        assert abs(closed - summed) <= 1e-13 * max(1.0, abs(closed))


def test_closed_form_keeps_precision_when_the_shift_dominates():
    # x = 100, eps = 0.01, theta = 45 deg: 2 eps x n dominates v and the bracket
    # 1 - delta - eps x vanishes; |v|^2 - (n.v)^2 lost 1.4e-10 relative here
    theta = np.radians(45.0)
    n = np.array([np.sin(theta), 0.0, np.cos(theta)])
    e_d = np.array([0.0, 0.0, 1.0])
    beta = np.array([0.0, 1e-3, 0.0])
    model = CouplingModel.roentgen()
    closed = float(conditional_polarization_sum(model, 100.0, n, e_d, 0.01,
                                                project(PointMass(beta), n))[0])
    summed = float(polarization_sum(model, beta, 100.0, n, e_d, 0.01))
    assert closed == pytest.approx(5e-7, rel=1e-13)  # c^2 |beta_perp|^2, c = e_d.n
    assert abs(closed - summed) <= 1e-13 * summed


def test_transverse_factor_keeps_precision_near_the_dipole_axis():
    # 0.5 deg from -e_d, 1 - (e_d.n)^2 cancels: it was 1.08e-12 relative off sin^2(theta),
    # and the roentgen q1 = k^2 |e_perp|^2 (the Lambda^2 coefficient) carried that error
    mp = pytest.importorskip("mpmath")
    theta = 3.1329000694622797
    n, e_d, x = np.array([np.sin(theta), 0.0, np.cos(theta)]), np.array([0.0, 0.0, 1.0]), [1.0]
    mp.mp.dps = 40
    sin2 = float(mp.sin(mp.mpf(theta)) ** 2)
    at_rest = project(PointMass(np.zeros(3)), n)
    values = (conditional_polarization_sum(CouplingModel.roentgen(), x, n, e_d, 0.0, at_rest)[2],
              conditional_polarization_sum(CouplingModel.standard(), x, n, e_d, 0.0, at_rest)[0],
              polarization_sum(CouplingModel.standard(), np.zeros(3), 1.0, n, e_d, 0.0))
    for value in values:  # q2 = |e_perp|^2 at rest; the standard sum is |e_perp|^2
        assert abs(float(np.ravel(value)[0]) - sin2) <= 1e-15 * sin2


def test_polarization_sum_gauge_invariance():
    # rotating the transverse basis must not change the sum of squares
    model = CouplingModel.roentgen()
    n = random_direction()
    e_d = random_direction()
    beta = rng.normal(scale=0.03, size=3)
    base = polarization_basis(n)
    ref = float(polarization_sum(model, beta, 1.3, n, e_d, 0.01, basis=base))
    for angle in rng.uniform(0, 2 * np.pi, size=12):
        rot = rotate_basis(base, float(angle))
        val = float(polarization_sum(model, beta, 1.3, n, e_d, 0.01, basis=rot))
        assert val == pytest.approx(ref, rel=1e-13)


def test_perpendicular_momentum_shift_flips_and_doubles():
    # For n . e_d = 0 the bracket is scalar: shift replaces +eps*x by -eps*x
    # on top of the recoil term, i.e. coefficient -1 = +1 - 2.
    n = np.array([1.0, 0.0, 0.0])
    e_d = np.array([0.0, 0.0, 1.0])
    x, eps, delta = 1.4, 0.02, 0.05
    beta = delta * n
    full = float(polarization_sum(CouplingModel.roentgen(), beta, x, n, e_d, eps))
    assert full == pytest.approx((1.0 - delta - eps * x) ** 2, rel=1e-13)
    no_shift = CouplingModel(kind="roentgen", include_recoil_term=True,
                             apply_momentum_shift=False)
    assert float(polarization_sum(no_shift, beta, x, n, e_d, eps)) == pytest.approx(
        (1.0 - delta + eps * x) ** 2, rel=1e-13)
    no_recoil = CouplingModel(kind="roentgen", include_recoil_term=False,
                              apply_momentum_shift=True)
    assert float(polarization_sum(no_recoil, beta, x, n, e_d, eps)) == pytest.approx(
        (1.0 - delta - 2.0 * eps * x) ** 2, rel=1e-13)


def test_transverse_velocity_drops_out_perpendicular():
    # with n.e_d = 0 only delta = n.beta enters the sum
    n = np.array([1.0, 0.0, 0.0])
    e_d = np.array([0.0, 0.0, 1.0])
    delta = 0.03
    a = float(polarization_sum(CouplingModel.roentgen(), delta * n, 1.2, n, e_d, 0.01))
    beta2 = delta * n + np.array([0.0, 0.04, 0.0])  # extra transverse motion
    b = float(polarization_sum(CouplingModel.roentgen(), beta2, 1.2, n, e_d, 0.01))
    assert a == pytest.approx(b, rel=1e-13)


def test_polarization_sum_broadcasts_over_batch():
    model = CouplingModel.roentgen()
    n = random_direction()
    e_d = random_direction()
    betas = rng.normal(scale=0.02, size=(11, 3))
    xs = rng.uniform(0.5, 2.0, size=11)
    batch = polarization_sum(model, betas, xs, n, e_d, 0.005)
    assert batch.shape == (11,)
    for i in range(11):
        single = float(polarization_sum(model, betas[i], float(xs[i]), n, e_d, 0.005))
        assert batch[i] == pytest.approx(single, rel=1e-14)


def test_epsilon_zero_is_bitwise_shift_free():
    model = CouplingModel.roentgen()
    n = random_direction()
    e_d = random_direction()
    beta = rng.normal(scale=0.02, size=3)
    no_shift = CouplingModel(kind="roentgen", include_recoil_term=True,
                             apply_momentum_shift=False)
    a = polarization_sum(model, beta, 1.1, n, e_d, 0.0)
    b = polarization_sum(no_shift, beta, 1.1, n, e_d, 0.0)
    assert float(a) == float(b)


@pytest.mark.parametrize("model", [CouplingModel.roentgen(), CouplingModel.standard(),
                                   CouplingModel(kind="roentgen", include_recoil_term=False),
                                   CouplingModel(kind="roentgen", apply_momentum_shift=False)],
                         ids=lambda m: m.label)
def test_conditional_polarization_sum_matches_full_average(model):
    # E[delta^k sum G^2] for k = 0, 1, 2 pins down all three conditional
    # coefficients; both sides are exact quadratures of polynomials
    a = rng.normal(size=(3, 3))
    dist = GaussianPacket(mean=rng.normal(scale=0.01, size=3), covariance=1e-4 * (a @ a.T))
    n, e_d, eps = random_direction(), random_direction(), 0.02
    proj = project(dist, n, order=8)
    u = proj.nodes - proj.mean
    for x in (0.7, 1.0, 40.0):
        q0, q1, q2 = conditional_polarization_sum(model, x, n, e_d, eps, proj)
        for k in range(3):
            full = expectation(dist, lambda b: (b @ n) ** k * polarization_sum(
                model, b, x, n, e_d, eps), order=8).value
            mixed = float(np.sum(proj.weights * proj.nodes**k * (q0 + u * (q1 + u * q2))))
            assert mixed == pytest.approx(full, rel=1e-11, abs=1e-15)


def test_conditional_polarization_sum_of_point_mass_is_the_sum():
    beta = np.array([0.03, -0.02, 0.05])
    n, e_d = random_direction(), random_direction()
    q0, q1, q2 = conditional_polarization_sum(CouplingModel.roentgen(), np.array([0.5, 2.0]),
                                              n, e_d, 0.01, project(PointMass(beta), n))
    direct = polarization_sum(CouplingModel.roentgen(), beta, np.array([0.5, 2.0]), n, e_d, 0.01)
    assert np.allclose(q0, direct, rtol=1e-13, atol=0.0)
