import numpy as np
import pytest

from movingatom.geometry import (PolarizationBasis, as_unit, check_unit,
                                 direction_from_angles, polarization_basis,
                                 rotate_basis)

rng = np.random.default_rng(20240517)


def random_direction():
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_basis_is_orthonormal_and_right_handed():
    for _ in range(200):
        n = random_direction()
        basis = polarization_basis(n)
        for a, b in [(basis.e1, basis.e1), (basis.e2, basis.e2), (basis.n, basis.n)]:
            assert np.dot(a, b) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.dot(basis.e1, basis.e2)) < 1e-14
        assert abs(np.dot(basis.e1, basis.n)) < 1e-14
        assert abs(np.dot(basis.e2, basis.n)) < 1e-14
        assert np.allclose(np.cross(basis.e1, basis.e2), basis.n, atol=1e-14)


X, Y, Z = np.eye(3)


@pytest.mark.parametrize("e1, e2, n, match", [
    ((1.0 + 1e-9) * X, Y, Z, "orthonormal"),  # non-unit
    (X, (Y + 1e-9 * X) / np.linalg.norm(Y + 1e-9 * X), Z, "orthonormal"),  # non-orthogonal
    (X, Y, -Z, "left-handed"),
    (X, Y, np.array([0.0, 0.0, np.nan]), "orthonormal"),
    (X[:2], Y[:2], Z[:2], "orthonormal"),
])
def test_bad_triads_are_rejected(e1, e2, n, match):
    with pytest.raises(ValueError, match=match):
        PolarizationBasis(e1=e1, e2=e2, n=n)


def test_axis_aligned_directions_get_canonical_axes():
    basis = polarization_basis(np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(basis.e1, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(basis.e2, np.array([0.0, 1.0, 0.0]))
    basis_x = polarization_basis(np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(np.cross(basis_x.e1, basis_x.e2), basis_x.n)


def test_rotate_basis_angle_addition():
    n = random_direction()
    basis = polarization_basis(n)
    a, b = 0.7, -1.3
    once = rotate_basis(rotate_basis(basis, a), b)
    combined = rotate_basis(basis, a + b)
    assert np.allclose(once.e1, combined.e1, atol=1e-13)
    assert np.allclose(once.e2, combined.e2, atol=1e-13)


def test_rotate_basis_full_turn_is_identity():
    basis = polarization_basis(random_direction())
    turned = rotate_basis(basis, 2.0 * np.pi)
    assert np.allclose(turned.e1, basis.e1, atol=1e-14)
    assert np.allclose(turned.e2, basis.e2, atol=1e-14)


def test_rotated_basis_stays_orthonormal():
    basis = polarization_basis(random_direction())
    for angle in rng.uniform(-6, 6, size=25):
        rot = rotate_basis(basis, float(angle))
        assert isinstance(rot, PolarizationBasis)  # validation re-runs in __post_init__
        assert np.dot(rot.e1, rot.e2) == pytest.approx(0.0, abs=1e-13)


def test_direction_from_angles_polar_meaning():
    axis = np.array([0.0, 0.0, 1.0])
    assert np.allclose(direction_from_angles(0.0, 0.0, axis=axis), axis, atol=1e-15)
    equator = direction_from_angles(np.pi / 2, 0.0, axis=axis)
    assert abs(np.dot(equator, axis)) < 1e-15
    # theta measures the angle from the axis
    for theta in (0.3, 1.1, 2.7):
        d = direction_from_angles(theta, 0.8, axis=axis)
        assert np.dot(d, axis) == pytest.approx(np.cos(theta), abs=1e-14)


def test_direction_from_angles_arbitrary_axis():
    axis = random_direction()
    for theta, phi in rng.uniform(0, np.pi, size=(20, 2)):
        d = direction_from_angles(float(theta), float(phi), axis=axis)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-13)
        assert np.dot(d, axis) == pytest.approx(np.cos(theta), abs=1e-13)


def test_direction_from_angles_array_rows_match_scalar_calls():
    axis = random_direction()
    theta = np.concatenate(([0.0, np.pi / 2, np.pi], rng.uniform(0, np.pi, 34)))
    for phi in (0.0, 0.8, np.pi / 2):
        stack = direction_from_angles(theta, phi, axis=axis)
        assert stack.shape == (theta.size, 3)
        rows = np.array([direction_from_angles(float(t), phi, axis=axis) for t in theta])
        assert np.max(np.abs(stack - rows)) <= 2e-16
        assert np.max(np.abs(np.linalg.norm(stack, axis=-1) - 1.0)) <= 1e-15
    # theta and phi broadcast against each other; one frame serves every row
    grid = direction_from_angles(theta[:, None], np.array([0.0, 0.8, 2.0]), axis=axis)
    assert grid.shape == (theta.size, 3, 3)
    assert np.max(np.abs(grid[:, 1] - direction_from_angles(theta, 0.8, axis=axis))) <= 2e-16


def test_check_unit_stacks_only_when_asked():
    stack = direction_from_angles(np.linspace(0.0, np.pi, 5), 0.3)
    assert check_unit(stack, "n", stacked=True) is not None
    with pytest.raises(ValueError, match="3-vector"):
        check_unit(stack, "n")
    bad = stack.copy()
    bad[2] *= 1.01
    with pytest.raises(ValueError, match="unit"):
        check_unit(bad, "n", stacked=True)
    bad[2] = np.nan
    with pytest.raises(ValueError, match="unit"):
        check_unit(bad, "n", stacked=True)
    with pytest.raises(ValueError, match="unit"):
        check_unit(bad[2], "n")


def test_check_unit_rejects_non_unit_vectors():
    with pytest.raises(ValueError, match="unit"):
        check_unit(np.array([1.0, 1.0, 0.0]), "n")
    with pytest.raises(ValueError):
        check_unit(np.array([0.0, 0.0, 0.0]), "n")


def test_as_unit_normalizes():
    v = as_unit(np.array([3.0, 4.0, 0.0]))
    assert np.allclose(v, [0.6, 0.8, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        as_unit(np.zeros(3))
    with pytest.raises(ValueError, match="3-vector"):
        as_unit(np.ones(2))
