import math

import pytest

from movingatom.units import (C_LIGHT, HBAR, DimensionlessParams, ParameterError,
                              PhysicalInput, to_dimensionless)

EPSILON_0 = 8.8541878128e-12  # F / m, CODATA 2018


def test_dimensionless_from_physical_hydrogen_like():
    # 10.2 eV transition of a proton-mass emitter: eps = hbar*omega0/(2 M c^2)
    inp = PhysicalInput(mass=1.67262192e-27, omega0=1.549e16, gamma0=6.27e8)
    params = to_dimensionless(inp)
    expected_eps = HBAR * inp.omega0 / (2.0 * inp.mass * C_LIGHT**2)
    assert params.epsilon == pytest.approx(expected_eps, rel=1e-15)
    assert params.epsilon == pytest.approx(5.4e-9, rel=0.02)
    assert params.gamma_tilde == pytest.approx(6.27e8 / 1.549e16, rel=1e-15)


def test_infinite_mass_flag_forces_epsilon_zero():
    inp = PhysicalInput(mass=1e-27, omega0=1e16, gamma0=1e8, infinite_mass=True)
    assert to_dimensionless(inp).epsilon == 0.0


@pytest.mark.parametrize("bad", [
    dict(mass=-1.0, omega0=1e15, gamma0=1e7),
    dict(mass=1e-27, omega0=0.0, gamma0=1e7),
    dict(mass=1e-27, omega0=1e15, gamma0=-1e7),
    dict(mass=float("nan"), omega0=1e15, gamma0=1e7),
])
def test_physical_input_validation(bad):
    with pytest.raises(ParameterError):
        PhysicalInput(**bad)


def test_validation_names_the_field():
    with pytest.raises(ParameterError, match="mass"):
        PhysicalInput(mass=0.0, omega0=1e15, gamma0=1e7)


def test_overdamped_input_warns():
    with pytest.warns(UserWarning, match="narrow-line") as record:
        PhysicalInput(mass=1e-27, omega0=1e15, gamma0=2e15)
    assert record[0].filename == __file__  # the caller, not the dataclass's __init__


def test_dimensionless_validation():
    with pytest.raises(ParameterError):
        DimensionlessParams(epsilon=-0.1, gamma_tilde=0.01)
    with pytest.raises(ParameterError):
        DimensionlessParams(epsilon=0.01, gamma_tilde=0.0)
    with pytest.raises(ParameterError, match="epsilon must be finite and >= 0, got inf"):
        DimensionlessParams(epsilon=math.inf, gamma_tilde=0.01)
    with pytest.raises(ParameterError, match="gamma_tilde must be finite and > 0, got inf"):
        DimensionlessParams(epsilon=0.01, gamma_tilde=math.inf)


def test_reference_normalization_value():
    params = DimensionlessParams(epsilon=0.0, gamma_tilde=0.01)
    assert params.kappa == pytest.approx(3.0 * 0.01 / (16.0 * math.pi**2), rel=1e-15)


def test_absolute_normalization_consistent_with_decay_rate():
    # The SI per-mode scale d^2 omega0^2 / (16 pi^3 eps0 hbar c^3) and the rest-frame decay
    # rate both carry d^2/(epsilon_0 hbar c^3); their ratio must reduce to kappa.
    d, omega0 = 8.5e-30, 2.2e15
    gamma0 = d * d * omega0**3 / (3.0 * math.pi * EPSILON_0 * HBAR * C_LIGHT**3)
    params = to_dimensionless(PhysicalInput(mass=1.7e-27, omega0=omega0, gamma0=gamma0))
    kappa_si = d * d * omega0**2 / (16.0 * math.pi**3 * EPSILON_0 * HBAR * C_LIGHT**3)
    assert kappa_si == pytest.approx(params.kappa, rel=1e-12)
