"""Physical inputs and the internal dimensionless parameterization.

Everything downstream of this module is dimensionless:

    x      = omega / omega0          emitted frequency in units of the transition
    beta   = p / (M c)               atomic velocity (vector)
    delta  = n . beta                Doppler projection on the emission direction
    epsilon= hbar omega0 / (2 M c^2) recoil parameter (photon recoil energy over
                                     transition energy); epsilon = 0 is the
                                     infinite-mass limit
    gamma_tilde = gamma0 / omega0    natural linewidth in units of omega0

Physical units exist only at the CLI boundary; converting early keeps the
kernel a three-parameter family and makes property tests exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# CODATA 2018 exact / recommended values.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s (exact)


class ParameterError(ValueError):
    """A physical or dimensionless parameter failed validation."""


@dataclass(frozen=True)
class PhysicalInput:
    """Laboratory-unit description of the emitter.

    Set ``infinite_mass=True`` to request the recoil-free limit explicitly
    (the stored mass is then ignored for the recoil parameter).
    """

    mass: float  # kg
    omega0: float  # rad/s
    gamma0: float  # rad/s
    infinite_mass: bool = False

    def __post_init__(self) -> None:
        for name in ("mass", "omega0", "gamma0"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ParameterError(f"PhysicalInput.{name} must be a positive finite number, got {value!r}")
        if self.gamma0 >= self.omega0:
            # Not fatal -- the formulas stay meaningful -- but every narrow-line
            # approximation made downstream is suspect in this regime.
            warnings.warn(
                f"gamma0 = {self.gamma0:g} >= omega0 = {self.omega0:g}: "
                "outside the narrow-line regime; spectral results are formal only",
                stacklevel=3,  # past the dataclass __init__, to its caller
            )


@dataclass(frozen=True)
class DimensionlessParams:
    """The two dimensionless atom parameters every kernel needs."""

    epsilon: float
    gamma_tilde: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ParameterError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if not (math.isfinite(self.gamma_tilde) and self.gamma_tilde > 0):
            raise ParameterError(f"gamma_tilde must be finite and > 0, got {self.gamma_tilde!r}")

    @property
    def kappa(self) -> float:
        """The constant of the directional emission density dP/(dOmega dx) = kappa * w(x),
        w(x) = x^2 <rho(x)>, with rho the spectral kernel (amplitudes module) and the mode
        density V omega^2/(2 pi c)^3 folded in (V cancels between the per-mode
        probability and the mode count): kappa = 3 gamma_tilde / (16 pi^2). On this scale
        the rest-atom, infinite-mass, velocity-independent case integrates to emission
        probability 1 over frequency and the full sphere (narrow-line evaluation). It
        equals the SI prefactor d^2 omega0^2 / (16 pi^3 eps0 hbar c^3) when gamma0 is the
        rest-atom rate d^2 omega0^3 / (3 pi eps0 hbar c^3)."""
        return 3.0 * self.gamma_tilde / (16.0 * math.pi**2)


def to_dimensionless(inp: PhysicalInput) -> DimensionlessParams:
    """Reduce a :class:`PhysicalInput` to (epsilon, gamma_tilde)."""
    eps = 0.0 if inp.infinite_mass else HBAR * inp.omega0 / (2.0 * inp.mass * C_LIGHT**2)
    return DimensionlessParams(epsilon=eps, gamma_tilde=inp.gamma0 / inp.omega0)
