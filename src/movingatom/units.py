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

The pole detuning D(x, delta, eps) and its positive root x* (`detuning`,
`resonance_root`) are defined here, beside the parameters they take: the line
fractions (`lineshape`) and the discrete-mode oracle (`amplitudes`) both read them,
and neither loads the other. So are the names of a scenario's model choices
(`FORMFACTOR_KINDS`, `VARIANTS`), which the scenario loader checks without
loading the modules that act on them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# CODATA 2018 exact / recommended values.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s (exact)


FORMFACTOR_KINDS = ("none", "sharp", "gaussian", "exponential")  # spectra.Formfactor
VARIANTS = ("unshifted", "shifted")  # rates.with_variant: apply_momentum_shift False, True


class ParameterError(ValueError):
    """A physical or dimensionless parameter failed validation."""


class PhysicalInput:
    """Laboratory-unit description of the emitter: mass (kg), omega0 and gamma0 (rad/s).

    Set ``infinite_mass=True`` to request the recoil-free limit explicitly
    (the stored mass is then ignored for the recoil parameter).
    """

    __slots__ = ("mass", "omega0", "gamma0", "infinite_mass")

    def __init__(self, mass: float, omega0: float, gamma0: float,
                 infinite_mass: bool = False) -> None:
        for name, value in (("mass", mass), ("omega0", omega0), ("gamma0", gamma0)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ParameterError(f"PhysicalInput.{name} must be a positive finite number, got {value!r}")
        if gamma0 >= omega0:
            # Not fatal -- the formulas stay meaningful -- but every narrow-line
            # approximation made downstream is suspect in this regime.
            warnings.warn(
                f"gamma0 = {gamma0:g} >= omega0 = {omega0:g}: "
                "outside the narrow-line regime; spectral results are formal only",
                stacklevel=2,  # to the caller
            )
        self.mass, self.omega0, self.gamma0 = mass, omega0, gamma0
        self.infinite_mass = infinite_mass


class DimensionlessParams:
    """The two dimensionless atom parameters every kernel needs."""

    __slots__ = ("epsilon", "gamma_tilde")

    def __init__(self, epsilon: float, gamma_tilde: float) -> None:
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon!r}")
        if not (math.isfinite(gamma_tilde) and gamma_tilde > 0):
            raise ParameterError(f"gamma_tilde must be finite and > 0, got {gamma_tilde!r}")
        self.epsilon, self.gamma_tilde = epsilon, gamma_tilde

    @property
    def kappa(self) -> float:
        """The constant of the directional emission density dP/(dOmega dx) = kappa * w(x),
        w(x) = x^2 <rho(x)>, with rho the spectral kernel (lineshape module) and the mode
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


# where, maximum and sqrt: Python's on floats, numpy's on arrays; the same IEEE results
_FLOAT_OPS = (lambda c, a, b: a if c else b, max, math.sqrt)
_ARRAY_OPS = (np.where, np.maximum, np.sqrt)


def elementwise(x) -> tuple:
    """(where, maximum, sqrt) for values like x: Python's for a float (such as one vector's
    `geometry.unstack` components), numpy's for an array."""
    return _FLOAT_OPS if isinstance(x, float) else _ARRAY_OPS


def detuning(x, delta, epsilon):
    """Pole detuning D = 1 - x*(1 - delta) - eps*x^2 (vectorized)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - x * (1.0 - delta) - epsilon * (x * x)


def _quadratic_roots(b, eps, c):
    """Roots (near, far) of eps z^2 + b z + c = 0 for c = -1 or c = i gt/2 - 1 (vectorized
    over b, or on Python floats for a float b and c = -1), in the cancellation-free form
    q = -(b + sign(b) sqrt(b^2 - 4 eps c))/2, roots c/q and q/eps: near is the one over the
    positive axis, far (None at eps = 0) the one near -b/eps. ParameterError at eps = 0
    unless every b > 0."""
    where, _, sqrt = elementwise(b)
    if eps == 0.0:
        if not np.logical_and.reduce(b > 0.0, axis=None):
            raise ParameterError("no emission line for delta >= 1 at epsilon = 0")
        return -c / b, None
    root, up = sqrt(b * b - 4.0 * eps * c), b >= 0.0
    q = -0.5 * (b + where(up, root, -root))
    return where(up, c / q, q / eps), where(up, q / eps, c / q)


def resonance_root(delta, epsilon):
    """Positive root x* of D(x, delta) = 0, i.e. eps*x^2 + (1 - delta)*x - 1 = 0 (vectorized),
    by `_quadratic_roots`: 2 / ((1-delta) + sqrt((1-delta)^2 + 4 eps)) for delta <= 1, exact
    as eps -> 0, and ((delta-1) + sqrt(...)) / (2 eps) beyond. Requires eps >= 0, and eps > 0
    or a sub-luminal delta < 1; ParameterError unless every root is positive and finite (NaN
    included). A float delta gives a float, on Python floats."""
    if not epsilon >= 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon!r}")
    b = 1.0 - (delta if isinstance(delta, float) else np.asarray(delta, dtype=float))
    root = _quadratic_roots(b, epsilon, -1.0)[0]
    if not np.logical_and.reduce((root > 0.0) & np.isfinite(root), axis=None):
        raise ParameterError(f"no positive emission frequency for delta={delta!r}, eps={epsilon!r}")
    return root
