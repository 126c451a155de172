"""Emission spectra and decay rates of a moving two-level wavepacket.

Numerical engine for the direction-resolved spontaneous emission of a
two-level atom whose center of mass moves as a momentum wavepacket, with a
light-matter coupling that keeps the velocity-dependent interaction term
and the photon-recoil momentum shift. The package computes spectra, angular
patterns, golden-rule rates, and -- its reason for existing -- the growth
law of the frequency-integrated emission with the mode cutoff, which
distinguishes the velocity-dependent coupling (power-law growth, curable
only by an explicit formfactor) from the velocity-independent one
(logarithmic growth).
"""

from . import rates
from .amplitudes import (DiscreteModeSystem, compare_to_pole, detuning,
                         discrete_mode_evolution, flat_band_system,
                         perpendicular_kernel, spectral_kernel)
from .coupling import CouplingModel, polarization_sum, reduced_coupling, shifted_velocity
from .geometry import PolarizationBasis, direction_from_angles, polarization_basis, rotate_basis
from .quadrature import (CutoffScan, NumericalError, QuadratureResult,
                         TailClassification, classify_tail, cutoff_scan,
                         geometric_cutoffs, integrate_adaptive)
from .rates import golden_rule_mean_rate, golden_rule_rates, limit_ordering_demo
from .spectra import (DivergenceReport, EmissionScenario, Formfactor, PatternResult,
                      PhysicsRejection, SpectralResult, angular_pattern,
                      directional_probability, directional_spectrum,
                      divergence_comparison)
from .units import DimensionlessParams, ParameterError, PhysicalInput, to_dimensionless
from .wavepacket import (GaussianPacket, PointMass, TabulatedProjection,
                         expectation, project)

__version__ = "0.1.0"

__all__ = [
    "CouplingModel", "CutoffScan", "DimensionlessParams", "DiscreteModeSystem",
    "DivergenceReport", "EmissionScenario", "Formfactor", "GaussianPacket",
    "NumericalError", "ParameterError", "PatternResult",
    "PhysicalInput", "PhysicsRejection", "PointMass", "PolarizationBasis",
    "QuadratureResult", "SpectralResult", "TabulatedProjection",
    "TailClassification", "angular_pattern",
    "classify_tail", "compare_to_pole", "cutoff_scan", "detuning",
    "direction_from_angles", "directional_probability", "directional_spectrum",
    "discrete_mode_evolution", "divergence_comparison", "expectation",
    "flat_band_system", "geometric_cutoffs",
    "golden_rule_mean_rate", "golden_rule_rates", "integrate_adaptive",
    "limit_ordering_demo", "perpendicular_kernel", "polarization_basis",
    "polarization_sum", "project", "rates", "reduced_coupling",
    "rotate_basis", "shifted_velocity", "spectral_kernel", "to_dimensionless",
]
