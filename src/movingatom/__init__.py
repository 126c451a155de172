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

import importlib

__version__ = "0.1.0"

# module -> the public names it defines (a module's own name: the module); each resolves on
# first access (PEP 562), so that a run imports only the modules it uses
_EXPORTS = {
    "amplitudes": "DiscreteModeSystem compare_to_pole discrete_mode_evolution flat_band_system",
    "coupling": "CouplingModel polarization_sum reduced_coupling shifted_velocity",
    "geometry": "PolarizationBasis direction_from_angles polarization_basis rotate_basis",
    "lineshape": "perpendicular_kernel spectral_kernel",
    "quadrature": ("CutoffScan NumericalError PhysicsRejection QuadratureResult "
                   "TailClassification classify_tail cutoff_scan geometric_cutoffs "
                   "integrate_adaptive"),
    "rates": "rates golden_rule_mean_rate golden_rule_rates limit_ordering_demo",
    "spectra": ("DivergenceReport EmissionScenario Formfactor PatternResult SpectralResult "
                "angular_pattern directional_probability directional_spectrum "
                "divergence_comparison"),
    "units": "DimensionlessParams ParameterError PhysicalInput detuning to_dimensionless",
    "wavepacket": "GaussianPacket PointMass TabulatedProjection expectation project",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    """A public name of `_EXPORTS`, from its module; AttributeError for any other name, so
    that `from movingatom import <submodule>` imports the submodule."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SOURCE[name]}", __name__)
    value = module if name == _SOURCE[name] else getattr(module, name)
    globals()[name] = value
    return value
