"""Golden-rule emission rates and the order-of-limits demonstration.

The per-direction golden-rule rate inserts the energy-conserving frequency
x* -- the positive root of the pole-detuning condition

    eps*x^2 + (1 - delta)*x - 1 = 0

-- into the squared coupling, weighted by the mode density and the Jacobian
of the energy delta-function:

    dGamma/dOmega  propto  x*^3 * sum_lambda G_lambda(beta_eff, x*)^2
                           / (1 - delta + 2*eps*x*).

(The x*^3 collects the per-photon field strength, proportional to x, and the
x^2 mode density; the denominator is |d/dx| of the delta-function argument.)

Two variants differ only in where the coupling is evaluated:

* "unshifted": at the pre-emission velocity beta -- the textbook insertion;
* "shifted":   at beta + 2*eps*x* n, the recoil-shifted velocity that the
  solved emission amplitude actually contains.

They coincide at eps = 0 and differ at relative order eps otherwise. The
order-of-limits table shows why: the energy constraint first (either
variant) gives a finite rate converging as eps -> 0, while the mode sum
first at fixed eps > 0 grows like Lambda^2 -- the infinite-mass limit and
the mode sum do not commute.

Rates are reported in normalized units where the reference configuration
(beta = 0, eps = 0, emission perpendicular to the dipole) has rate 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .amplitudes import line_fractions, resonance_root
from .coupling import (CouplingModel, conditional_polarization_sum, doppler_projection,
                       polarization_sum)
from .geometry import check_unit
from .units import DimensionlessParams, Normalization
from .wavepacket import PointMass, ProjectedDistribution, project, weighted_sum

VARIANTS = ("unshifted", "shifted")


@dataclass(frozen=True)
class RateResult:
    variant: str
    value: float
    x_star: float
    delta: float
    model_label: str


def _variant_model(variant: str, model: CouplingModel | None) -> CouplingModel:
    """`model` with the momentum shift that `variant` asks for."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if model is None:
        model = CouplingModel.roentgen()
    return CouplingModel(kind=model.kind, include_recoil_term=model.include_recoil_term,
                         apply_momentum_shift=variant == "shifted")


def _rate(delta, x_star, gsq, epsilon: float):
    """x*^3 sum G^2 over the delta-function Jacobian 1 - delta + 2 eps x*."""
    jacobian = (1.0 - delta) + 2.0 * epsilon * x_star
    if np.any(jacobian <= 0.0):
        raise ValueError("vanishing delta-function Jacobian; no isolated emission frequency")
    return x_star**3 * gsq / jacobian


def golden_rule_rates(variant: str, beta, n, e_d, params: DimensionlessParams,
                      model: CouplingModel | None = None) -> np.ndarray:
    """Vectorized normalized rate over a batch of velocities, shape (..., 3).

    The workhorse behind `golden_rule_rate`; the resonance root, shift,
    coupling, and Jacobian are all evaluated elementwise with the same stable
    formulas as the scalar path.
    """
    eval_model = _variant_model(variant, model)
    n = check_unit(n, "n")
    e_d = check_unit(e_d, "e_d")
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1] != 3:
        raise ValueError("beta must have 3 components along the trailing axis")
    delta = doppler_projection(beta, n)
    x_star = resonance_root(delta, params.epsilon)
    gsq = polarization_sum(eval_model, beta, x_star, n, e_d, params.epsilon)
    return _rate(delta, x_star, gsq, params.epsilon)


def golden_rule_mean_rate(variant: str, proj: ProjectedDistribution, n, e_d,
                          params: DimensionlessParams,
                          model: CouplingModel | None = None):
    """Normalized rate averaged over a wavepacket seen along n (wavepacket.project):
    exact given delta (coupling.conditional_polarization_sum), then summed over
    the projection's delta nodes (Gauss-Hermite for a Gaussian). A float for one
    direction; for a stack of directions (..., 3), and `proj` projected along
    it, an array of the stack's shape."""
    eval_model = _variant_model(variant, model)
    x_star = resonance_root(proj.nodes, params.epsilon)
    q0, q1, q2 = conditional_polarization_sum(eval_model, x_star, n, e_d, params.epsilon, proj)
    u = proj.nodes - np.asarray(proj.mean)[..., None]
    rates = _rate(proj.nodes, x_star, q0 + u * (q1 + u * q2), params.epsilon)
    return weighted_sum(proj.weights, rates)


def golden_rule_rate(variant: str, beta, n, e_d, params: DimensionlessParams,
                     model: CouplingModel | None = None) -> RateResult:
    """Normalized per-direction decay rate for one atomic velocity.

    `model` controls the coupling structure (velocity-dependent or not, and
    whether the explicit recoil term is kept); its own momentum-shift flag is
    ignored here because the `variant` argument decides where the coupling
    is evaluated -- that is the entire point of having both variants.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise ValueError("golden_rule_rate takes a single velocity; use golden_rule_rates for batches")
    if model is None:
        model = CouplingModel.roentgen()
    n = check_unit(n, "n")
    value = float(golden_rule_rates(variant, beta[None, :], n, e_d, params, model)[0])
    delta = float(doppler_projection(beta, n))
    return RateResult(variant=variant, value=value,
                      x_star=float(resonance_root(delta, params.epsilon)), delta=delta,
                      model_label=model.label)


def sphere_pattern_value(rate: float) -> float:
    """Convert a normalized rate into the angular-pattern density (3/8pi) rate,
    whose sphere integral is 1 in the reference configuration."""
    return 3.0 / (8.0 * math.pi) * rate


@dataclass(frozen=True)
class LimitOrderingRow:
    epsilon: float
    x_star: float
    rate_unshifted: float
    rate_shifted: float
    rel_difference: float
    window_lambdas: np.ndarray
    window_cumulative: np.ndarray
    growth_exponent: float | None
    growth_kind: str
    fixed_cumulative: np.ndarray
    converged: bool


@dataclass(frozen=True)
class LimitOrderingTable:
    rows: list[LimitOrderingRow]
    fixed_cutoffs: np.ndarray
    rate_eps0: float
    notes: dict = field(default_factory=dict)


def limit_ordering_demo(epsilons, *, gamma_tilde: float = 0.01,
                        window: tuple[float, float] = (30.0, 100.0),
                        window_points: int = 6,
                        fixed_cutoffs=(1e2, 1e3, 1e4)) -> LimitOrderingTable:
    """Finite-rate column vs divergent mode-sum column, per epsilon.

    For each eps in `epsilons` (decreasing, positive), at rest and with the
    emission direction perpendicular to the dipole:

    * column (i): both golden-rule variants -- the energy constraint applied
      before the mode sum. Finite, and converging to the eps = 0 value.
    * column (ii): the frequency-integrated emission probability with no
      formfactor -- the mode sum taken first -- on a cutoff ladder spanning
      `window` in units of 1/eps (the integrand turns over at x ~ 1/eps, so
      a fixed window in eps*x probes the true asymptotic growth at every
      eps; growth exponent fitted per ladder), and at the `fixed_cutoffs`
      (positive and finite).
      Both are closed forms (amplitudes.line_fractions): every row is exact,
      and a cutoff whose value overflows raises NumericalError.

    The normalization of column (ii) is the reference emission-probability
    scale (kappa = 3*gamma_tilde/16 pi^2 per steradian); column (i) is in
    rate units normalized to 1 at the reference point. The comparison is
    finite-versus-growing, not a like-for-like subtraction.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("epsilons must be positive")
    if any(later >= earlier for earlier, later in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if window_points < 5:
        raise ValueError("window_points must be >= 5 for the growth-law fit")
    fixed = np.asarray(sorted(float(c) for c in fixed_cutoffs))
    if not np.all((fixed > 0) & np.isfinite(fixed)):
        raise ValueError("fixed_cutoffs must be positive and finite")

    n = np.array([1.0, 0.0, 0.0])
    e_d = np.array([0.0, 0.0, 1.0])
    beta0 = np.zeros(3)
    model = CouplingModel.roentgen()
    at_rest = project(PointMass(beta0), n)

    rate_eps0 = golden_rule_rate("shifted", beta0, n, e_d,
                                 DimensionlessParams(0.0, gamma_tilde), model).value

    rows: list[LimitOrderingRow] = []
    for eps in eps_list:
        params = DimensionlessParams(epsilon=eps, gamma_tilde=gamma_tilde)
        r_unshifted = golden_rule_rate("unshifted", beta0, n, e_d, params, model)
        r_shifted = golden_rule_rate("shifted", beta0, n, e_d, params, model)
        rel = abs(r_shifted.value - r_unshifted.value) / r_unshifted.value

        lam_window = np.geomspace(window[0] / eps, window[1] / eps, window_points)
        cumulative = Normalization.reference(params).kappa * line_fractions(
            model, n, e_d, at_rest, params).integral(np.concatenate((lam_window, fixed)))[0]
        scan = quadrature.CutoffScan(lambdas=lam_window, values=cumulative[:window_points],
                                     errors=np.zeros(window_points))
        cls = quadrature.classify_tail(scan, fit_points=window_points)

        rows.append(LimitOrderingRow(
            epsilon=eps, x_star=r_shifted.x_star, rate_unshifted=r_unshifted.value,
            rate_shifted=r_shifted.value, rel_difference=rel, window_lambdas=scan.lambdas,
            window_cumulative=scan.values, growth_exponent=cls.exponent, growth_kind=cls.kind,
            fixed_cumulative=cumulative[window_points:], converged=True))

    return LimitOrderingTable(
        rows=rows, fixed_cutoffs=fixed, rate_eps0=rate_eps0,
        notes={
            "window_in_inverse_eps": list(window),
            "rate_normalization": "reference perpendicular rate = 1",
            "mode_sum_normalization": "kappa = 3*gamma_tilde/(16*pi^2) per steradian",
        },
    )
