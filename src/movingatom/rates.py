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

The coupling model says where the coupling is evaluated, through its one
switch `CouplingModel.apply_momentum_shift`; the two settings are the two
variants (`VARIANTS`):

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature
from .lineshape import line_fractions
from .coupling import (CouplingModel, conditional_polarization_sum, doppler_projection,
                       growth_kind, polarization_sum, quotient_slope)
from .geometry import check_unit
from .units import VARIANTS, DimensionlessParams, resonance_root
from .wavepacket import PointMass, ProjectedDistribution, delta_average, project

def with_variant(model: CouplingModel, variant: str) -> CouplingModel:
    """`model` with the momentum shift that `variant` (one of VARIANTS) names; the
    standard model keeps none either way."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return CouplingModel(model.kind, model.include_recoil_term, variant == "shifted")


def _rate(delta, x_star, gsq, epsilon: float):
    """x*^3 sum G^2 over the delta-function Jacobian 1 - delta + 2 eps x*, which is
    sqrt((1 - delta)^2 + 4 eps) > 0 at the positive root x* (`resonance_root`)."""
    return x_star**3 * gsq / ((1.0 - delta) + 2.0 * epsilon * x_star)


def golden_rule_rates(beta, n, e_d, params: DimensionlessParams, model: CouplingModel):
    """Normalized rate at each velocity of a batch beta, shape (..., 3) (a scalar for (3,)),
    with the coupling evaluated as `model` says (its own momentum shift included).

    The velocity-level reference: the resonance root, shift, coupling and
    Jacobian are evaluated per velocity, the coupling by the basis sum
    coupling.polarization_sum. It shares no coupling algebra with
    `golden_rule_mean_rate`, the production path, which works from the
    conditional moments.
    """
    n = check_unit(n, "n")
    e_d = check_unit(e_d, "e_d")
    delta = doppler_projection(beta, n)
    x_star = resonance_root(delta, params.epsilon)
    gsq = polarization_sum(model, beta, x_star, n, e_d, params.epsilon)
    return _rate(delta, x_star, gsq, params.epsilon)


def golden_rule_mean_rate(proj: ProjectedDistribution, n, e_d, params: DimensionlessParams,
                          model: CouplingModel, tol: float = 1e-9) -> quadrature.QuadratureResult:
    """Normalized rate averaged over a wavepacket seen along n (wavepacket.project), under
    `model` and its own momentum shift: exact given delta
    (coupling.conditional_polarization_sum), then summed over delta nodes by
    `wavepacket.delta_average`. A point mass or a table is exact on its own nodes (error
    0); a Gaussian climbs the rungs of `wavepacket.HERMITE_LADDER` until a rung's change
    from the one before, its error estimate, meets tol * max(1, rate), and is
    `converged` = False when the last rung misses it. One field per direction: scalars for
    one direction, arrays of the stack's shape for a stack of directions (..., 3) and
    `proj` projected along it; `evaluations` counts the delta nodes."""
    n, e_d = check_unit(n, "n", stacked=True), check_unit(e_d, "e_d")

    def evaluate(rows, rules):
        x_star = resonance_root(rows.nodes, params.epsilon)
        q0, q1, q2 = conditional_polarization_sum(model, x_star, n, e_d, params.epsilon, rows)
        u = rows.nodes - np.asarray(rows.mean)[..., None]
        rates = _rate(rows.nodes, x_star, q0 + u * (q1 + u * q2), params.epsilon)
        values = np.array([rates[..., block] @ w for w, block in rules])[..., None]
        return (values, np.zeros(values.shape), np.ones(values.shape[:-1], dtype=int),
                np.ones(values.shape[:-1], dtype=bool))

    value, error, evaluations, converged, _ = delta_average(proj, evaluate, tol)
    return quadrature.QuadratureResult(value[..., 0], error[..., 0], evaluations, converged)


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

    * column (i): both golden-rule variants (`golden_rule_mean_rate` on the
      point at rest, with the Roentgen model shifted and unshifted) -- the
      energy constraint applied before the mode sum. Finite, and converging
      to the eps = 0 value.
    * column (ii): the frequency-integrated emission probability with no
      formfactor -- the mode sum taken first -- on a cutoff ladder spanning
      `window` in units of 1/eps (the integrand turns over at x ~ 1/eps, so
      a fixed window in eps*x probes the true asymptotic growth at every
      eps), and at the `fixed_cutoffs` (positive and finite). Its `growth_kind` is
      `coupling.growth_kind` of the exact A = 1/2 (k = -1, and |e_perp|^2 = 1).
      Both are closed forms (lineshape.line_fractions): every row is exact,
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
    fixed = np.asarray(sorted(float(c) for c in fixed_cutoffs))
    if not np.all((fixed > 0) & np.isfinite(fixed)):
        raise ValueError("fixed_cutoffs must be positive and finite")

    n, e_d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    model = CouplingModel.roentgen()
    unshifted = replace(model, apply_momentum_shift=False)
    at_rest = project(PointMass(np.zeros(3)), n)
    a = 0.5 * quotient_slope(model, 1.0)  # n is perpendicular to e_d

    def rate(rate_model: CouplingModel, params: DimensionlessParams) -> float:
        return golden_rule_mean_rate(at_rest, n, e_d, params, rate_model).value

    rate_eps0 = rate(model, DimensionlessParams(0.0, gamma_tilde))

    rows: list[LimitOrderingRow] = []
    for eps in eps_list:
        params = DimensionlessParams(epsilon=eps, gamma_tilde=gamma_tilde)
        r_unshifted, r_shifted = rate(unshifted, params), rate(model, params)
        rel = abs(r_shifted - r_unshifted) / r_unshifted

        lam_window = quadrature.geometric_cutoffs(window[0] / eps, window[1] / eps, window_points)
        cumulative = params.kappa * line_fractions(
            (model,), n, e_d, at_rest, params).integral(np.concatenate((lam_window, fixed)))[0, 0]
        window_cumulative = cumulative[:window_points]

        rows.append(LimitOrderingRow(
            epsilon=eps, x_star=float(resonance_root(0.0, eps)), rate_unshifted=r_unshifted,
            rate_shifted=r_shifted, rel_difference=rel, window_lambdas=lam_window,
            window_cumulative=window_cumulative,
            growth_kind=growth_kind(a, window_cumulative[-1]),
            fixed_cumulative=cumulative[window_points:], converged=True))

    return LimitOrderingTable(
        rows=rows, fixed_cutoffs=fixed, rate_eps0=rate_eps0,
        notes={
            "window_in_inverse_eps": list(window),
            "rate_normalization": "reference perpendicular rate = 1",
            "mode_sum_normalization": "kappa = 3*gamma_tilde/(16*pi^2) per steradian",
        },
    )
