"""Direction-resolved emission spectra, probabilities, and the divergence race.

The observable this package exists to compute is the distribution of
spontaneously emitted photons over reduced frequency x and direction n,
averaged over the atomic momentum wavepacket:

    dP/(dOmega dx) = kappa * w(x),      w(x) = x^2 * < rho(x, n, beta) >

with rho the spectral kernel (pole solution), x^2 the mode density, and
kappa = 3 gamma_tilde / (16 pi^2) the normalization constant
(`DimensionlessParams.kappa`: the rest-atom, infinite-mass, velocity-independent
case integrates to 1 over the sphere). The average < . > is exact in every
direction: a Faddeeva closed form for Gaussian packets, its w(z) from `faddeeva`
(numpy only: Algorithm 916 of Zaghloul & Ali, ACM TOMS 38, 2011, and the Laplace
continued fraction of Gautschi 1970 and Poppe & Wijers, ACM TOMS 16, 1990), and
weighted sums over delta = n.beta for point masses and tables.

The frequency integral of w decides everything interesting: with the
velocity-dependent coupling at the recoil-shifted momentum it grows like
Lambda^2 (dropping the explicit recoil term does not cure this), with the
velocity-independent one only logarithmically. At each delta node it is a
closed form (lineshape.line_fractions), and its Lambda^2 coefficient is
exact: A = k^2 |e_perp|^2 / 2 (coupling.quotient_slope). `divergence_comparison`
decides its verdict from A and reads each model's growth law from it
(coupling.growth_kind); nothing here fits a tail;
`directional_probability` accepts a formfactor that restores integrability,
and with it formfactor dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .lineshape import in_row_blocks, line_fractions, lorentzian_denominator
from .coupling import (CouplingModel, conditional_polarization_sum, growth_kind,
                       quotient_slope, transverse_dipole)
from .geometry import check_unit, direction_from_angles
from .quadrature import (CutoffScan, NumericalError, PhysicsRejection, QuadratureResult,
                         TailClassification)
from .rates import golden_rule_mean_rate, sphere_pattern_value, with_variant
from .units import (FORMFACTOR_KINDS, VARIANTS, DimensionlessParams, ParameterError,
                    detuning, resonance_root)
from .wavepacket import MomentumDistribution, ProjectedDistribution, delta_average, project

# Beyond |zeta| = 20 the closed form's partial fractions cancel (rounding
# ~ |zeta|^2 eps_mach); there no Gauss-Hermite delta node nears the pole.
_FAR_WING = 20.0
# Gauss-Hermite nodes of a Gaussian's weighted sums in that wing
_WING_ORDER = 40


@dataclass(frozen=True, eq=False)
class EmissionScenario:
    """Atom parameters, coupling model, wavepacket, and dipole axis."""

    params: DimensionlessParams
    coupling: CouplingModel
    distribution: MomentumDistribution
    dipole_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self) -> None:
        object.__setattr__(self, "dipole_axis", check_unit(self.dipole_axis, "dipole_axis"))

    @property
    def kappa(self) -> float:
        return self.params.kappa


@dataclass(frozen=True)
class Formfactor:
    """Frequency damping of the squared coupling: multiplies w(x) once.

    Variants: "none"; "sharp" (hard cutoff at x = cutoff); "gaussian"
    exp(-(x/cutoff)^2); "exponential" exp(-x/cutoff). All satisfy
    0 <= f(x) <= 1 with f(0) = 1. The choice of variant and scale is
    physics input, not a numerical knob: regularized observables depend
    on it, and that dependence is part of what this package measures.
    """

    kind: str = "none"
    cutoff: float | None = None

    _KINDS = FORMFACTOR_KINDS

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown formfactor kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind != "none":
            if self.cutoff is None or not (self.cutoff > 0 and math.isfinite(self.cutoff)):
                raise ValueError(f"formfactor {self.kind!r} needs a positive finite cutoff")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return np.ones_like(x)
        if self.kind == "sharp":
            return (x <= self.cutoff).astype(float)
        return np.exp(self._exponent(x))

    @classmethod
    def none(cls) -> "Formfactor":
        return cls(kind="none")

    def _exponent(self, z):
        """phi with F = exp(phi), for the gaussian and exponential kinds, at complex z too."""
        return -z / self.cutoff if self.kind == "exponential" else -(z / self.cutoff) ** 2

    def _slope(self, x, z):
        """(phi(x) - phi(z)) / (x - z), written without that difference."""
        if self.kind == "exponential":
            return -1.0 / self.cutoff
        # -(x + z) / cutoff / cutoff, as numpy divides by a real: a product with 1 / cutoff
        # (cutoff**2 overflows past 1.3e154)
        return (x + z) * (-1.0 / self.cutoff) * (1.0 / self.cutoff)

    def suggested_upper_limit(self) -> float:
        """Frequency beyond which the damped tail is negligible."""
        if self.kind == "sharp":
            return float(self.cutoff)
        if self.kind == "gaussian":
            return 8.0 * float(self.cutoff)
        if self.kind == "exponential":
            return 60.0 * float(self.cutoff)
        raise PhysicsRejection(
            "no finite integration limit exists without a formfactor: the "
            "frequency integral grows with the cutoff (see divergence_comparison)")


@dataclass(frozen=True, eq=False)
class SpectralResult:
    direction: np.ndarray
    x: np.ndarray
    w: np.ndarray
    error: np.ndarray
    metadata: dict


# Algorithm 916 in double precision (Zaghloul & Ali 2011, as in the Faddeeva package):
# a = pi / sqrt(-ln(eps_mach / 2)) puts the rule's own error at eps_mach / 2, c = 2a / pi.
# Its terms exp(-(a n)^2) and exp(-(a n - x)^2) are under 2e-20 from 13 past n = 0 and x / a.
_ZA_A, _ZA_C = 0.518321480430085929872, 0.329973702884629072537
_ZA_AN2 = (_ZA_A * np.arange(1.0, 14.0)) ** 2  # (a n)^2, n = 1..13
_ZA_EXP = np.exp(-_ZA_AN2)
_ZA_WINDOW = _ZA_A * np.arange(-13.0, 14.0)  # a (n - round(x / a))
_ERFC = np.frompyfunc(math.erfc, 1, 1)  # math.erfc over an array, without a Python loop


def faddeeva(z):
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz), elementwise for finite z, Im z > 0.

    With x = Re z and y = Im z:

    - |x| <= 28 and y <= 7: Algorithm 916 (Zaghloul & Ali, ACM TOMS 38, 2011), with
      erfcx(y) = exp(y^2) math.erfc(y),
          w = exp(-x^2) [g e^{-2ixy} + c (1 - e^{-2ixy}) / (2y)]
              + (c/2) sum_{n != 0} exp(-(a n - x)^2) / (y - i a n),
          g = erfcx(y) - c y sum_{n >= 1} exp(-(a n)^2) / ((a n)^2 + y^2),
      the first sum over the 27 n nearest x / a, the second over n = 1..13;
    - elsewhere the Laplace continued fraction (Gautschi, SIAM J. Numer. Anal. 7, 1970;
      Poppe & Wijers, ACM TOMS 16, 1990) w = (i / sqrt(pi)) / (z - (1/2) / (z - 1 /
      (z - (3/2) / ...))), its depth the Faddeeva package's fit in |x| and y.

    The Faddeeva package (S. G. Johnson), which scipy.special.wofz wraps, uses the same
    two rules but sends |x| > 8 to the fraction unless y <= 1e-10, which is faster in
    scalar code; vectorized, one pass over the strip is cheaper, and its centred sums
    match 40-digit values to 4e-15 out to |x| = 28 (tests/test_spectra.py).
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    if not np.logical_and.reduce(np.isfinite(z) & (z.imag > 0.0)):
        raise ValueError("faddeeva needs finite z with Im z > 0")
    fraction = (z.imag > 7.0) | (abs(z.real) > 28.0)
    if not np.logical_or.reduce(fraction):
        return _faddeeva_916(z.real, z.imag).reshape(shape)
    w = np.empty_like(z)
    zf = z[fraction]
    depth = np.floor(3.9 + 11.398 / (0.08254 * np.abs(zf.real) + 0.1421 * zf.imag + 0.2023))
    v = zf
    for k in range(int(depth.max()) - 1, 0, -1):  # a point starts over while k >= its depth
        v = zf - np.where(k < depth, 0.5 * k, 0.0) / v
    w[fraction] = 1j / (math.sqrt(math.pi) * v)
    strip = ~fraction
    w[strip] = _faddeeva_916(z.real[strip], z.imag[strip])
    return w.reshape(shape)


def _faddeeva_916(x, y):
    """w(x + iy) by Algorithm 916 (see `faddeeva`), for 1D x and y > 0, x of either sign."""
    y2 = y * y
    g = (np.exp(y2) * _ERFC(y).astype(float)
         - _ZA_C * y * np.add.reduce(_ZA_EXP / (_ZA_AN2 + y2[:, None]), axis=1))
    an = (_ZA_A * np.floor(x / _ZA_A + 0.5))[:, None] + _ZA_WINDOW  # a n, 0 exactly at n = 0
    d = an - x[:, None]
    terms = np.exp(d * -d) / (an * an + y2[:, None])  # exp(-d^2) / (y - i a n) = terms (y + i a n)
    terms[an == 0.0] = 0.0
    em = np.expm1(-2j * (x * y))  # e^{-2ixy} - 1
    return (np.exp(x * -x) * (g * (1.0 + em) - em * (0.5 * _ZA_C / y))
            + 0.5 * _ZA_C * (y * np.add.reduce(terms, axis=1)
                             + 1j * np.add.reduce(an * terms, axis=1)))


def _doppler_w(scenario: EmissionScenario, n: np.ndarray, proj: ProjectedDistribution,
               x_values) -> np.ndarray:
    """w(x) = x^3 E[sum G^2 / (D^2 + gt^2/4)], exact over the packet seen along n.

    Given delta, sum G^2 averages to a quadratic Q(u), u = delta - mean
    (coupling.conditional_polarization_sum), and D = x (u - u0) with
    u0 = -D(x, mean)/x. For a Gaussian, with r = sqrt(2) sigma, h = gt/(2x)
    and zeta = (u0 + i h)/r, expanding Q about u0 gives

        w = x [q2 + sqrt(pi) ((Q(u0) - q2 h^2) Re W(zeta) / (h r) - Q'(u0) Im W(zeta) / r)]

    with W the Faddeeva function (`faddeeva`: Algorithm 916 of Zaghloul & Ali, ACM
    TOMS 38, 2011, and the Laplace continued fraction of Poppe & Wijers, ACM TOMS 16,
    1990). Point masses, tables and a Gaussian's far wing (x = 0 or |zeta| > _FAR_WING,
    on its _WING_ORDER nodes) are weighted sums over the delta nodes, formed only there.
    """
    params = scenario.params
    eps = params.epsilon
    x = np.asarray(x_values, dtype=float)
    q0, q1, q2 = conditional_polarization_sum(scenario.coupling, x, n, scenario.dipole_axis,
                                              eps, proj)
    w, wing = np.empty_like(x), np.ones(x.shape, dtype=bool)
    if proj.kind == "gaussian":  # every point at once; the wing's values are replaced below
        r, xs = math.sqrt(2.0) * proj.sigma, np.where(x > 0.0, x, 1.0)
        u0 = -detuning(xs, proj.mean, eps) / xs
        h = 0.5 * params.gamma_tilde / xs
        zeta = (u0 + 1j * h) / r
        wing = (x <= 0.0) | ~(abs(zeta) <= _FAR_WING)
        fad = faddeeva(np.where(wing, 1j, zeta))
        with np.errstate(over="ignore", invalid="ignore"):  # only where x is tiny, in the wing
            w = xs * (q2 + math.sqrt(math.pi) * (
                (q0 + u0 * (q1 + u0 * q2) - q2 * h * h) * fad.real / (h * r)
                - (q1 + 2.0 * q2 * u0) * fad.imag / r))
    if np.logical_or.reduce(wing):
        u, xw = (proj.nodes - proj.mean)[:, None], x[wing]
        w[wing] = proj.weights @ (xw**3 * (q0[wing] + u * (q1[wing] + u * q2[wing]))
                                  / lorentzian_denominator(xw, proj.nodes[:, None], params))
    return w


def directional_spectrum(scenario: EmissionScenario, n, x_grid, *,
                         tol: float = 1e-10) -> SpectralResult:
    """Momentum-averaged emission density w(x) along direction n.

    The average over the wavepacket is exact in every direction (`_doppler_w`: a
    Faddeeva closed form for Gaussians, weighted sums over delta for point masses and
    tables), so the metadata method is "exact" and the error is 0. `tol` has no effect
    here; it stays because movbench/worker.py passes it. Multiply w by scenario.kappa
    (in the metadata) for probability per steradian per unit x.
    """
    n = check_unit(n, "n")
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise ValueError("x_grid must be a nonempty 1D array")
    if np.logical_or.reduce(x_grid[1:] - x_grid[:-1] <= 0):  # np.diff(x_grid) <= 0
        raise ValueError("x_grid must be strictly increasing")
    if np.logical_or.reduce(x_grid < 0):
        raise ValueError("reduced frequencies must be non-negative")

    proj = project(scenario.distribution, n, order=_WING_ORDER)
    w = _doppler_w(scenario, n, proj, x_grid)

    x_star = float(resonance_root(proj.mean, scenario.params.epsilon))
    doppler_width = (x_star**2) * proj.sigma
    window = 10.0 * max(scenario.params.gamma_tilde, doppler_width)
    warnings = []
    if not np.logical_or.reduce(abs(x_grid - x_star) <= window):
        warnings.append(
            f"x grid has no point within {window:.3g} of the resonance at x = {x_star:.9g}")

    metadata = {
        "kappa": scenario.kappa,
        "method": "exact",
        "model": scenario.coupling.label,
        "resonance_x": x_star,
        "warnings": warnings,
    }
    return SpectralResult(direction=n, x=x_grid, w=w, error=np.zeros(w.shape), metadata=metadata)


def _frequency_integral(scenario: EmissionScenario, models, n, proj: ProjectedDistribution,
                        formfactor: Formfactor, uppers, tol: float, max_panels: int):
    """kappa * E[int_0^U F w] over the delta law of proj (the packet seen along n: one
    direction, or the rows of a stack), per model (a sequence of CouplingModels: the
    leading axis), direction and U (last axis): values and errors, per model and
    direction evaluations (line integrals plus rule points, per node) and convergence.

    `wavepacket.delta_average` takes the average: a point mass's or a table's own nodes
    in one `line_fractions` build for every model; a Gaussian's first two rungs of
    `wavepacket.HERMITE_LADDER` in the first build, then each later rung in one build while
    some model and direction (a column) is open. Each column keeps the first rung whose
    change from the one before meets tol * max(1, |I|) at every U, and that change joins
    its error. A U inside the Doppler profile (the line integral jumps there) stays open
    at the last rung and reports converged = False.

    Under a formfactor every U is clamped to its reach (suggested_upper_limit),
    past which F < e^-60: the dropped tail, and any line lying there, is damped
    by that factor. "none" and "sharp" are closed forms. A smooth F takes the
    near pole pair in closed form with F at the pole, F w = F s + 2 Re[r F(z)/(x -
    z)] + 2 Re[r (F - F(z))/(x - z)], and its smooth first and last terms go,
    unscaled and in row blocks (`lineshape.in_row_blocks`: each block takes only the
    forms of s that its own rows need), to one run of integrate_adaptive's levels up to
    U per build (a column per rule, model and direction), which raises NumericalError
    when they or their integral are not finite: a smooth F takes one U, and a ladder of
    them raises ValueError. NumericalError (from LineFractions.integral) names the first
    U whose value is not finite."""
    uppers = np.asarray(uppers, dtype=float)
    if formfactor.kind != "none":
        uppers = np.minimum(uppers, formfactor.suggested_upper_limit())
    kappa = scenario.kappa

    def evaluate(rows, rules):
        lines = line_fractions(models, n, scenario.dipole_axis, rows, scenario.params)

        def sums(a):  # each rule's weighted sum over the node axis (second last), rules first
            parts = [w @ a[..., block, :] for w, block in rules]
            return parts[0][None] if len(parts) == 1 else np.array(parts)  # one rule: a view

        if formfactor.kind in ("none", "sharp"):
            values = kappa * sums(lines.integral(uppers))
            return (values, np.zeros(values.shape), np.full(values.shape[:-1], uppers.size),
                    np.ones(values.shape[:-1], dtype=bool))
        f_near = np.exp(formfactor._exponent(lines.near))

        def rest(x):  # in row blocks
            f_x = formfactor(x)

            def block(part, f_near):
                # (F(x) - F(z)) / (x - z); x - z never vanishes, since Im z != 0
                z, gap = part.near[..., None], x - part.near[..., None]
                quotient = f_near[..., None] * np.expm1(formfactor._slope(x, z) * gap) / gap
                return (f_x * part.smooth(x)
                        + 2.0 * (part.near_residue[..., None] * quotient).real)

            return sums(in_row_blocks(block, x.size, lines, f_near))

        # integrate_adaptive's levels as arrays: movbench/tracer.py wraps that function
        # and reads its evaluations and convergence as one number each, not per direction
        value, error, count, done = quadrature._levels(rest, 0.0, uppers.item(), tol, max_panels)
        values = kappa * (sums(lines.near_integral(uppers, f_near)) + value[..., None])
        return values, kappa * error[..., None], 1 + count, done

    return delta_average(proj, evaluate, tol)[:4]


def directional_probability(scenario: EmissionScenario, n, formfactor: Formfactor,
                            upper_limit: float, *, tol: float = 1e-9,
                            max_panels: int = 4096) -> QuadratureResult:
    """Emission probability per steradian along n: kappa * int_0^upper w * f.

    n is one direction (3,) or a stack of them (..., 3), computed together (one
    projection, one closed form per node, one run of the quadrature levels), as the one
    model of a `_frequency_integral` pass on the scenario's coupling; a stack gives every
    field of the result per direction, each as a call on that direction alone would. A
    Gaussian climbs the rungs of `wavepacket.HERMITE_LADDER`, the first two in one pass
    (both rungs' nodes join the closed form, and their rests are two columns of the same
    levels), then each later one while a direction is open.

    The formfactor multiplies the squared coupling, hence w exactly once. At
    each delta node (point mass, table row, or Gauss-Hermite node) the integral
    is closed form (lineshape.line_fractions); a gaussian or exponential
    formfactor leaves a smooth rest for integrate_adaptive, the one place
    `max_panels` applies. `error_estimate` (kappa-scaled) is 0 for point
    masses and tables under "none" or "sharp", else the rule's last level
    difference plus a Gaussian's change from the Hermite order before the one it
    kept; `evaluations` adds up every order it took. `converged` is False when
    that change still misses tol * max(1, |value|) at the last rung, e.g. for a
    Gaussian whose upper limit lies inside its Doppler profile. Under "none"
    the value grows with upper_limit (see `divergence_comparison`); under a
    formfactor an upper_limit past its suggested_upper_limit integrates to that.
    ParameterError unless upper_limit is finite and above the resonance at the
    mean delta (along every direction of a stack), naming the formfactor when its
    reach, short of the resonance, is where the integral would stop; NumericalError
    when the value is not finite (it overflowed).
    """
    n = check_unit(n, "n", stacked=True)
    proj = project(scenario.distribution, n)
    x_star = float(np.maximum.reduce(resonance_root(proj.mean, scenario.params.epsilon), axis=None))
    if not (math.isfinite(upper_limit) and upper_limit > x_star):
        reach = math.inf if formfactor.kind == "none" else formfactor.suggested_upper_limit()
        if reach <= upper_limit < math.inf:  # the integral would stop at the reach
            raise ParameterError(f"the {formfactor.kind} formfactor with cutoff "
                                 f"{formfactor.cutoff:g} reaches x = {reach:.6g}, which must "
                                 f"exceed the resonance at x = {x_star:.6g}")
        raise ParameterError(f"upper_limit {upper_limit!r} must be finite and exceed the "
                             f"resonance at x = {x_star:.6g}")
    values, errors, evaluations, converged = _frequency_integral(
        scenario, (scenario.coupling,), n, proj, formfactor, [float(upper_limit)], tol,
        max_panels)
    return QuadratureResult(values[0, ..., 0], errors[0, ..., 0], evaluations[0], converged[0])


@dataclass(frozen=True)
class ModelDivergence:
    """One model's cutoff scan, its exact law {"A": a}, kappa^-1 I(Lambda) ~ a Lambda^2,
    and the growth law that a and the scan's last value imply (`coupling.growth_kind`),
    carried as `classification.kind`; the classification holds no fitted number."""

    scan: CutoffScan
    classification: TailClassification
    exact_law: dict


@dataclass(frozen=True)
class DivergenceReport:
    """Growth laws of the direction-resolved emission integral per coupling model: per
    model the scan, the exact Lambda^2 coefficient (`exact_law`) and the growth law it
    implies (`kind`), and the verdict that A decides."""

    entries: dict[str, ModelDivergence]
    verdict: str | None
    note: str = ""

    def as_json_dict(self) -> dict:
        out: dict = {"models": {}, "verdict": self.verdict, "note": self.note}
        for label, entry in self.entries.items():
            out["models"][label] = {
                "kind": entry.classification.kind,
                "exact_law": entry.exact_law,
                "lambdas": entry.scan.lambdas.tolist(),
                "cumulative": entry.scan.values.tolist(),
                "errors": entry.scan.errors.tolist(),
                "converged": entry.scan.converged,
                "evaluations": entry.scan.evaluations,
            }
        return out


# their labels, roentgen, standard and roentgen_no_recoil_term, key the report's entries
_DIVERGENCE_MODELS = (CouplingModel.roentgen(), CouplingModel.standard(),
                      CouplingModel(kind="roentgen", include_recoil_term=False))


def divergence_comparison(scenario: EmissionScenario, n, *, lambdas=None,
                          tol: float = 1e-9, max_panels: int = 4096) -> DivergenceReport:
    """Cutoff scans, exact Lambda^2 coefficients and growth laws for three couplings.

    (a) the full velocity-dependent model (momentum shift and recoil term),
    (b) the velocity-independent model with identical kinematics in the
    denominator, and (c) the velocity-dependent model with the explicit
    recoil term deleted but the momentum shift kept -- the would-be cure
    that fails, because the shift feeds the recoil back through the Doppler
    term. The kinematics (epsilon in the resonance denominator) are shared;
    only the coupling differs.

    The verdict rests on the leading term: kappa^-1 I(Lambda) ~ A Lambda^2 with
    A = k^2 |e_perp|^2 / 2, half the slope q1 of every node's quotient
    (`coupling.quotient_slope`, as `line_fractions` takes it), for every wavepacket:
    |e_perp|^2/2 for (a), 0 for (b), 2 |e_perp|^2 for (c). Roentgen is strictly more
    divergent than standard when its A is larger, which holds in every direction but
    the dipole axis. Along the axis both A are 0 and the standard scan is 0
    (e_d . e_lambda = 0), so roentgen is strictly more divergent when its scan ends
    above 0 (a packet with transverse velocity), and otherwise there is no strict
    ordering. The verdict is withheld (None) when a scan missed its tolerance. Each
    model's `kind` is `coupling.growth_kind` of its A and its scan's last value: exact
    for epsilon > 0, whatever the ladder. When the last cutoff lies below 10/epsilon,
    short of the Lambda^2 regime (the Roentgen bracket vanishes near x = 1/epsilon), the
    note says the scan is pre-asymptotic: at its cutoffs the roentgen values may still
    lie below the standard ones.

    Each cutoff is closed form per delta node (see `directional_probability`):
    point masses and tables scan exactly, with errors 0. The three models share
    each pass of `_frequency_integral` (a Gaussian's first two Hermite rungs are one
    pass, each later rung one if a model needs it): the poles and logarithms, which the
    models share, are evaluated once, and each model's scan, its Hermite order
    included, equals, bit for bit, one computed alone. `max_panels` has no
    effect here; it stays because movbench/worker.py passes it.
    """
    n = check_unit(n, "n")
    if not scenario.params.epsilon > 0:
        raise ParameterError("divergence comparison needs finite mass: epsilon > 0")
    lambdas = np.asarray(quadrature.geometric_cutoffs() if lambdas is None else lambdas, dtype=float)
    if not (np.all(np.isfinite(lambdas)) and lambdas.size and lambdas[0] > 0):
        raise ValueError("cutoffs must be finite and positive")
    values, errors, evaluations, converged = _frequency_integral(
        scenario, _DIVERGENCE_MODELS, n, project(scenario.distribution, n), Formfactor.none(),
        lambdas, tol, max_panels)

    entries, perp_sq = {}, transverse_dipole(n, scenario.dipole_axis)[2]
    for i, model in enumerate(_DIVERGENCE_MODELS):
        scan = CutoffScan(lambdas=lambdas, values=values[i], errors=errors[i],
                          evaluations=int(evaluations[i]), converged=bool(converged[i]))
        a = 0.5 * float(quotient_slope(model, perp_sq))
        entries[model.label] = ModelDivergence(
            scan, TailClassification(growth_kind(a, scan.values[-1]), None, None), {"A": a})

    a_r, a_s = (entries[label].exact_law["A"] for label in ("roentgen", "standard"))
    notes, verdict = [], None
    if not all(entry.scan.converged for entry in entries.values()):
        notes.append("verdict withheld: at least one cutoff scan missed its tolerance; "
                     "move the cutoffs clear of the Doppler profile or loosen the tolerance")
    else:  # a_r == a_s == 0 only along the dipole axis, where the standard scan is 0
        strictly = a_r > a_s or entries["roentgen"].scan.values[-1] > 0.0
        verdict = (("roentgen strictly more divergent than standard" if strictly
                    else "no strict divergence ordering")
                   + f": kappa^-1 I ~ A Lambda^2 with A = {a_r:.6g} against {a_s:.6g}"
                   + ("" if a_r > a_s else ", along the dipole axis (the standard scan is 0)"))
    last, regime = lambdas[-1], 10.0 / scenario.params.epsilon
    if last < regime:
        notes.append(f"the scan is pre-asymptotic: its last cutoff Lambda = {last:.6g} "
                     f"lies below 10/epsilon = {regime:.6g}")
    return DivergenceReport(entries=entries, verdict=verdict, note="; ".join(notes))


@dataclass(frozen=True, eq=False)
class PatternResult:
    theta: np.ndarray
    values: np.ndarray
    mode: str
    metadata: dict


def angular_pattern(scenario: EmissionScenario, theta_grid, formfactor: Formfactor | None = None,
                    *, mode: str = "golden_rule", variant: str | None = None,
                    phi: float = 0.0, upper_limit: float | None = None,
                    tol: float = 1e-9, max_panels: int = 4096) -> PatternResult:
    """Emission density per steradian vs polar angle theta from the dipole axis.

    All directions come from one frame (`direction_from_angles` on the whole
    theta grid at azimuth phi).

    mode "golden_rule": the energy constraint is applied before the mode sum
    (finite for every epsilon); values are (3/8pi) times the normalized rate,
    so the reference configuration integrates to 1 over the sphere. `variant`
    (units.VARIANTS), if given, sets the scenario coupling's momentum shift
    (the standard model has none either way); metadata "variant" names the
    shift in force. The average over the wavepacket is exact given
    delta = n.beta, and for a Gaussian climbs the rungs of `wavepacket.HERMITE_LADDER`
    over delta (`rates.golden_rule_mean_rate`, with `tol`): NumericalError names the
    first angle still open at the last rung.
    Every angle is evaluated in one array pass per order: one projection of the
    packet onto the stack of directions, one golden-rule sum over its nodes.

    mode "integrated": one `directional_probability` call (with `tol`, `max_panels`)
    on the stack of directions, defined only with a formfactor -- an unregularized
    request is rejected (PhysicsRejection), not truncated, since the integral grows
    with the cutoff: like Lambda^2 where eps > 0 and k^2 |e_perp|^2 > 0
    (`coupling.quotient_slope`) at some angle, else at most logarithmically. NumericalError
    names the first angle that misses its tolerance.
    """
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta_grid must be a nonempty 1D array")
    e_d = scenario.dipole_axis
    directions = direction_from_angles(theta, phi, axis=e_d)

    if mode == "golden_rule":
        model = scenario.coupling if variant is None else with_variant(scenario.coupling, variant)
        proj = project(scenario.distribution, directions)
        res = golden_rule_mean_rate(proj, directions, e_d, scenario.params, model, tol)
        values = sphere_pattern_value(res.value)
        meta = {"mode": mode, "variant": VARIANTS[model.apply_momentum_shift], "phi": phi,
                "normalization": "reference sphere integral = 1"}
    elif mode != "integrated":
        raise ValueError(f"unknown pattern mode {mode!r}")
    elif formfactor is None or formfactor.kind == "none":
        if scenario.params.epsilon > 0 and np.any(
                quotient_slope(scenario.coupling, transverse_dipole(directions, e_d)[2])):
            raise PhysicsRejection(
                "integrated angular pattern rejected: with the velocity-dependent "
                "coupling at finite mass (epsilon > 0) the frequency integral grows "
                "like the cutoff squared; supply a formfactor (or use golden_rule mode)")
        raise PhysicsRejection(
            "integrated angular pattern rejected: the frequency integral is "
            "cutoff-dependent without a formfactor; supply one (or use golden_rule mode)")
    else:
        upper = formfactor.suggested_upper_limit() if upper_limit is None else float(upper_limit)
        res = directional_probability(scenario, directions, formfactor, upper, tol=tol,
                                      max_panels=max_panels)
        values = res.value
        meta = {"mode": mode, "formfactor": formfactor.kind, "cutoff": formfactor.cutoff,
                "upper_limit": upper, "phi": phi,
                "normalization": "kappa-scaled probability per steradian"}
    if not np.logical_and.reduce(res.converged, axis=None):
        bad = np.flatnonzero(~res.converged)[0]
        raise NumericalError(f"angular pattern did not converge at theta = {theta[bad]:.6g} "
                             f"(error {res.error_estimate[bad]:.3g}); loosen tol or, for "
                             "an integrated pattern, raise max_panels")
    return PatternResult(theta=theta, values=values, mode=mode, metadata=meta)
