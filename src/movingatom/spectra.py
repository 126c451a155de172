"""Direction-resolved emission spectra, probabilities, and the divergence race.

The observable this package exists to compute is the distribution of
spontaneously emitted photons over reduced frequency x and direction n,
averaged over the atomic momentum wavepacket:

    dP/(dOmega dx) = kappa * w(x),      w(x) = x^2 * < rho(x, n, beta) >

with rho the spectral kernel (pole solution), x^2 the mode density, and
kappa the normalization constant (units module; the reference convention
makes the rest-atom, infinite-mass, velocity-independent case integrate to 1
over the sphere). The average < . > is exact in every direction: a Faddeeva
closed form for Gaussian packets and weighted sums over delta = n.beta for
point masses and tables; `directional_spectrum(method="full3d")` keeps a
tensor Gauss-Hermite rule over the full velocity as the independent oracle.

The frequency integral of w decides everything interesting: with the
velocity-dependent coupling at the recoil-shifted momentum it grows like
Lambda^2 (dropping the explicit recoil term does not cure this), with the
velocity-independent one only logarithmically. At each delta node it is a
closed form (amplitudes.line_fractions). `divergence_comparison` measures
the growth laws side by side; `directional_probability` accepts a formfactor
that restores integrability, and with it formfactor dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature
from .amplitudes import (detuning, line_fractions, lorentzian_denominator, resonance_root,
                         spectral_kernel)
from .coupling import CouplingModel, conditional_polarization_sum
from .geometry import check_unit, direction_from_angles
from .quadrature import CutoffScan, NumericalError, QuadratureResult, TailClassification
from .rates import golden_rule_mean_rate, sphere_pattern_value
from .units import DimensionlessParams, Normalization, ParameterError
from .wavepacket import MomentumDistribution, ProjectedDistribution, expectation, project

# Beyond |zeta| = 20 the closed form's partial fractions cancel (rounding
# ~ |zeta|^2 eps_mach); there no Gauss-Hermite delta node nears the pole.
_FAR_WING = 20.0


class PhysicsRejection(RuntimeError):
    """The requested computation is ill-defined without regularization."""


@dataclass(frozen=True, eq=False)
class EmissionScenario:
    """Atom parameters, coupling model, wavepacket, and dipole axis."""

    params: DimensionlessParams
    coupling: CouplingModel
    distribution: MomentumDistribution
    dipole_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self) -> None:
        object.__setattr__(self, "dipole_axis", check_unit(self.dipole_axis, "dipole_axis"))

    def with_coupling(self, model: CouplingModel) -> "EmissionScenario":
        return replace(self, coupling=model)

    @property
    def kappa(self) -> float:
        return Normalization.reference(self.params).kappa


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

    _KINDS = ("none", "sharp", "gaussian", "exponential")

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
        return -1.0 / self.cutoff if self.kind == "exponential" else -(x + z) / self.cutoff**2

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


def _doppler_w(scenario: EmissionScenario, n: np.ndarray, proj: ProjectedDistribution,
               x_values) -> np.ndarray:
    """w(x) = x^3 E[sum G^2 / (D^2 + gt^2/4)], exact over the packet seen along n.

    Given delta, sum G^2 averages to a quadratic Q(u), u = delta - mean
    (coupling.conditional_polarization_sum), and D = x (u - u0) with
    u0 = -D(x, mean)/x. For a Gaussian, with r = sqrt(2) sigma, h = gt/(2x)
    and zeta = (u0 + i h)/r, expanding Q about u0 gives

        w = x [q2 + sqrt(pi) ((Q(u0) - q2 h^2) Re W(zeta) / (h r) - Q'(u0) Im W(zeta) / r)]

    with W the Faddeeva function (Poppe & Wijers, ACM TOMS 16, 1990). Point
    masses, tables and the far wing are weighted sums over the delta nodes.
    """
    params = scenario.params
    eps = params.epsilon
    x = np.asarray(x_values, dtype=float)
    q0, q1, q2 = conditional_polarization_sum(scenario.coupling, x, n, scenario.dipole_axis,
                                              eps, proj)
    u = (proj.nodes - proj.mean)[:, None]
    w = proj.weights @ (x**3 * (q0 + u * (q1 + u * q2))
                        / lorentzian_denominator(x, proj.nodes[:, None], params))
    if proj.kind == "gaussian":
        from scipy.special import wofz  # deferred: the import costs more than most runs

        r = math.sqrt(2.0) * proj.sigma
        near = np.flatnonzero(x > 0.0)
        xn = x[near]
        u0 = -detuning(xn, proj.mean, eps) / xn
        h = 0.5 * params.gamma_tilde / xn
        zeta = (u0 + 1j * h) / r
        keep = np.abs(zeta) <= _FAR_WING
        near, xn, u0, h, zeta = near[keep], xn[keep], u0[keep], h[keep], zeta[keep]
        a0, a1, a2 = q0[near], q1[near], q2[near]
        faddeeva = wofz(zeta)
        w[near] = xn * (a2 + math.sqrt(math.pi) * (
            (a0 + u0 * (a1 + u0 * a2) - a2 * h * h) * faddeeva.real / (h * r)
            - (a1 + 2.0 * a2 * u0) * faddeeva.imag / r))
    return w


def _full_w(scenario: EmissionScenario, n: np.ndarray, x_values: np.ndarray,
            order: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """w(x) by direct 3D expectation of the general-geometry kernel.

    The x^2 mode-density factor is placed inside the per-node integrand, so
    the average over nodes is a weighted sum of complete point-mass spectra:
    that makes the pure-state average and the point-mass mixture identical
    floating-point reductions (see the wavepacket module).
    """
    params = scenario.params
    model = scenario.coupling
    e_d = scenario.dipole_axis
    x_values = np.asarray(x_values, dtype=float)
    w = np.empty(x_values.size)
    err = np.empty(x_values.size)
    for j, x in enumerate(x_values):
        x = float(x)

        def integrand(beta, _x=x):
            return (_x * _x) * spectral_kernel(model, _x, n, beta, params, e_d)

        res = expectation(scenario.distribution, integrand, order=order)
        w[j] = res.value
        err[j] = res.error
    return w, err


def directional_spectrum(scenario: EmissionScenario, n, x_grid, *,
                         method: str = "auto", order: int = 40,
                         tol: float = 1e-10) -> SpectralResult:
    """Momentum-averaged emission density w(x) along direction n.

    method: "auto" averages exactly over the wavepacket in every direction
    (a Faddeeva closed form for Gaussians, weighted sums over delta for
    point masses and tables; metadata method "exact", error 0). "full3d"
    is the independent oracle path: a tensor Gauss-Hermite rule of `order`
    over the full velocity, with an order-doubling error that must stay
    within tol*|w| (NumericalError otherwise). Multiply w by scenario.kappa
    (in the metadata) for probability per steradian per unit x.
    """
    n = check_unit(n, "n")
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise ValueError("x_grid must be a nonempty 1D array")
    if np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be strictly increasing")
    if np.any(x_grid < 0):
        raise ValueError("reduced frequencies must be non-negative")

    proj = project(scenario.distribution, n, order=order)
    if method == "auto":
        method = "exact"
        w = _doppler_w(scenario, n, proj, x_grid)
        err = np.zeros_like(w)
    elif method == "full3d":
        w, err = _full_w(scenario, n, x_grid, order=order)
        bad = np.flatnonzero(err > tol * np.abs(w))
        if bad.size:
            raise NumericalError(f"full3d Gauss-Hermite rule of order {order} misses tol {tol:g} "
                                 f"at x = {x_grid[bad[0]]:.9g} (error {err[bad[0]]:.3g})")
    else:
        raise ValueError(f"unknown method {method!r}")

    x_star = float(resonance_root(proj.mean, scenario.params.epsilon))
    doppler_width = (x_star**2) * proj.sigma
    window = 10.0 * max(scenario.params.gamma_tilde, doppler_width)
    warnings = []
    if not np.any(np.abs(x_grid - x_star) <= window):
        warnings.append(
            f"x grid has no point within {window:.3g} of the resonance at x = {x_star:.9g}")

    metadata = {
        "kappa": scenario.kappa,
        "method": method,
        "model": scenario.coupling.label,
        "resonance_x": x_star,
        "warnings": warnings,
    }
    return SpectralResult(direction=n, x=x_grid, w=w, error=err, metadata=metadata)


def _exprel(w):
    """(e^w - 1)/w for complex w; its series near 0, where the quotient cancels."""
    small = np.abs(w) < 0.1
    ws, wl = np.where(small, w, 0.0), np.where(small, 1.0, w)
    series = np.ones_like(ws)
    for k in range(11, 1, -1):
        series = 1.0 + ws * series / k
    return np.where(small, series, np.expm1(wl) / wl)


def _projections(dist: MomentumDistribution, n):
    """The law of delta along n at the default Hermite order and, for a Gaussian,
    at half that order (the order check of `_frequency_integral`), else None."""
    proj = project(dist, n)
    return proj, (project(dist, n, order=proj.nodes.size // 2) if proj.kind == "gaussian" else None)


def _frequency_integral(scenario: EmissionScenario, n, proj: ProjectedDistribution,
                        formfactor: Formfactor, uppers, tol: float, max_panels: int,
                        half: ProjectedDistribution | None = None):
    """kappa * E[int_0^U F w] per U over the delta nodes of proj: values, errors,
    evaluations (line integrals plus rule points, per node) and convergence.

    "none" and "sharp" are closed forms. A smooth F takes the near pole pair in
    closed form with F at the pole, F w = F s + 2 Re[r F(z)/(x - z)] + 2 Re[r (F -
    F(z))/(x - z)], and its smooth first and last terms go, unscaled, to
    integrate_adaptive (for one U). Given `half`, the same packet at half the
    Hermite order (`_projections`), the sum is redone on it; the change joins the
    error and must meet tol * max(1, |I|), which fails for a U inside the Doppler
    profile (the line integral jumps there). NumericalError (from
    LineFractions.integral) names the first U whose value is not finite."""
    uppers = np.asarray(uppers, dtype=float)
    lines = line_fractions(scenario.coupling, n, scenario.dipole_axis, proj, scenario.params)
    kappa, weights = scenario.kappa, proj.weights
    if formfactor.kind in ("none", "sharp"):
        ends = np.minimum(uppers, formfactor.cutoff) if formfactor.kind == "sharp" else uppers
        values = kappa * (weights @ lines.integral(ends))
        errors, evaluations, converged = np.zeros_like(values), weights.size * uppers.size, True
    else:
        z = lines.near[:, None]
        f_near = np.exp(formfactor._exponent(z))

        def rest(x):
            slope = formfactor._slope(x, z)
            quotient = f_near * slope * _exprel(slope * (x - z))  # (F(x) - F(z)) / (x - z)
            return weights @ (formfactor(x) * lines.smooth(x)
                              + 2.0 * np.real(lines.near_residue[:, None] * quotient))

        res = quadrature.integrate_adaptive(rest, 0.0, float(uppers[0]), tol, max_panels=max_panels)
        values = kappa * (weights @ lines.near_integral(uppers, f_near[:, 0]) + res.value)
        errors, evaluations = np.array([kappa * res.error_estimate]), weights.size * (1 + res.evaluations)
        converged = res.converged
    if half is not None:
        coarse, _, more, ok = _frequency_integral(scenario, n, half, formfactor, uppers, tol,
                                                  max_panels)
        gap = np.abs(values - coarse)
        errors, evaluations = errors + gap, evaluations + more
        converged = ok and converged and bool(np.all(gap <= tol * np.maximum(1.0, np.abs(values))))
    return values, errors, evaluations, converged


def directional_probability(scenario: EmissionScenario, n, formfactor: Formfactor,
                            upper_limit: float, *, tol: float = 1e-9,
                            max_panels: int = 4096) -> QuadratureResult:
    """Emission probability per steradian along n: kappa * int_0^upper w * f.

    The formfactor multiplies the squared coupling, hence w exactly once. At
    each delta node (point mass, table row, or Gauss-Hermite node) the integral
    is closed form (amplitudes.line_fractions); a gaussian or exponential
    formfactor leaves a smooth rest for integrate_adaptive, the one place
    `max_panels` applies. `error_estimate` (kappa-scaled) is 0 for point
    masses and tables under "none" or "sharp", else the rule's last level
    difference plus a Gaussian's change from half the Hermite order.
    `converged` is False when that misses tol * max(1, |value|), e.g. for a
    Gaussian whose upper limit lies inside its Doppler profile. Under "none"
    the value grows with upper_limit (see `divergence_comparison`).
    ParameterError unless upper_limit is finite and above the resonance at the
    mean delta; NumericalError when the value is not finite (it overflowed).
    """
    n = check_unit(n, "n")
    proj, half = _projections(scenario.distribution, n)
    x_star = float(resonance_root(proj.mean, scenario.params.epsilon))
    if not (math.isfinite(upper_limit) and upper_limit > x_star):
        raise ParameterError(f"upper_limit {upper_limit!r} must be finite and exceed the "
                             f"resonance at x = {x_star:.6g}")
    values, errors, evaluations, converged = _frequency_integral(
        scenario, n, proj, formfactor, [float(upper_limit)], tol, max_panels, half)
    return QuadratureResult(value=float(values[0]), error_estimate=float(errors[0]),
                            evaluations=evaluations, converged=converged)


@dataclass(frozen=True)
class ModelDivergence:
    scan: CutoffScan
    classification: TailClassification


@dataclass(frozen=True)
class DivergenceReport:
    """Growth laws of the direction-resolved emission integral per coupling model."""

    entries: dict[str, ModelDivergence]
    verdict: str | None
    note: str = ""

    def as_json_dict(self) -> dict:
        out: dict = {"models": {}, "verdict": self.verdict, "note": self.note}
        for label, entry in self.entries.items():
            cls = entry.classification
            out["models"][label] = {
                "kind": cls.kind,
                "exponent": cls.exponent,
                "fit_residual": cls.fit_residual,
                "log_r_squared": cls.log_r_squared,
                "lambdas": entry.scan.lambdas.tolist(),
                "cumulative": entry.scan.values.tolist(),
                "errors": entry.scan.errors.tolist(),
                "converged": entry.scan.converged,
                "evaluations": entry.scan.evaluations,
            }
        return out


def _describe(cls: TailClassification) -> str:
    if cls.kind == "power":
        return f"power (cumulative ~ Lambda^{cls.exponent:.2f})"
    return cls.kind


_DIVERGENCE_MODELS: tuple[tuple[str, CouplingModel], ...] = (
    ("roentgen", CouplingModel.roentgen()),
    ("standard", CouplingModel.standard()),
    ("roentgen_no_recoil_term",
     CouplingModel(kind="roentgen", include_recoil_term=False, apply_momentum_shift=True)),
)


def divergence_comparison(scenario: EmissionScenario, n, *, lambdas=None,
                          tol: float = 1e-9, max_panels: int = 4096) -> DivergenceReport:
    """Cutoff scans and growth-law fits for three coupling variants.

    (a) the full velocity-dependent model (momentum shift and recoil term),
    (b) the velocity-independent model with identical kinematics in the
    denominator, and (c) the velocity-dependent model with the explicit
    recoil term deleted but the momentum shift kept -- the would-be cure
    that fails, because the shift feeds the recoil back through the Doppler
    term. The kinematics (epsilon in the resonance denominator) are shared;
    only the coupling differs. The verdict is withheld when a scan missed
    its tolerance or a fit was ambiguous.

    Each cutoff is closed form per delta node (see `directional_probability`):
    point masses and tables scan exactly, with errors 0. `max_panels` has no
    effect here; it stays because movbench/worker.py passes it.
    """
    n = check_unit(n, "n")
    if not scenario.params.epsilon > 0:
        raise ValueError("divergence comparison needs finite mass: epsilon > 0")
    lambdas = np.asarray(quadrature.geometric_cutoffs() if lambdas is None else lambdas, dtype=float)
    if not (np.all(np.isfinite(lambdas)) and lambdas.size and lambdas[0] > 0):
        raise ValueError("cutoffs must be finite and positive")
    proj, half = _projections(scenario.distribution, n)

    entries = {}
    for label, model in _DIVERGENCE_MODELS:
        values, errors, evaluations, converged = _frequency_integral(
            scenario.with_coupling(model), n, proj, Formfactor.none(), lambdas, tol, max_panels,
            half)
        scan = CutoffScan(lambdas=lambdas, values=values, errors=errors,
                          evaluations=evaluations, converged=converged)
        cls = quadrature.classify_tail(scan)
        entries[label] = ModelDivergence(scan=scan, classification=cls)

    r = entries["roentgen"].classification
    s = entries["standard"].classification
    note = ""
    if not all(entry.scan.converged for entry in entries.values()):
        verdict = None
        note = ("verdict withheld: at least one cutoff scan missed its tolerance; "
                "move the cutoffs clear of the Doppler profile or loosen the tolerance")
    elif r.kind == "ambiguous" or s.kind == "ambiguous":
        verdict = None
        note = "verdict withheld: at least one growth-law fit was ambiguous"
    else:
        rank = {"convergent": 0, "logarithmic": 1, "power": 2}
        strictly = rank[r.kind] > rank[s.kind] or (
            r.kind == "power" and s.kind == "power"
            and r.exponent is not None and s.exponent is not None
            and r.exponent > s.exponent + 0.2)
        if strictly:
            verdict = (f"roentgen strictly more divergent than standard: "
                       f"{_describe(r)} vs {_describe(s)}")
        else:
            verdict = (f"no strict divergence ordering: {_describe(r)} vs {_describe(s)}")
    return DivergenceReport(entries=entries, verdict=verdict, note=note)


@dataclass(frozen=True, eq=False)
class PatternResult:
    theta: np.ndarray
    values: np.ndarray
    mode: str
    metadata: dict


def angular_pattern(scenario: EmissionScenario, theta_grid, formfactor: Formfactor | None = None,
                    *, mode: str = "golden_rule", variant: str = "shifted",
                    phi: float = 0.0, upper_limit: float | None = None,
                    tol: float = 1e-9, max_panels: int = 4096) -> PatternResult:
    """Emission density per steradian vs polar angle theta from the dipole axis.

    All directions come from one frame (`direction_from_angles` on the whole
    theta grid at azimuth phi).

    mode "golden_rule": the energy constraint is applied before the mode sum
    (finite for every epsilon); values are (3/8pi) times the normalized rate,
    so the reference configuration integrates to 1 over the sphere. The
    average over the wavepacket is exact given delta = n.beta, with a
    40-point Gauss-Hermite rule over delta for a Gaussian (built once).
    Every angle is evaluated in one array pass: one projection of the packet
    onto the stack of directions, one golden-rule sum over its nodes.

    mode "integrated": `directional_probability` (with `tol`, `max_panels`), defined
    only with a formfactor -- an unregularized request is rejected, not truncated,
    since at finite mass the integral grows with the cutoff.
    """
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta_grid must be a nonempty 1D array")
    e_d = scenario.dipole_axis
    directions = direction_from_angles(theta, phi, axis=e_d)

    if mode == "golden_rule":
        values = sphere_pattern_value(golden_rule_mean_rate(
            variant, project(scenario.distribution, directions), directions, e_d,
            scenario.params, scenario.coupling))
        meta = {"mode": mode, "variant": variant, "phi": phi,
                "normalization": "reference sphere integral = 1"}
        return PatternResult(theta=theta, values=values, mode=mode, metadata=meta)

    if mode != "integrated":
        raise ValueError(f"unknown pattern mode {mode!r}")
    if formfactor is None or formfactor.kind == "none":
        if scenario.params.epsilon > 0 and scenario.coupling.kind == "roentgen":
            raise PhysicsRejection(
                "integrated angular pattern rejected: with the velocity-dependent "
                "coupling at finite mass (epsilon > 0) the frequency integral grows "
                "like the cutoff squared; supply a formfactor (or use golden_rule mode)")
        raise PhysicsRejection(
            "integrated angular pattern rejected: the frequency integral is "
            "cutoff-dependent without a formfactor; supply one (or use golden_rule mode)")
    upper = float(upper_limit) if upper_limit is not None else formfactor.suggested_upper_limit()

    values = []
    for t, n in zip(theta, directions):
        res = directional_probability(scenario, n, formfactor, upper, tol=tol, max_panels=max_panels)
        if not res.converged:
            raise NumericalError(f"angular pattern integration did not converge at theta = {t:.6g} "
                                 f"(error {res.error_estimate:.3g}); raise max_panels or loosen tol")
        values.append(res.value)
    meta = {"mode": mode, "formfactor": formfactor.kind, "cutoff": formfactor.cutoff,
            "upper_limit": upper, "phi": phi,
            "normalization": "kappa-scaled probability per steradian"}
    return PatternResult(theta=theta, values=np.asarray(values), mode=mode, metadata=meta)
