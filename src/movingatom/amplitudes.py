"""Single-excitation emission amplitudes: pole solution and ODE oracle.

With one excitation shared between the atom and the field, the amplitude
pair (a, b_k) for "atom excited, no photon" / "atom ground, photon in mode k"
obeys a linear Schroedinger system. In the single-pole (Weisskopf-Wigner)
approximation the atom amplitude decays exponentially and the long-time
photon amplitude in a mode of reduced frequency x, direction n is

    |b|^2  propto  G^2 / (D^2 + gamma_tilde^2 / 4)

where G is the reduced coupling and

    D(x, delta, eps) = 1 - x*(1 - delta) - eps*x^2

is the dimensionless pole detuning: the energy mismatch between the initial
state and "photon x emitted, atom recoiled", with delta = n.beta the Doppler
projection and eps the recoil parameter. (The quadratic eps*x^2 term is the
photon recoil energy; D is written hbar-consistently, i.e. with the photon
momentum hbar*k, which the energy balance requires.) Radiative level shifts
are taken as absorbed into the transition frequency.

This module provides the kernels built from that solution and, independently,
a brute-force discrete-mode integration of the same linear system, used to
validate the pole approximation end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import (CouplingModel, doppler_projection, polarization_sum,
                       recoil_coefficient)
from .units import DimensionlessParams


def detuning(x, delta, epsilon):
    """Pole detuning D = 1 - x*(1 - delta) - eps*x^2 (vectorized)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - x * (1.0 - delta) - epsilon * (x * x)


def resonance_root(delta, epsilon):
    """Positive root x* of D(x, delta) = 0, i.e. eps*x^2 + (1 - delta)*x - 1 = 0 (vectorized),
    as 2 / ((1-delta) + sqrt((1-delta)^2 + 4 eps)): exact as eps -> 0 and free of
    cancellation for small eps. Requires eps > 0 or a sub-luminal delta < 1."""
    om = 1.0 - np.asarray(delta, dtype=float)
    root = om + np.sqrt(om * om + 4.0 * epsilon)
    if np.any(root <= 0.0):
        raise ValueError(f"no positive emission frequency for delta={delta!r}, eps={epsilon!r}")
    return 2.0 / root


def lorentzian_denominator(x, delta, params: DimensionlessParams):
    """D^2 + gamma_tilde^2/4, the squared distance to the complex pole."""
    d = detuning(x, delta, params.epsilon)
    return d * d + 0.25 * params.gamma_tilde * params.gamma_tilde


def spectral_kernel(model: CouplingModel, x, n, beta, params: DimensionlessParams, e_d):
    """Long-time photon density in (x, n) for one atomic velocity beta:

        rho = x * sum_lambda G_lambda^2 / (D^2 + gamma_tilde^2/4).

    The factor x is the per-photon field strength squared (proportional to
    omega); the mode-count factor x^2 is *not* included here -- emission
    integrands are x^2 * rho (see the spectra module).

    Broadcasts over beta (..., 3) and x like the coupling module.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    delta = doppler_projection(beta, n)
    x = np.asarray(x, dtype=float)
    gsq = polarization_sum(model, beta, x, n, e_d, params.epsilon)
    return x * gsq / lorentzian_denominator(x, delta, params)


def perpendicular_kernel(x, delta, params: DimensionlessParams,
                         model: CouplingModel | None = None):
    """rho for emission perpendicular to the dipole axis.

    The cross term vanishes (e_d . n = 0), so sum G^2 is the squared bracket
    (1 - delta + k*eps*x)^2 with k from `recoil_coefficient` (1 for the
    standard dipole). For the full velocity-dependent model (momentum shift
    and recoil term on, the default) this is

        rho = x * (1 - delta - eps*x)^2 / ((1 - x(1-delta) - eps*x^2)^2 + gt^2/4),

    which the general-geometry engine must reproduce exactly; the agreement
    of the two routes is the central structural identity of the pole solution.
    """
    if model is None:
        model = CouplingModel.roentgen()
    x = np.asarray(x, dtype=float)
    gsq = 1.0
    if model.kind == "roentgen":
        bracket = 1.0 - delta + recoil_coefficient(model, params.epsilon) * params.epsilon * x
        gsq = bracket * bracket
    return x * gsq / lorentzian_denominator(x, delta, params)


def transient_factor(x, delta, params: DimensionlessParams, tau):
    """Finite-time replacement for the Lorentzian factor 1/(D^2 + gt^2/4).

    The two-exponential photon amplitude (decaying atom pole plus free mode
    oscillation) has squared modulus

        |b(tau)|^2 propto (1 - 2 e^{-gt tau/2} cos(D tau) + e^{-gt tau})
                          / (D^2 + gt^2/4)

    with tau = omega0 * t. As tau -> infinity this tends to the Lorentzian
    factor; at tau = 0 it vanishes. Useful for comparing against the direct
    ODE integration at finite time.
    """
    d = detuning(x, delta, params.epsilon)
    gt = params.gamma_tilde
    decay = np.exp(-0.5 * gt * tau)
    numer = 1.0 - 2.0 * decay * np.cos(d * tau) + decay * decay
    return numer / (d * d + 0.25 * gt * gt)


# ---------------------------------------------------------------------------
# Discrete-mode oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteModeSystem:
    """A finite bath of field modes coupled to the two-level atom.

    In the frame rotating at the transition frequency the amplitudes obey

        da/dtau   = - sum_j g_j b_j
        db_j/dtau = + i D_j b_j + g_j a

    with real couplings g_j and pole detunings D_j = detuning(x_j, delta, eps).
    This pair conserves |a|^2 + sum |b_j|^2 exactly; any drift in the
    numerical norm measures integrator error, which is why the oracle
    monitors it. Couplings are real and momentum-independent across the
    band -- one g_j per mode -- which keeps the system Hermitian.

    x: strictly increasing mode frequencies (reduced units).
    weights: mode measure (spacing) used by density bookkeeping.
    g: coupling of each mode.
    delta, epsilon: kinematics entering D_j.
    """

    x: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    delta: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        g = np.asarray(self.g, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("mode grid must be a nonempty 1D array")
        if np.any(np.diff(x) <= 0):
            raise ValueError("mode grid must be strictly increasing")
        if g.shape != x.shape or w.shape != x.shape:
            raise ValueError("couplings and weights must match the mode grid shape")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(w))):
            raise ValueError("couplings and weights must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "weights", w)

    @property
    def detunings(self) -> np.ndarray:
        return detuning(self.x, self.delta, self.epsilon)


def flat_band_system(n_modes: int, half_width: float, gamma_eff: float,
                     delta: float = 0.0, epsilon: float = 0.0,
                     center: float | None = None) -> DiscreteModeSystem:
    """Uniform band of modes around the resonance with constant coupling.

    The coupling is chosen so the continuum golden-rule decay rate of the
    atom population is gamma_eff:  2 pi g^2 / dx = gamma_eff. The band is
    centered on the resonance frequency (D = 0) unless `center` is given.
    """
    if n_modes < 2:
        raise ValueError("need at least two modes for a band")
    if center is None:
        center = float(resonance_root(delta, epsilon))
    x = np.linspace(center - half_width, center + half_width, n_modes)
    dx = x[1] - x[0]
    g = np.full(n_modes, np.sqrt(gamma_eff * dx / (2.0 * np.pi)))
    return DiscreteModeSystem(x=x, g=g, weights=np.full(n_modes, dx),
                              delta=delta, epsilon=epsilon)


@dataclass
class EvolutionResult:
    """Output of `discrete_mode_evolution`.

    times: recorded tau values.
    atom_population: |a|^2 at those times.
    mode_populations: |b_j|^2 at the final time.
    final_state: the full complex state vector [a, b_1 ... b_N].
    max_norm_drift: max over recordings of |1 - total norm|.
    norm_ok: drift stayed within the 1e-6 contract.
    """

    times: np.ndarray
    atom_population: np.ndarray
    mode_populations: np.ndarray
    final_state: np.ndarray
    max_norm_drift: float
    norm_ok: bool
    steps: int = 0
    dt: float = 0.0
    extras: dict = field(default_factory=dict)


def _rhs(state: np.ndarray, g: np.ndarray, idet: np.ndarray) -> np.ndarray:
    out = np.empty_like(state)
    out[0] = -np.dot(g, state[1:])
    out[1:] = idet * state[1:] + g * state[0]
    return out


def discrete_mode_evolution(system: DiscreteModeSystem, t_final: float,
                            dt: float = 0.5, record_every: int = 50) -> EvolutionResult:
    """Integrate the coupled amplitude equations with fixed-step RK4.

    The step must resolve both the fastest mode phase (|D_j|_max * dt small)
    and the decay; with the tolerances used here the norm drift contract of
    1e-6 is met with large margin. Preconditions checked: the mode spacing
    resolves the effective linewidth on a flat band (quasi-continuum), and
    the run is shorter than the revival time 2 pi / dx at which a finite
    bath feeds the excitation back.
    """
    if dt <= 0 or t_final <= dt:
        raise ValueError("need 0 < dt < t_final")
    n_steps = int(np.ceil(t_final / dt))
    spacing = np.diff(system.x)
    revival = 2.0 * np.pi / float(spacing.min())
    if t_final > 0.5 * revival:
        raise ValueError(
            f"duration {t_final:g} exceeds half the bath revival time {revival:g}; "
            "increase the mode count or shorten the run")

    g = system.g
    idet = 1j * system.detunings
    state = np.zeros(system.x.size + 1, dtype=complex)
    state[0] = 1.0

    times = [0.0]
    pops = [1.0]
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        k1 = _rhs(state, g, idet)
        k2 = _rhs(state + 0.5 * dt * k1, g, idet)
        k3 = _rhs(state + 0.5 * dt * k2, g, idet)
        k4 = _rhs(state + dt * k3, g, idet)
        state = state + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % record_every == 0 or step == n_steps:
            norm = float(np.vdot(state, state).real)
            max_drift = max(max_drift, abs(1.0 - norm))
            times.append(step * dt)
            pops.append(float(abs(state[0]) ** 2))

    return EvolutionResult(
        times=np.asarray(times),
        atom_population=np.asarray(pops),
        mode_populations=np.abs(state[1:]) ** 2,
        final_state=state,
        max_norm_drift=max_drift,
        norm_ok=max_drift <= 1e-6,
        steps=n_steps,
        dt=dt,
    )


def pole_mode_populations(system: DiscreteModeSystem, gamma_tilde: float) -> np.ndarray:
    """Long-time |b_j|^2 predicted by the single-pole solution:
    g_j^2 / (D_j^2 + gamma_tilde^2/4)."""
    d = system.detunings
    return system.g**2 / (d * d + 0.25 * gamma_tilde * gamma_tilde)


def fit_decay_rate(times: np.ndarray, populations: np.ndarray,
                   window: tuple[float, float]) -> float:
    """Least-squares slope of -ln |a|^2 over times in [window]."""
    times = np.asarray(times, dtype=float)
    populations = np.asarray(populations, dtype=float)
    sel = (times >= window[0]) & (times <= window[1]) & (populations > 0)
    if int(sel.sum()) < 3:
        raise ValueError("decay-rate window contains fewer than 3 recorded points")
    slope = np.polyfit(times[sel], np.log(populations[sel]), 1)[0]
    return -float(slope)


def compare_to_pole(system: DiscreteModeSystem, result: EvolutionResult,
                    gamma_tilde: float,
                    fit_window: tuple[float, float] | None = None) -> dict:
    """Head-to-head of the brute-force evolution against the pole solution.

    Returns fitted decay rate vs the golden-rule band value, the relative L2
    distance between the final photon distribution and the Lorentzian pole
    prediction, and the norm-conservation diagnostics.
    """
    if fit_window is None:
        fit_window = (0.5 / gamma_tilde, 3.0 / gamma_tilde)
    fitted = fit_decay_rate(result.times, result.atom_population, fit_window)
    predicted = pole_mode_populations(system, gamma_tilde)
    num = result.mode_populations
    l2 = float(np.linalg.norm(num - predicted) / np.linalg.norm(predicted))
    return {
        "fitted_rate": fitted,
        "golden_rule_rate": gamma_tilde,
        "rate_ratio": fitted / gamma_tilde,
        "l2_shape_error": l2,
        "max_norm_drift": result.max_norm_drift,
        "norm_ok": result.norm_ok,
        "fit_window": list(fit_window),
        "n_modes": int(system.x.size),
        "duration": float(result.times[-1]),
    }


def evolution_matrix(system: DiscreteModeSystem) -> np.ndarray:
    """Dense generator M of the linear system dy/dtau = M y, y = [a, b].

    Exposed so small systems can be cross-checked against a dense
    matrix-exponential solution computed by an entirely different method.
    """
    n = system.x.size
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 1:] = -system.g
    m[1:, 0] = system.g
    m[np.arange(1, n + 1), np.arange(1, n + 1)] = 1j * system.detunings
    return m
