"""Single-excitation emission amplitudes: pole solution and exact discrete-mode oracle.

With one excitation shared between the atom and the field, the amplitude
pair (a, b_k) for "atom excited, no photon" / "atom ground, photon in mode k"
obeys a linear Schroedinger system. In the single-pole (Weisskopf-Wigner)
approximation the atom amplitude decays exponentially and the long-time
photon amplitude in a mode of reduced frequency x, direction n is

    |b|^2  propto  G^2 / (D^2 + gamma_tilde^2 / 4)

where G is the reduced coupling and

    D(x, delta, eps) = 1 - x*(1 - delta) - eps*x^2

is the dimensionless pole detuning (`units.detuning`): the energy mismatch between
the initial state and "photon x emitted, atom recoiled", with delta = n.beta the
Doppler projection and eps the recoil parameter. (The quadratic eps*x^2 term is the
photon recoil energy; D is written hbar-consistently, i.e. with the photon
momentum hbar*k, which the energy balance requires.) Radiative level shifts
are taken as absorbed into the transition frequency.

This module solves the same linear system exactly for a finite bath of modes, used
to validate the pole approximation end to end. The kernels built from the pole
solution and their frequency integrals in closed form live in `lineshape`; the
references `lorentzian_denominator`, `spectral_kernel` and `perpendicular_kernel`
are resolved from there on first access, so that an oracle run loads none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cauchy import BOX, CauchySums
from .quadrature import fit_line
from .units import ParameterError, detuning, resonance_root


def __getattr__(name):
    """The references that live beside the line fractions, from `lineshape` (PEP 562)."""
    if name in ("lorentzian_denominator", "spectral_kernel", "perpendicular_kernel"):
        from . import lineshape
        return getattr(lineshape, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Discrete-mode oracle
# ---------------------------------------------------------------------------

class DiscreteModeSystem:
    """A finite bath of field modes coupled to the two-level atom.

    In the frame rotating at the transition frequency the amplitudes obey

        da/dtau   = - sum_j g_j b_j
        db_j/dtau = + i D_j b_j + g_j a

    with real couplings g_j and pole detunings D_j = detuning(x_j, delta, eps).
    This pair conserves |a|^2 + sum |b_j|^2 exactly, which the oracle certifies
    (`discrete_mode_evolution`). Couplings are real and momentum-independent
    across the band -- one g_j per mode -- which keeps the system Hermitian.
    Zero couplings and repeated detunings (D is quadratic in x) are allowed.

    x: strictly increasing mode frequencies (reduced units).
    g: coupling of each mode.
    delta, epsilon: kinematics entering D_j.
    """

    __slots__ = ("x", "g", "delta", "epsilon")

    def __init__(self, x, g, delta: float = 0.0, epsilon: float = 0.0) -> None:
        x, g = np.asarray(x, dtype=float), np.asarray(g, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("mode grid must be a nonempty 1D array")
        if g.shape != x.shape:
            raise ValueError("couplings must match the mode grid shape")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(g))):
            raise ValueError("mode frequencies and couplings must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("mode grid must be strictly increasing")
        self.x, self.g, self.delta, self.epsilon = x, g, delta, epsilon

    @property
    def detunings(self) -> np.ndarray:
        return detuning(self.x, self.delta, self.epsilon)


def flat_band_system(n_modes: int, half_width: float, gamma_eff: float,
                     delta: float = 0.0, epsilon: float = 0.0) -> DiscreteModeSystem:
    """Uniform band of modes around the resonance with constant coupling.

    The coupling is chosen so the continuum golden-rule decay rate of the
    atom population is gamma_eff:  2 pi g^2 / dx = gamma_eff. The band is
    centered on the resonance frequency (D = 0).
    """
    if n_modes < 2:
        raise ValueError("need at least two modes for a band")
    center = float(resonance_root(delta, epsilon))
    x = np.linspace(center - half_width, center + half_width, n_modes)
    dx = x[1] - x[0]
    g = np.full(n_modes, np.sqrt(gamma_eff * dx / (2.0 * np.pi)))
    return DiscreteModeSystem(x=x, g=g, delta=delta, epsilon=epsilon)


@dataclass
class EvolutionResult:
    """Output of `discrete_mode_evolution`.

    times: recorded tau values, k*dt for k = 0, record_every, 2*record_every,
        ... and the final `steps`*dt (dt sets only this sampling grid).
    atom_population: |a|^2 at those times.
    mode_populations: |b_j|^2 at the final time.
    final_state: the full complex state vector [a, b_1 ... b_N] at the final time.
    max_norm_drift: a certificate bounding |1 - total norm| at every time (see
        `discrete_mode_evolution`): the error of the eigen-solution, not of a stepper.
    norm_ok: the certificate is within the 1e-6 contract.
    steps, dt: the grid, steps = ceil(t_final/dt).
    extras: the number of distinct coupled poles after deflation ("poles"), the
        root search's work (`_secular_roots`: "secular_iterations", "near_terms",
        "far_nodes") and ||A_hat - A|| ("backward_error").
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


_MAX_SECULAR_ITERATIONS = 64


def _poles(d: np.ndarray, g: np.ndarray):
    """Deflate the arrowhead [[0, g^T], [g, diag(d)]] to distinct coupled poles.

    Modes with |g_j| <= tol are decoupled (an eigenvector e_j orthogonal to the
    initial state) and modes whose d_j agree within tol share one pole of weight
    sum g_j^2 (a rotation among them decouples all but one), tol = 8 eps ||A||.
    Returns the increasing poles, their weights, each mode's pole index (-1 for
    a decoupled mode) and the largest distance of a merged d_j from its pole.
    """
    tol = 8.0 * np.finfo(float).eps * max(float(np.max(np.abs(d))), float(np.linalg.norm(g)))
    order = np.argsort(d, kind="stable")
    order = order[np.abs(g[order]) > tol]
    ds = d[order]
    first = np.ones(ds.size, dtype=bool)
    first[1:] = np.diff(ds) > tol
    index = np.cumsum(first) - 1
    pole = np.full(d.size, -1)
    pole[order] = index
    shift = float(np.max(ds - ds[first][index], initial=0.0))
    return ds[first], np.bincount(index, weights=g[order] ** 2), pole, shift


def _secular(sums: CauchySums, box, sigma, nu):
    """f(mu) = mu + sum_j z_j/(d_j - mu), f'(mu) and the rounding scale |sigma| + |nu| +
    sum_j |z_j/(d_j - mu)| of f at mu = sigma + nu in boxes `box`, from the near/far sums
    of the poles d with weights z: near poles take d_j - mu as (d_j - sigma) - nu, so the
    distance to the origin pole sigma keeps full relative accuracy."""
    s = sums(box, sigma, nu)
    return s[:, 0] + (sigma + nu), s[:, 2] + 1.0, s[:, 1] + np.abs(sigma) + np.abs(nu)


def _secular_roots(d: np.ndarray, z: np.ndarray):
    """All d.size + 1 roots of the secular equation f(mu) = 0, one per interlacing
    interval, d increasing and z > 0 (Gu & Eisenstat 1994; LAPACK dlaed4).

    Each root is held as sigma + nu with sigma the pole nearer to it (the
    shifted origin of Jakovcevic Stor, Slapnicar & Barlow 2015), chosen by the
    sign of f at the interval's midpoint. Steps solve a two-pole fixed-weight
    model: the origin pole keeps its exact weight, the other neighbour pole's
    weight (for the two outer roots: the slope of a linear term) and a constant
    match f' and f. A step leaving the root's bracket is replaced by bisection;
    a root is done when |f| is within 8 eps of its rounding scale. f is
    evaluated by near/far sums (`cauchy.CauchySums`), the far ones set up once.
    Returns sigma, nu, f'(mu) at the roots, the near/far sums (whose boxes `_lowner`
    reuses) and the work done: the iterations ("secular_iterations"), the exact terms
    of one evaluation of f at every root ("near_terms") and the Chebyshev nodes of the
    far sums ("far_nodes").
    """
    n = d.size
    sums = CauchySums(d, d, np.zeros(n), z, derivative=True)
    box = np.arange(n + 1) // BOX  # root k lies in (d[k-1], d[k]), in box k // BOX
    box[[0, -1]] = -1  # the outer roots
    work = {"near_terms": sums.near_terms(box), "far_nodes": sums.far_nodes}
    reach = float(np.sqrt(z.sum()))  # ||g||: no root is farther out of [min(0,d), max(0,d)] (Weyl)
    gap = np.diff(d)
    outer = np.zeros(n + 1, dtype=bool)
    outer[[0, -1]] = True
    # interval k = (d[k-1], d[k]) is measured from its left pole, the outer ones from d[0], d[-1]
    origin = np.concatenate(([0], np.arange(n)))
    lo = np.concatenate(([min(0.0, d[0]) - d[0] - reach], np.zeros(n)))
    hi = np.concatenate(([0.0], gap, [max(0.0, d[-1]) - d[-1] + reach]))
    sigma = d[origin]
    nu = 0.5 * (lo + hi)
    f, fp, scale = _secular(sums, box, sigma, nu)
    right = ~outer & (f < 0.0)  # root in the right half of an interior interval
    width = gap[origin[right]]
    origin[right] += 1
    sigma = d[origin]
    nu[right] -= width
    lo[right], hi[right] = -width, 0.0
    other = np.where(right, origin - 1, origin + 1)
    other[outer] = origin[outer]
    eps = np.finfo(float).eps
    iterations = 0
    while True:
        below = f < 0.0
        lo = np.where(below, nu, lo)
        hi = np.where(below, hi, nu)
        active = np.flatnonzero(np.abs(f) > 8.0 * eps * scale)
        if active.size == 0 or iterations == _MAX_SECULAR_ITERATIONS:
            return sigma, nu, fp, sums, {"secular_iterations": iterations, **work}
        iterations += 1
        na, fa, fpa = nu[active], f[active], fp[active]
        zo = z[origin[active]]
        do = -na  # d_origin - mu
        dp = (d[other[active]] - sigma[active]) - na  # d_other - mu
        rest = fpa - zo / (do * do)  # f' less the origin pole's term
        c = fa - zo / do - rest * dp  # constant of the interior model
        ext = outer[active]
        # step t solves a2 t^2 - a1 t + a0 = 0
        a2 = np.where(ext, rest, c)
        a1 = np.where(ext, rest * do - (fa - zo / do), c * (do + dp) + zo + rest * dp * dp)
        a0 = np.where(ext, -do * fa, do * dp * fa)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = 0.5 * (a1 + np.copysign(np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0)), a1))
            steps = (na + a0 / q, na + q / a2)
        la, ha = lo[active], hi[active]
        new = 0.5 * (la + ha)
        for step in steps[::-1]:  # the first step inside the bracket wins
            new = np.where((step > la) & (step < ha), step, new)
        nu[active] = new
        f[active], fp[active], scale[active] = _secular(sums, box[active], sigma[active], new)


def _lowner(sums: CauchySums, sigma: np.ndarray, nu: np.ndarray, fp: np.ndarray):
    """Weights z_hat for which the roots mu = sigma + nu are exact (Loewner's formula,
    Gu & Eisenstat 1995; LAPACK dlaed3), and the eigenvector weights w = 1/f'(mu) of
    the secular function with those weights, box by box on the root search's near/far
    sums `sums` of the poles d with weights z, where fp = f'(mu) with the weights z.

    z_hat_p = -prod_k (d_p - mu_k) / prod_{j != p} (d_p - d_j), as -(d_p - mu_p)(d_p -
    mu_{p+1}) times the ratios (d_p - mu_j)/(d_p - d_j), j < p, and (d_p - mu_{j+1})/(d_p
    - d_j), j > p. Over the poles j near p's box the ratios are exact, with m = d_p - mu_k
    = (d_p - sigma_k) - nu_k: columns left of the box take mu_j and those right of it
    mu_{j+1}, so only the box's diagonal block needs masks. The far ratios, 1 + (d_j -
    mu_j)/(d_p - d_j) left and 1 + (d_j - mu_{j+1})/(d_p - d_j) right, are smooth across
    the box: their product is exp(F_b(d_p)), F_b the far log sum (`CauchySums.far_logs`).
    While m is at hand, f'(mu_k) gains sum_p (z_hat_p - z_p)/m^2 over the near poles;
    the far ones, |z_hat - z| ~ 1e-14 z on a far share of f' of about 1e-2, stay below
    rounding.
    """
    d, z = sums.base, sums.weights[:, 0]
    n = d.size
    left, right = (d - sigma[:-1]) - nu[:-1], (d - sigma[1:]) - nu[1:]
    far = sums.far_logs(left, right)
    zhat = np.ones(n) if far is None else np.exp(
        sums.interpolate(far, np.arange(n) // BOX, d, 0.0)[:, 0])
    shift = np.zeros(n + 1)  # f' with the weights z_hat less f' with z
    before = np.tri(BOX, k=-1, dtype=bool)  # j < p in a box's diagonal block
    for b, (l, r) in enumerate(sums.near):
        lo, hi = b * BOX, min(b * BOX + BOX, n)
        dp = d[lo:hi, None]
        m = (dp - sigma[l:r + 1]) - nu[l:r + 1]  # roots l..r
        ratio = dp - d[l:r]  # d_p - d_j
        a, e, p = lo - l, hi - l, np.arange(hi - lo)
        np.divide(m[:, :a], ratio[:, :a], out=ratio[:, :a])
        np.divide(m[:, e + 1:], ratio[:, e:], out=ratio[:, e:])
        block = ratio[:, a:e]
        block[p, p] = 1.0
        np.divide(np.where(before[p, :p.size], m[:, a:e], m[:, a + 1:e + 1]), block, out=block)
        block[p, p] = -m[p, a + p] * m[p, a + p + 1]
        zhat[lo:hi] *= np.prod(ratio, axis=1)
        np.reciprocal(m, out=m)
        shift[l:r + 1] += (zhat[lo:hi] - z[lo:hi]) @ np.square(m, out=m)
    return zhat, 1.0 / (fp + shift)


_FINE = 8  # fine phase rows, and coarse rows per product: _FINE**2 recorded times each


def _mode_sums(d, sigma, nu, last):
    """S_p = sum_k v_k / (mu_k - d_p) at every pole d_p, v = last[:, 0] + i last[:, 1], by
    near/far sums over the roots mu = sigma + nu: near roots take mu_k - d_p as (sigma_k -
    d_p) + nu_k."""
    sums = CauchySums(d, sigma, nu, last)
    return sums(np.arange(d.size) // BOX, d, np.zeros(d.size)).view(complex)[:, 0]


def _unit_phases(phase):
    """e^{-i phase} of a real array, its real part cos and its imaginary part -sin: the bits of
    np.exp(-1j * phase), without a complex exponential."""
    out = np.empty(phase.shape, complex)
    np.cos(phase, out=out.real)
    np.negative(np.sin(phase, out=out.imag), out=out.imag)
    return out


def _reconstruct(d, sigma, nu, w, times):
    """a(tau) = sum_k w_k e^{-i mu_k tau} at every recorded time and, at the last time T
    only, S_p = sum_k w_k e^{-i mu_k T} / (mu_k - d_p) (`_mode_sums`): every mode of pole
    p has c proportional to S_p.

    The n times before T lie on a uniform grid t_j = j h, so with j = _FINE c + f,
    e^{-i mu t_j} = e^{-i mu t_{_FINE c}} e^{-i mu t_f}: a fine block F_kf = w_k e^{-i
    mu_k t_f} and _FINE coarse rows at a time give _FINE**2 amplitudes by one complex
    matrix product; F and the inner rows below are cos and -sin of one real outer product
    each (`_unit_phases`). The coarse rows split the same way, c = _FINE a + b: each block of
    them is one outer row e^{-i mu t_{_FINE^2 a}} times the inner rows e^{-i mu t_{_FINE
    b}}, so only about n/_FINE**2 + 2 _FINE rows of phases are exponentiated. T, which
    also feeds S_p, is done directly.
    """
    mu = sigma + nu
    n = times.size - 1
    last = np.column_stack((w * np.cos(mu * times[-1]), -w * np.sin(mu * times[-1])))
    s = _mode_sums(d, sigma, nu, last)  # first: its work buffers and the phases never meet
    fine = min(_FINE, n)
    f = _unit_phases(np.multiply.outer(mu, times[:fine])) * w[:, None]
    coarse = times[:n:fine]
    inner = _unit_phases(np.multiply.outer(coarse[:fine], mu))
    blocks = [(np.exp(-1j * mu * coarse[c0]) * inner[:coarse.size - c0]) @ f
              for c0 in range(0, coarse.size, fine)]
    return np.append(np.concatenate(blocks).ravel()[:n], last.sum(axis=0).view(complex)), s


def discrete_mode_evolution(system: DiscreteModeSystem, t_final: float,
                            dt: float = 0.5, record_every: int = 50) -> EvolutionResult:
    """Exact amplitudes of the discrete-mode system, recorded every
    `record_every` multiples of `dt` and at ceil(t_final/dt)*dt.

    The gauge b_j = i c_j turns the generator into -i A with the real symmetric
    arrowhead A = [[0, g^T], [g, diag(d)]], d = -D. Its eigenvalues mu_k, the
    secular roots (`_secular_roots`), are exact for the arrowhead A_hat with
    couplings g_hat (`_lowner`) and atom entry sum mu - sum d. Its eigenvectors
    U_0k^2 = w_k = 1/f'(mu_k), U_jk = g_hat_j U_0k / (mu_k - d_j) give y(tau) =
    U exp(-i mu tau) U^T e_0 with no time stepping: `dt` sets only the sampling
    grid. `max_norm_drift` = max(|1 - sum w|, |1 - |y(T)|^2|) + 2B + B^2 certifies
    the norm: by Duhamel's formula |y(tau) - y_exact(tau)| <= B = T ||A_hat - A||
    for tau <= T, and extras["backward_error"] bounds ||A_hat - A||. Checked: the
    run is shorter than half the revival time 2 pi / dx at which a finite bath
    feeds the excitation back (a single mode has none).
    """
    if dt <= 0 or t_final <= dt:
        raise ParameterError("need 0 < dt < t_final")
    n_steps = int(np.ceil(t_final / dt))
    spacing = np.diff(system.x)
    revival = 2.0 * np.pi / float(spacing.min()) if spacing.size else np.inf
    if t_final > 0.5 * revival:
        raise ParameterError(
            f"duration {t_final:g} exceeds half the bath revival time {revival:g}; "
            "increase the mode count or shorten the run")
    times = np.append(np.arange(0, n_steps, record_every), n_steps) * dt

    g = system.g
    d, z, pole, shift = _poles(-system.detunings, g)
    if d.size:
        sigma, nu, fp, sums, work = _secular_roots(d, z)
        zhat, w = _lowner(sums, sigma, nu, fp)
    else:  # no mode couples: the atom stays excited
        sigma, nu, zhat, w = np.zeros(1), np.zeros(1), z, np.ones(1)
        work = {"secular_iterations": 0, "near_terms": 0, "far_nodes": 0}
    amp, s = _reconstruct(d, sigma, nu, w, times)
    ghat = g * np.append(np.sqrt(zhat / z), 0.0)[pole]  # pole -1: decoupled
    state = np.append(amp[-1], 1j * ghat * np.append(s, 0.0)[pole])
    populations = state.real ** 2 + state.imag ** 2
    alpha = math.fsum(np.concatenate((sigma, nu, -d)))  # A_hat's atom entry, sum mu - sum d
    backward = max(abs(alpha), shift) + float(np.linalg.norm(ghat - g))
    bound = float(times[-1]) * backward
    drift = float(max(abs(1.0 - w.sum()), abs(1.0 - populations.sum())) + bound * (2.0 + bound))
    return EvolutionResult(
        times=times,
        atom_population=amp.real ** 2 + amp.imag ** 2,
        mode_populations=populations[1:],
        final_state=state,
        max_norm_drift=drift,
        norm_ok=drift <= 1e-6,
        steps=n_steps,
        dt=dt,
        extras={"poles": int(d.size), **work, "backward_error": backward},
    )


def pole_mode_populations(system: DiscreteModeSystem, gamma_tilde: float) -> np.ndarray:
    """Long-time |b_j|^2 predicted by the single-pole solution:
    g_j^2 / (D_j^2 + gamma_tilde^2/4)."""
    d = system.detunings
    return system.g**2 / (d * d + 0.25 * gamma_tilde * gamma_tilde)


def fit_decay_rate(times: np.ndarray, populations: np.ndarray,
                   window: tuple[float, float]) -> float:
    """Least-squares slope of -ln |a|^2 over times in [window]."""
    times, populations = np.asarray(times, dtype=float), np.asarray(populations, dtype=float)
    sel = (times >= window[0]) & (times <= window[1]) & (populations > 0)
    if int(sel.sum()) < 3:
        raise ParameterError("decay-rate window contains fewer than 3 recorded points")
    return -fit_line(times[sel], np.log(populations[sel]))[0]


def compare_to_pole(system: DiscreteModeSystem, result: EvolutionResult,
                    gamma_tilde: float) -> dict:
    """Head-to-head of the exact discrete-mode evolution against the pole solution.

    Returns the decay rate fitted over tau in [0.5, 3] / gamma_tilde (`fit_window`)
    vs the golden-rule band value, the relative L2 distance between the final
    photon distribution and the Lorentzian pole prediction, and the norm
    diagnostics (`max_norm_drift`, `backward_error`).
    """
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
        "backward_error": result.extras["backward_error"],
        "norm_ok": result.norm_ok,
        "fit_window": list(fit_window),
        "n_modes": int(system.x.size),
        "duration": float(result.times[-1]),
    }
