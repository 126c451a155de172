"""Single-excitation emission amplitudes: pole solution and exact discrete-mode oracle.

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

This module provides the kernels built from that solution, their frequency
integrals in closed form (`line_fractions`), and, independently, the exact
solution of the same linear system for a finite bath of modes, used to
validate the pole approximation end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import (CouplingModel, conditional_polarization_sum, doppler_projection,
                       polarization_sum, recoil_coefficient)
from .quadrature import NumericalError
from .units import DimensionlessParams


def detuning(x, delta, epsilon):
    """Pole detuning D = 1 - x*(1 - delta) - eps*x^2 (vectorized)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - x * (1.0 - delta) - epsilon * (x * x)


def _quadratic_roots(b, eps, c):
    """Roots (near, far) of eps z^2 + b z + c = 0 for c = -1 or c = i gt/2 - 1 (vectorized
    over b), in the cancellation-free form q = -(b + sign(b) sqrt(b^2 - 4 eps c))/2, roots
    c/q and q/eps: near is the one over the positive axis, far (None at eps = 0) the one
    near -b/eps. ValueError at eps = 0 unless every b > 0."""
    if eps == 0.0:
        if not np.all(b > 0.0):
            raise ValueError("no emission line for delta >= 1 at epsilon = 0")
        return -c / b, None
    root = np.sqrt(b * b - 4.0 * eps * c)
    q = -0.5 * (b + np.where(b >= 0.0, root, -root))
    return np.where(b >= 0.0, c / q, q / eps), np.where(b >= 0.0, q / eps, c / q)


def resonance_root(delta, epsilon):
    """Positive root x* of D(x, delta) = 0, i.e. eps*x^2 + (1 - delta)*x - 1 = 0 (vectorized),
    by `_quadratic_roots`: 2 / ((1-delta) + sqrt((1-delta)^2 + 4 eps)) for delta <= 1, exact
    as eps -> 0, and ((delta-1) + sqrt(...)) / (2 eps) beyond. Requires eps >= 0, and eps > 0
    or a sub-luminal delta < 1; ValueError unless every root is positive and finite (NaN
    included)."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    root = _quadratic_roots(1.0 - np.asarray(delta, dtype=float), epsilon, -1.0)[0]
    if not np.all((root > 0.0) & np.isfinite(root)):
        raise ValueError(f"no positive emission frequency for delta={delta!r}, eps={epsilon!r}")
    return root[()]  # a numpy scalar for a scalar delta


def _log_tail(z, u):
    """sum_{k>=3} t^k/k = -log(1 - t) - t - t^2/2 with t = u/z (its series below |t| = 1/4,
    where the closed form cancels); int_0^u dx/(x - z) = log(1 - u/z) = log((z - u)/z)."""
    t = u / z
    small = np.abs(t) < 0.25
    ts = np.where(small, t, 0.0)
    series = np.full_like(ts, 1.0 / 30.0)
    for k in range(29, 2, -1):
        series = 1.0 / k + ts * series
    return np.where(small, ts**3 * series, -np.log((z - u) / z) - t * (1.0 + 0.5 * t))


@dataclass(frozen=True, eq=False)
class LineFractions:
    """w(x) = x^3 P(x) / (D^2 + gt^2/4) at each delta node (rows), in partial fractions.

    The poles are the roots z of D(z) = i gt/2 (conjugates carry conjugate
    residues), with residues r = z^3 P(z) / (i gt D'(z)): the near pole over
    the positive axis and, for eps > 0, the far one near -(1 - delta)/eps.
    w = s + 2 Re[r_near / (x - z_near)], s = q0 + q1 x + 2 Re[r_far / (x - z_far)]
    = s0 + s1 x + 2 Re[r_far x^2 / (z_far^2 (x - z_far))]: this Taylor form (s0,
    s1 from the near pole) serves |x| < |z_far|, where the quotient q0 + q1 x
    and the far pair cancel to O(1/(eps x))."""

    near: np.ndarray
    near_residue: np.ndarray
    far: np.ndarray | None
    far_residue: np.ndarray | None
    s0: np.ndarray
    s1: np.ndarray
    q0: np.ndarray
    q1: np.ndarray

    def near_integral(self, upper, factor=1.0):
        """int_0^U 2 Re[factor r_near / (x - z_near)] per node and U (columns)."""
        u, near = np.asarray(upper, dtype=float)[None, :], self.near[:, None]
        return 2.0 * np.real((factor * self.near_residue)[:, None] * np.log((near - u) / near))

    def smooth(self, x):
        """s(x) per node at real points x (columns)."""
        x = np.asarray(x, dtype=float)[None, :]
        taylor = self.s0[:, None] + self.s1[:, None] * x
        if self.far is None:
            return taylor
        far, rf = self.far[:, None], self.far_residue[:, None]
        direct = self.q0[:, None] + self.q1[:, None] * x + 2.0 * np.real(rf / (x - far))
        taylor = taylor + 2.0 * np.real(rf / (far * far) * (x * x / (x - far)))
        return np.where(np.abs(x / far) < 1.0, taylor, direct)

    def integral(self, upper):
        """int_0^U w per node and upper limit U (columns), in closed form. It runs under
        np.errstate, since the quadratic term overflows as U grows and np.where evaluates
        both branches; NumericalError names the first U whose value is not finite."""
        u = np.asarray(upper, dtype=float)[None, :]
        with np.errstate(all="ignore"):
            taylor = self.s0[:, None] * u + self.s1[:, None] * (0.5 * u * u)
            if self.far is not None:
                far, rf = self.far[:, None], self.far_residue[:, None]
                direct = (self.q0[:, None] * u + self.q1[:, None] * (0.5 * u * u)
                          + 2.0 * np.real(rf * np.log((far - u) / far)))
                taylor = np.where(np.abs(u / far) < 1.0,
                                  taylor - 2.0 * np.real(rf * _log_tail(far, u)), direct)
            values = taylor + self.near_integral(upper)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
        if bad.size:
            raise NumericalError(f"the frequency integral up to x = {u[0, bad[0]]:.6g} is not "
                                 "finite; lower the cutoff or upper limit")
        return values


def line_fractions(model: CouplingModel, n, e_d, proj, params: DimensionlessParams) -> LineFractions:
    """Partial fractions of w at every delta node of `proj` (wavepacket.project), with
    P = coupling.conditional_polarization_sum at the poles and at 0, +-1/eps (for q0, q1)."""
    delta = np.asarray(proj.nodes, dtype=float)
    u = delta - proj.mean
    eps, gt = params.epsilon, params.gamma_tilde

    def gsq(z):
        q0, q1, q2 = conditional_polarization_sum(model, z, n, e_d, eps, proj)
        return q0 + u * (q1 + u * q2)

    b = 1.0 - delta
    c = 0.5j * gt - 1.0  # D(z) = i gt/2  <=>  eps z^2 + b z + c = 0

    def residue(z):
        return z**3 * gsq(z) / (-1j * gt * (b + 2.0 * eps * z))

    near, far = _quadratic_roots(b, eps, c)
    rn = residue(near)
    s0, s1 = 2.0 * np.real(rn / near), 2.0 * np.real(rn / (near * near))
    if far is None:
        return LineFractions(near, rn, None, None, s0, s1, s0, s1)
    h = np.full(delta.shape, 1.0 / eps)
    p0, ph, pm = gsq(0.0 * h), gsq(h), gsq(-h)
    q1 = 0.5 * (ph + pm) - p0
    q0 = (0.5 * (ph - pm) - 2.0 * b * q1) / eps
    return LineFractions(near, rn, far, residue(far), s0, s1, q0, q1)


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
    This pair conserves |a|^2 + sum |b_j|^2 exactly, which the oracle certifies
    (`discrete_mode_evolution`). Couplings are real and momentum-independent
    across the band -- one g_j per mode -- which keeps the system Hermitian.
    Zero couplings and repeated detunings (D is quadratic in x) are allowed.

    x: strictly increasing mode frequencies (reduced units).
    g: coupling of each mode.
    delta, epsilon: kinematics entering D_j.
    """

    x: np.ndarray
    g: np.ndarray
    delta: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("mode grid must be a nonempty 1D array")
        if g.shape != x.shape:
            raise ValueError("couplings must match the mode grid shape")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(g))):
            raise ValueError("mode frequencies and couplings must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("mode grid must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "g", g)

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
    extras: the numbers of distinct coupled poles after deflation ("poles") and of
        secular iterations ("secular_iterations"), and ||A_hat - A|| ("backward_error").
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


_TILE = 16  # recorded times, poles or roots per block: buffers of 16 x K doubles
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


def _secular(d: np.ndarray, z: np.ndarray, sigma: np.ndarray, nu: np.ndarray):
    """f(mu) = mu + sum_j z_j/(d_j - mu), f'(mu) and the rounding scale
    |sigma| + |nu| + sum_j |z_j/(d_j - mu)| of f at mu = sigma + nu.

    d_j - mu is formed as (d_j - sigma) - nu, so the distance to the origin
    pole sigma keeps full relative accuracy. Rows are done in blocks of _TILE.
    """
    f, fp, scale = (np.empty(sigma.size) for _ in range(3))
    buf = np.empty((min(_TILE, sigma.size), d.size))
    for lo in range(0, sigma.size, _TILE):
        hi = min(lo + _TILE, sigma.size)
        b = buf[:hi - lo]
        np.subtract(d, sigma[lo:hi, None], out=b)
        b -= nu[lo:hi, None]
        np.reciprocal(b, out=b)
        f[lo:hi] = b @ z
        np.abs(b, out=b)
        scale[lo:hi] = b @ z
        np.square(b, out=b)
        fp[lo:hi] = b @ z
    return f + (sigma + nu), fp + 1.0, scale + np.abs(sigma) + np.abs(nu)


def _secular_roots(d: np.ndarray, z: np.ndarray):
    """All d.size + 1 roots of the secular equation f(mu) = 0, one per interlacing
    interval, d increasing and z > 0 (Gu & Eisenstat 1994; LAPACK dlaed4).

    Each root is held as sigma + nu with sigma the pole nearer to it (the
    shifted origin of Jakovcevic Stor, Slapnicar & Barlow 2015), chosen by the
    sign of f at the interval's midpoint. Steps solve a two-pole fixed-weight
    model: the origin pole keeps its exact weight, the other neighbour pole's
    weight (for the two outer roots: the slope of a linear term) and a constant
    match f' and f. A step leaving the root's bracket is replaced by bisection;
    a root is done when |f| is within 8 eps of its rounding scale.
    Returns sigma, nu and the number of iterations.
    """
    n = d.size
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
    f, fp, scale = _secular(d, z, sigma, nu)
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
            return sigma, nu, iterations
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
        f[active], fp[active], scale[active] = _secular(d, z, sigma[active], new)


def _lowner(d: np.ndarray, sigma: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Weights z_hat for which the roots mu = sigma + nu are exact (Loewner's formula,
    Gu & Eisenstat 1995; LAPACK dlaed3): -prod_k (d_p - mu_k) / prod_{j != p} (d_p - d_j)
    as |d_p - mu_p| |d_p - mu_{p+1}| times the ratios (d_p - mu_j)/(d_p - d_j), j < p,
    and (d_p - mu_{j+1})/(d_p - d_j), j > p, with d_p - mu_k = (d_p - sigma_k) - nu_k."""
    zhat = np.empty(d.size)
    cols = np.arange(d.size)
    for lo in range(0, d.size, _TILE):
        p = cols[lo:lo + _TILE, None]
        left = (d[p] - sigma[:-1]) - nu[:-1]  # d_p - mu_j
        right = (d[p] - sigma[1:]) - nu[1:]  # d_p - mu_{j+1}
        ratio = np.where(cols < p, left, np.where(cols > p, right, -left * right))
        zhat[lo:lo + _TILE] = np.prod(ratio / np.where(cols == p, 1.0, d[p] - d), axis=1)
    return zhat


def _reconstruct(d, sigma, nu, w, times):
    """a(tau) = sum_k w_k e^{-i mu_k tau} at every recorded time, in blocks of _TILE
    times, and, at the last time T only, S_p = sum_k w_k e^{-i mu_k T} / (mu_k - d_p)
    in blocks of _TILE poles: every mode of pole p has c proportional to S_p.
    """
    mu = sigma + nu
    amp = np.empty(times.size, dtype=complex)
    for t0 in range(0, times.size, _TILE):
        phase = np.multiply.outer(times[t0:t0 + _TILE], mu)
        amp[t0:t0 + _TILE] = np.cos(phase) @ w - 1j * (np.sin(phase, out=phase) @ w)
    last = np.column_stack((w * np.cos(mu * times[-1]), -w * np.sin(mu * times[-1])))
    s = np.empty((d.size, 2))
    for p0 in range(0, d.size, _TILE):
        s[p0:p0 + _TILE] = (1.0 / ((sigma - d[p0:p0 + _TILE, None]) + nu)) @ last
    return amp, s.view(complex)[:, 0]


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
        raise ValueError("need 0 < dt < t_final")
    n_steps = int(np.ceil(t_final / dt))
    spacing = np.diff(system.x)
    revival = 2.0 * np.pi / float(spacing.min()) if spacing.size else np.inf
    if t_final > 0.5 * revival:
        raise ValueError(
            f"duration {t_final:g} exceeds half the bath revival time {revival:g}; "
            "increase the mode count or shorten the run")
    times = np.append(np.arange(0, n_steps, record_every), n_steps) * dt

    g = system.g
    d, z, pole, shift = _poles(-system.detunings, g)
    if d.size:
        sigma, nu, iterations = _secular_roots(d, z)
        zhat = _lowner(d, sigma, nu)
    else:  # no mode couples: the atom stays excited
        sigma, nu, iterations, zhat = np.zeros(1), np.zeros(1), 0, z
    w = 1.0 / _secular(d, zhat, sigma, nu)[1]
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
        extras={"poles": int(d.size), "secular_iterations": iterations,
                "backward_error": backward},
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
