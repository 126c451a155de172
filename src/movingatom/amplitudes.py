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

from .cauchy import BOX, CauchySums
from .coupling import (CouplingModel, conditional_polarization_sum, doppler_projection,
                       polarization_geometry, polarization_sum, quotient_slope)
from .geometry import elementwise
from .quadrature import NumericalError, fit_line
from .units import DimensionlessParams, ParameterError


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


def _two_product(a, b):
    """(p, e) with p + e = a b exactly (Dekker's split; finite |a|, |b| below 1e300)."""
    p, a1, b1 = a * b, a * 134217729.0, b * 134217729.0
    ah, bh = a1 - (a1 - a), b1 - (b1 - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _log_tail(t, log):
    """sum_{k>=3} t^k/k = -log(1 - t) - t - t^2/2 with t = u/z (its series below |t| = 1/4,
    where the closed form cancels), given log = log(1 - u/z) = log((z - u)/z), which is
    int_0^u dx/(x - z). A form that no t takes is not evaluated."""
    small = abs(t) < 0.25
    closed = None if np.logical_and.reduce(small, axis=None) else -log - t * (1.0 + 0.5 * t)
    if not np.logical_or.reduce(small, axis=None):
        return closed
    ts = np.where(small, t, 0.0)
    series = np.full_like(ts, 1.0 / 30.0)
    for k in range(29, 2, -1):
        series = 1.0 / k + ts * series
    return ts**3 * series if closed is None else np.where(small, ts**3 * series, closed)


# elements (rows x points) of one block of `in_row_blocks`: of 2048, 4096 and 8192, the
# fastest that kept the peak resident set down (8192 was faster and 0.4 MB higher)
ROW_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class LineFractions:
    """w(x) = x^3 P(x) / (D^2 + gt^2/4) at each delta node, in partial fractions; nodes
    are the last axis, (N,) for one direction or (..., N) for a stack of them. The
    residues, s0, s1, q0 and q1 carry a leading model axis, one entry per coupling model
    of the build, and so does every value below: the poles, and with them every
    logarithm, belong to the kinematics alone and are evaluated once for all models.

    The poles are the roots z of D(z) = i gt/2 (conjugates carry conjugate
    residues), with residues r = z^3 P(z) / (i gt D'(z)): the near pole over
    the positive axis and, for eps > 0, the far one near -(1 - delta)/eps.
    w = s + 2 Re[r_near / (x - z_near)], s = q0 + q1 x + 2 Re[r_far / (x - z_far)]
    = s0 + s1 x + 2 Re[r_far x^2 / (z_far^2 (x - z_far))]: this Taylor form (s0,
    s1 from the near pole) serves |x| < |z_far|, where the quotient q0 + q1 x
    and the far pair cancel to O(1/(eps x)). The poles solve eps z^2 + b z + c = 0,
    with b = 1 - delta and c = i gt/2 - 1."""

    near: np.ndarray
    near_residue: np.ndarray
    far: np.ndarray | None
    far_residue: np.ndarray | None
    s0: np.ndarray
    s1: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    b: np.ndarray
    c: complex
    epsilon: float

    def rows(self, block=slice(None)):
        """These fractions with their stack axes and nodes flattened into one row axis (the
        model axis stays first), at the rows `block` of it."""
        return LineFractions(*[v.reshape(v.shape[:v.ndim - self.near.ndim] + (-1,))[..., block]
                               if isinstance(v, np.ndarray) else v for v in vars(self).values()])

    def near_integral(self, upper, factor):
        """int_0^U 2 Re[factor r_near / (x - z_near)] = 2 Re[factor r_near log((z - U)/z)] per
        node and U (a new last axis), factor one number per node, in row blocks
        (`in_row_blocks`). z is rounded at ulp(x*), while |z - U| nears gt/2 inside the line:
        there (|z - U| < |z|/2) z - U = -(eps U^2 + b U + c) / (b + eps (U + z)), with U b
        split exactly (`_two_product`), so that U b - 1 cancels without rounding."""
        u = np.asarray(upper, dtype=float)
        return in_row_blocks(lambda part, f: part._near_integral(u, f[None]), u.size, self, factor)

    def _near_integral(self, u, factor):
        # the kinematics (and factor) take a model axis of 1 here, in `_integral` and in
        # `smooth`: for a complex product of one value whose operands differ in rank, numpy
        # takes its scalar loop, which rounds otherwise than its vector loop, and a build for
        # one model would differ from a build for several
        near, b = self.near[None, ..., None], self.b[None, ..., None]
        close = np.abs(near - u) < 0.5 * np.abs(near)
        gap = near - u
        if close.any():
            uc = np.where(close, u, 0.0)  # 0 away from the line: nothing there overflows
            p, e = _two_product(uc, b)
            gap = np.where(close, -((p + self.c) + e + self.epsilon * uc * uc)
                           / (b + self.epsilon * (uc + near)), gap)
        return 2.0 * np.real((factor * self.near_residue)[..., None] * np.log(gap / near))

    def smooth(self, x):
        """s(x) per model and node at real points x (a new last axis): the Taylor form inside
        |x| < |z_far|, the direct one outside, and only a form that some point takes. Each
        rounded step of x / z_far grows with |x|, so the widest |x| over each node's far
        pole says whether the Taylor form serves every point of these nodes (a row block
        decides for its own rows), and a point takes the same form in any block. The last
        point, with |Re(x / z_far)| >= 1 at the first node, rules that out before the pass
        over the nodes: a row block that mixes the forms mostly stops there, while one that
        takes the Taylor form alone pays the pass."""
        x = np.asarray(x, dtype=float)[None, :]
        if self.far is None:
            return self.s0[..., None] + self.s1[..., None] * x
        far, rf = self.far[None, ..., None], self.far_residue[..., None]  # see _near_integral
        gap = x - far
        taylor = (lambda: self.s0[..., None] + self.s1[..., None] * x
                  + 2.0 * (rf / (far * far) * (x * x / gap)).real)
        if -1.0 < (x[0, -1] / self.far.flat[0]).real < 1.0 and np.logical_and.reduce(
                abs(np.maximum.reduce(abs(x), axis=None) / self.far) < 1.0, axis=None):
            return taylor()
        inside = abs(x / far) < 1.0
        direct = self.q0[..., None] + self.q1[..., None] * x + 2.0 * (rf / gap).real
        if np.logical_or.reduce(inside, axis=None):
            np.copyto(direct, taylor(), where=inside)
        return direct

    def integral(self, upper):
        """int_0^U w per model, node and upper limit U (a new last axis), in closed form, with
        the logarithms taken once for all models. It runs in row blocks
        (`in_row_blocks`) under np.errstate, since the quadratic term overflows as U grows
        and np.where evaluates both branches; NumericalError names the first U whose value
        is not finite."""
        u = np.asarray(upper, dtype=float)[None, :]
        with np.errstate(all="ignore"):
            values = in_row_blocks(lambda part: part._integral(u), u.size, self)
        finite = np.isfinite(values)
        if not np.logical_and.reduce(finite, axis=None):
            bad = np.flatnonzero(~finite.reshape(-1, u.size).all(axis=0))
            raise NumericalError(f"the frequency integral up to x = {u[0, bad[0]]:.6g} is not "
                                 "finite; lower the cutoff or upper limit")
        return values

    def _integral(self, u):
        taylor = self.s0[..., None] * u + self.s1[..., None] * (0.5 * u * u)
        if self.far is not None:
            far, rf = self.far[None, ..., None], self.far_residue[..., None]  # see _near_integral
            log, t = np.log((far - u) / far), u / far  # both forms take them
            direct = (self.q0[..., None] * u + self.q1[..., None] * (0.5 * u * u)
                      + 2.0 * (rf * log).real)
            taylor = np.where(abs(t) < 1.0, taylor - 2.0 * (rf * _log_tail(t, log)).real,
                              direct)
        return taylor + self._near_integral(u, 1.0)


def in_row_blocks(evaluate, width: int, lines: LineFractions, *per_row):
    """evaluate(part, *parts) -> (..., rows, width), real, over blocks of at most ROW_BLOCK //
    width rows (one at least) of `lines`' stack axes and nodes flattened into one row axis
    (`LineFractions.rows`; the model axis is whole in each), with the same rows of each
    array of `per_row` (shaped as the nodes), assembled into (..., nodes' shape, width). A
    row is computed by the same expressions in any block (a block decides which far forms
    of `LineFractions.smooth` its own rows take, and a point takes the same one in any
    block), and a build that fits in one block is evaluated as it is. Only the assembled
    values outgrow a block: the temporaries of each stay in cache, and under the 256 KiB
    (three models of complex values at most) from which numpy elides a temporary, which
    may swap the operands of a complex product and round it differently; so a row's bits
    do not depend on the blocks or on the build's size."""
    rows, step = lines.near.size, max(1, ROW_BLOCK // width)
    if rows <= step:
        return evaluate(lines, *per_row)
    flat, per_row, out = lines.rows(), [a.reshape(-1) for a in per_row], None
    for block in (slice(lo, lo + step) for lo in range(0, rows, step)):
        value = evaluate(flat.rows(block), *[a[block] for a in per_row])
        out = np.empty(value.shape[:-2] + (rows, width)) if out is None else out
        out[..., block, :] = value
    return out.reshape(out.shape[:-2] + lines.near.shape + (width,))


def line_fractions(models, n, e_d, proj, params: DimensionlessParams) -> LineFractions:
    """Partial fractions of w at every delta node of `proj` (wavepacket.project, along one
    direction n or a stack of them), for a sequence of CouplingModels, which share the
    poles and stack their own fields on a leading model axis (see LineFractions).
    P = coupling.conditional_polarization_sum is evaluated once per model, from one
    `polarization_geometry`, on the points stacked on a new leading axis: the near pole
    and, for eps > 0, the far pole and +-1/eps, whose real values give q0. The quotient's
    slope q1, the x^2 coefficient of P over eps^2, is k^2 |e_perp|^2 exactly
    (`coupling.quotient_slope` of the geometry's |e_perp|^2): a difference of P's values
    would cancel near the dipole axis."""
    delta = np.asarray(proj.nodes, dtype=float)
    u = delta - np.asarray(proj.mean)[..., None]
    eps, gt = params.epsilon, params.gamma_tilde
    b = 1.0 - delta
    c = 0.5j * gt - 1.0  # D(z) = i gt/2  <=>  eps z^2 + b z + c = 0
    near, far = _quadratic_roots(b, eps, c)
    zero = near - near  # 0 + 0j at every node
    z = near[None] if far is None else np.array([near, far, zero + 1 / eps, zero - 1 / eps])
    cube, slope = z[:2] ** 3, -1j * gt * (b + 2.0 * eps * z[:2])  # r = z^3 P(z) / slope
    near2, twice_b = near * near, 2.0 * b

    geometry = polarization_geometry(n, e_d, proj)  # shared by the models
    # each coefficient shaped (model, point, ..., node): every model's fields in one pass
    a0, a1, a2 = np.array([conditional_polarization_sum(model, z, n, e_d, eps, proj, geometry)
                           for model in models]).swapaxes(0, 1)
    p = a0 + u * (a1 + u * a2)  # P at each stacked point
    residues = cube * p[:, :2] / slope
    rn, rf = residues[:, 0], None if far is None else residues[:, 1]
    s0, s1 = 2.0 * (rn / near).real, 2.0 * (rn / near2).real
    q0, q1 = s0, s1
    if far is not None:
        perp_sq = np.broadcast_to(geometry[1], delta.shape)
        q1 = np.array([quotient_slope(model, perp_sq) for model in models])
        q0 = (0.5 * (p[:, 2] - p[:, 3]).real - twice_b * q1) / eps
    return LineFractions(near, rn, far, rf, s0, s1, q0, q1, b, c, eps)


def lorentzian_denominator(x, delta, params: DimensionlessParams):
    """D^2 + gamma_tilde^2/4, the squared distance to the complex pole."""
    d = detuning(x, delta, params.epsilon)
    return d * d + 0.25 * params.gamma_tilde * params.gamma_tilde


def spectral_kernel(model: CouplingModel, x, n, beta, params: DimensionlessParams, e_d):
    """Long-time photon density in (x, n) for one atomic velocity beta:

        rho = x * sum_lambda G_lambda^2 / (D^2 + gamma_tilde^2/4).

    The factor x is the per-photon field strength squared (proportional to
    omega); the mode-count factor x^2 is *not* included here -- emission
    integrands are x^2 * rho (see the spectra module). sum G^2 is the basis sum
    coupling.polarization_sum, so this reference (the `full3d` oracle) shares no
    coupling algebra with `line_fractions` or the production spectra.

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
    1 - n.beta' (+ eps*x with the recoil term), beta' = beta + 2*eps*x*n when the
    momentum is shifted (1 for the standard dipole): written out, as in
    `coupling.reduced_coupling`, so this reference shares no algebra with
    `coupling.bracket`. For the full velocity-dependent model (momentum shift and
    recoil term on, the default) this is

        rho = x * (1 - delta - eps*x)^2 / ((1 - x(1-delta) - eps*x^2)^2 + gt^2/4),

    which the general-geometry engine must reproduce exactly; the agreement
    of the two routes is the central structural identity of the pole solution.
    """
    if model is None:
        model = CouplingModel.roentgen()
    x, eps, b = np.asarray(x, dtype=float), params.epsilon, 1.0  # b = 1: the standard dipole
    if model.kind == "roentgen":
        b = (1.0 - (delta + 2.0 * eps * x if model.apply_momentum_shift else delta)
             + (eps * x if model.include_recoil_term else 0.0))
    return x * (b * b) / lorentzian_denominator(x, delta, params)


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
        x, g = np.asarray(self.x, dtype=float), np.asarray(self.g, dtype=float)
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
