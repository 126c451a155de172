"""The emission line in partial fractions, and the kernels it is checked against.

The long-time photon density of the pole solution (see `amplitudes`) over frequency,
w(x) = x^3 P(x) / (D^2 + gamma_tilde^2/4) at each Doppler node delta, is a rational
function of x: `line_fractions` writes it as partial fractions over the poles of
D(z) = i gamma_tilde/2, so that its value (`LineFractions.smooth`) and its frequency
integrals (`LineFractions.integral`, `near_integral`) are closed forms; the spectra and
rates modules evaluate every line through them, in row blocks (`in_row_blocks`).

The references `spectral_kernel` (the basis sum over polarizations) and
`perpendicular_kernel` (the bracket written out) share no coupling algebra with
`line_fractions`: ACC-01 checks the closed forms against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import (CouplingModel, conditional_polarization_sum, doppler_projection,
                       polarization_geometry, polarization_sum, quotient_slope)
from .quadrature import NumericalError
from .units import DimensionlessParams, _quadratic_roots, detuning


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
    width rows (one at least) of `lineshape`' stack axes and nodes flattened into one row axis
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
