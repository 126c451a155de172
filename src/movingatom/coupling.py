"""Reduced atom-field coupling of a moving two-level emitter.

The interaction of a moving dipole with a field mode (direction n, reduced
frequency x, linear polarization e_lambda) is, after dividing out the
per-photon field strength and the dipole matrix element, the dimensionless
scalar

    G = (e_d . e_lambda) * [1 - n.beta + eps*x]  +  (e_d . n)(e_lambda . beta)

for the velocity-dependent (Roentgen-corrected) model, and simply
G = e_d . e_lambda for the velocity-independent ("standard dipole") model.
The bracket collects the Doppler term -n.beta and the recoil term +eps*x;
the last product is the Roentgen cross term, nonzero only when the dipole
has a component along the propagation direction.

The emission amplitude evaluates this coupling at the post-emission momentum,
i.e. with beta shifted by the photon recoil:

    beta -> beta + 2*eps*x * n        (momentum shift)

Since the shift is along n, it is invisible to the transverse polarization
vectors (the cross term is shift-invariant), while the bracket obeys the
exact algebra

    1 - n.beta_shifted + eps*x = 1 - n.beta - eps*x

-- the recoil contribution reappears doubled and with opposite sign. That
sign flip is what the divergence comparison downstream hinges on.

So the bracket is written once, as `bracket`: 1 - delta + k*eps*x with
delta = n.beta before emission and k = `recoil_coefficient(model)` (+1 from
the recoil term, -2 from the momentum shift). Sum G^2 has one closed form,
the production `conditional_polarization_sum` (exact given delta over a
wavepacket's projection), which uses the bracket; its x^2 coefficient over
eps^2, k^2 |e_perp|^2, is `quotient_slope`, the growth the divergence verdict
reads. The reference is `polarization_sum`, the explicit sum over a
polarization basis of `reduced_coupling`, which writes the shifted velocity
out and shares none of that algebra. The references `amplitudes.spectral_kernel`
(the `full3d` oracle) and `rates.golden_rule_rates` are built on it, and
`amplitudes.perpendicular_kernel` writes the shifted velocity out the same way.

Shapes: `beta` is (3,) or (..., 3); `x` is a scalar or an array whose shape
broadcasts against the leading beta dimensions. Dot products are written
componentwise so identical scalar arithmetic is performed regardless of the
array layout (this makes mixture/average equivalences exact, not just close).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PolarizationBasis, check_unit, dot3, polarization_basis, unstack

_KINDS = ("standard_dipole", "roentgen")


@dataclass(frozen=True)
class CouplingModel:
    """Which coupling is in force, and how it is evaluated.

    kind: "roentgen" (velocity-dependent) or "standard_dipole".
    include_recoil_term: keep the +eps*x piece of the bracket. Dropping it
        while keeping the momentum shift reproduces the observation that
        setting the explicit recoil term to zero does not remove the recoil
        physics -- the shift reintroduces it through the Doppler term.
    apply_momentum_shift: evaluate the coupling at the recoil-shifted
        momentum (the emission-amplitude convention) rather than at the
        pre-emission momentum.

    The standard-dipole model has no velocity structure at all, so both
    flags are forced off there; this keeps model comparisons honest.
    """

    kind: str = "roentgen"
    include_recoil_term: bool = True
    apply_momentum_shift: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "standard_dipole":
            object.__setattr__(self, "include_recoil_term", False)
            object.__setattr__(self, "apply_momentum_shift", False)

    @classmethod
    def roentgen(cls) -> "CouplingModel":
        return cls(kind="roentgen", include_recoil_term=True, apply_momentum_shift=True)

    @classmethod
    def standard(cls) -> "CouplingModel":
        return cls(kind="standard_dipole")

    @property
    def label(self) -> str:
        if self.kind == "standard_dipole":
            return "standard"
        tags = []
        if not self.include_recoil_term:
            tags.append("no_recoil_term")
        if not self.apply_momentum_shift:
            tags.append("no_shift")
        return "roentgen" + ("" if not tags else "_" + "_".join(tags))


def _as_beta(beta) -> np.ndarray:
    arr = np.asarray(beta, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise ValueError(f"beta must have a trailing axis of length 3, got shape {arr.shape}")
    return arr


def doppler_projection(beta, n):
    """delta = n . beta over the trailing axis of beta, with `dot3`'s arithmetic."""
    beta = _as_beta(beta)
    return dot3(beta, np.broadcast_to(np.asarray(n, dtype=float), beta.shape))


def recoil_coefficient(model: CouplingModel) -> float:
    """k in the bracket 1 - delta + k*eps*x, delta = n.beta before emission: +1 from the
    recoil term, -2 from the momentum shift. At eps = 0 the product k*eps*x is 0 whatever k."""
    return float(model.include_recoil_term) - 2.0 * model.apply_momentum_shift


def bracket(model: CouplingModel, delta, x, epsilon):
    """The Doppler-plus-recoil factor 1 - delta + k*eps*x multiplying e_d . e_lambda
    (roentgen only), delta = n.beta before emission, k = `recoil_coefficient(model)`."""
    return 1.0 - delta + recoil_coefficient(model) * epsilon * x


def shifted_velocity(beta, x, n, epsilon):
    """beta + 2*eps*x*n: the photon recoil in velocity units.

    hbar*k/(M*c) = (hbar*omega0/(2*M*c^2)) * 2x = 2*eps*x, directed along n.
    """
    beta = _as_beta(beta)
    x = np.asarray(x, dtype=float)
    shift = (2.0 * epsilon * x)[..., None] * np.asarray(n, dtype=float)
    return beta + shift


def reduced_coupling(model: CouplingModel, beta, x, n, e_lambda, e_d, epsilon):
    """The dimensionless coupling scalar G for one polarization vector."""
    n = check_unit(n, "n")
    e_lambda = np.asarray(e_lambda, dtype=float)
    e_d = check_unit(e_d, "e_d")
    beta = _as_beta(beta)
    ed_dot_el = float(np.dot(e_d, e_lambda))
    if model.kind == "standard_dipole":
        shape = np.broadcast(beta[..., 0], np.asarray(x, dtype=float)).shape
        return np.full(shape, ed_dot_el) if shape else np.float64(ed_dot_el)
    # The basis-sum reference: the recoil kick written out, not `bracket`'s k*eps*x.
    beta_eff = shifted_velocity(beta, x, n, epsilon) if model.apply_momentum_shift else beta
    b = 1.0 - doppler_projection(beta_eff, n)
    if model.include_recoil_term:
        b = b + epsilon * np.asarray(x, dtype=float)
    cross = float(np.dot(e_d, n)) * dot3(beta_eff, np.broadcast_to(e_lambda, beta_eff.shape))
    return ed_dot_el * b + cross


def polarization_sum(model: CouplingModel, beta, x, n, e_d, epsilon,
                     basis: PolarizationBasis | None = None):
    """Sum of G^2 over the two transverse polarizations: the reference.

    G_1^2 + G_2^2 over an explicit transverse basis (`polarization_basis(n)`, or a
    caller-supplied, arbitrarily rotated one), each G from `reduced_coupling` with
    the shifted velocity written out. It calls none of `bracket`,
    `recoil_coefficient`, `transverse_dipole` or `conditional_polarization_sum`,
    the closed form every production path uses, so it checks that form (ACC-01)
    and serves the references built on it (`amplitudes.spectral_kernel`,
    `rates.golden_rule_rates`).
    """
    n = check_unit(n, "n")
    if basis is None:
        basis = polarization_basis(n)
    g1 = reduced_coupling(model, beta, x, n, basis.e1, e_d, epsilon)
    g2 = reduced_coupling(model, beta, x, n, basis.e2, e_d, epsilon)
    return g1 * g1 + g2 * g2


def transverse_dipole(n, e_d):
    """(c, e_perp, |e_perp|^2) per direction n, (3,) or a stack (..., 3), for unit vectors n
    and e_d that `check_unit` passed, with c = e_d.n and e_perp = e_d - c n as its
    components (`unstack`): |e_perp|^2, not 1 - c^2, which would lose eps/sin^2(theta)
    relative near the axis."""
    (nx, ny, nz), (ex, ey, ez) = unstack(n), e_d.tolist()
    c = n @ e_d
    px, py, pz = ex - c * nx, ey - c * ny, ez - c * nz
    return c, (px, py, pz), px * px + py * py + pz * pz


def quotient_slope(model: CouplingModel, perp_sq):
    """k^2 |e_perp|^2 for |e_perp|^2 = perp_sq of any shape (from `transverse_dipole` or
    `polarization_geometry`), with k = `recoil_coefficient(model)`: the x^2 coefficient of
    sum G^2 over eps^2, for every delta. So it is the slope q1 of w's quotient at every node
    (`amplitudes.line_fractions`), and for eps > 0 kappa^-1 int_0^Lambda w ~ A Lambda^2 with
    A = k^2 |e_perp|^2 / 2 for every wavepacket: 0 for the standard dipole, for k = 0, and
    along the dipole axis."""
    return recoil_coefficient(model) ** 2 * perp_sq


def polarization_geometry(n, e_d, proj):
    """The model-free part of `conditional_polarization_sum`, for a caller to take once for
    several models: c = e_d.n, |e_perp|^2 and, with m = proj.perp_mean and k =
    proj.perp_gain, the products e_perp.m, e_perp.k, |m|^2 + proj.perp_var, m.k and |k|^2.
    Each is per direction of n (componentwise, as `transverse_dipole`): a float for one
    direction, and for a stack an array with a last axis to meet x's."""
    c, (px, py, pz), a = transverse_dipole(n, e_d)
    (mx, my, mz), (kx, ky, kz) = unstack(proj.perp_mean), unstack(proj.perp_gain)
    values = (c, a, px * mx + py * my + pz * mz, px * kx + py * ky + pz * kz,
              mx * mx + my * my + mz * mz + proj.perp_var, mx * kx + my * ky + mz * kz,
              kx * kx + ky * ky + kz * kz)
    return values if n.ndim == 1 else [v[..., None] for v in values]


def conditional_polarization_sum(model: CouplingModel, x, n, e_d, epsilon, proj, geometry=None):
    """E[sum_lambda G^2 | n.beta = delta] = q0 + q1*u + q2*u^2 with u = delta - proj.mean.

    With c = e_d.n and e_perp = e_d - c*n, the transverse part of v gives
    sum G^2 = b^2 |e_perp|^2 + 2 b c (e_perp.beta) + c^2 |beta_perp|^2, with
    the bracket b = 1 - delta + k*eps*x linear in delta, so the conditional
    transverse moments of `proj` (wavepacket.project) make it exactly this
    quadratic. Returns (q0, q1, q2) shaped like x, which may be complex (poles).
    n may be a stack of directions (..., 3) with `proj` projected along it; x
    then has one more axis than the stack (e.g. one row of frequencies per row).
    x may carry further leading axes (e.g. several points per node, stacked),
    which broadcast against the per-direction values. `geometry` is
    `polarization_geometry(n, e_d, proj)` when the caller has taken it already.
    """
    c, a, b0, b1, c0, c1, c2 = (polarization_geometry(n, e_d, proj) if geometry is None
                                else geometry)
    x = 1.0 * np.asarray(x)  # real or complex frequencies
    if model.kind == "standard_dipole":
        return np.full_like(x, a), np.zeros_like(x), np.zeros_like(x)
    mean = proj.mean if isinstance(a, float) else proj.mean[..., None]  # per direction
    b = bracket(model, mean, x, epsilon)  # at u = 0
    # np.multiply, not *: above 256 KB numpy reuses the temporary as T *= b, and a
    # complex product's rounding depends on the operand order
    ab, twice_c, cc = a * b, 2.0 * c, c * c
    q0 = np.multiply(b, ab + twice_c * b0) + cc * c0
    q1 = 2.0 * (c * (b * b1 - b0) - ab + cc * c1)
    q2 = np.full_like(x, a - twice_c * b1 + cc * c2)
    return q0, q1, q2
