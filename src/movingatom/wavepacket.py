"""Center-of-mass momentum distributions and averages over them.

Only the modulus squared of the momentum-space wavepacket enters any
observable computed by this package, so a distribution here is exactly
that: a probability density over the dimensionless velocity beta = p/(Mc).
No phase information is stored -- line shapes produced by averaging are
Doppler statistics, not interference.

Three variants cover the use cases:

* PointMass(beta):       a single velocity (the "cold atom" reference);
* GaussianPacket(mean, covariance):  full 3D Gaussian in beta;
* TabulatedProjection(delta, weights, direction):  an already-projected 1D
  distribution of Doppler shifts delta = n . beta for one fixed direction,
  e.g. read from a measured table.

The emission kernels depend on beta through delta and otherwise at most
quadratically through beta_perp = beta - delta*n, so `project` reduces a
distribution seen from n to the law of delta plus the conditional moments
of beta_perp given delta. Every Doppler average in the package runs on it.
It takes one direction or a stack of them (shape (..., 3)), so a whole
angular pattern is one array evaluation. Gauss-Hermite rules are built once
per order, on first use, and shared as read-only arrays.

`expectation` averages any function of the full velocity, with tensorized
Gauss-Hermite quadrature for Gaussians (exact for polynomial integrands,
spectrally accurate for smooth kernels) and an error estimate obtained by
doubling the order; it backs the spectra module's `full3d` oracle path.
`expectation` reduces with `weighted_sum`, i.e. np.sum(weights * values),
so a mixture of point-mass results over the same nodes with the same
weights is *bitwise* equal to it: on that path (ACC-08) pure-state and
mixed-state averaging coincide identically, not just approximately. Other
averages need no such identity and reduce with a matrix product of weights and
values: the golden-rule rates, the Doppler spectrum and the frequency
integrals of the spectra module. Those over a Gaussian's delta take the order
their tolerance needs: `delta_average` climbs the rungs of HERMITE_LADDER until two
agree. HERMITE_LADDER is the one place that writes those orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import check_unit, cross3, dot, elementwise
from .quadrature import NumericalError, gauss_rule
from .units import ParameterError

_WEIGHT_TOL = 1e-10
HERMITE_LADDER = (8, 16, 32, 64)  # the Gauss-Hermite orders of `delta_average`


def weighted_sum(weights: np.ndarray, values: np.ndarray):
    """np.sum(weights * values) over the last axis: a float for one set of values,
    an array for a stack of them.

    Kept as a named function so that `expectation` and a point-mass mixture
    over its nodes are the identical floating-point operation (see module
    docstring).
    """
    total = np.sum(weights * values, axis=-1)
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True, eq=False)
class PointMass:
    beta: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.beta, dtype=float)
        if arr.shape != (3,) or not np.all(np.isfinite(arr)):
            raise ValueError("PointMass.beta must be a finite 3-vector")
        object.__setattr__(self, "beta", arr)


def _eigenvalues(a: np.ndarray) -> list[float]:
    """The eigenvalues, ascending, of a symmetric 3x3 matrix, in closed form and without
    LAPACK. With a = q I + p B, tr B = 0 and |B|^2 = 6 (Frobenius), B's eigenvalues are
    2 cos((acos(det B / 2) + 2 pi j) / 3) (Smith, Commun. ACM 4, 1961). Only the one that
    stays simple where two meet (j = 0 for det B >= 0, else j = 1) is taken so, since acos
    gives a double one to sqrt(eps); the other two are -beta / 2 -+ g, with g from the
    squares of B's part transverse to beta's eigenvector v, 2 g^2 = |B - beta I + 3 beta
    (I - v v^T / |v|^2) / 2|^2 (Eberly, "A Robust Eigensolver for 3 x 3 Symmetric
    Matrices", 2014). Each row of B - beta I crossed with the next is along v; the longest
    is the most accurate. Errors are eps |a|, as LAPACK's. It runs on the six entries as
    Python floats: on a 3x3, numpy's cost per call would be most of the time."""
    (xx, xy, xz), (_, yy, yz), (_, _, zz) = a.tolist()
    q = (xx + yy + zz) / 3.0
    xx, yy, zz = xx - q, yy - q, zz - q
    p = math.sqrt((xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    if p == 0.0:
        return [q, q, q]
    xx, yy, zz, xy, xz, yz = xx / p, yy / p, zz / p, xy / p, xz / p, yz / p
    det = xx * (yy * zz - yz * yz) + xy * (yz * xz - xy * zz) + xz * (xy * yz - yy * xz)
    beta = 2.0 * math.cos((math.acos(min(max(det / 2.0, -1.0), 1.0)) + math.tau * (det < 0)) / 3.0)
    rows = (xx - beta, xy, xz), (xy, yy - beta, yz), (xz, yz, zz - beta)
    v = max(map(cross3, rows, rows[1:] + rows[:1]), key=lambda c: math.hypot(*c))
    s = 1.5 * beta / math.hypot(*v) ** 2
    g = math.sqrt(sum((row[j] + 1.5 * beta * (i == j) - s * v[i] * v[j]) ** 2
                      for i, row in enumerate(rows) for j in range(3)) / 2.0)
    return sorted((q + p * beta, q + p * (-0.5 * beta - g), q + p * (-0.5 * beta + g)))


@dataclass(frozen=True, eq=False)
class GaussianPacket:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (3,) or not np.all(np.isfinite(mean)):
            raise ValueError("GaussianPacket.mean must be a finite 3-vector")
        if cov.shape != (3, 3) or not np.all(np.isfinite(cov)):
            raise ValueError("GaussianPacket.covariance must be a finite 3x3 matrix")
        # np.allclose(cov, cov.T, atol=1e-14, rtol=1e-10) on the off-diagonal pairs, as floats
        (_, xy, xz), (yx, _, yz), (zx, zy, _) = cov.tolist()
        if not all(abs(a - b) <= 1e-14 + 1e-10 * abs(b) and abs(b - a) <= 1e-14 + 1e-10 * abs(a)
                   for a, b in ((xy, yx), (xz, zx), (yz, zy))):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        eigvals = _eigenvalues(cov)
        if eigvals[0] < -1e-12 * max(1.0, -eigvals[0], eigvals[-1]):
            raise ValueError("covariance is not positive semidefinite "
                             f"(eigenvalues {np.array(eigvals)})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def isotropic(cls, mean, sigma: float) -> "GaussianPacket":
        return cls(mean=np.asarray(mean, dtype=float), covariance=(sigma**2) * np.eye(3))

    @classmethod
    def along_direction(cls, mean, sigma: float, direction) -> "GaussianPacket":
        """Rank-one packet: spread sigma along `direction` only."""
        d = check_unit(direction, "direction")
        return cls(mean=np.asarray(mean, dtype=float),
                   covariance=(sigma**2) * np.outer(d, d))


@dataclass(frozen=True, eq=False)
class TabulatedProjection:
    delta: np.ndarray
    weights: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        delta = np.asarray(self.delta, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        direction = check_unit(self.direction, "direction")
        if delta.ndim != 1 or delta.size == 0 or weights.shape != delta.shape:
            raise ValueError("delta and weights must be matching nonempty 1D arrays")
        if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(weights))):
            raise ValueError("tabulated delta and weights must be finite")
        if np.any(weights < 0):
            raise ValueError("tabulated weights must be non-negative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"tabulated weights must sum to 1 within {_WEIGHT_TOL:g}; got {total!r}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "direction", direction)


MomentumDistribution = Union[PointMass, GaussianPacket, TabulatedProjection]


@dataclass(frozen=True, eq=False)
class ProjectedDistribution:
    """A distribution seen from n: the law of delta = n . beta ("gaussian",
    "point" with sigma = 0, or "tabulated"; nodes/weights average functions
    of delta, exactly except for the Gauss-Hermite "gaussian" rule) and,
    with u = delta - mean, the conditional transverse moments

        E[beta_perp | delta]     = perp_mean + u * perp_gain
        E[|beta_perp|^2 | delta] = |E[beta_perp | delta]|^2 + perp_var

    Seen from a stack of directions, every field but `weights` (shared by all
    rows) carries the stack's leading shape: mean, sigma and perp_var are
    shaped like the stack, nodes add the node axis, the perp vectors an axis
    of 3.
    """

    kind: str
    mean: float
    sigma: float
    nodes: np.ndarray
    weights: np.ndarray
    perp_mean: np.ndarray
    perp_gain: np.ndarray
    perp_var: float

    def __post_init__(self) -> None:
        total = float(np.add.reduce(self.weights))  # np.sum's pairwise sum
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"projected weights must sum to 1 within {_WEIGHT_TOL:g}; got {total!r}")


@functools.lru_cache(maxsize=None)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of `order` points (weight exp(-t^2)), built on
    first use by `gauss_rule` and returned read-only on every later call. Its guesses are
    Tricomi's, sqrt(nu cos^2(s/2) - (5 / (4 u^2) - 1 / u - 1/4) / (3 nu)) with
    s - sin s = pi (4k - 1) / nu, nu = 2 order + 1 and u = sin^2(s/2) (Gatteschi, J.
    Comput. Appl. Math. 144, 2002)."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    nu = 2 * order + 1
    c = np.pi * (4 * np.arange(1, order // 2 + 1) - 1) / nu
    s = np.cbrt(6 * c)
    for _ in range(6):  # Newton's method on s - sin s = c
        s -= (s - np.sin(s) - c) / (1 - np.cos(s))
    u = np.sin(s / 2) ** 2
    guess = np.sqrt(nu * (1 - u) - (1.25 / u ** 2 - 1 / u - 0.25) / (3 * nu))
    t, w = gauss_rule(np.sqrt(np.arange(1, order + 1) / 2), np.sqrt(np.pi), guess)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def project(dist: MomentumDistribution, n, order: int | None = None) -> ProjectedDistribution:
    """Exact law of delta = n . beta for `dist`, with its conditional transverse
    moments; a Gaussian's delta nodes are an `order`-point Gauss-Hermite rule
    (cached per order, read-only). `order` defaults to the first rung of HERMITE_LADDER,
    read at each call: a rule that `delta_average`, which replaces a Gaussian's nodes by
    its rungs', builds anyway. That default is sized for `delta_average` and is exact
    only for polynomials of delta up to degree 2 * order - 1: to average an integrand of
    your own over the nodes, pass `order`, or use `expectation`.

    n is one unit vector (3,) or a stack of them (..., 3); a stack gives every
    field but the shared weights its leading shape (see ProjectedDistribution),
    and one direction gives mean, sigma and perp_var as Python floats.
    Given delta, a Gaussian N(m, S) is N(m + u g, S - s^2 g g^T) with
    s^2 = n.S.n and gain g = S n / s^2, so its transverse variance is
    tr S - |S n|^2 / s^2. A direction with s^2 <= eps_mach tr S (zero to
    rounding) has the point law, g = 0: it moves the average by at most
    eps_mach relative, where |g|^2 ~ tr S / s^2 would overflow as s -> 0. In a
    stack with other rows its Hermite nodes all sit at the mean. A point mass
    has the point law with no covariance arithmetic. Tabulated rows lie along n:
    they have no transverse part. The dot products are `geometry.dot`'s, with `dot3`'s
    arithmetic: Python floats for one direction, two numpy calls for a stack.
    """
    n = check_unit(n, "n", stacked=True)
    batch = n.shape[:-1]
    if isinstance(dist, TabulatedProjection):
        if not np.abs(n - dist.direction).max() <= 1e-12:
            raise ParameterError("a tabulated distribution gives delta = n.beta only along "
                                 "its own direction")
        mean = weighted_sum(dist.weights, dist.delta)
        var = weighted_sum(dist.weights, (dist.delta - mean) ** 2)
        zeros = np.zeros(batch + (3,))
        return ProjectedDistribution(kind="tabulated", mean=np.full(batch, mean)[()],
                                     sigma=np.full(batch, np.sqrt(max(var, 0.0)))[()],
                                     nodes=np.broadcast_to(dist.delta, batch + dist.delta.shape),
                                     weights=dist.weights, perp_mean=zeros, perp_gain=zeros,
                                     perp_var=np.zeros(batch)[()])
    if not isinstance(dist, (PointMass, GaussianPacket)):
        raise TypeError(f"unknown distribution type {type(dist).__name__}")
    center = dist.beta if isinstance(dist, PointMass) else dist.mean
    mean = dot(n, center)
    column = np.asarray(mean)[..., None]  # one direction's float as an array (1,) too
    perp_mean = center - column * n
    if isinstance(dist, PointMass):
        zero = np.zeros(batch)[()]
        return ProjectedDistribution("point", mean, zero, column, np.ones(1), perp_mean,
                                     np.zeros(n.shape), zero)
    where, maximum, sqrt = elementwise(mean)
    sn = n @ dist.covariance  # S n
    var, trace = dot(n, sn), float(dist.covariance.trace())
    live = var > math.ulp(1.0) * trace  # eps_mach tr S
    var = where(live, var, 1.0)
    gain = where(np.asarray(live)[..., None], sn / np.asarray(var)[..., None], np.zeros(n.shape))
    along, perp_var = dot(n, gain), trace - dot(sn, gain)
    moments = gain - np.asarray(along)[..., None] * n, maximum(perp_var, 0.0)
    sigma = where(live, sqrt(var), 0.0)
    if not np.logical_or.reduce(live, axis=None):
        return ProjectedDistribution("point", mean, sigma, column, np.ones(1), perp_mean, *moments)
    order = HERMITE_LADDER[0] if order is None else order
    nodes, (weights,) = hermite_nodes(mean, sigma, (order,))
    return ProjectedDistribution("gaussian", mean, sigma, nodes, weights, perp_mean, *moments)


def hermite_nodes(mean, sigma, orders) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Gauss-Hermite nodes of delta ~ N(mean, sigma^2) of each order in `orders`, side
    by side on a new last axis, and each order's weights; mean and sigma are floats or
    shaped like a stack of directions: a Gaussian's rule in `project`, and the same law
    at the orders of `delta_average`."""
    t, w = zip(*map(_hermite_rule, orders))
    scale, t = np.asarray(math.sqrt(2.0) * sigma)[..., None], np.concatenate(t)
    return np.asarray(mean)[..., None] + scale * t, [v / math.sqrt(math.pi) for v in w]


def delta_average(proj: ProjectedDistribution, evaluate, tol: float):
    """An average over the law of delta = n.beta that `proj` holds (projected along n, one
    direction (3,) or a stack (..., 3)): (value, error, evaluations, converged, orders).

    evaluate(rows, rules) -> (values, errors, counts, converged) evaluates at the delta
    nodes of `rows` (proj with its nodes replaced) for every rule (weights, slice of the
    node axis), the rules' nodes side by side, and stacks its fields rule first: values
    and errors shaped (R, ..., X) for R rules, counts (work per node) and converged
    shaped (R, ...), where ... holds the columns (such as models and directions) and X
    the points of each (such as upper limits).

    A point mass or a table takes its own nodes, once. A Gaussian climbs the rungs of
    HERMITE_LADDER: the first two in one evaluation, then each later one in one evaluation
    while a column is open. Gauss rules on analytic integrands converge geometrically
    (Trefethen & Weideman, SIAM Review 56, 2014), so, as `quadrature._levels` does per
    column, each column keeps the first rung whose change from the rung before meets
    tol * max(1, |value|) at every X: the change joins its error, and the work of every
    rung up to it its evaluations. So a column equals a call on it alone. A column open at
    the last rung reports converged = False, as does one whose evaluation missed its own
    target at either of the two rungs compared. `orders` is the order each column kept (a
    point mass's or a table's node count). The projection's own nodes are not read for a
    Gaussian: `project`'s default order, the first rung, builds no other.
    """
    if proj.kind != "gaussian":
        v, e, c, ok = evaluate(proj, [(proj.weights, slice(None))])
        return v[0], e[0], proj.weights.size * c[0], ok[0], np.full(c[0].shape, proj.weights.size)
    fields, done = vars(proj), None
    for rule_orders in (HERMITE_LADDER[:2], *((order,) for order in HERMITE_LADDER[2:])):
        nodes, weights = hermite_nodes(proj.mean, proj.sigma, rule_orders)
        blocks = (slice(rule_orders[0]), slice(rule_orders[0], None))
        v, e, c, ok = evaluate(ProjectedDistribution(**{**fields, "nodes": nodes}),
                               list(zip(weights, blocks)))
        gap = np.abs(v[-1] - (v[0] if done is None else value))
        met = np.logical_and.reduce(gap <= tol * np.maximum(1.0, np.abs(v[-1])), axis=-1)
        work = rule_orders[-1] * c[-1] + (rule_orders[0] * c[0] if done is None else 0)
        if done is None:  # the first rung stands for the rung before the second
            value, error, evaluations = v[-1], e[-1] + gap, work
            converged, orders = met & ok[-1] & ok[0], np.zeros(met.shape, int) + rule_orders[-1]
        else:  # the open columns take this order
            value = np.where(done[..., None], value, v[-1])
            error = np.where(done[..., None], error, e[-1] + gap)
            evaluations = evaluations + np.where(done, 0, work)
            converged = np.where(done, converged, met & ok[-1] & rest_ok)
            orders = np.where(done, orders, rule_orders[-1])
            met = done | met
        rest_ok, done = ok[-1], met
        if np.logical_and.reduce(done, axis=None):
            break
    return value, error, evaluations, converged, orders


def gaussian_nodes(dist: GaussianPacket, order: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes (N, 3) and weights (N,) for a 3D Gaussian.

    Degenerate covariance directions (zero eigenvalue) are dropped from the
    tensor product, so a rank-one packet costs `order` nodes, not order^3.
    Node order is deterministic.
    """
    if not isinstance(dist, GaussianPacket):
        raise TypeError("gaussian_nodes needs a GaussianPacket")
    eigvals, eigvecs = np.linalg.eigh(dist.covariance)
    eigvals = np.clip(eigvals, 0.0, None)
    scale = float(np.max(eigvals))
    active = eigvals > (scale * 1e-13 if scale > 0 else np.inf)
    if not np.any(active):
        return dist.mean[None, :].copy(), np.array([1.0])
    idx = np.nonzero(active)[0]
    # the tensor grid of the 1D rule's nodes and of its weights, (N, d) each
    tpts, wpts = (np.stack([g.ravel() for g in np.meshgrid(*([r] * idx.size), indexing="ij")],
                           axis=-1) for r in _hermite_rule(order))
    axes = eigvecs[:, idx] * np.sqrt(2.0 * eigvals[idx])  # (3, d)
    return dist.mean + tpts @ axes.T, np.prod(wpts, axis=-1) / np.pi ** (idx.size / 2.0)


@dataclass(frozen=True)
class ExpectationResult:
    value: float
    error: float


def _checked_eval(f, nodes: np.ndarray) -> np.ndarray:
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape[:-1] and values.shape != (nodes.shape[0],):
        raise ValueError("integrand must map (N, 3) velocity nodes to (N,) values")
    if not np.all(np.isfinite(values)):
        bad = nodes[~np.isfinite(values)][0]
        raise NumericalError(f"integrand not finite at velocity node {bad.tolist()}")
    return values


def expectation(dist: MomentumDistribution, f, order: int = 40) -> ExpectationResult:
    """E[f(beta)] over the distribution, with an order-doubling error bar.

    f must be vectorized over velocity nodes: f((N, 3) array) -> (N,).
    For PointMass the value is exact; for TabulatedProjection it is the
    weighted sum over the table (also exact given the table).
    """
    if isinstance(dist, GaussianPacket):
        nodes, weights = gaussian_nodes(dist, order)
        value = weighted_sum(weights, _checked_eval(f, nodes))
        nodes2, weights2 = gaussian_nodes(dist, 2 * order)
        error = abs(weighted_sum(weights2, _checked_eval(f, nodes2)) - value)
        return ExpectationResult(value=value, error=error)
    if isinstance(dist, PointMass):
        nodes, weights = dist.beta[None, :], np.ones(1)
    elif isinstance(dist, TabulatedProjection):
        nodes, weights = dist.delta[:, None] * dist.direction, dist.weights
    else:
        raise TypeError(f"unknown distribution type {type(dist).__name__}")
    return ExpectationResult(value=weighted_sum(weights, _checked_eval(f, nodes)), error=0.0)
