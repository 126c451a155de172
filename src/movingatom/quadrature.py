"""Frequency-axis integration: Gauss-Legendre panels, cutoff scans, tail fits.

The library's frequency integrals are closed forms over each line's partial
fractions (amplitudes.line_fractions); quadrature is left for the smooth
remainders of formfactor-damped integrands. Three tools:

* integrate_adaptive: a composite 32-point Gauss-Legendre rule on one interval,
  whose equal panels double in number until two levels agree within
  tol * max(1, |I|), or until the next level would exceed `max_panels` panels.
* cutoff_scan: cumulative integrals over [0, Lambda_k], the running sum of one
  integrate_adaptive call per segment between consecutive cutoffs.
* classify_tail: the growth law of a scan (convergent, logarithmic, power
  Lambda^p) from a log-log fit of its increments, with its residual; its
  lines, like every least-squares line of the package, come from `fit_line`.

Its 32-point Gauss-Legendre rule and the Gauss-Hermite rules of the wavepacket
module come from `gauss_rule`, which needs no eigen-solver and so no LAPACK.

Everything is deterministic. Integrands must be vectorized (a 1D array in,
the same shape out, or a stack of integrands: (..., X) out for X points in).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its convergence contract."""


_ORDER = 32  # Gauss-Legendre points per panel: exact for polynomials of degree 63
_TILE = 4  # panels per integrand call: R rows (directions x nodes) make R x 128 temporaries


def gauss_rule(b: np.ndarray, mu0: float, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule (nodes ascending, weights) of an even weight function of
    mass mu0 whose orthonormal polynomials satisfy x p_k = b_k p_{k-1} + b_{k+1} p_{k+1},
    for b = (b_1, ..., b_n). No eigen-solver (Golub & Welsch's route): `guess` holds the
    n // 2 positive nodes, descending, to about 1e-3 (an odd n adds the node 0), and
    Halley's iteration on p_n, with p_n' and p_n'' run through the same recurrence,
    polishes them (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013). A weight is
    1 / (b_n p_n' p_{n-1}) at the node, moved to first order by the last step, which the
    rounded node cannot hold."""
    n = b.size
    x = np.concatenate((guess, np.zeros(n % 2)))
    inverse, ratio = (1.0 / b).tolist(), [0.0, *(b[:-1] / b[1:]).tolist()]
    for _ in range(12):
        prev, cur = np.zeros((3, x.size)), np.zeros((3, x.size)) + [[mu0 ** -0.5], [0.0], [0.0]]
        for k in range(n):  # rows p_k, p_k', p_k''/2
            nxt = x * cur
            nxt[1:] += cur[:-1]
            prev, cur = cur, nxt * inverse[k] - ratio[k] * prev
        step = cur[0] * cur[1] / (cur[1] ** 2 - cur[0] * cur[2])
        x = x - step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(x))):
            break
    else:
        raise NumericalError(f"the {n}-point Gauss rule did not converge")
    w = (1.0 + step * (2.0 * cur[2] / cur[1] + prev[1] / prev[0])) / (b[-1] * cur[1] * prev[0])
    return np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1]))


@functools.cache  # built on first use
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _ORDER-point Gauss-Legendre rule on [-1, 1], from the guesses
    cos(pi (4k - 1) / (4n + 2)) (1 - (n - 1) / (8 n^3)) (Tricomi)."""
    j, k = np.arange(1.0, _ORDER + 1), np.arange(1, _ORDER // 2 + 1)
    guess = np.cos(np.pi * (4 * k - 1) / (4 * _ORDER + 2)) * (1 - (_ORDER - 1) / (8 * _ORDER ** 3))
    return gauss_rule(j / np.sqrt(4 * j * j - 1), 2.0, guess)


@dataclass(frozen=True)
class QuadratureResult:
    """One integral, as Python scalars, or a stack of them: then every field is an
    array of the value's shape."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self) -> None:
        shape = np.asarray(self.value).shape
        for name in ("value", "error_estimate", "evaluations", "converged"):
            v = np.asarray(getattr(self, name))
            v = v if v.shape == shape else np.broadcast_to(v, shape)  # a view costs 5 us
            object.__setattr__(self, name, v if shape else v.item())


def _rule(f, a: float, h: float, panels: int) -> np.ndarray:
    """Gauss-Legendre values of f over the panels [a + k h, a + (k + 1) h], k < `panels`
    (last axis), for f returning (..., X) at X points."""
    nodes, weights = _legendre()
    half, starts, out = 0.5 * h, a + h * np.arange(panels), []
    for lo in range(0, panels, _TILE):
        xs = (starts[lo:lo + _TILE, None] + half * (1.0 + nodes)).ravel()
        y = np.asarray(f(xs), dtype=float)
        if y.shape[-1:] != xs.shape:
            raise ValueError("integrand must be vectorized: f(array) -> array of the same shape")
        if not np.logical_and.reduce(np.isfinite(y), axis=None):
            bad = xs[~np.isfinite(y).reshape(-1, xs.size).all(axis=0)][0]
            raise NumericalError(f"integrand returned a non-finite value near x = {bad:.6g}")
        out.append(half * (y.reshape(y.shape[:-1] + (-1, _ORDER)) @ weights))
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10, *,
                       max_panels: int = 2048) -> QuadratureResult:
    """Integrate a vectorized f over [a, b] to the target tol * max(1, |integral|)
    (relative above 1, absolute below). Level l splits [a, b] into 2^l equal panels;
    levels double until two agree within the target, or converged = False when the
    next level would exceed `max_panels` panels (the finer level is still returned;
    callers decide whether that is fatal). `error_estimate` is the last level
    difference; `evaluations` counts 32 rule points per panel. NumericalError when
    the integrand or a level's value is not finite (numpy's overflow and invalid
    warnings are silenced while a level is evaluated).

    f may return (..., X) at X points: one integral per leading index (column), all
    evaluated at the same nodes. Levels double until every column is done, and each
    column keeps the first level that met its own target, so its value, error,
    evaluations and convergence are those of a call on that column alone; the
    result's fields are then arrays of the leading shape. A value that is not finite
    raises in any column, also in one that was already done."""
    return QuadratureResult(*_levels(f, a, b, tol, max_panels))


def _levels(f, a: float, b: float, tol: float, max_panels: int):
    """integrate_adaptive's (value, error, evaluations, converged), as arrays of the
    integrand's leading shape (0-d for one integral)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = float(a), float(b)
    panels, value, error, evaluations, converged = 1, 0.0, 0.0, 0, np.False_
    with np.errstate(over="ignore", invalid="ignore"):  # a value not finite raises
        while True:
            # panel values summed left to right (np.sum would pair them up)
            new = _rule(f, a, (b - a) / panels, panels).cumsum(axis=-1)[..., -1]
            if not np.logical_and.reduce(np.isfinite(new), axis=None):
                raise NumericalError(f"the integral over [{a:.6g}, {b:.6g}] is not finite")
            # a column that met its target keeps that level; the others take this one
            value, error = (np.where(converged, value, new),
                            np.where(converged, error, abs(new - value)))
            evaluations = np.where(converged, evaluations, _ORDER * (2 * panels - 1))
            converged = converged | (panels > 1) & (error <= tol * np.maximum(1.0, abs(value)))
            if np.logical_and.reduce(converged, axis=None) or 2 * panels > max_panels:
                return value, error, evaluations, converged
            panels *= 2


@dataclass(frozen=True)
class CutoffScan:
    """Cumulative integrals I(Lambda) = int_0^Lambda f on a cutoff ladder, with their
    error estimates: from `cutoff_scan`, or closed forms per cutoff."""

    lambdas: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    evaluations: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("a cutoff scan needs at least two cutoffs")
        if np.logical_or.reduce(lam[1:] - lam[:-1] <= 0):  # np.diff(lam) <= 0
            raise ValueError("cutoffs must be strictly increasing")
        object.__setattr__(self, "lambdas", lam)
        values = np.asarray(self.values, dtype=float)
        errors = np.asarray(self.errors, dtype=float)
        if values.shape != lam.shape or errors.shape != lam.shape:
            raise ValueError("values and errors must match the cutoffs in length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errors", errors)


def geometric_cutoffs(lo: float = 1e2, hi: float = 1e4, n: int = 16) -> np.ndarray:
    """Default cutoff ladder: n geometrically spaced points on [lo, hi]."""
    if not (0 < lo < hi) or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    return np.geomspace(lo, hi, n)


def cutoff_scan(f, lambdas, *, tol: float = 1e-9, max_panels: int = 2048) -> CutoffScan:
    """Cumulative integrals over [0, Lambda_k]: each segment [Lambda_{k-1}, Lambda_k]
    (from 0) is one `integrate_adaptive` call with its own target and `max_panels`,
    and values and errors are the running sums of the segments'."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need at least two cutoffs")
    edges = np.concatenate(([0.0], lam))
    segments = [integrate_adaptive(f, lo, hi, tol, max_panels=max_panels)
                for lo, hi in zip(edges[:-1], edges[1:])]
    return CutoffScan(lambdas=lam, values=np.cumsum([seg.value for seg in segments]),
                      errors=np.cumsum([seg.error_estimate for seg in segments]),
                      evaluations=sum(seg.evaluations for seg in segments),
                      converged=all(seg.converged for seg in segments))


@dataclass(frozen=True)
class TailClassification:
    """Measured growth law of a cutoff-regulated integral.

    kind: "convergent", "logarithmic", "power", or "ambiguous" (no hypothesis
        passed its threshold; never a silent guess).
    exponent: growth exponent p of the cumulative integral, I ~ Lambda^p (an
        integrand ~ x^q gives p = q + 1), for power and shrinking convergent
        fits; None when the increments are at the noise floor.
    fit_residual: rms residual of the log-log increment fit (None if no fit).
    log_r_squared: R^2 of the cumulative-vs-ln(Lambda) fit, when evaluated.
    """

    kind: str
    exponent: float | None
    fit_residual: float | None
    log_r_squared: float | None = None
    details: dict = field(default_factory=dict)


# classify_tail's decision thresholds (see its docstring)
POWER_SLOPE_MIN = 0.1
POWER_RESIDUAL_MAX = 0.1
LOG_R2_MIN = 0.999
CONVERGENT_SLOPE_MAX = -0.1
CAUCHY_TOL = 1e-9
FIT_POINTS = 5  # the default window: the last five cutoffs
MIN_FIT_POINTS = 5  # the fewest cutoffs a fit takes: four increments


def classify_tail(scan: CutoffScan, *, fit_points: int = FIT_POINTS) -> TailClassification:
    """Fit the asymptotic growth law of a cutoff scan from its last `fit_points`
    points (the early part carries the resonance and pre-asymptotic crossovers).
    Decision order, on the increments dI_k between consecutive cutoffs
    (attributed to the upper cutoff):

    1. all window increments below CAUCHY_TOL * I_end -> convergent (Cauchy);
    2. log-log slope of increments <= CONVERGENT_SLOPE_MAX -> convergent
       with shrinking increments (cumulative exponent reported);
    3. slope >= POWER_SLOPE_MIN and rms residual <= POWER_RESIDUAL_MAX
       -> power with that cumulative exponent;
    4. |slope| < POWER_SLOPE_MIN and cumulative-vs-ln(Lambda) R^2 >=
       LOG_R2_MIN -> logarithmic;
    5. otherwise ambiguous.

    Both lines (up to two per scan) are least-squares fits in closed form, `fit_line`.
    """
    if fit_points < MIN_FIT_POINTS:
        raise ValueError(f"fit_points must be at least {MIN_FIT_POINTS} "
                         f"({MIN_FIT_POINTS - 1} increments)")
    n = scan.lambdas.size
    if n < fit_points:
        raise ValueError(f"scan has {n} points; classification needs at least {fit_points}")

    lam, cum = scan.lambdas[-fit_points:], scan.values[-fit_points:]
    inc = cum[1:] - cum[:-1]  # np.diff, attributed to lam[1:]

    scale = abs(float(scan.values[-1]))
    if scale == 0.0 or np.logical_and.reduce(abs(inc) <= CAUCHY_TOL * max(scale, 1e-300)):
        return TailClassification(kind="convergent", exponent=None, fit_residual=None,
                                  details={"reason": "increments at noise floor (Cauchy)"})
    if np.logical_or.reduce(inc <= 0.0):
        return TailClassification(kind="ambiguous", exponent=None, fit_residual=None,
                                  details={"reason": "non-positive increments above noise floor"})

    log_l, log_i = np.log(lam[1:]), np.log(inc)
    slope, intercept = fit_line(log_l, log_i)
    resid = math.sqrt(_mean((log_i - (slope * log_l + intercept)) ** 2))

    if slope <= CONVERGENT_SLOPE_MAX:
        return TailClassification(kind="convergent", exponent=slope, fit_residual=resid,
                                  details={"reason": "increments shrink as a power"})
    if slope >= POWER_SLOPE_MIN:
        if resid <= POWER_RESIDUAL_MAX:
            return TailClassification(kind="power", exponent=slope, fit_residual=resid)
        return TailClassification(kind="ambiguous", exponent=slope, fit_residual=resid,
                                  details={"reason": "power-law residual above threshold"})

    # Near-zero increment slope: constant increments per decade, the
    # signature of logarithmic growth. Confirm on the cumulative values.
    ll = np.log(lam)
    log_slope, log_intercept = fit_line(ll, cum)
    ss_res = float(np.add.reduce((cum - (log_slope * ll + log_intercept)) ** 2))
    ss_tot = float(np.add.reduce((cum - _mean(cum)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 >= LOG_R2_MIN:
        return TailClassification(kind="logarithmic", exponent=None, fit_residual=resid,
                                  log_r_squared=r2)
    return TailClassification(kind="ambiguous", exponent=slope, fit_residual=resid,
                              log_r_squared=r2,
                              details={"reason": "neither power nor logarithmic fit passed"})


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line y ~ slope x + intercept, in closed form
    about the means: slope = sum dx dy / sum dx^2 with dx = x - mean(x), dy = y - mean(y).
    Two numbers need no LAPACK solve (np.polyfit's lstsq pages in up to 0.9 MB of it)."""
    mx, my = _mean(x), _mean(y)
    dx, dy = x - mx, y - my
    slope = float(dx @ dy / (dx @ dx))
    return slope, my - slope * mx


def _mean(x: np.ndarray) -> float:
    """np.mean of a 1D array, the same sum and division, without its Python layers."""
    return float(np.add.reduce(x)) / x.size
