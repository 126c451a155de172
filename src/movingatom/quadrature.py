"""Frequency-axis integration: adaptive panels, cutoff scans, tail fits.

The emission integrands handled here are non-negative, smooth except for a
resonance peak whose width gamma_tilde can be many orders of magnitude below
the integration range, and -- the point of the whole exercise -- sometimes
not integrable at all. Three tools cover that ground:

* integrate_adaptive: a 15-point Kronrod rule with embedded 7-point Gauss
  estimate (the classic G7/K15 pair) on panels refined in sweeps: each sweep
  bisects every panel whose error estimate is within a factor 4 of the
  worst one and evaluates all the halves together. Callers can seed panel
  edges at known feature locations (the resonance), because blind
  adaptation on a panel 10^6 times wider than the peak can step straight
  over it.
* cutoff_scan: cumulative integrals over [start, Lambda_k] for a geometric
  ladder of cutoffs. The segments between consecutive cutoffs are refined
  side by side by the same engine, each to its own tolerance and panel
  budget, and summed once.
* classify_tail: turns a scan into a measured growth law -- convergent,
  logarithmic, or power Lambda^p -- by fitting the scan increments in
  log-log space. "The integral diverges" becomes a number with a residual.

Everything is deterministic: fixed rules, panels chosen by error magnitude
with ties broken by panel position, no timing dependence. Integrand
functions must be vectorized (accept a 1D numpy array, return same shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericalError",
    "QuadratureResult",
    "CutoffScan",
    "TailClassification",
    "integrate_adaptive",
    "cutoff_scan",
    "classify_tail",
]


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its convergence contract."""


def _mirror(half, sign: float) -> np.ndarray:
    """Full symmetric rule on [-1, 1] from its half listed from x = 1 inwards to x = 0."""
    h = np.array(half)
    return np.concatenate((sign * h[:-1], h[::-1]))


# The QUADPACK G7/K15 pair (Piessens et al. 1983): 15 Kronrod nodes, ascending
# on [-1, 1], with the 7-point Gauss rule on the odd-index nodes. K15 is exact
# for polynomials of degree 22, G7 for degree 13; |K15 - G7| is the panel error.
_XK = _mirror((0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
               0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
               0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
               0.207784955007898467600689403773245, 0.0), -1.0)
_WK = _mirror((0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
               0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
               0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
               0.204432940075298892414161999234649, 0.209482141084727828012999174891714), 1.0)
_WG = _mirror((0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
               0.381830050505118944950369775488975, 0.417959183673469387755102040816327), 1.0)

_TILE = 16  # panels per integrand call: a table of R rows makes R x 15 _TILE temporaries


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _rule(f, a: np.ndarray, b: np.ndarray):
    """K15 values and |K15 - G7| error estimates of the panels [a_i, b_i]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.empty((a.size, 15))
    for lo in range(0, a.size, _TILE):
        xs = (c[lo:lo + _TILE, None] + h[lo:lo + _TILE, None] * _XK).ravel()
        y = np.asarray(f(xs), dtype=float)
        if y.shape != xs.shape:
            raise ValueError("integrand must be vectorized: f(array) -> array of the same shape")
        if not np.all(np.isfinite(y)):
            bad = xs[~np.isfinite(y)][0]
            raise NumericalError(f"integrand returned a non-finite value near x = {bad:.6g}")
        fv[lo:lo + _TILE] = y.reshape(-1, 15)
    k15 = h * (fv @ _WK)
    return k15, np.abs(k15 - h * (fv[:, 1::2] @ _WG))


def _integrate(f, edges: np.ndarray, tol: float, features, max_panels: int):
    """Integrate f over every segment [edges[k], edges[k+1]] of increasing finite edges.

    The panels of all segments live in flat arrays; `features` inside the
    range become initial panel edges. Each sweep takes, in every segment whose
    error sum exceeds tol * max(1, |value|), the panels that can still be
    split (wider than 1e-14 * (1 + |mid|)) and whose error is at least 1/4 of
    that segment's worst such error, worst first and only as many as keep
    the segment within `max_panels`, and bisects them. Returns per-segment values
    and errors (one math.fsum each), the evaluation count (15 per panel
    evaluated) and per-segment convergence flags.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    inner = {float(x) for x in features if edges[0] < x < edges[-1]}
    pts = np.array(sorted(inner.union(edges.tolist())))
    a, b = pts[:-1], pts[1:]
    seg = np.searchsorted(edges, a, side="right") - 1
    val, err = _rule(f, a, b)
    evaluations = 15 * a.size
    n_seg = edges.size - 1
    while True:
        mid = 0.5 * (a + b)
        splittable = (a < mid) & (mid < b) & (b - a >= 1e-14 * (1.0 + np.abs(mid)))
        value = np.bincount(seg, val, n_seg)
        over = np.bincount(seg, err, n_seg) > tol * np.maximum(1.0, np.abs(value))
        cand = np.flatnonzero(splittable & over[seg])
        cand = cand[np.lexsort((-err[cand], seg[cand]))]  # by segment, worst first
        s = seg[cand]
        first = np.searchsorted(s, s)  # position of each segment's worst panel
        room = max_panels - np.bincount(seg, minlength=n_seg)[s]
        split = cand[(err[cand] >= 0.25 * err[cand[first]]) & (np.arange(s.size) - first < room)]
        if split.size == 0:
            break
        m, hi = mid[split], b[split]
        v, e = _rule(f, np.concatenate((a[split], m)), np.concatenate((m, hi)))
        evaluations += 15 * v.size
        # left halves replace their parents, right halves are appended
        a = np.concatenate((a, m))
        b = np.concatenate((b, hi))
        b[split] = m
        seg = np.concatenate((seg, seg[split]))
        val = np.concatenate((val, v[split.size:]))
        val[split] = v[:split.size]
        err = np.concatenate((err, e[split.size:]))
        err[split] = e[:split.size]

    values = np.array([math.fsum(val[seg == k]) for k in range(n_seg)])
    errors = np.array([math.fsum(err[seg == k]) for k in range(n_seg)])
    return values, errors, evaluations, errors <= tol * np.maximum(1.0, np.abs(values))


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-10, *,
                       features=(), max_panels: int = 2048) -> QuadratureResult:
    """Integrate a vectorized f over [a, b] to the target tol * max(1, |integral|).

    The target is relative for integrals above 1 and the absolute `tol`
    below. Panels are bisected in sweeps until the summed error estimate
    meets it or `max_panels` is exhausted (converged = False then, with the
    best estimate still returned -- callers decide whether that is fatal).

    `features` lists x locations (resonances, kinks) that become initial
    panel edges so the refinement starts aligned with the difficult spots.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    values, errors, evaluations, converged = _integrate(
        f, np.array([a, b], dtype=float), tol, features, max_panels)
    return QuadratureResult(value=float(values[0]), error_estimate=float(errors[0]),
                            evaluations=evaluations, converged=bool(converged[0]))


@dataclass(frozen=True)
class CutoffScan:
    """Cumulative integrals I(Lambda) = int_start^Lambda f, on a cutoff ladder."""

    lambdas: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    start: float = 0.0
    evaluations: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("a cutoff scan needs at least two cutoffs")
        if np.any(np.diff(lam) <= 0):
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


def cutoff_scan(f, lambdas, *, tol: float = 1e-9, features=(), start: float = 0.0,
                max_panels: int = 2048) -> CutoffScan:
    """Cumulative integrals over [start, Lambda_k], reusing earlier segments.

    Each segment [Lambda_{k-1}, Lambda_k] is integrated once, to the target
    tol * max(1, |segment integral|) with its own budget of `max_panels`, so
    the cost of the full scan is one pass over [start, Lambda_max]; values
    and errors are the running sums of the segments'.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need at least two cutoffs")
    if (not (math.isfinite(start) and np.all(np.isfinite(lam)))
            or np.any(np.diff(lam) <= 0) or lam[0] <= start):
        raise ValueError("cutoffs must be finite, strictly increasing and exceed the start point")
    values, errors, evaluations, converged = _integrate(
        f, np.concatenate(([float(start)], lam)), tol, features, max_panels)
    return CutoffScan(lambdas=lam, values=np.cumsum(values), errors=np.cumsum(errors),
                      start=start, evaluations=evaluations, converged=bool(converged.all()))


@dataclass(frozen=True)
class TailClassification:
    """Measured growth law of a cutoff-regulated integral.

    kind: "convergent", "logarithmic", "power", or "ambiguous" when no
        hypothesis passes its threshold (never a silent guess).
    exponent: fitted growth exponent p of the *cumulative* integral,
        I(Lambda) ~ Lambda^p, from the log-log increment fit. For an
        integrand ~ x^q the cumulative exponent is p = q + 1. Present for
        power fits and for convergent fits with shrinking increments; None
        when increments are already at the noise floor.
    fit_residual: rms residual of the log-log increment fit (None if no fit).
    log_r_squared: R^2 of the cumulative-vs-ln(Lambda) fit (logarithmic
        hypothesis), populated when that fit was evaluated.
    """

    kind: str
    exponent: float | None
    fit_residual: float | None
    log_r_squared: float | None = None
    details: dict = field(default_factory=dict)


def classify_tail(scan: CutoffScan, *, fit_points: int = 5,
                  power_slope_min: float = 0.1,
                  power_residual_max: float = 0.1,
                  log_r2_min: float = 0.999,
                  convergent_slope_max: float = -0.1,
                  cauchy_tol: float = 1e-9) -> TailClassification:
    """Fit the asymptotic growth law of a cutoff scan.

    Only the last `fit_points` scan points enter the fits: the early part of
    a scan is routinely contaminated by the resonance region and by
    pre-asymptotic crossovers, and the hypothesis tests are about the tail.
    Decision order, applied to the increments dI_k between consecutive
    cutoffs (attributed to the upper cutoff):

    1. all window increments below cauchy_tol * I_end -> convergent (Cauchy);
    2. log-log slope of increments <= convergent_slope_max -> convergent
       with shrinking increments (cumulative exponent reported);
    3. slope >= power_slope_min and rms residual <= power_residual_max
       -> power with that cumulative exponent;
    4. |slope| < power_slope_min and cumulative-vs-ln(Lambda) R^2 >=
       log_r2_min -> logarithmic;
    5. otherwise ambiguous.
    """
    if fit_points < 5:
        raise ValueError("fit_points must be at least 5 (four increments)")
    n = scan.lambdas.size
    if n < fit_points:
        raise ValueError(f"scan has {n} points; classification needs at least {fit_points}")

    lam = scan.lambdas[-fit_points:]
    cum = scan.values[-fit_points:]
    inc = np.diff(cum)
    inc_lam = lam[1:]

    scale = abs(scan.values[-1])
    if scale == 0.0 or np.all(np.abs(inc) <= cauchy_tol * max(scale, 1e-300)):
        return TailClassification(kind="convergent", exponent=None, fit_residual=None,
                                  details={"reason": "increments at noise floor (Cauchy)"})
    if np.any(inc <= 0.0):
        return TailClassification(kind="ambiguous", exponent=None, fit_residual=None,
                                  details={"reason": "non-positive increments above noise floor"})

    log_l = np.log(inc_lam)
    log_i = np.log(inc)
    slope, intercept = np.polyfit(log_l, log_i, 1)
    resid = float(np.sqrt(np.mean((log_i - (slope * log_l + intercept)) ** 2)))
    slope = float(slope)

    if slope <= convergent_slope_max:
        return TailClassification(kind="convergent", exponent=slope, fit_residual=resid,
                                  details={"reason": "increments shrink as a power"})
    if slope >= power_slope_min:
        if resid <= power_residual_max:
            return TailClassification(kind="power", exponent=slope, fit_residual=resid)
        return TailClassification(kind="ambiguous", exponent=slope, fit_residual=resid,
                                  details={"reason": "power-law residual above threshold"})

    # Near-zero increment slope: constant increments per decade, the
    # signature of logarithmic growth. Confirm on the cumulative values.
    ll = np.log(lam)
    coef = np.polyfit(ll, cum, 1)
    fitted = np.polyval(coef, ll)
    ss_res = float(np.sum((cum - fitted) ** 2))
    ss_tot = float(np.sum((cum - np.mean(cum)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r2 >= log_r2_min:
        return TailClassification(kind="logarithmic", exponent=None, fit_residual=resid,
                                  log_r_squared=r2)
    return TailClassification(kind="ambiguous", exponent=slope, fit_residual=resid,
                              log_r_squared=r2,
                              details={"reason": "neither power nor logarithmic fit passed"})
