import math
import subprocess
import sys

import numpy as np
import pytest

from movingatom.quadrature import (CutoffScan, NumericalError, _legendre, classify_tail,
                                   fit_line, cutoff_scan, gauss_rule, geometric_cutoffs,
                                   integrate_adaptive)
from movingatom.wavepacket import _hermite_rule


def test_polynomial_is_exact():
    # one 32-point Gauss-Legendre panel integrates degree-6 polynomials exactly
    res = integrate_adaptive(lambda x: 7 * x**6 - 3 * x**2 + 1, 0.0, 2.0, 1e-12)
    exact = 2.0**7 - 2.0**3 + 2.0
    assert abs(res.value - exact) < 1e-13 * exact
    assert res.converged


def test_simple_integrals():
    res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)
    gauss = integrate_adaptive(lambda x: np.exp(-x * x), 0.0, 6.0, 1e-13)
    assert gauss.value == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(6.0), rel=1e-13)


def test_narrow_lorentzian_at_a_panel_edge():
    # half-width 0.005 at the centre of [0, 2], where every level from 1 on has an edge
    a = 0.005
    res = integrate_adaptive(lambda x: 1.0 / ((x - 1.0) ** 2 + a * a), 0.0, 2.0, 1e-10)
    exact = (2.0 / a) * math.atan(1.0 / a)  # = 400*atan(200) ~ 626.3185
    assert res.value == pytest.approx(exact, rel=1e-10)
    assert res.converged


def test_panel_count_doubles_until_two_levels_agree():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x * x)

    res = integrate_adaptive(f, 0.0, 6.0, 1e-13)
    assert res.converged and res.error_estimate <= 1e-13
    levels = int(np.log2(res.evaluations // 32 + 1))
    assert res.evaluations == 32 * (2**levels - 1)  # panels 1, 2, 4, ...
    assert max(calls) <= 4 * 32  # at most four panels per integrand call


def test_non_finite_integrand_raises_with_location():
    def bad(x):
        return np.where(x > 0.5, np.inf, 1.0)

    with pytest.raises(NumericalError, match=r"non-finite value near x ="):
        integrate_adaptive(bad, 0.0, 1.0, 1e-8)


@pytest.mark.parametrize("sign", [[1.0], [1.0, -1.0]])  # one level is inf, the other nan
def test_overflowing_level_raises_without_a_warning(sign):
    # every value of the integrand is finite, but panel width times its values is not
    def big(x):
        return 1e300 * np.where(x < 5e10, sign[0], sign[-1])

    with pytest.raises(NumericalError, match=r"integral over \[0, 1e\+11\] is not finite"):
        integrate_adaptive(big, 0.0, 1e11, 1e-8)


def test_unconverged_flag_when_budget_exhausted():
    a = 1e-7
    res = integrate_adaptive(lambda x: 1.0 / ((x - 0.3) ** 2 + a * a), 0.0, 1.0,
                             1e-14, max_panels=8)
    assert not res.converged


def test_stacked_integrand_columns_are_the_scalar_calls():
    # Lorentzians of four widths: the columns stop at levels 1, 3 and 6, and the narrowest
    # misses tol within 256 panels; each keeps the level a call on it alone would return
    widths = np.array([[1.0, 0.1], [0.01, 1e-4]])
    stack = integrate_adaptive(lambda x: 1.0 / ((x - 0.3) ** 2 + widths[..., None] ** 2),
                               0.0, 1.0, 1e-12, max_panels=256)
    singles = [integrate_adaptive(lambda x, w=w: 1.0 / ((x - 0.3) ** 2 + w * w), 0.0, 1.0,
                                  1e-12, max_panels=256) for w in widths.ravel()]
    assert [r.evaluations for r in singles] == [96, 480, 4064, 16352]
    assert [r.converged for r in singles] == [True, True, True, False]
    assert all(type(r.value) is float and type(r.converged) is bool for r in singles)
    for name in ("value", "error_estimate", "evaluations", "converged"):
        got = getattr(stack, name)
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == [getattr(r, name) for r in singles]


def test_determinism():
    f = lambda x: np.sin(3 * x) / (1 + x * x)
    r1 = integrate_adaptive(f, 0.0, 10.0, 1e-11)
    r2 = integrate_adaptive(f, 0.0, 10.0, 1e-11)
    assert r1.value == r2.value and r1.evaluations == r2.evaluations


def test_geometric_cutoffs_default_span():
    lam = geometric_cutoffs()
    assert lam.size == 16
    assert lam[0] == pytest.approx(1e2) and lam[-1] == pytest.approx(1e4)
    assert np.allclose(np.diff(np.log(lam)), np.log(lam[1] / lam[0]), rtol=1e-10)


def test_cutoff_scan_linear_integrand():
    # integral of x from 0: cumulative Lambda^2/2 -> {50, 5000, 500000}
    scan = cutoff_scan(lambda x: np.asarray(x, dtype=float),
                       [10.0, 100.0, 1000.0], tol=1e-11)
    assert np.allclose(scan.values, [50.0, 5000.0, 500000.0], rtol=1e-12)
    assert scan.converged


def test_cutoff_scan_logarithmic_integrand():
    scan = cutoff_scan(lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
                       np.geomspace(10, 1e4, 8), tol=1e-11)
    assert np.allclose(scan.values, np.log(1.0 + scan.lambdas), rtol=1e-10)


def test_cutoff_scan_is_the_running_sum_of_its_segments():
    f = lambda x: x * x / ((1.0 - x) ** 2 + 1e-6)
    lam = geometric_cutoffs(2.0, 1e3, 16)
    tol = 1e-11
    scan = cutoff_scan(f, lam, tol=tol)
    edges = np.concatenate(([0.0], lam))
    segments = [integrate_adaptive(f, lo, hi, tol)
                for lo, hi in zip(edges[:-1], edges[1:])]
    running = np.cumsum([seg.value for seg in segments])
    assert scan.values.tobytes() == running.tobytes()
    assert scan.errors.tobytes() == np.cumsum([seg.error_estimate for seg in segments]).tobytes()
    assert scan.evaluations == sum(seg.evaluations for seg in segments)
    assert scan.converged and all(seg.converged for seg in segments)
    again = cutoff_scan(f, lam, tol=tol)
    assert again.values.tobytes() == scan.values.tobytes()
    assert again.errors.tobytes() == scan.errors.tobytes()


def test_cutoff_scan_budget_is_per_segment():
    # a line of half-width 1e-4 at 5.3, not seeded: 16 panels cannot resolve it,
    # and the segments around it must still meet their own targets
    c, a, tol = 5.3, 1e-4, 1e-10
    lam = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    scan = cutoff_scan(lambda x: 1.0 / ((x - c) ** 2 + a * a), lam, tol=tol, max_panels=16)
    assert not scan.converged
    edges = np.concatenate(([0.0], lam))
    exact = np.diff(np.arctan((edges - c) / a)) / a
    seg_values = np.diff(scan.values, prepend=0.0)
    seg_errors = np.diff(scan.errors, prepend=0.0)
    targets = tol * np.maximum(1.0, np.abs(seg_values))
    bad = 3  # [4, 8]
    assert seg_errors[bad] > targets[bad]
    good = np.arange(lam.size) != bad
    assert np.all(seg_errors[good] <= targets[good])
    assert np.all(np.abs(seg_values - exact)[good] <= 2.0 * targets[good])


def test_cutoff_scan_requires_increasing_lambdas():
    with pytest.raises(ValueError):
        cutoff_scan(lambda x: x, [100.0, 10.0], tol=1e-9)


def _exact_scan(lam, cumulative):
    return CutoffScan(lambdas=lam, values=cumulative, errors=np.zeros_like(lam))


@pytest.mark.parametrize("p, expected_kind, expected_exp", [
    (-1.5, "convergent", None),
    (-0.5, "power", 0.5),
    (0.5, "power", 1.5),
    (1.0, "power", 2.0),
    (2.0, "power", 3.0),
])
def test_classify_tail_on_pure_power_laws(p, expected_kind, expected_exp):
    lam = np.geomspace(1e2, 1e5, 10)
    scan = _exact_scan(lam, (lam ** (p + 1) - 1.0) / (p + 1))  # int_1^Lambda x^p
    cls = classify_tail(scan)
    assert cls.kind == expected_kind
    if expected_exp is not None:
        # cumulative integral of x^p grows like Lambda^(p+1)
        assert cls.exponent == pytest.approx(expected_exp, abs=0.05)


def test_classify_tail_logarithmic():
    lam = np.geomspace(1e2, 1e5, 10)
    scan = _exact_scan(lam, np.log(lam))  # int_1^Lambda dx / x
    cls = classify_tail(scan)
    assert cls.kind == "logarithmic"
    assert cls.log_r_squared > 0.999


def test_classify_tail_convergent_by_cauchy():
    lam = np.geomspace(1e2, 1e5, 10)
    scan = _exact_scan(lam, (1.0 - lam**-2) / 2.0)  # int_1^Lambda x^-3
    assert classify_tail(scan).kind == "convergent"


@pytest.mark.parametrize("cumulative, kind, reason", [
    ([0.0] * 6, "convergent", "noise floor"),
    ([1.0, 2.0, 3.0, 2.5, 4.0, 5.0], "ambiguous", "non-positive increments"),
    ([0.0, 0.0, 1.0, 1.5, 2.0, 3.0], "ambiguous", "neither"),
])
def test_classify_tail_fallbacks(cumulative, kind, reason):
    cls = classify_tail(_exact_scan(np.geomspace(1e2, 1e4, 6), np.array(cumulative)))
    assert cls.kind == kind and reason in cls.details["reason"]
    if reason == "neither":  # flat increments, but the logarithmic fit falls short
        assert cls.log_r_squared == pytest.approx(0.98, abs=1e-12)


def test_classify_tail_needs_enough_points():
    scan = cutoff_scan(lambda x: np.asarray(x, dtype=float), [10., 20., 40., 80.],
                       tol=1e-10)
    with pytest.raises(ValueError):
        classify_tail(scan, fit_points=4)


def test_scan_validation():
    with pytest.raises(ValueError):
        CutoffScan(lambdas=np.array([1.0, 2.0]), values=np.array([1.0]),
                   errors=np.array([0.0, 0.0]), evaluations=10,
                   converged=True)
    for lo, hi, n in ((0.0, 1e4, 16), (1e4, 1e2, 16), (1e2, 1e4, 1)):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            geometric_cutoffs(lo, hi, n)
    for lambdas in ([1e2], [[1e2, 1e3]]):
        with pytest.raises(ValueError, match="at least two cutoffs"):
            cutoff_scan(np.cos, lambdas)


def test_fit_line_matches_polyfit_on_seeded_windows():
    # the closed-form centred fit against np.polyfit's least squares: log-log increment
    # windows like classify_tail's, its cumulative-vs-ln(Lambda) branch, and decay windows
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = np.geomspace(10 ** rng.uniform(1, 3), 10 ** rng.uniform(3.5, 6),
                           rng.integers(5, 17))
        for x, y in ((np.log(lam), rng.uniform(-3, 3) * np.log(lam) + rng.normal(size=lam.size)),
                     (np.log(lam), rng.uniform(0.5, 5) * np.log(lam) + rng.uniform(-1e3, 1e3)),
                     (np.linspace(0.0, 3e3, 40), -1e-3 * np.linspace(0.0, 3e3, 40)
                      + 1e-4 * rng.normal(size=40))):
            slope, intercept = fit_line(x, y)
            want = np.polyfit(x, y, 1)
            assert abs(slope - want[0]) <= 1e-12 * abs(want[0])
            assert abs(intercept - want[1]) <= 1e-12 * max(abs(want[1]), abs(want[0] * x).max())


def _polyfit_line(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def test_acceptance_fits_read_the_same_kinds_and_exponents(monkeypatch):
    # ACC-02, ACC-03 and ACC-05 read classify_tail's kind and exponent: the same with np.polyfit
    from movingatom import amplitudes, quadrature, rates, spectra
    from movingatom.coupling import CouplingModel
    from movingatom.units import DimensionlessParams
    from movingatom.wavepacket import PointMass

    def run():
        scenario = spectra.EmissionScenario(DimensionlessParams(0.01, 0.01),
                                            CouplingModel.roentgen(), PointMass(np.zeros(3)))
        report = spectra.divergence_comparison(scenario, np.array([1.0, 0.0, 0.0]))
        table = rates.limit_ordering_demo([1e-2, 1e-3, 1e-4], gamma_tilde=0.01)
        return ([(e.classification.kind, e.classification.exponent,
                  e.classification.log_r_squared) for e in report.entries.values()]
                + [(row.growth_kind, row.growth_exponent, None) for row in table.rows])

    closed = run()
    monkeypatch.setattr(quadrature, "fit_line", _polyfit_line)
    monkeypatch.setattr(amplitudes, "fit_line", _polyfit_line)
    lapack = run()
    assert [kind for kind, *_ in closed] == [kind for kind, *_ in lapack]
    assert [kind for kind, *_ in closed] == ["power", "logarithmic", "power"] + ["power"] * 3
    for (_, p, r2), (_, q, s2) in zip(closed, lapack):
        assert (p is None) == (q is None) and (r2 is None) == (s2 is None)
        assert p is None or abs(p - q) <= 1e-12 * abs(q)
        assert r2 is None or abs(r2 - s2) <= 1e-12


def _mp_gauss_rule(mp, kind: str, n: int, nodes):
    """40-digit nodes and weights of the n-point Gauss-Legendre ("L") or Gauss-Hermite
    ("H") rule, polished by Newton's method from `nodes` on the classical recurrences
    P_{k+1} = ((2k + 1) x P_k - k P_{k-1}) / (k + 1) and H_{k+1} = 2x H_k - 2k H_{k-1}, with
    the textbook weights 2 / ((1 - x^2) P_n'^2) and 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}^2)."""
    def last_two(x):
        low, high = mp.mpf(1), (2 * x if kind == "H" else x)
        for k in range(1, n):
            low, high = high, (2 * x * high - 2 * k * low if kind == "H"
                               else ((2 * k + 1) * x * high - k * low) / (k + 1))
        return high, low  # p_n, p_{n-1}

    def derivative(x, high, low):
        return 2 * n * low if kind == "H" else n * (low - x * high) / (1 - x * x)

    xs, ws = [], []
    for guess in nodes:
        x = mp.mpf(float(guess))
        for _ in range(4):
            high, low = last_two(x)
            x -= high / derivative(x, high, low)
        high, low = last_two(x)
        ws.append(2 ** (n - 1) * mp.factorial(n) * mp.sqrt(mp.pi) / (n * n * low * low)
                  if kind == "H" else 2 / ((1 - x * x) * derivative(x, high, low) ** 2))
        xs.append(x)
    return xs, ws


@pytest.mark.parametrize("kind, order", [("L", 32)] + [("H", n) for n in (2, 4, 8, 16, 32, 40,
                                                                          64, 80)])
def test_gauss_rules_match_40_digit_values(kind, order):
    # the rules were numpy's eigenvalue rules (leggauss, hermgauss): 5.8e-14 in the weights
    mp = pytest.importorskip("mpmath")
    nodes, weights = _legendre() if kind == "L" else _hermite_rule(order)
    assert nodes.shape == weights.shape == (order,) and np.all(np.diff(nodes) > 0)
    with mp.workdps(40):
        xs, ws = _mp_gauss_rule(mp, kind, order, nodes)
        ulps = [abs(float(x - mp.mpf(float(t)))) / np.spacing(abs(t))
                for t, x in zip(nodes, xs) if x != 0]
        assert all(t == 0.0 for t, x in zip(nodes, xs) if x == 0)
        relative = [abs(float(mp.mpf(float(w)) / v - 1)) for w, v in zip(weights, ws)]
    assert max(ulps) <= 4.0 and max(relative) <= 1e-14
    # exact for every monomial up to degree 2n - 1: the moments of 1 on [-1, 1], exp(-t^2)
    for k in range(2 * order):
        terms = weights * nodes ** k
        if k % 2:
            assert abs(terms.sum()) <= 1e-14 * np.abs(terms).sum()
        else:
            exact = 2.0 / (k + 1) if kind == "L" else math.gamma((k + 1) / 2)
            assert terms.sum() == pytest.approx(exact, rel=1e-13)


def test_gauss_rule_that_does_not_converge_raises():
    # Halley's steps from a NaN guess never meet their bound: after the last step the rule
    # raises, where it would return NaN nodes and weights
    b = np.sqrt(np.arange(1, 5) / 2)  # the 4-point Gauss-Hermite recurrence
    with pytest.raises(NumericalError, match="the 4-point Gauss rule did not converge"):
        gauss_rule(b, math.sqrt(math.pi), np.array([np.nan, 0.5]))


def test_gauss_rules_are_built_fast_in_a_fresh_process():
    # best of three fresh processes: the rules' first build, numpy imported
    code = ("import time\n"
            "from movingatom import quadrature, wavepacket\n"
            "t0 = time.perf_counter(); quadrature._legendre(); t1 = time.perf_counter()\n"
            "wavepacket._hermite_rule(64); print(t1 - t0, time.perf_counter() - t1)\n")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout.split() for _ in range(3)]
    legendre, hermite = (min(float(run[i]) for run in runs) for i in (0, 1))
    assert legendre <= 1.5e-3 and hermite <= 2e-3
