"""The Doppler path's numpy formulas, kept as references for the bodies that replaced them.

Each `ref_*` function is the earlier numpy form of a library function: one array
evaluation per product, and no Python floats. The library now computes one
direction's scalars on Python floats and makes fewer numpy calls, in the same order
of arithmetic, so every comparison here asks for equal bits. The unit-vector check is
compared away from its bound, where the order of a norm's sum cannot move the decision;
the covariance's symmetry check decides as np.allclose does, at its bound too.

The oracle's far set-up keeps its earlier form here too, `ref_far`: each box summed every
far source at its Chebyshev points. The tree that replaced it rounds differently, so its
coefficients are compared within a bound fixed from its error budget.
"""

import math
import re

import numpy as np
import pytest

from movingatom import amplitudes, cauchy, coupling, quadrature, spectra, wavepacket
from movingatom.coupling import CouplingModel
from movingatom.geometry import check_unit, direction_from_angles, dot3
from movingatom.quadrature import CutoffScan, NumericalError
from movingatom.units import DimensionlessParams, ParameterError
from movingatom.wavepacket import (GaussianPacket, PointMass, ProjectedDistribution,
                                   TabulatedProjection, project)
from test_amplitudes import POLE_SETS, band_poles
from test_spectra import assert_mixed_orders
from test_wavepacket import each_ladder

E_D = np.array([0.0, 0.0, 1.0])
N_ONE = direction_from_angles(1.1, 0.3, axis=E_D)
N_TABLE = N_ONE
N_STACK = direction_from_angles(np.linspace(0.0, np.pi, 9), 0.7, axis=np.array([0.6, 0.0, 0.8]))
COVARIANCE = np.array([[4e-6, 1e-6, 0.0], [1e-6, 3e-6, -5e-7], [0.0, -5e-7, 2e-6]])
MEAN = np.array([1e-3, -2e-3, 5e-4])
PACKETS = {
    "point": PointMass(MEAN),
    "isotropic": GaussianPacket.isotropic(MEAN, 1e-3),
    "along_direction": GaussianPacket.along_direction(MEAN, 1e-3, [0.6, 0.0, 0.8]),
    "full": GaussianPacket(MEAN, COVARIANCE),
    "table": TabulatedProjection(delta=np.array([-2e-3, 0.0, 1e-3, 3e-3]),
                                 weights=np.array([0.1, 0.4, 0.3, 0.2]), direction=N_TABLE),
}
MODELS = (CouplingModel.roentgen(), CouplingModel.standard(),
          CouplingModel(kind="roentgen", include_recoil_term=False))


def ref_check_unit(v, name="vector", *, stacked=False):
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,) and not (stacked and arr.shape[-1:] == (3,)):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    deviation = (abs(float(np.linalg.norm(arr)) - 1.0) if arr.ndim == 1
                 else np.abs(np.linalg.norm(arr, axis=-1) - 1.0).max())
    if not deviation <= 1e-12:
        raise ValueError(f"{name} is not a unit vector (|{name}| - 1 exceeds 1e-12)")
    return arr


def ref_hermite_nodes(mean, sigma, order):
    t, w = wavepacket._hermite_rule(order)
    mean, sigma = np.asarray(mean), np.asarray(sigma)
    return mean[..., None] + np.sqrt(2.0) * sigma[..., None] * t, w / np.sqrt(np.pi)


def ref_project(dist, n, order):
    n = ref_check_unit(n, "n", stacked=True)
    batch = n.shape[:-1]
    if isinstance(dist, TabulatedProjection):
        if not np.allclose(dist.direction, n, atol=1e-12, rtol=0.0):
            raise ParameterError("a tabulated distribution gives delta = n.beta only along "
                                 "its own direction")
        mean = wavepacket.weighted_sum(dist.weights, dist.delta)
        var = wavepacket.weighted_sum(dist.weights, (dist.delta - mean) ** 2)
        zeros = np.zeros(batch + (3,))
        return dict(kind="tabulated", mean=np.full(batch, mean)[()],
                    sigma=np.full(batch, np.sqrt(max(var, 0.0)))[()],
                    nodes=np.broadcast_to(dist.delta, batch + dist.delta.shape),
                    weights=dist.weights, perp_mean=zeros, perp_gain=zeros,
                    perp_var=np.zeros(batch)[()])
    if isinstance(dist, PointMass):
        center, cov = dist.beta, np.zeros((3, 3))
    else:
        center, cov = dist.mean, dist.covariance
    mean = dot3(n, center)
    sn = n @ cov
    var = np.maximum(dot3(n, sn), 0.0)
    live = var > np.finfo(float).eps * np.trace(cov)
    gain = np.where(live[..., None], sn / np.where(live, var, 1.0)[..., None], 0.0)
    moments = dict(mean=mean, perp_mean=center - mean[..., None] * n,
                   perp_gain=gain - dot3(n, gain)[..., None] * n,
                   perp_var=np.maximum(np.trace(cov) - dot3(sn, gain), 0.0))
    if not np.any(live):
        return dict(kind="point", sigma=np.zeros(batch)[()], nodes=mean[..., None],
                    weights=np.ones(1), **moments)
    sigma = np.where(live, np.sqrt(var), 0.0)
    nodes, weights = ref_hermite_nodes(mean, sigma, order)
    return dict(kind="gaussian", sigma=sigma, nodes=nodes, weights=weights, **moments)


def ref_polarization_geometry(n, e_d, proj):
    c = n @ e_d
    e_perp = e_d - c[..., None] * n
    m, k = proj.perp_mean, proj.perp_gain
    row = (Ellipsis, None) if c.ndim else ()
    return tuple(v[row] for v in (c, dot3(e_perp, e_perp), dot3(e_perp, m), dot3(e_perp, k),
                                  dot3(m, m) + proj.perp_var, dot3(m, k), dot3(k, k)))


def ref_conditional_polarization_sum(model, x, n, e_d, epsilon, proj):
    c, a, b0, b1, c0, c1, c2 = ref_polarization_geometry(n, e_d, proj)
    x = 1.0 * np.asarray(x)
    if model.kind == "standard_dipole":
        return np.full_like(x, a), np.zeros_like(x), np.zeros_like(x)
    row = (Ellipsis, None) if np.ndim(proj.mean) else ()
    b = coupling.bracket(model, np.asarray(proj.mean)[row], x, epsilon)
    q0 = np.multiply(b, a * b + 2.0 * c * b0) + c * c * c0
    q1 = 2.0 * (c * (b * b1 - b0) - a * b + c * c * c1)
    q2 = np.full_like(x, a - 2.0 * c * b1 + c * c * c2)
    return q0, q1, q2


def ref_faddeeva_916(x, y):
    y2 = y * y
    g = (np.exp(y2) * np.array([math.erfc(v) for v in y.tolist()])
         - spectra._ZA_C * y * (spectra._ZA_EXP / (spectra._ZA_AN2 + y2[:, None])).sum(axis=1))
    an = (spectra._ZA_A * np.floor(x / spectra._ZA_A + 0.5))[:, None] + spectra._ZA_WINDOW
    d = an - x[:, None]
    terms = np.exp(d * -d) / (an * an + y2[:, None])
    terms[an == 0.0] = 0.0
    em = np.expm1(-2j * (x * y))
    return (np.exp(x * -x) * (g * (1.0 + em) - em * (0.5 * spectra._ZA_C / y))
            + 0.5 * spectra._ZA_C * (y * terms.sum(axis=1) + 1j * (an * terms).sum(axis=1)))


def ref_faddeeva(z):
    shape, z = np.shape(z), np.ravel(np.asarray(z, dtype=complex))
    fraction = (z.imag > 7.0) | (np.abs(z.real) > 28.0)
    w = np.empty_like(z)
    zf = z[fraction]
    depth = np.floor(3.9 + 11.398 / (0.08254 * np.abs(zf.real) + 0.1421 * zf.imag + 0.2023))
    v = zf
    for k in range(int(depth.max(initial=0)) - 1, 0, -1):
        v = zf - np.where(k < depth, 0.5 * k, 0.0) / v
    w[fraction] = 1j / (math.sqrt(math.pi) * v)
    strip = ~fraction
    w[strip] = ref_faddeeva_916(z.real[strip], z.imag[strip])
    return w.reshape(shape)


def ref_doppler_w(scenario, n, proj, x_values):
    params, eps = scenario.params, scenario.params.epsilon
    x = np.asarray(x_values, dtype=float)
    q0, q1, q2 = ref_conditional_polarization_sum(scenario.coupling, x, n, scenario.dipole_axis,
                                                  eps, proj)
    w, wing = np.empty_like(x), np.ones(x.shape, dtype=bool)
    if proj.kind == "gaussian":
        r = math.sqrt(2.0) * proj.sigma
        near = np.flatnonzero(x > 0.0)
        xn = x[near]
        u0 = -amplitudes.detuning(xn, proj.mean, eps) / xn
        h = 0.5 * params.gamma_tilde / xn
        zeta = (u0 + 1j * h) / r
        keep = np.abs(zeta) <= spectra._FAR_WING
        near, xn, u0, h, zeta = near[keep], xn[keep], u0[keep], h[keep], zeta[keep]
        a0, a1, a2 = q0[near], q1[near], q2[near]
        fad = ref_faddeeva(zeta)
        w[near] = xn * (a2 + math.sqrt(math.pi) * (
            (a0 + u0 * (a1 + u0 * a2) - a2 * h * h) * fad.real / (h * r)
            - (a1 + 2.0 * a2 * u0) * fad.imag / r))
        wing[near] = False
    if wing.any():
        u, xw = (proj.nodes - proj.mean)[:, None], x[wing]
        w[wing] = proj.weights @ (xw**3 * (q0[wing] + u * (q1[wing] + u * q2[wing]))
                                  / amplitudes.lorentzian_denominator(xw, proj.nodes[:, None],
                                                                      params))
    return w


def ref_fit_line(x, y):
    dx, dy = x - np.mean(x), y - np.mean(y)
    slope = float(dx @ dy / (dx @ dx))
    return slope, float(np.mean(y) - slope * np.mean(x))


def ref_classify_tail(scan, fit_points=5):
    lam, cum = scan.lambdas[-fit_points:], scan.values[-fit_points:]
    inc = np.diff(cum)
    scale = abs(scan.values[-1])
    if scale == 0.0 or np.all(np.abs(inc) <= 1e-9 * max(scale, 1e-300)):
        return "convergent", None, None, None
    if np.any(inc <= 0.0):
        return "ambiguous", None, None, None
    log_l, log_i = np.log(lam[1:]), np.log(inc)
    slope, intercept = ref_fit_line(log_l, log_i)
    resid = float(np.sqrt(np.mean((log_i - (slope * log_l + intercept)) ** 2)))
    if slope <= -0.1:
        return "convergent", slope, resid, None
    if slope >= 0.1:
        return ("power" if resid <= 0.1 else "ambiguous"), slope, resid, None
    ll = np.log(lam)
    log_slope, log_intercept = ref_fit_line(ll, cum)
    ss_res = float(np.sum((cum - (log_slope * ll + log_intercept)) ** 2))
    ss_tot = float(np.sum((cum - np.mean(cum)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return ("logarithmic" if r2 >= 0.999 else "ambiguous"), None if r2 >= 0.999 else slope, \
        resid, r2


def ref_levels(f, a, b, tol, max_panels):
    nodes, weights = quadrature._legendre()
    panels, value, error, evaluations, converged = 1, 0.0, 0.0, 0, np.False_
    while True:
        h = np.full(panels, (b - a) / panels)
        starts, out = a + h * np.arange(panels), []
        for lo in range(0, panels, quadrature._TILE):
            half = 0.5 * h[lo:lo + quadrature._TILE, None]
            xs = (starts[lo:lo + quadrature._TILE, None] + half * (1.0 + nodes)).ravel()
            y = np.asarray(f(xs), dtype=float)
            out.append(half[:, 0] * (y.reshape(y.shape[:-1] + (-1, 32)) @ weights))
        new = np.concatenate(out, axis=-1).cumsum(axis=-1)[..., -1]
        value, error = np.where(converged, value, new), np.where(converged, error, abs(new - value))
        evaluations = np.where(converged, evaluations, 32 * (2 * panels - 1))
        converged = converged | (error <= tol * np.maximum(1.0, np.abs(value))) & (panels > 1)
        if converged.all() or 2 * panels > max_panels:
            return value, error, evaluations, converged
        panels *= 2


def ref_delta_average(proj, evaluate, tol):
    if proj.kind != "gaussian":
        v, e, c, ok = evaluate(proj, [(proj.weights, slice(None))])
        return v[0], e[0], proj.weights.size * c[0], ok[0], np.full(c[0].shape, proj.weights.size)
    ladder, done = wavepacket.HERMITE_LADDER, None
    for rule_orders in [ladder[:2], *([order] for order in ladder[2:])]:
        built = [ref_hermite_nodes(proj.mean, proj.sigma, k) for k in rule_orders]
        blocks = (slice(rule_orders[0]), slice(rule_orders[0], None))
        rows = ProjectedDistribution(**{**vars(proj),
                                        "nodes": np.concatenate([t for t, _ in built], axis=-1)})
        v, e, c, ok = evaluate(rows, [(w, block) for (_, w), block in zip(built, blocks)])
        if done is None:
            value, error, evaluations, rest_ok, orders = v[0], e[0], 0 * c[0], ok[0], 0 * c[0]
            done = converged = np.zeros(ok.shape[1:], dtype=bool)
        gap = np.abs(v[-1] - value)
        met = np.all(gap <= tol * np.maximum(1.0, np.abs(v[-1])), axis=-1)
        value = np.where(done[..., None], value, v[-1])
        error = np.where(done[..., None], error, e[-1] + gap)
        evaluations = evaluations + np.where(done, 0, sum(k * ck for k, ck in zip(rule_orders, c)))
        converged = np.where(done, converged, met & ok[-1] & rest_ok)
        orders = np.where(done, orders, rule_orders[-1])
        rest_ok, done = ok[-1], done | met
        if done.all():
            break
    return value, error, evaluations, converged, orders


def same(got, want):
    """Equal shapes and equal bits, -0.0 and 0.0 included (NaN as NaN)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.astype(got.dtype).tobytes()


def directions(packet):
    if packet == "table":
        return [N_TABLE, np.broadcast_to(N_TABLE, (4, 3)).copy()]
    return [N_ONE, N_STACK, N_STACK.reshape(3, 3, 3)]


@pytest.mark.parametrize("packet", sorted(PACKETS))
def test_project_is_the_numpy_formula_bit_for_bit(packet):
    for n in directions(packet):
        for order in (8, 40):
            got, want = project(PACKETS[packet], n, order=order), ref_project(PACKETS[packet], n, order)
            assert got.kind == want["kind"]
            for name, value in want.items():
                if name != "kind":
                    assert same(getattr(got, name), value), (packet, n.shape, name)
            if n.ndim == 1 and packet != "table":  # one direction's scalars are Python floats
                assert all(type(getattr(got, name)) in (float, np.float64)
                           for name in ("mean", "sigma", "perp_var"))


@pytest.mark.parametrize("nx", [1e-16, 0.0])
def test_rounding_level_spread_projects_as_the_numpy_formula(nx):
    dist = GaussianPacket.along_direction(np.zeros(3), 1e-3, [1.0, 0.0, 0.0])
    n = np.array([nx, 0.0, 1.0]) / np.hypot(nx, 1.0)
    stack = np.array([n, [1.0, 0.0, 0.0]])  # one row at the point law, one Gaussian
    for rows in (n, stack):
        got, want = project(dist, rows, order=8), ref_project(dist, rows, 8)
        assert got.kind == want["kind"]
        assert all(same(getattr(got, name), want[name]) for name in want if name != "kind")


@pytest.mark.parametrize("packet", sorted(PACKETS))
def test_polarization_algebra_is_the_numpy_formula_bit_for_bit(packet):
    x = np.array([0.3, 0.99, 1.0, 40.0])
    for n in directions(packet):
        proj = project(PACKETS[packet], n, order=8)
        want = ref_polarization_geometry(n, E_D, proj)
        got = coupling.polarization_geometry(n, E_D, proj)
        assert all(same(g, w) for g, w in zip(got, want))
        xs = np.broadcast_to(x, n.shape[:-1] + x.shape) if n.ndim > 1 else x
        for model in MODELS:
            for points in (xs, xs + 0.01j):  # real frequencies and complex poles
                got = coupling.conditional_polarization_sum(model, points, n, E_D, 0.01, proj)
                want = ref_conditional_polarization_sum(model, points, n, E_D, 0.01, proj)
                assert all(same(g, w) for g, w in zip(got, want)), (packet, model.label)


def test_faddeeva_is_the_numpy_formula_bit_for_bit():
    rng = np.random.default_rng(40)
    z = np.concatenate([rng.uniform(-30.0, 30.0, 400) + 1j * 10.0 ** rng.uniform(-14, 1.5, 400),
                        [1e-3 + 1e-14j, 27.9 + 6.9j, 28.1 + 0.5j, 0.0 + 7.1j]])
    for points in (z, z[:3], z[:1], z.reshape(4, -1)):
        assert same(spectra.faddeeva(points), ref_faddeeva(points))


@pytest.mark.parametrize("packet", sorted(PACKETS))
def test_doppler_spectrum_is_the_numpy_formula_bit_for_bit(packet):
    # the closed form at every point at once, the wing (x = 0, a tiny x, |zeta| > 20)
    # replaced by its node sums, as the formula on the near points alone gave it
    grids = (np.linspace(0.97, 1.01, 41), np.array([0.0, 1e-200, 0.5, 0.99, 1.0, 1.5]),
             np.array([0.999]))
    for model in MODELS:
        scenario = spectra.EmissionScenario(DimensionlessParams(0.01, 1e-3), model,
                                            PACKETS[packet], E_D)
        proj = project(PACKETS[packet], N_ONE, order=40)  # `directional_spectrum`'s order
        for x in grids:
            assert same(spectra._doppler_w(scenario, N_ONE, proj, x),
                        ref_doppler_w(scenario, N_ONE, proj, x)), (model.label, x)


def _scan(cumulative):
    lam = np.geomspace(1e2, 1e4, len(cumulative))
    return CutoffScan(lambdas=lam, values=np.asarray(cumulative, dtype=float),
                      errors=np.zeros(len(cumulative)))


SCANS = {
    "power": [3.0 * l ** 2 + 5.0 * l for l in np.geomspace(1e2, 1e4, 16)],
    "logarithmic": [2.0 * math.log(l) + 1.0 for l in np.geomspace(1e2, 1e4, 16)],
    "convergent_power": [1.0 - 1.0 / l for l in np.geomspace(1e2, 1e4, 16)],
    "cauchy": [1.0] * 16,
    "noisy": [1.0, 2.0, 2.5, 3.5, 3.6, 5.0, 5.05, 7.0, 7.01, 9.0, 9.02, 11.0, 11.03, 14.0,
              14.05, 18.0],
    "decreasing": list(np.linspace(5.0, 1.0, 16)),
}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_classify_tail_is_the_numpy_formula_bit_for_bit(name):
    scan = _scan(SCANS[name])
    for points in (5, 8, 16):
        got = quadrature.classify_tail(scan, fit_points=points)
        kind, exponent, resid, r2 = ref_classify_tail(scan, points)
        assert (got.kind, got.exponent, got.fit_residual, got.log_r_squared) == \
            (kind, exponent, resid, r2)


def test_fit_line_is_the_numpy_formula_bit_for_bit():
    rng = np.random.default_rng(41)
    for size in (4, 5, 16):
        x, y = np.log(np.geomspace(1e2, 1e4, size)), rng.normal(size=size) * 1e3
        assert quadrature.fit_line(x, y) == ref_fit_line(x, y)


@pytest.mark.parametrize("values", [[1.0, 0.0, 0.0], [0.6, 0.0, 0.8],
                                    [[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]]])
@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-11, math.nan])
def test_check_unit_decides_as_the_numpy_norm(values, scale):
    v = np.asarray(values) * scale
    stacked = v.ndim > 1
    try:
        want = ref_check_unit(v, "n", stacked=stacked)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            check_unit(v, "n", stacked=stacked)
    else:
        assert same(check_unit(v, "n", stacked=stacked), want)


def _rates():
    """An evaluate callback of `delta_average` in the form of the golden rule's: the rate
    at each node, its weighted sum per rule, and a line near the nodes that makes some
    columns climb past the ladder's second rung; each rule's own convergence flag and work
    per node vary from column to column."""
    def evaluate(rows, rules):
        values = 1.0 / ((rows.nodes - 0.01) ** 2 + 4e-6)
        sums = np.array([values[..., block] @ w for w, block in rules])[..., None]
        rule = np.arange(1, len(rules) + 1).reshape((-1,) + (1,) * (sums.ndim - 2))
        return (sums, 1e-3 * sums, 1 + (rule * sums[..., 0] > 1.5e4),
                np.sin(rule * sums[..., 0]) > -0.7)
    return evaluate


@pytest.mark.parametrize("packet", sorted(PACKETS))
def test_delta_average_is_the_numpy_ladder_bit_for_bit(packet, monkeypatch):
    for ladder in each_ladder(monkeypatch):
        for n in directions(packet):
            proj = project(PACKETS[packet], n)
            for tol in (1e-3, 1e-9, 1e-14):  # columns keep the second rung, climb, or stay open
                got = wavepacket.delta_average(proj, _rates(), tol)
                want = ref_delta_average(proj, _rates(), tol)
                assert all(same(g, w) for g, w in zip(got, want)), (ladder, packet, n.shape, tol)


def test_ladder_reaches_every_order_in_one_stack():
    proj = project(GaussianPacket.isotropic([0.01, 0.0, 0.0], 1e-3), N_STACK)
    assert_mixed_orders(wavepacket.delta_average(proj, _rates(), 1e-9)[-1])


@pytest.mark.parametrize("f, a, b, tol", [
    (lambda x: np.cos(x), 0.0, 2.0, 1e-12),
    (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0, 1e-10),
    (lambda x: np.stack([np.exp(-x), 1.0 / ((x - 0.5) ** 2 + 1e-6), np.ones_like(x)]), 0.0, 1.0,
     1e-9),
])
@pytest.mark.parametrize("max_panels", [1, 2, 64, 4096])
def test_levels_are_the_numpy_levels_bit_for_bit(f, a, b, tol, max_panels):
    got, want = quadrature._levels(f, a, b, tol, max_panels), ref_levels(f, a, b, tol, max_panels)
    for g, w in zip(got, want):
        assert same(g, np.broadcast_to(w, np.shape(g)))


def test_roots_are_the_numpy_formula_bit_for_bit():
    def ref_roots(b, eps, c):
        root = np.sqrt(b * b - 4.0 * eps * c)
        q = -0.5 * (b + np.where(b >= 0.0, root, -root))
        return np.where(b >= 0.0, c / q, q / eps), np.where(b >= 0.0, q / eps, c / q)

    b = 1.0 - np.array([-0.3, 0.0, 0.2, 0.999, 1.0, 1.5])
    for eps in (1e-8, 0.01, 0.5):
        for c in (-1.0, 0.5j * 1e-3 - 1.0):
            assert all(same(g, w) for g, w in zip(amplitudes._quadratic_roots(b, eps, c),
                                                  ref_roots(b, eps, c)))
        for delta in (0.0, -0.3, 0.2):  # a float takes Python floats
            want = ref_roots(np.asarray(1.0 - delta), eps, -1.0)[0]
            assert amplitudes.resonance_root(delta, eps) == want


def test_arguments_checks_of_the_rewritten_bodies_still_raise():
    with pytest.raises(TypeError, match="unknown distribution type dict"):
        project({}, N_ONE)
    with pytest.raises(ParameterError, match="only along its own direction"):
        project(PACKETS["table"], np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="projected weights must sum to 1"):
        ProjectedDistribution("point", 0.0, 0.0, np.zeros(1), np.array([0.5]), np.zeros(3),
                              np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="quadrature order must be >= 1"):
        wavepacket._hermite_rule(0)
    with pytest.raises(ValueError, match="must be vectorized"):
        quadrature._levels(lambda x: np.ones(3), 0.0, 1.0, 1e-9, 16)
    with pytest.raises(NumericalError, match="non-finite value near x"):
        quadrature._levels(lambda x: np.sqrt(x - 0.5), 0.0, 1.0, 1e-9, 16)
    with pytest.raises(ValueError, match="tol must be positive"):
        quadrature._levels(np.cos, 0.0, 1.0, 0.0, 16)
    with pytest.raises(ValueError, match="at least two cutoffs"):
        CutoffScan(lambdas=[1.0], values=[1.0], errors=[0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        CutoffScan(lambdas=[1.0, 1.0], values=[1.0, 2.0], errors=[0.0, 0.0])
    with pytest.raises(ValueError, match="scan has 4 points; classification needs at least 5"):
        quadrature.classify_tail(_scan([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ParameterError, match="no emission line for delta >= 1"):
        amplitudes._quadratic_roots(np.array([0.5, -0.1]), 0.0, -1.0)
    with pytest.raises(ParameterError, match="no positive emission frequency"):
        amplitudes.resonance_root(math.nan, 0.01)
    with pytest.raises(ParameterError, match="epsilon must be >= 0"):
        amplitudes.resonance_root(0.1, -1e-3)
    scenario = spectra.EmissionScenario(DimensionlessParams(0.01, 0.01), MODELS[0],
                                        PACKETS["isotropic"], E_D)
    for grid, match in (([], "nonempty 1D"), ([[1.0]], "nonempty 1D"),
                        ([1.0, 1.0], "strictly increasing"), ([-1.0, 1.0], "non-negative")):
        with pytest.raises(ValueError, match=match):
            spectra.directional_spectrum(scenario, N_ONE, grid)


def _symmetric_pair(offset):
    cov = 1e-6 * np.eye(3)
    cov[0, 1] = cov[1, 0] = 2e-7
    cov[1, 0] += offset
    return cov


@pytest.mark.parametrize("transpose", [False, True])
def test_covariance_symmetry_decides_as_allclose_on_both_sides_of_its_bound(transpose):
    # np.allclose(cov, cov.T, atol=1e-14, rtol=1e-10) accepts |a - b| <= 1e-14 + 1e-10 |b| in
    # both orders; the bound at b = 2e-7 is 3.4e-14, and the pair is tried either way round
    bound = 1e-14 + 1e-10 * 2e-7
    for factor in (0.0, 0.5, 0.999, 1.001, 2.0, 1e3):
        cov = _symmetric_pair(factor * bound)
        cov = cov.T.copy() if transpose else cov
        expected = bool(np.allclose(cov, cov.T, atol=1e-14, rtol=1e-10))
        assert expected == (factor < 1.0)
        try:
            GaussianPacket(np.zeros(3), cov)
            accepted = True
        except ValueError as exc:
            accepted = False
            assert str(exc) == "covariance must be symmetric"
        assert accepted == expected, factor
    for pair in ((0, 2), (1, 2)):  # the other two off-diagonal pairs
        cov = 1e-6 * np.eye(3)
        cov[pair] = 1.01 * 1e-14
        assert not np.allclose(cov, cov.T, atol=1e-14, rtol=1e-10)
        with pytest.raises(ValueError, match="symmetric"):
            GaussianPacket(np.zeros(3), cov.T if transpose else cov)


def ref_far(sums, kernel):
    """The dense far set-up: Chebyshev coefficients (box, coefficient, column) of each box's
    far sums, every far source summed at the box's points x as kernel(s - x, l, r): the
    differences to the l sources left of the box, then to those from r on."""
    points = cauchy.chebyshev_points()[:, None]
    coef = []
    for b, (l, r) in enumerate(sums.near):
        far = np.concatenate(((sums.base[:l] - sums.centre[b]) + sums.offset[:l],
                              (sums.base[r:] - sums.centre[b]) + sums.offset[r:]))
        x = sums.half[b] * points
        coef.append(cauchy.chebyshev_fit(np.vstack([kernel(far - x[i:i + 4], l, r)
                                                    for i in range(0, x.size, 4)])))
    return np.array(coef)


def ref_kernels(sums, left, right):
    """The far sums' kernels of `sums` and of its log sums (`CauchySums.far_logs`, with the
    numerators `left` and `right`), for `ref_far`: each gives its sums, then, in as many
    more columns, the sums of the terms' magnitudes."""
    q = sums.weights

    def cauchy_sums(diff, l, r):
        inv = 1.0 / diff
        sides = [inv[:, :l] @ q[:l], inv[:, l:] @ q[r:]]
        size = np.abs(inv) @ np.abs(np.concatenate((q[:l], q[r:])))
        if not sums.derivative:
            return np.hstack((sides[0] + sides[1], size))
        square = (inv[:, :l] ** 2) @ q[:l] + (inv[:, l:] ** 2) @ q[r:]  # q > 0: its own size
        return np.hstack((sides[0] + sides[1], sides[1] - sides[0], square, size, size, square))

    def logs(diff, l, r):
        terms = np.log1p(-np.concatenate((left[:l], right[r:])) / diff)
        return np.column_stack((terms.sum(axis=1), np.abs(terms).sum(axis=1)))

    return cauchy_sums, logs


def _far_cases(d, z):
    """(name, sums, tree coefficients, kernels) of the root search's sums, its log sums and
    the mode sums of the poles d with weights z, as the oracle sets them up."""
    sigma, nu, fp, sums, _ = amplitudes._secular_roots(d, z)
    _, w = amplitudes._lowner(sums, sigma, nu, fp)
    mu = sigma + nu
    last = np.column_stack((w * np.cos(mu * 1.4e4), -w * np.sin(mu * 1.4e4)))
    left, right = (d - sigma[:-1]) - nu[:-1], (d - sigma[1:]) - nu[1:]
    modes = cauchy.CauchySums(d, sigma, nu, last)
    roots, logs = ref_kernels(sums, left, right)
    return [("roots", sums, sums.coef, roots), ("logs", sums, sums.far_logs(left, right), logs),
            ("modes", modes, modes.coef, ref_kernels(modes, None, None)[0])]


FAR_SETS = {**POLE_SETS,
            "band_16001": lambda: band_poles(16001, 0.05 * 16001 / 2001, 1e-3),
            # cubic grading: boxes 100 times narrower at 0 than at the ends, 8 tree levels
            "graded_8000": lambda: (0.05 * np.linspace(-1.0, 1.0, 8000) ** 3,
                                    np.random.default_rng(8).uniform(0.5, 1.5, 8000) * 1e-8)}


@pytest.mark.parametrize("name", FAR_SETS)
def test_far_tree_matches_the_dense_far_set_up(name):
    # Fixed before the comparison: each coefficient within 32 eps of the box's magnitude
    # sum (the far terms' |values| summed, at the point where it is largest). The budget:
    # every source is summed once, on one level, and each level's share is fitted and
    # evaluated once (a Lebesgue constant of about 3, some 3 eps of |share|, and the shares'
    # magnitudes add up to the box's); the leaves' fit adds 2 eps and the dense fit as many.
    d, z = FAR_SETS[name]()
    for case, sums, coef, kernel in _far_cases(d, z):
        assert len(sums._tree) >= (3 if d.size >= 8000 else 1), (name, case)
        ref, scale = np.split(ref_far(sums, kernel), 2, axis=2)
        scale = np.abs(cauchy.chebyshev(cauchy.chebyshev_points()) @ scale).max(axis=1)
        err = np.abs(coef - ref).max(axis=1)  # a box with every source near has 0 and 0
        assert np.all(err <= 32 * np.finfo(float).eps * scale), (name, case)
