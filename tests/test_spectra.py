import dataclasses
import importlib
import json
import math
import pkgutil
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfinv as erfinv_
from scipy.special import voigt_profile, wofz

import movingatom
from movingatom import amplitudes, quadrature, rates, spectra, wavepacket
from movingatom.amplitudes import perpendicular_kernel, resonance_root, spectral_kernel
from movingatom.coupling import CouplingModel, conditional_polarization_sum, polarization_sum
from movingatom.geometry import direction_from_angles
from movingatom.quadrature import NumericalError
from movingatom.rates import golden_rule_mean_rate, golden_rule_rates, sphere_pattern_value
from movingatom.spectra import (EmissionScenario, Formfactor, PhysicsRejection,
                                angular_pattern, directional_probability,
                                directional_spectrum, divergence_comparison, faddeeva)
from movingatom.units import DimensionlessParams, ParameterError
from movingatom.wavepacket import (GaussianPacket, PointMass, TabulatedProjection, expectation,
                                   project)
from test_wavepacket import each_ladder

N_PERP = np.array([1.0, 0.0, 0.0])
N_45 = direction_from_angles(math.pi / 4, 0.0, axis=np.array([0.0, 0.0, 1.0]))
E_D = np.array([0.0, 0.0, 1.0])
NO_RECOIL_TERM = CouplingModel(kind="roentgen", include_recoil_term=False)


def make_scenario(eps=0.01, gt=0.01, dist=None, model=None):
    return EmissionScenario(
        params=DimensionlessParams(epsilon=eps, gamma_tilde=gt),
        coupling=model or CouplingModel.roentgen(),
        distribution=dist if dist is not None else PointMass(np.zeros(3)),
        dipole_axis=E_D,
    )


# ---------------------------------------------------------------------------
# formfactor
# ---------------------------------------------------------------------------

def test_formfactor_shapes():
    x = np.array([0.0, 1.0, 10.0, 20.0])
    assert np.array_equal(Formfactor.none()(x), np.ones(4))
    sharp = Formfactor(kind="sharp", cutoff=10.0)
    assert np.array_equal(sharp(x), [1.0, 1.0, 1.0, 0.0])
    gauss = Formfactor(kind="gaussian", cutoff=10.0)
    assert gauss(np.array([10.0]))[0] == pytest.approx(np.exp(-1.0), rel=1e-15)
    expf = Formfactor(kind="exponential", cutoff=10.0)
    assert expf(np.array([10.0]))[0] == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_formfactor_validation():
    with pytest.raises(ValueError):
        Formfactor(kind="lorentz", cutoff=10.0)
    with pytest.raises(ValueError):
        Formfactor(kind="gaussian")
    with pytest.raises(ValueError):
        Formfactor(kind="sharp", cutoff=-1.0)


def test_no_formfactor_has_no_upper_limit():
    with pytest.raises(PhysicsRejection):
        Formfactor.none().suggested_upper_limit()
    assert Formfactor(kind="sharp", cutoff=25.0).suggested_upper_limit() == 25.0


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_projected_and_full3d_agree_for_point_mass():
    sc = make_scenario(dist=PointMass(np.array([0.02, 0.015, 0.0])))
    x = np.linspace(0.9, 1.15, 41)
    fast = directional_spectrum(sc, N_PERP, x)
    slow = directional_spectrum(sc, N_PERP, x, method="full3d")
    assert np.max(np.abs(fast.w - slow.w) / np.abs(slow.w)) < 1e-8
    assert fast.metadata["method"] == "exact"
    assert slow.metadata["method"] == "full3d"


def test_auto_method_selection():
    sc = make_scenario()
    x = np.linspace(0.95, 1.05, 11)
    res = directional_spectrum(sc, N_PERP, x)
    assert res.metadata["method"] == "exact"
    tilted = np.array([0.6, 0.0, 0.8])
    res2 = directional_spectrum(sc, tilted, x)
    assert res2.metadata["method"] == "exact"
    with pytest.raises(ValueError):
        directional_spectrum(sc, tilted, x, method="projected")


def test_grid_validation():
    sc = make_scenario()
    with pytest.raises(ValueError):
        directional_spectrum(sc, N_PERP, np.array([1.0, 0.9]))
    with pytest.raises(ValueError):
        directional_spectrum(sc, N_PERP, np.array([-0.1, 1.0]))
    for lambdas in ([], [1e2, math.nan], [-1e2, 1e3]):
        with pytest.raises(ValueError, match="cutoffs must be finite and positive"):
            divergence_comparison(sc, N_PERP, lambdas=lambdas)
    for theta in ([], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="nonempty 1D"):
            angular_pattern(sc, theta)


def test_doppler_peak_shift():
    # moving toward the detector: peak at the root of the detuning, x > 1
    delta = 0.05
    sc = make_scenario(dist=PointMass(delta * N_PERP))
    x_star = float(resonance_root(delta, sc.params.epsilon))
    x = np.linspace(x_star - 0.02, x_star + 0.02, 801)
    res = directional_spectrum(sc, N_PERP, x)
    peak = x[np.argmax(res.w)]
    assert peak == pytest.approx(x_star, abs=2 * (x[1] - x[0]))
    assert x_star > 1.0


def test_missing_resonance_warning():
    sc = make_scenario()
    res = directional_spectrum(sc, N_PERP, np.linspace(2.0, 3.0, 11))
    assert any("resonance" in w for w in res.metadata["warnings"])
    res_ok = directional_spectrum(sc, N_PERP, np.linspace(0.9, 1.1, 11))
    assert res_ok.metadata["warnings"] == []


def test_tabulated_spectrum_is_weighted_mixture():
    deltas = np.array([-0.02, 0.0, 0.03])
    weights = np.array([0.2, 0.5, 0.3])
    tab = TabulatedProjection(delta=deltas, weights=weights, direction=N_PERP)
    sc = make_scenario(dist=tab)
    x = np.linspace(0.9, 1.1, 21)
    mixed = directional_spectrum(sc, N_PERP, x)
    parts = [directional_spectrum(make_scenario(dist=PointMass(d * N_PERP)), N_PERP, x).w
             for d in deltas]
    expected = weights[0] * parts[0] + weights[1] * parts[1] + weights[2] * parts[2]
    assert np.allclose(mixed.w, expected, rtol=1e-12)
    slow = directional_spectrum(sc, N_PERP, x, method="full3d")  # the table's velocity nodes
    assert np.max(np.abs(mixed.w - slow.w) / np.abs(slow.w)) < 1e-8


def test_gaussian_doppler_average_converges():
    dist = GaussianPacket.along_direction(np.zeros(3), 2e-3, N_PERP)
    sc = make_scenario(eps=0.0, gt=1e-4, dist=dist)
    x = np.array([0.995, 1.0, 1.005])
    res = directional_spectrum(sc, N_PERP, x)
    assert np.all(res.w > 0)
    assert np.all(res.error < 1e-6 * res.w)
    # Doppler-dominated: width ~ sigma, so the off-peak points sit well below
    assert res.w[1] > 5 * res.w[0]


def quad_reference_w(model, dist, n, eps, gt, x_values):
    """w(x) for a Gaussian packet by adaptive quad over delta = n.beta.

    Independent of the package's Doppler path: given delta, beta is Gaussian
    with mean m + (delta - mu) S n / s^2, and the transverse average of the
    quadratic sum G^2 is taken with a symmetric six-point rule (exact for
    quadratics) over the explicit two-polarization sum.
    """
    mu, cov = float(n @ dist.mean), dist.covariance
    s2 = max(float(n @ cov @ n), 0.0)
    gain = cov @ n / s2 if s2 > 0 else np.zeros(3)
    evals, evecs = np.linalg.eigh(cov - s2 * np.outer(gain, gain))
    spread = [sign * math.sqrt(3.0 * max(ev, 0.0)) * evecs[:, i]
              for i, ev in enumerate(evals) for sign in (1.0, -1.0)]

    def point_w(x, delta):
        betas = dist.mean + (delta - mu) * gain + np.array(spread)
        gsq = np.mean(polarization_sum(model, betas, x, n, E_D, eps))
        d = 1.0 - x * (1.0 - delta) - eps * x * x
        return x**3 * gsq / (d * d + 0.25 * gt * gt)

    if s2 == 0.0:
        return np.array([point_w(x, mu) for x in x_values])
    s = math.sqrt(s2)
    lo, hi = mu - 12.0 * s, mu + 12.0 * s
    out = []
    for x in x_values:
        d0 = (x - 1.0 + eps * x * x) / x
        width = gt / (2.0 * x)
        points = [p for p in (d0 - 10.0 * width, d0, d0 + 10.0 * width) if lo < p < hi]

        def f(delta, x=x):
            z = (delta - mu) / s
            return math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi)) * point_w(x, delta)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            out.append(integrate.quad(f, lo, hi, points=points or None, limit=2000,
                                      epsabs=0.0, epsrel=1e-13)[0])
    return np.array(out)


# line centre, the numerator zeros 1 - delta - eps x = 0 (x ~ 100) and
# 1 - delta - 2 eps x = 0 (x ~ 50), and the far tail
X_WIDE = np.array([0.97, 0.98, 0.99, 0.995, 1.0, 1.005, 1.01, 1.5, 3.0, 10.0,
                   49.9, 50.0, 50.05, 99.95, 100.0, 100.05, 1e3, 1e4])


@pytest.mark.parametrize("model", [CouplingModel.roentgen(), NO_RECOIL_TERM],
                         ids=["roentgen", "no_recoil_term"])
@pytest.mark.parametrize("n", [N_PERP, N_45], ids=["perpendicular", "theta45"])
def test_gaussian_spectrum_matches_quad_reference(model, n):
    dist = GaussianPacket.isotropic(np.array([3e-4, -2e-4, 1e-4]), 1e-3)
    sc = make_scenario(eps=0.01, gt=1e-3, dist=dist, model=model)
    w = directional_spectrum(sc, n, X_WIDE).w
    ref = quad_reference_w(model, dist, n, 0.01, 1e-3, X_WIDE)
    assert np.max(np.abs(w - ref) / ref) <= 1e-10


def test_packet_without_spread_along_n_keeps_transverse_moments():
    d = np.cross(N_45, [0.0, 1.0, 0.0])
    d /= np.linalg.norm(d)
    cov = 1e-6 * (np.outer(d, d) + 0.5 * np.diag([0.0, 1.0, 0.0]))
    dist = GaussianPacket(mean=np.array([2e-3, 1e-3, -1e-3]), covariance=cov)
    sc = make_scenario(eps=0.01, gt=1e-3, dist=dist)
    x = np.array([0.99, 1.0, 1.001, 3.0, 1e3])
    w = directional_spectrum(sc, N_45, x).w
    ref = quad_reference_w(sc.coupling, dist, N_45, 0.01, 1e-3, x)
    assert np.max(np.abs(w - ref) / ref) <= 1e-10


def test_oblique_narrow_line_is_voigt():
    sigma, gt = 1e-5, 1e-6
    dist = GaussianPacket.isotropic(np.zeros(3), sigma)
    sc = make_scenario(eps=0.0, gt=gt, dist=dist, model=CouplingModel.standard())
    x = 1.0 + np.linspace(-2.5 * sigma, 2.5 * sigma, 11)
    w = directional_spectrum(sc, N_45, x).w
    sin2 = 1.0 - float(N_45 @ E_D) ** 2
    oracle = (2.0 * np.pi * x * x / gt) * sin2 * voigt_profile((x - 1.0) / x, sigma, gt / (2.0 * x))
    assert np.max(np.abs(w - oracle) / oracle) <= 1e-10


def test_narrow_line_at_tight_tolerance():
    # ACC-07's scenario; the adaptive Doppler average this replaced ran out of panels here
    sigma, gt = 1e-5, 1e-6
    dist = GaussianPacket.along_direction(np.zeros(3), sigma, N_PERP)
    sc = make_scenario(eps=0.0, gt=gt, dist=dist)
    x = 1.0 + np.linspace(-2.5 * sigma, 2.5 * sigma, 51)
    res = directional_spectrum(sc, N_PERP, x, tol=1e-12)
    oracle = x**3 * (2.0 * np.pi / gt) * voigt_profile(1.0 - x, x * sigma, gt / 2.0)
    assert np.max(np.abs(res.w - oracle) / oracle) <= 1e-4  # G^2 = (1 - delta)^2 vs 1


def _faddeeva_points():
    """Seeded points with |z| <= 20 and 1e-14 <= Im z <= 20: spread over the half-disc, near
    the imaginary axis (|Re z| < 5e-4), near the real axis at 4 <= |Re z| <= 8 (Im z <
    1e-6), above Im z = 7 (the continued fraction); then some out to the strip's edge at
    |Re z| = 28, and past it."""
    rng = np.random.default_rng(916)

    def block(count, re_lo, re_hi, log_im_lo, log_im_hi):
        re = rng.choice([-1.0, 1.0], count) * rng.uniform(re_lo, re_hi, count)
        return re + 1j * 10.0 ** rng.uniform(log_im_lo, log_im_hi, count)

    disc = np.concatenate([block(800, 0.0, 20.0, -14, math.log10(20.0)),
                           block(200, 0.0, 5e-4, -14, math.log10(20.0)),
                           block(300, 4.0, 8.0, -14, -6),
                           block(200, 0.0, 20.0, math.log10(7.0), math.log10(20.0))])
    return np.concatenate([disc[np.abs(disc) <= 20.0], block(100, 20.0, 28.0, -14, math.log10(7.0)),
                           block(60, 28.0, 60.0, -14, 1)])


def test_faddeeva_matches_40_digit_values():
    mp = pytest.importorskip("mpmath")
    z = _faddeeva_points()
    with mp.workdps(40):
        exact = np.array([complex(mp.exp(-mp.mpc(v) ** 2) * mp.erfc(-1j * mp.mpc(v))) for v in z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = faddeeva(z)
    assert np.all(exact.real > 0.0)  # Re w > 0 in the upper half-plane
    assert np.max(np.abs(w.real - exact.real) / exact.real) <= 1e-13
    assert np.max(np.abs(w.imag - exact.imag) / np.abs(exact)) <= 1e-13


def test_faddeeva_matches_scipy_wofz_on_a_dense_grid():
    x, y = np.meshgrid(np.linspace(-20.0, 20.0, 401), np.geomspace(1e-14, 20.0, 57))
    z = (x + 1j * y)[np.hypot(x, y) <= 20.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = faddeeva(z)
    want = wofz(z)
    assert np.max(np.abs(w.real - want.real) / want.real) <= 1e-13
    assert np.max(np.abs(w.imag - want.imag) / np.abs(want)) <= 1e-13
    assert np.array_equal(faddeeva(z[:, None])[:, 0], w) and faddeeva(z[7]) == w[7]


@pytest.mark.parametrize("z", [1.0 - 1e-300j, 2.0 + 0.0j, complex(math.nan, 1.0),
                               complex(1.0, math.inf)])
def test_faddeeva_takes_the_open_upper_half_plane_only(z):
    with pytest.raises(ValueError, match="Im z > 0"):
        faddeeva(np.array([1j, z]))


def test_gaussian_spectra_equal_those_of_scipy_wofz(monkeypatch):
    x = np.concatenate((np.linspace(0.97, 1.03, 61), [1.5]))
    cases = [(make_scenario(eps=eps, gt=gt, dist=GaussianPacket.isotropic([2e-4, -1e-4, 3e-4], sigma),
                            model=model), n)
             for eps, gt, sigma in [(0.01, 1e-3, 1e-3), (0.0, 1e-6, 1e-5), (1e-4, 1e-2, 1e-3)]
             for model in (CouplingModel.roentgen(), CouplingModel.standard(), NO_RECOIL_TERM)
             for n in (N_PERP, N_45)]
    ours = [directional_spectrum(sc, n, x).w for sc, n in cases]
    monkeypatch.setattr(spectra, "faddeeva", wofz)
    for (sc, n), w in zip(cases, ours):
        want = directional_spectrum(sc, n, x).w
        assert np.max(np.abs(w - want) / np.abs(want)) <= 1e-13


def test_gaussian_node_sums_only_in_the_wing(monkeypatch):
    # the weighted node sum is formed for x = 0 and |zeta| > _FAR_WING only
    seen = []

    def recorded(x, delta, params):
        seen.append(np.array(x, copy=True))
        return amplitudes.lorentzian_denominator(x, delta, params)

    monkeypatch.setattr(spectra, "lorentzian_denominator", recorded)
    sc = make_scenario(gt=1e-3, dist=GaussianPacket.isotropic(np.zeros(3), 1e-3))
    x = np.array([0.0, 0.9, 0.99, 1.0, 1.01, 1.5])
    w = directional_spectrum(sc, N_PERP, x).w
    assert len(seen) == 1 and np.array_equal(seen[0], [0.0, 0.9, 1.5])
    assert np.all(w[1:] > 0.0) and w[0] == 0.0
    seen.clear()
    directional_spectrum(sc, N_PERP, x[2:5])
    assert seen == []


def test_full3d_reports_unresolved_narrow_line():
    sigma, gt = 1e-5, 1e-6
    dist = GaussianPacket.along_direction(np.zeros(3), sigma, N_PERP)
    sc = make_scenario(eps=0.0, gt=gt, dist=dist)
    x = 1.0 + np.linspace(-2.5 * sigma, 2.5 * sigma, 11)
    with pytest.raises(NumericalError, match="full3d"):
        directional_spectrum(sc, N_PERP, x, method="full3d")


# The coupling algebra and the averaging of the production paths; the references must run
# without either.
PRODUCTION_ALGEBRA = ("bracket", "recoil_coefficient", "transverse_dipole", "quotient_slope",
                      "polarization_geometry", "conditional_polarization_sum", "line_fractions")
PRODUCTION_AVERAGING = ("delta_average", "faddeeva", "_doppler_w", "_levels", "in_row_blocks")


def _stub_production(monkeypatch, names, what):
    """Replace every name of `names`, in every movingatom module that binds it, by a stub
    that raises, naming `what`; returns the number of bindings replaced."""
    def stub(*args, **kwargs):
        raise AssertionError(f"a reference reached the production {what}")

    count = 0
    for info in pkgutil.iter_modules(movingatom.__path__):
        module = importlib.import_module(f"movingatom.{info.name}")
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stub)
                count += 1
    return count


def test_references_share_no_coupling_algebra_with_production(monkeypatch):
    """The references (the `full3d` oracle, `golden_rule_rates` over `expectation`, the
    kernels and the basis sum) match the production values, taken first, with production's
    coupling algebra and averaging stubbed. A reference may use of production code only the
    Gauss rules (`gauss_rule`, `_hermite_rule`), `project` (for the spectrum's metadata),
    `resonance_root`, `detuning`, `lorentzian_denominator`, `doppler_projection` and the
    basis sum (`polarization_sum`, `reduced_coupling`, `shifted_velocity`)."""
    model, eps = CouplingModel.roentgen(), 0.01
    n = np.array([0.48, 0.6, 0.64]) / np.linalg.norm([0.48, 0.6, 0.64])
    beta = np.array([0.02, 0.015, -0.01])
    dists = [PointMass(beta), GaussianPacket.isotropic(np.array([0.002, -0.001, 0.0015]), 1e-3),
             TabulatedProjection(delta=np.array([-0.02, 0.0, 0.03]),
                                 weights=np.array([0.2, 0.5, 0.3]), direction=n)]
    scenarios = [make_scenario(eps=eps, dist=dist) for dist in dists]
    x = np.linspace(0.9, 1.1, 9)
    # production first
    exact = [directional_spectrum(sc, n, x).w for sc in scenarios]
    packet = dists[1]
    mean_rate = golden_rule_mean_rate(project(packet, n), n, E_D, scenarios[0].params,
                                      model).value
    closed_sum = conditional_polarization_sum(model, x, n, E_D, eps, project(PointMass(beta), n))[0]
    perp_w = {m.label: directional_spectrum(make_scenario(eps=eps, dist=PointMass(beta[0] * N_PERP),
                                                          model=m), N_PERP, x).w
              for m in (model, NO_RECOIL_TERM, CouplingModel.standard())}

    algebra = _stub_production(monkeypatch, PRODUCTION_ALGEBRA, "coupling algebra")
    assert algebra >= len(PRODUCTION_ALGEBRA)
    with pytest.raises(AssertionError, match="production coupling algebra"):
        directional_spectrum(scenarios[0], n, x)
    averaging = _stub_production(monkeypatch, PRODUCTION_AVERAGING, "averaging")
    assert averaging >= len(PRODUCTION_AVERAGING)
    for production in (lambda: directional_spectrum(scenarios[1], n, x),
                       lambda: golden_rule_mean_rate(project(packet, n), n, E_D,
                                                     scenarios[0].params, model),
                       lambda: directional_probability(scenarios[2], n,
                                                       Formfactor("gaussian", 5.0), 40.0)):
        with pytest.raises(AssertionError, match="production averaging"):
            production()
    for sc, want in zip(scenarios, exact):
        got = directional_spectrum(sc, n, x, method="full3d", order=20).w
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8
    rates = expectation(packet, lambda b: golden_rule_rates(b, n, E_D, scenarios[0].params,
                                                            model), order=40).value
    assert abs(rates - mean_rate) <= 1e-12 * mean_rate
    perpendicular = perpendicular_kernel(x, beta[0], scenarios[0].params)
    kernel = spectral_kernel(model, x, N_PERP, beta[0] * N_PERP, scenarios[0].params, E_D)
    assert np.allclose(kernel, perpendicular, rtol=1e-12, atol=0.0)
    for m in (model, NO_RECOIL_TERM, CouplingModel.standard()):
        got = x * x * perpendicular_kernel(x, beta[0], scenarios[0].params, m)
        assert np.allclose(got, perp_w[m.label], rtol=1e-12, atol=0.0), m.label
    summed = polarization_sum(model, beta, x, n, E_D, eps)
    assert np.all(np.abs(summed - closed_sum) <= 1e-13 * np.maximum(1.0, np.abs(closed_sum)))


# ---------------------------------------------------------------------------
# probability
# ---------------------------------------------------------------------------

def test_probability_upper_limit_must_clear_resonance():
    sc = make_scenario()
    with pytest.raises(ValueError):
        directional_probability(sc, N_PERP, Formfactor.none(), 0.5)


@pytest.mark.parametrize("upper", [0.5, math.inf, math.nan])
def test_probability_upper_limit_is_a_parameter_error(upper):
    # the line of an atom at rest is at x = 0.990; an infinite limit returned nan
    with pytest.raises(ParameterError, match="upper_limit"):
        directional_probability(make_scenario(), N_PERP, Formfactor.none(), upper)


def test_probability_monotone_in_formfactor_scale():
    sc = make_scenario()
    values = []
    for cutoff in (5.0, 10.0, 50.0):
        ff = Formfactor(kind="gaussian", cutoff=cutoff)
        res = directional_probability(sc, N_PERP, ff, 8.0 * cutoff)
        assert res.converged
        values.append(res.value)
    assert values[0] < values[1] < values[2]


def test_oblique_point_mass_resonance_is_seeded_at_its_doppler_shift():
    # the line (width 1e-9) sits at x* = 1/(1 - 0.1), not at the rest-frame
    # resonance; reference: 50-digit quadrature of kappa * x^3 sin^2 / (D^2 + gt^2/4)
    sc = make_scenario(eps=0.0, gt=1e-9, dist=PointMass(0.1 * N_45),
                       model=CouplingModel.standard())
    res = directional_probability(sc, N_45, Formfactor(kind="sharp", cutoff=50.0), 50.0,
                                  tol=1e-9)
    assert res.converged
    assert res.value == pytest.approx(0.09096649021502316, rel=1e-13)


def mp_probability(model, beta, n, eps, gt, upper, formfactor=None):
    """kappa * int_0^upper F x^3 sum G^2 / (D^2 + gt^2/4) for one velocity, in
    40-digit arithmetic, with sum G^2 = |v|^2 - (n.v)^2 from the coupling's definition."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    n, e, b = ([mp.mpf(float(c)) for c in vec] for vec in (n, E_D, beta))
    eps, gt, upper = mp.mpf(eps), mp.mpf(gt), mp.mpf(upper)

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    delta, c = dot(n, b), dot(E_D, n)

    def gsq(x):
        if model.kind == "standard_dipole":
            return 1 - c * c
        shift = 2 * eps * x if model.apply_momentum_shift else 0
        beff = [bi + shift * ni for bi, ni in zip(b, n)]
        bracket = 1 - dot(n, beff) + (eps * x if model.include_recoil_term else 0)
        v = [bracket * ei + c * bi for ei, bi in zip(e, beff)]
        return dot(v, v) - dot(n, v) ** 2

    def f(x):
        d = 1 - x * (1 - delta) - eps * x * x
        damping = 1 if formfactor is None else mp.exp(-(x / formfactor.cutoff) ** 2)
        return damping * x**3 * gsq(x) / (d * d + gt * gt / 4)

    x_star = 2 / ((1 - delta) + mp.sqrt((1 - delta) ** 2 + 4 * eps))
    pts = sorted(p for p in (x_star + k * gt for k in (-1e4, -10, 0, 10, 1e4)) if 0 < p < upper)
    return float(3 * gt / (16 * mp.pi**2) * mp.quad(f, [0] + pts + [upper]))


@pytest.mark.parametrize("gt", [1e-2, 1e-5, 1e-9])
@pytest.mark.parametrize("eps", [0.01, 1e-6], ids=["eps0.01", "eps1e-6"])
def test_point_mass_probability_matches_40_digit_values(eps, gt):
    # eps = 1e-6 puts the far pole (-1e6) beyond every cutoff: the Taylor form of the smooth part
    beta = np.array([0.02, 0.01, -0.03])
    sc = make_scenario(eps=eps, gt=gt, dist=PointMass(beta))
    for ff, upper in ((Formfactor.none(), 3.0), (Formfactor(kind="sharp", cutoff=40.0), 1e3)):
        res = directional_probability(sc, N_45, ff, upper)
        ref = mp_probability(sc.coupling, beta, N_45, eps, gt, min(upper, 40.0))
        assert res.converged and res.error_estimate == 0.0
        assert abs(res.value - ref) <= 1e-13 * ref


def test_narrow_table_meets_a_tight_tolerance():
    # 48 stratified rows, gt = 1e-9: the sweeps this replaced stopped at
    # converged=False (error 4.9e-10, 9.1e-10 off) after 122 820 evaluations
    rng = np.random.default_rng(5)
    u = (np.arange(48) + rng.uniform(0.2, 0.8, 48)) / 48
    deltas = np.array([1e-3 * math.sqrt(2.0) * float(erfinv_(2.0 * p - 1.0)) for p in u])
    weights = rng.uniform(0.5, 1.5, 48)
    weights /= weights.sum()
    tab = TabulatedProjection(delta=deltas, weights=weights, direction=N_PERP)
    sharp = Formfactor(kind="sharp", cutoff=50.0)
    res = directional_probability(make_scenario(eps=1e-3, gt=1e-9, dist=tab), N_PERP, sharp,
                                  50.0, tol=1e-12)
    assert res.converged and res.error_estimate == 0.0
    rows = [directional_probability(make_scenario(eps=1e-3, gt=1e-9, dist=PointMass(d * N_PERP)),
                                    N_PERP, sharp, 50.0).value for d in deltas]
    assert res.value == pytest.approx(float(np.dot(weights, rows)), rel=1e-14)


@pytest.mark.parametrize("ff", [Formfactor(kind="gaussian", cutoff=10.0),
                                Formfactor(kind="exponential", cutoff=3.0)],
                         ids=["gaussian", "exponential"])
@pytest.mark.parametrize("eps", [0.0, 0.01, 0.05])
def test_smooth_formfactor_matches_quad(ff, eps):
    beta, gt = np.array([0.02, 0.01, -0.03]), 1e-3
    sc = make_scenario(eps=eps, gt=gt, dist=PointMass(beta))
    upper = ff.suggested_upper_limit()
    res = directional_probability(sc, N_45, ff, upper, tol=1e-13)
    delta = float(beta @ N_45)
    x_star = float(resonance_root(delta, eps))

    def f(x):
        gsq = float(polarization_sum(sc.coupling, beta, x, N_45, E_D, eps))
        d = 1.0 - x * (1.0 - delta) - eps * x * x
        return sc.kappa * float(ff(x)) * x**3 * gsq / (d * d + 0.25 * gt * gt)

    points = [x_star + k * gt for k in (-1e3, -10.0, 0.0, 10.0, 1e3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref = integrate.quad(f, 0.0, upper, points=points, limit=4000,
                             epsabs=0.0, epsrel=2e-14)[0]
    assert res.converged
    assert abs(res.value - ref) <= 1e-12 * ref


def test_smooth_formfactor_on_a_narrow_line_matches_40_digit_value():
    beta, ff = np.array([0.02, 0.01, -0.03]), Formfactor(kind="gaussian", cutoff=10.0)
    sc = make_scenario(eps=0.01, gt=1e-9, dist=PointMass(beta))
    res = directional_probability(sc, N_45, ff, 80.0, tol=1e-12)
    ref = mp_probability(sc.coupling, beta, N_45, 0.01, 1e-9, 80.0, formfactor=ff)
    assert res.converged
    assert abs(res.value - ref) <= 1e-13 * ref


@pytest.mark.parametrize("ff", [Formfactor(kind="gaussian", cutoff=10.0),
                                Formfactor(kind="exponential", cutoff=3.0)],
                         ids=["gaussian", "exponential"])
@pytest.mark.parametrize("upper", [1e6, 1e200])
def test_upper_limit_past_the_formfactor_reach_integrates_to_the_reach(ff, upper):
    # past the reach F < e^-60; the rule on [0, U] used to miss the formfactor's support:
    # gaussian U = 1e6 was unconverged after 262 113 evaluations, 1e200 gave 0.3456 "converged"
    sc = make_scenario()
    reach = directional_probability(sc, N_PERP, ff, ff.suggested_upper_limit())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = directional_probability(sc, N_PERP, ff, upper)
    assert far.converged and far.value == reach.value and far.evaluations == reach.evaluations


def test_packet_upper_limit_inside_doppler_profile_is_not_converged():
    # the line integral jumps where x*(delta) crosses the upper limit, so the
    # Hermite sums over delta at two orders disagree; past the profile they agree
    dist = GaussianPacket.isotropic(np.zeros(3), 1e-2)
    sc = make_scenario(eps=0.01, gt=1e-4, dist=dist)
    inside = directional_probability(sc, N_PERP, Formfactor.none(), 1.0)
    assert not inside.converged and inside.error_estimate > 1e-3 * inside.value
    past = directional_probability(sc, N_PERP, Formfactor.none(), 3.0)
    assert past.converged and past.error_estimate <= 1e-9


def test_packet_scan_matches_quadrature_of_the_exact_spectrum():
    dist = GaussianPacket.isotropic(np.array([3e-4, -2e-4, 1e-4]), 1e-3)
    sc = make_scenario(eps=0.01, gt=1e-2, dist=dist)
    lam = np.geomspace(1e2, 1e3, 5)
    report = divergence_comparison(sc, N_45, lambdas=lam)
    x_star = float(resonance_root(float(dist.mean @ N_45), 0.01))
    points = [x_star + k * 1e-2 for k in (-100.0, -10.0, 0.0, 10.0, 100.0)]
    for label, model in (("roentgen", CouplingModel.roentgen()),
                         ("standard", CouplingModel.standard())):
        scan = report.entries[label].scan
        assert scan.converged
        variant = dataclasses.replace(sc, coupling=model)

        def f(x):
            return sc.kappa * directional_spectrum(variant, N_45, np.array([x])).w[0]

        for k in (0, lam.size - 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                ref = integrate.quad(f, 0.0, lam[k], points=points, limit=2000,
                                     epsabs=0.0, epsrel=1e-12)[0]
            assert abs(scan.values[k] - ref) <= 1e-9 * max(1.0, abs(ref))


def test_probability_sharp_cutoff_feature_is_seeded():
    sc = make_scenario()
    ff = Formfactor(kind="sharp", cutoff=3.0)
    res = directional_probability(sc, N_PERP, ff, 10.0)
    res_exact = directional_probability(sc, N_PERP, Formfactor.none(), 3.0)
    assert res.value == pytest.approx(res_exact.value, rel=1e-9)


def test_smooth_formfactor_takes_one_upper_limit():
    # the smooth rest was integrated to the first U only and added at every U: at U = 40
    # the ladder [20, 40] read 0.12045597, marked converged, against 0.12015991 alone
    scenario, gauss = make_scenario(), Formfactor(kind="gaussian", cutoff=10.0)
    proj = project(scenario.distribution, N_PERP)
    with pytest.raises(ValueError):
        spectra._frequency_integral(scenario, (scenario.coupling,), N_PERP, proj, gauss,
                                    [20.0, 40.0], 1e-9, 4096)


DIVERGENCE_MODELS = (CouplingModel.roentgen(), CouplingModel.standard(), NO_RECOIL_TERM)


def fixed_order_reference(scenario, model, row, proj, formfactor, uppers, tol=1e-9,
                          max_panels=4096):
    """`spectra._frequency_integral` on the nodes of `proj` alone, one model and one
    direction `row`: a `line_fractions((model,), ...)` build and its `integral` (or a
    `_levels` run of the smooth rest); (values, errors, evaluations, converged)."""
    uppers = np.asarray(uppers, dtype=float)
    if formfactor.kind != "none":
        uppers = np.minimum(uppers, formfactor.suggested_upper_limit())
    lines = amplitudes.line_fractions((model,), row, scenario.dipole_axis, proj,
                                      scenario.params)
    kappa, weights = scenario.kappa, proj.weights
    if formfactor.kind in ("none", "sharp"):
        values = kappa * (weights @ lines.integral(uppers)[0])
        return values, np.zeros_like(values), weights.size * uppers.size, True
    z = lines.near[..., None]
    f_near = np.exp(formfactor._exponent(z))

    def rest(x):
        quotient = f_near * np.expm1(formfactor._slope(x, z) * (x - z)) / (x - z)
        return weights @ (formfactor(x) * lines.smooth(x)[0]
                          + 2.0 * np.real(lines.near_residue[0, ..., None] * quotient))

    value, error, count, converged = quadrature._levels(rest, 0.0, uppers.item(), tol,
                                                        max_panels)
    values = kappa * (weights @ lines.near_integral(uppers, f_near[..., 0])[0]
                      + value[..., None])
    return values, kappa * error[..., None], weights.size * (1 + count), converged


def per_model_reference(scenario, model, n, formfactor, uppers, tol=1e-9, max_panels=4096):
    """`spectra._frequency_integral` computed one model, one direction and one Hermite order
    at a time (`fixed_order_reference`), each order on its own projection. A Gaussian takes
    the first two rungs of `wavepacket.HERMITE_LADDER`, then each later one until a rung's
    change from the one before meets tol * max(1, |I|) at every U; the last change joins
    the error."""
    fields, ladder = [], wavepacket.HERMITE_LADDER
    for row in np.reshape(n, (-1, 3)):
        def one(order):
            proj = project(scenario.distribution, row, order=order)
            return proj.kind, fixed_order_reference(scenario, model, row, proj, formfactor,
                                                    uppers, tol, max_panels)

        kind, (value, error, evaluations, converged) = one(ladder[0])
        if kind == "gaussian":
            rest_ok = converged
            for order in ladder[1:]:
                fine, fine_error, more, ok = one(order)[1]
                gap = np.abs(fine - value)
                met = np.all(gap <= tol * np.maximum(1.0, np.abs(fine)))
                value, error, evaluations = fine, fine_error + gap, evaluations + more
                converged, rest_ok = met & ok & rest_ok, ok
                if met:
                    break
        fields.append((value, error, evaluations, converged))
    batch = np.shape(n)[:-1]
    return tuple(np.reshape(np.array(f), batch + np.shape(f[0])) for f in zip(*fields))


N_TABLE = direction_from_angles(1.1, 0.3, axis=E_D)
EQUIVALENCE_PACKETS = {
    "point": PointMass(np.array([2e-3, -1e-3, 5e-4])),
    "table": TabulatedProjection(direction=N_TABLE, delta=np.array([-2e-3, 0.0, 1e-3, 3e-3]),
                                 weights=np.array([0.1, 0.4, 0.3, 0.2])),
    "gaussian": GaussianPacket(mean=np.array([1e-3, -5e-4, 2e-3]),
                               covariance=np.diag([4e-6, 1e-6, 2.25e-6])),
}


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("formfactor", [Formfactor.none(), Formfactor("sharp", 3.0),
                                        Formfactor("gaussian", 10.0),
                                        Formfactor("exponential", 2.0)], ids=lambda f: f.kind)
@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("packet", sorted(EQUIVALENCE_PACKETS))
def test_one_pass_equals_a_pass_per_model_and_order(monkeypatch, packet, stacked, formfactor,
                                                    eps):
    # one line_fractions build for three models and both Hermite orders gives, bit for bit,
    # every field that a build per model and per order gives; a Gaussian on each ladder
    dist = EQUIVALENCE_PACKETS[packet]
    n = N_TABLE if packet == "table" else direction_from_angles(1.1, 0.3, axis=E_D)
    if stacked:  # a table is seen along its own direction only: seven copies of it
        n = (np.broadcast_to(N_TABLE, (7, 3)) if packet == "table"
             else direction_from_angles(np.linspace(0.2, 3.0, 7), 0.3, axis=E_D))
    scenario = make_scenario(eps=eps, dist=dist)
    uppers = [40.0] if formfactor.kind in ("gaussian", "exponential") else [2.0, 30.0, 400.0]
    for ladder in each_ladder(monkeypatch) if packet == "gaussian" else [None]:
        proj = project(dist, n)
        shared = spectra._frequency_integral(scenario, DIVERGENCE_MODELS, n, proj, formfactor,
                                             uppers, 1e-9, 4096)
        for i, model in enumerate(DIVERGENCE_MODELS):
            ref = per_model_reference(scenario, model, n, formfactor, uppers)
            alone = [field[0] for field in spectra._frequency_integral(
                scenario, (model,), n, proj, formfactor, uppers, 1e-9, 4096)]
            # values, errors, evaluations, converged; the reference's converged=True of a
            # closed form stands for every direction, and a count that the models share has
            # no model axis
            case = model.label, ladder
            for got, one, want in zip(shared, alone, ref):
                got = np.asarray(got)[i] if np.ndim(got) > np.ndim(one) else got
                assert np.shape(got) == np.shape(one), case
                assert np.array_equal(got, np.broadcast_to(want, np.shape(one))), case
                assert np.array_equal(one, np.broadcast_to(want, np.shape(one))), case


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# rows flattened from the stack axes and nodes (`amplitudes.in_row_blocks`): a table of 3.5
# blocks at the 32 points of a one-panel rule (and at 32 cutoffs), seen along its own
# direction; and a Gaussian packet's nodes of the ladder's first two rungs along enough
# directions for 3 blocks (16 directions of 24 nodes on the package's ladder). Their far
# poles, near -(1 - delta)/eps - 1, lie on both sides of U = 100. Their (rows x 32) complex
# arrays stay under the 256 KiB from which numpy elides temporaries: an elided
# `t * (1 + t/2)` (`amplitudes._log_tail`) becomes a product with its operands swapped,
# which rounds differently, so one block above that size is no reference.
BLOCK_TABLE_ROWS = 7 * amplitudes.ROW_BLOCK // 64
BLOCK_TABLE = TabulatedProjection(direction=N_TABLE,
                                  delta=np.linspace(-1e-2, 3e-2, BLOCK_TABLE_ROWS),
                                  weights=np.full(BLOCK_TABLE_ROWS, 1.0 / BLOCK_TABLE_ROWS))


def row_block_case(case):
    """(distribution, directions) of a row-block case, a stack sized by the ladder in force."""
    if case == "table":
        return BLOCK_TABLE, N_TABLE
    count = -(-3 * (amplitudes.ROW_BLOCK // 32) // sum(wavepacket.HERMITE_LADDER[:2]))
    return (GaussianPacket.isotropic([1e-2, 0.0, 2e-2], 1e-3),
            direction_from_angles(np.linspace(0.1, 3.0, count), 0.3, axis=E_D))


@pytest.mark.parametrize("models", ["one", "three"])
@pytest.mark.parametrize("formfactor", [Formfactor("gaussian", 12.5),
                                        Formfactor("exponential", 100.0 / 60.0),
                                        Formfactor.none()], ids=lambda f: f.kind)
@pytest.mark.parametrize("case", ["stack", "table"])
def test_row_blocks_give_the_bits_of_one_block(monkeypatch, case, formfactor, models):
    # the smooth rest up to the reach U = 100 of a gaussian or exponential formfactor, or the
    # closed forms on a ladder of 32 cutoffs, in row blocks and with every row in one block:
    # the same bits in every field, the stack's on each Hermite ladder. Some rows' far poles
    # lie beyond the rule's widest point and some inside it, and each block picks the far
    # forms of `smooth` for its own rows: under a smooth formfactor some blocks take the
    # Taylor form alone (without the direct form's coefficients) and some mix the forms,
    # while one block of every row mixes them.
    models = (CouplingModel.roentgen(),) if models == "one" else DIVERGENCE_MODELS
    uppers = np.geomspace(1e2, 1e4, 32) if formfactor.kind == "none" else [100.0]
    blocks, rows, row_block = [], amplitudes.LineFractions.rows, amplitudes.ROW_BLOCK
    forms, smooth = set(), amplitudes.LineFractions.smooth

    def spy(self, block=slice(None)):
        blocks.append(block)
        return rows(self, block)

    def smooth_spy(self, x):  # the far forms this block's points take
        inside = np.abs(np.asarray(x)[None, :] / self.far[..., None]) < 1.0
        value = smooth(self, x)
        if inside.all():
            assert_same_bits(smooth(dataclasses.replace(self, q0=None, q1=None), x), value)
        forms.add("taylor" if inside.all() else "mixed" if inside.any() else "direct")
        return value

    monkeypatch.setattr(amplitudes.LineFractions, "rows", spy)
    monkeypatch.setattr(amplitudes.LineFractions, "smooth", smooth_spy)
    for ladder in each_ladder(monkeypatch) if case == "stack" else [None]:
        monkeypatch.setattr(amplitudes, "ROW_BLOCK", row_block)
        dist, n = row_block_case(case)
        scenario = make_scenario(eps=0.01, gt=1e-3, dist=dist)
        proj = project(dist, n)
        lines = amplitudes.line_fractions(models, n, E_D, proj, scenario.params)
        far = np.abs(lines.far)
        assert far.min() < 0.998 * 100.0 < 100.0 < far.max()

        def run():
            return (*spectra._frequency_integral(scenario, models, n, proj, formfactor, uppers,
                                                 1e-10, 4096),
                    lines.near_integral(np.geomspace(1e2, 1e4, 32), np.exp(-lines.near)))

        blocks.clear()
        forms.clear()
        blocked = run()
        assert sum(block != slice(None) for block in blocks) >= 3, ladder
        assert forms == (set() if formfactor.kind == "none" else {"taylor", "mixed"}), ladder
        monkeypatch.setattr(amplitudes, "ROW_BLOCK", 1 << 62)  # every row in one block
        blocks.clear()
        forms.clear()
        whole = run()
        assert blocks == []
        assert forms == (set() if formfactor.kind == "none" else {"mixed"}), ladder
        for got, want in zip(blocked, whole):
            assert_same_bits(got, want)


def spy_hermite_orders(monkeypatch, module=spectra):
    """The Hermite order each column kept (`wavepacket.delta_average`'s last field), one array
    per call of it from `module` (`_frequency_integral`'s, or the golden rate's in `rates`),
    recorded while the test runs."""
    orders, delta_average = [], module.delta_average

    def spy(*args):
        out = delta_average(*args)
        orders.append(out[-1])
        return out

    monkeypatch.setattr(module, "delta_average", spy)
    return orders


STACKS = [
    # 120 directions make the polarization sum's complex temporaries pass 256 KB, where numpy
    # computed b * T as T *= b: 24 values and 44 error estimates differed in the last bits
    ([0.0, 0.0, 0.0], 1e-3, 1e-2, Formfactor("gaussian", 50.0), 400.0, 120),
    # U = 1.103 lies at 1 to 7 Doppler widths from the line, by direction: the directions
    # keep three rungs of the ladder or more, its last among them (`assert_mixed_orders`),
    # and the closest miss tol there
    ([0.05, 0.0, 0.0], 1e-2, 1e-3, Formfactor.none(), 1.103, 24),
    ([0.05, 0.0, 0.0], 1e-2, 1e-3, Formfactor("exponential", 3.0), 1.103, 24),
]


def assert_mixed_orders(kept):
    """The columns of one stack kept three rungs of the ladder in force or more, past its
    first and up to its last: on the package's ladder, every rung but the first."""
    ladder, kept = wavepacket.HERMITE_LADDER, set(np.ravel(kept).tolist())
    assert kept <= set(ladder[1:]) and len(kept) >= 3 and ladder[-1] in kept, (ladder, kept)


def test_large_gaussian_stack_equals_each_direction_alone(monkeypatch):
    # on each ladder
    kept = spy_hermite_orders(monkeypatch)
    for ladder in each_ladder(monkeypatch):
        for mean, sigma, gt, formfactor, upper, count in STACKS:
            first = len(kept)
            scenario = make_scenario(gt=gt, dist=GaussianPacket.isotropic(mean, sigma))
            n = direction_from_angles(np.linspace(0.0, np.pi, count), 0.0, axis=E_D)
            stacked = directional_probability(scenario, n, formfactor, upper)
            alone = [directional_probability(scenario, row, formfactor, upper) for row in n]
            for name in ("value", "error_estimate", "evaluations", "converged"):
                assert np.array_equal(getattr(stacked, name),
                                      [getattr(a, name) for a in alone]), (name, ladder)
            orders = [o[0] for o in kept[first:]]  # the stack's, then each direction's
            assert np.array_equal(orders[0], [int(o) for o in orders[1:]])
            if count == 24:
                assert_mixed_orders(orders[0])
                assert not stacked.converged.all()


def test_climbing_directions_equal_an_order_at_a_time(monkeypatch):
    # the mixed-order stack above, three models in one pass: every model and direction
    # keeps the order it would keep alone, one build per order, on each ladder
    orders = spy_hermite_orders(monkeypatch)
    scenario = make_scenario(gt=1e-3, dist=GaussianPacket.isotropic([0.05, 0.0, 0.0], 1e-2))
    n = direction_from_angles(np.linspace(0.0, np.pi, 24), 0.0, axis=E_D)
    uppers = [1.103, 2.0]
    for ladder in each_ladder(monkeypatch):
        orders.clear()
        shared = spectra._frequency_integral(scenario, DIVERGENCE_MODELS, n,
                                             project(scenario.distribution, n),
                                             Formfactor.none(), uppers, 1e-9, 4096)
        assert_mixed_orders(orders[0])
        for i, model in enumerate(DIVERGENCE_MODELS):
            ref = per_model_reference(scenario, model, n, Formfactor.none(), uppers)
            for got, want in zip(shared, ref):
                assert np.array_equal(got[i], np.broadcast_to(want, np.shape(got[i]))), \
                    (model.label, ladder)


def test_ladder_sweep_is_within_tol_of_order_64_where_converged():
    # seeded draws over packet widths, directions, upper limits from the line's edge out to
    # 1e4, the four formfactors, the three models, points and packets: a result marked
    # converged lies within tol * max(1, |I|) of the order-64 value
    rng = np.random.default_rng(28)
    tol, kinds, seen = 1e-9, ("none", "sharp", "gaussian", "exponential"), set()
    for draw in range(96):
        model = DIVERGENCE_MODELS[draw % 3]
        kind = kinds[(draw // 3) % 4]
        packet = draw % 2 == 0
        eps, gt = 10 ** rng.uniform(-3, -1.3), 10 ** rng.uniform(-4, -2)
        sigma = 10 ** rng.uniform(-4, -1)
        mean = rng.normal(scale=0.01, size=3)
        dist = GaussianPacket.isotropic(mean, sigma) if packet else PointMass(mean)
        n = direction_from_angles(rng.choice([0.0, 0.4, math.pi / 4, 1.2, math.pi / 2, 2.5]),
                                  rng.uniform(0.0, 2 * math.pi), axis=E_D)
        scenario = make_scenario(eps=eps, gt=gt, dist=dist, model=model)
        x_star = float(resonance_root(float(mean @ n), eps))
        # from one line width past the resonance (inside the Doppler profile of the wider
        # packets) out to 1e4
        upper = x_star + gt * 10 ** rng.uniform(0.0, np.log10(1e4 / gt))
        formfactor = (Formfactor.none() if kind == "none"
                      else Formfactor(kind, float(rng.uniform(2.0, 50.0))))
        res = spectra._frequency_integral(scenario, (model,), n, project(dist, n, order=8),
                                          formfactor, [upper], tol, 2 ** 16)
        value, converged = float(res[0][0, 0]), bool(res[3][0])
        ref_proj = project(dist, n, order=64)
        ref = float(fixed_order_reference(scenario, model, n, ref_proj, formfactor, [upper],
                                          1e-3 * tol, 2 ** 16)[0][0])
        if converged:
            assert abs(value - ref) <= tol * max(1.0, abs(ref)), (draw, value, ref)
        seen.add((packet, converged))
    assert seen == {(True, True), (True, False), (False, True)}


def test_divergence_comparison_takes_the_far_logarithms_once(monkeypatch):
    # one shared closed form for the three models and both Hermite orders (it took six)
    calls = []
    log_tail = amplitudes._log_tail
    monkeypatch.setattr(amplitudes, "_log_tail", lambda *a: calls.append(1) or log_tail(*a))
    dist = GaussianPacket.isotropic([1e-3, 2e-3, 0.0], 1e-3)
    report = divergence_comparison(make_scenario(dist=dist), N_PERP)
    assert len(calls) == 1 and "strictly more divergent" in report.verdict


def test_smooth_formfactor_probability_runs_the_levels_once(monkeypatch):
    # both Hermite orders are columns of one run of the quadrature levels (it took two)
    calls = []
    levels = quadrature._levels
    monkeypatch.setattr(quadrature, "_levels", lambda *a: calls.append(1) or levels(*a))
    dist = GaussianPacket.isotropic([1e-3, 2e-3, 0.0], 1e-3)
    res = directional_probability(make_scenario(dist=dist), N_PERP,
                                  Formfactor("gaussian", 10.0), 80.0)
    assert len(calls) == 1 and res.converged


def test_point_mass_under_a_smooth_formfactor_runs_the_levels_once_per_model(monkeypatch):
    # a point mass takes its one rule with no per-order stacking: one run of the levels, a
    # column per model
    shapes = []
    levels = quadrature._levels

    def spy(f, *args):
        return levels(lambda x: shapes.append(np.shape(f(x))) or f(x), *args)

    monkeypatch.setattr(quadrature, "_levels", spy)
    scenario = make_scenario(eps=0.05, dist=PointMass(np.array([1e-3, 0.0, 2e-3])))
    proj = project(scenario.distribution, N_45)
    values, errors, evaluations, converged = spectra._frequency_integral(
        scenario, DIVERGENCE_MODELS, N_45, proj, Formfactor("exponential", 3.0), [180.0],
        1e-12, 4096)
    assert {shape[:-1] for shape in shapes} == {(1, 3)} and converged.all()
    assert values.shape == (3, 1) and evaluations.shape == (3,)


# ---------------------------------------------------------------------------
# divergence report
# ---------------------------------------------------------------------------

def test_divergence_comparison_report():
    sc = make_scenario()
    report = divergence_comparison(sc, N_PERP)
    assert set(report.entries) == {"roentgen", "standard", "roentgen_no_recoil_term"}
    assert report.entries["roentgen"].classification.kind == "power"
    assert report.entries["standard"].classification.kind == "logarithmic"
    assert report.verdict is not None
    assert "strictly more divergent" in report.verdict
    payload = json.dumps(report.as_json_dict())  # must be JSON-serializable
    assert "cumulative" in payload


@pytest.mark.parametrize("dist", [PointMass(np.zeros(3)),
                                  GaussianPacket.isotropic(np.zeros(3), 1e-3)],
                         ids=["rest", "packet"])
@pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 6], ids=["90deg", "30deg"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_divergence_verdict_follows_the_lambda_squared_coefficient(eps, theta, dist):
    # the default ladder 1e2..1e4: at eps = 1e-4 the fits read roentgen "convergent" and
    # standard "power", yet roentgen grows as Lambda^2 past 1/eps
    report = divergence_comparison(make_scenario(eps=eps, dist=dist),
                                   direction_from_angles(theta, 0.0, axis=E_D))
    assert "strictly more divergent" in report.verdict
    assert report.entries["roentgen"].exact_law["A"] == pytest.approx(
        0.5 * math.sin(theta) ** 2, rel=1e-14)
    assert (f"below 10/epsilon = {10 / eps:.6g}" in report.note) == (eps < 1e-2)
    assert ("pre-asymptotic" in report.note) == (eps < 1e-2)


@pytest.mark.parametrize("dist, ordered", [(PointMass(np.zeros(3)), False),
                                           (PointMass(np.array([1e-3, 2e-3, 0.0])), True)],
                         ids=["rest", "transverse"])
def test_divergence_verdict_along_the_dipole_axis(dist, ordered):
    # |e_perp|^2 = 0: A = 0 for every model and the standard scan is 0; a transverse
    # velocity gives the roentgen scan a logarithm (the fits read it so at eps = 1e-2)
    report = divergence_comparison(make_scenario(dist=dist), E_D)
    assert [e.exact_law["A"] for e in report.entries.values()] == [0.0, 0.0, 0.0]
    assert not np.any(report.entries["standard"].scan.values)
    assert (report.entries["roentgen"].scan.values[-1] > 0.0) == ordered
    assert report.verdict.startswith("roentgen strictly more divergent" if ordered
                                     else "no strict divergence ordering")


def test_exact_law_is_half_the_quotient_slope_of_every_node():
    dist = GaussianPacket.isotropic(np.array([1e-3, 2e-3, 0.0]), 1e-3)
    sc = make_scenario(dist=dist)
    # |e_perp|^2 times 1/2 (roentgen, k = -1), 0 (standard), 2 (no recoil term, k = -2)
    per_sin_sq = {"roentgen": 0.5, "standard": 0.0, "roentgen_no_recoil_term": 2.0}
    for theta in (0.0, 0.3, math.pi / 4, 2.0, math.pi / 2):
        n = direction_from_angles(theta, 0.0, axis=E_D)
        report = divergence_comparison(sc, n)
        proj = project(dist, n)
        lines = amplitudes.line_fractions(spectra._DIVERGENCE_MODELS, n, E_D, proj, sc.params)
        for model, q1 in zip(spectra._DIVERGENCE_MODELS, lines.q1):
            a = report.entries[model.label].exact_law["A"]
            assert a == pytest.approx(per_sin_sq[model.label] * math.sin(theta) ** 2,
                                      rel=1e-14, abs=1e-15)
            assert a == pytest.approx(0.5 * (proj.weights @ q1), rel=1e-14, abs=0.0)


def test_divergence_json_reports_the_exact_law_and_the_fit_reason():
    report = divergence_comparison(make_scenario(eps=1e-4), N_PERP)
    models = report.as_json_dict()["models"]
    assert {label: m["exact_law"] for label, m in models.items()} == {
        "roentgen": {"A": 0.5}, "standard": {"A": 0.0}, "roentgen_no_recoil_term": {"A": 2.0}}
    for label, m in models.items():
        assert m["fit_reason"] == report.entries[label].classification.details.get("reason")
    assert models["roentgen"]["fit_reason"] == "increments shrink as a power"
    assert models["standard"]["fit_reason"] is None  # a power fit that passed


def test_divergence_requires_finite_mass():
    sc = make_scenario(eps=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        divergence_comparison(sc, N_PERP)


# ---------------------------------------------------------------------------
# angular pattern
# ---------------------------------------------------------------------------

def test_pattern_reference_is_sin_squared():
    sc = make_scenario(eps=0.0)
    theta = np.linspace(0.0, np.pi, 25)
    pat = angular_pattern(sc, theta, mode="golden_rule")
    expected = 3.0 / (8.0 * np.pi) * np.sin(theta) ** 2
    assert np.allclose(pat.values, expected, atol=1e-14)


@pytest.mark.parametrize("variant", ["shifted", "unshifted"])
def test_golden_pattern_matches_tensor_rule(variant):
    dist = GaussianPacket(mean=np.array([1e-3, -5e-4, 2e-3]),
                          covariance=np.diag([4e-6, 1e-6, 2.25e-6]))
    sc = make_scenario(eps=0.01, dist=dist)
    theta = np.linspace(0.0, np.pi, 13)
    pat = angular_pattern(sc, theta, variant=variant, phi=0.4)
    model = CouplingModel(kind="roentgen", apply_momentum_shift=variant == "shifted")
    ref = []
    for t in theta:
        n = direction_from_angles(float(t), 0.4, axis=E_D)
        rates = lambda b, n=n: golden_rule_rates(b, n, E_D, sc.params, model)
        ref.append(sphere_pattern_value(expectation(dist, rates, order=40).value))
    assert np.max(np.abs(pat.values - ref)) <= 1e-12 * max(ref)


def test_golden_pattern_of_a_packet_reports_its_hermite_error(monkeypatch):
    # every direction keeps the ladder's second rung: the golden rate there, with its change
    # from the first rung as its error and the nodes of both as its evaluations; a packet
    # whose rate needs more than the last rung raises
    kept = spy_hermite_orders(monkeypatch, rates)
    dist = GaussianPacket.isotropic([1e-3, 0.0, 2e-3], 1e-2)
    theta = np.linspace(0.0, np.pi, 7)
    n = direction_from_angles(theta, 0.0, axis=E_D)
    rate = golden_rule_mean_rate(project(dist, n), n, E_D,
                                 DimensionlessParams(0.01, 0.01), CouplingModel.roentgen())
    assert rate.converged.all() and np.all(kept[0] == wavepacket.HERMITE_LADDER[1])
    assert np.all(rate.evaluations == sum(wavepacket.HERMITE_LADDER[:2]))
    assert np.all(rate.error_estimate <= 1e-9 * rate.value)
    wide = make_scenario(eps=0.01, dist=GaussianPacket.isotropic(np.zeros(3), 0.2))
    with pytest.raises(NumericalError, match="angular pattern did not converge at theta = 0 "):
        angular_pattern(wide, theta)
    loose = angular_pattern(wide, theta, tol=1e-6)
    assert np.all(np.isfinite(loose.values))


# A rank-one packet along x: at phi = 0 the rows theta = 0 and pi have n.S.n = 0 to rounding
# (the point law) among Gaussian rows; at phi = pi/2 every row does.
@pytest.mark.parametrize("dist, phi", [
    (GaussianPacket.along_direction(np.zeros(3), 1e-3, [1.0, 0.0, 0.0]), 0.0),
    (GaussianPacket.along_direction(np.zeros(3), 1e-3, [1.0, 0.0, 0.0]), math.pi / 2),
    (PointMass(np.array([1e-3, -2e-3, 5e-4])), 0.4),
], ids=["rank_one_phi0", "rank_one_phi90", "point_mass"])
@pytest.mark.parametrize("variant", ["shifted", "unshifted"])
def test_golden_pattern_on_degenerate_directions_matches_one_direction_at_a_time(dist, phi,
                                                                                 variant):
    sc = make_scenario(eps=0.01, dist=dist)
    theta = np.linspace(0.0, np.pi, 37)
    pat = angular_pattern(sc, theta, variant=variant, phi=phi)
    model = CouplingModel(kind="roentgen", apply_momentum_shift=variant == "shifted")
    ref = [sphere_pattern_value(golden_rule_mean_rate(project(dist, n), n, E_D, sc.params,
                                                      model).value)
           for n in direction_from_angles(theta, phi, axis=E_D)]
    assert np.all(np.isfinite(pat.values))
    np.testing.assert_allclose(pat.values, ref, rtol=1e-14, atol=0.0)


def test_pattern_integrated_requires_formfactor():
    sc = make_scenario()
    theta = np.linspace(0.0, np.pi, 5)
    with pytest.raises(PhysicsRejection, match="formfactor"):
        angular_pattern(sc, theta, mode="integrated")
    with pytest.raises(PhysicsRejection):
        angular_pattern(sc, theta, Formfactor.none(), mode="integrated")


def test_pattern_integrated_standard_model_is_cutoff_dependent_without_formfactor():
    sc = make_scenario(model=CouplingModel.standard())
    with pytest.raises(PhysicsRejection, match="cutoff-dependent without a formfactor"):
        angular_pattern(sc, np.linspace(0.0, np.pi, 5), mode="integrated")


def test_pattern_integrated_without_recoil_growth_is_cutoff_dependent_without_formfactor():
    # k = 0 (neither recoil term nor momentum shift): the bracket is 1 - delta, and the
    # integral grows as ln(Lambda), not as Lambda^2
    model = CouplingModel(kind="roentgen", include_recoil_term=False, apply_momentum_shift=False)
    sc = make_scenario(model=model)
    with pytest.raises(PhysicsRejection, match="cutoff-dependent without a formfactor"):
        angular_pattern(sc, np.linspace(0.0, np.pi, 5), mode="integrated")
    lambdas = quadrature.geometric_cutoffs()
    values = [directional_probability(sc, N_PERP, Formfactor.none(), lam).value
              for lam in lambdas]
    scan = quadrature.CutoffScan(lambdas=lambdas, values=np.array(values),
                                 errors=np.zeros(lambdas.size), evaluations=0, converged=True)
    assert quadrature.classify_tail(scan).kind == "logarithmic"


def test_pattern_integrated_with_formfactor():
    sc = make_scenario()
    theta = np.linspace(0.0, np.pi, 7)
    ff = Formfactor(kind="gaussian", cutoff=10.0)
    pat = angular_pattern(sc, theta, ff, mode="integrated")
    assert pat.values.shape == (7,)
    assert np.all(pat.values >= 0)
    # dipole pattern: equatorial maximum, axial zeros suppressed
    assert pat.values[3] > 10 * pat.values[0]


@pytest.mark.parametrize("kind, cutoff", [("sharp", 50.0), ("gaussian", 10.0),
                                          ("exponential", 3.0)])
@pytest.mark.parametrize("dist", [PointMass(np.array([1e-3, 3e-3, -2e-3])),
                                  GaussianPacket.isotropic([1e-3, 2e-3, 0.0], 1e-3)],
                         ids=["point", "gaussian"])
def test_integrated_pattern_is_the_probability_per_direction(dist, kind, cutoff):
    # one call on the stack of directions gives each row as the call on that direction
    # alone; a Gaussian's half-order check at the stack's node count instead of the
    # direction's changed its errors and evaluations
    sc, ff = make_scenario(dist=dist), Formfactor(kind=kind, cutoff=cutoff)
    theta, upper = np.linspace(0.0, np.pi, 9), ff.suggested_upper_limit()
    directions = direction_from_angles(theta, 0.3, axis=E_D)
    stack = directional_probability(sc, directions, ff, upper, tol=1e-10)
    rows = [directional_probability(sc, n, ff, upper, tol=1e-10) for n in directions]
    values = [r.value for r in rows]
    assert all(np.shape(getattr(stack, name)) == (9,)
               for name in ("value", "error_estimate", "evaluations", "converged"))
    np.testing.assert_allclose(stack.value, values, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(stack.error_estimate, [r.error_estimate for r in rows],
                               rtol=1e-14, atol=1e-15 * max(values))
    assert stack.evaluations.tolist() == [r.evaluations for r in rows]
    assert stack.converged.tolist() == [r.converged for r in rows] == [True] * 9
    pattern = angular_pattern(sc, theta, ff, mode="integrated", phi=0.3, tol=1e-10)
    np.testing.assert_allclose(pattern.values, values, rtol=1e-14, atol=0.0)


def test_pattern_mode_and_variant_plumbing():
    sc = make_scenario()
    theta = np.linspace(0.0, np.pi, 9)
    a = angular_pattern(sc, theta, mode="golden_rule", variant="unshifted")
    b = angular_pattern(sc, theta, mode="golden_rule", variant="shifted")
    # same shape, different eps-order values
    assert not np.allclose(a.values, b.values)
    with pytest.raises(ValueError):
        angular_pattern(sc, theta, mode="modal")


def test_golden_pattern_variant_defaults_to_the_coupling():
    # without a variant, the scenario coupling's momentum shift decides (it was "shifted")
    sc = make_scenario()
    no_shift = dataclasses.replace(sc, coupling=CouplingModel(kind="roentgen",
                                                             apply_momentum_shift=False))
    theta = np.linspace(0.0, np.pi, 9)
    for scenario, variant in ((sc, "shifted"), (no_shift, "unshifted")):
        pat = angular_pattern(scenario, theta)
        assert pat.metadata["variant"] == variant
        assert np.array_equal(pat.values, angular_pattern(sc, theta, variant=variant).values)


def test_scenario_kappa():
    sc = make_scenario(gt=0.01)
    assert sc.kappa == pytest.approx(3 * 0.01 / (16 * np.pi**2), rel=1e-15)
