import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from movingatom import amplitudes, cauchy, lineshape
from movingatom.amplitudes import (DiscreteModeSystem, compare_to_pole,
                                   detuning, discrete_mode_evolution, fit_decay_rate,
                                   flat_band_system, lorentzian_denominator,
                                   perpendicular_kernel, pole_mode_populations,
                                   spectral_kernel)
from movingatom.coupling import CouplingModel, conditional_polarization_sum
from movingatom.quadrature import NumericalError
from movingatom.units import DimensionlessParams
from movingatom.wavepacket import GaussianPacket, PointMass, project

rng = np.random.default_rng(90210)


def test_detuning_values():
    assert detuning(1.0, 0.0, 0.0) == 0.0
    assert detuning(1.0, 0.0, 0.01) == pytest.approx(-0.01, rel=1e-15)
    # resonance moves to x = 1/(1 - delta) when eps = 0
    assert detuning(1.0 / 0.9, 0.1, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_kernel_peak_height_at_rest():
    # on exact resonance the denominator is gamma_tilde^2/4 alone
    params = DimensionlessParams(epsilon=0.0, gamma_tilde=0.01)
    rho = perpendicular_kernel(np.array([1.0]), 0.0, params)
    assert rho[0] == pytest.approx(4.0 / 0.01**2, rel=1e-12)  # = 40000
    assert perpendicular_kernel(np.array([0.0]), 0.0, params)[0] == 0.0


def test_kernel_far_tail_value():
    # x = 1000 at eps = 0.01: numerator (1 - eps x)^2 = 81, detuning -10999
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=0.01)
    rho = perpendicular_kernel(np.array([1000.0]), 0.0, params)
    expected = 1000.0 * 81.0 / (10999.0**2 + 0.25 * 0.01**2)
    assert rho[0] == pytest.approx(expected, rel=1e-12)
    assert rho[0] == pytest.approx(6.6954e-4, rel=1e-4)


def test_perpendicular_kernel_equals_general_engine():
    e_d = np.array([0.0, 0.0, 1.0])
    n = np.array([1.0, 0.0, 0.0])
    model = CouplingModel.roentgen()
    for _ in range(100):
        params = DimensionlessParams(epsilon=float(rng.uniform(0, 0.05)),
                                     gamma_tilde=float(rng.uniform(1e-4, 0.1)))
        delta = float(rng.uniform(-0.2, 0.2))
        x = float(rng.uniform(0.1, 3.0))
        beta = delta * n + np.array([0.0, float(rng.normal(scale=0.05)), 0.0])
        general = float(spectral_kernel(model, x, n, beta, params, e_d))
        closed = float(perpendicular_kernel(np.array([x]), delta, params)[0])
        assert general == pytest.approx(closed, rel=1e-12)


def test_kernel_model_variants_differ_only_in_numerator():
    params = DimensionlessParams(epsilon=0.02, gamma_tilde=0.01)
    x = np.array([1.7])
    denom = lorentzian_denominator(x, 0.0, params)
    standard = perpendicular_kernel(x, 0.0, params, CouplingModel.standard())
    assert standard[0] == pytest.approx(float(x[0] / denom[0]), rel=1e-14)


def test_emission_integrand_growth_laws():
    """x^2 * rho grows ~x (velocity-dependent coupling) vs ~1/x (standard)
    once eps*x >> 1; the log-log slope is fitted far past the turnover."""
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=0.01)
    x = np.geomspace(1e4, 1e6, 41)
    w_roentgen = x * x * perpendicular_kernel(x, 0.0, params)
    slope_r = np.polyfit(np.log(x), np.log(w_roentgen), 1)[0]
    assert slope_r == pytest.approx(1.0, abs=0.05)
    w_standard = x * x * perpendicular_kernel(x, 0.0, params, CouplingModel.standard())
    slope_s = np.polyfit(np.log(x), np.log(w_standard), 1)[0]
    assert slope_s == pytest.approx(-1.0, abs=0.05)


# ---------------------------------------------------------------------------
# discrete-mode oracle
# ---------------------------------------------------------------------------

def test_flat_band_coupling_strength():
    sys = flat_band_system(101, 0.05, 1e-3)
    dx = sys.x[1] - sys.x[0]
    assert np.allclose(sys.g, np.sqrt(1e-3 * dx / (2 * np.pi)), rtol=1e-12)
    assert sys.x.size == 101
    # band is centered on the resonance
    assert sys.x[50] == pytest.approx(1.0, abs=1e-12)


def test_flat_band_center_tracks_doppler_and_recoil():
    sys = flat_band_system(51, 0.02, 1e-3, delta=0.1, epsilon=0.0)
    assert sys.x[25] == pytest.approx(1.0 / 0.9, rel=1e-12)


def test_mode_grid_must_increase():
    with pytest.raises(ValueError):
        DiscreteModeSystem(x=np.array([1.0, 1.0, 1.1]),
                           g=np.full(3, 0.01))


@pytest.mark.parametrize("x, g, match", [
    ([[1.0, 1.1]], [[0.01, 0.01]], "nonempty 1D"), ([], [], "nonempty 1D"),
    ([1.0, 1.1], [0.01, 0.01, 0.01], "couplings must match")],
    ids=["two-dimensional", "empty", "mismatched"])
def test_mode_grid_and_couplings_must_be_matching_nonempty_vectors(x, g, match):
    with pytest.raises(ValueError, match=match):
        DiscreteModeSystem(x=np.array(x), g=np.array(g))


def test_flat_band_needs_two_modes():
    with pytest.raises(ValueError, match="at least two modes"):
        flat_band_system(1, 0.05, 1e-3)


def test_mode_grid_must_be_finite():
    # np.diff(x) <= 0 is False next to a NaN, so the ordering check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        DiscreteModeSystem(x=np.array([1.0, np.nan, 1.2]),
                           g=np.full(3, 0.1))


def evolution_matrix(system):
    """Dense generator M of the linear system dy/dtau = M y, y = [a, b]: da/dtau = -g.b,
    db/dtau = i D b + g a, for a solution by a method that shares nothing with the
    secular equation's."""
    n = system.x.size
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 1:] = -system.g
    m[1:, 0] = system.g
    m[np.arange(1, n + 1), np.arange(1, n + 1)] = 1j * system.detunings
    return m


def expm_state(system, tau):
    """Full state [a, b] at tau from scipy's dense matrix exponential."""
    state0 = np.zeros(system.x.size + 1, dtype=complex)
    state0[0] = 1.0
    return expm(evolution_matrix(system) * tau) @ state0


SECULAR_SOLUTION = ("_secular_roots", "_lowner", "CauchySums")


def test_exact_evolution_matches_matrix_exponential(monkeypatch):
    # a detuned, recoiling band small enough for expm; the secular solution first, then
    # the reference with every SECULAR_SOLUTION binding stubbed: it may use only the
    # system's detunings (`detuning`)
    sys = flat_band_system(101, 0.05, 1e-2, delta=0.007, epsilon=0.003)
    res = discrete_mode_evolution(sys, 1000.0, dt=0.25, record_every=400)

    def stub(*args, **kwargs):
        raise AssertionError("the reference reached the secular solution")

    for module in (amplitudes, cauchy):
        for name in SECULAR_SOLUTION:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stub)
    with pytest.raises(AssertionError, match="secular solution"):
        discrete_mode_evolution(sys, 1000.0, dt=0.25, record_every=400)
    assert np.max(np.abs(res.final_state - expm_state(sys, res.steps * res.dt))) <= 1e-12
    pops = [abs(expm_state(sys, t)[0]) ** 2 for t in res.times]
    assert np.max(np.abs(res.atom_population - pops)) <= 1e-12


def test_norm_conservation_reported():
    sys = flat_band_system(201, 0.05, 1e-3)
    res = discrete_mode_evolution(sys, 2000.0, dt=0.25, record_every=400)
    assert res.norm_ok
    assert res.max_norm_drift < 1e-10
    assert 0.0 <= res.extras["backward_error"] <= 1e-15
    assert res.max_norm_drift >= 2.0 * res.times[-1] * res.extras["backward_error"]


def test_norm_drift_is_measured(monkeypatch):
    # weights 0.1% low scale the whole state: |y(T)|^2 = 1/1.001^2 is about 2e-3 short of 1
    exact = amplitudes._reconstruct

    def skewed(d, sigma, nu, w, times):
        return exact(d, sigma, nu, w / 1.001, times)

    monkeypatch.setattr(amplitudes, "_reconstruct", skewed)
    res = discrete_mode_evolution(flat_band_system(101, 0.05, 1e-3), 1000.0, dt=0.25,
                                  record_every=400)
    assert res.max_norm_drift == pytest.approx(2e-3, rel=1e-2)
    assert not res.norm_ok


def test_perturbed_roots_are_flagged(monkeypatch):
    # roots 1e-6 off (relative to their distance from the origin pole) are exact for
    # couplings about 2e-9 away from g; over t = 1000 that allows a norm error of 4e-6
    exact = amplitudes._secular_roots

    def perturbed(d, z):
        sigma, nu, fp, sums, work = exact(d, z)
        return sigma, nu * (1.0 + 1e-6), fp, sums, work

    monkeypatch.setattr(amplitudes, "_secular_roots", perturbed)
    sys = flat_band_system(101, 0.05, 1e-3)
    res = discrete_mode_evolution(sys, 1000.0, dt=0.25, record_every=400)
    assert res.extras["backward_error"] > 1e-9
    assert res.max_norm_drift > 1e-6
    assert not res.norm_ok
    # the bound behind the certificate: |y(T) - y_exact(T)| <= T ||A_hat - A|| (5.5e-7 <= 2.0e-6)
    bound = res.times[-1] * res.extras["backward_error"]
    assert np.linalg.norm(res.final_state - expm_state(sys, res.times[-1])) <= bound


def test_uncoupled_band_leaves_the_atom_excited():
    # every coupling 0: no pole survives deflation, and nothing leaves the atom
    sys = DiscreteModeSystem(x=np.linspace(0.95, 1.05, 11), g=np.zeros(11))
    res = discrete_mode_evolution(sys, 100.0, dt=0.5, record_every=20)
    assert res.extras["poles"] == 0
    assert np.all(res.atom_population == 1.0)
    assert np.all(res.mode_populations == 0.0)
    assert res.norm_ok


def test_recording_grid_is_the_stepper_grid():
    # the grid a fixed-step integrator records: every record_every-th step and the last
    sys = flat_band_system(101, 0.05, 1e-3)
    for t_final, dt, every in [(1000.0, 0.25, 400), (999.9, 0.3, 7), (50.0, 1.0, 50)]:
        n_steps = int(np.ceil(t_final / dt))
        times = [0.0] + [step * dt for step in range(1, n_steps + 1)
                         if step % every == 0 or step == n_steps]
        res = discrete_mode_evolution(sys, t_final, dt=dt, record_every=every)
        assert res.steps == n_steps and res.dt == dt
        assert res.times.tolist() == times
        assert res.atom_population.shape == res.times.shape


def dense_secular(d, z, sigma, nu, dtype=float):
    """The dense secular function, every pole summed: f(mu) = mu + sum_j z_j/(d_j - mu),
    f'(mu) and the rounding scale |sigma| + |nu| + sum_j |z_j/(d_j - mu)| at mu = sigma +
    nu, with d_j - mu formed as (d_j - sigma) - nu, 16 roots at a time, in `dtype`."""
    d, z, sigma, nu = (np.asarray(a, dtype=dtype) for a in (d, z, sigma, nu))
    f, fp, scale = (np.empty(sigma.size, dtype=dtype) for _ in range(3))
    for lo in range(0, sigma.size, 16):
        b = 1 / ((d - sigma[lo:lo + 16, None]) - nu[lo:lo + 16, None])
        f[lo:lo + 16], scale[lo:lo + 16], fp[lo:lo + 16] = b @ z, np.abs(b) @ z, (b * b) @ z
    return f + (sigma + nu), fp + 1, scale + np.abs(sigma) + np.abs(nu)


def random_arrowhead(k=37):
    """Poles and weights of a random arrowhead, its secular roots, and the Loewner sweep."""
    gen = np.random.default_rng(37)
    d, z = np.sort(gen.uniform(-1.0, 1.0, k)), gen.uniform(1e-3, 1e-1, k)
    sigma, nu, fp, sums, _ = amplitudes._secular_roots(d, z)
    return d, z, sigma, nu, *amplitudes._lowner(sums, sigma, nu, fp)


def test_lowner_weights_match_dense_masked_product():
    # one box, every pole near: the same ratios as one dense masked product
    d, z, sigma, nu, zhat, _ = random_arrowhead()
    np.testing.assert_allclose(zhat, dense_lowner(d, sigma, nu), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(zhat, z, rtol=1e-13)
    # the roots are the eigenvalues of the arrowhead with couplings sqrt(zhat)
    arrow = np.diag(np.append(np.sum(sigma + nu) - np.sum(d), d))
    arrow[0, 1:] = arrow[1:, 0] = np.sqrt(zhat)
    assert np.max(np.abs(np.linalg.eigvalsh(arrow) - np.sort(sigma + nu))) <= 1e-14


def test_fused_eigenvector_weights_match_secular_derivative():
    d, _, sigma, nu, zhat, w = random_arrowhead()
    np.testing.assert_allclose(w, 1.0 / dense_secular(d, zhat, sigma, nu)[1],
                               rtol=1e-14, atol=0.0)
    sys = flat_band_system(201, 0.05, 1e-3, delta=0.007, epsilon=0.003)
    d, z, _, _ = amplitudes._poles(-sys.detunings, sys.g)
    sigma, nu, fp, sums, _ = amplitudes._secular_roots(d, z)
    zhat, w = amplitudes._lowner(sums, sigma, nu, fp)
    np.testing.assert_allclose(w, 1.0 / dense_secular(d, zhat, sigma, nu)[1],
                               rtol=1e-14, atol=0.0)


def band_poles(*args, **kwargs):
    sys = flat_band_system(*args, **kwargs)
    return amplitudes._poles(-sys.detunings, sys.g)[:2]


def _weights(k):
    return np.random.default_rng(k).uniform(0.5, 1.5, k) * 1e-8


# pole sets of K >= 1000 poles that the near/far sums must treat as the dense ones do
POLE_SETS = {
    "flat_band": lambda: band_poles(2001, 0.05, 1e-3),
    "detuned_recoiling_band": lambda: band_poles(1001, 0.05, 1e-3, delta=0.012, epsilon=0.004),
    "uniform_random": lambda: (np.sort(np.random.default_rng(5).uniform(-0.05, 0.05, 1500)),
                               _weights(1500)),
    # dense at 0, sparse at the ends: boxes of every width
    "graded": lambda: (0.05 * np.linspace(-1.0, 1.0, 1200) ** 3, _weights(1200)),
    # two bands 1e-4 wide, 0.1 apart: boxes straddling the gap are 1000 times wider
    "two_clusters": lambda: (np.concatenate((np.linspace(-0.05, -0.0499, 700),
                                             np.linspace(0.05, 0.0501, 700))), _weights(1400)),
}


def near_far_sums(d, z):
    """The root search's near/far sums of the poles d and each root's box."""
    box = np.arange(d.size + 1) // cauchy.BOX
    box[[0, -1]] = -1
    return cauchy.CauchySums(d, d, np.zeros(d.size), z, derivative=True), box


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the dense reference needs an extended-precision long double")
@pytest.mark.parametrize("name", POLE_SETS)
def test_near_far_secular_sums_match_dense_sums(name):
    # the reference sums every pole in long double: the dense sum in double is itself up to
    # 8 eps scale off at the roots of the flat band, where large terms cancel
    d, z = POLE_SETS[name]()
    sums, box = near_far_sums(d, z)
    assert sums.far_nodes > 0
    sigma, nu, *_ = amplitudes._secular_roots(d, z)
    # at the roots (the outer ones included) and at every interior interval's midpoint
    points = [(box, sigma, nu), (box[1:-1], d[:-1], 0.5 * np.diff(d))]
    eps = np.finfo(float).eps
    for where, s, v in points:
        f, fp, scale = amplitudes._secular(sums, where, s, v)
        f_ref, fp_ref, scale_ref = dense_secular(d, z, s, v, dtype=np.longdouble)
        assert np.max(np.abs(f - f_ref) / scale_ref) <= 2.0 * eps
        assert np.max(np.abs(fp - fp_ref) / fp_ref) <= 1e-14
        assert np.max(np.abs(scale - scale_ref) / scale_ref) <= 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the dense reference needs an extended-precision long double")
@pytest.mark.parametrize("name", POLE_SETS)
def test_near_far_mode_sums_match_dense_sums(name):
    # S_p = sum_k v_k/(mu_k - d_p) against every root summed in long double, relative to
    # sum_k |v_k/(mu_k - d_p)|; the dense sum in double is off by up to 4.6 eps of it
    d, z = POLE_SETS[name]()
    sigma, nu, fp, sums, _ = amplitudes._secular_roots(d, z)
    _, w = amplitudes._lowner(sums, sigma, nu, fp)
    mu = sigma + nu
    last = np.column_stack((w * np.cos(mu * 1.4e4), -w * np.sin(mu * 1.4e4)))
    s = amplitudes._mode_sums(d, sigma, nu, last)
    ld = np.longdouble
    v, mu_sigma, mu_nu = last.astype(ld), sigma.astype(ld), nu.astype(ld)
    for lo in range(0, d.size, 64):
        inv = 1 / ((mu_sigma - d[lo:lo + 64, None].astype(ld)) + mu_nu)  # 1/(mu_k - d_p)
        ref, size = inv @ v, np.abs(inv) @ np.hypot(v[:, 0], v[:, 1])
        err = np.hypot((s[lo:lo + 64].real - ref[:, 0]).astype(float),
                       (s[lo:lo + 64].imag - ref[:, 1]).astype(float))
        assert np.max(err / size.astype(float)) <= 4.0 * np.finfo(float).eps


def dense_lowner(d, sigma, nu, dtype=float):
    """Loewner's z_hat_p = -prod_k (d_p - mu_k) / prod_{j != p} (d_p - d_j) over every pole and
    root, with the ratios paired as `_lowner` pairs them and d_p - mu_k = (d_p - sigma_k) -
    nu_k, 64 poles at a time, in `dtype`."""
    d, sigma, nu = (np.asarray(a, dtype=dtype) for a in (d, sigma, nu))
    zhat, j = np.empty(d.size, dtype=dtype), np.arange(d.size)
    for lo in range(0, d.size, 64):
        p, dp = j[lo:lo + 64, None], d[lo:lo + 64, None]
        m = (dp - sigma) - nu
        ratio = np.where(j < p, m[:, :-1], np.where(j > p, m[:, 1:], -m[:, :-1] * m[:, 1:]))
        zhat[lo:lo + 64] = np.prod(ratio / np.where(j == p, 1, dp - d), axis=1)
    return zhat


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the dense reference needs an extended-precision long double")
@pytest.mark.parametrize("name", POLE_SETS)
def test_near_far_lowner_matches_dense_product(name):
    # z_hat against every ratio multiplied in long double, and w against 1/f'(mu) with the
    # weights z_hat summed over every pole in long double: read at most 1.1e-14 and 1.4e-15
    # (the dense product in double: 1.4e-14 and 2.0e-15)
    d, z = POLE_SETS[name]()
    sigma, nu, fp, sums, _ = amplitudes._secular_roots(d, z)
    assert sums.far_nodes > 0
    zhat, w = amplitudes._lowner(sums, sigma, nu, fp)
    ref = dense_lowner(d, sigma, nu, dtype=np.longdouble)
    assert np.max(np.abs((zhat - ref) / ref)) <= 2e-14
    ref = 1 / dense_secular(d, zhat, sigma, nu, dtype=np.longdouble)[1]
    assert np.max(np.abs((w - ref) / ref)) <= 4e-15
    assert abs(1.0 - w.sum()) <= 4.0 * np.finfo(float).eps


def test_small_pole_sets_sum_every_pole_exactly():
    # up to ALL_NEAR boxes every pole is near: the sums are the dense ones
    d, z = band_poles(cauchy.ALL_NEAR * cauchy.BOX, 0.05, 1e-3)
    sums, box = near_far_sums(d, z)
    assert sums.far_nodes == 0
    assert sums.near_terms(box) == (d.size + 1) * d.size
    sigma, nu, *_ = amplitudes._secular_roots(d, z)
    np.testing.assert_allclose(amplitudes._secular(sums, box, sigma, nu),
                               dense_secular(d, z, sigma, nu), rtol=1e-15, atol=1e-15)


def test_chebyshev_fit_recovers_a_full_degree_series():
    # any series of degree NODES - 1 is its own interpolant: the fit, which every far sum
    # is set up by, recovers every coefficient, the last one included, also under a mean
    # 1e3 times larger; and the evaluation matches numpy's
    coef = np.random.default_rng(24).standard_normal((cauchy.NODES, 2))
    coef[0, 1] = 1e3
    values = np.polynomial.chebyshev.chebval(cauchy.chebyshev_points(), coef)
    np.testing.assert_allclose(cauchy.chebyshev_fit(values.T), coef, rtol=0.0, atol=1e-13)
    t = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_allclose(cauchy.chebyshev(t) @ coef,
                               np.polynomial.chebyshev.chebval(t, coef).T, rtol=0.0, atol=1e-12)


def test_near_far_oracle_at_4001_modes(monkeypatch):
    # a detuned, recoiling band larger than any benchmark band
    sys = flat_band_system(4001, 0.05, 1e-3, delta=0.012, epsilon=0.004)
    res = discrete_mode_evolution(sys, 14.0 / 1e-3, dt=0.25, record_every=100)
    assert res.norm_ok and res.max_norm_drift <= 1e-11
    d, z = amplitudes._poles(-sys.detunings, sys.g)[:2]
    sigma, nu, *_, work = amplitudes._secular_roots(d, z)
    assert work["secular_iterations"] == res.extras["secular_iterations"] == 4
    monkeypatch.setattr(amplitudes, "_secular",
                        lambda sums, box, s, v: dense_secular(d, z, s, v))
    sigma_ref, nu_ref, *_ = amplitudes._secular_roots(d, z)
    assert np.array_equal(sigma, sigma_ref)
    gap = np.diff(d)
    # interval k = (d[k-1], d[k]); the outer roots are measured against their neighbour gap
    width = np.concatenate((gap[:1], gap, gap[-1:]))
    assert np.all(np.abs(nu - nu_ref) <= 4.0 * np.spacing(width))


@pytest.mark.parametrize("t_final, dt, every", [
    (1000.0, 0.25, 7),  # 4000 steps, not a multiple of record_every
    (10.0, 0.25, 100),  # record_every beyond the run: only 0 and T
    (50.0, 0.25, 1),  # every step
])
def test_separable_amplitudes_match_direct_phase_sum(t_final, dt, every):
    sys = flat_band_system(101, 0.05, 1e-3, delta=0.007, epsilon=0.003)
    d, z, _, _ = amplitudes._poles(-sys.detunings, sys.g)
    sigma, nu, fp, sums, _ = amplitudes._secular_roots(d, z)
    _, w = amplitudes._lowner(sums, sigma, nu, fp)
    n_steps = int(np.ceil(t_final / dt))
    times = np.append(np.arange(0, n_steps, every), n_steps) * dt
    amp, _ = amplitudes._reconstruct(d, sigma, nu, w, times)
    direct = np.exp(-1j * np.multiply.outer(times, sigma + nu)) @ w
    assert amp.shape == times.shape
    assert np.max(np.abs(amp - direct)) <= 1e-14


# D = 1 + x/2 - x^2/4 at delta = 1.5, eps = 0.25 is symmetric about x = 1: x = 0.9 and 1.1
# share a detuning, and the five-mode grid's detunings are not monotonic in x. A coupling
# of 1e-10 puts a root 2.5e-19 from its pole at 0.05, below the pole's last digit (6.9e-18).
SPECIAL_CASES = {
    "zero_coupling": (DiscreteModeSystem(x=np.array([0.95, 1.0, 1.05, 1.1]),
                                         g=np.array([0.02, 0.0, 0.03, 0.025])), 3),
    "weak_coupling": (DiscreteModeSystem(x=np.array([0.95, 1.0, 1.05, 1.1]),
                                         g=np.array([0.02, 0.03, 1e-10, 0.025])), 4),
    "equal_detunings": (DiscreteModeSystem(x=np.array([0.9, 1.1]), g=np.array([0.02, 0.03]), delta=1.5, epsilon=0.25), 1),
    "unsorted_detunings": (DiscreteModeSystem(x=np.array([0.6, 0.85, 1.05, 1.3, 1.45]),
                                              g=np.array([0.02, 0.03, 0.01, 0.025, 0.015]), delta=1.5, epsilon=0.25), 5),
    # six pairs of modes 1e-9 apart, far above the deflation tolerance: each pair keeps
    # two poles and has a root between them
    "clustered_poles": (DiscreteModeSystem(x=np.repeat(np.linspace(0.96, 1.04, 6), 2)
                                           + np.tile([0.0, 1e-9], 6),
                                           g=np.linspace(0.01, 0.03, 12)), 12),
    # one mode has no spacing and so no revival time
    "single_mode": (DiscreteModeSystem(x=np.array([1.02]), g=np.array([0.03])), 1),
}


@pytest.mark.parametrize("case", SPECIAL_CASES)
def test_special_systems_match_matrix_exponential(case):
    sys, poles = SPECIAL_CASES[case]
    res = discrete_mode_evolution(sys, 10.0, dt=0.05, record_every=20)
    assert res.extras["poles"] == poles
    assert np.all(res.final_state[1:][sys.g == 0.0] == 0.0)
    assert np.max(np.abs(res.final_state - expm_state(sys, 10.0))) <= 1e-12


def test_revival_guard():
    sys = flat_band_system(51, 0.01, 1e-3)  # sparse grid -> early revival
    spacing = sys.x[1] - sys.x[0]
    with pytest.raises(ValueError, match="revival"):
        discrete_mode_evolution(sys, 10.0 * 2 * np.pi / spacing, dt=0.25)


def test_fit_decay_rate_on_synthetic_exponential():
    t = np.linspace(0.0, 3000.0, 301)
    pops = np.exp(-1.1e-3 * t)
    rate = fit_decay_rate(t, pops, (200.0, 2500.0))
    assert rate == pytest.approx(1.1e-3, rel=1e-10)


def test_pole_populations_follow_lorentzian():
    sys = flat_band_system(301, 0.05, 1e-3)
    pops = pole_mode_populations(sys, 1e-3)
    d = detuning(sys.x, 0.0, 0.0)
    expected = sys.g**2 / (d * d + 0.25e-6)
    assert np.allclose(pops, expected, rtol=1e-13)


def test_compare_to_pole_small_run():
    sys = flat_band_system(401, 0.05, 1e-3)
    res = discrete_mode_evolution(sys, 6000.0, dt=0.25, record_every=200)
    out = compare_to_pole(sys, res, 1e-3)
    assert out["norm_ok"]
    assert out["rate_ratio"] == pytest.approx(1.0, abs=0.05)
    assert out["n_modes"] == 401
    assert 0.0 <= out["l2_shape_error"] < 0.2  # short run, coarse bath: loose bound


@pytest.mark.parametrize("model", [CouplingModel.roentgen(), CouplingModel.standard()])
def test_line_integral_overflow_names_the_upper_limit(model):
    # U^2/2 overflows at U = 1e200: the quadratic term is inf (roentgen) or 0 * inf = nan
    # (standard); an error naming U, not a numpy warning
    n, e_d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    lines = lineshape.line_fractions((model,), n, e_d, project(PointMass(np.zeros(3)), n),
                                      DimensionlessParams(epsilon=0.01, gamma_tilde=0.01))
    assert np.all(np.isfinite(lines.integral([1e2, 1e3])))
    with pytest.raises(NumericalError, match=r"up to x = 1e\+200 is not finite"):
        lines.integral([1e2, 1e200, 1e300])


@pytest.mark.parametrize("eps", [0.01, 0.0])
def test_line_fractions_evaluate_the_polarization_sum_once(monkeypatch, eps):
    # one call on the points stacked on a leading axis: both poles and +-1/eps (it took four,
    # one per point), or the near pole alone at eps = 0
    seen = []

    def counted(*args):
        seen.append(np.shape(args[1]))
        return conditional_polarization_sum(*args)

    monkeypatch.setattr(lineshape, "conditional_polarization_sum", counted)
    n, e_d = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.0, 1.0])
    proj = project(GaussianPacket.isotropic([1e-3, 2e-3, 0.0], 1e-3), n)
    lineshape.line_fractions((CouplingModel.roentgen(),), n, e_d, proj,
                              DimensionlessParams(epsilon=eps, gamma_tilde=0.01))
    assert seen == [(4 if eps else 1, proj.nodes.size)]


def _far_forms(lines, x):
    """s(x) as both far-pole forms evaluated everywhere and one kept per point (np.where)."""
    far, rf, x = lines.far[..., None], lines.far_residue[..., None], np.asarray(x)[None, :]
    taylor = lines.s0[..., None] + lines.s1[..., None] * x
    taylor = taylor + 2.0 * np.real(rf / (far * far) * (x * x / (x - far)))
    direct = lines.q0[..., None] + lines.q1[..., None] * x + 2.0 * np.real(rf / (x - far))
    return np.where(np.abs(x / far) < 1.0, taylor, direct)


@pytest.mark.parametrize("x, unused", [
    (np.linspace(0.0, 90.0, 7), "q0"),  # |z_far| ~ 100: inside only, the direct form unused
    (np.linspace(120.0, 900.0, 7), "s0"),  # outside only, the Taylor form unused
    (np.linspace(0.0, 900.0, 7), None),  # both sides
], ids=["inside", "outside", "both"])
def test_smooth_evaluates_only_the_far_forms_it_uses(x, unused):
    n, e_d = np.array([[0.6, 0.0, 0.8], [1.0, 0.0, 0.0]]), np.array([0.0, 0.0, 1.0])
    proj = project(GaussianPacket.isotropic([1e-3, 2e-3, 0.0], 1e-3), n)
    lines = lineshape.line_fractions((CouplingModel.roentgen(),), n, e_d, proj,
                                      DimensionlessParams(0.01, 0.01))
    assert np.array_equal(lines.smooth(x)[0], _far_forms(lines, x)[0])
    if unused:  # a form that no point takes is not evaluated: its coefficient may be absent
        assert np.array_equal(dataclasses.replace(lines, **{unused: None}).smooth(x)[0],
                              _far_forms(lines, x)[0])


_FUZZ_MODELS = {"roentgen": CouplingModel.roentgen(), "standard": CouplingModel.standard(),
                "roentgen_no_recoil_term": CouplingModel(kind="roentgen", include_recoil_term=False)}


@pytest.mark.parametrize("eps", [0.01, 0.2])
def test_a_one_model_build_has_the_bits_of_a_build_of_several(eps):
    # a point mass at one upper limit or point: a complex product of residue and kinematics
    # holds one value per model, which numpy's scalar loop (operands of unequal rank) put an
    # ulp off the vector loop of a build for several models
    n, e_d = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.0, 1.0])
    proj = project(PointMass(np.array([2e-3, -1e-3, 5e-4])), n)
    models, params = tuple(_FUZZ_MODELS.values()), DimensionlessParams(eps, 0.01)
    several = lineshape.line_fractions(models, n, e_d, proj, params)
    factor = np.exp(-several.near)
    for i, model in enumerate(models):
        one = lineshape.line_fractions((model,), n, e_d, proj, params)
        for upper in (0.5, 2.0, 40.0, 900.0):
            assert np.array_equal(one.near_integral([upper], factor),
                                  several.near_integral([upper], factor)[i:i + 1])
            assert np.array_equal(one.integral([upper]), several.integral([upper])[i:i + 1])
            assert np.array_equal(one.smooth([upper]), several.smooth([upper])[i:i + 1])


def mp_line_integral(mp, model, theta, beta, eps, gt, upper):
    """int_0^U x^3 P(x) / (D^2 + gt^2/4) dx for a point mass in 40-digit mpmath, and the
    closed form's value (`line_fractions(...).integral` of the three _FUZZ_MODELS built
    together, at `model`), n = (sin theta, 0, cos theta), e_d = z.

    The reference integrand is built from the geometry: P = |b e_perp + c beta_perp|^2
    with c = e_d.n, the bracket b = 1 - delta + k eps x and k = (+1 for the recoil term)
    - (2 for the momentum shift), or P = |e_perp|^2 for the standard dipole, with e_perp
    = e_d - c n of the same float n (1 - c^2 differs from it by c^2 (1 - |n|^2), 1e-12
    relative near the axis). delta is the projection's float node, since the integral is
    exact only for the inputs the closed form sees.
    """
    n, e_d = np.array([np.sin(theta), 0.0, np.cos(theta)]), np.array([0.0, 0.0, 1.0])
    proj = project(PointMass(beta), n)
    models = tuple(_FUZZ_MODELS.values())  # built together, as divergence_comparison does
    got = float(lineshape.line_fractions(models, n, e_d, proj, DimensionlessParams(eps, gt))
                .integral([upper])[models.index(model), 0, 0])
    mp.mp.dps = 40
    nv, bv = [mp.mpf(v) for v in n], [mp.mpf(v) for v in beta]
    delta, c = mp.mpf(float(proj.nodes[0])), nv[2]
    e_perp = [-c * v for v in nv]
    e_perp[2] += 1
    b_dot_n = sum(p * q for p, q in zip(bv, nv))
    b_perp = [p - b_dot_n * q for p, q in zip(bv, nv)]
    ee, eb, bb = (sum(p * q for p, q in zip(u, v))
                  for u, v in ((e_perp, e_perp), (e_perp, b_perp), (b_perp, b_perp)))
    k = (1 if model.include_recoil_term else 0) - (2 if model.apply_momentum_shift else 0)
    eps_m, gt_m, u = mp.mpf(eps), mp.mpf(gt), mp.mpf(upper)

    def w(x):
        b = 1 - delta + k * eps_m * x
        poly = ee if model.kind == "standard_dipole" else b * b * ee + 2 * b * c * eb + c * c * bb
        d = 1 - x * (1 - delta) - eps_m * x * x
        return x**3 * poly / (d * d + gt_m * gt_m / 4)

    x_star = 2 / ((1 - delta) + mp.sqrt((1 - delta) ** 2 + 4 * eps_m))
    half = gt_m / (2 * ((1 - delta) + 2 * eps_m * x_star))  # half width of the line in x
    pts = sorted({x_star + s * half * m for s in (-1, 1) for m in (1, 30, 1000)} | {x_star}
                 | {x_star * 4**j for j in range(1, 8)})
    return mp.quad(w, [0] + [p for p in pts if 0 < p < u] + [u]), got


def test_line_integrals_match_40_digit_quadrature():
    """Differential fuzz of `line_fractions(...).integral` for a point mass against mp.quad
    (`mp_line_integral`). The bound is 1e-13 max(1, |I|), with no allowance for the pole:
    the near-line integral is formed without rounding z first
    (`LineFractions.near_integral`).
    """
    hyp = pytest.importorskip("hypothesis")
    mp = pytest.importorskip("mpmath")
    st = hyp.strategies
    log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0**e)  # noqa: E731
    worst = {"error": 0.0}

    # no shrinking: a failure is reported as drawn, within the same few seconds
    @hyp.settings(max_examples=25, derandomize=True, deadline=None, database=None,
                  phases=(hyp.Phase.generate,))
    @hyp.given(eps=st.one_of(st.just(0.0), log_uniform(-5.0, -1.0)), gt=log_uniform(-4.0, -1.0),
               theta=st.floats(0.0, np.pi), beta=st.lists(st.floats(-0.3, 0.3), min_size=3,
                                                          max_size=3),
               upper=log_uniform(-0.5, 3.5), label=st.sampled_from(sorted(_FUZZ_MODELS)))
    def check(eps, gt, theta, beta, upper, label):
        ref, got = mp_line_integral(mp, _FUZZ_MODELS[label], theta, np.array(beta), eps, gt,
                                    upper)
        error = float(abs(got - ref) / max(1, abs(ref)))
        if error > worst["error"]:
            worst.update(error=error, eps=eps, gt=gt, theta=theta, beta=beta, upper=upper,
                         model=label, value=got)
        assert abs(got - ref) <= 1e-13 * max(1, abs(ref))

    check()
    print(f"worst line integral against 40-digit mp.quad: {worst}")


def test_quotient_slope_is_exact_near_the_dipole_axis():
    # near the axis with a transverse velocity P(0) >> q1 = k^2 |e_perp|^2: the slope taken
    # as (P(1/eps) + P(-1/eps))/2 - P(0) read 170.45426245701833, 9.6e-14 relative off
    mp = pytest.importorskip("mpmath")
    ref, got = mp_line_integral(mp, CouplingModel.roentgen(), 3.1329000694622797,
                                np.array([-0.2166568983391678, -0.10057062559127786, 0.0]),
                                0.09322537066374156, 0.044481944629416494, 2508.9908881665287)
    assert abs(got - ref) <= 1e-14 * abs(ref), (got, ref)


def test_line_integral_inside_a_narrow_line_matches_40_digits():
    """The near pole z is rounded at ulp(x*) while |z - U| is only ~ gt/2 inside the line:
    log((z - U)/z) of the rounded z put the integral up to U = 1 off by 5.2e-13 relative
    (35333.213051716135). Roentgen coupling, point mass at rest, n perpendicular to e_d,
    where w = x^3 (1 - eps x)^2 / (D^2 + gt^2/4)."""
    mp = pytest.importorskip("mpmath")
    eps, gt = 1e-5, 1e-4
    n, e_d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    lines = lineshape.line_fractions((CouplingModel.roentgen(),), n, e_d,
                                      project(PointMass(np.zeros(3)), n),
                                      DimensionlessParams(epsilon=eps, gamma_tilde=gt))
    mp.mp.dps = 40
    eps_m, gt_m = mp.mpf(eps), mp.mpf(gt)
    x_star = 2 / (1 + mp.sqrt(1 + 4 * eps_m))
    half = gt_m / (2 * (1 + 2 * eps_m * x_star))

    def w(x):
        d = 1 - x - eps_m * x * x
        return x**3 * (1 - eps_m * x) ** 2 / (d * d + gt_m * gt_m / 4)

    uppers = [1.0, float(x_star - half), float(x_star + 0.3 * half), float(x_star + 10 * half)]
    got = lines.integral(uppers)[0, 0]
    for upper, value in zip(uppers, got):
        pts = sorted({x_star + s * half * m for s in (-1, 1) for m in (1, 30)} | {x_star})
        ref = mp.quad(w, [0] + [p for p in pts if p < upper] + [mp.mpf(upper)])
        assert abs(value - ref) <= 1e-14 * abs(ref), (upper, value, ref)
    assert float(got[0]) == pytest.approx(35333.21305173437818, rel=1e-14)
