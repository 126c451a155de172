import numpy as np
import pytest
from scipy.linalg import expm

from movingatom import amplitudes
from movingatom.amplitudes import (DiscreteModeSystem, compare_to_pole,
                                   detuning, discrete_mode_evolution,
                                   evolution_matrix, fit_decay_rate,
                                   flat_band_system, lorentzian_denominator,
                                   perpendicular_kernel, pole_mode_populations,
                                   spectral_kernel)
from movingatom.coupling import CouplingModel
from movingatom.quadrature import NumericalError
from movingatom.units import DimensionlessParams
from movingatom.wavepacket import PointMass, project

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


def test_mode_grid_must_be_finite():
    # np.diff(x) <= 0 is False next to a NaN, so the ordering check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        DiscreteModeSystem(x=np.array([1.0, np.nan, 1.2]),
                           g=np.full(3, 0.1))


def expm_state(system, tau):
    """Full state [a, b] at tau from scipy's dense matrix exponential."""
    state0 = np.zeros(system.x.size + 1, dtype=complex)
    state0[0] = 1.0
    return expm(evolution_matrix(system) * tau) @ state0


def test_exact_evolution_matches_matrix_exponential():
    # a detuned, recoiling band small enough for expm
    sys = flat_band_system(101, 0.05, 1e-2, delta=0.007, epsilon=0.003)
    res = discrete_mode_evolution(sys, 1000.0, dt=0.25, record_every=400)
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
        sigma, nu, iterations = exact(d, z)
        return sigma, nu * (1.0 + 1e-6), iterations

    monkeypatch.setattr(amplitudes, "_secular_roots", perturbed)
    sys = flat_band_system(101, 0.05, 1e-3)
    res = discrete_mode_evolution(sys, 1000.0, dt=0.25, record_every=400)
    assert res.extras["backward_error"] > 1e-9
    assert res.max_norm_drift > 1e-6
    assert not res.norm_ok
    # the bound behind the certificate: |y(T) - y_exact(T)| <= T ||A_hat - A|| (5.5e-7 <= 2.0e-6)
    bound = res.times[-1] * res.extras["backward_error"]
    assert np.linalg.norm(res.final_state - expm_state(sys, res.times[-1])) <= bound


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
    lines = amplitudes.line_fractions(model, n, e_d, project(PointMass(np.zeros(3)), n),
                                      DimensionlessParams(epsilon=0.01, gamma_tilde=0.01))
    assert np.all(np.isfinite(lines.integral([1e2, 1e3])))
    with pytest.raises(NumericalError, match=r"up to x = 1e\+200 is not finite"):
        lines.integral([1e2, 1e200, 1e300])
