import math

import numpy as np
import pytest

from movingatom.amplitudes import resonance_root
from movingatom.coupling import CouplingModel
from movingatom.rates import (VARIANTS, golden_rule_mean_rate, golden_rule_rates,
                              limit_ordering_demo, sphere_pattern_value)
from movingatom.spectra import EmissionScenario, angular_pattern
from movingatom.units import DimensionlessParams
from movingatom.wavepacket import PointMass, project

rng = np.random.default_rng(1123)

N_PERP = np.array([1.0, 0.0, 0.0])
E_D = np.array([0.0, 0.0, 1.0])
# the Roentgen model at each setting of its momentum shift
MODELS = {variant: CouplingModel(kind="roentgen", apply_momentum_shift=variant == "shifted")
          for variant in VARIANTS}


def perpendicular_rate(variant, delta, eps):
    """Independent closed form for the perpendicular geometry.

    x* solves eps x^2 + (1-delta) x - 1 = 0; the squared coupling bracket is
    (1 - delta + eps x*)^2 before the momentum shift and (1 - delta - eps x*)^2
    after it; the Jacobian of the energy constraint is 1 - delta + 2 eps x*.
    """
    om = 1.0 - delta
    x = 2.0 / (om + math.sqrt(om * om + 4.0 * eps))
    bracket = om - eps * x if variant == "shifted" else om + eps * x
    return x**3 * bracket**2 / (om + 2.0 * eps * x)


def test_resonance_root_residual_is_tiny():
    for _ in range(500):
        delta = float(rng.uniform(-0.5, 0.5))
        eps = float(rng.uniform(0.0, 0.1))
        x_star = float(resonance_root(delta, eps))
        assert abs(x_star * ((1.0 - delta) + eps * x_star) - 1.0) < 1e-12
        assert x_star * (1.0 - delta + eps * x_star) == pytest.approx(1.0, abs=1e-12)


def test_resonance_root_epsilon_zero_exact():
    assert float(resonance_root(0.2, 0.0)) == 1.0 / 0.8
    assert float(resonance_root(0.0, 0.0)) == 1.0


def test_resonance_root_small_epsilon_no_cancellation():
    # naive quadratic formula loses ~8 digits here; the stable form must not
    assert float(resonance_root(0.0, 1e-14)) == pytest.approx(1.0 - 1e-14, rel=1e-15)


@pytest.mark.parametrize("delta", [1.5, 2.0, 3.0])
def test_superluminal_root_free_of_cancellation(delta):
    # for delta > 1 the positive root is ((delta-1) + sqrt((1-delta)^2 + 4 eps)) / (2 eps);
    # 2 / ((1-delta) + sqrt(...)) cancels there, by up to 2e-12 relative at eps = 1e-4
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eps, om = mp.mpf(1e-4), 1 - mp.mpf(delta)
    exact = (-om + mp.sqrt(om * om + 4 * eps)) / (2 * eps)
    assert abs(float(resonance_root(delta, 1e-4)) - exact) <= 4e-16 * exact


def test_superluminal_projection_rejected():
    with pytest.raises(ValueError):
        resonance_root(1.5, 0.0)


@pytest.mark.parametrize("delta, eps", [(math.nan, 0.01), (0.0, -1.0), (0.0, math.nan),
                                        (np.array([0.1, math.nan]), 0.01), (-math.inf, 0.01)])
def test_resonance_root_rejects_nan_and_negative_epsilon(delta, eps):
    with pytest.raises(ValueError):
        resonance_root(delta, eps)


def test_reference_rate_is_one():
    params = DimensionlessParams(epsilon=0.0, gamma_tilde=0.01)
    for model in MODELS.values():
        assert golden_rule_rates(np.zeros(3), N_PERP, E_D, params, model) == 1.0
    assert resonance_root(0.0, params.epsilon) == 1.0


def test_variants_coincide_bitwise_at_epsilon_zero():
    params = DimensionlessParams(epsilon=0.0, gamma_tilde=0.01)
    beta = np.array([0.01, -0.03, 0.02])
    a = golden_rule_rates(beta, N_PERP, E_D, params, MODELS["unshifted"])
    b = golden_rule_rates(beta, N_PERP, E_D, params, MODELS["shifted"])
    assert a == b


def test_rates_match_independent_closed_form():
    for _ in range(200):
        eps = float(rng.uniform(1e-5, 0.05))
        delta = float(rng.uniform(-0.3, 0.3))
        params = DimensionlessParams(epsilon=eps, gamma_tilde=0.01)
        beta = delta * N_PERP + np.array([0.0, float(rng.normal(scale=0.02)), 0.0])
        for variant in VARIANTS:
            got = golden_rule_rates(beta, N_PERP, E_D, params, MODELS[variant])
            want = perpendicular_rate(variant, delta, eps)
            assert got == pytest.approx(want, rel=1e-12)


def test_frozen_reference_values():
    # eps = 0.01, beta = 0, perpendicular: values pinned by an independent
    # symbolic evaluation of the closed forms above
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=0.01)
    f = golden_rule_rates(np.zeros(3), N_PERP, E_D, params, MODELS["unshifted"])
    fp = golden_rule_rates(np.zeros(3), N_PERP, E_D, params, MODELS["shifted"])
    assert f == pytest.approx(0.97096622, abs=5e-9)
    assert fp == pytest.approx(0.93325883, abs=5e-9)
    assert abs(fp - f) / f == pytest.approx(0.038834915, abs=1e-8)


def test_vectorized_rates_match_scalar():
    # the velocity-level reference, batched, against the production path (conditional
    # moments of the projected packet) on each velocity as a point mass
    params = DimensionlessParams(epsilon=0.003, gamma_tilde=0.01)
    betas = rng.normal(scale=0.02, size=(9, 3))
    for model in MODELS.values():
        batch = golden_rule_rates(betas, N_PERP, E_D, params, model)
        assert batch.shape == (9,)
        for i in range(9):
            single = golden_rule_mean_rate(project(PointMass(betas[i]), N_PERP),
                                           N_PERP, E_D, params, model).value
            assert batch[i] == pytest.approx(single, rel=1e-14)


def test_mean_rate_takes_the_momentum_shift_from_the_model():
    # a variant name once overrode the model: "shifted" on an unshifted model gave 0.72979
    params = DimensionlessParams(epsilon=0.05, gamma_tilde=0.01)
    proj = project(PointMass(np.array([0.01, 0.02, 0.0])), N_PERP)
    for variant, want in (("unshifted", 0.88670), ("shifted", 0.72979)):
        got = golden_rule_mean_rate(proj, N_PERP, E_D, params, MODELS[variant]).value
        assert got == pytest.approx(perpendicular_rate(variant, 0.01, 0.05), rel=1e-14)
        assert got == pytest.approx(want, abs=5e-6)


@pytest.mark.parametrize("beta", [0.0, np.zeros(2), np.zeros((4, 2))])
def test_reference_rates_need_a_trailing_axis_of_three(beta):
    params = DimensionlessParams(epsilon=0.003, gamma_tilde=0.01)
    with pytest.raises(ValueError, match="trailing axis"):
        golden_rule_rates(beta, N_PERP, E_D, params, MODELS["shifted"])


def test_variant_names_are_validated():
    # angular_pattern is the one API that still takes the variant's name
    scenario = EmissionScenario(DimensionlessParams(epsilon=0.0, gamma_tilde=0.01),
                                CouplingModel.roentgen(), PointMass(np.zeros(3)), E_D)
    with pytest.raises(ValueError, match="variant"):
        angular_pattern(scenario, np.linspace(0.0, math.pi, 3), variant="recoiled")


def test_model_argument_changes_coupling_not_kinematics():
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=0.01)
    standard = golden_rule_rates(np.zeros(3), N_PERP, E_D, params, CouplingModel.standard())
    roentgen = golden_rule_rates(np.zeros(3), N_PERP, E_D, params, MODELS["unshifted"])
    # same root: standard coupling has bracket 1 instead of (1 + eps x*)
    x = float(resonance_root(0.0, 0.01))
    assert standard == pytest.approx(x**3 / (1 + 2 * 0.01 * x), rel=1e-12)
    assert roentgen == pytest.approx(x**3 * (1 + 0.01 * x) ** 2 / (1 + 2 * 0.01 * x), rel=1e-12)


def test_sphere_pattern_value():
    assert sphere_pattern_value(1.0) == pytest.approx(3.0 / (8.0 * math.pi), rel=1e-15)


def test_limit_ordering_table_structure():
    table = limit_ordering_demo([1e-2, 1e-3], gamma_tilde=0.01, window_points=5)
    assert len(table.rows) == 2
    assert table.rate_eps0 == 1.0
    for row in table.rows:
        assert row.rate_unshifted > 0 and row.rate_shifted > 0
        assert row.growth_kind == "power"
        assert row.growth_exponent == pytest.approx(2.0, abs=0.15)
        assert row.window_cumulative.size == 5
        assert np.all(np.diff(row.window_cumulative) > 0)
        assert row.fixed_cumulative.size == 3
    # rel difference shrinks linearly with eps
    assert table.rows[0].rel_difference / table.rows[1].rel_difference == pytest.approx(
        10.0, abs=2.0)


def test_limit_ordering_input_validation():
    with pytest.raises(ValueError):
        limit_ordering_demo([1e-3, 1e-2])  # not decreasing
    with pytest.raises(ValueError):
        limit_ordering_demo([0.0, -1.0])
    with pytest.raises(ValueError):
        limit_ordering_demo([1e-2], window_points=3)


@pytest.mark.parametrize("cutoffs", [(-1.0, 0.0), (1e2, 0.0), (1e2, math.inf), (math.nan,)])
def test_limit_ordering_rejects_cutoffs_that_are_not_positive_and_finite(cutoffs):
    # the closed-form line integral has no meaning at a cutoff U <= 0
    with pytest.raises(ValueError, match="fixed_cutoffs"):
        limit_ordering_demo([1e-2], window_points=5, fixed_cutoffs=cutoffs)
