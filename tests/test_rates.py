import math

import numpy as np
import pytest

from movingatom.amplitudes import resonance_root
from movingatom.coupling import CouplingModel
from movingatom.rates import (VARIANTS, golden_rule_rate, golden_rule_rates,
                              limit_ordering_demo, sphere_pattern_value)
from movingatom.units import DimensionlessParams

rng = np.random.default_rng(1123)

N_PERP = np.array([1.0, 0.0, 0.0])
E_D = np.array([0.0, 0.0, 1.0])


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
    for variant in VARIANTS:
        r = golden_rule_rate(variant, np.zeros(3), N_PERP, E_D, params)
        assert r.value == 1.0
        assert r.x_star == 1.0


def test_variants_coincide_bitwise_at_epsilon_zero():
    params = DimensionlessParams(epsilon=0.0, gamma_tilde=0.01)
    beta = np.array([0.01, -0.03, 0.02])
    a = golden_rule_rate("unshifted", beta, N_PERP, E_D, params)
    b = golden_rule_rate("shifted", beta, N_PERP, E_D, params)
    assert a.value == b.value


def test_rates_match_independent_closed_form():
    for _ in range(200):
        eps = float(rng.uniform(1e-5, 0.05))
        delta = float(rng.uniform(-0.3, 0.3))
        params = DimensionlessParams(epsilon=eps, gamma_tilde=0.01)
        beta = delta * N_PERP + np.array([0.0, float(rng.normal(scale=0.02)), 0.0])
        for variant in VARIANTS:
            got = golden_rule_rate(variant, beta, N_PERP, E_D, params).value
            want = perpendicular_rate(variant, delta, eps)
            assert got == pytest.approx(want, rel=1e-12)


def test_frozen_reference_values():
    # eps = 0.01, beta = 0, perpendicular: values pinned by an independent
    # symbolic evaluation of the closed forms above
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=0.01)
    f = golden_rule_rate("unshifted", np.zeros(3), N_PERP, E_D, params).value
    fp = golden_rule_rate("shifted", np.zeros(3), N_PERP, E_D, params).value
    assert f == pytest.approx(0.97096622, abs=5e-9)
    assert fp == pytest.approx(0.93325883, abs=5e-9)
    assert abs(fp - f) / f == pytest.approx(0.038834915, abs=1e-8)


def test_vectorized_rates_match_scalar():
    params = DimensionlessParams(epsilon=0.003, gamma_tilde=0.01)
    betas = rng.normal(scale=0.02, size=(9, 3))
    batch = golden_rule_rates("shifted", betas, N_PERP, E_D, params)
    for i in range(9):
        single = golden_rule_rate("shifted", betas[i], N_PERP, E_D, params).value
        assert batch[i] == single


def test_variant_names_are_validated():
    params = DimensionlessParams(epsilon=0.0, gamma_tilde=0.01)
    with pytest.raises(ValueError, match="variant"):
        golden_rule_rate("recoiled", np.zeros(3), N_PERP, E_D, params)


def test_model_argument_changes_coupling_not_kinematics():
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=0.01)
    standard = golden_rule_rate("unshifted", np.zeros(3), N_PERP, E_D, params,
                                CouplingModel.standard())
    roentgen = golden_rule_rate("unshifted", np.zeros(3), N_PERP, E_D, params)
    assert standard.x_star == roentgen.x_star  # same root
    # standard coupling has bracket 1 instead of (1 + eps x*)
    x = standard.x_star
    assert standard.value == pytest.approx(x**3 / (1 + 2 * 0.01 * x), rel=1e-12)


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
