import numpy as np
import pytest

from movingatom import wavepacket
from movingatom.coupling import CouplingModel
from movingatom.geometry import direction_from_angles
from movingatom.quadrature import NumericalError, gauss_rule
from movingatom.rates import golden_rule_mean_rate
from movingatom.spectra import (EmissionScenario, Formfactor, angular_pattern,
                               directional_probability, divergence_comparison)
from movingatom.units import DimensionlessParams
from movingatom.wavepacket import (GaussianPacket, PointMass,
                                   TabulatedProjection, _hermite_rule, expectation,
                                   gaussian_nodes, project, weighted_sum)

rng = np.random.default_rng(431)
# the package's Gauss-Hermite ladder and one that starts at 2 nodes: a relation that holds
# on any ladder is checked on both
LADDERS = (wavepacket.HERMITE_LADDER, (2, 4, 8, 16, 32, 64))


def each_ladder(monkeypatch):
    """Each of LADDERS, set as `wavepacket.HERMITE_LADDER` (the one name every Doppler
    average reads) while the caller's loop body runs."""
    for ladder in LADDERS:
        monkeypatch.setattr(wavepacket, "HERMITE_LADDER", ladder)
        yield ladder


def test_point_mass_projection():
    n = np.array([0.0, 1.0, 0.0])
    proj = project(PointMass(beta=np.array([0.01, 0.02, 0.0])), n)
    assert proj.kind == "point"
    assert proj.nodes.shape == (1,)
    assert proj.nodes[0] == pytest.approx(0.02, rel=1e-15)
    assert proj.weights[0] == 1.0


def test_gaussian_projection_is_exact_marginal():
    mean = np.array([0.01, -0.005, 0.002])
    cov = np.diag([1e-6, 4e-6, 9e-6])
    dist = GaussianPacket(mean=mean, covariance=cov)
    n = np.array([0.0, 0.0, 1.0])
    proj = project(dist, n)
    assert proj.mean == pytest.approx(0.002, rel=1e-14)
    assert proj.sigma == pytest.approx(3e-3, rel=1e-12)
    # quadrature moments reproduce the marginal's mean and variance
    m0 = weighted_sum(proj.weights, np.ones_like(proj.nodes))
    m1 = weighted_sum(proj.weights, proj.nodes)
    m2 = weighted_sum(proj.weights, proj.nodes**2)
    assert m0 == pytest.approx(1.0, rel=1e-13)
    assert m1 == pytest.approx(proj.mean, rel=1e-12)
    assert m2 - m1 * m1 == pytest.approx(proj.sigma**2, rel=1e-10)


def test_gaussian_general_covariance_projection():
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 1e-6 * np.eye(3)
    mean = rng.normal(scale=0.01, size=3)
    v = rng.normal(size=3)
    n = v / np.linalg.norm(v)
    proj = project(GaussianPacket(mean=mean, covariance=cov), n)
    assert proj.mean == pytest.approx(float(n @ mean), rel=1e-12)
    assert proj.sigma == pytest.approx(float(np.sqrt(n @ cov @ n)), rel=1e-12)


def test_covariance_validation():
    with pytest.raises(ValueError):
        GaussianPacket(mean=np.zeros(3), covariance=np.diag([1.0, 1.0, -1.0]))
    asym = np.diag([1.0, 1.0, 1.0]).astype(float)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        GaussianPacket(mean=np.zeros(3), covariance=asym)


def test_gaussian_packet_requires_finite_input():
    # a NaN mean constructed, and a NaN or inf covariance was called asymmetric
    cov = 1e-6 * np.eye(3)
    for mean in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="mean must be a finite 3-vector"):
            GaussianPacket(mean=np.array(mean), covariance=cov)
    for bad in (np.nan, np.inf):
        broken = cov.copy()
        broken[1, 1] = bad
        with pytest.raises(ValueError, match="covariance must be a finite 3x3 matrix"):
            GaussianPacket(mean=np.zeros(3), covariance=broken)


def test_tabulated_projection_checks_direction():
    direction = np.array([1.0, 0.0, 0.0])
    tab = TabulatedProjection(delta=np.array([-0.01, 0.0, 0.01]),
                              weights=np.array([0.25, 0.5, 0.25]),
                              direction=direction)
    proj = project(tab, direction)
    assert np.array_equal(proj.nodes, tab.delta)
    with pytest.raises(ValueError):
        project(tab, np.array([0.0, 1.0, 0.0]))


def test_tabulated_weights_must_be_normalized():
    with pytest.raises(ValueError):
        TabulatedProjection(delta=np.array([0.0, 0.1]),
                            weights=np.array([0.6, 0.6]),
                            direction=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TabulatedProjection(delta=np.array([0.0, 0.1]),
                            weights=np.array([1.2, -0.2]),
                            direction=np.array([1.0, 0.0, 0.0]))
    # NaN fails every comparison, so the sum-to-one check alone would pass it
    for delta, weights in (([np.nan, 0.1], [0.5, 0.5]), ([0.0, 0.1], [np.nan, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            TabulatedProjection(delta=np.array(delta), weights=np.array(weights),
                                direction=np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("delta, weights", [([0.0, 0.1], [1.0]), ([], []),
                                            ([[0.0, 0.1]], [[0.5, 0.5]])],
                         ids=["mismatched", "empty", "two-dimensional"])
def test_tabulated_delta_and_weights_must_be_matching_nonempty_vectors(delta, weights):
    with pytest.raises(ValueError, match="matching nonempty 1D arrays"):
        TabulatedProjection(delta=np.array(delta), weights=np.array(weights),
                            direction=np.array([1.0, 0.0, 0.0]))


def test_point_mass_must_be_a_finite_3_vector():
    for beta in ([0.0, 0.1], [0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="finite 3-vector"):
            PointMass(np.array(beta))


def test_expectation_checks_its_distribution_and_integrand():
    with pytest.raises(TypeError, match="needs a GaussianPacket"):
        gaussian_nodes(PointMass(np.zeros(3)))
    with pytest.raises(TypeError, match="unknown distribution type"):
        expectation(object(), lambda b: b[:, 0])
    with pytest.raises(ValueError, match="integrand must map"):
        expectation(PointMass(np.zeros(3)), lambda b: b)


def test_expectation_point_mass_is_exact():
    beta = np.array([0.01, 0.0, -0.02])
    res = expectation(PointMass(beta), lambda b: b[:, 0] + 2 * b[:, 2])
    assert res.value == 0.01 - 0.04
    assert res.error == 0.0


def test_expectation_zero_covariance_packet_is_one_node_at_the_mean():
    mean = np.array([0.01, -0.02, 0.005])
    dist = GaussianPacket(mean=mean, covariance=np.zeros((3, 3)))
    nodes, weights = gaussian_nodes(dist)
    assert np.array_equal(nodes, mean[None, :]) and np.array_equal(weights, [1.0])
    res = expectation(dist, lambda b: b[:, 0] + 2 * b[:, 2])
    assert res.value == 0.01 + 2 * 0.005
    assert res.error == 0.0


def test_expectation_gaussian_polynomial_moments():
    # E[(a.beta)^2] = (a.mu)^2 + a.Sigma.a, exact for Gauss-Hermite
    mean = np.array([0.01, -0.02, 0.005])
    cov = np.diag([1e-4, 2e-4, 5e-5])
    dist = GaussianPacket(mean=mean, covariance=cov)
    a = np.array([0.3, -1.2, 0.7])
    res = expectation(dist, lambda b: (b @ a) ** 2, order=8)
    expected = float((a @ mean) ** 2 + a @ cov @ a)
    assert res.value == pytest.approx(expected, rel=1e-13)
    assert res.error <= 1e-13 * abs(expected) + 1e-18


def test_expectation_error_estimate_decreases_with_order():
    dist = GaussianPacket.isotropic(np.zeros(3), 0.05)
    f = lambda b: np.cos(25.0 * b[:, 0]) * np.exp(b[:, 1])
    low = expectation(dist, f, order=6)
    high = expectation(dist, f, order=24)
    assert high.error < low.error


def test_rank_one_packet_uses_one_active_dimension():
    direction = np.array([1.0, 0.0, 0.0])
    dist = GaussianPacket.along_direction(np.zeros(3), 1e-3, direction)
    nodes, weights = gaussian_nodes(dist, order=12)
    assert nodes.shape == (12, 3)           # not 12**3: degenerate axes dropped
    assert np.allclose(nodes[:, 1:], 0.0, atol=1e-18)
    assert weights.sum() == pytest.approx(1.0, rel=1e-13)


def test_isotropic_nodes_tensor_count():
    dist = GaussianPacket.isotropic(np.zeros(3), 1e-3)
    nodes, weights = gaussian_nodes(dist, order=5)
    assert nodes.shape == (125, 3)
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)


def test_pure_equals_mixture_bitwise():
    """Evaluating through expectation() must equal treating the quadrature
    nodes as an explicit point-mass mixture, reduced the same way."""
    dist = GaussianPacket.isotropic(np.array([0.002, 0.0, -0.001]), 5e-4)
    f = lambda b: 1.0 / (1.0 + (b[:, 0] - 3 * b[:, 2]) ** 2)
    res = expectation(dist, f, order=14)
    nodes, weights = gaussian_nodes(dist, order=14)
    mixture = weighted_sum(weights, f(nodes))
    assert res.value == mixture  # bit-for-bit


def test_non_finite_integrand_reports_node():
    dist = GaussianPacket.isotropic(np.zeros(3), 1e-3)

    def exploding(b):
        out = np.ones(b.shape[0])
        out[0] = np.nan
        return out

    with pytest.raises(NumericalError):
        expectation(dist, exploding, order=6)


def test_weighted_sum_reduction_semantics():
    w = np.array([0.25, 0.25, 0.5])
    v = np.array([1.0, 2.0, 3.0])
    assert weighted_sum(w, v) == float(np.sum(w * v))


def test_project_stack_matches_one_direction_at_a_time():
    dirs = direction_from_angles(np.linspace(0.0, np.pi, 9), 0.7, axis=np.array([0.6, 0.0, 0.8]))
    cov = np.array([[4e-6, 1e-6, 0.0], [1e-6, 3e-6, -5e-7], [0.0, -5e-7, 2e-6]])
    for dist in (GaussianPacket(mean=np.array([1e-3, -2e-3, 5e-4]), covariance=cov),
                 PointMass(np.array([1e-3, -2e-3, 5e-4]))):
        stack = project(dist, dirs, order=12)
        for i, n in enumerate(dirs):
            one = project(dist, n, order=12)
            assert stack.kind == one.kind
            assert np.array_equal(stack.weights, one.weights)
            for field in ("mean", "sigma", "nodes", "perp_mean", "perp_gain", "perp_var"):
                assert np.allclose(getattr(stack, field)[i], getattr(one, field),
                                   rtol=1e-14, atol=1e-20), field
    n = np.array([0.0, 0.0, 1.0])
    tab = TabulatedProjection(delta=np.array([-1e-3, 2e-3]), weights=np.array([0.4, 0.6]), direction=n)
    stack = project(tab, np.array([n, n, n]))
    assert stack.nodes.shape == (3, 2) and stack.mean.shape == (3,)
    assert weighted_sum(stack.weights, stack.nodes).tolist() == [project(tab, n).mean] * 3


@pytest.mark.parametrize("nx", [1e-16, 1e-150, 1e-155, 0.0])
def test_rounding_level_spread_has_the_point_law(nx):
    # n.S.n = sigma^2 nx^2 is zero to rounding; taken as a Gaussian, the gain S n / n.S.n
    # has |g|^2 = 1/nx^2, which overflows (a NaN rate) once n.S.n is subnormal (nx = 1e-155)
    dist = GaussianPacket.along_direction(np.zeros(3), 1e-3, [1.0, 0.0, 0.0])
    n = np.array([nx, 0.0, 1.0]) / np.hypot(nx, 1.0)
    proj = project(dist, n)
    assert proj.kind == "point" and proj.sigma == 0.0
    assert np.array_equal(proj.perp_gain, np.zeros(3))
    assert proj.perp_var == pytest.approx(1e-6, rel=1e-15)
    e_d = np.array([0.0, 0.0, 1.0])
    params = DimensionlessParams(epsilon=0.01, gamma_tilde=1e-2)
    model = CouplingModel.roentgen()
    exact = golden_rule_mean_rate(project(dist, e_d), e_d, e_d, params, model).value
    assert (golden_rule_mean_rate(proj, n, e_d, params, model).value
            == pytest.approx(exact, rel=1e-14))


def test_hermite_rules_are_built_once_per_order(monkeypatch):
    """A 37-angle golden-rule pattern and a Gaussian divergence comparison build the
    rules of the Hermite ladder's first two rungs once each (every direction stops at the
    second), and no other rule: `project`'s default order is the first rung."""
    _hermite_rule.cache_clear()
    built = []

    def counting(b, mu0, guess):
        built.append(b.size)
        return gauss_rule(b, mu0, guess)

    monkeypatch.setattr(wavepacket, "gauss_rule", counting)
    scenario = EmissionScenario(params=DimensionlessParams(epsilon=0.01, gamma_tilde=1e-2),
                                coupling=CouplingModel.roentgen(),
                                distribution=GaussianPacket.isotropic([1e-4, -2e-4, 3e-4], 1e-3))
    angular_pattern(scenario, np.linspace(0.0, np.pi, 37))
    divergence_comparison(scenario, np.array([1.0, 0.0, 0.0]))
    angular_pattern(scenario, np.linspace(0.0, np.pi, 37), phi=0.5)
    assert sorted(built) == sorted(wavepacket.HERMITE_LADDER[:2])
    t, w = _hermite_rule(40)
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-3, 1.0, 1e3])
def test_covariance_check_decides_as_eigvalsh(scale):
    # the check took np.linalg.eigvalsh, which pages LAPACK in; the closed form must accept
    # and reject the same seeded covariances: full rank, rank 2, rank 1 along a direction,
    # and the smallest eigenvalue 1 % past the floor -1e-12 max(1, max |lambda|) or short of it
    gen = np.random.default_rng(int(-np.log10(scale) * 10) + 100)
    for kind in ("full", "rank2", "rank1", "past", "short") * 4:
        rotation, _ = np.linalg.qr(gen.normal(size=(3, 3)))
        lam = scale * gen.uniform(0.1, 1.0, 3)
        top = max(1.0, lam[1:].max())
        lam[0] = {"rank2": 0.0, "past": -1.01e-12 * top, "short": -0.99e-12 * top}.get(kind, lam[0])
        cov = (rotation * lam) @ rotation.T
        cov = 0.5 * (cov + cov.T)
        if kind == "rank1":
            cov = scale * np.outer(rotation[0], rotation[0])
        eigvals = np.linalg.eigvalsh(cov)
        expected = bool(np.all(eigvals >= -1e-12 * max(1.0, np.abs(eigvals).max())))
        assert expected == (kind != "past")
        try:
            packet = (GaussianPacket.along_direction(np.zeros(3), np.sqrt(scale), rotation[0])
                      if kind == "rank1" else GaussianPacket(np.zeros(3), cov))
            accepted = True
        except ValueError as exc:
            accepted = False
            assert "covariance is not positive semidefinite (eigenvalues [" in str(exc)
        assert accepted == expected, (kind, lam)
        if accepted:
            assert np.allclose(wavepacket._eigenvalues(packet.covariance), eigvals,
                               rtol=0.0, atol=4e-15 * np.abs(eigvals).max())


def test_delta_average_climbs_the_rungs_of_the_ladder(monkeypatch):
    # a ladder that neither doubles nor starts at 8, then LADDERS: an upper limit inside
    # the Doppler profile keeps the column open, so it climbs every rung, and builds no
    # order off the ladder, the projection's included
    built, nodes = [], wavepacket.hermite_nodes

    def spy(mean, sigma, orders):
        built.extend(orders)
        return nodes(mean, sigma, orders)

    monkeypatch.setattr(wavepacket, "hermite_nodes", spy)
    scenario = EmissionScenario(params=DimensionlessParams(epsilon=0.01, gamma_tilde=1e-4),
                                coupling=CouplingModel.roentgen(),
                                distribution=GaussianPacket.isotropic(np.zeros(3), 1e-2))
    for ladder in ((4, 12, 24, 40), *LADDERS):
        monkeypatch.setattr(wavepacket, "HERMITE_LADDER", ladder)
        built.clear()
        res = directional_probability(scenario, np.array([1.0, 0.0, 0.0]), Formfactor.none(),
                                      1.0)
        assert not res.converged and set(built) == set(ladder), ladder
        assert res.evaluations == sum(ladder)
