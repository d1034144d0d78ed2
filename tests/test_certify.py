import json

import numpy as np
import pytest

from sdconsensus.certify import (
    ContractionCertificate,
    PlantModel,
    certify_double_integrator,
    certify_grid,
    closed_loop_matrix,
    network_contraction,
    transformed_entries,
)
from sdconsensus.graph import (
    WeightedDigraph,
    consensus_eigenvalues,
    reduced_laplacian,
    reduction_basis,
)
from sdconsensus.numerics import gershgorin_sv_bound, max_singular_value
from sdconsensus.synthesis import design, limits
from test_synthesis import make_design, random_spec


def transformed_by_product(h, lam, dsn):
    """Matrix-product oracle for the transformed closed loop."""
    plant = PlantModel.double_integrator()
    S = closed_loop_matrix(plant, dsn.K, lam, h)
    return np.linalg.inv(dsn.T) @ S @ dsn.T


# ---------------------------------------------------------------------------
# plant model and discretization


def test_plant_double_integrator_constants(di_plant):
    np.testing.assert_array_equal(di_plant.A, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(di_plant.B, [[0.0], [1.0]])
    assert di_plant.n == 2 and di_plant.m == 1


def test_plant_validation():
    with pytest.raises(ValueError):
        PlantModel(np.eye(2), np.array([[0.0], [1.0]]), "double-integrator")
    with pytest.raises(ValueError):
        PlantModel.general(np.eye(2), np.zeros((2, 1)))  # rank-deficient B
    with pytest.raises(ValueError):
        PlantModel.general(np.zeros((2, 3)), np.zeros((2, 1)))


def test_discretize_double_integrator_closed_form(di_plant):
    for h in (0.0, 0.25, 3.0):
        dp = di_plant.discretize(h)
        np.testing.assert_array_equal(dp.F, [[1.0, h], [0.0, 1.0]])
        np.testing.assert_array_equal(dp.G, [[0.5 * h * h], [h]])


def test_discretize_general_matches_closed_form():
    plant = PlantModel.general([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    dp = plant.discretize(1.7)
    np.testing.assert_allclose(dp.F, [[1.0, 1.7], [0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(dp.G, [[0.5 * 1.7**2], [1.7]], atol=1e-13)


def test_discretize_many_equals_discretize_per_interval(di_plant):
    h = np.random.default_rng(0).uniform(0.0, 3.0, size=(3, 4))
    general = PlantModel.general([[0.0, 1.0], [-2.0, -0.5]], [[0.0, 1.0], [1.0, 0.0]])
    for plant in (di_plant, general):
        F, G = plant.discretize_many(h)
        assert F.shape == (3, 4, 2, 2) and G.shape == (3, 4, 2, plant.m)
        for idx in np.ndindex(h.shape):
            dp = plant.discretize(h[idx])
            np.testing.assert_array_equal(F[idx], dp.F)
            np.testing.assert_array_equal(G[idx], dp.G)
    with pytest.raises(ValueError):
        di_plant.discretize_many([0.5, -1.0])


# ---------------------------------------------------------------------------
# closed-loop assembly


def test_closed_loop_matrix_double_integrator_formula(di_plant):
    K = np.array([[0.3, 0.4]])
    h, lam = 0.7, 2.0
    got = closed_loop_matrix(di_plant, K, lam, h)
    want = np.array(
        [
            [1.0 - lam * h * h * 0.3 / 2.0, h - lam * h * h * 0.4 / 2.0],
            [-lam * h * 0.3, 1.0 - lam * h * 0.4],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_closed_loop_matrix_zero_lambda_is_open_loop(di_plant):
    K = np.array([[0.3, 0.4]])
    got = closed_loop_matrix(di_plant, K, 0.0, 1.3)
    np.testing.assert_array_equal(got, di_plant.discretize(1.3).F)


def test_closed_loop_matrix_zero_interval_is_identity(di_plant):
    got = closed_loop_matrix(di_plant, np.array([[0.3, 0.4]]), 2.0, 0.0)
    np.testing.assert_array_equal(got, np.eye(2))


def test_closed_loop_matrix_complex_lambda(di_plant):
    K = np.array([[0.3, 0.4]])
    lam = 1.0 + 0.5j
    got = closed_loop_matrix(di_plant, K, lam, 0.9)
    dp = di_plant.discretize(0.9)
    np.testing.assert_allclose(got, dp.F - lam * (dp.G @ K), atol=1e-14)
    assert np.iscomplexobj(got)


def test_closed_loop_matrix_rejects_bad_gain_shape(di_plant):
    with pytest.raises(ValueError):
        closed_loop_matrix(di_plant, np.array([[0.3, 0.4, 0.5]]), 1.0, 1.0)


# ---------------------------------------------------------------------------
# transformed entries


def test_transformed_entries_identity_limit(example1_design):
    got = transformed_entries(1e-12, 1.0, example1_design)
    np.testing.assert_allclose(got, np.eye(2), atol=1e-11)


def test_transformed_entries_bottom_left_negative(example1_design):
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = float(rng.uniform(1e-4, 3.0))
        lam = float(rng.uniform(0.3, 6.0))
        assert transformed_entries(h, lam, example1_design)[1, 0] < 0.0


def test_transformed_entries_example_point(example1_design):
    got = transformed_entries(3.0, 6.0, example1_design)
    oracle = transformed_by_product(3.0, 6.0, example1_design)
    np.testing.assert_allclose(got, oracle, rtol=0.0, atol=1e-12)


def test_transformed_entries_cross_path_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = random_spec(rng)
        dsn = design(spec)
        h = float(rng.uniform(1e-3, spec.hbar))
        lam = float(rng.uniform(spec.lambda2, spec.lambdaN))
        got = transformed_entries(h, lam, dsn)
        oracle = transformed_by_product(h, lam, dsn)
        np.testing.assert_allclose(got, oracle, rtol=0.0, atol=1e-12)


def test_transformed_entries_rejects_nonpositive_args(example1_design):
    with pytest.raises(ValueError):
        transformed_entries(0.0, 1.0, example1_design)
    with pytest.raises(ValueError):
        transformed_entries(1.0, -1.0, example1_design)


# ---------------------------------------------------------------------------
# exact certificate


def test_certify_example1(example1_spec, example1_design):
    cert = certify_double_integrator(example1_spec, example1_design)
    assert cert.verdict == "certified"
    assert cert.method == "exact-inequality"
    assert cert.worst_sigma < 1.0
    assert cert.margin > 0.0


def test_certify_rejects_k2_above_limit(example1_spec, example1_design):
    dsn = example1_design
    lim = limits(example1_spec, dsn.mu1, dsn.mu2)
    bad = make_design(dsn.mu1, dsn.mu2, dsn.k1, lim.b * 1.05)
    cert = certify_double_integrator(example1_spec, bad)
    assert cert.verdict != "certified"


def test_certify_equal_gains_not_certified(example1_spec, example1_design):
    dsn = example1_design
    bad = make_design(dsn.mu1, dsn.mu2, dsn.k1, dsn.k1)
    cert = certify_double_integrator(example1_spec, bad)
    assert cert.verdict in ("refuted", "inconclusive")


def test_certificate_verdict_consistency():
    with pytest.raises(ValueError):
        ContractionCertificate("certified", 1.2, (1.0, 1.0), "grid-sample")
    with pytest.raises(ValueError):
        ContractionCertificate("refuted", 0.5, (1.0, 1.0), "grid-sample")
    with pytest.raises(ValueError):
        ContractionCertificate("maybe", 0.5, (1.0, 1.0), "grid-sample")


def test_certificate_round_trip_dict(example1_spec, example1_design):
    cert = certify_double_integrator(example1_spec, example1_design)
    payload = cert.to_dict()
    assert payload["verdict"] == "certified"
    assert payload["margin"] == pytest.approx(1.0 - payload["worst_sigma"])
    assert len(payload["worst_lambda"]) == 2


# ---------------------------------------------------------------------------
# grid certificate


def test_certify_grid_zero_gain_refuted(di_plant, example1_design):
    cert = certify_grid(
        di_plant, np.zeros((1, 2)), example1_design.T, 3.0, (0.3, 6.0), grid=(40, 40)
    )
    assert cert.verdict in ("refuted", "inconclusive")
    if cert.verdict == "refuted":
        assert cert.worst_sigma >= 1.0


def test_certify_grid_example2(di_plant, example2_design):
    cert = certify_grid(
        di_plant, example2_design.K, example2_design.T, 1.0, (5.0, 60.0), grid=(200, 200)
    )
    assert cert.verdict == "certified"
    assert cert.margin > 0.0
    assert cert.grid_shape == (200, 200)


def test_certify_grid_degenerate_single_point(di_plant, example1_design):
    dsn = example1_design
    cert = certify_grid(di_plant, dsn.K, dsn.T, 3.0, [0.3], grid=(1, 1))
    S = closed_loop_matrix(di_plant, dsn.K, 0.3, 3.0)
    expected = max_singular_value(np.linalg.inv(dsn.T) @ S @ dsn.T)
    assert cert.worst_sigma == pytest.approx(expected, rel=1e-12)
    assert cert.worst_point == (3.0, 0.3 + 0.0j)


def test_certify_grid_complex_lambdas_match_real_embedding(di_plant, example1_design):
    # fixed directed topology: complex eigenvalues; the real rotation
    # embedding is the oracle for the complex singular value computation
    g = WeightedDigraph.from_edges(4, [(i, (i - 1) % 4, 1.0) for i in range(4)])
    lambdas = consensus_eigenvalues(g)
    assert np.abs(lambdas.imag).max() > 0.1
    dsn = example1_design
    cert = certify_grid(di_plant, dsn.K, dsn.T, 3.0, lambdas, grid=(7, 1))
    Tinv = np.linalg.inv(dsn.T)
    worst = 0.0
    worst_point = None
    for h in 3.0 * np.arange(1, 8) / 7:
        for lam in lambdas:
            M = Tinv @ closed_loop_matrix(di_plant, dsn.K, lam, h) @ dsn.T
            embed = np.block([[M.real, -M.imag], [M.imag, M.real]])
            sigma = max_singular_value(embed)
            if sigma > worst:
                worst, worst_point = sigma, (h, lam)
    assert cert.worst_sigma == pytest.approx(worst, abs=1e-10)
    assert cert.worst_point[0] == pytest.approx(worst_point[0], rel=1e-12)


def test_certify_grid_scalar_general_plant():
    # scalar stable plant: S(h, lam) = e^-h - 0.5 lam (1 - e^-h), certifiable
    # with the identity transform; exercises the general discretization path
    plant = PlantModel.general([[-1.0]], [[1.0]])
    K = np.array([[0.5]])
    cert = certify_grid(plant, K, np.eye(1), 1.0, (0.5, 1.5), grid=(50, 30))
    assert cert.verdict == "certified"
    h, lam = 1.0, 1.5
    expected = abs(np.exp(-h) - lam * (1.0 - np.exp(-h)) * 0.5)
    got = max_singular_value(closed_loop_matrix(plant, K, lam, h))
    assert got == pytest.approx(expected, rel=1e-12)


def test_closed_loop_matrix_multi_input():
    plant = PlantModel.general([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    K = np.array([[0.3, 0.0], [0.0, 0.25]])
    h, lam = 0.5, 2.0
    got = closed_loop_matrix(plant, K, lam, h)
    G = np.array([[h, 0.5 * h * h], [0.0, h]])
    want = np.array([[1.0, h], [0.0, 1.0]]) - lam * (G @ K)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_certificate_with_complex_witness_serializes(di_plant, example1_design):
    g = WeightedDigraph.from_edges(3, [(i, (i - 1) % 3, 1.0) for i in range(3)])
    cert = certify_grid(
        di_plant,
        example1_design.K,
        example1_design.T,
        3.0,
        consensus_eigenvalues(g),
        grid=(5, 1),
    )
    payload = json.dumps(cert.to_dict())
    back = json.loads(payload)
    re_im = back["worst_lambda"]
    assert complex(re_im[0], re_im[1]) == cert.worst_point[1]


def test_certify_grid_rejects_bad_inputs(di_plant, example1_design):
    dsn = example1_design
    with pytest.raises(ValueError):
        certify_grid(di_plant, dsn.K, np.zeros((2, 2)), 3.0, (0.3, 6.0))
    with pytest.raises(ValueError):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, [])
    with pytest.raises(ValueError):
        certify_grid(di_plant, dsn.K, dsn.T, -1.0, (0.3, 6.0))
    with pytest.raises(ValueError):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, (0.3, 6.0), grid=(10, 1))


def test_exact_certificate_never_grid_refuted_sample():
    rng = np.random.default_rng(7)
    plant = PlantModel.double_integrator()
    tested = 0
    while tested < 5:
        spec = random_spec(rng)
        dsn = design(spec)
        if certify_double_integrator(spec, dsn).verdict != "certified":
            continue
        grid_cert = certify_grid(
            plant, dsn.K, dsn.T, spec.hbar, (spec.lambda2, spec.lambdaN), grid=(500, 500)
        )
        assert grid_cert.verdict != "refuted"
        tested += 1


def test_bound_dominance_on_certified_grid(example1_spec, example1_design):
    rng = np.random.default_rng(11)
    for _ in range(200):
        h = float(rng.uniform(1e-3, example1_spec.hbar))
        lam = float(rng.uniform(example1_spec.lambda2, example1_spec.lambdaN))
        S_hat = transformed_entries(h, lam, example1_design)
        bound = gershgorin_sv_bound(S_hat)
        sigma = max_singular_value(S_hat)
        assert bound >= sigma * (1.0 - 1e-12)
        assert bound < 1.0  # certified region: the bound itself stays below one


def test_extremal_substitution_on_grid(example1_spec, example1_design):
    # the three upper-limit expressions are smallest at (hbar, lambdaN) and
    # the lower-limit expression is largest towards (0+, lambda2), which is
    # exactly why checking the inequalities at the limits covers the region
    spec, dsn = example1_spec, example1_design
    hs = spec.hbar * np.arange(1, 41) / 40
    lams = np.linspace(spec.lambda2, spec.lambdaN, 40)
    H, L = np.meshgrid(hs, lams, indexing="ij")
    gamma = (dsn.mu1 + dsn.mu2 + H) / (dsn.mu2 - dsn.mu1)
    k1_limit = 2.0 / (H * L * gamma)
    k2_limit = np.minimum(2.0 / (H * L), 4.0 / (L * (2.0 * dsn.mu1 + H)))
    gap_limit = 4.0 / (L * (dsn.mu1 + dsn.mu2 + H))
    lower_limit = 4.0 / (L * (dsn.mu1 + dsn.mu2 + H))
    lim = limits(spec, dsn.mu1, dsn.mu2)
    assert np.argmin(k1_limit) == k1_limit.size - 1  # corner (hbar, lambdaN)
    assert np.argmin(k2_limit) == k2_limit.size - 1
    assert np.argmin(gap_limit) == gap_limit.size - 1
    assert k1_limit.min() == pytest.approx(lim.a, rel=1e-12)
    assert k2_limit.min() == pytest.approx(lim.b, rel=1e-12)
    assert gap_limit.min() == pytest.approx(lim.d, rel=1e-12)
    # lower limit of k2 grows towards h -> 0 at lambda2 and never exceeds c
    assert np.argmax(lower_limit) == 0
    assert lower_limit.max() <= lim.c


# ---------------------------------------------------------------------------
# assembled network contraction


def test_network_contraction_single_mode(di_plant, example1_design):
    dsn = example1_design
    lam, h = 2.0, 1.1
    got = network_contraction(di_plant, dsn.K, dsn.T, np.array([[lam]]), h)
    S_hat = transformed_by_product(h, lam, dsn)
    assert got == pytest.approx(max_singular_value(S_hat), rel=1e-12)


def test_network_contraction_diagonal_modes(di_plant, example1_design):
    dsn = example1_design
    lams = [0.5, 2.0, 4.5]
    h = 0.8
    got = network_contraction(di_plant, dsn.K, dsn.T, np.diag(lams), h)
    want = max(
        max_singular_value(transformed_by_product(h, lam, dsn)) for lam in lams
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_network_contraction_matches_eigen_decomposition(di_plant, example1_design):
    rng = np.random.default_rng(13)
    dsn = example1_design
    for _ in range(10):
        n = int(rng.integers(3, 7))
        mask = np.triu(rng.random((n, n)) < 0.7, 1)
        w = np.zeros((n, n))
        w[mask | mask.T] = 1.0
        w[0, 1] = w[1, 0] = 1.0  # keep at least one edge
        g = WeightedDigraph(w)
        lbar = reduced_laplacian(g, reduction_basis(n))
        h = float(rng.uniform(0.05, 3.0))
        got = network_contraction(di_plant, dsn.K, dsn.T, lbar, h)
        want = max(
            max_singular_value(transformed_by_product(h, lam, dsn))
            for lam in np.linalg.eigvalsh(lbar)
        )
        assert got == pytest.approx(want, abs=1e-9)


def test_network_contraction_rejects_bad_shapes(di_plant, example1_design):
    with pytest.raises(ValueError):
        network_contraction(
            di_plant, example1_design.K, example1_design.T, np.zeros((2, 3)), 1.0
        )
