import json
import math
import warnings

import numpy as np
import pytest

from sdconsensus import certify
from sdconsensus.certify import (
    ContractionCertificate,
    PlantModel,
    certify_double_integrator,
    certify_gain,
    certify_grid,
    network_contraction,
)
from sdconsensus.graph import (
    WeightedDigraph,
    consensus_eigenvalues,
    reduced_laplacian,
)
from sdconsensus.numerics import gershgorin_sv_bound, max_singular_value, max_singular_values
from sdconsensus.sim import SimulationConfig, TopologyRecipe
from sdconsensus.synthesis import DesignSpec, GainDesign, check_gain_inequalities, design, limits
from test_graph import unbalanced_digraph
from test_synthesis import random_spec


def closed_loop_matrix(plant, K, lam, h):
    """Oracle for the sampled closed-loop map F(h) - lambda G(h) K."""
    F, G = plant.discretize(h)
    return F - lam * (G @ K)


def full_grid_worst(plant, K, T, hbar, grid, lambdas):
    """Oracle for the worst sample: every h row at every lambda sample, one
    row per call, a real (lo, hi) interval sampled on the full linspace."""
    nh, nl = grid
    if isinstance(lambdas, tuple):
        lam = np.linspace(*lambdas, nl)
    else:
        lam = np.asarray(lambdas, dtype=complex)
    h = hbar * np.arange(1, nh + 1) / nh
    Tinv = np.linalg.inv(T)
    F, G = plant.discretize(h)
    base = Tinv @ F @ T
    coupling = Tinv @ (G @ K) @ T
    sigmas = np.empty((nh, len(lam)))
    for i in range(nh):
        sigmas[i] = max_singular_values(base[i] - lam[:, None, None] * coupling[i])
    i, j = np.unravel_index(int(np.argmax(sigmas)), sigmas.shape)
    return float(sigmas[i, j]), (float(h[i]), complex(lam[j])), (nh, len(lam))


def grid_verdict(worst, guard=1e-6):
    if worst >= 1.0:
        return "refuted"
    return "certified" if worst <= 1.0 - guard else "inconclusive"


def assert_matches_full_grid(cert, worst, point, shape, verdict):
    assert cert.worst_sigma == worst
    assert cert.worst_point == point
    assert cert.grid_shape == shape
    assert cert.verdict == verdict


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


def test_double_integrator_plant_is_built_once():
    di = PlantModel.double_integrator()
    assert PlantModel.double_integrator() is di
    assert di.kind == certify.DOUBLE_INTEGRATOR
    assert not (di.A.flags.writeable or di.B.flags.writeable)
    with pytest.raises(ValueError):
        di.A[0, 1] = 2.0


def test_plant_validation():
    with pytest.raises(ValueError):
        PlantModel(np.eye(2), np.array([[0.0], [1.0]]), "double-integrator")
    with pytest.raises(ValueError):
        PlantModel.general(np.eye(2), np.zeros((2, 1)))  # rank-deficient B
    with pytest.raises(ValueError):
        PlantModel.general(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="^B must have as many rows as A$"):
        PlantModel.general(np.eye(2), [[0.0], [1.0], [0.0]])
    with pytest.raises(ValueError, match="^unknown plant kind 'triple-integrator'$"):
        PlantModel(np.eye(2), [[0.0], [1.0]], "triple-integrator")
    # non-finite entries are named as such, not as a rank or expm failure
    for A, B, name in (([[np.nan, 1.0], [0.0, 0.0]], [[0.0], [1.0]], "A"),
                       ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [np.inf]], "B")):
        with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
            PlantModel.general(A, B)


def test_discretize_double_integrator_closed_form(di_plant):
    for h in (0.0, 0.25, 3.0):
        F, G = di_plant.discretize(h)
        np.testing.assert_array_equal(F, [[1.0, h], [0.0, 1.0]])
        np.testing.assert_array_equal(G, [[0.5 * h * h], [h]])


def test_discretize_general_matches_closed_form():
    plant = PlantModel.general([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    F, G = plant.discretize(1.7)
    np.testing.assert_allclose(F, [[1.0, 1.7], [0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(G, [[0.5 * 1.7**2], [1.7]], atol=1e-13)


def test_discretize_general_multi_input():
    plant = PlantModel.general([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
    h = 0.5
    F, G = plant.discretize(h)
    np.testing.assert_allclose(F, [[1.0, h], [0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(G, [[h, 0.5 * h * h], [0.0, h]], atol=1e-13)


def test_discretize_array_equals_per_interval_calls(di_plant):
    h = np.random.default_rng(0).uniform(0.0, 3.0, size=(3, 4))
    general = PlantModel.general([[0.0, 1.0], [-2.0, -0.5]], [[0.0, 1.0], [1.0, 0.0]])
    for plant in (di_plant, general):
        F, G = plant.discretize(h)
        assert F.shape == (3, 4, 2, 2) and G.shape == (3, 4, 2, plant.m)
        for idx in np.ndindex(h.shape):
            F1, G1 = plant.discretize(float(h[idx]))
            assert F1.shape == (2, 2) and G1.shape == (2, plant.m)
            np.testing.assert_array_equal(F[idx], F1)
            np.testing.assert_array_equal(G[idx], G1)
        for bad in ([0.5, -1.0], -1.0, [[0.5], [np.inf]], np.nan):
            with pytest.raises(ValueError):
                plant.discretize(bad)


# ---------------------------------------------------------------------------
# closed-loop oracle


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
    bad = GainDesign(dsn.mu1, dsn.mu2, dsn.k1, lim.b * 1.05)
    cert = certify_double_integrator(example1_spec, bad)
    assert cert.verdict != "certified"


def holds_with_slack(spec, mu1, mu2, k1, k2, rel):
    """The six gain inequalities at all four corners of the box
    k1 (1 +- rel) x k2 (1 +- rel)."""
    return all(
        check_gain_inequalities(spec, GainDesign(mu1, mu2, k1 * s1, k2 * s2))
        for s1 in (1.0 - rel, 1.0 + rel)
        for s2 in (1.0 - rel, 1.0 + rel)
    )


def test_gain_inequalities_imply_the_transformed_sign_pattern():
    # the exact certificate is the six inequalities alone: they force a
    # positive diagonal and a negative off-diagonal of T^-1 (F - lambda G K) T
    # on the whole region, checked with the product oracle at the corner
    # (hbar, lambdaN), at a small h at lambda2 and in between
    rng = np.random.default_rng(20261019)
    held = 0
    for _ in range(600):
        spec = random_spec(rng)
        ratio = spec.lambdaN / spec.lambda2
        mu1 = spec.hbar * 10.0 ** rng.uniform(-1.0, 0.5)
        scale = (spec.hbar + max(spec.hbar, 2.0 * mu1)) * ratio
        mu2 = mu1 + scale * 10.0 ** rng.uniform(-0.1, 0.5)
        lim = limits(spec, mu1, mu2)
        k2 = rng.uniform(0.8 * lim.c, 1.1 * lim.b)
        k1 = k2 - lim.d * rng.uniform(-0.1, 1.1)
        if not holds_with_slack(spec, mu1, mu2, k1, k2, 1e-6):
            continue
        held += 1
        dsn = GainDesign(mu1, mu2, k1, k2)
        h = spec.hbar * np.array([1e-3, 1e-2, 0.1, 0.5, 1.0])
        lam = np.linspace(spec.lambda2, spec.lambdaN, 4)
        H, L = np.meshgrid(h, lam, indexing="ij")
        S = transformed_by_product(H, L[..., None, None], dsn)
        assert (S[..., 0, 0] > 0.0).all() and (S[..., 1, 1] > 0.0).all()
        assert (S[..., 0, 1] < 0.0).all() and (S[..., 1, 0] < 0.0).all()
    assert held >= 100


def test_certify_equal_gains_not_certified(example1_spec, example1_design):
    dsn = example1_design
    bad = GainDesign(dsn.mu1, dsn.mu2, dsn.k1, dsn.k1)
    cert = certify_double_integrator(example1_spec, bad)
    assert cert.verdict in ("refuted", "inconclusive")


def test_certificate_verdict_rule():
    # the verdict follows from the worst sigma and the method's own test
    rows = [
        (1.2, True, "refuted"),
        (1.0, True, "refuted"),
        (0.5, True, "certified"),
        (0.5, False, "inconclusive"),
        (float("nan"), True, "inconclusive"),
        (float("inf"), False, "refuted"),
    ]
    for sigma, passed, verdict in rows:
        cert = ContractionCertificate(passed, sigma, (1.0, 1.0), "grid-sample", (1, 1))
        assert cert.verdict == verdict, (sigma, passed)
        payload = cert.to_dict()
        assert payload["verdict"] == verdict
        if np.isfinite(sigma):
            assert (payload["worst_sigma"], payload["margin"]) == (sigma, 1.0 - sigma)
        else:
            assert (payload["worst_sigma"], payload["margin"]) == (None, None)
    with pytest.raises(AttributeError):
        cert.verdict = "certified"


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


def test_certify_grid_refutes_a_gain_near_the_float_limit(di_plant, example1_design):
    # unscaled, T^-1 (G K) T overflows and the certificate was a nan
    T = example1_design.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_grid(di_plant, [[1e306, 1e306]], T, 3.0, (0.3, 6.0))
    assert cert.verdict == "refuted"
    assert cert.worst_point == (3.0, 6.0)
    # the true maximum, about 2.2e309, is not a float
    assert cert.worst_sigma == np.inf
    small = certify_grid(di_plant, [[1e306 / 2**600, 1e306 / 2**600]], T, 3.0, (0.3, 6.0))
    assert np.log10(small.worst_sigma) + 600 * np.log10(2.0) == pytest.approx(309.34, abs=0.01)


def test_certify_grid_is_inconclusive_between_the_guard_and_one(di_plant, example1_design):
    # the sampled verdict depends on the resolution: a finer h axis reaches
    # closer to the identity at h -> 0, inside the 1e-6 guard
    dsn = example1_design
    coarse = certify_grid(di_plant, dsn.K, dsn.T, 3.0, (0.3, 6.0), grid=(20000, 2))
    fine = certify_grid(di_plant, dsn.K, dsn.T, 3.0, (0.3, 6.0), grid=(50000, 2))
    assert coarse.verdict == "certified" and coarse.passed
    assert coarse.margin == pytest.approx(1.24e-6, rel=0.01)
    assert fine.verdict == "inconclusive" and not fine.passed
    assert fine.margin == pytest.approx(4.96e-7, rel=0.01)


def test_certify_grid_example2(di_plant, example2_design):
    cert = certify_grid(
        di_plant, example2_design.K, example2_design.T, 1.0, (5.0, 60.0), grid=(200, 200)
    )
    assert cert.verdict == "certified"
    assert cert.margin > 0.0
    assert cert.grid_shape == (200, 200)


def test_certify_grid_degenerate_single_point(di_plant, example1_design):
    # one real value is the one-point band [0.3, 0.3], so grid[1] >= 2 holds
    dsn = example1_design
    with pytest.raises(ValueError, match="^a real lambda band needs at least 2 samples$"):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, [0.3], grid=(1, 1))
    cert = certify_grid(di_plant, dsn.K, dsn.T, 3.0, [0.3], grid=(1, 2))
    S = closed_loop_matrix(di_plant, dsn.K, 0.3, 3.0)
    expected = max_singular_value(np.linalg.inv(dsn.T) @ S @ dsn.T)
    assert cert.worst_sigma == pytest.approx(expected, rel=1e-12)
    assert cert.worst_point == (3.0, 0.3 + 0.0j)
    assert cert.grid_shape == (1, 2)


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


def test_closed_loop_matrix_rejects_bad_gain_shape(di_plant, example1_design):
    # The closed loop F - lam G K needs K to be m x n; certify_grid checks it.
    dsn = example1_design
    with pytest.raises(ValueError, match=r"K must be 1x2, got \(1, 3\)"):
        certify_grid(di_plant, np.array([[0.3, 0.4, 0.5]]), dsn.T, 3.0, (0.3, 6.0))


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
    with pytest.raises(ValueError, match="^T must be square with the plant dimension$"):
        certify_grid(di_plant, dsn.K, np.eye(3), 3.0, (0.3, 6.0))
    with pytest.raises(ValueError, match="^grid needs at least one h sample$"):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, (0.3, 6.0), grid=(0, 200))
    with pytest.raises(ValueError, match="lambda values must be finite, got nan"):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, (float("nan"), 6.0))
    with pytest.raises(ValueError, match="lambda values must be finite, got inf"):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, (0.3, float("inf")))
    with pytest.raises(ValueError, match="lambda values must be finite, got nan"):
        certify_grid(di_plant, dsn.K, dsn.T, 3.0, [0.3, float("nan")])
    # a non-finite gain is an input error, not an inconclusive nan certificate
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^K must have finite entries$"):
            certify_grid(di_plant, [[bad, 0.1]], dsn.T, 3.0, (0.3, 6.0))
        with pytest.raises(ValueError, match="^T must have finite entries$"):
            certify_grid(di_plant, dsn.K, [[118.0, bad], [0.0, 2.0]], 3.0, (0.3, 6.0))
    # a T without a finite inverse, whatever its determinant
    for T in ([[1.0, 1.0], [1.0, 1.0]], [[5e-324, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="^T must be invertible$"):
            certify_grid(di_plant, dsn.K, T, 3.0, (0.3, 6.0))
    # an h grid that would overflow is refused by name
    message = r"^hbar = 1e\+308 is too large for 200 h samples: hbar \* 200 overflows$"
    with pytest.raises(ValueError, match=message):
        certify_grid(di_plant, dsn.K, dsn.T, 1e308, (0.3, 6.0))


@pytest.mark.parametrize("k", [-700, -64, 64, 700])
def test_a_transform_in_other_units_gives_the_same_certificate(di_plant, example1_design, k):
    # for a power of two c, inv(c T) = inv(T) / c and T^-1 M T round alike,
    # so c T is the same transform; no determinant decides it
    dsn = example1_design
    for lambdas in ((0.3, 6.0), [0.5, 2.0 + 1.5j, 4.0 - 0.5j]):
        scaled = certify_grid(di_plant, dsn.K, np.ldexp(dsn.T, k), 3.0, lambdas)
        assert scaled.to_dict() == certify_grid(di_plant, dsn.K, dsn.T, 3.0, lambdas).to_dict()
    assert certify_grid(di_plant, dsn.K, 1e-200 * np.eye(2), 3.0, (0.3, 6.0)).verdict == "refuted"


def test_an_overflowing_evaluation_gets_a_verdict(di_plant):
    # warnings are errors here: an inf sigma refutes and a nan one is inconclusive
    K, band = [[0.001, 0.1]], (0.3, 6.0)
    for hbar in (1e155, 8e305):  # h * h / 2 overflows in G
        assert certify_grid(di_plant, K, None, hbar, band).verdict == "inconclusive"
    huge_T = certify_grid(di_plant, K, [[1.0, 1e300], [0.0, 1.0]], 3.0, band)
    assert huge_T.verdict == "refuted" and huge_T.worst_sigma == np.inf


def test_an_overflowing_third_order_evaluation_gets_a_verdict():
    # the closed loops of a 3-state plant go through LAPACK, which refuses
    # their inf and nan entries: the grid still gets a verdict, warning-free
    chain = PlantModel.general(np.diag([1.0, 1.0], 1), np.array([[0.0], [0.0], [1.0]]))
    K, band = [[0.001, 0.01, 0.1]], (0.3, 6.0)
    for hbar in (1e155, 8e305):
        cert = certify_grid(chain, K, None, hbar, band)
        assert cert.verdict == "inconclusive" and np.isnan(cert.worst_sigma)
        assert certify_gain(chain, hbar, band, gain=K).verdict == "inconclusive"
    huge_T = certify_grid(chain, K, [[1.0, 0.0, 1e300], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                          3.0, band)
    assert huge_T.verdict == "refuted" and huge_T.worst_sigma == np.inf


def test_certify_gain_takes_one_gain_and_a_transform_only_with_a_raw_gain(
    di_plant, example1_design
):
    dsn, band = example1_design, (0.3, 6.0)
    for kwargs in ({"design": dsn, "gain": dsn.K}, {}):
        with pytest.raises(ValueError, match="^exactly one of design or gain must be set$"):
            certify_gain(di_plant, 3.0, band, **kwargs)
    # a design carries its own T: one next to it is an error, not ignored
    with pytest.raises(ValueError, match="^transform goes with a raw gain; a design carries"):
        certify_gain(di_plant, 3.0, band, design=dsn, transform=7.0 * np.eye(2))


def test_a_design_serves_the_double_integrator_only(di_plant, example1_design):
    # the same (A, B) under the general tag, and a 3-state plant, both refuse it
    message = (
        "^design synthesis only covers the double-integrator plant; "
        "give an explicit gain section for general dynamics$"
    )
    chain = np.diag([1.0, 1.0], 1)
    for plant in (PlantModel.general(di_plant.A, di_plant.B),
                  PlantModel.general(chain, np.array([[0.0], [0.0], [1.0]]))):
        with pytest.raises(ValueError, match=message):
            certify_gain(plant, 3.0, (0.3, 6.0), design=example1_design)
        with pytest.raises(ValueError, match=message):
            SimulationConfig(
                n_agents=5, plant=plant, hbar=3.0, steps=10, runs=1, seed=0,
                topology=TopologyRecipe(0.3, 6.0), design=example1_design,
                init_bounds=((-1.0, 1.0),) * plant.n,
            )


def test_certify_gain_picks_the_certificate_by_gain_and_band(di_plant, example1_design):
    dsn, band = example1_design, (0.3, 6.0)
    exact = certify_gain(di_plant, 3.0, band, design=dsn)
    assert exact == certify_double_integrator(DesignSpec(3.0, *band), dsn)
    # a band given as a list is the same real set: the exact certificate
    listed = certify_gain(di_plant, 3.0, list(band), design=dsn)
    assert listed == exact and listed.method == "exact-inequality"
    # the design's (K, T) as a raw gain gets the grid certificate of K under T
    raw = certify_gain(di_plant, 3.0, band, gain=dsn.K, transform=dsn.T)
    assert raw == certify_grid(di_plant, dsn.K, dsn.T, 3.0, band)
    assert raw.grid_shape == (200, 200)
    # a raw gain without a transform is certified under the identity
    bare = certify_gain(di_plant, 3.0, band, gain=dsn.K)
    assert bare == certify_grid(di_plant, dsn.K, np.eye(2), 3.0, band)


def test_real_band_ends_match_full_grid():
    # sigma_max(M0 - lambda M1) is convex in lambda, so a real band is
    # evaluated at its two ends only; the oracle samples the whole linspace
    rng = np.random.default_rng(20261018)
    di = PlantModel.double_integrator()
    tagged = PlantModel.general(di.A, di.B)
    for _ in range(8):
        spec = random_spec(rng)
        band = (spec.lambda2, spec.lambdaN)
        dsn = design(spec)
        worst, point, shape = full_grid_worst(di, dsn.K, dsn.T, spec.hbar, (64, 64), band)
        verdict = "certified" if check_gain_inequalities(spec, dsn) else ("refuted" if worst >= 1.0 else "inconclusive")
        cert = certify_double_integrator(spec, dsn)
        assert_matches_full_grid(cert, worst, point, shape, verdict)
        for K in (dsn.K, dsn.K * rng.uniform(0.3, 4.0)):
            for plant, grid in ((di, (500, 500)), (tagged, (200, 200))):
                worst, point, shape = full_grid_worst(plant, K, dsn.T, spec.hbar, grid, band)
                cert = certify_grid(plant, K, dsn.T, spec.hbar, band, grid=grid)
                assert_matches_full_grid(cert, worst, point, shape, grid_verdict(worst))
    # a 3-state general plant goes through the LAPACK singular values
    A = 0.5 * rng.normal(size=(3, 3)) - 1.5 * np.eye(3)
    B = rng.normal(size=(3, 1))
    K = 0.3 * rng.normal(size=(1, 3))
    plant = PlantModel.general(A, B)
    worst, point, shape = full_grid_worst(plant, K, np.eye(3), 0.2, (50, 40), (1.0, 3.0))
    cert = certify_grid(plant, K, None, 0.2, (1.0, 3.0), grid=(50, 40))
    assert_matches_full_grid(cert, worst, point, shape, grid_verdict(worst))


def real_sets(rng, lo, hi):
    """The real set {lo, hi} plus interior values in several containers:
    tuple, list, array (shuffled, with a repeated value), and the one-point
    set {lo}, whose band is (lo, lo)."""
    inner = list(rng.uniform(lo, hi, size=3))
    values = [hi, *inner, lo, inner[0]]
    rng.shuffle(values)
    return [
        ((lo, hi), [lo, hi]),
        ((lo, hi), (hi, lo)),
        ((lo, hi), tuple(values)),
        ((lo, hi), np.array(values)),
        ((lo, hi), np.array(values, dtype=complex)),
        ((lo, lo), [lo]),
        ((lo, lo), np.full(3, lo)),
    ]


def test_a_real_set_in_any_container_is_its_band(di_plant):
    # convexity in lambda: a real set's certificate is its band's, whatever
    # holds the values
    rng = np.random.default_rng(20261019)
    for _ in range(6):
        spec = random_spec(rng)
        dsn = design(spec)
        for K in (dsn.K, dsn.K * rng.uniform(0.3, 4.0)):
            for band, values in real_sets(rng, spec.lambda2, spec.lambdaN):
                want = certify_grid(di_plant, K, dsn.T, spec.hbar, band, grid=(64, 8))
                got = certify_grid(di_plant, K, dsn.T, spec.hbar, values, grid=(64, 8))
                assert got == want and got.grid_shape == (64, 8)


def test_a_design_over_any_real_set_gets_the_exact_certificate(di_plant):
    rng = np.random.default_rng(11)
    for _ in range(6):
        spec = random_spec(rng)
        dsn = design(spec)
        for band, values in real_sets(rng, spec.lambda2, spec.lambdaN):
            exact = certify_double_integrator(DesignSpec(spec.hbar, *band), dsn)
            assert certify_gain(di_plant, spec.hbar, values, design=dsn) == exact
            assert exact.method == "exact-inequality"


def test_a_complex_set_keeps_its_grid_certificate(di_plant, example1_design):
    # a directed ring's eigenvalues are evaluated as given, by the design too
    dsn = example1_design
    g = WeightedDigraph.from_edges(5, [(i, (i - 1) % 5, 1.0) for i in range(5)])
    lambdas = consensus_eigenvalues(g)
    assert np.abs(lambdas.imag).max() > 0.1
    for values in (lambdas, list(lambdas), tuple(lambdas[::-1])):
        worst, point, shape = full_grid_worst(di_plant, dsn.K, dsn.T, 3.0, (30, 1), list(values))
        cert = certify_grid(di_plant, dsn.K, dsn.T, 3.0, values, grid=(30, 1))
        assert_matches_full_grid(cert, worst, point, shape, grid_verdict(worst))
        assert shape == (30, 4)
        by_design = certify_gain(di_plant, 3.0, values, design=dsn)
        assert by_design == certify_grid(di_plant, dsn.K, dsn.T, 3.0, values)
        assert (by_design.method, by_design.grid_shape) == ("grid-sample", (200, 4))
    # the lambdas are read once, so an iterator serves a design as a list does
    once = certify_gain(di_plant, 3.0, iter(lambdas), design=dsn)
    assert once == certify_gain(di_plant, 3.0, lambdas, design=dsn)


@pytest.mark.parametrize("cap", [3, 12])
def test_chunked_eigenvalue_grid_matches_row_loop(monkeypatch, di_plant, example1_design, cap):
    # a fixed digraph's 5 complex eigenvalues over 25 h rows: 1 or 2 rows per
    # chunk, the last chunk partial
    g = WeightedDigraph.from_edges(6, [(i, (i - 1) % 6, 1.0 + 0.1 * i) for i in range(6)])
    lambdas = consensus_eigenvalues(g)
    assert len(lambdas) == 5 and np.abs(lambdas.imag).max() > 0.1
    monkeypatch.setattr(certify, "_STACK_CAP", cap)
    dsn = example1_design
    worst, point, shape = full_grid_worst(di_plant, dsn.K, dsn.T, 3.0, (25, 1), lambdas)
    cert = certify_grid(di_plant, dsn.K, dsn.T, 3.0, lambdas, grid=(25, 1))
    assert_matches_full_grid(cert, worst, point, shape, grid_verdict(worst))


def full_set_report(plant, K, T, hbar, nh, lambdas) -> str:
    """Oracle for a complex set's grid report: ``_worst_sample`` at every
    value of the set, as JSON so that signed zeros count."""
    pair = certify._gain_pair(plant, gain=K, transform=T)
    lam = np.asarray(lambdas, dtype=complex)
    worst, point = certify._worst_sample(plant, pair, hbar, nh, lam)
    passed = worst <= 1.0 - certify._GUARD
    cert = ContractionCertificate(passed, worst, point, "grid-sample", (nh, len(lam)), certify._GUARD)
    return json.dumps(cert.to_dict())


def test_a_complex_set_is_certified_at_its_fold_hull(di_plant, example1_design):
    # sigma is convex in lambda over C and M(conj lambda) = conj M(lambda), so
    # the members on the upper hull of (Re, |Im|) give the full set's report
    dsn = example1_design
    rng = np.random.default_rng(20261019)
    cases = []  # (plant, K, T, hbar, lambdas)
    dropped = 0
    for n in (3, 5, 8, 13, 20, 29, 40):
        for _ in range(3):
            lam = consensus_eigenvalues(unbalanced_digraph(rng, n))
            while not lam.imag.any():  # a directed tree's eigenvalues are real
                lam = consensus_eigenvalues(unbalanced_digraph(rng, n))
            spec = DesignSpec(float(10.0 ** rng.uniform(-1.0, 0.5)), float(lam.real.min()),
                              float(np.abs(lam).max()))
            own = design(spec)
            cases += [(di_plant, own.K, own.T, spec.hbar, lam),
                      (di_plant, own.K * rng.uniform(0.5, 3.0), own.T, spec.hbar, lam[::-1])]
            dropped += not certify._fold_hull(lam).all()
    assert dropped >= 15
    ring = consensus_eigenvalues(WeightedDigraph.from_edges(
        7, [(i, (i - 1) % 7, 1.0) for i in range(7)]))
    square = [1 + 1j, 3 + 1j, 1 - 1j, 3 - 1j, 2 + 0.5j, 1 + 0j, 3 + 0j, 2 + 1j, 2.0, 1.5 + 0.2j]
    special = [
        ring[[2, 0, 2, 1, 0, 3, 3]],                        # duplicates, conjugates too
        ring[ring.imag > 0],                                 # not closed under conjugation
        square,                                              # collinear edges of a square
        [2.0 + 0.5j, 2.0 + 0.1j, 2.0, 2.0 + 0.9j, 2.0 - 0.3j],  # one vertical line
        [1.0 + 2j, 2.0 + 2j, 3.0 + 2j, 0.5 + 2j, 2.0 - 2j],  # one horizontal line
        [1.5 + 0.7j],                                        # a single non-real value
        [0.3, 2.0 + 0.4j, 6.0, 4.0, 3.0 - 0.1j, 0.3],        # mixed real and complex
        [complex(2.0, -0.0), 1.0 + 0.5j, complex(2.0, 0.0), 3.0 + 0.0j, 2.5 - 0.5j],
    ]
    for lam in special:
        cases += [(di_plant, dsn.K, dsn.T, 3.0, lam), (di_plant, 0.3 * dsn.K, dsn.T, 3.0, lam[::-1])]
    for scale in (1e150, 1e-150, 2.0**500, 2.0**-500):
        lam = scale * np.asarray(square)
        cases += [(di_plant, dsn.K, dsn.T, 3.0, lam), (di_plant, dsn.K / scale, dsn.T, 3.0, lam)]
    # a 3-state general plant goes through the LAPACK singular values
    A = 0.5 * rng.normal(size=(3, 3)) - 1.5 * np.eye(3)
    plant = PlantModel.general(A, rng.normal(size=(3, 1)))
    K3 = 0.3 * rng.normal(size=(1, 3))
    cases += [(plant, K3, None, 0.2, ring), (plant, 5.0 * K3, None, 0.2, square)]
    # a zero gain: every sample of a row ties, so the first value is reported
    # (the square's first value 1 + 1j is a vertex; 2 + 0.5j is interior)
    cases += [(di_plant, np.zeros((1, 2)), dsn.T, 3.0, square[4:] + square[:4])]
    for plant, K, T, hbar, lam in cases:
        cert = certify_grid(plant, K, T, hbar, lam, grid=(30, 1))
        assert json.dumps(cert.to_dict()) == full_set_report(plant, K, T, hbar, 30, lam)
        assert cert.grid_shape == (30, len(lam))
    # the square's fold keeps 1 + 1j and 3 + 1j (not their conjugates, which
    # come later), 2 + 1j on the top edge and 1 + 0j below the first point;
    # 3 + 0j lies between 3 - 1j and 3 + 1j, and the rest inside
    assert np.flatnonzero(certify._fold_hull(np.asarray(square))).tolist() == [0, 1, 5, 7]


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
        S_hat = transformed_by_product(h, lam, example1_design)
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
        lbar = reduced_laplacian(g)
        h = float(rng.uniform(0.05, 3.0))
        got = network_contraction(di_plant, dsn.K, dsn.T, lbar, h)
        want = max(
            max_singular_value(transformed_by_product(h, lam, dsn))
            for lam in np.linalg.eigvalsh(lbar)
        )
        assert got == pytest.approx(want, abs=1e-9)


def per_eigenvalue_sigma(g, dsn, h):
    return max(
        max_singular_value(transformed_by_product(h, lam, dsn))
        for lam in consensus_eigenvalues(g)
    )


@pytest.mark.parametrize("which", ["example1_design", "example2_design"])
def test_network_contraction_of_a_directed_cycle_is_the_per_eigenvalue_maximum(
    request, di_plant, which
):
    # a directed ring has a normal Laplacian, so the network sigma is the
    # largest sigma over its complex eigenvalues
    dsn = request.getfixturevalue(which)
    for n in [3, 4, 6]:
        g = WeightedDigraph.from_edges(n, [(i, (i - 1) % n, 0.8) for i in range(n)])
        for h in [0.01, 0.3, 0.7, 1.0]:
            got = network_contraction(di_plant, dsn.K, dsn.T, reduced_laplacian(g), h)
            assert got == pytest.approx(per_eigenvalue_sigma(g, dsn, h), rel=1e-12)


@pytest.mark.parametrize("which", ["example1_design", "example2_design"])
def test_network_contraction_of_a_non_normal_balanced_digraph_bounds_each_mode(
    request, di_plant, which
):
    # two weighted directed Hamiltonian cycles: balanced, not normal; the
    # Schur form makes the network map block triangular with the per-mode
    # maps on its diagonal, so its sigma is at least each of theirs
    dsn = request.getfixturevalue(which)
    rng = np.random.default_rng(29)
    n = 7
    for _ in range(5):
        w = np.zeros((n, n))
        for weight in rng.uniform(0.3, 1.5, size=2):
            order = rng.permutation(n)
            w[order, np.roll(order, 1)] += weight
        g = WeightedDigraph(w)
        lap = np.diag(w.sum(axis=1)) - w
        np.testing.assert_allclose(lap.sum(axis=0), 0.0, atol=1e-12)
        assert np.abs(lap @ lap.T - lap.T @ lap).max() > 1e-3
        for h in [0.01, 0.3, 1.0]:
            got = network_contraction(di_plant, dsn.K, dsn.T, reduced_laplacian(g), h)
            assert got >= per_eigenvalue_sigma(g, dsn, h) - 1e-12


@pytest.mark.parametrize(
    "K, h, expected",
    [(None, 1e155, math.nan), (None, 1e200, math.nan), ([[1e306, 1e306]], 3.0, math.inf)],
)
def test_network_contraction_of_finite_input_is_a_sigma(di_plant, example1_design, K, h, expected):
    # an overflowing network matrix gives a nan or inf sigma, as certify_grid
    # does at the same hbar; the suite turns a numpy warning into an error
    dsn = example1_design
    K = dsn.K if K is None else K
    lbar = np.array([[2.0, -1.0], [-1.0, 2.0]])
    sigma = network_contraction(di_plant, K, dsn.T, lbar, h)
    assert sigma == expected or (math.isnan(sigma) and math.isnan(expected))
    verdict = certify_grid(di_plant, K, dsn.T, h, (1.0, 3.0)).verdict
    assert verdict == ("inconclusive" if math.isnan(expected) else "refuted")


def test_network_contraction_rejects_bad_shapes(di_plant, example1_design):
    with pytest.raises(ValueError):
        network_contraction(
            di_plant, example1_design.K, example1_design.T, np.zeros((2, 3)), 1.0
        )
