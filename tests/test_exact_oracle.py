import numpy as np
import pytest

from exact_oracle import closed_loop, contraction_gap, contracts, design_matrices
from sdconsensus.certify import certify_double_integrator
from sdconsensus.numerics import max_singular_values
from sdconsensus.synthesis import GainDesign


def float_sigma(dsn, h, lam):
    """The package's sigma of T^-1 (F - lambda G K) T with the design's T and K."""
    M = np.linalg.inv(dsn.T) @ (np.array([[1.0, h], [0.0, 1.0]])
                                - lam * np.array([[0.5 * h * h], [h]]) @ dsn.K) @ dsn.T
    return float(max_singular_values(M[None])[0])


@pytest.fixture(params=["example1", "example2"])
def example(request):
    spec = request.getfixturevalue(f"{request.param}_spec")
    return spec, request.getfixturevalue(f"{request.param}_design")


def test_oracle_matrices_are_the_designs(example):
    # T's entries are single roundings of exact differences and sums; K goes
    # through a float inverse, so it agrees to a few units in the last place
    _, dsn = example
    T, K = design_matrices(dsn)
    assert np.array_equal(np.array(T, dtype=float), dsn.T)
    np.testing.assert_allclose(np.array(K, dtype=float), dsn.K, rtol=1e-15, atol=0.0)


def test_examples_contract_at_their_certificates_worst_point(example):
    spec, dsn = example
    cert = certify_double_integrator(spec, dsn)
    h, lam = cert.worst_point
    assert cert.verdict == "certified" and lam.imag == 0.0
    assert contracts(dsn, h, lam.real)
    exact = np.linalg.norm(np.array(closed_loop(dsn, h, lam.real), dtype=float), 2)
    assert cert.worst_sigma == pytest.approx(exact, rel=1e-12)


def test_examples_contract_at_the_shortest_simulated_interval(example):
    # h_min = hbar / 1000, the runs' default, at both band ends
    spec, dsn = example
    for lam in (spec.lambda2, spec.lambdaN):
        trace, det = contraction_gap(dsn, spec.hbar / 1000, lam)
        assert trace > 0 and det > 0, lam


def test_oracle_proves_contraction_where_sigma_rounds_to_one(example1_spec, example1_design):
    # at h = 1e-17, 1 - sigma is about 1e-36: no float below one resolves it,
    # while the exact determinant of I - M^T M is positive
    dsn = example1_design
    for lam, det_value in ((0.3, 8.24e-38), (6.0, 2.14e-36)):
        assert float_sigma(dsn, 1e-17, lam) > 1.0 - 1e-15
        trace, det = contraction_gap(dsn, 1e-17, lam)
        assert trace > 0 and det > 0
        assert float(det) == pytest.approx(det_value, rel=1e-3)


def test_oracle_refutes_a_gain_ten_times_too_large(example1_spec, example1_design):
    dsn = example1_design
    loud = GainDesign(dsn.mu1, dsn.mu2, 10.0 * dsn.k1, 10.0 * dsn.k2)
    hbar, lam = example1_spec.hbar, example1_spec.lambdaN
    assert not contracts(loud, hbar, lam)
    assert float_sigma(loud, hbar, lam) > 1.0
