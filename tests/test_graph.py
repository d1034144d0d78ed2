import numpy as np
import pytest

from sdconsensus.graph import (
    GraphBandError,
    UnsupportedGraphError,
    WeightedDigraph,
    consensus_eigenvalues,
    has_spanning_tree,
    is_balanced,
    laplacian,
    random_balanced_graph,
    reduced_laplacian,
    reduction_basis,
    spectrum,
)


def pair_graph(w=1.0):
    return WeightedDigraph.from_edges(2, [(0, 1, w)], symmetric=True)


def complete_graph(n):
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return WeightedDigraph(w)


def directed_cycle(n):
    # every node receives from its predecessor
    return WeightedDigraph.from_edges(n, [(i, (i - 1) % n, 1.0) for i in range(n)])


def random_symmetric(rng, n, p):
    mask = np.triu(rng.random((n, n)) < p, 1)
    w = np.zeros((n, n))
    w[mask | mask.T] = 1.0
    return WeightedDigraph(w)


# ---------------------------------------------------------------------------
# construction


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedDigraph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        WeightedDigraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # self-loop
    with pytest.raises(ValueError):
        WeightedDigraph(np.array([[0.0, -1.0], [0.0, 0.0]]))  # negative
    with pytest.raises(ValueError):
        WeightedDigraph(np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="^graph needs at least one node$"):
        WeightedDigraph(np.zeros((0, 0)))


def test_graph_is_immutable():
    g = pair_graph()
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_pair():
    np.testing.assert_array_equal(laplacian(pair_graph()), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_empty_edges():
    g = WeightedDigraph(np.zeros((3, 3)))
    np.testing.assert_array_equal(laplacian(g), np.zeros((3, 3)))


def test_laplacian_directed_cycle():
    lap = laplacian(directed_cycle(3))
    np.testing.assert_array_equal(
        lap, [[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
    )


def test_laplacian_annihilates_ones():
    g = WeightedDigraph.from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (3, 0, 3.0)])
    assert np.array_equal(laplacian(g) @ np.ones(4), np.zeros(4))
    rng = np.random.default_rng(3)
    w = rng.random((6, 6))
    np.fill_diagonal(w, 0.0)
    g = WeightedDigraph(w)
    assert np.abs(laplacian(g) @ np.ones(6)).max() < 1e-13


# ---------------------------------------------------------------------------
# balancedness and spanning tree


def test_is_balanced():
    assert is_balanced(pair_graph())
    assert not is_balanced(WeightedDigraph.from_edges(2, [(0, 1, 1.0)]))


def test_spanning_tree_directed_path():
    # broadcast chain: node 0's state reaches 1, 1's reaches 2, ...
    g = WeightedDigraph.from_edges(4, [(1, 0, 1.0), (2, 1, 1.0), (3, 2, 1.0)])
    assert has_spanning_tree(g)


def test_spanning_tree_disconnected_pairs():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], symmetric=True)
    assert not has_spanning_tree(g)


def test_spanning_tree_complete():
    assert has_spanning_tree(complete_graph(5))


def test_spanning_tree_single_node():
    assert has_spanning_tree(WeightedDigraph(np.zeros((1, 1))))


def test_spanning_tree_orientation_semantics():
    # star where node 0 feeds everyone: rooted tree at 0
    out_star = WeightedDigraph.from_edges(4, [(i, 0, 1.0) for i in range(1, 4)])
    assert has_spanning_tree(out_star)
    # star where node 0 only listens: no node reaches all others
    in_star = WeightedDigraph.from_edges(4, [(0, i, 1.0) for i in range(1, 4)])
    assert not has_spanning_tree(in_star)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_pair():
    summ = spectrum(pair_graph())
    np.testing.assert_allclose(summ.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert summ.lambda2 == pytest.approx(2.0, abs=1e-12)
    assert summ.lambdaN == pytest.approx(2.0, abs=1e-12)


def test_spectrum_complete_three_nodes():
    # oracle: roots of the characteristic polynomial -x^3 + 6 x^2 - 9 x
    roots = np.sort(np.roots([-1.0, 6.0, -9.0, 0.0]).real)
    summ = spectrum(complete_graph(3))
    np.testing.assert_allclose(summ.eigenvalues, roots, atol=1e-9)
    np.testing.assert_allclose(summ.eigenvalues, [0.0, 3.0, 3.0], atol=1e-9)


def test_spectrum_disconnected_has_zero_lambda2():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], symmetric=True)
    assert abs(spectrum(g).lambda2) <= 1e-10


def test_spectrum_rejects_unbalanced():
    with pytest.raises(UnsupportedGraphError):
        spectrum(WeightedDigraph.from_edges(2, [(0, 1, 1.0)]))
    with pytest.raises(ValueError, match="^spectrum needs at least two nodes$"):
        spectrum(WeightedDigraph(np.zeros((1, 1))))


def test_spectrum_connectivity_equivalence():
    rng = np.random.default_rng(5)
    n_connected = 0
    for _ in range(1000):
        g = random_symmetric(rng, int(rng.integers(3, 9)), float(rng.uniform(0.1, 0.7)))
        connected = has_spanning_tree(g)
        n_connected += connected
        assert (spectrum(g).lambda2 > 1e-8) == connected
    assert 0 < n_connected < 1000  # both branches exercised


def test_spectrum_inside_gershgorin_disc():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_symmetric(rng, 6, 0.5)
        summ = spectrum(g)
        radius = 2.0 * g.weights.sum(axis=1).max()
        d_max = radius / 2.0
        assert np.all(np.abs(summ.eigenvalues - d_max) <= d_max + 1e-10)


# ---------------------------------------------------------------------------
# reduction basis and reduced laplacian


def test_reduction_basis_two_agents():
    basis = reduction_basis(2)
    np.testing.assert_allclose(
        np.abs(basis[:, 0]), [1.0 / np.sqrt(2.0)] * 2, rtol=1e-15
    )
    assert basis[0, 0] * basis[1, 0] < 0.0


@pytest.mark.parametrize("n", [2, 3, 10, 100, 500])
def test_reduction_basis_invariants(n):
    mbar = reduction_basis(n)
    np.testing.assert_allclose(mbar.T @ mbar, np.eye(n - 1), rtol=0.0, atol=1e-12)
    assert np.abs(mbar.T @ np.ones(n)).max() < 1e-12


def test_reduction_basis_rejects_single_node():
    with pytest.raises(ValueError):
        reduction_basis(1)


def test_reduced_laplacian_symmetric_for_balanced():
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_symmetric(rng, int(rng.integers(3, 9)), 0.5)
        red = reduced_laplacian(g, reduction_basis(g.n))
        assert np.abs(red - red.T).max() < 1e-12


def test_reduced_laplacian_pair():
    red = reduced_laplacian(pair_graph(), reduction_basis(2))
    np.testing.assert_allclose(red, [[2.0]], atol=1e-14)


def test_reduced_laplacian_complete_three():
    red = reduced_laplacian(complete_graph(3), reduction_basis(3))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(red)), [3.0, 3.0], atol=1e-9)


def test_reduced_laplacian_disconnected_is_singular():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], symmetric=True)
    red = reduced_laplacian(g, reduction_basis(4))
    assert np.abs(np.linalg.eigvalsh(red)).min() < 1e-10


def test_reduced_laplacian_eigenvalue_multiset():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_symmetric(rng, int(rng.integers(3, 9)), 0.6)
        red_eigs = np.sort(np.linalg.eigvalsh(reduced_laplacian(g, reduction_basis(g.n))))
        full = np.sort(spectrum(g).eigenvalues)
        with_zero = np.sort(np.concatenate([[0.0], red_eigs]))
        np.testing.assert_allclose(with_zero, full, atol=1e-8)


def test_reduced_laplacian_rejects_unbalanced():
    with pytest.raises(UnsupportedGraphError):
        reduced_laplacian(directed_cycle(3), reduction_basis(3))
    with pytest.raises(ValueError, match="^basis is for 3 nodes, graph has 2$"):
        reduced_laplacian(pair_graph(), reduction_basis(3))


def test_consensus_eigenvalues_balanced_matches_spectrum():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_symmetric(rng, 6, 0.6)
        got = np.sort(consensus_eigenvalues(g).real)
        assert np.abs(consensus_eigenvalues(g).imag).max() < 1e-9
        np.testing.assert_allclose(got, spectrum(g).eigenvalues[1:], atol=1e-9)


def test_consensus_eigenvalues_directed_cycle():
    n = 5
    # oracle: circulant eigenvalues 1 - exp(2 pi i k / n), k = 1..n-1
    k = np.arange(1, n)
    oracle = 1.0 - np.exp(2j * np.pi * k / n)
    oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
    got = consensus_eigenvalues(directed_cycle(n))
    np.testing.assert_allclose(got, oracle, atol=1e-9)


# ---------------------------------------------------------------------------
# random balanced graphs


def test_random_balanced_graph_two_nodes():
    g = random_balanced_graph(2, 0.3, 6.0, rng_seed=1)
    summ = spectrum(g)
    assert 0.3 <= summ.lambda2 <= summ.lambdaN <= 6.0
    assert g.weights[0, 1] == g.weights[1, 0]


def test_random_balanced_graph_hundred_agents():
    g = random_balanced_graph(100, 5.0, 60.0, rng_seed=2)
    assert is_balanced(g)
    assert has_spanning_tree(g)
    summ = spectrum(g)
    assert summ.lambda2 >= 5.0
    assert summ.lambdaN <= 60.0


def test_random_balanced_graph_deterministic():
    g1 = random_balanced_graph(10, 1.0, 8.0, rng_seed=33)
    g2 = random_balanced_graph(10, 1.0, 8.0, rng_seed=33)
    assert np.array_equal(g1.weights, g2.weights)


def test_random_balanced_graph_infeasible_band():
    # a near-unit spectral ratio needs an almost complete graph; random
    # 50-node samples never reach it, so the retry budget must trip
    with pytest.raises(GraphBandError) as info:
        random_balanced_graph(50, 1.0, 1.0001, rng_seed=4)
    # a band too narrow for the sampled graphs is bad input
    assert isinstance(info.value, ValueError)
    assert info.value.best_ratio > 1.0001
    assert "best spectral ratio" in str(info.value)


def test_random_balanced_graph_rejects_bad_band():
    with pytest.raises(ValueError):
        random_balanced_graph(5, 2.0, 1.0, rng_seed=0)
    with pytest.raises(ValueError):
        random_balanced_graph(5, 0.0, 1.0, rng_seed=0)
    with pytest.raises(ValueError, match="^need at least two nodes$"):
        random_balanced_graph(1, 0.3, 6.0, rng_seed=0)
