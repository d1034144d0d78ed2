import re

import numpy as np
import pytest

from sdconsensus import graph
from sdconsensus.graph import (
    WeightedDigraph,
    consensus_eigenvalues,
    has_spanning_tree,
    is_balanced,
    laplacian,
    pool_band,
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


def unbalanced_digraph(rng, n):
    # a random directed spanning tree plus sparse extra links, random weights
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        w[order[idx], order[rng.integers(0, idx)]] = rng.uniform(0.5, 1.5)
    extra = (rng.random((n, n)) < 0.15) & (w == 0.0)
    np.fill_diagonal(extra, False)
    w[extra] = rng.uniform(0.1, 1.0, size=int(extra.sum()))
    return WeightedDigraph(w)


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
    # finite weights whose total overflows would give an infinite degree
    with pytest.raises(ValueError, match="^weights must be finite, and so must their total$"):
        WeightedDigraph(np.array([[0.0, 1e308], [1e308, 0.0]]))
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
    # balance is exact symmetry: one unit in the last place breaks it
    rng = np.random.default_rng(2)
    w = rng.uniform(0.2, 1.0, (5, 5))
    np.fill_diagonal(w, 0.0)
    sym = (w + w.T) / 2.0  # float addition commutes, so this is exactly symmetric
    assert is_balanced(WeightedDigraph(sym))
    off = sym.copy()
    off[0, 1] = np.nextafter(off[0, 1], 2.0)
    assert not is_balanced(WeightedDigraph(off))


def _seeded_digraphs():
    """Random 3- to 8-node weight matrices: a digraph and its symmetric part."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        w = rng.uniform(0.2, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(w, 0.0)
        yield w
        yield np.triu(w, 1) + np.triu(w, 1).T


def _pool_band_outcome(g):
    try:
        return pool_band([g])
    except ValueError as exc:
        return type(exc), str(exc)


def test_graph_answers_do_not_depend_on_the_weight_scale():
    # scaling by 2^k is exact, so a graph and its scaled copy must get the
    # same balance and spanning-tree answers, and a band scaled by 2^k
    outcomes = set()
    for w in _seeded_digraphs():
        base = WeightedDigraph(w)
        balanced, tree = is_balanced(base), has_spanning_tree(base)
        band = _pool_band_outcome(base)
        outcomes.add((balanced, tree))
        for k in range(-60, 61):
            g = WeightedDigraph(np.ldexp(w, k))
            assert is_balanced(g) == balanced, k
            assert has_spanning_tree(g) == tree, k
            got = _pool_band_outcome(g)
            if isinstance(band[0], type):
                assert got == band, k
            else:
                assert got == pytest.approx(tuple(np.ldexp(band, k)), rel=1e-12, abs=0.0), k
    # both balance answers occur, and some balanced graph has a spanning tree
    assert {balanced for balanced, _ in outcomes} == {True, False}
    assert (True, True) in outcomes


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
    ev = spectrum(pair_graph())
    np.testing.assert_allclose(ev, [0.0, 2.0], atol=1e-12)
    assert ev[1] == pytest.approx(2.0, abs=1e-12)
    assert ev[-1] == pytest.approx(2.0, abs=1e-12)
    assert not ev.flags.writeable


def test_spectrum_complete_three_nodes():
    # oracle: roots of the characteristic polynomial -x^3 + 6 x^2 - 9 x
    roots = np.sort(np.roots([-1.0, 6.0, -9.0, 0.0]).real)
    ev = spectrum(complete_graph(3))
    np.testing.assert_allclose(ev, roots, atol=1e-9)
    np.testing.assert_allclose(ev, [0.0, 3.0, 3.0], atol=1e-9)


def test_spectrum_disconnected_has_zero_lambda2():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], symmetric=True)
    assert abs(spectrum(g)[1]) <= 1e-10


def test_spectrum_rejects_unbalanced():
    with pytest.raises(ValueError, match="^exact spectrum requires a balanced graph$"):
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
        assert (spectrum(g)[1] > 1e-8) == connected
    assert 0 < n_connected < 1000  # both branches exercised


def test_spectrum_inside_gershgorin_disc():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_symmetric(rng, 6, 0.5)
        ev = spectrum(g)
        radius = 2.0 * g.weights.sum(axis=1).max()
        d_max = radius / 2.0
        assert np.all(np.abs(ev - d_max) <= d_max + 1e-10)


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
        red = reduced_laplacian(g)
        assert np.abs(red - red.T).max() < 1e-12


def test_reduced_laplacian_pair():
    red = reduced_laplacian(pair_graph())
    np.testing.assert_allclose(red, [[2.0]], atol=1e-14)


def test_reduced_laplacian_complete_three():
    red = reduced_laplacian(complete_graph(3))
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(red)), [3.0, 3.0], atol=1e-9)


def test_reduced_laplacian_disconnected_is_singular():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], symmetric=True)
    red = reduced_laplacian(g)
    assert np.abs(np.linalg.eigvalsh(red)).min() < 1e-10


def test_reduced_laplacian_eigenvalue_multiset():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_symmetric(rng, int(rng.integers(3, 9)), 0.6)
        red_eigs = np.sort(np.linalg.eigvalsh(reduced_laplacian(g)))
        full = np.sort(spectrum(g))
        with_zero = np.sort(np.concatenate([[0.0], red_eigs]))
        np.testing.assert_allclose(with_zero, full, atol=1e-8)


def test_reduced_laplacian_of_a_directed_cycle():
    # a directed ring is balanced but not symmetric; its Laplacian is a
    # circulant, so normal, and so is the block on the disagreement subspace
    for n in [2, 3, 5, 12]:
        g = directed_cycle(n)
        mbar = reduction_basis(n)
        red = reduced_laplacian(g)
        assert red.shape == (n - 1, n - 1)
        np.testing.assert_array_equal(red, mbar.T @ laplacian(g) @ mbar)
        np.testing.assert_allclose(red @ red.T, red.T @ red, rtol=0.0, atol=1e-12)
        if n > 2:
            assert np.abs(red - red.T).max() > 0.5


def test_consensus_eigenvalues_are_the_reduced_laplacian_spectrum():
    # on unbalanced 20-node digraphs with a spanning tree, bit for bit the
    # sorted eigenvalues of mbar.T L mbar; on symmetric graphs, bit for bit
    # spectrum(g)[1:], the values pool_band reads its band from
    rng = np.random.default_rng(23)
    graphs = [random_symmetric(rng, int(rng.integers(2, 9)), 0.5) for _ in range(10)]
    graphs += [unbalanced_digraph(rng, 20) for _ in range(10)]
    for g in graphs:
        mbar = reduction_basis(g.n)
        product = mbar.T @ laplacian(g) @ mbar
        np.testing.assert_array_equal(reduced_laplacian(g), product)
        ev = np.linalg.eigvals(product)
        ev = ev[np.lexsort((ev.imag, ev.real))]
        if is_balanced(g):
            np.testing.assert_array_equal(consensus_eigenvalues(g), spectrum(g)[1:])
            # a graph left disconnected has a second eigenvalue near zero
            scale = np.abs(ev).max()
            np.testing.assert_allclose(consensus_eigenvalues(g), ev.real, atol=1e-13 * scale)
        else:
            np.testing.assert_array_equal(consensus_eigenvalues(g), ev)
    assert all(is_balanced(g) for g in graphs[:10])
    assert not any(is_balanced(g) for g in graphs[10:])
    assert all(has_spanning_tree(g) for g in graphs[10:])


def test_consensus_eigenvalues_balanced_matches_spectrum():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_symmetric(rng, 6, 0.6)
        got = np.sort(consensus_eigenvalues(g).real)
        assert np.abs(consensus_eigenvalues(g).imag).max() < 1e-9
        np.testing.assert_allclose(got, spectrum(g)[1:], atol=1e-9)


def test_consensus_eigenvalues_of_a_symmetric_graph_are_real():
    # repeated eigenvalues: eigvals of the reduced Laplacian can leave
    # imaginary parts near 1e-16 on these, which a symmetric graph cannot have
    star = np.zeros((24, 24))
    star[0, 1:] = star[1:, 0] = 1.0
    for g in (complete_graph(19), WeightedDigraph(star), complete_graph(25)):
        got = consensus_eigenvalues(g)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, spectrum(g)[1:])
        ev = np.linalg.eigvals(reduced_laplacian(g))
        np.testing.assert_allclose(got, ev[np.lexsort((ev.imag, ev.real))].real, rtol=1e-13)


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
    ev = spectrum(g)
    assert 0.3 <= ev[1] <= ev[-1] <= 6.0
    assert g.weights[0, 1] == g.weights[1, 0]


def test_random_balanced_graph_hundred_agents():
    g = random_balanced_graph(100, 5.0, 60.0, rng_seed=2)
    assert is_balanced(g)
    assert has_spanning_tree(g)
    ev = spectrum(g)
    assert ev[1] >= 5.0
    assert ev[-1] <= 60.0


def test_random_balanced_graph_deterministic():
    g1 = random_balanced_graph(10, 1.0, 8.0, rng_seed=33)
    g2 = random_balanced_graph(10, 1.0, 8.0, rng_seed=33)
    assert np.array_equal(g1.weights, g2.weights)


def _loop_connected_symmetric(rng, n, edge_prob):
    """Reference draw: the spanning tree one node at a time."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        i = int(order[idx])
        j = int(order[rng.integers(0, idx)])
        w[i, j] = w[j, i] = 1.0
    extra = np.triu(rng.random((n, n)) < edge_prob, 1)
    extra = extra | extra.T
    w[extra] = 1.0
    return w


@pytest.mark.parametrize("n", [2, 3, 5, 20, 100])
def test_random_connected_symmetric_draws_as_the_node_loop(n):
    # the vector tree draw consumes the generator exactly as the loop does,
    # so the edges after it come out the same too
    for seed in range(10):
        vec, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        w = graph._random_connected_symmetric(vec, n, 0.3)
        assert np.array_equal(w, _loop_connected_symmetric(loop, n, 0.3))
        assert vec.random() == loop.random()


@pytest.mark.parametrize(
    "n, band", [(2, (0.3, 6.0)), (5, (0.3, 6.0)), (30, (1.0, 40.0)), (100, (5.0, 60.0))]
)
def test_random_balanced_graph_weights_match_the_node_loop(monkeypatch, n, band):
    seeds = range(4)
    vector = [random_balanced_graph(n, *band, rng_seed=s).weights for s in seeds]
    monkeypatch.setattr(graph, "_random_connected_symmetric", _loop_connected_symmetric)
    for seed, w in zip(seeds, vector):
        ref = random_balanced_graph(n, *band, rng_seed=seed).weights
        assert w.tobytes() == ref.tobytes()


def test_random_balanced_graph_infeasible_band():
    # a near-unit spectral ratio needs an almost complete graph; random
    # 50-node samples never reach it, so the retry budget must trip
    best = r"best spectral ratio found was (\S+)$"
    with pytest.raises(ValueError, match=best) as info:
        random_balanced_graph(50, 1.0, 1.0001, rng_seed=4)
    # a band too narrow for the sampled graphs is bad input; the message
    # prints the best ratio seen
    assert float(re.search(best, str(info.value)).group(1)) > 1.0001


def test_random_balanced_graph_rejects_bad_band():
    with pytest.raises(ValueError):
        random_balanced_graph(5, 2.0, 1.0, rng_seed=0)
    with pytest.raises(ValueError):
        random_balanced_graph(5, 0.0, 1.0, rng_seed=0)
    with pytest.raises(ValueError, match="^need at least two nodes$"):
        random_balanced_graph(1, 0.3, 6.0, rng_seed=0)
