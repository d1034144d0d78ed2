"""Weighted digraphs: Laplacians, spectra, and the consensus reduction basis.

Edge convention: ``weights[i, j] > 0`` means there is a link carrying agent
j's state to agent i (j is an in-neighbor of i).  A graph is balanced here
when its weight matrix is exactly symmetric: stricter than the paper's
"balanced" (row sums equal column sums), as the real spectra of
``spectrum`` and ``pool_band`` need, until balanced digraphs get a
certificate of their own (see ROADMAP.md).  ``reduced_laplacian`` is the one
projection onto the disagreement subspace, for every digraph, and
``consensus_eigenvalues`` is its spectrum.  No check here has a tolerance
tied to the units of the weights: a graph scaled by a power of two gets the
same balance and spanning-tree answers, and its spectrum scales by that
power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedDigraph",
    "laplacian",
    "is_balanced",
    "has_spanning_tree",
    "spectrum",
    "reduction_basis",
    "reduced_laplacian",
    "consensus_eigenvalues",
    "random_balanced_graph",
]

_MAX_TRIES = 200  # samples random_balanced_graph draws before it gives up


@dataclass(frozen=True)
class WeightedDigraph:
    """Simple weighted digraph on n >= 1 nodes.

    Weights are nonnegative and finite with a zero diagonal (no self-loops),
    and so is their total: it bounds every degree and the real part of every
    Laplacian eigenvalue, so spectra of valid graphs do not overflow.
    The stored array is copied and frozen so graphs are safely shareable.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        with np.errstate(over="ignore", invalid="ignore"):
            total = w.sum()
        if not math.isfinite(total):
            raise ValueError("weights must be finite, and so must their total")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges, symmetric: bool = False) -> "WeightedDigraph":
        """Build a graph from (receiver, sender, weight) triples, 0-based.

        With ``symmetric=True`` every triple also installs the reverse link,
        so each undirected pair needs to be listed only once.
        """
        w = np.zeros((n, n))
        for i, j, weight in edges:
            w[i, j] = weight
            if symmetric:
                w[j, i] = weight
        return cls(w)


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """In-degree Laplacian D - W; every row sums to zero."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def is_balanced(g: WeightedDigraph) -> bool:
    """True when the weight matrix equals its transpose exactly, at any
    scale: stricter than the paper's balance (row sums equal column sums),
    which directed rings meet.  A nearly symmetric W can be symmetrized as
    ``(W + W.T) / 2``, which is exactly symmetric in floats."""
    w = g.weights
    return bool(np.array_equal(w, w.T))


def _reaches_all(send: np.ndarray, root: int) -> bool:
    # send[u, i] True when node u's state is delivered to node i
    n = send.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[root] = True
    frontier = reached.copy()
    while frontier.any():
        nxt = send[frontier].any(axis=0) & ~reached
        reached |= nxt
        frontier = nxt
    return bool(reached.all())


def has_spanning_tree(g: WeightedDigraph) -> bool:
    """Combinatorial test: some node's state reaches every other node.

    Traversal follows information flow (a positive weights[i, j] lets j's
    state reach i), so this is graph search on the transposed positivity
    pattern, never a spectral threshold.
    """
    send = (g.weights > 0.0).T
    return any(_reaches_all(send, root) for root in range(g.n))


def spectrum(g: WeightedDigraph) -> np.ndarray:
    """Exact Laplacian spectrum of a balanced graph: a read-only array,
    sorted ascending, whose entries 1 and -1 are lambda2 and lambdaN.

    In exact arithmetic lambda2 is positive exactly when the graph is
    connected.  The values are eigvalsh's as computed, so a zero eigenvalue
    may come out as a rounding-sized number of either sign;
    ``has_spanning_tree`` is the connectivity test.  A non-balanced graph,
    whose spectrum is complex, is a ValueError.
    """
    if g.n < 2:
        raise ValueError("spectrum needs at least two nodes")
    if not is_balanced(g):
        raise ValueError("exact spectrum requires a balanced graph")
    ev = np.linalg.eigvalsh(laplacian(g))
    ev.setflags(write=False)
    return ev


def pool_band(pool) -> tuple[float, float]:
    """Smallest lambda2 and largest lambdaN over an explicit topology pool.

    This is the eigenvalue interval a certificate must cover for the pool
    to switch freely, and the one check that it may: the pool is not
    empty, its graphs share a node count of at least two, and each is
    balanced and has a spanning tree.  A ValueError names the offending
    graph by its position in the pool.
    """
    pool = list(pool)
    if not pool:
        raise ValueError("topology pool must not be empty")
    sizes = sorted({g.n for g in pool})
    if len(sizes) != 1:
        raise ValueError(f"pool graphs disagree on node count: {sizes}")
    lows, highs = [], []
    for i, g in enumerate(pool):
        if g.n < 2:
            raise ValueError(f"pool graph {i} has a single node; consensus needs at least two")
        if not is_balanced(g):
            raise ValueError(f"pool graph {i} is not balanced")
        if not has_spanning_tree(g):
            raise ValueError(f"pool graph {i} has no spanning tree")
        ev = spectrum(g)
        lows.append(float(ev[1]))
        highs.append(float(ev[-1]))
    return min(lows), max(highs)


def reduction_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of span{ones}.

    The frozen n x (n-1) matrix mbar with mbar.T @ mbar = I and
    mbar.T @ ones = 0.  Columns are the classical Helmert directions: column
    j balances j equal positive entries against one entry of weight -j,
    normalized.
    """
    if n < 2:
        raise ValueError("reduction basis needs n >= 2")
    j = np.arange(1, n)
    scale = 1.0 / np.sqrt(j * (j + 1.0))
    m = np.where(np.arange(n)[:, None] < j, scale, 0.0)
    m[j, j - 1] = -j * scale
    m.setflags(write=False)
    return m


def reduced_laplacian(g: WeightedDigraph) -> np.ndarray:
    """Project the Laplacian onto the disagreement subspace: mbar.T L mbar,
    with mbar = ``reduction_basis(g.n)``, for any digraph with n >= 2.

    Since L ones = 0, this (n-1) x (n-1) block holds the non-consensus
    dynamics of any digraph, and its eigenvalues are the Laplacian
    eigenvalues with one zero removed.  It is symmetric for a symmetric
    graph and normal when L is (directed rings too).
    """
    mbar = reduction_basis(g.n)
    return mbar.T @ laplacian(g) @ mbar


def consensus_eigenvalues(g: WeightedDigraph) -> np.ndarray:
    """Laplacian eigenvalues with one zero removed, for any digraph: the
    eigenvalues of ``reduced_laplacian(g)``, complex in general, sorted by
    (real, imag) for determinism.  A balanced (symmetric) graph's are real:
    they are ``spectrum(g)[1:]``, so their ends are the band ``pool_band``
    reads, bit for bit, and they carry none of the rounding-sized imaginary
    parts that eigvals leaves on repeated eigenvalues."""
    if is_balanced(g):
        return spectrum(g)[1:]
    ev = np.linalg.eigvals(reduced_laplacian(g))
    return ev[np.lexsort((ev.imag, ev.real))]


def _random_connected_symmetric(rng: np.random.Generator, n: int, edge_prob: float) -> np.ndarray:
    w = np.zeros((n, n))
    order = rng.permutation(n)
    # spanning tree: node order[idx] joins a uniform earlier node, idx = 1..n-1
    i = order[1:]
    j = order[rng.integers(0, np.arange(1, n))]
    w[i, j] = w[j, i] = 1.0
    extra = np.triu(rng.random((n, n)) < edge_prob, 1)
    extra = extra | extra.T
    w[extra] = 1.0
    return w


def random_balanced_graph(
    n: int,
    lambda_lo: float,
    lambda_hi: float,
    rng_seed,
    edge_prob: float = 0.3,
) -> WeightedDigraph:
    """Connected balanced graph with nonzero Laplacian spectrum inside a band.

    Samples a random connected symmetric unit-weight graph (spanning tree
    backbone plus independent extra edges) and rescales all weights by one
    factor that places [lambda2, lambdaN] inside [lambda_lo, lambda_hi].
    A sample is rejected when its spectral ratio exceeds the band's ratio;
    after 200 rejections a ValueError reports the best ratio seen.
    Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if not (0.0 < lambda_lo <= lambda_hi):
        raise ValueError("band must satisfy 0 < lambda_lo <= lambda_hi")
    rng = np.random.default_rng(rng_seed)
    band_ratio = lambda_hi / lambda_lo
    best_ratio = math.inf
    for _ in range(_MAX_TRIES):
        g = WeightedDigraph(_random_connected_symmetric(rng, n, edge_prob))
        ev = spectrum(g)
        lambda2, lambdaN = float(ev[1]), float(ev[-1])
        if lambda2 <= 0.0:
            continue
        ratio = lambdaN / lambda2
        best_ratio = min(best_ratio, ratio)
        if ratio > band_ratio:
            continue
        # geometric-mean placement leaves equal relative slack on both ends
        scale = math.sqrt((lambda_lo / lambda2) * (lambda_hi / lambdaN))
        scaled = WeightedDigraph(scale * g.weights)
        check = spectrum(scaled)
        if check[1] >= lambda_lo and check[-1] <= lambda_hi:
            return scaled
    raise ValueError(
        f"no sampled topology fits the band [{lambda_lo}, {lambda_hi}] "
        f"(ratio {band_ratio:.6g}) after {_MAX_TRIES} tries; "
        f"best spectral ratio found was {best_ratio:.6g}"
    )
