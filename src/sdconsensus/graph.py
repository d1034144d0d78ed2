"""Weighted digraphs: Laplacians, spectra, and the consensus reduction basis.

Edge convention: ``weights[i, j] > 0`` means there is a link carrying agent
j's state to agent i (j is an in-neighbor of i).  A graph is balanced here
when its weight matrix is symmetric: stricter than the paper's "balanced"
(row sums equal column sums), as the real spectra below need, until
balanced digraphs get a certificate of their own (see ROADMAP.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedDigraph",
    "SpectrumSummary",
    "UnsupportedGraphError",
    "GraphBandError",
    "laplacian",
    "is_balanced",
    "has_spanning_tree",
    "spectrum",
    "reduction_basis",
    "reduced_laplacian",
    "consensus_eigenvalues",
    "random_balanced_graph",
]

_BALANCE_TOL = 1e-12  # largest |w_ij - w_ji| that is_balanced accepts
_MAX_TRIES = 200  # samples random_balanced_graph draws before it gives up


class UnsupportedGraphError(ValueError):
    """Raised when an operation needs a balanced graph but got a general one."""


class GraphBandError(ValueError):
    """Raised when no sampled topology can be scaled into the requested band:
    the band is too narrow for the graphs, which is bad input."""

    def __init__(self, message: str, best_ratio: float):
        super().__init__(message)
        self.best_ratio = best_ratio


@dataclass(frozen=True)
class WeightedDigraph:
    """Simple weighted digraph on n >= 1 nodes.

    Weights are nonnegative and finite with a zero diagonal (no self-loops).
    The stored array is copied and frozen so graphs are safely shareable.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
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


@dataclass(frozen=True)
class SpectrumSummary:
    """Sorted Laplacian eigenvalues with the second-smallest and largest."""

    eigenvalues: np.ndarray
    lambda2: float
    lambdaN: float


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """In-degree Laplacian D - W; every row sums to zero."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def is_balanced(g: WeightedDigraph) -> bool:
    """True when the weight matrix is symmetric up to 1e-12: stricter than
    the paper's balance (row sums equal column sums), which directed rings meet."""
    w = g.weights
    return bool(np.abs(w - w.T).max(initial=0.0) <= _BALANCE_TOL)


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


def spectrum(g: WeightedDigraph) -> SpectrumSummary:
    """Exact Laplacian spectrum of a balanced graph, sorted ascending.

    lambda2 is positive exactly when the graph is connected.  Tiny negative
    eigenvalues from rounding are clamped to zero (the balanced Laplacian is
    positive semidefinite).  Raises UnsupportedGraphError for non-balanced
    graphs, whose spectra are complex.
    """
    if g.n < 2:
        raise ValueError("spectrum needs at least two nodes")
    if not is_balanced(g):
        raise UnsupportedGraphError("exact spectrum requires a balanced graph")
    ev = np.linalg.eigvalsh(laplacian(g))
    ev = np.where((ev < 0.0) & (ev > -1e-10), 0.0, ev)
    ev.setflags(write=False)
    return SpectrumSummary(ev, float(ev[1]), float(ev[-1]))


def pool_band(pool) -> tuple[float, float]:
    """Smallest lambda2 and largest lambdaN over an explicit topology pool.

    This is the eigenvalue interval a certificate must cover for the pool
    to switch freely, and the one check that it may: the pool is not
    empty, its graphs share a node count of at least two, and each is
    balanced and has a spanning tree.  A ValueError (UnsupportedGraphError
    when unbalanced) names the offending graph by its position in the pool.
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
            raise UnsupportedGraphError(f"pool graph {i} is not balanced")
        if not has_spanning_tree(g):
            raise ValueError(f"pool graph {i} has no spanning tree")
        summ = spectrum(g)
        lows.append(summ.lambda2)
        highs.append(summ.lambdaN)
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
    m = np.zeros((n, n - 1))
    for j in range(1, n):
        scale = 1.0 / math.sqrt(j * (j + 1))
        m[:j, j - 1] = scale
        m[j, j - 1] = -j * scale
    m.setflags(write=False)
    return m


def reduced_laplacian(g: WeightedDigraph, basis: np.ndarray) -> np.ndarray:
    """Project the Laplacian onto the disagreement subspace: basis.T L basis,
    with ``basis`` the matrix mbar of ``reduction_basis``.

    For balanced graphs the result is symmetric and its eigenvalues are the
    Laplacian eigenvalues with one zero removed.  Non-balanced graphs are
    rejected; their reduced matrix is not symmetric and downstream consumers
    rely on the symmetric eigenstructure.
    """
    if not is_balanced(g):
        raise UnsupportedGraphError("reduced_laplacian requires a balanced graph")
    if basis.shape[0] != g.n:
        raise ValueError(f"basis is for {basis.shape[0]} nodes, graph has {g.n}")
    return basis.T @ laplacian(g) @ basis


def consensus_eigenvalues(g: WeightedDigraph) -> np.ndarray:
    """Laplacian eigenvalues with one zero removed, for any digraph.

    Computed as the eigenvalues of the projection mbar.T L mbar, which is
    exactly the non-consensus block of the Laplacian in the [ones, mbar]
    coordinates (the projection is similarity-exact because mbar spans the
    complement of ones and L annihilates ones).  Complex in general; sorted
    by (real, imag) for determinism.
    """
    mbar = reduction_basis(g.n)
    ev = np.linalg.eigvals(mbar.T @ laplacian(g) @ mbar)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def _random_connected_symmetric(rng: np.random.Generator, n: int, edge_prob: float) -> np.ndarray:
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
    after 200 rejections a GraphBandError reports the best ratio
    seen.  Deterministic for a fixed seed.
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
        summ = spectrum(g)
        if summ.lambda2 <= 0.0:
            continue
        ratio = summ.lambdaN / summ.lambda2
        best_ratio = min(best_ratio, ratio)
        if ratio > band_ratio:
            continue
        # geometric-mean placement leaves equal relative slack on both ends
        scale = math.sqrt((lambda_lo / summ.lambda2) * (lambda_hi / summ.lambdaN))
        scaled = WeightedDigraph(scale * g.weights)
        check = spectrum(scaled)
        if check.lambda2 >= lambda_lo and check.lambdaN <= lambda_hi:
            return scaled
    raise GraphBandError(
        f"no sampled topology fits the band [{lambda_lo}, {lambda_hi}] "
        f"(ratio {band_ratio:.6g}) after {_MAX_TRIES} tries; "
        f"best spectral ratio found was {best_ratio:.6g}",
        best_ratio,
    )
