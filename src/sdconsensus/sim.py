"""Exact discrete-time simulation of the sampled-data consensus network.

Each run draws random sampling intervals, switches the active topology at a
fixed step period, and advances all agents with the exact zero-order-hold
step

    x_i+ = F(h) x_i + G(h) K sum_j w_ij (x_j - x_i).

The runs of a batch advance together as one (runs, n, s) state array.  Every
run first draws its whole stream (initial state, topology choices, sampling
intervals) from its own generator, so results do not depend on how runs are
batched.  Between two switches, the runs that share a topology fill one
block of states, whose metrics are computed in one call: each step takes
Y = X - x_0 (differences to agent 0) and the coupling W Y - deg Y, which is
shift-invariant, so exact agreement gives an exactly zero coupling and stays
exact.  ``step`` is the same kernel with one run.  The optional cross-check
applies I kron F - L kron G K as X F^T - (L X)(G K)^T with the dense
Laplacian L, since (L kron I_s) x = L X, to every step of a block at once.

Every trajectory records the disagreement metric and the transformed reduced
norm, whose strict decrease is the certified contraction at work.  The norm
uses the centered form ||(Y - mean Y) T^-T||, which equals
||(mbar^T kron T^-1) x|| because the Helmert basis gives
mbar mbar^T = I - 11^T / n.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .certify import ContractionCertificate, PlantModel, _gain_pair, certify_gain
from .graph import WeightedDigraph, laplacian, pool_band, random_balanced_graph
from .synthesis import GainDesign

__all__ = [
    "TopologyRecipe",
    "SimulationConfig",
    "TrajectoryRecord",
    "BatchResult",
    "UncertifiedGainError",
    "step",
    "step_kronecker",
    "sample_interval",
    "disagreement",
    "reduced_norm",
    "run",
]

DEFAULT_INIT_BOUNDS = ((-10.0, 10.0), (-1.0, 1.0))
# h_min defaults to hbar * H_MIN_FRACTION, here and in the resolved config
H_MIN_FRACTION = 1e-3
# a segment advances in blocks of at most this many state entries (16 MB);
# a verified block holds about two more block-sized temporaries for its check
_BLOCK_ENTRIES = 1 << 21


class UncertifiedGainError(RuntimeError):
    """Refusal to simulate with a gain that did not certify.

    Carries the certificate.  Pass ``force=True`` to run regardless.
    """

    def __init__(self, message: str, certificate: ContractionCertificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class TopologyRecipe:
    """Recipe for a pool of random balanced in-band topologies.

    ``seed`` defaults to a stream derived from the batch master seed.
    """

    lambda_lo: float
    lambda_hi: float
    pool_size: int = 4
    seed: int | None = None
    edge_prob: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.lambda_lo <= self.lambda_hi < math.inf):
            raise ValueError("band must be finite with 0 < lambda_lo <= lambda_hi")
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"topology seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one reproducible batch experiment.

    The gain is exactly one of ``design`` or a raw ``gain`` with an optional
    ``transform`` (the identity when None); ``K`` and ``T`` are derived from
    it by the rule of ``certify_gain``, and T enters the certificate and the
    reduced norm.  ``topology`` is an explicit pool of balanced spanning-tree
    graphs or a TopologyRecipe.  All randomness derives from ``seed``.
    ``switch_period`` defaults to 50 steps (a config file without one never
    switches).  ``band`` is derived too: the recipe's band, or the eigenvalue
    band of the pool, which the certificate covers.  Frozen, since a reassigned
    field would leave them stale (``dataclasses.replace`` derives them afresh).
    """

    n_agents: int
    plant: PlantModel
    hbar: float
    steps: int
    runs: int
    seed: int
    topology: object
    design: GainDesign | None = None
    gain: np.ndarray | None = None
    transform: np.ndarray | None = None
    h_min: float | None = None
    switch_period: int | None = 50
    init_bounds: tuple = DEFAULT_INIT_BOUNDS
    record_states: bool = False
    verify_step_forms: bool = False
    band: tuple[float, float] = field(init=False)
    K: np.ndarray = field(init=False)
    T: np.ndarray = field(init=False)

    def __post_init__(self):
        # pools first, so a bad pool fails with pool_band's message, as in certify
        if not isinstance(self.topology, TopologyRecipe):
            object.__setattr__(self, "topology", list(self.topology))
            if not all(isinstance(g, WeightedDigraph) for g in self.topology):
                raise TypeError("topology pool entries must be WeightedDigraph")
        object.__setattr__(self, "band", _topology_band(self.topology))
        if isinstance(self.topology, list) and self.topology[0].n != self.n_agents:
            raise ValueError("pool graph size does not match n_agents")
        if self.n_agents < 2:
            raise ValueError("consensus needs at least two agents")
        if self.steps < 1 or self.runs < 1:
            raise ValueError("steps and runs must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("hbar must be positive and finite")
        if self.h_min is None:
            object.__setattr__(self, "h_min", self.hbar * H_MIN_FRACTION)
        if not (0.0 < self.h_min < self.hbar):
            raise ValueError("need 0 < h_min < hbar")
        K, T = _gain_pair(self.plant, design=self.design, gain=self.gain, transform=self.transform)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "T", T)
        if self.switch_period is not None and self.switch_period < 1:
            raise ValueError("switch_period must be positive (or None to never switch)")
        if len(self.init_bounds) != self.plant.n:
            raise ValueError("init_bounds needs one (lo, hi) pair per state component")
        for lo, hi in self.init_bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError("init bounds must be finite with lo <= hi")


@dataclass
class TrajectoryRecord:
    """Per-step log of one run.

    ``t``, ``delta`` and ``nu`` have steps + 1 entries (sampling instants
    including the initial one); ``h`` and ``topology`` have one entry per
    executed step.  ``step_form_gap`` is the largest deviation between the
    neighbor-difference and Kronecker step forms when verification was on.
    """

    run_id: int
    t: np.ndarray
    h: np.ndarray
    topology: np.ndarray
    delta: np.ndarray
    nu: np.ndarray
    states: np.ndarray | None = None
    step_form_gap: float = 0.0


@dataclass
class BatchResult:
    """All run records plus the per-step max-over-runs disagreement.

    ``timings`` holds the seconds spent in each phase of ``run``: ``pool``
    (materializing the topology pool), ``certify`` (the certificate of the
    config's band) and ``simulate`` (drawing the streams and stepping).
    """

    records: list
    aggregate_delta: np.ndarray
    certificate: ContractionCertificate
    pool: list
    band: tuple[float, float]
    timings: dict


def _advance(X, W, deg, F, GK):
    """One exact step of the runs ``X`` (runs, n, s) that share topology W.

    ``deg`` holds the row sums of W; ``F`` and ``GK`` (runs, s, s) are each
    run's F(h) and G(h) K.  The coupling sum_j w_ij (x_j - x_i) is formed as
    W Y - deg Y on the differences Y to agent 0.
    """
    Y = X - X[:, :1]
    coupling = np.tensordot(W, Y, axes=(1, 1)).transpose(1, 0, 2) - deg[:, None] * Y
    return X @ F.transpose(0, 2, 1) + coupling @ GK.transpose(0, 2, 1)


def _advance_kronecker(X, L, F, GK):
    """The step of ``_advance`` as (I kron F - L kron G K) on each stacked state.

    ``X`` is (..., n, s) and ``L`` the dense n x n Laplacian; the leading
    axes of ``X``, ``F`` and ``GK`` (..., s, s) broadcast.  Since
    (L kron I_s) x = L X and L kron G K = (I kron G K)(L kron I_s), the step
    is X F^T - (L X)(G K)^T.  L X is one matrix product over every agent
    column of X, not one per leading index.
    """
    cols = np.moveaxis(X, -2, 0)
    LX = np.moveaxis((L @ cols.reshape(len(L), -1)).reshape(cols.shape), 0, -2)
    return X @ np.swapaxes(F, -1, -2) - LX @ np.swapaxes(GK, -1, -2)


def _disagreements(X) -> np.ndarray:
    """Largest state difference over agent pairs and components, per run."""
    return (X.max(axis=1) - X.min(axis=1)).max(axis=1)


def _reduced_norms(X, Tinv) -> np.ndarray:
    """||(mbar^T kron T^-1) x|| per run, as ||(Y - mean Y) T^-T|| with Y = X - x_0."""
    Y = X - X[:, :1]
    Z = (Y - Y.mean(axis=1, keepdims=True)) @ Tinv.T
    return np.sqrt(np.einsum("rns,rns->r", Z, Z))


def _one_run(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Checked inputs of a one-run step: the state, F(h) and G(h) K, each as
    a stack of one run."""
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape != (g.n, plant.n):
        raise ValueError(f"state must be {g.n}x{plant.n}, got {X.shape}")
    K, _ = _gain_pair(plant, gain=K)
    if not h > 0.0:
        raise ValueError("h must be positive")
    F, G = plant.discretize(h)
    return X[None], F[None], (G @ K)[None]


def step(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Advance every agent by one exact sampled-data step.

    Uses the neighbor-difference form of the control input, so exact
    agreement (all rows of ``state`` equal) is preserved exactly.
    """
    X, F, GK = _one_run(state, g, K, h, plant)
    W = g.weights
    return _advance(X, W, W.sum(axis=1), F, GK)[0]


def step_kronecker(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Same step assembled as (I kron F - L kron G K) on the stacked state.

    Cross-check path for ``step``; the two agree to rounding.
    """
    X, F, GK = _one_run(state, g, K, h, plant)
    return _advance_kronecker(X, laplacian(g), F, GK)[0]


def sample_interval(rng: np.random.Generator, h_min: float, hbar: float) -> float:
    """Uniform draw from [h_min, hbar); deterministic per generator state."""
    if not (0.0 < h_min < hbar):
        raise ValueError("need 0 < h_min < hbar")
    return float(rng.uniform(h_min, hbar))


def disagreement(state) -> float:
    """Largest absolute state difference over agent pairs and components."""
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("disagreement needs at least two agents")
    return float(_disagreements(X[None])[0])


def reduced_norm(state, basis: np.ndarray, T) -> float:
    """Euclidean norm of the transformed reduced state (I kron T^-1) xi.

    xi is the projection of the stacked state onto the disagreement
    subspace spanned by ``basis`` (``graph.reduction_basis``); the norm is
    zero exactly at agreement and contracts strictly under a certified gain.
    """
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape[0] != basis.shape[0]:
        raise ValueError(f"state must have {basis.shape[0]} rows, got {X.shape}")
    Tinv = np.linalg.inv(np.asarray(T, dtype=float))
    return float(_reduced_norms(X[None], Tinv)[0])


def _topology_band(topology) -> tuple[float, float]:
    """The eigenvalue band a certificate must cover for ``topology``: the
    recipe's band, or the band of an explicit pool of balanced graphs."""
    if isinstance(topology, TopologyRecipe):
        return topology.lambda_lo, topology.lambda_hi
    return pool_band(topology)


def _materialize_pool(config: SimulationConfig, pool_seed) -> list:
    if isinstance(config.topology, TopologyRecipe):
        recipe = config.topology
        seq = (
            np.random.SeedSequence(recipe.seed)
            if recipe.seed is not None
            else pool_seed
        )
        return [
            random_balanced_graph(
                config.n_agents, recipe.lambda_lo, recipe.lambda_hi, s,
                edge_prob=recipe.edge_prob,
            )
            for s in seq.spawn(recipe.pool_size)
        ]
    return list(config.topology)


def _draw_streams(config: SimulationConfig, run_seeds, pool_size: int):
    """Initial states, sampling intervals and topology indices of every run.

    Each run draws from its own generator: its initial state, then for each
    switching segment the topology index (when switching) followed by the
    segment's intervals.  A vector draw gives the values of the same number
    of scalar draws, so the streams equal those of step-by-step drawing.
    """
    lows = np.array([lo for lo, _ in config.init_bounds])
    highs = np.array([hi for _, hi in config.init_bounds])
    runs, steps = config.runs, config.steps
    X = np.empty((runs, config.n_agents, config.plant.n))
    h = np.empty((runs, steps))
    topology = np.zeros((runs, steps), dtype=int)
    period = config.switch_period or steps
    for r, seed in enumerate(run_seeds):
        rng = np.random.default_rng(seed)
        X[r] = rng.uniform(lows, highs, size=X.shape[1:])
        for start in range(0, steps, period):
            stop = min(start + period, steps)
            if config.switch_period is not None:
                topology[r, start:stop] = rng.integers(pool_size)
            h[r, start:stop] = rng.uniform(config.h_min, config.hbar, size=stop - start)
    return X, h, topology


def run(config: SimulationConfig, force: bool = False) -> BatchResult:
    """Execute the batch: independent seeded runs with switching topologies.

    Refuses to run an uncertified gain unless ``force`` is set; the refusal
    carries the certificate.  Runs derive their generators from the master
    seed, so results are deterministic and independent of execution order.
    """
    t0 = time.perf_counter()
    master = np.random.SeedSequence(config.seed)
    pool_seed, *run_seeds = master.spawn(config.runs + 1)
    pool = _materialize_pool(config, pool_seed)
    t1 = time.perf_counter()
    cert = certify_gain(
        config.plant, config.hbar, config.band,
        design=config.design, gain=config.gain, transform=config.transform,
    )
    if cert.verdict != "certified" and not force:
        raise UncertifiedGainError(
            f"gain is not certified for band {config.band} up to hbar={config.hbar} "
            f"(verdict: {cert.verdict}); pass force=True to simulate anyway",
            cert,
        )
    t2 = time.perf_counter()
    Tinv = np.linalg.inv(config.T)
    X, h, topology = _draw_streams(config, run_seeds, len(pool))
    runs, steps = h.shape
    t = np.zeros((runs, steps + 1))
    np.cumsum(h, axis=1, out=t[:, 1:])
    delta = np.empty((runs, steps + 1))
    nu = np.empty((runs, steps + 1))
    states = np.empty((runs, steps + 1) + X.shape[1:]) if config.record_states else None
    gap = np.zeros(runs)
    degrees = [g.weights.sum(axis=1) for g in pool]
    laplacians = [laplacian(g) for g in pool] if config.verify_step_forms else None
    period = config.switch_period or steps
    length = max(1, min(period, _BLOCK_ENTRIES // X.size))
    # sorted sets, not np.union1d/np.unique: those import numpy.ma on first use
    bounds = sorted({*range(0, steps, period), *range(0, steps, length)})
    # a forced diverging gain overflows to inf and nan; the nan metrics and
    # the convergence ratio report that, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(bounds, [*bounds[1:], steps]):
            active = topology[:, start]
            # runs sharing a topology for the whole segment advance as one block;
            # its first row is the state at `start`, so the metrics cover k = 0 too
            for g in sorted(set(active.tolist())):
                idx = np.flatnonzero(active == g)
                F, G = config.plant.discretize(h[idx, start:stop].T)
                GK = G @ config.K
                seg = np.empty((stop - start + 1, len(idx)) + X.shape[1:])
                seg[0] = X[idx]
                for j in range(stop - start):
                    seg[j + 1] = _advance(seg[j], pool[g].weights, degrees[g], F[j], GK[j])
                if laplacians is not None:
                    other = _advance_kronecker(seg[:-1], laplacians[g], F, GK)
                    gap[idx] = np.maximum(gap[idx], np.abs(seg[1:] - other).max(axis=(0, 2, 3)))
                flat = seg.reshape((-1,) + X.shape[1:])  # rows: steps, then runs
                delta[idx, start:stop + 1] = _disagreements(flat).reshape(-1, len(idx)).T
                nu[idx, start:stop + 1] = _reduced_norms(flat, Tinv).reshape(-1, len(idx)).T
                if states is not None:
                    states[idx, start:stop + 1] = seg.swapaxes(0, 1)
                X[idx] = seg[-1]
    records = [
        TrajectoryRecord(
            r, t[r], h[r], topology[r], delta[r], nu[r],
            None if states is None else states[r], float(gap[r]),
        )
        for r in range(runs)
    ]
    timings = {"pool": t1 - t0, "certify": t2 - t1, "simulate": time.perf_counter() - t2}
    return BatchResult(records, delta.max(axis=0), cert, pool, config.band, timings)
