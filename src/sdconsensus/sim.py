"""Exact discrete-time simulation of the sampled-data consensus network.

Each run draws random sampling intervals, switches the active topology at a
fixed step period, and advances all agents with the exact zero-order-hold
step.  The per-step state update is the neighbor-difference form

    x_i+ = F(h) x_i + G(h) K sum_j w_ij (x_j - x_i)

which agrees with the Kronecker-assembled form to rounding and keeps exact
agreement invariant (identical agents produce an exactly zero coupling
term).  Every trajectory records the disagreement metric and the transformed
reduced norm whose strict decrease is the certified contraction at work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import ContractionCertificate, PlantModel, certify_gain
from .graph import (
    ReductionBasis,
    WeightedDigraph,
    has_spanning_tree,
    is_balanced,
    laplacian,
    pool_band,
    random_balanced_graph,
    reduction_basis,
)
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
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise ValueError("band must satisfy 0 < lambda_lo <= lambda_hi")
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")


@dataclass
class SimulationConfig:
    """Complete description of one reproducible batch experiment.

    Exactly one of ``design`` (a synthesized gain bundle) or ``gain`` (a raw
    feedback matrix) must be given.  ``transform`` is the raw gain's
    similarity transform T (the identity when None); it enters the
    certificate and the reduced norm.  ``topology`` is either an explicit
    pool of balanced spanning-tree graphs or a TopologyRecipe.  All
    randomness derives from ``seed``.
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

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("consensus needs at least two agents")
        if self.steps < 1 or self.runs < 1:
            raise ValueError("steps and runs must be at least 1")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("hbar must be positive and finite")
        if self.h_min is None:
            self.h_min = self.hbar * 1e-3
        if not (0.0 < self.h_min < self.hbar):
            raise ValueError("need 0 < h_min < hbar")
        if (self.design is None) == (self.gain is None):
            raise ValueError("exactly one of design or gain must be set")
        if self.gain is not None:
            self.gain = np.asarray(self.gain, dtype=float)
            if self.gain.shape != (self.plant.m, self.plant.n):
                raise ValueError(
                    f"gain must be {self.plant.m}x{self.plant.n}, got {self.gain.shape}"
                )
            if self.transform is None:
                self.transform = np.eye(self.plant.n)
            self.transform = np.asarray(self.transform, dtype=float)
            if self.transform.shape != (self.plant.n, self.plant.n):
                raise ValueError(f"transform must be {self.plant.n}x{self.plant.n}")
            if abs(np.linalg.det(self.transform)) < 1e-300:
                raise ValueError("transform must be invertible")
        elif self.transform is not None:
            raise ValueError("transform goes with a raw gain; a design carries its own")
        if self.design is not None and self.design.K.shape != (self.plant.m, self.plant.n):
            raise ValueError("design gain shape does not match the plant")
        if self.switch_period is not None and self.switch_period < 1:
            raise ValueError("switch_period must be positive (or None to never switch)")
        if len(self.init_bounds) != self.plant.n:
            raise ValueError("init_bounds needs one (lo, hi) pair per state component")
        for lo, hi in self.init_bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError("init bounds must be finite with lo <= hi")
        if isinstance(self.topology, TopologyRecipe):
            return
        pool = list(self.topology)
        if not pool:
            raise ValueError("topology pool must not be empty")
        for g in pool:
            if not isinstance(g, WeightedDigraph):
                raise TypeError("topology pool entries must be WeightedDigraph")
            if g.n != self.n_agents:
                raise ValueError("pool graph size does not match n_agents")
            if not is_balanced(g):
                raise ValueError("pool graphs must be balanced")
            if not has_spanning_tree(g):
                raise ValueError("pool graphs must have a spanning tree")
        self.topology = pool


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
    """All run records plus the per-step max-over-runs disagreement."""

    records: list
    aggregate_delta: np.ndarray
    certificate: ContractionCertificate | None
    pool: list
    band: tuple[float, float]


def step(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Advance every agent by one exact sampled-data step.

    Uses the neighbor-difference form of the control input, so exact
    agreement (all rows of ``state`` equal) is preserved exactly.
    """
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape != (g.n, plant.n):
        raise ValueError(f"state must be {g.n}x{plant.n}, got {X.shape}")
    K = np.asarray(K, dtype=float)
    if K.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {K.shape}")
    if not h > 0.0:
        raise ValueError("h must be positive")
    dp = plant.discretize(h)
    diffs = X[None, :, :] - X[:, None, :]
    coupling = np.einsum("ij,ijk->ik", g.weights, diffs)
    return X @ dp.F.T + coupling @ (dp.G @ K).T


def step_kronecker(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Same step assembled as (I kron F - L kron G K) on the stacked state.

    Cross-check path for ``step``; the two agree to rounding.
    """
    X = np.asarray(state, dtype=float)
    K = np.asarray(K, dtype=float)
    dp = plant.discretize(h)
    phi = np.kron(np.eye(g.n), dp.F) - np.kron(laplacian(g), dp.G @ K)
    return (phi @ X.reshape(-1)).reshape(X.shape)


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
    return float((X.max(axis=0) - X.min(axis=0)).max())


def reduced_norm(state, basis: ReductionBasis, T) -> float:
    """Euclidean norm of the transformed reduced state (I kron T^-1) xi.

    xi is the projection of the stacked state onto the disagreement
    subspace; the norm is zero exactly at agreement and contracts strictly
    under a certified gain.
    """
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape[0] != basis.n:
        raise ValueError(f"state must have {basis.n} rows, got {X.shape}")
    Tinv = np.linalg.inv(np.asarray(T, dtype=float))
    xi = basis.mbar.T @ X
    return float(np.linalg.norm(xi @ Tinv.T))


def _materialize_pool(config: SimulationConfig, pool_seed) -> tuple[list, tuple[float, float]]:
    if isinstance(config.topology, TopologyRecipe):
        recipe = config.topology
        seq = (
            np.random.SeedSequence(recipe.seed)
            if recipe.seed is not None
            else pool_seed
        )
        sub = seq.spawn(recipe.pool_size)
        pool = [
            random_balanced_graph(
                config.n_agents, recipe.lambda_lo, recipe.lambda_hi, s,
                edge_prob=recipe.edge_prob,
            )
            for s in sub
        ]
        return pool, (recipe.lambda_lo, recipe.lambda_hi)
    pool = list(config.topology)
    return pool, pool_band(pool)


def run(config: SimulationConfig, force: bool = False) -> BatchResult:
    """Execute the batch: independent seeded runs with switching topologies.

    Refuses to run an uncertified gain unless ``force`` is set; the refusal
    carries the certificate.  Runs derive their generators from the master
    seed, so results are deterministic and independent of execution order.
    """
    master = np.random.SeedSequence(config.seed)
    pool_seed, *run_seeds = master.spawn(config.runs + 1)
    pool, band = _materialize_pool(config, pool_seed)
    cert = certify_gain(
        config.plant, config.hbar, band,
        design=config.design, gain=config.gain, transform=config.transform,
    )
    if cert.verdict != "certified" and not force:
        raise UncertifiedGainError(
            f"gain is not certified for band {band} up to hbar={config.hbar} "
            f"(verdict: {cert.verdict}); pass force=True to simulate anyway",
            cert,
        )
    if config.design is not None:
        K, T = config.design.K, config.design.T
    else:
        K, T = config.gain, config.transform
    basis = reduction_basis(config.n_agents)
    lows = np.array([lo for lo, _ in config.init_bounds])
    highs = np.array([hi for _, hi in config.init_bounds])
    n_states = config.plant.n
    records = []
    for run_id, seed in enumerate(run_seeds):
        rng = np.random.default_rng(seed)
        X = rng.uniform(lows, highs, size=(config.n_agents, n_states))
        t = np.zeros(config.steps + 1)
        h_log = np.zeros(config.steps)
        topo_log = np.zeros(config.steps, dtype=int)
        delta = np.zeros(config.steps + 1)
        nu = np.zeros(config.steps + 1)
        states = (
            np.zeros((config.steps + 1, config.n_agents, n_states))
            if config.record_states
            else None
        )
        delta[0] = disagreement(X)
        nu[0] = reduced_norm(X, basis, T)
        if states is not None:
            states[0] = X
        gap = 0.0
        topo_idx = 0
        for k in range(config.steps):
            if config.switch_period is not None and k % config.switch_period == 0:
                topo_idx = int(rng.integers(len(pool)))
            h = sample_interval(rng, config.h_min, config.hbar)
            X_next = step(X, pool[topo_idx], K, h, config.plant)
            if config.verify_step_forms:
                other = step_kronecker(X, pool[topo_idx], K, h, config.plant)
                gap = max(gap, float(np.abs(X_next - other).max()))
            X = X_next
            t[k + 1] = t[k] + h
            h_log[k] = h
            topo_log[k] = topo_idx
            delta[k + 1] = disagreement(X)
            nu[k + 1] = reduced_norm(X, basis, T)
            if states is not None:
                states[k + 1] = X
        records.append(
            TrajectoryRecord(run_id, t, h_log, topo_log, delta, nu, states, gap)
        )
    aggregate = np.max(np.stack([r.delta for r in records]), axis=0)
    return BatchResult(records, aggregate, cert, pool, band)
