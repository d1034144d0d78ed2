"""Exact discrete-time simulation of the sampled-data consensus network.

Each run draws random sampling intervals, switches the active topology at a
fixed step period, and advances all agents with the exact zero-order-hold
step

    x_i+ = F(h) x_i + G(h) K sum_j w_ij (x_j - x_i).

The runs of a batch advance together as one (runs, n, s) state array.  Every
run first draws its whole stream (initial state, topology choices, sampling
intervals) from its own generator, so results do not depend on how runs are
batched.  Between two switches, the runs that share a topology form one
stacked system: each step takes Y = X - x_0 (differences to agent 0) and the
coupling W Y - deg Y, which is shift-invariant, so exact agreement gives an
exactly zero coupling and stays exact.  ``step`` is the same kernel with one
run.  The optional cross-check applies the Kronecker-assembled map
I kron F - L kron G K, built from kron(I, E_ab) and kron(L, E_ab) once per
topology and switching segment rather than once per step.

Every trajectory records the disagreement metric and the transformed reduced
norm, whose strict decrease is the certified contraction at work.  The norm
uses the centered form ||(Y - mean Y) T^-T||, which equals
||(mbar^T kron T^-1) x|| because the Helmert basis gives
mbar mbar^T = I - 11^T / n.
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


def _advance(X, W, deg, F, GK):
    """One exact step of the runs ``X`` (runs, n, s) that share topology W.

    ``deg`` holds the row sums of W; ``F`` and ``GK`` (runs, s, s) are each
    run's F(h) and G(h) K.  The coupling sum_j w_ij (x_j - x_i) is formed as
    W Y - deg Y on the differences Y to agent 0.
    """
    Y = X - X[:, :1]
    coupling = np.tensordot(W, Y, axes=(1, 1)).transpose(1, 0, 2) - deg[:, None] * Y
    return X @ F.transpose(0, 2, 1) + coupling @ GK.transpose(0, 2, 1)


def _kron_columns(M, s: int) -> np.ndarray:
    """kron(M, E_ab)^T for the s x s unit matrices E_ab, side by side.

    Block c = a s + b of the result holds kron(M, E_ab)^T, so that
    ``x @ result`` stacks kron(M, E_ab) x for every (a, b).
    """
    size = M.shape[0] * s
    out = np.empty((size, s * s * size))
    for c, unit in enumerate(np.eye(s * s).reshape(s * s, s, s)):
        out[:, c * size:(c + 1) * size] = np.kron(M, unit).T
    return out


def _advance_kronecker(X, eye_cols, lap_cols, F, GK):
    """The step of ``_advance`` as (I kron F - L kron G K) on each stacked state.

    ``eye_cols`` and ``lap_cols`` are ``_kron_columns`` of the identity and
    of the Laplacian L; each run's map is the sum over (a, b) of
    F_ab kron(I, E_ab) - (G K)_ab kron(L, E_ab).
    """
    runs, n, s = X.shape
    x = X.reshape(runs, n * s)
    eye_parts = (x @ eye_cols).reshape(runs, s * s, n * s)
    lap_parts = (x @ lap_cols).reshape(runs, s * s, n * s)
    out = F.reshape(runs, 1, s * s) @ eye_parts - GK.reshape(runs, 1, s * s) @ lap_parts
    return out.reshape(X.shape)


def _disagreements(X) -> np.ndarray:
    """Largest state difference over agent pairs and components, per run."""
    return (X.max(axis=1) - X.min(axis=1)).max(axis=1)


def _reduced_norms(X, Tinv) -> np.ndarray:
    """||(mbar^T kron T^-1) x|| per run, as ||(Y - mean Y) T^-T|| with Y = X - x_0."""
    Y = X - X[:, :1]
    Z = (Y - Y.mean(axis=1, keepdims=True)) @ Tinv.T
    return np.sqrt(np.einsum("rns,rns->r", Z, Z))


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
    W = g.weights
    return _advance(X[None], W, W.sum(axis=1), dp.F[None], (dp.G @ K)[None])[0]


def step_kronecker(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Same step assembled as (I kron F - L kron G K) on the stacked state.

    Cross-check path for ``step``; the two agree to rounding.
    """
    X = np.asarray(state, dtype=float)
    K = np.asarray(K, dtype=float)
    dp = plant.discretize(h)
    eye_cols = _kron_columns(np.eye(g.n), plant.n)
    lap_cols = _kron_columns(laplacian(g), plant.n)
    return _advance_kronecker(X[None], eye_cols, lap_cols, dp.F[None], (dp.G @ K)[None])[0]


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
    return float(_reduced_norms(X[None], Tinv)[0])


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
    Tinv = np.linalg.inv(T)
    X, h, topology = _draw_streams(config, run_seeds, len(pool))
    runs, steps = h.shape
    n_states = config.plant.n
    t = np.zeros((runs, steps + 1))
    np.cumsum(h, axis=1, out=t[:, 1:])
    delta = np.empty((runs, steps + 1))
    nu = np.empty((runs, steps + 1))
    delta[:, 0] = _disagreements(X)
    nu[:, 0] = _reduced_norms(X, Tinv)
    states = None
    if config.record_states:
        states = np.empty((runs, steps + 1) + X.shape[1:])
        states[:, 0] = X
    gap = np.zeros(runs)
    verify = config.verify_step_forms
    eye_cols = _kron_columns(np.eye(config.n_agents), n_states) if verify else None
    period = config.switch_period or steps
    for start in range(0, steps, period):
        stop = min(start + period, steps)
        active = topology[:, start]
        # runs sharing a topology for the whole segment advance as one stack
        for g in np.unique(active):
            idx = np.flatnonzero(active == g)
            W = pool[g].weights
            deg = W.sum(axis=1)
            F, G = config.plant.discretize_many(h[idx, start:stop].T)
            GK = G @ K
            if verify:
                lap_cols = _kron_columns(laplacian(pool[g]), n_states)
            Xg = X[idx]
            for j, k in enumerate(range(start + 1, stop + 1)):
                X_next = _advance(Xg, W, deg, F[j], GK[j])
                if verify:
                    other = _advance_kronecker(Xg, eye_cols, lap_cols, F[j], GK[j])
                    gap[idx] = np.maximum(gap[idx], np.abs(X_next - other).max(axis=(1, 2)))
                Xg = X_next
                delta[idx, k] = _disagreements(Xg)
                nu[idx, k] = _reduced_norms(Xg, Tinv)
                if states is not None:
                    states[idx, k] = Xg
            X[idx] = Xg
    records = [
        TrajectoryRecord(
            r, t[r], h[r], topology[r], delta[r], nu[r],
            None if states is None else states[r], float(gap[r]),
        )
        for r in range(runs)
    ]
    return BatchResult(records, delta.max(axis=0), cert, pool, band)
