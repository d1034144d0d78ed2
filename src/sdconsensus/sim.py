"""Exact discrete-time simulation of the sampled-data consensus network.

Each run draws random sampling intervals, switches the active topology at a
fixed step period, and advances all agents with the exact zero-order-hold
step

    x_i+ = F(h) x_i + G(h) K sum_j w_ij (x_j - x_i).

The runs of a batch advance together as one agent-major (n, runs, s) state
array.  Every run first draws its whole stream (initial state, topology
choices, sampling intervals) from its own generator, so results do not
depend on how runs are batched.  Between two switches, a stable sort by
topology makes the runs of each topology a contiguous group, and all runs
fill one block of states, one kernel call per step.  A step takes
Y = X - x_0 (differences to agent 0) and forms the coupling W Y - deg Y,
one product per group and one degree pass for all runs, into reused
buffers; it is shift-invariant, so exact agreement gives an exactly zero
coupling and stays exact.  ``step`` is the same kernel with one run.  A
stepped block is copied once agents first, (n, runs, steps + 1, s), each
state moved whole, so the metrics reduce over agents along long rows and
each group's slab is contiguous per agent.  The optional cross-check
applies I kron F - L kron G K as X F^T - (L X)(G K)^T with the dense
Laplacian L, since (L kron I_s) x = L X, to every step of a group's slab
at once, as ``step_kronecker`` does to one state.

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

from .certify import ContractionCertificate, PlantModel, _certify, _gain_pair, _transform_inverse
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
# a segment advances in blocks of at most this many state entries (8 MB) for
# all runs at once.  Beside the block (measured with tracemalloc): stepping
# holds its runs-major copy and three state-sized buffers, nu two
# block-sized arrays, and a verified block's check L X the size of the block
# and one array the size of its steps (1.8 blocks at 5 steps a block) when
# all its runs share one topology, less with more groups
_BLOCK_ENTRIES = 1 << 20
# a random pool holds pool_size dense n_agents x n_agents weight matrices,
# and a batch its per-run arrays (``SimulationConfig`` counts them): either
# with more entries than this (512 MB of floats) is refused before any of
# them is allocated
_MAX_ENTRIES = 1 << 26


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
    ``transform`` (the identity when None); ``gain_pair``, its checked K, T
    and T^-1, is derived from it by the rule of ``certify_gain`` (the design
    itself, a record that rule built passed as ``gain``, or a raw T inverted
    here), and serves the certificate, the steps and the reduced norm of ``run``.
    ``topology`` is an explicit pool of balanced spanning-tree graphs or a
    TopologyRecipe.  All randomness derives from ``seed``.  ``switch_period``
    defaults to 50 steps (a config file without one never switches).
    ``band`` is derived too: the recipe's band, or the eigenvalue band of the
    pool, which the certificate covers.  Frozen, since a reassigned field
    would leave them stale (``dataclasses.replace`` derives them afresh).  A
    batch whose arrays in ``run`` would hold more than ``_MAX_ENTRIES``
    entries is refused.
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
    gain_pair: GainDesign | tuple = field(init=False)

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
        # t, delta, nu, h and topology per run and instant, the state, and
        # every state when it is recorded
        instants, state = self.runs * (self.steps + 1), self.n_agents * self.plant.n
        entries = instants * (5 + (state if self.record_states else 0)) + self.runs * state
        if entries > _MAX_ENTRIES:
            states = ", states recorded," if self.record_states else ""
            raise ValueError(
                f"a batch of runs = {self.runs} x steps = {self.steps} of {self.n_agents} "
                f"agents{states} holds {entries} array entries, more than the "
                f"{_MAX_ENTRIES} a batch may hold"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("hbar must be positive and finite")
        if self.h_min is None:
            object.__setattr__(self, "h_min", self.hbar * H_MIN_FRACTION)
        if not (0.0 < self.h_min < self.hbar):
            raise ValueError("need 0 < h_min < hbar")
        pair = _gain_pair(self.plant, design=self.design, gain=self.gain, transform=self.transform)
        object.__setattr__(self, "gain_pair", pair)
        if self.switch_period is not None and self.switch_period < 1:
            raise ValueError("switch_period must be positive (or None to never switch)")
        if len(self.init_bounds) != self.plant.n:
            raise ValueError("init_bounds needs one (lo, hi) pair per state component")
        for lo, hi in self.init_bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError("init bounds must be finite with lo <= hi")
            if not math.isfinite(hi - lo):  # a uniform draw needs the width
                raise ValueError(
                    f"init bounds must be finite with lo <= hi and a finite width, "
                    f"got [{lo!r}, {hi!r}]"
                )


@dataclass
class TrajectoryRecord:
    """Per-step log of one run.

    ``t``, ``delta`` and ``nu`` have steps + 1 entries (sampling instants
    including the initial one); ``h`` and ``topology`` have one entry per
    executed step.  ``step_form_gap`` is the largest deviation between the
    neighbor-difference and Kronecker step forms when verification was on,
    and nan when the cross-check did not run (``verify_step_forms`` off, the
    default), so an unchecked run never reads as a perfect match.
    """

    run_id: int
    t: np.ndarray
    h: np.ndarray
    topology: np.ndarray
    delta: np.ndarray
    nu: np.ndarray
    states: np.ndarray | None = None
    step_form_gap: float = math.nan


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


def _advance(X, out, Xt, outt, coupling, Ft, GKt):
    """Write one exact step of the runs ``X``, held agent-major as (n, runs, s),
    to ``out``; ``Xt`` and ``outt`` are their (runs, n, s) views.

    ``coupling`` is the segment's (Y, C, D, groups, Yt, Ct) from ``_coupling``,
    and ``Ft`` and ``GKt`` (runs, s, s) are each run's F(h)^T and (G(h) K)^T.
    The coupling sum_j w_ij (x_j - x_i) is W Y - deg Y on the differences
    Y = X - x_0: one product W Yg per group, then one pass over all runs with
    the degrees D; a zero Y gives an exactly zero coupling.  The step is
    X F^T + C (G K)^T, its products on the (runs, n, s) views.
    """
    Y, C, D, groups, Yt, Ct = coupling
    np.subtract(X, X[:1], out=Y)
    for W, Yg, Cg in groups:
        np.matmul(W, Yg, out=Cg)
    Y *= D
    C -= Y
    np.matmul(Xt, Ft, out=outt)
    # Y is free again and takes C (G K)^T in the agent-major order of out
    np.matmul(Ct, GKt, out=Yt)
    out += Y


def _coupling(graphs, degrees, slices, shape):
    """The ``coupling`` of ``_advance`` for states of ``shape`` (n, runs, s)
    whose runs a:b follow ``graphs[g]``, for each (g, a, b) of ``slices``.

    Y and C are state-sized buffers, D holds each entry's degree (the row
    sums ``degrees[g]`` of its graph), groups lists (W, Yg, Cg) with Yg and
    Cg the (n, (b - a) s) views of Y and C, and Yt and Ct are the
    (runs, n, s) views of Y and C, made once for all steps.
    """
    n = shape[0]
    Y, C, D = np.empty(shape), np.empty(shape), np.empty(shape)
    groups = []
    for g, a, b in slices:
        D[:, a:b] = degrees[g][:, None, None]
        groups.append((graphs[g].weights, Y[:, a:b].reshape(n, -1), C[:, a:b].reshape(n, -1)))
    return Y, C, D, groups, Y.swapaxes(0, 1), C.swapaxes(0, 1)


def _step_block(X, coupling, F, GK) -> np.ndarray:
    """All states of the runs ``X`` (n, runs, s) over the steps of ``F`` and
    ``GK`` (steps, runs, s, s), agents first: (n, runs, steps + 1, s).

    The steps fill a (steps + 1, n, runs, s) block, so every step reads and
    writes contiguous states; one copy then moves each state of s components
    as one item into the agents-first order, so that the checks and metrics
    reduce over agents along long rows and every run's states are contiguous.
    """
    Ft, GKt = _transposed(F), _transposed(GK)
    seg = np.empty((len(F) + 1,) + X.shape)
    seg[0] = X
    segt = seg.swapaxes(1, 2)
    for j in range(len(F)):
        _advance(seg[j], seg[j + 1], segt[j], segt[j + 1], coupling, Ft[j], GKt[j])
    state = np.dtype((np.void, seg.strides[-2]))  # the s components of one state
    return np.ascontiguousarray(seg.view(state).transpose(1, 2, 0, 3)).view(float)


def _transposed(M) -> np.ndarray:
    """A contiguous stack of the transposes of the stacked matrices ``M``."""
    return np.ascontiguousarray(np.swapaxes(M, -1, -2))


def _advance_kronecker(X, L, F, GK):
    """The step of ``_advance`` as (I kron F - L kron G K) on agents-first states.

    ``X`` is (n, ..., k, s) and ``L`` the dense n x n Laplacian; ``F`` and
    ``GK`` (..., m, s, s) step the first m <= k states, their leading axes
    broadcasting with those of ``X``.  Since (L kron I_s) x = L X and
    L kron G K = (I kron G K)(L kron I_s), the step is X F^T - (L X)(G K)^T,
    in the layout of ``X``.  L X is one matrix product over all k states,
    with no copy when ``X`` is contiguous per agent.
    """
    m = F.shape[-3]
    LX = (L @ X.reshape(len(L), -1)).reshape(X.shape)[..., :m, :]
    out = np.empty(LX.shape)
    Xs, LXs, outs = (np.moveaxis(A, 0, -2) for A in (X[..., :m, :], LX, out))
    np.matmul(LXs, _transposed(GK), out=outs)
    # LX is free again and takes X F^T
    np.matmul(Xs, _transposed(F), out=LXs)
    return np.subtract(LX, out, out=out)


def _step_form_gaps(block, L, F, GK) -> np.ndarray:
    """Per run, the largest gap between the steps of ``block``
    (n, runs, steps + 1, s) and their Kronecker form by ``F`` and ``GK``."""
    gaps = _advance_kronecker(block, L, F.swapaxes(0, 1), GK.swapaxes(0, 1))
    gaps -= block[:, :, 1:]
    return np.abs(gaps, out=gaps).max(axis=(0, 2, 3))


def _disagreements(X) -> np.ndarray:
    """Largest state difference over agent pairs and components, per state.

    ``X`` is (n, ..., s), agents first, so the max and min over agents run
    over long contiguous rows; the s components then meet in elementwise
    maxima.  Both are exact, so every layout gives the same bits.
    """
    spread = X.max(axis=0) - X.min(axis=0)
    out = spread[..., 0]
    for c in range(1, spread.shape[-1]):
        out = np.maximum(out, spread[..., c])
    return out


def _reduced_norms(X, Tinv) -> np.ndarray:
    """||(mbar^T kron T^-1) x|| per state, as ||(Y - mean Y) T^-T|| with Y = X - x_0.

    ``X`` is (n, ..., s), agents first, with at least two states in the
    middle axes: every sum over agents or components then adds one row after
    another for every state alike, whatever the shape of the block.  T^-1
    applies to all rows of Y at once, as T^-1 Y^T, whose component rows are
    contiguous.
    """
    Y = X - X[:1]
    Y -= Y.mean(axis=0)
    Z = Tinv @ Y.reshape(-1, Y.shape[-1]).T
    del Y  # one block fewer alive while the squares are summed
    Z *= Z
    squares = Z[0]
    for row in Z[1:]:
        squares = squares + row
    return np.sqrt(squares.reshape(X.shape[:-1]).sum(axis=0))


def _one_run(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Checked inputs of a one-run step: the state, then F(h) and G(h) K as
    stacks of one run."""
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape != (g.n, plant.n):
        raise ValueError(f"state must be {g.n}x{plant.n}, got {X.shape}")
    K = _gain_pair(plant, gain=K).K
    if not h > 0.0:
        raise ValueError("h must be positive")
    F, G = plant.discretize(h)
    return X, F[None], (G @ K)[None]


def step(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Advance every agent by one exact sampled-data step.

    Uses the neighbor-difference form of the control input, so exact
    agreement (all rows of ``state`` equal) is preserved exactly.
    """
    X, F, GK = _one_run(state, g, K, h, plant)
    out = np.empty_like(X)
    coupling = _coupling([g], [g.weights.sum(axis=1)], [(0, 0, 1)], (len(X), 1, X.shape[1]))
    # one run's agent-major (n, 1, s) states are their own (1, n, s) transpose
    _advance(X[:, None], out[:, None], X[None], out[None], coupling,
             _transposed(F), _transposed(GK))
    return out


def step_kronecker(state, g: WeightedDigraph, K, h: float, plant: PlantModel):
    """Same step assembled as (I kron F - L kron G K) on the stacked state.

    Cross-check path for ``step``; the two agree to rounding.
    """
    X, F, GK = _one_run(state, g, K, h, plant)
    return _advance_kronecker(X[:, None], laplacian(g), F, GK)[:, 0]


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
    return float(_disagreements(X[:, None])[0])


def reduced_norm(state, basis: np.ndarray, T) -> float:
    """Euclidean norm of the transformed reduced state (I kron T^-1) xi.

    xi is the projection of the stacked state onto the disagreement
    subspace spanned by ``basis`` (``graph.reduction_basis``); the norm is
    zero exactly at agreement and contracts strictly under a certified gain.
    T goes through the T check of the gain rule (``certify._gain_pair``), so
    a T it refuses raises its ValueError here too.
    """
    X = np.asarray(state, dtype=float)
    if X.ndim != 2 or X.shape[0] != basis.shape[0]:
        raise ValueError(f"state must have {basis.shape[0]} rows, got {X.shape}")
    Tinv = _transform_inverse(np.asarray(T, dtype=float), X.shape[1])
    # the state twice, as a block of two: its sums over agents add in the
    # order of every block of ``run``
    return float(_reduced_norms(np.stack([X, X], axis=1), Tinv)[0])


def _topology_band(topology) -> tuple[float, float]:
    """The eigenvalue band a certificate must cover for ``topology``: the
    recipe's band, or the band of an explicit pool of balanced graphs."""
    if isinstance(topology, TopologyRecipe):
        return topology.lambda_lo, topology.lambda_hi
    return pool_band(topology)


def _materialize_pool(config: SimulationConfig, pool_seed) -> list:
    """The topology pool: a recipe's graph i is drawn from child i of its
    seed (the batch's pool seed by default), made as ``spawn`` makes it."""
    if isinstance(config.topology, TopologyRecipe):
        recipe = config.topology
        weights = recipe.pool_size * config.n_agents**2
        if weights > _MAX_ENTRIES:
            raise ValueError(
                f"pool_size = {recipe.pool_size} graphs of {config.n_agents} agents hold "
                f"{weights} weights, more than the {_MAX_ENTRIES} a pool may hold"
            )
        seq = np.random.SeedSequence(recipe.seed) if recipe.seed is not None else pool_seed
        return [
            random_balanced_graph(
                config.n_agents, recipe.lambda_lo, recipe.lambda_hi,
                np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, i)),
                edge_prob=recipe.edge_prob,
            )
            for i in range(recipe.pool_size)
        ]
    return list(config.topology)


def _draw_streams(config: SimulationConfig, pool_size: int):
    """Agent-major initial states, sampling intervals and topology indices.

    Each run draws from its own generator, seeded with child r + 1 of the
    batch seed: its initial state, then for each switching segment the
    topology index (when switching) followed by the segment's intervals.  A
    vector draw gives the values of the same number of scalar draws, so the
    streams equal those of step-by-step drawing.
    """
    lows = np.array([lo for lo, _ in config.init_bounds])
    highs = np.array([hi for _, hi in config.init_bounds])
    runs, steps = config.runs, config.steps
    X = np.empty((config.n_agents, runs, config.plant.n))
    h = np.empty((runs, steps))
    topology = np.zeros((runs, steps), dtype=int)
    period = config.switch_period or steps
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(r + 1,)))
        X[:, r] = rng.uniform(lows, highs, size=(config.n_agents, config.plant.n))
        for start in range(0, steps, period):
            stop = min(start + period, steps)
            if config.switch_period is not None:
                topology[r, start:stop] = rng.integers(pool_size)
            h[r, start:stop] = rng.uniform(config.h_min, config.hbar, size=stop - start)
    return X, h, topology


def run(config: SimulationConfig, force: bool = False) -> BatchResult:
    """Execute the batch: independent seeded runs with switching topologies.

    Refuses to run an uncertified gain unless ``force`` is set; the refusal
    carries the certificate.  The pool and run r derive their generators
    from children 0 and r + 1 of the batch seed, so results are
    deterministic and independent of execution order.  Each child is made
    when it is needed, equal to the one ``SeedSequence(seed).spawn`` returns,
    so no list of seeds grows with ``runs``.
    """
    t0 = time.perf_counter()
    pool = _materialize_pool(config, np.random.SeedSequence(config.seed, spawn_key=(0,)))
    t1 = time.perf_counter()
    cert = _certify(config.plant, config.hbar, config.band, config.gain_pair)
    if cert.verdict != "certified" and not force:
        raise UncertifiedGainError(
            f"gain is not certified for band {config.band} up to hbar={config.hbar} "
            f"(verdict: {cert.verdict}); pass force=True to simulate anyway",
            cert,
        )
    t2 = time.perf_counter()
    X, h, topology = _draw_streams(config, len(pool))
    runs, steps = h.shape
    t = np.zeros((runs, steps + 1))
    delta = np.empty((runs, steps + 1))
    nu = np.empty((runs, steps + 1))
    states = np.empty((runs, steps + 1, len(X), X.shape[2])) if config.record_states else None
    gap = np.zeros(runs) if config.verify_step_forms else np.full(runs, np.nan)
    degrees = [g.weights.sum(axis=1) for g in pool]
    laplacians = [laplacian(g) for g in pool] if config.verify_step_forms else None
    period = config.switch_period or steps
    length = max(1, min(period, _BLOCK_ENTRIES // X.size))
    # sorted sets, not np.union1d/np.unique: those import numpy.ma on first use
    bounds = sorted({*range(0, steps, period), *range(0, steps, length)})
    # a forced diverging gain (or a huge hbar, in the times t) overflows to
    # inf and nan; the metrics and the convergence ratio report that, so numpy
    # need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(h, axis=1, out=t[:, 1:])
        for start, stop in zip(bounds, [*bounds[1:], steps]):
            # a stable sort by topology makes each group of the segment the
            # contiguous slice a:b of the sorted runs
            active = topology[:, start]
            order = np.argsort(active, kind="stable")
            edges = [0, *np.cumsum(np.bincount(active, minlength=len(pool))).tolist()]
            slices = [(g, a, b) for g, (a, b) in enumerate(zip(edges, edges[1:])) if a < b]
            F, G = config.plant.discretize(h[order, start:stop].T)
            GK = G @ config.gain_pair.K
            # every run advances in one block; its first state is the one at
            # `start`, so the metrics cover k = 0 too
            block = _step_block(X[:, order], _coupling(pool, degrees, slices, X.shape), F, GK)
            X[:, order] = block[:, :, -1]
            if laplacians is not None:
                for g, a, b in slices:
                    gaps = _step_form_gaps(block[:, a:b], laplacians[g], F[:, a:b], GK[:, a:b])
                    gap[order[a:b]] = np.maximum(gap[order[a:b]], gaps)
            delta[order, start:stop + 1] = _disagreements(block)
            nu[order, start:stop + 1] = _reduced_norms(block, config.gain_pair.Tinv)
            if states is not None:
                states[order, start:stop + 1] = block.transpose(1, 2, 0, 3)
            del block  # not alive while the next block is stepped
    records = [
        TrajectoryRecord(
            r, t[r], h[r], topology[r], delta[r], nu[r],
            None if states is None else states[r], float(gap[r]),
        )
        for r in range(runs)
    ]
    timings = {"pool": t1 - t0, "certify": t2 - t1, "simulate": time.perf_counter() - t2}
    return BatchResult(records, delta.max(axis=0), cert, pool, config.band, timings)
