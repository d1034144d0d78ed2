import dataclasses
import itertools

import numpy as np
import pytest

from sdconsensus import sim
from sdconsensus.certify import PlantModel, certify_gain
from sdconsensus.graph import (
    WeightedDigraph,
    laplacian,
    random_balanced_graph,
    reduction_basis,
)
from sdconsensus.sim import (
    SimulationConfig,
    TopologyRecipe,
    UncertifiedGainError,
    disagreement,
    reduced_norm,
    run,
    sample_interval,
    step,
    step_kronecker,
)
from test_graph import complete_graph, pair_graph


def small_config(**overrides):
    base = dict(
        n_agents=5,
        plant=PlantModel.double_integrator(),
        hbar=3.0,
        steps=60,
        runs=3,
        seed=42,
        topology=TopologyRecipe(0.3, 6.0, pool_size=3),
    )
    base.update(overrides)
    return SimulationConfig(**base)


@pytest.fixture(scope="module")
def small_batch(example1_design):
    return run(small_config(design=example1_design))


# ---------------------------------------------------------------------------
# step


def test_step_preserves_agreement_exactly(di_plant, example1_design):
    g = complete_graph(4)
    x = np.tile([2.5, -0.75], (4, 1))
    for h in (0.01, 1.0, 2.9):
        nxt = step(x, g, example1_design.K, h, di_plant)
        # all agents stay exactly identical and follow the open-loop map
        np.testing.assert_array_equal(nxt, np.tile(nxt[0], (4, 1)))
        assert disagreement(nxt) == 0.0
        F, _ = di_plant.discretize(h)
        np.testing.assert_allclose(nxt[0], F @ x[0], rtol=1e-15)


def test_step_single_agent_is_open_loop(di_plant, example1_design):
    g = WeightedDigraph(np.zeros((1, 1)))
    x = np.array([[1.0, 2.0]])
    nxt = step(x, g, example1_design.K, 0.7, di_plant)
    np.testing.assert_allclose(nxt, (di_plant.discretize(0.7)[0] @ x[0])[None, :], atol=1e-15)


def test_step_pair_matches_kronecker_oracle(di_plant, example1_design):
    rng = np.random.default_rng(1)
    K = example1_design.K
    g = pair_graph(0.8)
    for _ in range(25):
        x = rng.uniform(-5.0, 5.0, size=(2, 2))
        h = float(rng.uniform(0.01, 3.0))
        F, G = di_plant.discretize(h)
        # direct 4x4 assembly oracle
        phi = np.block(
            [
                [F - 0.8 * G @ K, 0.8 * G @ K],
                [0.8 * G @ K, F - 0.8 * G @ K],
            ]
        )
        want = (phi @ x.reshape(-1)).reshape(2, 2)
        np.testing.assert_allclose(step(x, g, K, h, di_plant), want, atol=1e-12)
        np.testing.assert_allclose(
            step_kronecker(x, g, K, h, di_plant), want, atol=1e-12
        )


def test_step_forms_agree(di_plant, example1_design):
    # state sizes 1, 2 and 3: at s >= 2 reading the stacked state x as L X
    # with the agent and component axes swapped would show
    rng = np.random.default_rng(2)
    plants = [
        (PlantModel.general([[-0.3]], [[1.0]]), np.array([[0.4]])),
        (di_plant, example1_design.K),
        (PlantModel.general(rng.uniform(-0.5, 0.5, (3, 3)), rng.uniform(-1.0, 1.0, (3, 1))),
         rng.uniform(-0.5, 0.5, (1, 3))),
    ]
    for plant, K in plants:
        for _ in range(20):
            n = int(rng.integers(2, 8))
            mask = np.triu(rng.random((n, n)) < 0.6, 1)
            w = np.zeros((n, n))
            w[mask | mask.T] = rng.uniform(0.2, 2.0)
            g = WeightedDigraph(w)
            x = rng.uniform(-10.0, 10.0, size=(n, plant.n))
            h = float(rng.uniform(0.01, 3.0))
            a = step(x, g, K, h, plant)
            b = step_kronecker(x, g, K, h, plant)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


def test_advance_kronecker_steps_a_block_at_once():
    # an agents-first (n, runs, steps + 1, s) block with its own F and G K per
    # (run, step) gives, item by item, the assembled (I kron F - L kron G K) x
    # of every state but the last; distinct sizes and a directed graph (L not
    # symmetric) make a mixed-up axis show
    rng = np.random.default_rng(5)
    steps, runs, n = 3, 4, 6
    w = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    L = laplacian(WeightedDigraph(w))
    for s in (1, 2, 3):
        X = rng.uniform(-5.0, 5.0, (n, runs, steps + 1, s))
        F = rng.uniform(-1.0, 1.0, (runs, steps, s, s))
        GK = rng.uniform(-1.0, 1.0, (runs, steps, s, s))
        got = sim._advance_kronecker(X, L, F, GK)
        assert got.shape == (n, runs, steps, s)
        for r, k in itertools.product(range(runs), range(steps)):
            phi = np.kron(np.eye(n), F[r, k]) - np.kron(L, GK[r, k])
            want = (phi @ X[:, r, k].reshape(-1)).reshape(n, s)
            np.testing.assert_allclose(got[:, r, k], want, rtol=0.0, atol=1e-12)


def test_step_permutation_equivariance(di_plant, example1_design):
    rng = np.random.default_rng(3)
    n = 6
    mask = np.triu(rng.random((n, n)) < 0.5, 1)
    w = np.zeros((n, n))
    w[mask | mask.T] = 1.0
    g = WeightedDigraph(w)
    x = rng.uniform(-5.0, 5.0, size=(n, 2))
    perm = rng.permutation(n)
    g_p = WeightedDigraph(w[np.ix_(perm, perm)])
    before = step(x, g, example1_design.K, 1.3, di_plant)
    after = step(x[perm], g_p, example1_design.K, 1.3, di_plant)
    np.testing.assert_allclose(after, before[perm], atol=1e-12)


def test_step_rejects_bad_shapes(di_plant, example1_design):
    g = pair_graph()
    for advance in (step, step_kronecker):
        with pytest.raises(ValueError):
            advance(np.zeros((3, 2)), g, example1_design.K, 1.0, di_plant)
        with pytest.raises(ValueError, match=r"K must be 1x2, got \(1, 3\)"):
            advance(np.zeros((2, 2)), g, np.zeros((1, 3)), 1.0, di_plant)
        with pytest.raises(ValueError, match="h must be positive"):
            advance(np.zeros((2, 2)), g, example1_design.K, 0.0, di_plant)


# ---------------------------------------------------------------------------
# sampling intervals


def test_sample_interval_bounds():
    rng = np.random.default_rng(4)
    lo, hi = 2.9, 3.0
    for _ in range(100):
        h = sample_interval(rng, lo, hi)
        assert lo <= h < hi


def test_sample_interval_deterministic():
    a = [sample_interval(np.random.default_rng(5), 0.1, 2.0) for _ in range(10)]
    b = [sample_interval(np.random.default_rng(5), 0.1, 2.0) for _ in range(10)]
    assert a == b


def test_sample_interval_mean():
    rng = np.random.default_rng(6)
    lo, hi = 0.003, 3.0
    draws = np.array([sample_interval(rng, lo, hi) for _ in range(100000)])
    assert abs(draws.mean() - (lo + hi) / 2.0) < 0.01 * (lo + hi) / 2.0


def test_sample_interval_rejects_bad_bounds():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        sample_interval(rng, 2.0, 1.0)
    with pytest.raises(ValueError):
        sample_interval(rng, 0.0, 1.0)


# ---------------------------------------------------------------------------
# metrics


def test_disagreement_zero_at_agreement():
    assert disagreement(np.tile([1.0, 2.0], (5, 1))) == 0.0


def test_disagreement_two_agents():
    assert disagreement(np.array([[0.0, 1.0], [3.0, 1.0]])) == 3.0


def test_disagreement_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        x = rng.uniform(-10.0, 10.0, size=(n, 3))
        brute = max(
            abs(x[i, c] - x[j, c])
            for i in range(n)
            for j in range(n)
            for c in range(3)
        )
        assert disagreement(x) == pytest.approx(brute, rel=1e-15)


def test_disagreement_needs_two_agents():
    with pytest.raises(ValueError):
        disagreement(np.zeros((1, 2)))


def test_reduced_norm_zero_at_agreement(example1_design):
    basis = reduction_basis(6)
    x = np.tile([4.0, -1.0], (6, 1))
    assert reduced_norm(x, basis, example1_design.T) < 1e-12


def test_reduced_norm_rejects_a_state_of_the_wrong_size(example1_design):
    with pytest.raises(ValueError, match=r"^state must have 4 rows, got \(3, 2\)$"):
        reduced_norm(np.zeros((3, 2)), reduction_basis(4), example1_design.T)


@pytest.mark.parametrize(
    "T, message",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], "T must have finite entries"),
        ([[1e-310, 0.0], [0.0, 1.0]], "T must be invertible"),  # its inverse overflows
        ([[1.0, 2.0], [2.0, 4.0]], "T must be invertible"),
        (np.eye(3), "T must be square with the plant dimension"),
    ],
)
def test_reduced_norm_applies_the_gain_rules_t_check(T, message):
    # the T that the gain rule refuses, never a silent nan
    x = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        reduced_norm(x, reduction_basis(5), T)
    with pytest.raises(ValueError, match=f"^{message}$"):
        certify_gain(PlantModel.double_integrator(), 1.0, (1.0, 2.0), gain=[[0.1, 0.2]], transform=T)


def test_reduced_norm_homogeneous(example1_design):
    rng = np.random.default_rng(9)
    basis = reduction_basis(5)
    x = rng.uniform(-3.0, 3.0, size=(5, 2))
    one = reduced_norm(x, basis, example1_design.T)
    two = reduced_norm(2.0 * x, basis, example1_design.T)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_reduced_norm_matches_kronecker_assembly(example1_design):
    rng = np.random.default_rng(10)
    basis = reduction_basis(7)
    T = example1_design.T
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, size=(7, 2))
        got = reduced_norm(x, basis, T)
        xi = np.kron(basis.T, np.eye(2)) @ x.reshape(-1)
        want = np.linalg.norm(np.kron(np.eye(6), np.linalg.inv(T)) @ xi)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# batch runs


def test_run_record_shapes(small_batch):
    assert len(small_batch.records) == 3
    for rec in small_batch.records:
        assert rec.t.shape == (61,)
        assert rec.h.shape == (60,)
        assert rec.topology.shape == (60,)
        assert rec.delta.shape == (61,)
        assert rec.nu.shape == (61,)
        assert rec.states is None
        np.testing.assert_allclose(rec.t[1:], np.cumsum(rec.h), rtol=1e-15)
        assert np.all(rec.h > 0.0) and np.all(rec.h < 3.0)
        assert np.all(rec.delta >= 0.0) and np.all(rec.nu >= 0.0)
    assert small_batch.certificate.verdict == "certified"
    assert len(small_batch.pool) == 3
    assert list(small_batch.timings) == ["pool", "certify", "simulate"]
    assert all(seconds >= 0.0 for seconds in small_batch.timings.values())


def test_run_topology_switching_schedule(small_batch):
    for rec in small_batch.records:
        topo = rec.topology
        # constant between switches every 50 steps
        assert np.all(topo[:50] == topo[0])
        assert np.all(topo[50:] == topo[50])
        assert set(topo) <= set(range(3))


def test_run_aggregate_is_max_over_runs(small_batch):
    stacked = np.stack([r.delta for r in small_batch.records])
    np.testing.assert_array_equal(small_batch.aggregate_delta, stacked.max(axis=0))


def test_run_deterministic(example1_design):
    a = run(small_config(design=example1_design))
    b = run(small_config(design=example1_design))
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.delta, rb.delta)
        assert np.array_equal(ra.nu, rb.nu)
        assert np.array_equal(ra.h, rb.h)
        assert np.array_equal(ra.topology, rb.topology)


def test_run_agreement_is_invariant(example1_design):
    # 8 runs over a 4-graph pool, so the segments hold several topology groups;
    # all agents start equal, at values whose products with the weights round,
    # so a coupling formed on the raw states would not cancel exactly
    cfg = small_config(
        design=example1_design,
        init_bounds=((1.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0, 2.0 / 3.0)),
        topology=TopologyRecipe(0.3, 6.0, pool_size=4),
        steps=40,
        runs=8,
        switch_period=10,
        verify_step_forms=True,
    )
    result = run(cfg)
    topology = np.array([rec.topology for rec in result.records])
    assert all(len(set(topology[:, k])) > 1 for k in range(0, cfg.steps, cfg.switch_period))
    for rec in result.records:
        assert np.all(rec.delta == 0.0)
        assert np.all(rec.nu == 0.0)
        assert rec.step_form_gap < 1e-12


def test_run_contraction_monotone(example1_design):
    result = run(small_config(design=example1_design, steps=300, runs=10))
    for rec in result.records:
        nu = rec.nu
        active = nu[:-1] >= 1e-12
        assert np.all(nu[1:][active] < nu[:-1][active])


def test_run_fixed_topology_contraction(example1_design):
    cfg = small_config(design=example1_design, switch_period=None, steps=200, runs=3)
    result = run(cfg)
    for rec in result.records:
        assert np.all(rec.topology == rec.topology[0])
        nu = rec.nu
        active = nu[:-1] >= 1e-12
        assert np.all(nu[1:][active] < nu[:-1][active])


def test_run_refuses_uncertified_gain():
    cfg = small_config(gain=np.array([[0.0, 0.0]]))
    with pytest.raises(UncertifiedGainError) as info:
        run(cfg)
    assert info.value.certificate is not None
    assert info.value.certificate.verdict != "certified"


def test_run_force_overrides_refusal():
    cfg = small_config(gain=np.array([[0.0, 0.0]]), steps=20, runs=2)
    result = run(cfg, force=True)
    assert len(result.records) == 2
    assert result.certificate.verdict != "certified"


def test_a_forced_run_at_a_huge_hbar_overflows_without_warnings():
    # warnings are errors here: the sampling times overflow to inf in t
    cfg = small_config(gain=np.array([[0.001, 0.1]]), hbar=8e305, steps=1000, runs=2)
    result = run(cfg, force=True)
    assert result.certificate.verdict == "inconclusive"
    assert all(np.isinf(rec.t[-1]) for rec in result.records)


@pytest.mark.parametrize("seed", [None, 7])
def test_run_draws_pool_graph_i_from_child_i_of_the_pool_seed(seed, example1_design):
    # each child is made on its own, equal to the one spawn makes
    recipe = TopologyRecipe(0.3, 6.0, pool_size=3, seed=seed)
    result = run(small_config(design=example1_design, topology=recipe, steps=2, runs=1))
    parent = (np.random.SeedSequence(42, spawn_key=(0,)) if seed is None
              else np.random.SeedSequence(seed))
    for graph, child in zip(result.pool, parent.spawn(3), strict=True):
        assert np.array_equal(graph.weights, random_balanced_graph(5, 0.3, 6.0, child).weights)


@pytest.mark.parametrize("pool_size, n_agents", [
    ((1 << 26) // 25 + 1, 5),  # one weight past the bound
    (1, (1 << 13) + 1),
    (10**400, 3),
])
def test_run_refuses_a_pool_past_its_weight_bound_before_drawing(
    monkeypatch, example1_design, pool_size, n_agents
):
    # these pools would take gigabytes and more: nothing is drawn or allocated
    monkeypatch.setattr(sim, "random_balanced_graph", lambda *a, **k: pytest.fail("drew"))
    cfg = small_config(design=example1_design, n_agents=n_agents,
                       topology=TopologyRecipe(0.3, 6.0, pool_size=pool_size))
    with pytest.raises(ValueError, match=(
        rf"^pool_size = {pool_size} graphs of {n_agents} agents hold \d+ weights, "
        rf"more than the {1 << 26} a pool may hold$"
    )):
        run(cfg)


# small_config has 5 agents of 2 states: a run holds 5 (steps + 1) entries
# of t, delta, nu, h and topology and 10 of state, 10 (steps + 1) more with
# recorded states
@pytest.mark.parametrize("overrides, entries", [
    (dict(runs=1, steps=13421770), (1 << 26) + 1),  # one entry past the bound
    (dict(runs=5, steps=10**6, record_states=True), 5 * (15 * (10**6 + 1) + 10)),
    (dict(runs=10**9), 10**9 * (5 * 61 + 10)),
    (dict(steps=10**400), 3 * (5 * (10**400 + 1) + 10)),
    (dict(n_agents=10**9), 3 * 61 * 5 + 3 * 2 * 10**9),
], ids=["one-past", "recorded-states", "huge-runs", "huge-steps", "huge-n-agents"])
def test_config_refuses_a_batch_past_its_entry_bound(example1_design, overrides, entries):
    # refused as it is built: run would allocate gigabytes and more
    with pytest.raises(ValueError) as caught:
        small_config(design=example1_design, **overrides)
    runs, steps = overrides.get("runs", 3), overrides.get("steps", 60)
    states = ", states recorded," if overrides.get("record_states") else ""
    assert str(caught.value) == (
        f"a batch of runs = {runs} x steps = {steps} of {overrides.get('n_agents', 5)} "
        f"agents{states} holds {entries} array entries, more than the {1 << 26} a batch may hold"
    )


def test_config_admits_a_batch_at_its_entry_bound(example1_design):
    # 5 (steps + 1) + 10 = 2^26 - 4 entries: built, never run
    small_config(design=example1_design, runs=1, steps=13421769)
    # the same runs fit without recorded states
    small_config(design=example1_design, runs=5, steps=10**6)


def test_run_explicit_pool_and_states(example1_design):
    pool = [pair_graph(0.5), pair_graph(1.5)]
    cfg = SimulationConfig(
        n_agents=2,
        plant=PlantModel.double_integrator(),
        hbar=3.0,
        steps=30,
        runs=2,
        seed=11,
        topology=pool,
        design=example1_design,
        record_states=True,
    )
    result = run(cfg)
    assert result.band == (1.0, 3.0)
    for rec in result.records:
        assert rec.states.shape == (31, 2, 2)
        assert rec.delta[0] == disagreement(rec.states[0])


def test_config_derives_the_band_once(monkeypatch, example1_design):
    calls = []
    pool_band = sim.pool_band
    monkeypatch.setattr(sim, "pool_band", lambda pool: calls.append(1) or pool_band(pool))
    pool = [pair_graph(0.5), pair_graph(1.5)]
    cfg = SimulationConfig(
        n_agents=2, plant=PlantModel.double_integrator(), hbar=3.0, steps=5, runs=1,
        seed=3, topology=pool, design=example1_design,
    )
    assert cfg.band == (1.0, 3.0) and len(calls) == 1
    assert run(cfg).band == (1.0, 3.0) and len(calls) == 1
    narrower = dataclasses.replace(cfg, topology=pool[1:], runs=2)
    assert narrower.band == (3.0, 3.0) and len(calls) == 2
    assert small_config(design=example1_design).band == (0.3, 6.0)
    with pytest.raises(TypeError):
        small_config(design=example1_design, band=(0.3, 6.0))


def test_run_verify_step_forms(example1_design):
    cfg = small_config(design=example1_design, verify_step_forms=True, steps=40)
    result = run(cfg)
    for rec in result.records:
        assert rec.step_form_gap < 1e-12


def test_step_form_gap_is_nan_when_the_cross_check_did_not_run(small_batch):
    # an unchecked run must not read as a perfect match (a gap of 0.0)
    assert all(np.isnan(rec.step_form_gap) for rec in small_batch.records)
    rec = small_batch.records[0]
    assert np.isnan(sim.TrajectoryRecord(0, rec.t, rec.h, rec.topology, rec.delta, rec.nu).step_form_gap)


def test_run_verify_step_forms_sees_a_wrong_step(monkeypatch, example1_design):
    # the cross-check is not vacuous: an exact step off by 1e-9 shows in the gap
    exact = sim._advance

    def advance(X, out, *args):
        exact(X, out, *args)
        out += 1e-9

    monkeypatch.setattr(sim, "_advance", advance)
    result = run(small_config(design=example1_design, verify_step_forms=True, steps=5))
    for rec in result.records:
        assert rec.step_form_gap > 1e-12


def test_run_verify_step_forms_checks_the_last_step_of_a_segment(monkeypatch, example1_design):
    # a step wrong only on every 50th call, the last step of each stack's
    # 50-step segment, still shows in the gap of every run
    exact = sim._advance
    calls = itertools.count(1)

    def advance(X, out, *args):
        exact(X, out, *args)
        if next(calls) % 50 == 0:
            out += 1e-9

    monkeypatch.setattr(sim, "_advance", advance)
    cfg = small_config(design=example1_design, verify_step_forms=True, steps=50, switch_period=50)
    for rec in run(cfg).records:
        assert rec.step_form_gap > 1e-12


@pytest.mark.parametrize("wrong", range(8))
def test_run_verify_step_forms_puts_a_wrong_step_on_its_run(monkeypatch, example1_design, wrong):
    # several groups share each segment and their runs are sorted out of run
    # order: a step off by 1e-9 in one run shows in that run's gap only
    cfg = small_config(design=example1_design, runs=8, switch_period=7, verify_step_forms=True)
    h = run(cfg).records[wrong].h
    exact = sim._advance

    def advance(X, out, Xt, outt, coupling, Ft, GKt):
        exact(X, out, Xt, outt, coupling, Ft, GKt)
        # the double integrator's F(h)^T holds h at [1, 0]: it finds the run
        mine = np.isin(Ft[:, 1, 0], h)
        assert np.count_nonzero(mine) == 1
        out[:, mine] += 1e-9

    monkeypatch.setattr(sim, "_advance", advance)
    records = run(cfg).records
    topology = np.array([rec.topology for rec in records])
    assert all(len(set(topology[:, k])) > 1 for k in range(0, cfg.steps, cfg.switch_period))
    for rec in records:
        assert (rec.step_form_gap > 1e-12) == (rec.run_id == wrong)


def test_run_long_segment_in_blocks_gives_the_same_records(monkeypatch, example1_design):
    # a segment longer than one block advances in several; records stay the same
    cfg = small_config(
        design=example1_design, steps=45, switch_period=20,
        record_states=True, verify_step_forms=True,
    )
    whole = run(cfg)
    monkeypatch.setattr(sim, "_BLOCK_ENTRIES", 7 * 3 * 5 * 2)  # 7 steps of 3 runs
    split = run(cfg)
    for a, b in zip(whole.records, split.records):
        for field in ("t", "h", "topology", "delta", "nu", "states"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.step_form_gap == b.step_form_gap


@pytest.mark.parametrize("block_entries", [None, 7 * 3 * 5 * 2])
def test_run_makes_one_kernel_call_per_step(monkeypatch, example1_design, block_entries):
    # every run of a segment advances in the same call, however many topology
    # groups the segment holds, with whole segments and with short blocks
    if block_entries is not None:
        monkeypatch.setattr(sim, "_BLOCK_ENTRIES", block_entries)
    exact = sim._advance
    calls = itertools.count()

    def advance(*args):
        next(calls)
        exact(*args)

    monkeypatch.setattr(sim, "_advance", advance)
    cfg = small_config(design=example1_design, runs=8, steps=45, switch_period=20)
    result = run(cfg)
    topology = np.array([rec.topology for rec in result.records])
    assert all(len(set(topology[:, k])) > 1 for k in range(0, cfg.steps, cfg.switch_period))
    assert next(calls) == cfg.steps


@pytest.mark.parametrize("n", [5, 100, pytest.param(12, id="12-scalar")])
def test_run_metrics_equal_the_public_helpers(n, example1_design):
    # delta and nu of a run are the helpers' values on its states, bit for bit,
    # with a switch period that does not divide the steps; with 12 scalar
    # agents, the agent sums of one state must add as in a block of many
    scalar = dict(
        plant=PlantModel.general([[0.0]], [[1.0]]), gain=np.array([[0.5]]), hbar=0.5,
        topology=TopologyRecipe(0.5, 2.0, pool_size=2), init_bounds=((-10.0, 10.0),),
    )
    plant_and_gain = scalar if n == 12 else dict(design=example1_design)
    cfg = small_config(n_agents=n, steps=23, switch_period=7, record_states=True,
                       **plant_and_gain)
    basis = reduction_basis(n)
    for rec in run(cfg).records:
        assert rec.states.shape == (24, n, cfg.plant.n)
        for k, x in enumerate(rec.states):
            assert rec.delta[k] == disagreement(x)
            assert rec.nu[k] == reduced_norm(x, basis, cfg.gain_pair.T)


@pytest.mark.parametrize("n", [5, 100])
def test_run_metrics_match_a_dense_oracle(n, example1_design):
    # nu is ||(mbar^T kron T^-1) x|| with the Helmert basis, assembled densely,
    # and delta the largest difference over all agent pairs and components;
    # 8 runs over a 4-graph pool with a switch period that does not divide the
    # steps put several topology groups in every segment; the velocities start
    # more spread than the positions, so either component can lead delta
    cfg = small_config(
        design=example1_design, n_agents=n, runs=8, steps=23, switch_period=7,
        topology=TopologyRecipe(0.3, 6.0, pool_size=4), record_states=True,
        init_bounds=((-1.0, 1.0), (-10.0, 10.0)),
    )
    result = run(cfg)
    topology = np.array([rec.topology for rec in result.records])
    assert all(len(set(topology[:, k])) > 1 for k in range(0, cfg.steps, cfg.switch_period))
    reduce = np.kron(reduction_basis(n).T, np.linalg.inv(example1_design.T))
    for rec in result.records:
        for k, x in enumerate(rec.states):
            want_nu = np.linalg.norm(reduce @ x.reshape(-1))
            assert abs(rec.nu[k] - want_nu) <= 1e-13 * want_nu
            # rounding is monotone, so the largest rounded pair difference is
            # the rounded difference of the extreme values: equal, not close
            assert rec.delta[k] == np.abs(x[:, None, :] - x[None, :, :]).max()


def test_run_raw_gain_single_integrator_certifies_with_identity():
    # scalar agents x' = u: the closed loop 1 - lam h k contracts without any
    # coordinate change, so a raw gain passes certification under T = I
    plant = PlantModel.general([[0.0]], [[1.0]])
    cfg = SimulationConfig(
        n_agents=4,
        plant=plant,
        hbar=0.5,
        steps=200,
        runs=3,
        seed=21,
        topology=TopologyRecipe(0.5, 2.0, pool_size=2),
        gain=np.array([[0.5]]),
        init_bounds=((-10.0, 10.0),),
    )
    result = run(cfg)  # no force needed
    assert result.certificate.verdict == "certified"
    for rec in result.records:
        assert rec.delta[-1] < 1e-3 * rec.delta[0]
        nu = rec.nu
        active = nu[:-1] >= 1e-12
        assert np.all(nu[1:][active] < nu[:-1][active])


def test_run_general_tagged_double_integrator_matches_closed_form(example1_design):
    # the same dynamics through the stacked Pade exponential instead of the
    # closed-form F and G: every nu agrees to rounding
    di = PlantModel.double_integrator()
    gain = dict(gain=example1_design.K, transform=example1_design.T)
    closed = run(small_config(steps=200, **gain))
    general = run(small_config(plant=PlantModel.general(di.A, di.B), steps=200, **gain))
    assert closed.certificate.verdict == general.certificate.verdict == "certified"
    for rc, rg in zip(closed.records, general.records):
        assert np.array_equal(rc.h, rg.h)
        np.testing.assert_allclose(rg.nu, rc.nu, rtol=1e-12, atol=0.0)


def _reference_run(config, pool, K, T):
    """Step-by-step batch: scalar draws per step, the pairwise-difference step
    and the Helmert-basis reduced norm, one run after another."""
    _, *run_seeds = np.random.SeedSequence(config.seed).spawn(config.runs + 1)
    mbar = reduction_basis(config.n_agents)
    Tinv = np.linalg.inv(T)
    lows = np.array([lo for lo, _ in config.init_bounds])
    highs = np.array([hi for _, hi in config.init_bounds])
    refs = []
    for seed in run_seeds:
        rng = np.random.default_rng(seed)
        X = rng.uniform(lows, highs, size=(config.n_agents, config.plant.n))
        t, h_log, topo_log, states = [0.0], [], [], [X]
        topo_idx = 0
        for k in range(config.steps):
            if config.switch_period is not None and k % config.switch_period == 0:
                topo_idx = int(rng.integers(len(pool)))
            h = float(rng.uniform(config.h_min, config.hbar))
            F, G = config.plant.discretize(h)
            diffs = X[None, :, :] - X[:, None, :]
            coupling = np.einsum("ij,ijk->ik", pool[topo_idx].weights, diffs)
            X = X @ F.T + coupling @ (G @ K).T
            t.append(t[-1] + h)
            h_log.append(h)
            topo_log.append(topo_idx)
            states.append(X)
        states = np.array(states)
        delta = (states.max(axis=1) - states.min(axis=1)).max(axis=1)
        nu = np.array([np.linalg.norm(mbar.T @ x @ Tinv.T) for x in states])
        refs.append((np.array(t), np.array(h_log), np.array(topo_log), delta, nu, states))
    return refs


def _oracle_config(case, example1_design):
    if case == "three-state-verified":
        # 24-byte states, several groups per segment, runs out of run order
        A = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.5], [0.0, 0.0, -1.0]])
        return small_config(
            plant=PlantModel.general(A, [[0.0], [0.0], [1.0]]), gain=np.array([[0.1, 0.1, 0.3]]),
            hbar=0.5, init_bounds=((-1.0, 1.0),) * 3, runs=8, switch_period=7,
            record_states=True, verify_step_forms=True,
        )
    if case == "single-integrator-verified":
        return SimulationConfig(
            n_agents=4,
            plant=PlantModel.general([[0.0]], [[1.0]]),
            hbar=0.5,
            steps=60,
            runs=3,
            seed=21,
            topology=TopologyRecipe(0.5, 2.0, pool_size=2),
            gain=np.array([[0.5]]),
            init_bounds=((-10.0, 10.0),),
            verify_step_forms=True,
        )
    overrides = {
        "no-switching": dict(switch_period=None),
        "period-25-of-60": dict(switch_period=25),
        "one-graph-pool": dict(topology=[complete_graph(5)]),
        "one-run": dict(runs=1),
        "recorded-states": dict(record_states=True, runs=4),
        # several groups share each segment, and their runs are not in run order
        # (the default pool of 3 graphs)
        "interleaved-groups": dict(
            runs=8, switch_period=7, record_states=True, verify_step_forms=True,
        ),
    }[case]
    return small_config(design=example1_design, **overrides)


@pytest.mark.parametrize(
    "case",
    [
        "no-switching",
        "period-25-of-60",
        "one-graph-pool",
        "one-run",
        "recorded-states",
        "interleaved-groups",
        "single-integrator-verified",
        "three-state-verified",
    ],
)
def test_run_matches_step_by_step_reference(case, example1_design):
    cfg = _oracle_config(case, example1_design)
    result = run(cfg)
    if cfg.design is not None:
        K, T = cfg.design.K, cfg.design.T
    else:
        K, T = cfg.gain_pair.K, cfg.gain_pair.T
    refs = _reference_run(cfg, result.pool, K, T)
    assert len(result.records) == len(refs) == cfg.runs
    for rec, (t, h, topo, delta, nu, states) in zip(result.records, refs):
        assert np.array_equal(rec.t, t)
        assert np.array_equal(rec.h, h)
        assert np.array_equal(rec.topology, topo)
        assert np.abs(rec.delta - delta).max() <= 1e-12 * delta[0]
        assert np.abs(rec.nu - nu).max() <= 1e-12 * nu[0]
        if cfg.record_states:
            assert np.abs(rec.states - states).max() <= 1e-12 * np.abs(states[0]).max()
        else:
            assert rec.states is None
        if cfg.verify_step_forms:
            assert rec.step_form_gap < 1e-12
        else:
            assert np.isnan(rec.step_form_gap)


@pytest.mark.parametrize("plant_and_gain", ["example1-design", "three-state-raw-gain"])
def test_step_is_one_step_of_run(plant_and_gain, example1_design):
    # step is the one-run case of run's block kernel, bit for bit
    if plant_and_gain == "example1-design":
        plant, K = PlantModel.double_integrator(), example1_design.K
        setup = dict(design=example1_design)
    else:
        A = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.5], [0.0, 0.0, -1.0]])
        plant, K = PlantModel.general(A, [[0.0], [0.0], [1.0]]), np.array([[0.1, 0.1, 0.3]])
        setup = dict(gain=K, hbar=0.5, init_bounds=((-1.0, 1.0),) * 3)
    cfg = small_config(plant=plant, steps=1, runs=1, record_states=True, switch_period=None,
                       topology=[complete_graph(5)], **setup)
    result = run(cfg)
    (rec,) = result.records
    assert result.certificate.verdict == "certified"
    assert np.array_equal(step(rec.states[0], result.pool[0], K, rec.h[0], plant), rec.states[1])


def test_run_example2_regime_smoke(example2_design):
    cfg = SimulationConfig(
        n_agents=100,
        plant=PlantModel.double_integrator(),
        hbar=1.0,
        steps=600,
        runs=2,
        seed=99,
        topology=TopologyRecipe(5.0, 60.0, pool_size=4),
        design=example2_design,
    )
    result = run(cfg)
    for rec in result.records:
        assert rec.delta[-1] / rec.delta[0] < 1e-3
        nu = rec.nu
        active = nu[:-1] >= 1e-12
        assert np.all(nu[1:][active] < nu[:-1][active])


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_design_and_gain(example1_design):
    with pytest.raises(ValueError):
        small_config(design=example1_design, gain=np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        small_config()  # neither


def test_config_rejects_a_transform_next_to_a_design(example1_design):
    with pytest.raises(ValueError, match="transform goes with a raw gain"):
        small_config(design=example1_design, transform=example1_design.T)


def test_config_derives_its_gain_pair_and_is_frozen(example1_design):
    cfg = small_config(gain=example1_design.K)
    assert cfg.transform is None
    np.testing.assert_array_equal(cfg.gain_pair.T, np.eye(2))
    np.testing.assert_array_equal(cfg.gain_pair.Tinv, np.eye(2))
    # an assignment would leave the gain pair and band stale; replace derives
    # them again, T^-1 included, bit for bit that of the new T
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gain = np.zeros((1, 2))
    T = np.array([[3.0, -7.1], [0.0, 2.0]])
    again = dataclasses.replace(cfg, transform=T)
    np.testing.assert_array_equal(again.gain_pair.T, T)
    assert again.gain_pair.Tinv.tobytes() == np.linalg.inv(T).tobytes()
    # the record copies the caller's arrays and none of them can be written
    T[0, 0] = 1.0
    assert again.gain_pair.T[0, 0] == 3.0
    assert not any(M.flags.writeable for M in again.gain_pair)
    # a design's record is the design's own arrays: T^-1 is not formed again
    dsn = small_config(design=example1_design).gain_pair
    assert dsn.K is example1_design.K and dsn.T is example1_design.T
    assert dsn.Tinv is example1_design.Tinv
    assert dsn.Tinv.tobytes() == np.linalg.inv(example1_design.T).tobytes()


def test_config_rejects_unbalanced_pool(example1_design):
    bad = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        SimulationConfig(
            n_agents=2,
            plant=PlantModel.double_integrator(),
            hbar=1.0,
            steps=10,
            runs=1,
            seed=0,
            topology=[bad],
            design=example1_design,
        )


def test_config_rejects_disconnected_pool(example1_design):
    disconnected = WeightedDigraph(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        SimulationConfig(
            n_agents=3,
            plant=PlantModel.double_integrator(),
            hbar=1.0,
            steps=10,
            runs=1,
            seed=0,
            topology=[disconnected],
            design=example1_design,
        )


def test_config_rejects_bad_pool_entries(example1_design):
    with pytest.raises(TypeError, match="^topology pool entries must be WeightedDigraph$"):
        small_config(design=example1_design, topology=[np.zeros((5, 5))])
    with pytest.raises(ValueError, match="^pool graph size does not match n_agents$"):
        small_config(design=example1_design, topology=[complete_graph(4)])


def test_config_rejects_bad_h_min(example1_design):
    with pytest.raises(ValueError):
        small_config(design=example1_design, h_min=3.5)
    for hbar in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
            small_config(design=example1_design, hbar=hbar)


def test_config_rejects_bad_init_bounds(example1_design):
    with pytest.raises(ValueError):
        small_config(design=example1_design, init_bounds=((0.0, 1.0),))
    for bad in ((float("nan"), 1.0), (0.0, float("inf")), (1.0, -1.0)):
        with pytest.raises(ValueError, match="^init bounds must be finite with lo <= hi$"):
            small_config(design=example1_design, init_bounds=((0.0, 1.0), bad))
    # finite ends whose width overflows: a uniform draw would raise
    message = (r"^init bounds must be finite with lo <= hi and a finite width, "
               r"got \[-1e\+308, 1e\+308\]$")
    with pytest.raises(ValueError, match=message):
        small_config(design=example1_design, init_bounds=((-1e308, 1e308), (-1.0, 1.0)))


def test_config_rejects_gain_shape():
    with pytest.raises(ValueError):
        small_config(gain=np.array([[0.1, 0.2, 0.3]]))


def test_config_rejects_design_plant_mismatch(example1_design):
    plant = PlantModel.general(np.diag([-1.0, -2.0, -3.0]), np.eye(3))
    with pytest.raises(ValueError):
        small_config(design=example1_design, plant=plant)
