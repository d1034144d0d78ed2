import dataclasses
import itertools

import numpy as np
import pytest

from sdconsensus import sim
from sdconsensus.certify import PlantModel
from sdconsensus.graph import WeightedDigraph, laplacian, reduction_basis
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
from test_graph import complete_graph


def pair_graph(w=1.0):
    return WeightedDigraph.from_edges(2, [(0, 1, w)], symmetric=True)


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
    # a (steps, runs, n, s) block with its own F and G K per (step, run) gives,
    # item by item, the assembled (I kron F - L kron G K) x; distinct sizes and
    # a directed graph (L not symmetric) make a mixed-up axis show
    rng = np.random.default_rng(5)
    steps, runs, n = 3, 4, 6
    w = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(w, 0.0)
    L = laplacian(WeightedDigraph(w))
    for s in (1, 2, 3):
        X = rng.uniform(-5.0, 5.0, (steps, runs, n, s))
        F = rng.uniform(-1.0, 1.0, (steps, runs, s, s))
        GK = rng.uniform(-1.0, 1.0, (steps, runs, s, s))
        got = sim._advance_kronecker(X, L, F, GK)
        assert got.shape == X.shape
        for k, r in itertools.product(range(steps), range(runs)):
            phi = np.kron(np.eye(n), F[k, r]) - np.kron(L, GK[k, r])
            want = (phi @ X[k, r].reshape(-1)).reshape(n, s)
            np.testing.assert_allclose(got[k, r], want, rtol=0.0, atol=1e-12)


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
    cfg = small_config(
        design=example1_design,
        init_bounds=((5.0, 5.0), (-0.25, -0.25)),  # degenerate: all agents equal
        steps=40,
        runs=2,
    )
    result = run(cfg)
    for rec in result.records:
        assert np.all(rec.delta == 0.0)


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


def test_run_verify_step_forms_sees_a_wrong_step(monkeypatch, example1_design):
    # the cross-check is not vacuous: an exact step off by 1e-9 shows in the gap
    exact = sim._advance
    monkeypatch.setattr(sim, "_advance", lambda *args: exact(*args) + 1e-9)
    result = run(small_config(design=example1_design, verify_step_forms=True, steps=5))
    for rec in result.records:
        assert rec.step_form_gap > 1e-12


def test_run_verify_step_forms_checks_the_last_step_of_a_segment(monkeypatch, example1_design):
    # a step wrong only on every 50th call, the last step of each stack's
    # 50-step segment, still shows in the gap of every run
    exact = sim._advance
    calls = itertools.count(1)

    def advance(*args):
        out = exact(*args)
        return out + 1e-9 if next(calls) % 50 == 0 else out

    monkeypatch.setattr(sim, "_advance", advance)
    cfg = small_config(design=example1_design, verify_step_forms=True, steps=50, switch_period=50)
    for rec in run(cfg).records:
        assert rec.step_form_gap > 1e-12


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


@pytest.mark.parametrize("n", [5, 100])
def test_run_metrics_equal_the_public_helpers(n, example1_design):
    # delta and nu of a run are the helpers' values on its states, bit for bit,
    # with a switch period that does not divide the steps
    cfg = small_config(design=example1_design, n_agents=n, steps=23, switch_period=7,
                       record_states=True)
    basis = reduction_basis(n)
    for rec in run(cfg).records:
        assert rec.states.shape == (24, n, 2)
        for k, x in enumerate(rec.states):
            assert rec.delta[k] == disagreement(x)
            assert rec.nu[k] == reduced_norm(x, basis, example1_design.T)


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
        "single-integrator-verified",
    ],
)
def test_run_matches_step_by_step_reference(case, example1_design):
    cfg = _oracle_config(case, example1_design)
    result = run(cfg)
    if cfg.design is not None:
        K, T = cfg.design.K, cfg.design.T
    else:
        K, T = cfg.K, cfg.T
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
    np.testing.assert_array_equal(cfg.T, np.eye(2))
    # an assignment would leave K, T and band stale; replace derives them again
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gain = np.zeros((1, 2))
    again = dataclasses.replace(cfg, transform=example1_design.T)
    np.testing.assert_array_equal(again.T, example1_design.T)


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


def test_config_rejects_gain_shape():
    with pytest.raises(ValueError):
        small_config(gain=np.array([[0.1, 0.2, 0.3]]))


def test_config_rejects_design_plant_mismatch(example1_design):
    plant = PlantModel.general(np.diag([-1.0, -2.0, -3.0]), np.eye(3))
    with pytest.raises(ValueError):
        small_config(design=example1_design, plant=plant)
