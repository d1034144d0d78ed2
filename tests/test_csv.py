"""The simulate command's CSV writers, byte for byte against the reference."""

import tracemalloc

import numpy as np
import pytest
import yaml

import csv_reference
from sdconsensus import cli
from sdconsensus.sim import TrajectoryRecord

SPECIAL = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e16, 1e-05, 0.1, 1e-300, 1.0000000000000001e-300, -3.5e-301, 1e300, 9.99e299,
    -1.7976931348623157e308, 1.7976931348623157e308, 123456789.0, 1.5, 1e15, 1e-4,
]


def _floats(rng, size):
    """Special values mixed with random magnitudes from 1e-320 to 1e300."""
    out = rng.choice(np.array(SPECIAL), size)
    wide = rng.random(size) < 0.5
    out[wide] = rng.standard_normal(wide.sum()) * 10.0 ** rng.integers(-320, 301, wide.sum())
    return out


def _records(seed, run_ids, steps, n_agents=None, n_states=2):
    rng = np.random.default_rng(seed)
    records = []
    for run, m in zip(run_ids, steps):
        states = None if n_agents is None else _floats(rng, (m + 1, n_agents, n_states))
        records.append(TrajectoryRecord(
            run, _floats(rng, m + 1), _floats(rng, m), rng.integers(0, 13, m),
            _floats(rng, m + 1), _floats(rng, m + 1), states,
        ))
    return records


def _assert_same_bytes(tmp_path, name, arg):
    new, ref = tmp_path / f"new_{name}.csv", tmp_path / f"ref_{name}.csv"
    getattr(cli, f"write_{name}_csv")(new, arg)
    getattr(csv_reference, f"write_{name}_csv")(ref, arg)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "run_ids, steps",
    [
        ([0], [1]),
        ([0, 1, 2], [1, 1, 1]),
        ([7, 12, 305, 10000], [40, 3, 1, 17]),
        (list(range(12)), [25] * 12),
    ],
)
def test_trajectories_csv_matches_the_reference(tmp_path, run_ids, steps):
    records = _records(sum(steps), run_ids, steps)
    _assert_same_bytes(tmp_path, "trajectories", records)


@pytest.mark.parametrize("n_states", [1, 2, 3])
@pytest.mark.parametrize("run_ids, steps", [([0], [1]), ([3, 11, 250], [6, 1, 12])])
def test_states_csv_matches_the_reference(tmp_path, n_states, run_ids, steps):
    records = _records(n_states, run_ids, steps, n_agents=4, n_states=n_states)
    _assert_same_bytes(tmp_path, "states", records)


@pytest.mark.parametrize("size", [0, 1, 2, 11, 1001])
def test_aggregate_csv_matches_the_reference(tmp_path, size):
    values = _floats(np.random.default_rng(size), size)
    _assert_same_bytes(tmp_path, "aggregate", values)
    _assert_same_bytes(tmp_path, "aggregate", values.tolist())


def test_simulate_full_state_matches_the_reference(tmp_path, monkeypatch):
    # capture the batch the command writes, then write it again by reference
    batches = []
    cli_run = cli.run

    def run(config, force=False):
        batches.append(cli_run(config, force=force))
        return batches[-1]

    monkeypatch.setattr(cli, "run", run)
    config = {
        "plant": {"kind": "double_integrator"},
        "design": {"lambda2": 0.3, "lambdaN": 6.0},
        "topology": {"random": {"agents": 5, "lambda_band": [0.3, 6.0], "pool_size": 3}},
        "sampling": {"hbar": 3.0},
        "schedule": {"steps": 30, "switch_period": 7},
        "batch": {"runs": 12, "seed": 5},
        "output": {"dir": "unused", "full_state": True},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    (result,) = batches
    for name, arg in (("trajectories", result.records), ("aggregate", result.aggregate_delta),
                      ("states", result.records)):
        ref = tmp_path / f"ref_{name}.csv"
        getattr(csv_reference, f"write_{name}_csv")(ref, arg)
        assert (out / f"{name}.csv").read_bytes() == ref.read_bytes(), name


def test_writers_hold_one_run_at_a_time(tmp_path):
    # a 100-run x 1000-step batch is about 8.8 MB of CSV; writing it run by
    # run keeps the writers' own allocations far below that
    rng = np.random.default_rng(0)
    records = [
        TrajectoryRecord(
            r, np.cumsum(rng.random(1001)), rng.random(1000) * 3.0, rng.integers(0, 4, 1000),
            rng.random(1001), rng.random(1001),
        )
        for r in range(100)
    ]
    aggregate = rng.random(1001)
    tracemalloc.start()
    try:
        cli.write_trajectories_csv(tmp_path / "trajectories.csv", records)
        cli.write_aggregate_csv(tmp_path / "aggregate.csv", aggregate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trajectories.csv").stat().st_size > 8_000_000
    assert peak < 2_000_000, f"writers peaked at {peak / 1e6:.2f} MB"
