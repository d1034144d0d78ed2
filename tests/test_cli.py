import json
import math
import re
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdconsensus import cli
from sdconsensus.certify import PlantModel
from sdconsensus.sim import SimulationConfig, TopologyRecipe
from sdconsensus.synthesis import DesignSpec, design

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


def sim_config_dict(**overrides):
    base = {
        "plant": {"kind": "double_integrator"},
        "design": {"lambda2": 0.3, "lambdaN": 6.0},
        "topology": {
            "random": {"agents": 5, "lambda_band": [0.3, 6.0], "pool_size": 3}
        },
        "sampling": {"hbar": 3.0},
        "schedule": {"steps": 60, "switch_period": 50},
        "batch": {"runs": 3, "seed": 1234},
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# design command


def test_design_example1_output(capsys):
    rc = cli.main(["design", "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "[0.0009, 0.1093]" in out
    assert "mu1 = 1.5" in out
    assert "mu2 = 119.5" in out


def test_design_example2_output(capsys):
    rc = cli.main(["design", "--hbar", "1", "--lambda2", "5", "--lambdaN", "60"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "[0.0013, 0.032]" in out


def test_design_missing_flag_exits_usage():
    with pytest.raises(SystemExit) as info:
        cli.main(["design", "--hbar", "3", "--lambda2", "0.3"])
    assert info.value.code == cli.EXIT_USAGE


def test_design_invalid_band(capsys):
    rc = cli.main(["design", "--hbar", "3", "--lambda2", "6", "--lambdaN", "0.3"])
    assert rc == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify command


def test_certify_inline_example1(tmp_path, capsys):
    report = tmp_path / "cert.json"
    rc = cli.main(
        [
            "certify",
            "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6",
            "--report", str(report),
        ]
    )
    assert rc == cli.EXIT_OK
    assert "verdict: certified" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["verdict"] == "certified"
    assert payload["margin"] > 0.0


def test_certify_inline_needs_all_args(capsys):
    rc = cli.main(["certify", "--hbar", "3"])
    assert rc == cli.EXIT_USAGE


def test_certify_config_rejects_inline_flags(tmp_path, capsys):
    # inline flags next to --config are an error, not silently ignored
    report = tmp_path / "cert.json"
    for flags in (["--hbar", "100", "--lambda2", "1", "--lambdaN", "1000"], ["--lambda2", "1"]):
        rc = cli.main(["certify", "--config", str(CONFIG_DIR / "example1.yaml"),
                       *flags, "--report", str(report)])
        assert rc == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: give --config or --hbar --lambda2 --lambdaN, not both\n"
        assert captured.out == ""
        assert not report.exists()


def test_certify_zero_gain_config(tmp_path, capsys):
    cfg = sim_config_dict()
    del cfg["design"]
    cfg["gain"] = {"K": [[0.0, 0.0]]}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    report = tmp_path / "cert.json"
    rc = cli.main(["certify", "--config", path, "--report", str(report)])
    assert rc in (cli.EXIT_REFUTED, cli.EXIT_INCONCLUSIVE)
    payload = json.loads(report.read_text())
    assert payload["verdict"] in ("refuted", "inconclusive")
    assert payload["worst_h"] > 0.0


def test_certify_band_mode_rejects_unbalanced_pool(tmp_path, capsys):
    graph_file = tmp_path / "directed.graph"
    graph_file.write_text("2\n1 2 1.0\n", encoding="utf-8")
    cfg = sim_config_dict()
    del cfg["design"]
    cfg["gain"] = {"K": [[0.1, 0.1]]}
    cfg["topology"] = {"graphs": ["directed.graph"]}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli.main(["certify", "--config", path])
    assert rc == cli.EXIT_USAGE
    assert "balanced" in capsys.readouterr().err


def test_certify_fixed_mode_balanced_graph(tmp_path, capsys):
    graph_file = tmp_path / "pair.graph"
    graph_file.write_text("2 symmetric\n1 2 1.0\n", encoding="utf-8")
    cfg = sim_config_dict()
    cfg["topology"] = {"graphs": ["pair.graph"]}
    cfg["certify"] = {"mode": "fixed"}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli.main(["certify", "--config", path])
    assert rc == cli.EXIT_OK  # lambda = 2 sits inside the designed band


def test_certify_huge_gain_is_refuted_with_a_finite_sigma(tmp_path, capsys):
    # 1e160 entries overflow the 2x2 closed form; LAPACK's sigma refutes
    cfg = sim_config_dict()
    del cfg["design"]
    cfg["gain"] = {"K": [[1e160, 1e160]]}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    report = tmp_path / "cert.json"
    rc = cli.main(["certify", "--config", path, "--report", str(report)])
    assert rc == cli.EXIT_REFUTED
    payload = json.loads(report.read_text())
    assert payload["verdict"] == "refuted"
    assert math.isfinite(payload["worst_sigma"]) and payload["worst_sigma"] > 1e160
    assert "nan" not in capsys.readouterr().out


def test_certify_report_of_a_sigma_beyond_floats_is_strict_json(tmp_path, capsys):
    # the worst sigma, about 2.2e309, is not a float: the report says null
    cfg = sim_config_dict(gain={"K": [[1.0e306, 1.0e306]], "T": RAW_GAIN["T"]})
    del cfg["design"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    report = tmp_path / "cert.json"
    capsys.readouterr()
    assert cli.main(["certify", "--config", path, "--report", str(report)]) == cli.EXIT_REFUTED
    out = capsys.readouterr().out
    assert out.startswith("verdict: refuted") and "worst sigma inf" in out

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    payload = json.loads(report.read_text(), parse_constant=reject)
    assert payload["verdict"] == "refuted"
    assert payload["worst_sigma"] is None and payload["margin"] is None


def test_certify_config_without_topology(tmp_path, capsys):
    # a design brings its own band; a raw gain has none to certify
    cfg = sim_config_dict()
    del cfg["topology"]
    path = write_yaml(tmp_path / "design.yaml", cfg)
    by_config, inline = tmp_path / "config.json", tmp_path / "inline.json"
    assert cli.main(["certify", "--config", path, "--report", str(by_config)]) == cli.EXIT_OK
    rc = cli.main(["certify", "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6",
                   "--report", str(inline)])
    assert rc == cli.EXIT_OK
    payload = json.loads(by_config.read_text())
    del payload["config_digest"]
    assert payload == json.loads(inline.read_text())
    del cfg["design"]
    cfg["gain"] = RAW_GAIN
    path = write_yaml(tmp_path / "raw.yaml", cfg)
    capsys.readouterr()
    assert cli.main(["certify", "--config", path]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: no eigenvalue band available: give design or topology\n"
    )


def test_certify_fixed_mode_needs_one_graph(tmp_path, capsys):
    (tmp_path / "a.graph").write_text("2 symmetric\n1 2 1.0\n", encoding="utf-8")
    cfg = sim_config_dict(topology={"graphs": ["a.graph", "a.graph"]}, certify={"mode": "fixed"})
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    capsys.readouterr()
    assert cli.main(["certify", "--config", path]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: fixed mode needs topology.graphs with exactly one graph\n"
    )


def test_certify_fixed_mode_needs_spanning_tree(tmp_path, capsys):
    graph_file = tmp_path / "empty.graph"
    graph_file.write_text("3\n", encoding="utf-8")
    cfg = sim_config_dict()
    cfg["topology"] = {"graphs": ["empty.graph"]}
    cfg["certify"] = {"mode": "fixed"}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli.main(["certify", "--config", path])
    assert rc == cli.EXIT_USAGE
    assert "spanning tree" in capsys.readouterr().err


def test_certify_fixed_mode_needs_two_nodes(tmp_path, capsys):
    (tmp_path / "one.graph").write_text("1\n", encoding="utf-8")
    cfg = sim_config_dict()
    cfg["topology"] = {"graphs": ["one.graph"]}
    cfg["certify"] = {"mode": "fixed"}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    capsys.readouterr()
    assert cli.main(["certify", "--config", path]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: fixed-mode graph needs at least two nodes\n"


def test_certify_config_report_matches_inline(tmp_path):
    # the exact certificate reports the same worst sample whoever asks
    by_config, inline = tmp_path / "config.json", tmp_path / "inline.json"
    rc = cli.main(["certify", "--config", str(CONFIG_DIR / "example1.yaml"),
                   "--report", str(by_config)])
    assert rc == cli.EXIT_OK
    rc = cli.main(["certify", "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6",
                   "--report", str(inline)])
    assert rc == cli.EXIT_OK
    payload = json.loads(by_config.read_text())
    del payload["config_digest"]
    assert payload == json.loads(inline.read_text())


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # example1 design
        {"gain": {"K": [[0.0009, 0.1093]], "T": [[118.0, -121.0], [0.0, 2.0]]}},
        {
            "plant": {"kind": "general", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
            "gain": {"K": [[0.0009, 0.1093]], "T": [[118.0, -121.0], [0.0, 2.0]]},
        },
        {"topology": {"graphs": ["a.graph", "b.graph"]}},
    ],
    ids=["design", "raw-gain-with-T", "general-plant-raw-gain", "graph-pool"],
)
def test_certify_report_equals_simulate_manifest_certificate(tmp_path, overrides):
    # one certificate per config: both commands make the same certify_gain call
    (tmp_path / "a.graph").write_text("3 symmetric\n1 2 1.0\n2 3 1.0\n", encoding="utf-8")
    (tmp_path / "b.graph").write_text("3 symmetric\n1 2 1.0\n2 3 1.0\n1 3 1.0\n",
                                      encoding="utf-8")
    cfg = sim_config_dict(**overrides)
    if "gain" in overrides:
        del cfg["design"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    report = tmp_path / "cert.json"
    assert cli.main(["certify", "--config", path, "--report", str(report)]) == cli.EXIT_OK
    out_dir = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out_dir)]) == cli.EXIT_OK
    payload = json.loads(report.read_text())
    del payload["config_digest"]
    assert payload == json.loads((out_dir / "manifest.json").read_text())["certificate"]


@pytest.mark.parametrize(
    "plant, gain, message",
    [
        (None, {"K": [[float("nan"), 0.1]]}, "K must have finite entries"),
        (None, {"K": [[0.0009, 0.1093]], "T": [[118.0, float("inf")], [0.0, 2.0]]},
         "T must have finite entries"),
        ({"kind": "general", "A": [[float("nan"), 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
         {"K": [[0.0009, 0.1093]]}, "A must have finite entries"),
        ({"kind": "general", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [float("inf")]]},
         {"K": [[0.0009, 0.1093]]}, "B must have finite entries"),
    ],
    ids=["nan-K", "inf-T", "nan-A", "inf-B"],
)
def test_non_finite_gain_or_plant_exits_usage(tmp_path, capsys, plant, gain, message):
    cfg = sim_config_dict(gain=gain)
    del cfg["design"]
    if plant is not None:
        cfg["plant"] = plant
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    capsys.readouterr()
    for command in (["certify"], ["simulate", "--out", str(tmp_path / "out")]):
        assert cli.main([*command, "--config", path]) == cli.EXIT_USAGE, command
        assert capsys.readouterr().err == f"error: {message}\n", command
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_writes_outputs(tmp_path, capsys):
    path = write_yaml(tmp_path / "cfg.yaml", sim_config_dict())
    out_dir = tmp_path / "out"
    rc = cli.main(["simulate", "--config", path, "--out", str(out_dir)])
    assert rc == cli.EXIT_OK
    traj = (out_dir / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "run,k,t,h,topology,delta,nu"
    assert len(traj) == 1 + 3 * 61  # header + (steps + 1) rows per run
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "k,delta_max"
    assert len(agg) == 62
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 1234
    assert manifest["certificate"]["verdict"] == "certified"
    resolved = cli.resolve_config(cli.load_config(path))
    assert manifest["config_digest"] == cli.config_digest(resolved)
    timings = manifest["timings"]
    assert sorted(timings) == ["certify", "pool", "resolve", "simulate", "write"]
    assert all(seconds >= 0.0 for seconds in timings.values())
    assert sum(timings.values()) <= manifest["elapsed_seconds"]


def test_simulate_byte_identical_reruns(tmp_path):
    path = write_yaml(tmp_path / "cfg.yaml", sim_config_dict())
    rc1 = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
    rc2 = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == cli.EXIT_OK
    for name in ("trajectories.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_assert_convergence(tmp_path):
    cfg = sim_config_dict(schedule={"steps": 500, "switch_period": 50})
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli.main(
        ["simulate", "--config", path, "--out", str(tmp_path / "ok"),
         "--assert-convergence", "0.05"]
    )
    assert rc == cli.EXIT_OK
    rc = cli.main(
        ["simulate", "--config", path, "--out", str(tmp_path / "tight"),
         "--assert-convergence", "1e-15"]
    )
    assert rc == cli.EXIT_REFUTED


def test_simulate_assert_convergence_fails_on_a_diverged_batch(tmp_path, capsys):
    # the states overflow to inf and then nan, so the ratio is nan, which is not <= R
    cfg = sim_config_dict(schedule={"steps": 20, "switch_period": 50})
    del cfg["design"]
    cfg["gain"] = {"K": [[1e200, 1e200]]}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out"),
                       "--force", "--assert-convergence", "1e-3"])
    assert rc == cli.EXIT_REFUTED
    captured = capsys.readouterr()
    assert "(ratio nan)" in captured.out
    assert "convergence assertion failed: ratio nan is not <= 1.000e-03" in captured.err


@pytest.mark.parametrize("bound", ["nan", "inf", "-inf", "-0.5"])
def test_simulate_rejects_a_bad_convergence_bound_before_running(tmp_path, capsys, monkeypatch,
                                                                   bound):
    # ratio > nan is never true, so a NaN bound could never fail
    def no_run(*args, **kwargs):
        raise AssertionError("simulated with a bad --assert-convergence")

    monkeypatch.setattr(cli, "run", no_run)
    path = write_yaml(tmp_path / "cfg.yaml", sim_config_dict())
    out_dir = tmp_path / "out"
    rc = cli.main(["simulate", "--config", path, "--out", str(out_dir),
                   f"--assert-convergence={bound}"])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: --assert-convergence needs a finite R >= 0\n"
    assert not out_dir.exists()


def test_simulate_uncertified_gain_refused(tmp_path, capsys):
    cfg = sim_config_dict()
    del cfg["design"]
    cfg["gain"] = {"K": [[0.0, 0.0]]}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    report = tmp_path / "refusal.json"
    rc = cli.main(["simulate", "--config", path, "--report", str(report)])
    assert rc == cli.EXIT_UNCERTIFIED
    assert "refused" in capsys.readouterr().err
    assert json.loads(report.read_text())["verdict"] != "certified"


def test_simulate_force_records_divergence(tmp_path):
    cfg = sim_config_dict(schedule={"steps": 40, "switch_period": 50})
    del cfg["design"]
    cfg["gain"] = {"K": [[-0.05, -0.05]]}  # repulsive feedback
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    out_dir = tmp_path / "forced"
    rc = cli.main(["simulate", "--config", path, "--out", str(out_dir), "--force"])
    assert rc == cli.EXIT_OK
    agg = np.loadtxt(out_dir / "aggregate.csv", delimiter=",", skiprows=1)
    assert agg[-1, 1] > agg[0, 1]


def test_simulate_full_state_dump(tmp_path):
    cfg = sim_config_dict(
        schedule={"steps": 5, "switch_period": 50},
        batch={"runs": 2, "seed": 9},
        output={"dir": "unused", "full_state": True},
    )
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    out_dir = tmp_path / "states"
    rc = cli.main(["simulate", "--config", path, "--out", str(out_dir)])
    assert rc == cli.EXIT_OK
    lines = (out_dir / "states.csv").read_text().splitlines()
    assert lines[0] == "run,k,agent,x0,x1"
    assert len(lines) == 1 + 2 * 6 * 5  # runs * (steps + 1) * agents


def test_simulate_needs_a_topology(tmp_path, capsys):
    cfg = sim_config_dict()
    del cfg["topology"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    capsys.readouterr()
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: topology section is required\n"
    assert not (tmp_path / "out").exists()


def test_simulate_bad_config_exits_usage(tmp_path, capsys):
    unknown = sim_config_dict()
    unknown["unknown_section"] = {}
    one_agent = sim_config_dict(
        topology={"random": {"agents": 1, "lambda_band": [0.3, 6.0]}}
    )
    # no 12-node graph has a spectral ratio as small as the band's
    no_graph_fits = sim_config_dict(
        topology={"random": {"agents": 12, "lambda_band": [1.0, 1.0001]}}
    )
    misspelled = sim_config_dict(schedule={"switch_perod": 10})
    extra_sampling = sim_config_dict(sampling={"hbar": 3, "hmin": 0.1})
    # booleans and integer fields take no strings, fractions or other types
    quoted_false = sim_config_dict(output={"full_state": "false"})
    quoted_no = sim_config_dict(output={"full_state": "no"})
    fractional_runs = sim_config_dict(batch={"runs": 2.5, "seed": 1})
    fractional_seed = sim_config_dict(batch={"runs": 2, "seed": 1.9})
    boolean_runs = sim_config_dict(batch={"runs": True, "seed": 1})
    fractional_grid = sim_config_dict(certify={"grid": [20.9, 3.9]})
    short_grid = sim_config_dict(certify={"grid": [200]})
    guard = sim_config_dict(certify={"guard": 0.5})
    # text fields take text only, choice fields one of their choices
    mapping_dir = sim_config_dict(output={"dir": {"a": 1}})
    number_dir = sim_config_dict(output={"dir": 7})
    unknown_kind = sim_config_dict(plant={"kind": "triple_integrator"})
    list_kind = sim_config_dict(plant={"kind": ["general"]})
    unknown_mode = sim_config_dict(certify={"mode": "exact"})
    graphs_text = sim_config_dict(topology={"graphs": "g.graph"})
    graphs_number = sim_config_dict(topology={"graphs": [3]})
    # the shape of the file and the sections that need each other
    not_mapping = [sim_config_dict()]
    general_without_matrices = sim_config_dict(plant={"kind": "general", "A": [[0.0]]})
    both_topologies = sim_config_dict(topology={"graphs": ["g.graph"], "random": {
        "agents": 5, "lambda_band": [0.3, 6.0]}})
    for name, cfg, field in (("unknown", unknown, ""), ("one_agent", one_agent, ""),
                             ("no_graph_fits", no_graph_fits, ""),
                             ("misspelled", misspelled, ""),
                             ("extra_sampling", extra_sampling, ""),
                             ("quoted_false", quoted_false, "output.full_state"),
                             ("quoted_no", quoted_no, "output.full_state"),
                             ("fractional_runs", fractional_runs, "batch.runs"),
                             ("fractional_seed", fractional_seed, "batch.seed"),
                             ("boolean_runs", boolean_runs, "batch.runs"),
                             ("fractional_grid", fractional_grid, "certify.grid"),
                             ("short_grid", short_grid, "certify.grid"),
                             ("guard", guard, "certify.guard"),
                             ("mapping_dir", mapping_dir, "output.dir"),
                             ("number_dir", number_dir, "output.dir"),
                             ("unknown_kind", unknown_kind, "plant.kind"),
                             ("list_kind", list_kind, "plant.kind"),
                             ("unknown_mode", unknown_mode, "certify.mode"),
                             ("graphs_text", graphs_text, "topology.graphs"),
                             ("graphs_number", graphs_number, "topology.graphs"),
                             ("not_mapping", not_mapping, "config file must contain a mapping"),
                             ("general_without_matrices", general_without_matrices,
                              "general plant needs A and B matrices"),
                             ("both_topologies", both_topologies,
                              "topology needs exactly one of graphs or random")):
        path = write_yaml(tmp_path / f"{name}.yaml", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / name)])
        assert rc == cli.EXIT_USAGE, name
        err = capsys.readouterr().err
        assert err.startswith("error: "), name
        assert field in err, (name, err)
        assert not (tmp_path / name).exists(), name
    # the removed certify fields are unknown keys to both commands, which
    # write no report and no output directory
    report, out_dir = tmp_path / "report.json", tmp_path / "out"
    for name, field in (("fractional_grid", "certify.grid"), ("short_grid", "certify.grid"),
                        ("guard", "certify.guard")):
        for gain in ({}, {"gain": RAW_GAIN}):
            cfg = yaml.safe_load((tmp_path / f"{name}.yaml").read_text())
            if gain:
                del cfg["design"]
            path = write_yaml(tmp_path / "certify.yaml", {**cfg, **gain})
            for command in (["certify"], ["simulate", "--out", str(out_dir)]):
                rc = cli.main([*command, "--config", path, "--report", str(report)])
                assert rc == cli.EXIT_USAGE, (name, gain, command)
                err = capsys.readouterr().err
                assert err == f"error: unknown config keys: ['{field}']\n", (name, gain, command)
            assert not report.exists() and not out_dir.exists(), (name, gain)


def test_configs_beyond_memory_or_recursion_exit_usage(tmp_path, capsys):
    # each array below is larger than any x86-64 user address space (64 PiB
    # even with 5-level paging), so numpy fails at once without touching memory
    long_schedule = yaml.safe_load((CONFIG_DIR / "example1.yaml").read_text(encoding="utf-8"))
    long_schedule["schedule"]["steps"] = 1.0e15  # 100 runs x 1e15 intervals: 711 PiB
    (tmp_path / "huge.graph").write_text("300000000 symmetric\n", encoding="utf-8")  # 639 PiB
    huge_graph = write_yaml(tmp_path / "huge.yaml",
                            sim_config_dict(topology={"graphs": ["huge.graph"]}))
    deep = tmp_path / "deep.yaml"
    deep.write_text("[" * 2000 + "]" * 2000 + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    for command, path, message in (
        ("simulate", write_yaml(tmp_path / "long.yaml", long_schedule), "Unable to allocate"),
        ("certify", huge_graph, "Unable to allocate"),
        ("simulate", huge_graph, "Unable to allocate"),
        # PyYAML takes about a second to reach its recursion limit: one command only
        ("certify", str(deep), "config file nests too deeply"),
    ):
        extra = ["--out", str(out_dir)] if command == "simulate" else []
        assert cli.main([command, "--config", path, *extra]) == cli.EXIT_USAGE, (command, path)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (command, err)
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "recipe, message",
    [
        ({"edge_prob": -0.5}, "edge_prob must be in [0, 1]"),
        ({"edge_prob": float("nan")}, "edge_prob must be in [0, 1]"),
        ({"lambda_band": [0.3, float("inf")]},
         "band must be finite with 0 < lambda_lo <= lambda_hi"),
    ],
    ids=["negative-edge-prob", "nan-edge-prob", "infinite-band"],
)
def test_bad_random_recipe_exits_usage_without_warnings(tmp_path, capsys, recwarn, recipe, message):
    cfg = sim_config_dict()
    cfg["topology"]["random"].update(recipe)
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    for command in (["certify"], ["simulate", "--out", str(tmp_path / "out")]):
        assert cli.main([*command, "--config", path]) == cli.EXIT_USAGE, command
        assert capsys.readouterr().err == f"error: {message}\n", command
    assert not (tmp_path / "out").exists()
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"batch": {"runs": 2, "seed": -1}}, "seed must be nonnegative, got -1"),
        ({"topology": {"random": {"agents": 5, "lambda_band": [0.3, 6.0], "seed": -2}}},
         "topology seed must be nonnegative, got -2"),
    ],
    ids=["batch-seed", "topology-seed"],
)
def test_negative_seed_exits_usage(tmp_path, capsys, overrides, message):
    path = write_yaml(tmp_path / "cfg.yaml", sim_config_dict(**overrides))
    out_dir = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out_dir)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_whole_number_fields_resolve_as_before():
    cfg = sim_config_dict(batch={"runs": 2.0, "seed": 7.0})
    resolved = cli.resolve_config(cfg)
    assert resolved["batch"] == {"runs": 2, "seed": 7}
    assert all(type(v) is int for v in resolved["batch"].values())
    assert resolved == cli.resolve_config(sim_config_dict(batch={"runs": 2, "seed": 7}))


def test_simulate_with_graph_file_pool(tmp_path):
    (tmp_path / "a.graph").write_text("3 symmetric\n1 2 1.0\n2 3 1.0\n", encoding="utf-8")
    (tmp_path / "b.graph").write_text("3 symmetric\n1 2 1.0\n2 3 1.0\n1 3 1.0\n", encoding="utf-8")
    cfg = sim_config_dict(
        topology={"graphs": ["a.graph", "b.graph"]},
        schedule={"steps": 40, "switch_period": 10},
        batch={"runs": 2, "seed": 5},
    )
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    out_dir = tmp_path / "out"
    rc = cli.main(["simulate", "--config", path, "--out", str(out_dir)])
    assert rc == cli.EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    # path graph spectrum {0, 1, 3}; triangle {0, 3, 3}
    assert manifest["band"][0] == pytest.approx(1.0, abs=1e-9)
    assert manifest["band"][1] == pytest.approx(3.0, abs=1e-9)


def test_simulate_design_needs_double_integrator(tmp_path, capsys):
    cfg = sim_config_dict(
        plant={"kind": "general", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}
    )
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli.main(["simulate", "--config", path])
    assert rc == cli.EXIT_USAGE
    assert "double-integrator" in capsys.readouterr().err


RAW_GAIN = {"K": [[0.0009, 0.1093]], "T": [[118.0, -121.0], [0.0, 2.0]]}


@pytest.mark.parametrize(
    "overrides, certified",
    [
        ({}, True),  # example1 design
        ({"gain": RAW_GAIN}, True),  # the README raw-gain example
        ({"gain": {"K": RAW_GAIN["K"]}}, False),  # same K under the identity
        ({"gain": {"K": [[0.0, 0.0]]}}, False),
        (
            {
                "plant": {"kind": "general", "A": [[0.0]], "B": [[1.0]]},
                "gain": {"K": [[0.5]]},
                "sampling": {"hbar": 0.5},
                "topology": {"random": {"agents": 4, "lambda_band": [0.5, 2.0]}},
                "init": {"bounds": [[-10.0, 10.0]]},
            },
            True,
        ),
        # designed for [1, 2] but simulated on graphs anywhere in [0.3, 6]
        ({"design": {"lambda2": 1.0, "lambdaN": 2.0}}, False),
    ],
    ids=[
        "design", "raw-gain-with-T", "raw-gain-without-T", "zero-gain", "single-integrator",
        "design-band-narrower-than-topology",
    ],
)
def test_simulate_refuses_exactly_when_certify_does_not_certify(tmp_path, overrides, certified):
    cfg = sim_config_dict(**overrides)
    if "gain" in overrides:
        del cfg["design"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc_certify = cli.main(["certify", "--config", path])
    rc_simulate = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert (rc_certify == cli.EXIT_OK) == certified
    assert rc_simulate == (cli.EXIT_OK if certified else cli.EXIT_UNCERTIFIED)


# name -> (graph files, the error message both commands print)
BAD_POOLS = {
    # balanced, but nodes 1-2 never hear from node 3
    "disconnected": (
        {"a.graph": "3 symmetric\n1 2 1.0\n"},
        "pool graph 0 has no spanning tree",
    ),
    "mixed-node-counts": (
        {"a.graph": "2 symmetric\n1 2 1.0\n", "b.graph": "3 symmetric\n1 2 1.0\n2 3 1.0\n"},
        "pool graphs disagree on node count: [2, 3]",
    ),
    "unbalanced": ({"a.graph": "2\n1 2 1.0\n"}, "pool graph 0 is not balanced"),
    "single-node": (
        {"a.graph": "1\n"},
        "pool graph 0 has a single node; consensus needs at least two",
    ),
    "empty": ({}, "topology pool must not be empty"),
}


@pytest.mark.parametrize("gain", [None, RAW_GAIN], ids=["design", "raw-gain-with-T"])
@pytest.mark.parametrize("pool", sorted(BAD_POOLS))
def test_certify_and_simulate_reject_the_same_pools(tmp_path, capsys, pool, gain):
    files, message = BAD_POOLS[pool]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = sim_config_dict(topology={"graphs": sorted(files)})
    if gain is not None:
        del cfg["design"]
        cfg["gain"] = gain
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    capsys.readouterr()
    assert cli.main(["certify", "--config", path]) == cli.EXIT_USAGE
    certify_err = capsys.readouterr().err
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == certify_err
    assert certify_err == f"error: {message}\n"


def schema_fields(table=cli._SCHEMA, prefix=()):
    """Every section and field path of the config schema, nested ones included."""
    for key, (coerce, _) in table.items():
        yield prefix + (key,)
        if isinstance(coerce, dict):
            yield from schema_fields(coerce, prefix + (key,))


def test_no_bad_schema_value_escapes_main(tmp_path, capsys):
    # bad configs exit 2, never with a traceback; whichever object checks a value
    base = sim_config_dict(
        topology={"random": {"agents": 3, "lambda_band": [0.3, 6.0], "pool_size": 2}},
        schedule={"steps": 4, "switch_period": 2},
        batch={"runs": 2, "seed": 3},
    )
    with_gain = {k: v for k, v in base.items() if k != "design"}
    with_gain.update(gain=RAW_GAIN)
    fields = list(schema_fields())
    assert ("topology", "random", "edge_prob") in fields and ("output", "full_state") in fields
    for field in fields:
        for value in ("x", 2.5, True, -1, [1, "a"], {"a": 1}):
            cfg = json.loads(json.dumps(with_gain if field[0] == "gain" else base))
            node = cfg
            for key in field[:-1]:
                node = node.setdefault(key, {})
            node[field[-1]] = value
            path = write_yaml(tmp_path / "cfg.yaml", cfg)
            for command in (["certify"], ["simulate", "--out", str(tmp_path / "out")]):
                rc = cli.main([*command, "--config", path])
                assert rc in (0, 1, 2, 3, 4), (field, value, command)
            capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_feasibility_transition(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "sweep",
            "--hbar-axis", "1", "1", "1",
            "--ratio-axis", "1", "3", "9",
            "--lambda2", "1.0",
            "--mu1", "1.0", "--mu2", "4.0",
            "--out", str(out),
        ]
    )
    assert rc == cli.EXIT_OK
    rows = out.read_text().splitlines()
    assert rows[0].startswith("hbar,ratio,lambda2,lambdaN,feasible")
    feasible = [int(r.split(",")[4]) for r in rows[1:]]
    # (mu1 + mu2) / (hbar + max(hbar, 2 mu1)) = 5/3: transition inside [1, 3]
    assert feasible[0] == 1 and feasible[-1] == 0
    assert sorted(feasible, reverse=True) == feasible  # single transition


def test_sweep_single_cell_matches_design(capsys, example1_design):
    rc = cli.main(
        [
            "sweep",
            "--hbar-axis", "3", "3", "1",
            "--ratio-axis", "20", "20", "1",
            "--lambda2", "0.3",
        ]
    )
    assert rc == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert float(cells[5]) == pytest.approx(example1_design.k1, rel=1e-12)
    assert cells[9] == "certified"


def test_sweep_degenerate_range_single_row(capsys):
    rc = cli.main(
        [
            "sweep",
            "--hbar-axis", "2", "2", "5",
            "--ratio-axis", "4", "4", "5",
        ]
    )
    assert rc == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_sweep_rejects_empty_grid(capsys):
    rc = cli.main(["sweep", "--hbar-axis", "1", "2", "0", "--ratio-axis", "1", "2", "3"])
    assert rc == cli.EXIT_USAGE
    rc = cli.main(["sweep", "--hbar-axis", "2", "1", "3", "--ratio-axis", "1", "2", "3"])
    assert rc == cli.EXIT_USAGE
    rc = cli.main(["sweep", "--hbar-axis", "1", "2", "3", "--ratio-axis", "1", "2", "3",
                   "--mu1", "1.0"])
    assert rc == cli.EXIT_USAGE
    axes = ["--hbar-axis", "1", "2", "3", "--ratio-axis", "1", "2", "3"]
    for bad in (
        ["--hbar-axis", "0", "1", "2", "--ratio-axis", "1", "2", "3"],
        axes + ["--lambda2", "-1"],
        axes + ["--mu1", "5", "--mu2", "1"],
        ["--hbar-axis", "1", "2", "2.5", "--ratio-axis", "1", "2", "3"],
        ["--hbar-axis", "1", "2", "3", "--ratio-axis", "1", "2", "inf"],
    ):
        capsys.readouterr()
        assert cli.main(["sweep", *bad]) == cli.EXIT_USAGE, bad
        assert capsys.readouterr().err.startswith("error: "), bad


@pytest.mark.parametrize(
    "axes, message",
    [
        (["--hbar-axis", "1", "inf", "2", "--ratio-axis", "2", "3", "2"],
         "--hbar-axis needs finite lo and hi, got 1.0 and inf"),
        (["--hbar-axis", "1", "2", "2", "--ratio-axis", "nan", "3", "2"],
         "--ratio-axis needs finite lo and hi, got nan and 3.0"),
        (["--hbar-axis", "1", "2", "2", "--ratio-axis", "2", "nan", "2"],
         "--ratio-axis needs finite lo and hi, got 2.0 and nan"),
    ],
    ids=["infinite-hi", "nan-lo", "nan-hi"],
)
def test_sweep_rejects_non_finite_axis_without_warnings(capsys, recwarn, axes, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", *axes]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [str(w.message) for w in recwarn] == []


def test_sweep_rejects_a_huge_axis_before_allocating(capsys):
    axes = ["--hbar-axis", "1", "2", "2", "--ratio-axis", "1", "2", "1e12"]
    assert cli.main(["sweep", *axes]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: --ratio-axis needs lo <= hi and 1 to 1000000 points, "
        "got 1.0, 2.0, 1000000000000.0\n"
    )
    assert len(cli._axis("--hbar-axis", 1.0, 2.0, 1e6)) == 10**6
    with pytest.raises(cli.ConfigError, match="^--hbar-axis needs lo <= hi and 1 to 1000000 "):
        cli._axis("--hbar-axis", 1.0, 2.0, 1e6 + 1)


# ---------------------------------------------------------------------------
# config plumbing


def test_resolved_h_min_is_the_simulator_default():
    hbar = 0.7
    resolved = cli.resolve_config(sim_config_dict(sampling={"hbar": hbar}))
    config = SimulationConfig(
        n_agents=5,
        plant=PlantModel.double_integrator(),
        hbar=hbar,
        steps=1,
        runs=1,
        seed=0,
        topology=TopologyRecipe(0.3, 6.0, pool_size=1),
        design=design(DesignSpec(hbar, 0.3, 6.0)),
    )
    assert resolved["sampling"]["h_min"] == config.h_min == hbar * 1e-3


def test_config_round_trip(tmp_path):
    path = write_yaml(tmp_path / "cfg.yaml", sim_config_dict())
    resolved = cli.resolve_config(cli.load_config(path))
    text = yaml.safe_dump(resolved, sort_keys=True)
    again = cli.resolve_config(yaml.safe_load(text))
    assert resolved == again


def test_config_digest_stable_under_key_reordering(tmp_path):
    cfg = sim_config_dict()
    a = write_yaml(tmp_path / "a.yaml", cfg)
    shuffled = dict(reversed(list(cfg.items())))
    b = write_yaml(tmp_path / "b.yaml", shuffled)
    da = cli.config_digest(cli.resolve_config(cli.load_config(a)))
    db = cli.config_digest(cli.resolve_config(cli.load_config(b)))
    assert da == db


def test_config_digest_changes_with_content(tmp_path):
    cfg = sim_config_dict()
    da = cli.config_digest(cli.resolve_config(cfg))
    cfg["batch"]["seed"] = 4321
    db = cli.config_digest(cli.resolve_config(cfg))
    assert da != db


@pytest.mark.parametrize(
    "name, digest",
    [
        ("example1", "915f5cb25503ebb4b5eeda4e61b8ba1d536f67aa4d8ea6571e034ea3da8d2a97"),
        ("example2", "9c10b746fea3c3f732cc3631543cd8b94bac5c728dcbb75248b293b25917ee7f"),
    ],
)
def test_committed_config_digests_are_pinned(name, digest):
    # manifests of earlier runs name these digests; a schema change keeps them
    # unless it removes a field (certify.grid and certify.guard went)
    resolved = cli.resolve_config(cli.load_config(CONFIG_DIR / f"{name}.yaml"))
    assert cli.config_digest(resolved) == digest


def test_resolve_config_requires_hbar():
    with pytest.raises(cli.ConfigError):
        cli.resolve_config({"design": {"lambda2": 1.0, "lambdaN": 2.0}})


def test_resolve_config_rejects_design_and_gain():
    cfg = sim_config_dict()
    cfg["gain"] = {"K": [[0.1, 0.2]]}
    with pytest.raises(cli.ConfigError):
        cli.resolve_config(cfg)


# ---------------------------------------------------------------------------
# graph files


def test_graph_file_round_trip(tmp_path):
    w = np.array([[0.0, 1.5, 0.0], [1.5, 0.0, 0.25], [0.0, 0.25, 0.0]])
    path = tmp_path / "g.graph"
    path.write_text("3 symmetric\n1 2 1.5\n2 3 0.25\n", encoding="utf-8")
    back = cli.read_graph_file(path)
    np.testing.assert_array_equal(back.weights, w)


def test_graph_file_directed(tmp_path):
    path = tmp_path / "d.graph"
    path.write_text("3\n2 1 1.25\n3 2 0.5\n", encoding="utf-8")
    g = cli.read_graph_file(path)
    assert g.weights[1, 0] == 1.25
    assert g.weights[2, 1] == 0.5
    assert g.weights[0, 1] == 0.0


def test_graph_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.graph"
    path.write_text("# comment\n2 symmetric\n1 2 2.0  # inline\n", encoding="utf-8")
    g = cli.read_graph_file(path)
    assert g.weights[0, 1] == g.weights[1, 0] == 2.0
    bad = tmp_path / "bad.graph"
    bad.write_text("2\n1 5 1.0\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError):
        cli.read_graph_file(bad)
    empty = tmp_path / "empty.graph"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError):
        cli.read_graph_file(empty)
    # a parse error names the file and the line it is on
    for text, line in [("abc\n", "line 1: bad header 'abc'"),
                       ("2\n# edges\n1 2 x\n", "line 3: bad edge '1 2 x'"),
                       ("2\n1 2.5 1\n", "line 2: bad edge '1 2.5 1'"),
                       # a repeated link names both of its lines
                       ("3\n1 2 0.5\n1 2 5.0\n", "lines 2 and 3: link 1 2 is given twice"),
                       ("3 symmetric\n1 2 0.5\n# reverse\n2 1 5.0\n",
                        "lines 2 and 4: link 2 1 is given twice"),
                       # a link that parses but is invalid names its line too
                       ("2\n1 1 0.5\n", "line 2: self-loop in '1 1 0.5'"),
                       ("2 symmetric\n# weights\n1 2 -1\n",
                        "line 3: weight must be finite and nonnegative in '1 2 -1'"),
                       ("2\n1 2 nan\n",
                        "line 2: weight must be finite and nonnegative in '1 2 nan'"),
                       ("-3\n", "line 1: bad header '-3'")]:
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(cli.ConfigError, match=re.escape(f"{bad}, {line}")):
            cli.read_graph_file(bad)
    # without symmetric, i j and j i are two links
    bad.write_text("2\n1 2 0.5\n2 1 5.0\n", encoding="utf-8")
    g = cli.read_graph_file(bad)
    assert (g.weights[0, 1], g.weights[1, 0]) == (0.5, 5.0)


# ---------------------------------------------------------------------------
# documentation


def readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sdconsensus ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # run from a copy of the repository's configs so every output lands in tmp_path
    shutil.copytree(CONFIG_DIR, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"design", "certify", "simulate", "sweep"}
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)


def yaml_key_paths(node, prefix=()):
    """Every key path of a nested mapping, nested ones included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from yaml_key_paths(value, prefix + (key,))


def test_readme_config_block_names_only_schema_fields():
    # a field removed from the schema cannot stay documented
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration file", 1)[1]
    documented = yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.S).group(1))
    paths = set(yaml_key_paths(documented))
    assert ("certify", "mode") in paths and ("topology", "random", "edge_prob") in paths
    assert sorted(paths - set(schema_fields())) == []
