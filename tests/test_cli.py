import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdconsensus import cli, sim
from sdconsensus.certify import PlantModel
from sdconsensus.sim import SimulationConfig, TopologyRecipe
from sdconsensus.synthesis import DesignSpec, design

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_yaml(path, payload):
    """Write a config mapping as YAML, or YAML text as given."""
    text = payload if isinstance(payload, str) else yaml.safe_dump(payload)
    path.write_text(text, encoding="utf-8")
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


_SPEC_200 = ["--hbar", "1e-200", "--lambda2", "1e-200", "--lambdaN", "1e-200"]
_SPEC_150 = ["--hbar", "1e-150", "--lambda2", "1", "--lambdaN", "100"]
_SPEC_1E8 = ["--hbar", "1e8", "--lambda2", "1", "--lambdaN", "1e8"]


@pytest.mark.parametrize(
    "argv, hbar",
    [
        # hbar * lambdaN * (mu1 + mu2 + hbar) underflows to zero at this spec
        pytest.param(["design", *_SPEC_200], "1e-200", id="design"),
        pytest.param(["certify", *_SPEC_200], "1e-200", id="certify"),
        # the limits are finite, but k2 - k1 = 0.036 is lost next to k1 = 1e148
        pytest.param(["design", *_SPEC_150], "1e-150", id="design-1e-150"),
        pytest.param(["certify", *_SPEC_150], "1e-150", id="certify-1e-150"),
        pytest.param(
            ["sweep", "--hbar-axis", "1e-150", "1e-150", "1", "--ratio-axis", "100", "100", "1"],
            "1e-150", id="sweep-1e-150",
        ),
        # b = c in floats: the gain region is empty, so no witness exists
        pytest.param(["design", *_SPEC_1E8], "100000000.0", id="design-1e8"),
        pytest.param(["certify", *_SPEC_1E8], "100000000.0", id="certify-1e8"),
        pytest.param(
            ["sweep", "--hbar-axis", "1e8", "1e8", "1", "--ratio-axis", "1e8", "1e8", "1"],
            "100000000.0", id="sweep-1e8",
        ),
        # a = 2 (mu2 - mu1) / (hbar lambdaN (mu1 + mu2 + hbar)) overflows to inf
        pytest.param(
            ["design", "--hbar", "1e-310", "--lambda2", "1", "--lambdaN", "1"],
            "1e-310", id="design-1e-310",
        ),
        # mu2 = -mu1 + 2 hbar lambdaN / lambda2 + 1 overflows to inf
        pytest.param(
            ["design", "--hbar", "1e250", "--lambda2", "1", "--lambdaN", "1e100"],
            "1e+250", id="design-mu2-overflow",
        ),
        pytest.param(
            ["design", "--hbar", "1e300", "--lambda2", "1e-300", "--lambdaN", "1"],
            "1e+300", id="design-mu2-overflow-ratio",
        ),
        pytest.param(
            ["certify", "--hbar", "1", "--lambda2", "1", "--lambdaN", "1e308"],
            "1.0", id="certify-mu2-overflow",
        ),
        # lambdaN = lambda2 * ratio overflows: the cell is named, not a spec
        pytest.param(
            ["sweep", "--hbar-axis", "1", "1", "1", "--ratio-axis", "1e10", "1e10", "1",
             "--lambda2", "1e300"],
            "1.0", id="sweep-band-overflow",
        ),
    ],
)
def test_spec_too_small_for_floats_exits_usage_without_traceback(argv, hbar):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sdconsensus.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and line.count(f"hbar = {hbar}") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6"],
        ["sweep", "--hbar-axis", "3", "3", "1", "--ratio-axis", "20", "20", "1",
         "--lambda2", "0.3"],
    ],
    ids=["design", "sweep"],
)
def test_closed_stdout_exits_as_sigpipe_and_is_silent(argv):
    # a reader that closed the pipe is no config error: exit 128 + SIGPIPE
    # with nothing on stderr, not 2 with "error: [Errno 32] Broken pipe"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdconsensus.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


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


def test_certify_inline_near_identity_design_is_certified(capsys):
    # the worst sampled sigma is 1 - 1.6e-14: a 2x2 kernel that cancels near
    # the identity (errors up to 1e-8) refutes this proven design
    rc = cli.main(["certify", "--hbar", "1e-12", "--lambda2", "1", "--lambdaN", "1e4"])
    assert rc == cli.EXIT_OK
    assert "verdict: certified" in capsys.readouterr().out


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


@pytest.mark.parametrize("gain", ["design", "raw"])
def test_certify_fixed_mode_on_a_symmetric_graph_is_band_mode(tmp_path, capsys, gain):
    # a symmetric graph's eigenvalues are real: fixed mode certifies their
    # band, the one band mode reads, so the two reports agree bit for bit
    # (but for the digest of the config, whose mode differs).  The complete
    # graph's repeated eigenvalue 4.75 is one that eigvals returns with
    # rounding-sized imaginary parts.
    (tmp_path / "ring.graph").write_text(
        "5 symmetric\n1 2 1.0\n2 3 0.5\n3 4 1.2\n4 5 0.7\n1 5 0.3\n", encoding="utf-8"
    )
    links = [f"{i} {j} 0.25" for i in range(1, 20) for j in range(i + 1, 20)]
    (tmp_path / "complete.graph").write_text("\n".join(["19 symmetric", *links]) + "\n",
                                             encoding="utf-8")
    for graph in ("ring.graph", "complete.graph"):
        cfg = sim_config_dict(topology={"graphs": [graph]})
        if gain == "raw":
            del cfg["design"]
            cfg["gain"] = RAW_GAIN
        reports = {}
        for mode in ("band", "fixed"):
            cfg["certify"] = {"mode": mode}
            path = write_yaml(tmp_path / f"{mode}.yaml", cfg)
            reports[mode] = tmp_path / f"{mode}.json"
            rc = cli.main(["certify", "--config", path, "--report", str(reports[mode])])
            assert rc == cli.EXIT_OK, (graph, mode)
        band, fixed = (json.loads(reports[m].read_text()) for m in ("band", "fixed"))
        assert band.pop("config_digest") != fixed.pop("config_digest")
        assert fixed == band, graph
        assert fixed["worst_lambda"][1] == 0.0
        assert band["method"] == ("exact-inequality" if gain == "design" else "grid-sample")


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
    # a YAML boolean (yes, on, true) is not a number, and a ragged matrix
    # names its field instead of numpy's shape error
    def raw_gain(K):
        return {k: v for k, v in sim_config_dict(gain={"K": K}).items() if k != "design"}

    boolean_hbar = yaml.safe_dump(sim_config_dict()).replace("hbar: 3.0", "hbar: yes")
    boolean_band = sim_config_dict(topology={"random": {"agents": 5, "lambda_band": [True, 6]}})
    boolean_gain = raw_gain([[True, 0.1]])
    boolean_bounds = sim_config_dict(init={"bounds": [[False, 1], [0, 1]]})
    ragged_plant = sim_config_dict(
        plant={"kind": "general", "A": [[0, 1], [0]], "B": [[0], [1]]}
    )
    ragged_gain = raw_gain([[0.1, 0.2], [0.3]])
    # an integer beyond floats, and finite init ends whose width overflows
    huge_int_hbar = sim_config_dict(sampling={"hbar": 10**400})
    wide_init = sim_config_dict(init={"bounds": [[-1.0e308, 1.0e308], [-1, 1]]})
    # a key given twice is an error, not an override of its first value
    text = yaml.safe_dump(sim_config_dict())
    lines = text.splitlines()
    twice_top = text + "sampling: {hbar: 300}\n"
    twice_top_field = (f"twice_top.yaml, lines {lines.index('sampling:') + 1} and "
                       f"{len(lines) + 1}: key 'sampling' is given twice")
    twice_nested = text.replace("design:\n", "design:\n  lambda2: 0.01\n")
    line = lines.index("design:") + 2
    twice_nested_field = (f"twice_nested.yaml, lines {line} and {line + 1}: "
                          "key 'lambda2' is given twice")
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
                              "topology needs exactly one of graphs or random"),
                             ("twice_top", twice_top, twice_top_field),
                             ("twice_nested", twice_nested, twice_nested_field),
                             ("boolean_hbar", boolean_hbar,
                              "sampling.hbar: expected a number, got True"),
                             ("boolean_band", boolean_band,
                              "topology.random.lambda_band: expected a number, got True"),
                             ("boolean_gain", boolean_gain,
                              "gain.K: expected a number, got True"),
                             ("boolean_bounds", boolean_bounds,
                              "init.bounds: expected a number, got False"),
                             ("ragged_plant", ragged_plant,
                              "plant.A: expected a list of rows of equal length"),
                             ("ragged_gain", ragged_gain,
                              "gain.K: expected a list of rows of equal length"),
                             ("huge_int_hbar", huge_int_hbar,
                              "sampling.hbar: int too large to convert to float"),
                             ("wide_init", wide_init,
                              "init bounds must be finite with lo <= hi and a finite width, "
                              "got [-1e+308, 1e+308]")):
        path = write_yaml(tmp_path / f"{name}.yaml", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / name)])
        assert rc == cli.EXIT_USAGE, name
        err = capsys.readouterr().err
        assert err.startswith("error: "), name
        assert field in err, (name, err)
        assert not (tmp_path / name).exists(), name
    # text that float() parses is still a number: YAML reads 1e-3 as text
    h_min = yaml.safe_load("sampling: {hbar: 3, h_min: 1e-3}")
    assert h_min["sampling"]["h_min"] == "1e-3"
    resolved = cli.resolve_config({**sim_config_dict(), **h_min})
    assert resolved["sampling"]["h_min"] == 0.001
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
    # even with 5-level paging): the batch's entry bound refuses the first two
    # and the pool's bound the graph from its header, before anything is allocated
    long_schedule = yaml.safe_load((CONFIG_DIR / "example1.yaml").read_text(encoding="utf-8"))
    long_schedule["schedule"]["steps"] = 1.0e15  # 100 runs x 1e15 intervals: 711 PiB
    many_runs = yaml.safe_load((CONFIG_DIR / "example1.yaml").read_text(encoding="utf-8"))
    many_runs["batch"]["runs"] = 1.0e15  # 1e15 runs x 5 agents x 2 states: 71 PiB
    (tmp_path / "huge.graph").write_text("300000000 symmetric\n", encoding="utf-8")  # 639 PiB
    huge_graph = write_yaml(tmp_path / "huge.yaml",
                            sim_config_dict(topology={"graphs": ["huge.graph"]}))
    deep = tmp_path / "deep.yaml"
    deep.write_text("[" * 2000 + "]" * 2000 + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    for command, path, message in (
        ("simulate", write_yaml(tmp_path / "long.yaml", long_schedule),
         f"a batch of runs = 100 x steps = {10**15} of 5 agents holds "),
        ("simulate", write_yaml(tmp_path / "runs.yaml", many_runs),
         f"a batch of runs = {10**15} x steps = 1000 of 5 agents holds "),
        ("certify", huge_graph, f"{tmp_path / 'huge.graph'}, line 1: header "
         f"'300000000 symmetric' brings the pool to {300000000**2} weights, more than the "
         f"{sim._MAX_ENTRIES} a pool may hold"),
        ("simulate", huge_graph, f"{tmp_path / 'huge.graph'}, line 1: header "),
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


def test_commands_report_the_first_fault_in_plant_gain_topology_order(tmp_path, capsys):
    # a design under a general plant and a missing graph file: the gain comes first
    cfg = sim_config_dict(
        plant={"kind": "general", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        topology={"graphs": ["missing.graph"]},
    )
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    for command in ("certify", "simulate"):
        assert cli.main([command, "--config", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: design synthesis only covers")
    cfg["plant"]["A"] = [[0.0, 1.0]]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    for command in ("certify", "simulate"):
        assert cli.main([command, "--config", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: A must be square\n"


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
    # every weight lies below 1e-12; balance must not depend on the weight scale
    "unbalanced-scaled-down": (
        {"a.graph": "5\n1 3 1e-13\n1 4 1e-13\n1 5 2.5e-14\n2 1 1e-13\n2 4 1e-13\n"
                    "3 1 5e-14\n3 2 1e-13\n3 4 5e-14\n4 2 2.5e-14\n"},
        "pool graph 0 is not balanced",
    ),
    "single-node": (
        {"a.graph": "1\n"},
        "pool graph 0 has a single node; consensus needs at least two",
    ),
    "empty": ({}, "topology pool must not be empty"),
}

# config sections that replace sim_config_dict's for one pool
POOL_OVERRIDES = {
    # a design over the band of the digraph's symmetric part: if near-equal
    # tiny weights counted as balanced, certify would print "certified" and
    # the batch would diverge
    "unbalanced-scaled-down": {
        "design": {"lambda2": 1.3091521009538652e-14, "lambdaN": 3.2614921112170574e-13},
        "sampling": {"hbar": 5.0e12},
        "schedule": {"steps": 200},
        "batch": {"runs": 10, "seed": 3},
    },
}


@pytest.mark.parametrize("gain", [None, RAW_GAIN], ids=["design", "raw-gain-with-T"])
@pytest.mark.parametrize("pool", sorted(BAD_POOLS))
def test_certify_and_simulate_reject_the_same_pools(tmp_path, capsys, pool, gain):
    files, message = BAD_POOLS[pool]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = sim_config_dict(topology={"graphs": sorted(files)}, **POOL_OVERRIDES.get(pool, {}))
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


@pytest.mark.parametrize("gain, hbar, certify_rc", [
    ({"K": [[0.001, 0.1]]}, 1e155, cli.EXIT_INCONCLUSIVE),  # h * h / 2 overflows
    ({"K": [[0.001, 0.1]]}, 8e305, cli.EXIT_INCONCLUSIVE),
    ({"K": [[0.001, 0.1]], "T": [[1.0, 1e300], [0.0, 1.0]]}, 3.0, cli.EXIT_REFUTED),
    ({"K": [[0.001, 0.1]]}, 1e308, cli.EXIT_USAGE),  # hbar * 200 h samples overflows
])
def test_an_overflowing_certificate_exits_without_warnings(
    tmp_path, capsys, gain, hbar, certify_rc
):
    # warnings are errors here
    cfg = sim_config_dict(gain=gain, sampling={"hbar": hbar})
    del cfg["design"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli.main(["certify", "--config", path]) == certify_rc
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if certify_rc == cli.EXIT_USAGE:
        message = "error: hbar = 1e+308 is too large for 200 h samples: hbar * 200 overflows\n"
        assert rc == cli.EXIT_USAGE and err == message * 2
    else:
        assert rc == cli.EXIT_UNCERTIFIED and err.startswith("refused: ")


@pytest.mark.parametrize("hbar", [1e155, 8e305])
def test_an_overflowing_third_order_certificate_exits_without_warnings(tmp_path, capsys, hbar):
    # warnings are errors here; LAPACK refuses the overflowed closed loops of
    # a 3-state plant, which are inconclusive, as those of 2-state plants
    cfg = sim_config_dict(
        plant={"kind": "general", "A": np.diag([1.0, 1.0], 1).tolist(),
               "B": [[0.0], [0.0], [1.0]]},
        gain={"K": [[0.001, 0.01, 0.1]]},
        sampling={"hbar": hbar},
        init={"bounds": [[-1.0, 1.0]] * 3},
    )
    del cfg["design"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli.main(["certify", "--config", path]) == cli.EXIT_INCONCLUSIVE
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == (
        cli.EXIT_UNCERTIFIED
    )
    assert capsys.readouterr().err.startswith("refused: ")
    assert cli.main(["simulate", "--force", "--config", path,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK


def test_simulate_refuses_a_pool_past_its_weight_bound(tmp_path, capsys):
    # a value that allocates nothing: the bound is checked before any graph
    cfg = sim_config_dict(
        topology={"random": {"agents": 5, "lambda_band": [0.3, 6.0], "pool_size": 10**400}}
    )
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE and not (tmp_path / "out").exists()
    assert err.startswith(f"error: pool_size = {10**400} graphs of 5 agents hold ")
    assert err.endswith(f" weights, more than the {1 << 26} a pool may hold\n")


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_committed_batches_stay_far_inside_the_entry_bound(monkeypatch, name):
    # with output.full_state on, each batch fits a third of the bound
    # (example2: 20.5 million entries of 67.1 million)
    monkeypatch.setattr(sim, "_MAX_ENTRIES", (1 << 26) // 3)
    resolved, plant, dsn, topology, n_agents = cli._load(
        cli.load_config(CONFIG_DIR / f"{name}.yaml"), CONFIG_DIR
    )
    cfg = SimulationConfig(
        n_agents=n_agents, plant=plant, hbar=resolved["sampling"]["hbar"],
        steps=resolved["schedule"]["steps"], runs=resolved["batch"]["runs"],
        seed=resolved["batch"]["seed"], topology=topology, record_states=True, design=dsn,
    )
    assert (cfg.runs, cfg.steps) == (100, 1000)


def schema_fields(table=cli._SCHEMA, prefix=()):
    """Every section and field path of the config schema, nested ones included."""
    for key, (coerce, _) in table.items():
        yield prefix + (key,)
        if isinstance(coerce, dict):
            yield from schema_fields(coerce, prefix + (key,))


def test_no_bad_schema_value_escapes_main(tmp_path, capsys, monkeypatch):
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
    # values at the limits in every number leaf, of a design and of a
    # raw-gain config, end in a verdict, a refusal or exit 2, never in a
    # traceback or a numpy warning: finite floats at the float limits, and
    # large integers.  In a leaf that sizes a pool or a batch, 10**9 would
    # take gigabytes and 2**62 more than any address space; the pool's and
    # the batch's entry bounds refuse both before anything of that size is
    # allocated.  The file reader is bypassed, since YAML parsing would take
    # most of the time.
    design_cfg = dict(
        base,
        topology={"random": {"agents": 3, "lambda_band": [0.3, 6.0], "edge_prob": 0.3,
                             "pool_size": 2, "seed": 5}},
        sampling={"hbar": 3.0, "h_min": 0.003},
        init={"bounds": [[-10.0, 10.0], [-1.0, 1.0]]},
    )
    gain_cfg = {k: v for k, v in design_cfg.items() if k != "design"}
    gain_cfg["gain"] = {"K": [[0.001, 0.1]], "T": [[1.0, 0.0], [0.0, 1.0]]}
    configs = []
    for cfg in (design_cfg, gain_cfg):
        leaves = list(float_leaves(cfg))
        assert ("sampling", "hbar") in leaves and ("init", "bounds", 1, 0) in leaves
        for leaf in leaves:
            for value in (1e308, -1e308, 8e305, 1e300, 1e155, 1e-300, 5e-324, -5e-324, 0.0):
                configs.append((leaf, value, replaced(cfg, leaf, value)))
        leaves = list(int_leaves(cfg))
        assert len(leaves) == 7  # agents, pool_size, both seeds, steps, switch_period, runs
        for leaf in leaves:
            for value in (10**9, 2**62, 10**400, 0):
                configs.append((leaf, value, replaced(cfg, leaf, value)))
    configs.append(("both init ends", 1e308,
                    replaced(design_cfg, ("init", "bounds", 0), [-1e308, 1e308])))
    out = str(tmp_path / "out")
    for leaf, value, cfg in configs:
        monkeypatch.setattr(cli, "load_config", lambda _, cfg=cfg: json.loads(json.dumps(cfg)))
        for command in (["certify"], ["simulate", "--out", out],
                        ["simulate", "--force", "--out", out]):
            rc = cli.main([*command, "--config", "cfg.yaml"])
            assert rc in (0, 1, 2, 3, 4), (leaf, value, command)
        capsys.readouterr()


def float_leaves(node, prefix=()):
    """The path of every float in a config mapping, list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            yield prefix + (key,)
        elif isinstance(value, (dict, list)):
            yield from float_leaves(value, prefix + (key,))


def int_leaves(node, prefix=()):
    """The path of every integer in a config mapping, booleans left out."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, int) and not isinstance(value, bool):
            yield prefix + (key,)
        elif isinstance(value, (dict, list)):
            yield from int_leaves(value, prefix + (key,))


def replaced(cfg, path, value):
    """A copy of the config mapping ``cfg`` with ``value`` at ``path``."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


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


def test_sweep_writes_the_same_bytes_to_stdout_and_to_out(tmp_path, capsys):
    axes = ["sweep", "--hbar-axis", "0.5", "3", "4", "--ratio-axis", "1", "20", "4"]
    assert cli.main(axes) == cli.EXIT_OK
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "sweep.csv"
    assert cli.main([*axes, "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(printed.splitlines()) == 17 and out.read_bytes() == printed


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
        # the flags are checked once, before any cell is named or designed
        (["--hbar-axis", "1", "1", "1", "--ratio-axis", "2", "2", "1", "--lambda2", "nan"],
         "--lambda2 must be positive and finite, got nan"),
        (["--hbar-axis", "1", "1", "1", "--ratio-axis", "2", "2", "1", "--lambda2", "0"],
         "--lambda2 must be positive and finite, got 0.0"),
        (["--hbar-axis", "1", "2", "2", "--ratio-axis", "2", "3", "2",
          "--mu1", "0.5", "--mu2", "0.4"],
         "--mu1 and --mu2 must be finite with 0 < mu1 < mu2, got 0.5 and 0.4"),
        (["--hbar-axis", "1", "2", "2", "--ratio-axis", "2", "3", "2",
          "--mu1", "0.5", "--mu2", "inf"],
         "--mu1 and --mu2 must be finite with 0 < mu1 < mu2, got 0.5 and inf"),
        # every cell below an axis's lower bound would fail: the flag is named
        (["--hbar-axis", "0", "2", "3", "--ratio-axis", "1", "2", "2"],
         "--hbar-axis needs LO > 0, got 0.0"),
        (["--hbar-axis", "-2", "2", "3", "--ratio-axis", "1", "2", "2"],
         "--hbar-axis needs LO > 0, got -2.0"),
        (["--hbar-axis", "1", "2", "2", "--ratio-axis", "0.5", "2", "2"],
         "--ratio-axis needs LO >= 1, got 0.5"),
        (["--hbar-axis", "1", "2", "2", "--ratio-axis", "0", "0", "1"],
         "--ratio-axis needs LO >= 1, got 0.0"),
    ],
    ids=["infinite-hi", "nan-lo", "nan-hi", "nan-lambda2", "zero-lambda2", "mu-order",
         "infinite-mu2", "zero-hbar", "negative-hbar", "ratio-below-one", "zero-ratio"],
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
    # two axes within their bound, but a grid past it, is refused before its first cell
    axes = ["--hbar-axis", "0.5", "4", "1001", "--ratio-axis", "1", "40", "1000"]
    assert cli.main(["sweep", *axes]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --hbar-axis x --ratio-axis is 1001 x 1000 = "
                                   "1001000 cells, more than the 1000000 a sweep may hold\n")


def test_sweep_grid_is_bounded_by_the_axis_bound(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_POINTS", 20)
    assert cli.main(["sweep", "--hbar-axis", "1", "2", "4", "--ratio-axis", "1", "2", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 4 * 5
    assert cli.main(["sweep", "--hbar-axis", "1", "2", "5", "--ratio-axis", "1", "2", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --hbar-axis x --ratio-axis is 5 x 5 = 25 cells, "
                                   "more than the 20 a sweep may hold\n")


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


def test_graph_file_pool_is_bounded_from_each_header(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, "_MAX_ENTRIES", 100)
    built, from_edges = [], cli.WeightedDigraph.from_edges
    monkeypatch.setattr(cli.WeightedDigraph, "from_edges",
                        lambda n, *rest: built.append(n) or from_edges(n, *rest))
    (tmp_path / "ten.graph").write_text("10\n", encoding="utf-8")
    assert cli.read_graph_file(tmp_path / "ten.graph").n == 10 and built == [10]
    (tmp_path / "eleven.graph").write_text("11\n1 2 1.0\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match=re.escape(
            f"{tmp_path / 'eleven.graph'}, line 1: header '11' brings the pool to 121 weights, "
            "more than the 100 a pool may hold")):
        cli.read_graph_file(tmp_path / "eleven.graph")
    assert built == [10]
    # a pool counts every file: the second of two 8-node graphs is refused
    for name in ("a", "b"):
        (tmp_path / f"{name}.graph").write_text("# ring\n8 symmetric\n", encoding="utf-8")
    path = write_yaml(tmp_path / "cfg.yaml",
                      sim_config_dict(topology={"graphs": ["a.graph", "b.graph"]}))
    for command in (["certify"], ["simulate", "--out", str(tmp_path / "out")]):
        built.clear()
        assert cli.main([*command, "--config", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'b.graph'}, line 2: header '8 symmetric' brings the pool to "
            "128 weights, more than the 100 a pool may hold\n")
        assert built == [8]
    assert not (tmp_path / "out").exists()


def test_graph_file_with_a_byte_order_mark_reads_like_one_without(tmp_path):
    text = "# pair\n2 symmetric\n1 2 0.5\n"
    plain, marked = tmp_path / "plain.graph", tmp_path / "marked.graph"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    np.testing.assert_array_equal(
        cli.read_graph_file(marked).weights, cli.read_graph_file(plain).weights
    )


@pytest.mark.parametrize(
    "weight, mode, command",
    [
        ("1e308", "band", "certify"),
        ("1e308", "band", "simulate"),
        ("1e308", "fixed", "certify"),
        # finite degrees, but a total beyond the float range
        ("8e307", "fixed", "certify"),
    ],
)
def test_graph_weights_that_overflow_exit_usage_without_warnings(
    tmp_path, capsys, recwarn, weight, mode, command
):
    graph = tmp_path / "big.graph"
    graph.write_text(f"3 symmetric\n1 2 {weight}\n2 3 {weight}\n", encoding="utf-8")
    cfg = sim_config_dict(topology={"graphs": ["big.graph"]}, certify={"mode": mode})
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    argv = [command, "--config", path]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    message = f"error: {graph}: weights must be finite, and so must their total\n"
    assert capsys.readouterr().err == message
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weight", ["1e300", "8e307"])
@pytest.mark.parametrize(
    "command, code", [("certify", cli.EXIT_REFUTED), ("simulate", cli.EXIT_UNCERTIFIED)]
)
def test_design_over_a_band_near_the_float_limit_gets_a_verdict(
    tmp_path, capsys, recwarn, weight, command, code
):
    # band [2w, 2w]: at 8e307 the inequality limits underflow to zero, which
    # fails them as the tiny limits at 1e300 do, instead of an internal error
    graph = tmp_path / "big.graph"
    graph.write_text(f"2 symmetric\n1 2 {weight}\n", encoding="utf-8")
    path = write_yaml(tmp_path / "cfg.yaml", sim_config_dict(topology={"graphs": ["big.graph"]}))
    report = tmp_path / "report.json"
    argv = [command, "--config", path, "--report", str(report)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == code

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    assert json.loads(report.read_text(), parse_constant=reject)["verdict"] == "refuted"
    assert "Warning" not in capsys.readouterr().err
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "out").exists()


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
