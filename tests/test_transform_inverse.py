"""T^-1 has one owner: the gain rule forms it once per request.

A design is its own record: its inverse is the one ``GainDesign`` forms to
derive K.  A raw T is inverted once, by the T check of
``certify._gain_pair``.  Every consumer (the certificates,
``network_contraction`` and ``sim.run``) takes the checked record and
inverts nothing.  Both commands apply the rule once, while they load the
config: ``certify --config`` certifies that record, and ``simulate`` hands
it to ``SimulationConfig``, whose rule passes a built record through.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdconsensus import certify, cli
from sdconsensus.certify import PlantModel, certify_gain
from sdconsensus.sim import SimulationConfig, TopologyRecipe, run

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {("synthesis.py", "GainDesign.__post_init__"), ("certify.py", "_transform_inverse")}


def inverse_call_sites(path: Path) -> list:
    """(file, enclosing qualified name) of every reference to an ``inv``
    function in ``path``: a call, an attribute read or an import."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        named = (
            (isinstance(node, ast.Attribute) and node.attr == "inv")
            or (isinstance(node, ast.Name) and node.id == "inv")
            or (isinstance(node, ast.ImportFrom) and any(a.name == "inv" for a in node.names))
        )
        if named:
            sites.append((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


def test_only_the_design_and_the_t_check_invert():
    sites = [s for p in sorted((ROOT / "src").rglob("*.py")) for s in inverse_call_sites(p)]
    assert sorted(sites) == sorted(ALLOWED)


@pytest.fixture
def inversions(monkeypatch):
    """A list that grows by one for every np.linalg.inv call."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def test_simulate_inverts_t_once(inversions, tmp_path, capsys):
    # the one inversion is the design's own, which derives K
    path = ROOT / "configs" / "example1.yaml"
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(inversions) == 1


def test_certify_config_inverts_t_once_for_a_design(inversions, capsys):
    path = ROOT / "configs" / "example1.yaml"
    assert cli.main(["certify", "--config", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(inversions) == 1


def test_certify_gain_inverts_a_raw_t_once_and_a_design_never(inversions, example1_design):
    plant = PlantModel.double_integrator()
    cert = certify_gain(plant, 3.0, (0.3, 6.0), design=example1_design)
    assert cert.method == "exact-inequality" and inversions == []
    cert = certify_gain(plant, 3.0, (0.3, 6.0), gain=example1_design.K,
                        transform=example1_design.T)
    assert cert.method == "grid-sample" and len(inversions) == 1


def test_a_config_and_its_run_invert_nothing_for_a_design(inversions, example1_design):
    cfg = SimulationConfig(
        n_agents=5, plant=PlantModel.double_integrator(), hbar=3.0, steps=20, runs=2,
        seed=7, topology=TopologyRecipe(0.3, 6.0, pool_size=2), design=example1_design,
    )
    assert run(cfg).certificate.verdict == "certified"
    assert inversions == []


def raw_gain_config(tmp_path) -> str:
    """A small example1 batch with README's raw gain K under its T."""
    cfg = yaml.safe_load((ROOT / "configs" / "example1.yaml").read_text(encoding="utf-8"))
    del cfg["design"]
    cfg["gain"] = {"K": [[0.0009, 0.1093]], "T": [[118.0, -121.0], [0.0, 2.0]]}
    cfg["schedule"], cfg["batch"]["runs"] = {"steps": 20, "switch_period": 10}, 2
    path = tmp_path / "raw.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def test_certify_config_inverts_a_raw_t_once(inversions, tmp_path, capsys):
    assert cli.main(["certify", "--config", raw_gain_config(tmp_path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("verdict: certified (method grid-sample)")
    assert len(inversions) == 1


def test_simulate_inverts_a_raw_t_once(inversions, tmp_path, capsys):
    path = raw_gain_config(tmp_path)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(inversions) == 1


def test_a_config_keeps_the_record_it_is_given(example1_design):
    plant = PlantModel.double_integrator()
    record = certify._gain_pair(plant, gain=example1_design.K, transform=example1_design.T)
    cfg = SimulationConfig(
        n_agents=5, plant=plant, hbar=3.0, steps=20, runs=2, seed=7,
        topology=TopologyRecipe(0.3, 6.0, pool_size=2), gain=record,
    )
    assert cfg.gain_pair is record
    assert dataclasses.replace(cfg, runs=1).gain_pair is record


def test_a_design_is_its_own_record(example1_design):
    plant = PlantModel.double_integrator()
    dsn = example1_design
    assert certify._gain_pair(plant, design=dsn) is dsn
    assert certify._certify(plant, 3.0, (0.3, 6.0), dsn).method == "exact-inequality"
    pair = certify._gain_pair(plant, gain=dsn.K, transform=dsn.T)
    assert certify._certify(plant, 3.0, (0.3, 6.0), pair).method == "grid-sample"
    # the record alone picks the certificate: no design travels beside it
    assert "design" not in inspect.signature(certify._certify).parameters
