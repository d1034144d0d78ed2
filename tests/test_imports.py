"""The runtime dependencies are what the package imports, and no command or
library call of the package loads scipy in a fresh process.

The pytest process itself has scipy loaded (test_numerics imports it), so
each scipy check runs in a new interpreter with the package on PYTHONPATH.
Some checks watch ``numpy.ma`` too, which numpy loads only on first use
(``np.unique`` is one).
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
# the distribution that provides an imported top-level module, where the
# two names differ
DISTRIBUTION = {"yaml": "PyYAML"}


def imported_distributions() -> set:
    """The third-party distributions that the package's modules import."""
    modules = set()
    for path in sorted((ROOT / "src" / "sdconsensus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    third_party = modules - set(sys.stdlib_module_names) - {"sdconsensus"}
    return {DISTRIBUTION.get(m, m) for m in third_party}


def requirement_names(pyproject: str, key: str) -> set:
    """The distribution names of the list ``key = [...]`` in pyproject.toml."""
    # a regex, not tomllib: the package supports Python 3.10
    body = re.search(rf"^{key} = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9._-]+", req).group(0) for req in re.findall(r'"([^"]+)"', body)}


def test_runtime_dependencies_are_the_imported_distributions():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", pyproject, re.M | re.S).group(1)
    extras = re.search(
        r"^\[project\.optional-dependencies\]$(.*?)(?=^\[)", pyproject, re.M | re.S
    ).group(1)
    assert requirement_names(project, "dependencies") == imported_distributions()
    # scipy is an oracle of the tests only
    assert "scipy" in requirement_names(extras, "test")
    assert modules_after("import sdconsensus") == []


def modules_after(code: str, *args: str, watched=("scipy",)) -> list:
    """The modules of the ``watched`` packages (scipy by default) loaded once
    ``code`` has run in a fresh interpreter."""
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        watched = {tuple(watched)!r}
        print(json.dumps(sorted(m for m in sys.modules
                                if any(m == w or m.startswith(w + ".") for w in watched))))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_double_integrator_commands_do_not_import_scipy(tmp_path):
    raw = yaml.safe_load((ROOT / "configs" / "example1.yaml").read_text(encoding="utf-8"))
    raw["batch"]["runs"] = 2
    raw["schedule"]["steps"] = 60
    config = tmp_path / "example1.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    loaded = modules_after(
        """
        import contextlib, io, sys
        from sdconsensus import cli

        config, out = sys.argv[1:]
        commands = [
            ["design", "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6"],
            ["certify", "--hbar", "3", "--lambda2", "0.3", "--lambdaN", "6"],
            ["sweep", "--hbar-axis", "3", "3", "1", "--ratio-axis", "20", "20", "1",
             "--lambda2", "0.3"],
            ["simulate", "--config", config, "--out", out],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == cli.EXIT_OK, argv
        """,
        str(config), str(tmp_path / "out"), watched=("scipy", "numpy.ma"),
    )
    assert (tmp_path / "out" / "trajectories.csv").is_file()
    assert loaded == []


def test_general_plant_commands_do_not_import_scipy(tmp_path):
    # general plants discretize with the package's own stacked exponential
    config = tmp_path / "general.yaml"
    config.write_text(yaml.safe_dump({
        "plant": {"kind": "general", "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        "gain": {"K": [[0.0009, 0.1093]], "T": [[118.0, -121.0], [0.0, 2.0]]},
        "topology": {"random": {"agents": 5, "lambda_band": [0.3, 6.0]}},
        "sampling": {"hbar": 3.0},
    }), encoding="utf-8")
    loaded = modules_after(
        """
        import contextlib, io, sys
        import numpy as np
        from sdconsensus import DesignSpec, PlantModel, cli, design, sim

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["certify", "--config", sys.argv[1]]) == cli.EXIT_OK
        dsn = design(DesignSpec(3.0, 0.3, 6.0))
        di = PlantModel.double_integrator()
        result = sim.run(sim.SimulationConfig(
            n_agents=5, plant=PlantModel.general(di.A, di.B), hbar=3.0, steps=20,
            runs=2, seed=1, topology=sim.TopologyRecipe(0.3, 6.0),
            gain=dsn.K, transform=dsn.T,
        ))
        assert result.certificate.verdict == "certified"
        assert np.isfinite(result.records[0].nu).all()
        """,
        str(config),
    )
    assert loaded == []


def test_step_form_cross_check_does_not_import_scipy():
    loaded = modules_after(
        """
        import numpy as np
        from sdconsensus import DesignSpec, PlantModel, design, sim

        spec, plant = DesignSpec(3.0, 0.3, 6.0), PlantModel.double_integrator()
        dsn = design(spec)
        result = sim.run(sim.SimulationConfig(
            n_agents=5, plant=plant, hbar=spec.hbar, steps=2, runs=1, seed=1,
            topology=sim.TopologyRecipe(0.3, 6.0), design=dsn, verify_step_forms=True,
        ))
        sim.step_kronecker(np.ones((5, 2)), result.pool[0], dsn.K, 1.0, plant)
        """
    )
    assert loaded == []


def test_fixed_mode_on_a_digraph_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # a directed ring's eigenvalues are complex: the certificate folds them
    # and takes their hull without np.unique
    (tmp_path / "ring.graph").write_text("4\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 1 1.0\n",
                                         encoding="utf-8")
    config = tmp_path / "fixed.yaml"
    config.write_text(yaml.safe_dump({
        "plant": {"kind": "double_integrator"},
        "design": {"lambda2": 0.3, "lambdaN": 6.0},
        "topology": {"graphs": ["ring.graph"]},
        "sampling": {"hbar": 3.0},
        "certify": {"mode": "fixed"},
    }), encoding="utf-8")
    loaded = modules_after(
        """
        import contextlib, io, json, sys
        from sdconsensus import cli

        config, report = sys.argv[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["certify", "--config", config, "--report", report]) == cli.EXIT_OK
        assert json.load(open(report))["worst_lambda"][1] != 0.0
        """,
        str(config), str(tmp_path / "report.json"), watched=("scipy", "numpy.ma"),
    )
    assert loaded == []
