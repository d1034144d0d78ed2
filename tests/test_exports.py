import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdconsensus

MODULES = ["numerics", "graph", "synthesis", "certify", "sim"]
ROOT = Path(__file__).resolve().parent.parent
# public on purpose although no program code calls them: the network
# contraction kernel and the bounds that acceptance criterion 6 imports
KEEP_UNUSED = {
    "network_contraction",
    "reduced_laplacian",
    "gershgorin_sv_bound",
    "block_gershgorin_sv_bound",
    "complex_block_split",
}


def module_exports(name):
    module = importlib.import_module(f"sdconsensus.{name}")
    return module, module.__all__


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_package_exports(name):
    module, exported = module_exports(name)
    for attr in exported:
        assert hasattr(module, attr), attr
        assert getattr(sdconsensus, attr) is getattr(module, attr), attr


def test_package_exports_nothing_outside_module_all():
    declared = {attr for name in MODULES for attr in module_exports(name)[1]}
    public = {
        attr
        for attr, value in vars(sdconsensus).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert public == declared


@pytest.mark.parametrize(
    "attr",
    [
        "search_design",
        "laplacian_disc_radius",
        "DiscretizedPlant",
        "ReductionBasis",
        "closed_loop_matrix",
        "transformed_entries",
    ],
)
def test_removed_study_api_is_gone(attr):
    assert not hasattr(sdconsensus, attr)
    for name in MODULES:
        assert not hasattr(module_exports(name)[0], attr)


@pytest.mark.parametrize(
    "owner, attr",
    [
        (sdconsensus.PlantModel, "discretize_many"),
        (sdconsensus.WeightedDigraph, "complete"),
        (sdconsensus.WeightedDigraph, "in_degrees"),
        (importlib.import_module("sdconsensus.cli"), "serialize_config"),
        (importlib.import_module("sdconsensus.cli"), "write_graph_file"),
        (importlib.import_module("sdconsensus.synthesis"), "_assemble"),
    ],
)
def test_removed_test_only_helpers_are_gone(owner, attr):
    assert not hasattr(owner, attr)


def referenced_names(paths, strings: bool) -> set:
    """Identifiers (names and attributes) that the files refer to, plus, with
    ``strings``, every string constant (the bench names traced functions)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_export_has_a_user():
    # an import, a definition, a docstring or an __all__ entry is not a use
    used = referenced_names(sorted((ROOT / "src" / "sdconsensus").glob("*.py")), strings=False)
    used |= referenced_names(sorted((ROOT / "bench").glob("*.py")), strings=True)
    exported = {attr for name in MODULES for attr in module_exports(name)[1]}
    assert KEEP_UNUSED <= exported
    assert sorted(exported - used - KEEP_UNUSED) == []


def test_version_has_one_value_and_the_module_entry_point_prints_it():
    # a regex, not tomllib: the package supports Python 3.10
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == sdconsensus.__version__
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sdconsensus.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{sdconsensus.__version__}\n", "")
