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
        "UnsupportedGraphError",
        "GraphBandError",
        "SpectrumSummary",
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
    # a name kept public on purpose leaves the list once it gains a caller
    assert not (KEEP_UNUSED & used)
    assert sorted(exported - used - KEEP_UNUSED) == []


def test_no_source_module_raises_a_bare_runtime_error():
    # a request the program cannot serve is a ValueError (exit 2); the one
    # RuntimeError is UncertifiedGainError, which cli maps to exit 4
    # (test_cli's refusal tests check that exit code)
    subclasses = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(exc, ast.Name) and exc.id == "RuntimeError"), (
                    f"{path.name}:{node.lineno}"
                )
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "RuntimeError" for base in node.bases
            ):
                subclasses.append(node.name)
    assert subclasses == ["UncertifiedGainError"]
    assert importlib.import_module("sdconsensus.cli").EXIT_UNCERTIFIED == 4


@pytest.mark.parametrize("tree", ["src", "tests", "bench"])
def test_sources_parse_at_the_declared_python_floor(tree):
    # no syntax newer than pyproject.toml's requires-python (3.10: no except*)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M).group(1))
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, minor))


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


def resolve(path: str):
    """The object a dotted path names: the longest importable module prefix,
    then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr)
        return owner
    raise ImportError(path)


def dotted(node) -> list | None:
    """[name, attr, ...] of an attribute chain on a plain name, else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    return [node.id, *chain] if isinstance(node, ast.Name) else None


def test_the_names_the_bench_resolves_exist():
    # the bench looks package names up at run time: a rename fails here, not
    # only when the benchmark runs
    checked = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name: f"sdconsensus.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "sdconsensus"
            for alias in node.names
        }
        for node in ast.walk(tree):
            chain = dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in modules:
                name = ".".join([modules[chain[0]], *chain[1:]])
                try:
                    resolve(name)
                except (AttributeError, ImportError):
                    pytest.fail(f"{path.relative_to(ROOT)}:{node.lineno}: {name} does not exist")
                checked.add(name)
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value) for node in tracing.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    ]
    for _, owner, function in traced:
        assert callable(getattr(resolve(owner), function, None)), (owner, function)
    # the walk saw the attributes of each module the bench imports
    for module in ("certify", "sim", "graph", "synthesis", "cli"):
        assert any(name.startswith(f"sdconsensus.{module}.") for name in checked), module
