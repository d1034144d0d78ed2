import importlib
import inspect

import pytest

import sdconsensus

MODULES = ["numerics", "graph", "synthesis", "certify", "sim"]


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
    ],
)
def test_removed_test_only_helpers_are_gone(owner, attr):
    assert not hasattr(owner, attr)
