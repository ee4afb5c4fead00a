"""Checks on the repository's tooling that the package tests would not notice."""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_package_names_exist():
    # the benchmark's tracer wraps these by name and refuses to run if one is gone
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    names = [(module, attr) for module, attr, *_ in targets
             if module.split(".")[0] == "chain_perturb"]
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
