"""Checks on the repository's tooling that the package tests would not notice."""

import importlib
import pathlib
import re
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_package_names_exist():
    # the benchmark's tracer wraps these by name and refuses to run if one is gone
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    names = [(module, attr) for module, attr, *_ in targets
             if module.split(".")[0] == "chain_perturb"]
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_readme_python_blocks_run():
    # a public-API change must not leave a stale quick start behind
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
