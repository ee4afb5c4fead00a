"""Checks on the repository's tooling that the package tests would not notice."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re
import runpy

import chain_perturb
from chain_perturb import (
    ExperimentConfig,
    StoppingRule,
    bounds,
    cli,
    closeness_params,
    expected_hitting_time,
    kernel_pair,
    montecarlo,
    run_experiments,
)
from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "chain_perturb"

_TRACED = "the benchmark's tracer wraps it by name; it goes once stage records replace the tracer"
_EXACT_ROW = "its caller comes with the exact bounds-table rows of verify"
# Exported names that no package code calls, each with the reason it stays public.
UNCALLED_EXPORTS = {
    "empirical_disagreement": _TRACED,
    "empirical_average_difference": _TRACED,
    "empirical_tail": _TRACED,
    "empirical_base_tail": _TRACED,
    "empirical_decoupling": _TRACED,
    "empirical_path_law_distance": _TRACED,
    "n_step_average_law": _EXACT_ROW,
    "remark_tail_threshold": _EXACT_ROW,
    "product_kernel_row": "the one-step pair law an exact-law oracle of the coupled chain propagates",
    "kernel_pair": "the example family of the README quick start",
}

# Each bounds-table row that a verify check tests, with the name of that check.
CHECKED_ROWS = {
    "avg_disagreement": "disagreement",
    "coupled_variance": "average_difference",
    "coupled_concentration": "tail",
    "base_concentration": "base_tail",
    "decoupling_time": "decoupling",
    "path_law": "path_law",
}

_EXACT_CHECK = "; its verify check comes with the exact bounds-table rows"
# Bounds-table rows that no verify check tests, each with the reason.
UNCHECKED_ROWS = {
    "averaged_tv": "acceptance criterion 1 tests it exactly on the two-state family" + _EXACT_CHECK,
    "variance_of_time_average": "no test holds it against a chain yet" + _EXACT_CHECK,
    "stationary_gap": "acceptance criterion 6 tests it exactly on random pairs" + _EXACT_CHECK,
    "remark_mean_bias": "acceptance criterion 12 tests it on the flip pair only" + _EXACT_CHECK,
    "remark_second_moment": "no test holds it against a chain yet" + _EXACT_CHECK,
    "remark_tail": "no test holds it against a chain yet" + _EXACT_CHECK,
}

# Each key of a verify config, "stopping.<key>" for a key of its stopping
# object, with the ExperimentConfig or StoppingRule fields or the
# run_experiments parameter that it sets.
VERIFY_KEYS = {
    "pair": {"ExperimentConfig.p_eps", "ExperimentConfig.p"},
    "n": {"ExperimentConfig.n"},
    "replicates": {"ExperimentConfig.replicates"},
    "seed": {"ExperimentConfig.master_seed"},
    "x0_eps": {"ExperimentConfig.x0_eps"},
    "x0": {"ExperimentConfig.x0"},
    "f": {"ExperimentConfig.f"},
    "stopping": {"ExperimentConfig.stopping"},
    "stopping.kind": {"StoppingRule.kind"},
    "stopping.time": {"StoppingRule.time"},
    "stopping.targets": {"StoppingRule.targets"},
    "experiments": {"run_experiments.names"},
    "lambda": {"run_experiments.lam"},
}

# Package definitions outside kernels.py that read ``_is_integer`` directly
# instead of through ``kernels._count``, each with the reason it may.
INTEGER_TEST_READERS = {
    "_as_initial": "it dispatches on the test: an integer is a state, anything else a distribution",
    "StoppingRule": "its messages ('integer time', 'integer states') are part of the tested contract",
}

# Package definitions outside kernels.py that call ``np.abs``, each with the
# reason it is not a TV distance, which goes through ``kernels._row_tv``.
ABS_CALLERS = {
    "_base_tail": "it measures how far a time average lies from mu f, not a TV distance",
    "_latent_factor": "it signs each latent column by its entry of largest magnitude, not a TV",
}

# Package definitions that read the attribute ``.stopping``, each with the
# reason it may: the rule checks and ``tau`` of every stopping-time check.
STOPPING_READERS = {
    "_stopping": "it checks the rule once and gives every stopping-time check its E[tau] and tau",
}


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


def test_readme_private_names_exist():
    # a renamed constant or helper must not leave stale README text behind
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    cited = {(module, name) for module, name in
             re.findall(r"\b(\w+)\.(_\w+)", (ROOT / "README.md").read_text())
             if module in modules}
    assert ("coupling", "_FRESH_ROWS") in cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"chain_perturb.{module}"), name)]
    assert missing == []


def package_nodes(skip=()):
    """``(definer, node)`` for every AST node of package code outside the files ``skip``.

    ``definer`` is the name the enclosing top-level statement binds (a
    function or class), or the file name for any other statement.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in skip:
            continue
        for stmt in ast.parse(path.read_text()).body:
            definer = getattr(stmt, "name", path.name)
            for node in ast.walk(stmt):
                yield definer, node


def _read_name(node):
    """The name a ``Name`` or an attribute access reads, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def package_references():
    """Names that package code reads, each outside the definition that binds it."""
    return {name for definer, node in package_nodes(skip=("__init__.py",))
            if (name := _read_name(node)) is not None and name != definer}


def exporting_modules():
    """The modules whose ``__all__`` ``__init__.py`` re-exports, in import order."""
    return [importlib.import_module(f"chain_perturb.{node.module}")
            for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom)]


def test_each_public_name_is_declared_once():
    modules = exporting_modules()
    declared = [name for module in modules for name in module.__all__]
    # under a wildcard re-export a later module would shadow an earlier one's name
    assert sorted({name for name in declared if declared.count(name) > 1}) == []
    assert [f"{module.__name__}.{name}" for module in modules for name in module.__all__
            if getattr(chain_perturb, name, None) is not getattr(module, name)] == []
    public = {name for name in dir(chain_perturb) if not name.startswith("_")
              and not inspect.ismodule(getattr(chain_perturb, name))}
    assert sorted(public.symmetric_difference(declared)) == []


def test_every_export_has_a_package_caller():
    # tests are not callers: a name only tests read belongs in tests/oracles.py
    exported = [name for module in exporting_modules() for name in module.__all__]
    used = package_references()
    uncalled = [name for name in exported if name not in used]
    assert [name for name in uncalled if name not in UNCALLED_EXPORTS] == []
    # an entry whose name gained a caller or left the package is stale
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)


def test_integer_test_is_read_through_count():
    # a count checked by hand outside kernels.py drifts from kernels._count
    readers = {d for d, node in package_nodes(skip=("kernels.py",))
               if _read_name(node) == "_is_integer"}
    assert sorted(readers - set(INTEGER_TEST_READERS)) == []
    # an entry that no longer reads the test is stale
    assert sorted(readers) == sorted(INTEGER_TEST_READERS)


def test_tv_is_read_through_kernels():
    # a TV distance computed by hand outside kernels.py drifts from kernels._row_tv
    callers = {d for d, node in package_nodes(skip=("kernels.py",))
               if isinstance(node, ast.Attribute) and node.attr == "abs"
               and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert sorted(callers - set(ABS_CALLERS)) == []
    # an entry that no longer calls np.abs is stale
    assert sorted(callers) == sorted(ABS_CALLERS)


def test_stopping_rule_is_read_in_one_place():
    # a check that reads config.stopping itself drifts from montecarlo._stopping
    readers = {d for d, node in package_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "stopping"}
    assert sorted(readers - set(STOPPING_READERS)) == []
    # an entry that no longer reads the rule is stale
    assert sorted(readers) == sorted(STOPPING_READERS)


def test_every_report_row_is_checked_or_listed():
    # a new bounds-table row needs a verify check or a stated reason why it has none
    rows = [name for name, *_ in bounds._ROWS]
    assert set(CHECKED_ROWS).isdisjoint(UNCHECKED_ROWS)
    # an entry whose row was renamed or deleted, or whose check was, is stale
    assert sorted(rows) == sorted([*CHECKED_ROWS, *UNCHECKED_ROWS])
    assert set(CHECKED_ROWS.values()) <= set(montecarlo.EXPERIMENT_NAMES)
    # each listed check takes its bound from the row it is listed under, and no
    # check takes one from a row this map leaves out
    assert {row: montecarlo._CHECKS[check][0] for row, check in CHECKED_ROWS.items()} == \
        {row: row for row in CHECKED_ROWS}
    assert {row for row, _ in montecarlo._CHECKS.values()} == set(CHECKED_ROWS)


def test_checked_rows_are_the_bounds_of_their_checks():
    # one shared config: a check holds its estimate against its row's raw value
    P_eps, P = kernel_pair(0.25, 0.1)
    rule = StoppingRule("hitting", targets=(1,))
    config = ExperimentConfig(p_eps=P_eps, p=P, n=20, replicates=4, master_seed=3,
                              f=[0.0, 1.0], stopping=rule)
    lam = 1.5
    raw = {r.name: r.raw for r in bounds.evaluate_report_table(
        closeness_params(config), lam=lam,
        expected_tau=expected_hitting_time(P, rule.targets, config.x0))}
    results = run_experiments(CHECKED_ROWS.values(), config, lam)
    assert {row: result.bound for row, result in zip(CHECKED_ROWS, results)} == \
        {row: raw[row] for row in CHECKED_ROWS}


def test_mutant_catalogue_matches_the_code():
    # an entry whose old text left its file, or occurs twice, mutates nothing or the wrong line
    assert [(file, old) for file, old, _, _ in MUTANTS
            if (ROOT / file).read_text().count(old) != 1] == []


def test_every_verify_key_sets_one_setting():
    # a key the verify command reads but no field takes, or a field no key sets, is stale
    read = {key: {f"ExperimentConfig.{f}" for f in ((field,) if isinstance(field, str) else field)}
            for key, field in cli._CONFIG_FIELDS.items()}
    read.update({key: {f"run_experiments.{param}"} for key, param in cli._RUN_PARAMS.items()})
    read.update({f"stopping.{key}": {f"StoppingRule.{key}"}
                 for key in [*cli._STOPPING_REQUIRED, *cli._STOPPING_OPTIONAL]})
    assert read == VERIFY_KEYS
    fields = [(f"{cls.__name__}.{field.name}", field.default)
              for cls in (ExperimentConfig, StoppingRule) for field in dataclasses.fields(cls)]
    settable = {name for name, _ in fields}
    settable |= {f"run_experiments.{name}"
                 for name in inspect.signature(run_experiments).parameters if name != "config"}
    assert set().union(*VERIFY_KEYS.values()) == settable
    # a key is required exactly when its field has no default; "seed" defaults to 0
    required = [*cli._REQUIRED_KEYS, *(f"stopping.{key}" for key in cli._STOPPING_REQUIRED)]
    assert set().union(*(read[key] for key in required)) == \
        {name for name, default in fields if default is dataclasses.MISSING} - \
        {"ExperimentConfig.master_seed"}
