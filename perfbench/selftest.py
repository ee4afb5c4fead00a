"""Self-test of the benchmark: every workload, output check and trace wrapper at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the default ``test_*.py`` pattern so the repository's own test
suite does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracing import EXPERIMENTS, Tracer, layer_metrics  # noqa: E402
from workloads import CheckFailed, verify_check  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


# What every wrapper must see at the quick sizes of workloads.py.  Counts the
# program may legitimately change (re-simulations, factorisations) are only
# required to be positive, so a faster design does not fail the self-test.
LAYERS_RUN = {
    "verify_flip": ["coupling.sim_calls", "coupling.pair_steps", "coupling.substreams",
                    "montecarlo.substreams", "kernels.constants_calls", "coupling.peak_mb"]
    + [f"montecarlo.{name}_s" for name in EXPERIMENTS],
    "simulate_wide": ["coupling.sim_calls", "kernels.constants_calls",
                      "kernels.constants_peak_mb", "coupling.peak_mb", "cli.load_s"],
    "gp_sweep_full": ["gp_mcmc.sweep_s", "gp_mcmc.eigh_calls", "gp_mcmc.rows",
                      "gp_mcmc.generate_data_s", "gp_mcmc.busy_over_wall", "cli.write_s"],
    "gp_sweep_desk": ["gp_mcmc.sweep_s", "gp_mcmc.eigh_calls", "gp_mcmc.rows",
                      "gp_mcmc.lowrank_table_calls", "gp_mcmc.logsumexp_calls"],
}
LAYERS_IDLE = {
    "verify_flip": ["gp_mcmc.sweep_s"],
    "simulate_wide": ["montecarlo.substreams", "gp_mcmc.sweep_s"],
    "gp_sweep_full": ["coupling.sim_calls", "kernels.constants_calls"],
    "gp_sweep_desk": ["coupling.sim_calls"],
}


@pytest.mark.parametrize("workload", sorted(LAYERS_RUN))
def test_quick_traced_run(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
    assert result["attempted"] >= 3
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in LAYERS_RUN[workload]:
        assert metrics[name] > 0, name
    for name in LAYERS_IDLE[workload]:
        assert metrics[name] == 0, name
    if workload == "simulate_wide":
        assert metrics["coupling.pair_steps"] == 40 * 50  # one pass, R x n


def test_quick_end_to_end_run():
    proc = _run("verify_flip", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify_flip", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_missing_name_is_an_error():
    import chain_perturb.kernels as kernels

    original = kernels.local_epsilon
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install([("chain_perturb.kernels", "local_epsilon", "kernels.constants", "call"),
                        ("chain_perturb.kernels", "no_such_name", "kernels.constants", "call")])
    assert kernels.local_epsilon is original


def test_self_time_subtracts_the_union_of_children():
    # A sweep [0, 10] whose children, on two threads, cover [1, 7].
    rows = [["cli.main", 0.0, 12.0, -1, 1, None],
            ["gp_mcmc.sweep", 1.0, 11.0, 0, 1, {"rows": 3, "cpu_s": 15.0}],
            ["gp_mcmc.lowrank_table", 2.0, 6.0, 1, 2, None],
            ["gp_mcmc.lowrank_table", 4.0, 8.0, 1, 3, None]]
    m = layer_metrics(rows)
    assert m["gp_mcmc.self_s"] == pytest.approx(4.0)
    assert m["gp_mcmc.busy_over_wall"] == pytest.approx(0.8)
    assert m["gp_mcmc.cpu_over_wall"] == pytest.approx(1.5)
    assert (m["cli.load_s"], m["cli.write_s"]) == (1.0, 1.0)
    assert m["coupling.sim_calls"] == 0


def _verify_outputs(tmp_path, excess):
    """A quick-size verify.csv whose rows sit ``excess[name]`` se above their bound."""
    lines = ["name,estimate,std_error,bound,satisfied,replicates"]
    for name in EXPERIMENTS:
        z = excess.get(name, -1.0)
        lines.append(f"{name},{0.5 + 0.01 * z},0.01,0.5,{str(z <= 3.0).lower()},100")
    (tmp_path / "verify.csv").write_text("\n".join(lines) + "\n")
    return str(tmp_path)


def test_verify_check_tells_an_at_bound_tail_from_a_regression(tmp_path):
    verify_check(_verify_outputs(tmp_path, {"decoupling": 2.9}), None, 1, True)
    with pytest.raises(CheckFailed, match="^at-bound tail: decoupling 3.20 se"):
        verify_check(_verify_outputs(tmp_path, {"decoupling": 3.2}), None, 1, True)
    for excess in ({"tail": 3.2}, {"disagreement": 6.0}, {"decoupling": 3.2, "path_law": 4.0}):
        with pytest.raises(CheckFailed, match="^unsatisfied: "):
            verify_check(_verify_outputs(tmp_path, excess), None, 1, True)
