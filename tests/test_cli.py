import csv
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from chain_perturb import kernel_pair
from chain_perturb.cli import main
import chain_perturb.bounds as bounds_mod
import chain_perturb.cli as cli_mod
import chain_perturb.montecarlo as mc_mod
from golden.record import INPUTS
from helpers import DISJOINT_ROUNDING_ROWS, kernel_to_json, pin_batch_size, stack_batches


def test_import_needs_only_numpy():
    # a fresh interpreter, so modules another test imported do not count
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, chain_perturb, chain_perturb.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.fixture()
def pair_file(tmp_path):
    P_eps, P = kernel_pair(0.25, 0.1)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"P": kernel_to_json(P), "P_eps": kernel_to_json(P_eps)}))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConstants:
    def test_prints_and_writes_csv(self, tmp_path, pair_file, capsys):
        rc = main(["--out-dir", str(tmp_path / "out"), "constants", "--pair", str(pair_file)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "a,alpha,epsilon"
        a, alpha, eps = map(float, out[1].split(","))
        assert (a, alpha) == (0.5, 0.4)
        assert eps == pytest.approx(0.1, abs=1e-15)
        rows = read_csv(tmp_path / "out" / "constants.csv")
        assert float(rows[0]["a"]) == 0.5

    def test_manifest_lists_outputs(self, tmp_path, pair_file):
        out = tmp_path / "out"
        main(["--out-dir", str(out), "constants", "--pair", str(pair_file)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "constants"
        assert manifest["outputs"] == ["constants.csv"]
        assert (out / "constants.csv").exists()
        assert "version" in manifest and "duration_s" in manifest

    def test_manifest_duration_survives_clock_steps(self, tmp_path, pair_file, monkeypatch):
        # the wall clock stepping back (an NTP correction, say) must not
        # reach the recorded duration
        wall = itertools.count(1e9, -1000.0)
        monkeypatch.setattr(time, "time", lambda: next(wall))
        out = tmp_path / "out"
        main(["--out-dir", str(out), "constants", "--pair", str(pair_file)])
        duration = json.loads((out / "manifest.json").read_text())["duration_s"]
        assert math.isfinite(duration) and duration >= 0.0

    def test_missing_pair_file_is_usage_error(self, tmp_path):
        rc = main(["--out-dir", str(tmp_path), "constants", "--pair", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_pair_file_not_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "pair.json"
        bad.write_text("P: [[0.5, 0.5]]")
        rc = main(["--out-dir", str(tmp_path / "out"), "constants", "--pair", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "constants.csv").exists()


class TestBounds:
    def test_csv_table(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "bounds", "--alpha", "0.4",
                   "--epsilon", "0.1", "--a", "0.5", "--n", "100", "--p0", "0.5",
                   "--fstar", "0.5", "--lambda", "2.0", "--etau", "30",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,value,raw,capped,regime_ok"
        table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert float(table["avg_disagreement"][1]) == pytest.approx(
            0.2 + (1 - 0.5 ** 100) / (100 * 0.5) * 0.3)
        assert table["decoupling_time"][1] == "1"  # 0.1 * 30 capped by the evaluator

    def test_text_table_and_regime_rows(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "bounds", "--epsilon", "0.1", "--n", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg_disagreement" in out
        assert "false" in out  # regime_ok False rows: no alpha, no a given

    @pytest.mark.parametrize("flags, message", [
        (["--epsilon", "nan"], "epsilon must be in [0, 1]"),
        (["--epsilon", "1.5"], "epsilon must be in [0, 1]"),
        (["--epsilon", "0.1", "--fstar", "nan"], "f_star must be finite"),
        (["--epsilon", "0.1", "--lambda", "nan"], "lambda must be finite and positive"),
    ], ids=["epsilon-nan", "epsilon-above-one", "fstar-nan", "lambda-nan"])
    def test_out_of_range_scalar_exits_2(self, tmp_path, capsys, flags, message):
        # a NaN used to print as a bound with regime_ok=true and exit 0
        rc = main(["--out-dir", str(tmp_path), "bounds", "--alpha", "0.4", "--a", "0.5",
                   "--n", "10", "--lambda", "1"] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bounds.csv").exists()

    def test_alpha_one_is_in_regime(self, tmp_path, capsys):
        # alpha = 1 forces epsilon = 0, and no row divides by zero there
        rc = main(["--out-dir", str(tmp_path), "bounds", "--epsilon", "0", "--alpha", "1",
                   "--a", "1", "--n", "5", "--p0", "0.5", "--fstar", "0.5", "--lambda", "2",
                   "--etau", "3", "--format", "csv"])
        assert rc == 0
        rows = read_csv(tmp_path / "bounds.csv")
        assert len(rows) == 12
        assert {r["regime_ok"] for r in rows} == {"true"}
        assert all(math.isfinite(float(r["raw"])) for r in rows)

    def test_tail_rows_out_of_regime_for_constant_f(self, tmp_path, capsys):
        # at f_star = 0 the paired thresholds are 0 and the tail event always
        # happens; both rows printed 0.9157 with regime_ok=true
        rc = main(["--out-dir", str(tmp_path), "bounds", "--epsilon", "0.1", "--alpha", "0.4",
                   "--a", "0.5", "--n", "50", "--fstar", "0", "--lambda", "10",
                   "--format", "csv"])
        assert rc == 0
        rows = {r["name"]: r for r in read_csv(tmp_path / "bounds.csv")}
        for name in ("base_concentration", "remark_tail"):
            assert rows[name]["regime_ok"] == "false" and rows[name]["raw"] == "", name
        assert rows["coupled_concentration"]["regime_ok"] == "true"
        assert rows["remark_mean_bias"]["regime_ok"] == "true"

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "bounds", "--nonsense", "1"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestSharpness:
    def test_exit_zero_and_gap_column(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "sharpness", "--beta", "0.3",
                   "--eps", "0.05", "--gamma", "0.9", "--nmax", "100"])
        assert rc == 0
        rows = read_csv(out / "sharpness.csv")
        assert len(rows) == 100
        assert all(float(r["gap"]) <= 1e-12 for r in rows)
        assert [r["n"] for r in rows] == [str(n) for n in range(1, 101)]

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["sharpness", "--beta", "0.25", "--eps", "0.1", "--gamma", "1.0", "--nmax", "30"]
        main(["--out-dir", str(tmp_path / "a")] + args)
        main(["--out-dir", str(tmp_path / "b")] + args)
        assert (tmp_path / "a" / "sharpness.csv").read_bytes() == \
            (tmp_path / "b" / "sharpness.csv").read_bytes()


class TestSimulate:
    def test_single_trajectory_csv(self, tmp_path, pair_file):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "simulate", "--pair", str(pair_file),
                   "--n", "40", "--replicates", "1", "--seed", "9"])
        assert rc == 0
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 41
        assert set(rows[0]) == {"step", "x", "x_eps", "z", "y"}

    def test_batch_summary_csv(self, tmp_path, pair_file):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "simulate", "--pair", str(pair_file),
                   "--n", "30", "--replicates", "8", "--seed", "2"])
        assert rc == 0
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 8
        assert set(rows[0]) == {"seed", "n", "disagreement_fraction", "first_decoupling_step"}

    def test_deterministic_output(self, tmp_path, pair_file):
        args = ["simulate", "--pair", str(pair_file), "--n", "25",
                "--replicates", "6", "--seed", "4"]
        main(["--out-dir", str(tmp_path / "a")] + args)
        main(["--out-dir", str(tmp_path / "b")] + args)
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
            (tmp_path / "b" / "summary.csv").read_bytes()

    def test_trajectory_csv_round_trip(self, tmp_path, pair_file):
        rc = main(["--out-dir", str(tmp_path), "simulate", "--pair", str(pair_file), "--n", "25",
                   "--replicates", "1", "--seed", "41", "--x0-eps", "0", "--x0", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 26
        for k, row in enumerate(rows):
            assert int(row["step"]) == k
            assert int(row["z"]) == int(int(row["x"]) != int(row["x_eps"]))
            assert int(row["z"]) <= int(row["y"])
        batch = stack_batches(*cli_mod._load_pair(pair_file), 0, 1, 25, 1, seed=41)
        assert [int(r["x"]) for r in rows] == batch.x[0].tolist()
        assert [int(r["x_eps"]) for r in rows] == batch.x_eps[0].tolist()
        assert [int(r["y"]) for r in rows] == batch.y[0].tolist()

    def test_summary_csv_round_trip(self, tmp_path, pair_file):
        rc = main(["--out-dir", str(tmp_path), "simulate", "--pair", str(pair_file), "--n", "50",
                   "--replicates", "10", "--seed", "43"])
        assert rc == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert len(rows) == 10
        assert rows[0]["n"] == "50"
        batch = stack_batches(*cli_mod._load_pair(pair_file), 0, 0, 50, 10, seed=43)
        fracs = batch.z[:, :50].mean(axis=1)
        for i, row in enumerate(rows):
            assert float(row["disagreement_fraction"]) == pytest.approx(fracs[i])

    def test_bad_start_writes_no_output(self, tmp_path, pair_file):
        rc = main(["--out-dir", str(tmp_path), "simulate", "--pair", str(pair_file), "--n", "5",
                   "--replicates", "3", "--x0", "5"])
        assert rc == 2
        assert not (tmp_path / "summary.csv").exists()


class TestSimulateStreaming:
    def run(self, out, pair_file, capsys, n, replicates, seed=3):
        rc = main(["--out-dir", str(out), "simulate", "--pair", str(pair_file), "--n", str(n),
                   "--replicates", str(replicates), "--seed", str(seed), "--x0", "1"])
        assert rc == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("replicates, name", [(23, "summary.csv"), (1, "trajectory.csv")])
    def test_outputs_independent_of_batch_size(self, tmp_path, pair_file, capsys, monkeypatch,
                                               replicates, name):
        whole = self.run(tmp_path / "whole", pair_file, capsys, 30, replicates)
        for size in (1, 5):
            pin_batch_size(monkeypatch, size)
            out = tmp_path / f"batch{size}"
            assert self.run(out, pair_file, capsys, 30, replicates) == whole
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_peak_memory_independent_of_replicates(self, tmp_path, pair_file, capsys,
                                                   monkeypatch):
        pin_batch_size(monkeypatch, 100)
        self.run(tmp_path / "warm", pair_file, capsys, 40, 10)
        peaks = {}
        for replicates in (200, 2000):
            tracemalloc.start()
            self.run(tmp_path / str(replicates), pair_file, capsys, 40, replicates)
            peaks[replicates] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # holding every replicate costs ~0.75 KB per trajectory, ~1.3 MB more here
        assert peaks[2000] <= peaks[200] + 256 * 1024

    def test_one_batch_alive_at_a_time(self, tmp_path, pair_file, capsys, monkeypatch):
        # simulate held the first batch, and the one before the current, while it drew the next
        pin_batch_size(monkeypatch, 2000)
        self.run(tmp_path / "warm", pair_file, capsys, 100, 10)
        peaks = {}
        for replicates in (2000, 6000):
            tracemalloc.start()
            try:
                self.run(tmp_path / str(replicates), pair_file, capsys, 100, replicates)
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6000] <= 1.15 * peaks[2000]


class TestVerify:
    def write_config(self, tmp_path, pair_file, **extra):
        doc = {
            "pair": pair_file.name,
            "n": 120,
            "replicates": 400,
            "seed": 5,
            "x0": 0,
            "x0_eps": 0,
            "f": [0.0, 1.0],
            "experiments": ["disagreement", "average_difference"],
        }
        doc.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_satisfied_run_exits_zero(self, tmp_path, pair_file, capsys):
        cfg = self.write_config(tmp_path, pair_file)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 0
        rows = read_csv(out / "verify.csv")
        assert [r["name"] for r in rows] == ["disagreement", "average_difference"]
        assert all(r["satisfied"] == "true" for r in rows)
        assert "disagreement" in capsys.readouterr().out

    def test_stopping_rule_config(self, tmp_path, pair_file):
        cfg = self.write_config(
            tmp_path, pair_file,
            experiments=["decoupling", "bounding_decoupling"],
            stopping={"kind": "deterministic", "time": 50},
        )
        rc = main(["--out-dir", str(tmp_path / "out"), "verify", "--config", str(cfg)])
        assert rc == 0

    def test_unsatisfied_exits_one(self, tmp_path, monkeypatch):
        # a real run of the verify_flip config: only the disagreement row reads the halved bound
        bound = bounds_mod.avg_disagreement_bound
        monkeypatch.setattr(bounds_mod, "avg_disagreement_bound", lambda params: bound(params) / 2)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config",
                   str(INPUTS / "verify_flip.json")])
        assert rc == 1
        satisfied = {r["name"]: r["satisfied"] for r in read_csv(out / "verify.csv")}
        assert satisfied.pop("disagreement") == "false"
        assert len(satisfied) == 5 and set(satisfied.values()) == {"true"}

    # each bound evaluator the checks read, and the checks that read it
    READERS = {
        "avg_disagreement_bound": {"disagreement"},
        "coupled_variance_bound": {"average_difference"},
        "coupled_concentration_bound": {"tail"},
        "base_concentration_bound": {"base_tail"},
        "decoupling_time_bound": {"decoupling", "path_law", "bounding_decoupling"},
    }

    def run_planted(self, tmp_path, monkeypatch, evaluator, **extra):
        """``satisfied`` per row of the verify_flip config with ``evaluator`` planted to 0."""
        doc = json.loads((INPUTS / "verify_flip.json").read_text())
        doc.update(pair=str(INPUTS / doc["pair"]), **extra)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.setattr(bounds_mod, evaluator, lambda *args: 0.0)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "verify", "--config", str(cfg)]) == 1
        rows = read_csv(out / "verify.csv")
        assert [r["name"] for r in rows] == doc["experiments"]
        return {r["name"]: r["satisfied"] for r in rows}

    @pytest.mark.parametrize("evaluator", sorted(READERS))
    def test_every_check_can_fail(self, tmp_path, monkeypatch, evaluator):
        # a bound of 0 fails exactly the rows that read it; every other row holds
        satisfied = self.run_planted(tmp_path, monkeypatch, evaluator)
        assert satisfied == {name: "false" if name in self.READERS[evaluator] else "true"
                             for name in satisfied}

    def test_bounding_decoupling_can_fail(self, tmp_path, monkeypatch):
        satisfied = self.run_planted(
            tmp_path, monkeypatch, "decoupling_time_bound",
            stopping={"kind": "deterministic", "time": 5},
            experiments=["disagreement", "decoupling", "bounding_decoupling"])
        assert satisfied == {"disagreement": "true", "decoupling": "false",
                             "bounding_decoupling": "false"}

    def test_no_experiments_exits_two_before_simulating(self, tmp_path, pair_file, monkeypatch):
        # an empty list simulated the whole run and exited 0 with a header-only verify.csv
        def never(*args, **kwargs):
            raise AssertionError("simulated")
        monkeypatch.setattr(mc_mod, "iter_coupled_batches", never)
        cfg = self.write_config(tmp_path, pair_file, experiments=[])
        rc = main(["--out-dir", str(tmp_path / "out"), "verify", "--config", str(cfg)])
        assert rc == 2
        assert not (tmp_path / "out" / "verify.csv").exists()

    def test_numerical_failure_exits_three(self, tmp_path, pair_file, monkeypatch):
        from chain_perturb import NumericalFailureError

        def boom(names, config, lam=1.0):
            raise NumericalFailureError("synthetic")
        monkeypatch.setattr(cli_mod, "run_experiments", boom)
        cfg = self.write_config(tmp_path, pair_file)
        rc = main(["--out-dir", str(tmp_path / "out"), "verify", "--config", str(cfg)])
        assert rc == 3

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 5}")
        rc = main(["--out-dir", str(tmp_path / "out"), "verify", "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("override, message", [
        ({"n": 20.7}, "n must be an integer"),
        ({"replicates": 50.9}, "replicates must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"x0": True}, "x0 must be a state index"),
        ({"x0": 1.5}, "x0 must be a state index"),
        ({"x0": "a"}, "x0 must be a state index"),
        ({"x0_eps": True}, "x0_eps must be a state index"),
        ({"x0_eps": 1.5}, "x0_eps must be a state index"),
        ({"x0_eps": "a"}, "x0_eps must be a state index"),
        ({"seed": 1.5}, "master_seed must be an integer"),
        ({"lambda": "2"}, "lambda must be a real number"),
        ({"experiments": "disagreement"}, "experiments must be a list"),
        ({"experiments": [["disagreement"]]}, "experiments must be a list"),
        ({"lambda": float("nan")}, "lambda must be finite and positive"),
        ({"pair": {"P": 5, "P_eps": {"rows": [[1.0]]}}}, "kernel document must be an object"),
        ({"pair": {"P": "rows", "P_eps": {"rows": [[1.0]]}}}, "kernel document must be an object"),
        ({"pair": {"P": {"rows": [[1.0]], "states": 5}, "P_eps": {"rows": [[1.0]]}}},
         "kernel field 'states' must be a list"),
        ({"pair": {"P": {"rows": [[1.0]], "states": [0, 1]}, "P_eps": {"rows": [[1.0]]}}},
         "kernel field 'states' must be a list of 1 labels"),
        ({"pair": {"P": {"rows": {"a": 1}}, "P_eps": {"rows": [[1.0]]}}},
         "kernel entries must be real numbers"),
        ({"pair": {"P": {"rows": [["0.75", "0.25"], [True, False]]},
                   "P_eps": {"rows": [[0.75, 0.25], [0.25, 0.75]]}}},
         "kernel entries must be real numbers"),
        ({"f": {"a": 1}}, "state function entries must be real numbers"),
        ({"f": ["0", "1"]}, "state function entries must be real numbers"),
    ], ids=["n-float", "replicates-float", "n-bool", "x0-bool", "x0-float", "x0-string",
            "x0_eps-bool", "x0_eps-float", "x0_eps-string", "seed-float", "lambda-string",
            "experiments-string", "experiments-nested", "lambda-nan", "pair-P-int",
            "pair-P-string", "pair-states-int", "pair-states-length", "pair-rows-object",
            "pair-rows-strings-bools", "f-object", "f-strings"])
    def test_mistyped_config_exits_two(self, tmp_path, pair_file, capsys, override, message):
        cfg = self.write_config(tmp_path, pair_file, **override)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "verify.csv").exists()

    @pytest.mark.parametrize("stopping, message", [
        ({"kind": "deterministic", "time": 5.9}, "integer time"),
        ({"kind": "hitting", "targets": [1.7]}, "integer states"),
        ("hitting", "stopping must be an object"),
        ({"kind": "hitting", "targets": 1}, "targets must be a list"),
        ({"kind": "deterministic", "time": 5, "targets": [1]}, "reads no targets"),
        ({"kind": "hitting", "targets": [1], "time": 5}, "reads no time"),
        ({"kind": "exit", "time": 5}, "kind must be 'deterministic' or 'hitting', got 'exit'"),
    ], ids=["time-float", "targets-float", "string", "targets-int", "stray-targets", "stray-time",
            "unknown-kind"])
    def test_malformed_stopping_exits_two(self, tmp_path, pair_file, capsys, stopping, message):
        cfg = self.write_config(tmp_path, pair_file, experiments=["decoupling"], stopping=stopping)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (out / "verify.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc, pair: doc.update(lamda=3.0),
         "config has missing fields [] and unknown fields ['lamda']"),
        (lambda doc, pair: doc.update(x0eps=1, seeds=5),
         "config has missing fields [] and unknown fields ['x0eps', 'seeds']"),
        (lambda doc, pair: doc.update(stopping={"kind": "hitting", "targets": [1], "tme": 5}),
         "stopping has missing fields [] and unknown fields ['tme']"),
        (lambda doc, pair: pair.update(P_epsilon=pair["P_eps"]),
         "pair has missing fields [] and unknown fields ['P_epsilon']"),
        (lambda doc, pair: pair["P"].update(label="base"),
         "kernel document has missing fields [] and unknown fields ['label']"),
        (lambda doc, pair: doc.pop("pair"),
         "config has missing fields ['pair'] and unknown fields []"),
        (lambda doc, pair: doc.pop("n"),
         "config has missing fields ['n'] and unknown fields []"),
        (lambda doc, pair: (doc.pop("replicates"), doc.update(reps=5)),
         "config has missing fields ['replicates'] and unknown fields ['reps']"),
        (lambda doc, pair: doc.update(stopping={"time": 5}),
         "stopping has missing fields ['kind'] and unknown fields []"),
        (lambda doc, pair: pair.pop("P_eps"),
         "pair has missing fields ['P_eps'] and unknown fields []"),
        (lambda doc, pair: pair["P"].pop("rows"),
         "kernel document has missing fields ['rows'] and unknown fields []"),
    ], ids=["lamda", "x0eps-seeds", "stopping-tme", "pair-extra", "kernel-extra", "no-pair",
            "no-n", "no-replicates", "stopping-no-kind", "pair-no-P_eps", "kernel-no-rows"])
    def test_unknown_or_missing_field_exits_two_before_simulating(
            self, tmp_path, pair_file, capsys, monkeypatch, edit, message):
        # an unknown key used to be ignored: "lamda" ran at lambda = 1 and exited 0
        def never(*args, **kwargs):
            raise AssertionError("simulated")
        monkeypatch.setattr(mc_mod, "iter_coupled_batches", never)
        cfg = self.write_config(tmp_path, pair_file, experiments=["disagreement", "decoupling"],
                                stopping={"kind": "hitting", "targets": [1]})
        doc, pair = json.loads(cfg.read_text()), json.loads(pair_file.read_text())
        edit(doc, pair)
        pair_file.write_text(json.dumps(pair))
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (out / "verify.csv").exists()

    def test_config_not_json_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{'n': 5}")
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
        assert not (out / "verify.csv").exists()

    def test_pair_file_not_json_named_by_config_exits_two(self, tmp_path, capsys):
        # the message names the pair file, not the config that names it
        pair = tmp_path / "pair.json"
        pair.write_text("nope")
        cfg = self.write_config(tmp_path, pair)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pair}: Expecting value") and err.count("\n") == 1
        assert not (out / "verify.csv").exists()

    def test_base_tail_of_a_constant_f_exits_two_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        # |f|_* = 0 puts the threshold at 0, so the event |avg - mu f| >= 0 is sure; at
        # lambda = 10 the bound 2 exp(-a^2 lambda^2 / 32) is below 1 and a correct chain failed
        def never(*args, **kwargs):
            raise AssertionError("simulated")
        monkeypatch.setattr(mc_mod, "iter_coupled_batches", never)
        doc = {"pair": str(INPUTS / "flip_pair.json"), "n": 50, "replicates": 200,
               "f": [3, 3], "lambda": 10.0, "experiments": ["disagreement", "base_tail"]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: f_star must be finite and positive") and err.count("\n") == 1
        assert not (out / "verify.csv").exists()

    @pytest.mark.parametrize("rows, f, targets, experiments", [
        ([[0.5, 0.5], [0.5, 0.5]], [0, 1], [1],
         ["disagreement", "average_difference", "tail", "base_tail", "decoupling", "path_law"]),
        # f on one state is constant, which base_tail rejects
        ([[1.0]], [0], [0], ["disagreement", "average_difference", "tail", "decoupling",
                             "path_law"]),
    ], ids=["equal-rows", "one-state"])
    def test_alpha_one_runs(self, tmp_path, capsys, rows, f, targets, experiments):
        # identical kernels whose rows are all equal: constants 1,1,0, so alpha = 1
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"P": kernel_to_json(rows), "P_eps": kernel_to_json(rows)}))
        cfg = self.write_config(tmp_path, pair, n=50, replicates=200, f=f,
                                stopping={"kind": "hitting", "targets": targets},
                                experiments=experiments)
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 0
        text = capsys.readouterr().out + (out / "verify.csv").read_text()
        assert "nan" not in text
        assert [r["name"] for r in read_csv(out / "verify.csv")] == experiments

    def test_base_kernel_without_doeblin_constant_exits_two(self, tmp_path, capsys):
        # the periodic flip has a = 0, which no verify config can override
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"P": kernel_to_json([[0.0, 1.0], [1.0, 0.0]]),
                                    "P_eps": kernel_to_json([[0.1, 0.9], [0.9, 0.1]])}))
        cfg = self.write_config(tmp_path, pair, experiments=["base_tail"])
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "a > 0" in err
        assert not (out / "verify.csv").exists()

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "verify", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config must be an object, got list" in err and err.count("\n") == 1
        assert not (out / "verify.csv").exists()

    def test_start_outside_state_space_exits_two(self, tmp_path, pair_file, capsys):
        cfg = self.write_config(tmp_path, pair_file, x0=5, x0_eps=5, experiments=["path_law"],
                                stopping={"kind": "hitting", "targets": [1]})
        rc = main(["--out-dir", str(tmp_path / "out"), "verify", "--config", str(cfg)])
        assert rc == 2
        assert "initial state 5" in capsys.readouterr().err


@pytest.mark.parametrize("P, P_eps", [
    ([[0.5, 0.5], [0.5, 0.5]], [[0.3, 0.7], [0.3, 0.7]]),
    ([[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.1], [0.2, 0.8]]),
    ([[1.0]], [[1.0]]),
    ([[1.0, 0.0], [0.5, 0.5]], [[0.9, 0.1], [0.5, 0.5]]),
    ([[0.0, 1.0], [1.0, 0.0]], [[0.1, 0.9], [0.9, 0.1]]),
    ([[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [0.1, 0.9]]),
], ids=["equal-rows", "identical", "one-state", "absorbing", "flip", "disjoint-rows"])
def test_degenerate_pair_gives_an_answer_or_one_error(tmp_path, capsys, P, P_eps):
    # every regime edge exits 0 with no nan anywhere, or 2 with one error line;
    # none exits 3.  bounds reads the pair's own constants, a = 0 left out as
    # closeness_params does, and verify runs each check the pair admits
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"P": kernel_to_json(P), "P_eps": kernel_to_json(P_eps)}))

    def run(name, args):
        out = tmp_path / name
        rc = main(["--out-dir", str(out)] + args)
        stdout, err = capsys.readouterr()
        if rc == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        else:
            assert rc == 0, (name, rc, err)
            texts = [stdout] + [f.read_text() for f in out.iterdir()]
            assert not any("nan" in text for text in texts), name
        return stdout

    constants = run("constants", ["constants", "--pair", str(pair)]).splitlines()
    a, alpha, eps = map(float, constants[1].split(","))
    flags = ["--epsilon", repr(eps), "--alpha", repr(alpha), "--n", "20", "--p0", "0.5",
             "--fstar", "0.5", "--lambda", "2", "--etau", "3", "--format", "csv"]
    run("bounds", ["bounds"] + flags + (["--a", repr(a)] if a > 0.0 else []))
    states = len(P)
    hitting = ["disagreement", "average_difference", "tail", "decoupling", "path_law"]
    if a > 0.0 and states > 1:  # base_tail needs a > 0 and an f that is not constant
        hitting.append("base_tail")
    groups = [({"kind": "hitting", "targets": [states - 1]}, hitting),
              ({"kind": "deterministic", "time": 5}, ["decoupling", "bounding_decoupling"])]
    for k, (stopping, experiments) in enumerate(groups):
        cfg = tmp_path / f"config{k}.json"
        cfg.write_text(json.dumps({"pair": "pair.json", "n": 30, "replicates": 200,
                                   "f": [float(s) for s in range(states)],
                                   "stopping": stopping, "experiments": experiments}))
        run(f"verify{k}", ["verify", "--config", str(cfg)])


def test_constants_of_disjoint_rows_stay_in_unit_interval(tmp_path, capsys):
    # unclamped, constants printed alpha = -2.2e-16 and epsilon = 1.0000000000000002,
    # and verify exited 2 on this valid pair
    p, q = DISJOINT_ROUNDING_ROWS
    pair = tmp_path / "pair.json"
    # the rows as written: kernel_to_json would store them normalised once already
    pair.write_text(json.dumps({"P": {"rows": [p, p, p, p, q]},
                                "P_eps": {"rows": [q, p, p, p, q]}}))
    assert main(["--out-dir", str(tmp_path / "c"), "constants", "--pair", str(pair)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,1"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pair": "pair.json", "n": 30, "replicates": 200,
                               "f": [0.0, 1.0, 2.0, 3.0, 4.0],
                               "stopping": {"kind": "hitting", "targets": [4]},
                               "experiments": ["disagreement", "average_difference", "tail",
                                               "decoupling", "path_law"]}))
    rc = main(["--out-dir", str(tmp_path / "v"), "verify", "--config", str(cfg)])
    assert rc == 0, capsys.readouterr().err


class TestGpSweep:
    def test_small_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "gp-sweep", "--n", "20", "--m", "2",
                   "--replicates", "2", "--seed", "3"])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert set(rows[0]) == {"replicate", "q", "epsilon", "alpha", "ratio"}
        snap = json.loads((out / "config.json").read_text())
        assert snap["n"] == 20 and snap["m"] == 2
        assert snap["prior_a"] == 2.0 and snap["prior_b"] == 2.0
        assert snap["replicates"] == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["config.json", "sweep.csv"]

    @pytest.mark.parametrize("qmax", ["0", "-3"])
    def test_nonpositive_qmax_exits_two(self, tmp_path, capsys, qmax):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "gp-sweep", "--n", "20", "--m", "2",
                   "--replicates", "1", "--qmax", qmax])
        assert rc == 2
        assert "qmax" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("n", ["300", "301"])
    def test_rows_do_not_depend_on_blas_threads(self, tmp_path, n):
        # one and two OpenBLAS threads give the same rows within 1e-12; a
        # jittered Cholesky factor of the latent covariance moved epsilon by
        # ~6e-6.  On a one-core host both runs take one thread
        src = os.path.dirname(os.path.dirname(cli_mod.__file__))
        tables = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "chain_perturb.cli", "--out-dir", str(out),
                            "gp-sweep", "--n", n, "--m", "2"], env=env, check=True,
                           capture_output=True)
            tables.append(np.genfromtxt(out / "sweep.csv", delimiter=",", names=True))
        one, two = tables
        np.testing.assert_array_equal(one[["replicate", "q"]], two[["replicate", "q"]])
        for col in ("epsilon", "alpha", "ratio"):
            np.testing.assert_allclose(one[col], two[col], rtol=0.0, atol=1e-12, err_msg=col)

    def test_nan_eps_threshold_exits_two(self, tmp_path, capsys):
        # it swept every rank and wrote NaN, which is not JSON, into config.json
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "gp-sweep", "--n", "20", "--m", "2",
                   "--replicates", "1", "--eps-threshold", "nan"])
        assert rc == 2
        assert "eps_threshold" in capsys.readouterr().err
        assert not (out / "config.json").exists()
