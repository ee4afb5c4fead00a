import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import chain_perturb.montecarlo as mc
from chain_perturb import (
    DimensionMismatchError,
    ExperimentConfig,
    FiniteKernel,
    StoppingRule,
    base_concentration_threshold,
    closeness_params,
    coupled_concentration_threshold,
    empirical_average_difference,
    empirical_base_tail,
    empirical_decoupling,
    empirical_disagreement,
    empirical_path_law_distance,
    empirical_tail,
    expected_hitting_time,
    initial_disagreement_prob,
    kernel_pair,
    run_experiments,
)
from helpers import pin_batch_size, random_pair, stack_batches

P_EPS, P = kernel_pair(0.25, 0.1)


def flip_config(n=100, replicates=500, seed=7, **kw):
    return ExperimentConfig(p_eps=P_EPS, p=P, n=n, replicates=replicates,
                            master_seed=seed, **kw)


def capped_hitting_law(K, targets, x0, n):
    """Law of ``tau ^ (n + 1)`` on ``0..n+1``, propagating the mass that has not hit yet."""
    on = np.zeros(len(K), dtype=bool)
    on[list(targets)] = True
    alive = np.eye(len(K))[x0]
    law = np.zeros(n + 2)
    for k in range(n + 1):
        law[k] = alive[on].sum()
        alive = np.where(on, 0.0, alive) @ K.rows
    law[n + 1] = 1.0 - law[: n + 1].sum()
    return law


class TestConfigAndParams:
    def test_closeness_params_of_flip_pair(self):
        params = closeness_params(flip_config(x0_eps=0, x0=1))
        assert params.epsilon == pytest.approx(0.1, abs=1e-15)
        assert params.alpha == pytest.approx(0.4, abs=1e-15)
        assert params.a == pytest.approx(0.5, abs=1e-15)
        assert params.p0 == 1.0

    def test_initial_disagreement_variants(self):
        assert initial_disagreement_prob(flip_config(x0_eps=1, x0=1)) == 0.0
        assert initial_disagreement_prob(flip_config(x0_eps=0, x0=1)) == 1.0
        cfg = flip_config(x0_eps=[1.0, 0.0], x0=[0.8, 0.2])
        assert initial_disagreement_prob(cfg) == pytest.approx(0.2, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ExperimentConfig(p_eps=P_EPS, p=np.eye(3), n=5, replicates=1, master_seed=0)

    def test_observable_size_checked(self):
        with pytest.raises(DimensionMismatchError):
            flip_config(f=[0.0, 1.0, 2.0])

    @pytest.mark.parametrize("start", [-1, 2])
    def test_start_index_range_checked(self, start):
        with pytest.raises(ValueError):
            flip_config(x0=start)
        with pytest.raises(ValueError):
            flip_config(x0_eps=start)

    def test_frozen(self):
        # the fields are validated once, at construction
        cfg = flip_config()
        for name, value in (("n", 0), ("replicates", 0), ("x0", 1.5), ("p", P_EPS), ("f", [1.0])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert cfg.n == 100 and cfg.x0 == 0 and cfg.f is None


class TestExpectedHittingTime:
    def test_flip_chain_geometric(self):
        # from state 0 the first visit to 1 is geometric(beta)
        assert expected_hitting_time(P, [1], 0) == pytest.approx(4.0, abs=1e-12)

    def test_three_state_hand_instance(self):
        T = [[0.9, 0.1, 0.0], [0.5, 0.0, 0.5], [0.0, 0.1, 0.9]]
        np.testing.assert_allclose(expected_hitting_time(T, [0]), [0.0, 12.0, 22.0], atol=1e-10)

    def test_from_distribution(self):
        val = expected_hitting_time(P, [1], [0.5, 0.5])
        assert val == pytest.approx(0.5 * 4.0, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(2)
        P_eps, base = random_pair(rng, 5, 0.1)
        exact = expected_hitting_time(base, [4], 0)
        cfg = ExperimentConfig(p_eps=base, p=base, n=max(300, int(60 * exact)),
                               replicates=3000, master_seed=5, x0_eps=0, x0=0)
        batch = stack_batches(cfg.p_eps, cfg.p, 0, 0, cfg.n, cfg.replicates, 5)
        hit = np.array([
            row.argmax() if row.any() else -1
            for row in (batch.x == 4)
        ])
        assert np.all(hit >= 0)
        se = hit.std(ddof=1) / np.sqrt(hit.size)
        assert abs(hit.mean() - exact) <= 3.0 * se

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            expected_hitting_time(P, [], 0)
        with pytest.raises(ValueError):
            expected_hitting_time(P, [5], 0)

    def test_rejects_a_single_state_for_a_set(self):
        with pytest.raises(ValueError, match="collection of states"):
            expected_hitting_time(P, 1)

    @pytest.mark.parametrize("target", [True, 1.0])
    def test_rejects_non_integer_target(self, target):
        # True would otherwise be read as state 1 (4.0 on the flip pair)
        with pytest.raises(ValueError, match="integer states"):
            expected_hitting_time(P, [target], 0)

    def test_unreachable_target_raises(self):
        # state 0 is absorbing, so the target {2} never comes from 0, nor from 1
        # with probability 1/2: both expectations are infinite, and nothing raises
        T = [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]
        np.testing.assert_array_equal(expected_hitting_time(T, [2]), [np.inf, np.inf, 0.0])

    def test_finite_beside_an_unreachable_state(self):
        # state 1 moves to the target in one step, although state 0 never reaches it
        T = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        assert expected_hitting_time(T, [2], 1) == 1.0
        np.testing.assert_array_equal(expected_hitting_time(T, [2]), [np.inf, 1.0, 0.0])
        # a law start weighs only the states it charges
        assert expected_hitting_time(T, [2], [0.0, 0.5, 0.5]) == 0.5
        assert expected_hitting_time(T, [2], [0.5, 0.5, 0.0]) == np.inf

    @pytest.mark.parametrize("eps, bound", [(0.1, 1.0), (0.0, 0.0)])
    def test_infinite_expected_time_checks_run(self, eps, bound):
        # the base chain never leaves state 0, so E[tau] of target {1} is infinite:
        # min(1, eps E[tau]) is 1, or 0 when the chains coincide
        P = FiniteKernel(np.eye(2))
        cfg = ExperimentConfig(FiniteKernel([[1.0 - eps, eps], [0.0, 1.0]]), P, n=20,
                               replicates=50, master_seed=3, x0_eps=0, x0=0,
                               stopping=StoppingRule(kind="hitting", targets=[1]))
        for result in run_experiments(["decoupling", "path_law"], cfg):
            assert result.bound == bound
            assert result.satisfied

    @pytest.mark.parametrize("start", [-1, 2])
    def test_bad_start(self, start):
        with pytest.raises(ValueError):
            expected_hitting_time(P, [1], start)

    def test_does_not_import_numpy_ma(self):
        # a fresh interpreter, so modules another test imported do not count;
        # numpy.ma costs ~15 ms on first import, inside the timed command
        src = os.path.dirname(os.path.dirname(mc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys; from chain_perturb import expected_hitting_time; "
                "expected_hitting_time([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]], [2], 0); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestEmpiricalDisagreement:
    def test_identical_kernels_zero(self):
        cfg = ExperimentConfig(p_eps=P, p=P, n=50, replicates=200, master_seed=1,
                               x0_eps=0, x0=0)
        res = empirical_disagreement(cfg)
        assert res.estimate == 0.0
        assert res.satisfied
        assert res.bound >= 0.0

    def test_flip_pair_satisfied(self):
        res = empirical_disagreement(flip_config(n=200, replicates=1000))
        assert res.satisfied
        assert res.replicates_used == 1000

    def test_stationary_start_occupation(self):
        # initial laws at TV = eps/(alpha+eps) start the dominating chain stationary
        cfg = flip_config(n=100, replicates=2000, x0_eps=[1.0, 0.0], x0=[0.8, 0.2])
        total = np.empty(2000)
        from chain_perturb import iter_coupled_batches
        for batch in iter_coupled_batches(cfg.p_eps, cfg.p, cfg.x0_eps, cfg.x0,
                                          cfg.n, cfg.replicates, cfg.master_seed):
            sl = slice(batch.first_index, batch.first_index + batch.n_traj)
            total[sl] = batch.y[:, :100].mean(axis=1)
        se = total.std(ddof=1) / np.sqrt(total.size)
        assert abs(total.mean() - 0.2) <= 3.0 * se

    def test_reproducible_bit_for_bit(self):
        r1 = empirical_disagreement(flip_config(n=80, replicates=300))
        r2 = empirical_disagreement(flip_config(n=80, replicates=300))
        assert r1.estimate == r2.estimate
        assert r1.std_error == r2.std_error


class TestEmpiricalAverageDifference:
    def test_constant_observable_zero(self):
        res = empirical_average_difference(flip_config(f=[3.0, 3.0], replicates=100, n=40))
        assert res.estimate == 0.0
        assert res.satisfied

    def test_identical_kernels_zero(self):
        cfg = ExperimentConfig(p_eps=P, p=P, n=40, replicates=100, master_seed=3,
                               x0_eps=0, x0=0, f=[0.0, 1.0])
        res = empirical_average_difference(cfg)
        assert res.estimate == 0.0

    def test_flip_pair_satisfied(self):
        res = empirical_average_difference(flip_config(f=[0.0, 1.0], n=150, replicates=800))
        assert res.satisfied

    def test_requires_observable(self):
        with pytest.raises(ValueError):
            empirical_average_difference(flip_config())

    def test_averages_steps_zero_to_n_minus_one(self):
        # unequal starts and a short horizon: step 0 weighs 1/n in each average
        cfg = flip_config(n=10, replicates=300, seed=4, x0_eps=0, x0=1, f=[0.0, 1.0])
        res = empirical_average_difference(cfg)
        batch = stack_batches(P_EPS, P, 0, 1, 10, 300, 4)
        fv = np.array([0.0, 1.0])
        diff = fv[batch.x[:, :10]].mean(axis=1) - fv[batch.x_eps[:, :10]].mean(axis=1)
        assert res.estimate == np.mean(diff ** 2)
        assert res.estimate > 0.0


class TestEmpiricalTails:
    def test_huge_lambda_both_vanish(self):
        res = empirical_tail(flip_config(n=100, replicates=200), lam=50.0)
        assert res.estimate == 0.0
        assert res.bound <= 1e-100
        assert res.satisfied

    def test_flip_pair_lambda_two(self):
        res = empirical_tail(flip_config(n=400, replicates=800), lam=2.0)
        assert res.satisfied

    @pytest.mark.parametrize("starts", [(0, 1), ([0.5, 0.5], [1.0, 0.0])])
    def test_threshold_follows_initial_disagreement(self, starts):
        # each trajectory's threshold carries its own 1{X_0 != X_0^eps}
        cfg = flip_config(n=40, replicates=400, seed=5, x0_eps=starts[0], x0=starts[1])
        res = empirical_tail(cfg, lam=0.2)
        params = closeness_params(cfg)
        batch = stack_batches(P_EPS, P, starts[0], starts[1], 40, 400, 5)
        thr = np.array([coupled_concentration_threshold(0.2, params, bool(d))
                        for d in batch.z[:, 0]])
        assert res.estimate == np.mean(batch.z[:, :40].mean(axis=1) >= thr)
        assert 0.0 < res.estimate < 1.0

    def test_base_tail_requires_observable(self):
        with pytest.raises(ValueError, match="config.f is required for the base tail check"):
            empirical_base_tail(flip_config(), lam=2.0)

    def test_base_tail_counts_deviations_from_mu_f(self):
        # mu f = 1/2 under the flip pair's P (0.3 under P_eps); the deviation level is
        # the threshold paired with the bound, not a multiple of it
        cfg = flip_config(n=40, replicates=400, seed=5, f=[0.0, 1.0])
        res = empirical_base_tail(cfg, lam=0.5)
        thr = base_concentration_threshold(0.5, closeness_params(cfg))
        batch = stack_batches(P_EPS, P, 0, 0, 40, 400, 5)
        assert res.estimate == np.mean(np.abs(0.5 - batch.x[:, :40].mean(axis=1)) >= thr)
        assert 0.0 < res.estimate < 1.0

    def test_base_tail_satisfied(self):
        res = empirical_base_tail(flip_config(f=[0.0, 1.0], n=400, replicates=800), lam=2.0)
        assert res.satisfied

    def test_run_experiment_dispatch(self):
        (res,) = run_experiments(["tail"], flip_config(n=100, replicates=100), lam=3.0)
        assert res.name == "tail"
        with pytest.raises(ValueError):
            run_experiments(["nonsense"], flip_config())


class TestStoppingRule:
    @pytest.mark.parametrize("time", [5.9, 5.0, True, "5", None, 0])
    def test_time_must_be_a_positive_integer(self, time):
        with pytest.raises(ValueError, match="integer time"):
            StoppingRule(kind="deterministic", time=time)

    @pytest.mark.parametrize("targets", [(1.7,), (1.0,), (0, True), ("1",)])
    def test_targets_must_be_integers(self, targets):
        with pytest.raises(ValueError, match="integer states"):
            StoppingRule(kind="hitting", targets=targets)

    @pytest.mark.parametrize("kind, fields, message", [
        ("deterministic", dict(time=5, targets=(1.7, "x")), "deterministic rule reads no targets"),
        ("deterministic", dict(time=5, targets=[1]), "deterministic rule reads no targets"),
        ("hitting", dict(time=2.5, targets=(1,)), "hitting rule reads no time"),
        ("hitting", dict(time=3, targets=(1,)), "hitting rule reads no time"),
    ], ids=["det-bad-targets", "det-targets", "hit-float-time", "hit-time"])
    def test_field_the_kind_does_not_read_is_rejected(self, kind, fields, message):
        # a stray field used to be stored unchecked and then ignored
        with pytest.raises(ValueError, match=message):
            StoppingRule(kind=kind, **fields)

    @pytest.mark.parametrize("kind, fields", [
        ("hitting", dict(targets=5)),
        ("deterministic", dict(time=5, targets=5)),
    ], ids=["hitting", "deterministic"])
    def test_targets_must_be_a_collection(self, kind, fields):
        # a bare state used to raise TypeError: 'int' object is not iterable
        with pytest.raises(ValueError, match="collection of states"):
            StoppingRule(kind=kind, **fields)

    def test_numpy_integers_accepted(self):
        assert StoppingRule(kind="deterministic", time=np.int64(5)).time == 5
        assert StoppingRule(kind="hitting", targets=[np.int32(1), 0]).targets == (1, 0)


class TestFirstHitTimes:
    """The lookup-table hit test against ``np.isin``, bit for bit."""

    @staticmethod
    def isin_hit_times(states, targets, missing):
        hit = np.isin(states, list(targets))
        return np.where(hit.any(axis=1), hit.argmax(axis=1), missing)

    def test_matches_isin_on_random_paths(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            S = int(rng.integers(1, 40))
            states = rng.integers(0, S, size=(int(rng.integers(1, 30)), int(rng.integers(1, 50))),
                                  dtype=np.int32)
            states[0, -1] = S - 1                      # the largest state occurs
            targets = {int(t) for t in rng.integers(0, S, size=int(rng.integers(1, 4)))}
            missing = int(rng.integers(0, 100))
            got = mc._first_hit_times(states, mc._target_table(targets, S), missing)
            np.testing.assert_array_equal(got, self.isin_hit_times(states, targets, missing))
            assert got.dtype == self.isin_hit_times(states, targets, missing).dtype

    def test_matches_isin_on_binary_paths(self):
        batch = stack_batches(P_EPS, P, 0, 0, 30, 200, seed=3)
        for path in (batch.y, batch.z):
            got = mc._first_hit_times(path, mc._ON_ONE, 31)
            np.testing.assert_array_equal(got, self.isin_hit_times(path, [1], 31))
        assert (batch.z.any(axis=1) & ~batch.z.all(axis=1)).any()  # hits and misses both occur


class TestEmpiricalDecoupling:
    def test_deterministic_small_eps(self):
        pe, pb = kernel_pair(0.25, 0.01)
        cfg = ExperimentConfig(p_eps=pe, p=pb, n=20, replicates=2000, master_seed=11,
                               x0_eps=0, x0=0,
                               stopping=StoppingRule(kind="deterministic", time=20))
        res = empirical_decoupling(cfg)
        # per-step decoupling probability on the diagonal is exactly 0.01
        exact = 1.0 - 0.99 ** 20
        assert abs(res.estimate - exact) <= 3.0 * res.std_error + 1e-12
        assert res.satisfied

    def test_identical_kernels_never_decouple(self):
        cfg = ExperimentConfig(p_eps=P, p=P, n=30, replicates=300, master_seed=13,
                               x0_eps=0, x0=0,
                               stopping=StoppingRule(kind="deterministic", time=30))
        res = empirical_decoupling(cfg)
        assert res.estimate == 0.0
        assert res.satisfied

    def test_hitting_rule_satisfied(self):
        rng = np.random.default_rng(4)
        pe, pb = random_pair(rng, 5, 0.02)
        e_tau = expected_hitting_time(pb, [4], 0)
        cfg = ExperimentConfig(p_eps=pe, p=pb, n=int(50 * e_tau) + 1, replicates=2000,
                               master_seed=17, x0_eps=0, x0=0,
                               stopping=StoppingRule(kind="hitting", targets=(4,)))
        res = empirical_decoupling(cfg)
        assert res.satisfied

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_flip_pair_stops_at_horizon(self, n):
        # From (0, 0) each step decouples with probability 0.1 (and X hits 1
        # in that step), moves both chains to 1 with 0.15 and stays with 0.75,
        # so P(S <= tau ^ n) = 0.4 (1 - 0.75^n), below epsilon E[tau] = 0.4.
        cfg = flip_config(n=n, replicates=4000, seed=1,
                          stopping=StoppingRule(kind="hitting", targets=(1,)))
        res = empirical_decoupling(cfg)
        exact = 0.4 * (1.0 - 0.75 ** n)
        assert res.bound == pytest.approx(0.4, abs=1e-12)
        assert res.satisfied
        assert abs(res.estimate - exact) <= 3.0 * res.std_error

    def test_requires_equal_starts(self):
        cfg = flip_config(x0_eps=0, x0=1,
                          stopping=StoppingRule(kind="deterministic", time=10))
        with pytest.raises(ValueError):
            empirical_decoupling(cfg)

    def test_bounding_chain_exact_law(self):
        cfg = flip_config(n=50, replicates=3000,
                          stopping=StoppingRule(kind="deterministic", time=10))
        res = run_experiments(["bounding_decoupling"], cfg)[0]
        exact = 1.0 - 0.9 ** 10
        assert abs(res.estimate - exact) <= 3.0 * res.std_error
        assert res.estimate <= 0.1 * 10 + 3.0 * res.std_error  # linear cap


class TestEmpiricalPathLaw:
    def test_identical_kernels_small(self):
        cfg = ExperimentConfig(p_eps=P, p=P, n=10, replicates=3000, master_seed=19,
                               x0_eps=0, x0=0,
                               stopping=StoppingRule(kind="hitting", targets=(1,)))
        res = empirical_path_law_distance(cfg)
        assert res.bound == 0.0
        assert res.estimate <= 0.08  # plug-in TV bias at this replicate count
        assert res.satisfied

    def test_flip_pair_satisfied(self):
        cfg = flip_config(n=10, replicates=3000,
                          stopping=StoppingRule(kind="hitting", targets=(1,)))
        res = empirical_path_law_distance(cfg)
        assert res.satisfied
        assert res.bound == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_flip_pair_matches_capped_law(self, n):
        cfg = flip_config(n=n, replicates=20_000, seed=1,
                          stopping=StoppingRule(kind="hitting", targets=(1,)))
        res = empirical_path_law_distance(cfg)
        exact = 0.5 * np.abs(capped_hitting_law(P, (1,), 0, n)
                             - capped_hitting_law(P_EPS, (1,), 0, n)).sum()
        if n == 3:
            assert exact == pytest.approx(0.85 ** 3 - 0.75 ** 3, abs=1e-15)
        assert abs(res.estimate - exact) <= 3.0 * res.std_error
        assert res.satisfied

    def test_vacuous_bound_trivially_satisfied(self):
        pe, pb = kernel_pair(0.25, 0.25)  # absorbing perturbed chain: laws far apart
        cfg = ExperimentConfig(p_eps=pe, p=pb, n=10, replicates=500, master_seed=23,
                               x0_eps=0, x0=0,
                               stopping=StoppingRule(kind="hitting", targets=(1,)))
        res = empirical_path_law_distance(cfg)
        assert res.bound == 1.0
        assert res.satisfied


class TestRunExperiments:
    CONFIG = dict(n=60, replicates=300, seed=3, f=[0.0, 1.0],
                  stopping=StoppingRule(kind="hitting", targets=(1,)))

    def test_one_batch_alive_at_a_time(self, monkeypatch):
        # the checks held the previous batch while the next was drawn
        pin_batch_size(monkeypatch, 2000)
        run_experiments(["disagreement"], flip_config(n=100, replicates=10))  # warm up
        peaks = {}
        for replicates in (2000, 6000):
            tracemalloc.start()
            try:
                run_experiments(["disagreement"], flip_config(n=100, replicates=replicates))
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6000] <= 1.15 * peaks[2000]

    def test_verify_flip_peak_memory(self):
        # the verify_flip benchmark's config runs as one batch: 2,500 paths of
        # 401 steps (4 MB with z), one 64-step chunk of their uniforms (3.7 MB,
        # freed before the checks read the batch) and checks that reduce 256
        # rows at a time; 15.6 MiB while a batch of 1,497 held 14 MB of
        # uniforms and each check read the whole batch at once
        names = ["disagreement", "average_difference", "tail", "base_tail", "decoupling",
                 "path_law"]
        config = dict(seed=1, f=[0.0, 1.0], stopping=StoppingRule(kind="hitting", targets=(1,)))
        run_experiments(names, flip_config(n=5, replicates=5, **config))  # warm up
        tracemalloc.start()
        try:
            run_experiments(names, flip_config(n=400, replicates=2500, **config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    @pytest.fixture()
    def sim_calls(self, monkeypatch):
        calls = []
        original = mc.iter_coupled_batches

        def counted(*args, **kwargs):
            calls.append(args[4])  # horizon
            return original(*args, **kwargs)

        monkeypatch.setattr(mc, "iter_coupled_batches", counted)
        return calls

    def test_matches_single_checks_bit_for_bit(self):
        cfg = flip_config(**self.CONFIG)
        single = {
            "disagreement": empirical_disagreement(cfg),
            "average_difference": empirical_average_difference(cfg),
            "tail": empirical_tail(cfg, 1.5),
            "base_tail": empirical_base_tail(cfg, 1.5),
            "decoupling": empirical_decoupling(cfg),
            "path_law": empirical_path_law_distance(cfg),
        }
        together = run_experiments(list(single), cfg, lam=1.5)
        assert [r.name for r in together] == list(single)
        for res in together:
            assert res == single[res.name]

    def test_one_run_per_horizon(self, sim_calls):
        cfg = flip_config(**self.CONFIG)
        run_experiments(["disagreement", "tail", "base_tail", "decoupling"], cfg)
        assert sim_calls == [60]
        run_experiments(["disagreement", "tail", "base_tail", "decoupling", "path_law"], cfg)
        assert sim_calls == [60, 60]

    def test_short_horizon_raises_no_warning(self):
        cfg = flip_config(n=2, replicates=500, seed=3,  # E[tau] = 4 > n
                          stopping=StoppingRule(kind="hitting", targets=(1,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_experiments(["decoupling", "path_law"], cfg)
        assert [r.name for r in results] == ["decoupling", "path_law"]

    _HIT = StoppingRule(kind="hitting", targets=(1,))
    _DET = StoppingRule(kind="deterministic", time=5)

    @pytest.mark.parametrize("name, kw", [
        ("decoupling", {}),
        ("decoupling", dict(stopping=_HIT, x0_eps=1)),
        ("decoupling", dict(stopping=StoppingRule(kind="deterministic", time=21))),
        ("bounding_decoupling", {}),
        ("bounding_decoupling", dict(stopping=_HIT)),
        ("bounding_decoupling", dict(stopping=_DET, x0_eps=1)),
        ("bounding_decoupling", dict(stopping=StoppingRule(kind="deterministic", time=21))),
        ("path_law", {}),
        ("path_law", dict(stopping=_DET)),
        ("path_law", dict(stopping=_HIT, x0_eps=1)),
    ], ids=["decoupling-no-rule", "decoupling-unequal-starts", "decoupling-time-above-n",
            "bounding-no-rule", "bounding-hitting-rule", "bounding-unequal-starts",
            "bounding-time-above-n", "path_law-no-rule", "path_law-deterministic-rule",
            "path_law-unequal-starts"])
    def test_stopping_rule_rejected_before_simulating(self, sim_calls, name, kw):
        with pytest.raises(ValueError):
            run_experiments([name], flip_config(n=20, replicates=10, **kw))
        assert sim_calls == []

    def test_unknown_name_rejected_before_simulating(self, sim_calls):
        with pytest.raises(ValueError, match="nonsense"):
            run_experiments(["disagreement", "nonsense"], flip_config(**self.CONFIG))
        with pytest.raises(ValueError):
            run_experiments(["disagreement", "average_difference"], flip_config())
        assert sim_calls == []

    def test_empty_names_rejected_before_simulating(self, sim_calls):
        # an empty list ran the whole coupled simulation and returned []
        with pytest.raises(ValueError, match="no experiment"):
            run_experiments([], flip_config(**self.CONFIG))
        assert sim_calls == []
