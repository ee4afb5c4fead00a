import tracemalloc
import warnings

import numpy as np
import pytest

from chain_perturb import (
    DimensionMismatchError,
    FiniteKernel,
    InvalidRegimeError,
    ProbDist,
    cross_doeblin_constant,
    doeblin_constant,
    f_star_norm,
    invariant_measure,
    kernel_from_json,
    kernel_pair,
    local_epsilon,
    n_step_average_law,
    StateFunction,
    tv_distance,
)
from helpers import (DISJOINT_ROUNDING_ROWS, kernel_to_json, power_iteration_mu, random_dist,
                     random_kernel, random_pair)
from oracles import perturbed_power_closed_form, poisson_solve


def brute_force_max_tv(rows_a, rows_b):
    worst = 0.0
    for i in range(rows_a.shape[0]):
        for j in range(rows_b.shape[0]):
            worst = max(worst, 0.5 * float(np.abs(rows_a[i] - rows_b[j]).sum()))
    return worst


class TestTvDistance:
    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_half_l1_by_hand(self):
        # 0.5 * (|0.5-0.9| + |0.5-0.1|) = 0.4
        assert tv_distance([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.4, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tv_distance([1.0], [0.5, 0.5])

    def test_disjoint_rows_whose_sum_rounds_above_two(self):
        # unclamped they gave a = alpha = -2.2e-16 and epsilon = 1.0000000000000002
        p, q = DISJOINT_ROUNDING_ROWS
        P, P_eps = FiniteKernel([p, p, p, p, q]), FiniteKernel([q, p, p, p, q])
        assert tv_distance(P.rows[0], q) == 1.0
        assert doeblin_constant(P) == 0.0 and cross_doeblin_constant(P_eps, P) == 0.0
        assert local_epsilon(P_eps, P) == 1.0

    def test_metric_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, q, r = (random_dist(rng, 5) for _ in range(3))
            assert tv_distance(p, q) == tv_distance(q, p)
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
            assert tv_distance(p, p) <= 1e-12
            assert 0.0 <= tv_distance(p, q) <= 1.0


class TestClosenessConstants:
    def test_doeblin_flip_chain(self):
        # two-state chain with flip probability 0.25 has a = 2 * 0.25
        P = FiniteKernel([[0.75, 0.25], [0.25, 0.75]])
        assert doeblin_constant(P) == pytest.approx(0.5, abs=1e-15)

    def test_doeblin_identity_kernel(self):
        assert doeblin_constant(np.eye(2)) == 0.0

    def test_doeblin_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            P = random_kernel(rng, 4)
            assert doeblin_constant(P) == pytest.approx(
                1.0 - brute_force_max_tv(P.rows, P.rows), abs=1e-14)

    def test_local_epsilon_flip_pair(self):
        P_eps, P = kernel_pair(0.25, 0.1)
        assert local_epsilon(P_eps, P) == pytest.approx(0.1, abs=1e-15)

    def test_local_epsilon_identical(self):
        P = random_kernel(np.random.default_rng(1), 3)
        assert local_epsilon(P, P) == 0.0

    def test_local_epsilon_matches_enumeration(self):
        rng = np.random.default_rng(17)
        P_eps, P = random_pair(rng, 5, 0.3)
        expected = max(tv_distance(P_eps.rows[x], P.rows[x]) for x in range(5))
        assert local_epsilon(P_eps, P) == pytest.approx(expected, abs=1e-14)

    def test_cross_doeblin_flip_pair(self):
        # the four row pairs attain max TV = 1 - (2 beta - eps) at the (0, 1) pair
        P_eps, P = kernel_pair(0.25, 0.1)
        assert cross_doeblin_constant(P_eps, P) == pytest.approx(0.4, abs=1e-15)
        assert brute_force_max_tv(P_eps.rows, P.rows) <= 1.0 - (2 * 0.25 - 0.1) + 1e-15

    def test_cross_reduces_to_doeblin(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            P = random_kernel(rng, n)
            assert cross_doeblin_constant(P, P) == doeblin_constant(P)

    def test_cross_matches_brute_force(self):
        rng = np.random.default_rng(23)
        P_eps, P = random_pair(rng, 4, 0.4)
        assert cross_doeblin_constant(P_eps, P) == pytest.approx(
            1.0 - brute_force_max_tv(P_eps.rows, P.rows), abs=1e-14)

    def test_constants_memory_is_quadratic(self):
        # S = 300: the all-pairs difference tensor alone would be 8 S^3 bytes (216 MB)
        s = 300
        P_eps, P = random_pair(np.random.default_rng(31), s, 0.2)
        for fn, args in ((doeblin_constant, (P,)), (cross_doeblin_constant, (P_eps, P))):
            tracemalloc.start()
            try:
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * s * s * 8, (fn.__name__, peak)

    def test_transfer_consistency_property(self):
        # alpha >= a - epsilon on random pairs
        rng = np.random.default_rng(7)
        for _ in range(25):
            P_eps, P = random_pair(rng, 4, rng.uniform(0.05, 0.5))
            a = doeblin_constant(P)
            eps = local_epsilon(P_eps, P)
            alpha = cross_doeblin_constant(P_eps, P)
            assert alpha >= a - eps - 1e-12


class TestInvariantMeasure:
    def test_flip_chain_uniform(self):
        for beta in (0.1, 0.25, 0.5):
            mu = invariant_measure(FiniteKernel([[1 - beta, beta], [beta, 1 - beta]]))
            np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=1e-13)

    def test_bounding_chain_stationary(self):
        mu = invariant_measure(FiniteKernel([[0.9, 0.1], [0.4, 0.6]]))
        np.testing.assert_allclose(mu.weights, [0.8, 0.2], atol=1e-13)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            P = random_kernel(rng, 5)
            mu = invariant_measure(P)
            np.testing.assert_allclose(mu.weights, power_iteration_mu(P), atol=1e-10)

    def test_no_gap_warns(self):
        with pytest.warns(RuntimeWarning):
            invariant_measure(np.eye(3))

    def test_periodic_flip_is_unique_without_warning(self):
        # a = 0, yet mu = (1/2, 1/2) is the only stationary measure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = invariant_measure(FiniteKernel([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=1e-15)

    def test_fixed_point_residual(self):
        P = random_kernel(np.random.default_rng(2), 8)
        mu = invariant_measure(P).weights
        assert np.abs(mu @ P.rows - mu).sum() <= 1e-12


class TestFStarNorm:
    def test_indicator(self):
        assert f_star_norm([0.0, 1.0]) == 0.5

    def test_constant(self):
        assert f_star_norm([3.0, 3.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert f_star_norm([-3.0, 1.0, 5.0]) == 4.0

    def test_dominated_by_sup_norms(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.normal(size=6)
            mu = random_dist(rng, 6)
            assert f_star_norm(f) <= np.abs(f).max() + 1e-15
            assert f_star_norm(f) <= np.abs(f - mu @ f).max() + 1e-15


class TestPoissonSolve:
    def test_flip_chain_closed_form(self):
        # f - mu f is the eigenvector with eigenvalue 1 - 2 beta, so psi = (f - mu f)/(2 beta)
        P = FiniteKernel([[0.75, 0.25], [0.25, 0.75]])
        psi = poisson_solve(P, [0.0, 1.0])
        np.testing.assert_allclose(psi.values, [-1.0, 1.0], atol=1e-12)

    def test_constant_observable(self):
        P = random_kernel(np.random.default_rng(6), 4)
        psi = poisson_solve(P, [2.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose(psi.values, 0.0, atol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            P = random_kernel(rng, 4)
            f = rng.normal(size=4)
            mu = power_iteration_mu(P)
            centered = f - mu @ f
            term = centered.copy()
            acc = term.copy()
            for _ in range(10_000):
                term = P.rows @ term
                acc += term
            np.testing.assert_allclose(poisson_solve(P, f).values, acc, atol=1e-8)

    def test_residual_and_norm_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = rng.integers(2, 7)
            P = random_kernel(rng, n)
            f = rng.normal(size=n)
            psi = poisson_solve(P, f).values
            mu = invariant_measure(P).weights
            residual = np.abs((P.rows - np.eye(n)) @ psi - (mu @ f - f)).max()
            assert residual <= 1e-10
            assert np.abs(psi).max() <= 2.0 * f_star_norm(f) / doeblin_constant(P) + 1e-9

    def test_no_gap_raises(self):
        with pytest.raises(InvalidRegimeError):
            poisson_solve(np.eye(2), [0.0, 1.0])


class TestGeometricContraction:
    def test_two_point_laws(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            P = random_kernel(rng, 4)
            a = doeblin_constant(P)
            nu1 = random_dist(rng, 4)
            nu2 = random_dist(rng, 4)
            base = tv_distance(nu1, nu2)
            l1, l2 = nu1.copy(), nu2.copy()
            for n in range(1, 51):
                l1 = l1 @ P.rows
                l2 = l2 @ P.rows
                assert tv_distance(ProbDist(l1), ProbDist(l2)) <= (1 - a) ** n * base + 1e-10


class TestStationaryGapProperty:
    def test_gap_bounded_by_eps_over_a(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 25:
            P_eps, P = random_pair(rng, rng.integers(2, 6), rng.uniform(0.02, 0.3))
            a = doeblin_constant(P)
            eps = local_epsilon(P_eps, P)
            if a <= eps:
                continue
            gap = tv_distance(invariant_measure(P), invariant_measure(P_eps))
            assert gap <= eps / a + 1e-10
            done += 1


class TestAverageLaw:
    def test_single_step_is_identity(self):
        rng = np.random.default_rng(8)
        nu = random_dist(rng, 3)
        P = random_kernel(rng, 3)
        np.testing.assert_allclose(n_step_average_law(nu, P, 1).weights, nu, atol=1e-15)

    def test_stationary_start_is_fixed(self):
        P = FiniteKernel([[0.75, 0.25], [0.25, 0.75]])
        for n in (1, 5, 40):
            law = n_step_average_law([0.5, 0.5], P, n)
            np.testing.assert_allclose(law.weights, [0.5, 0.5], atol=1e-12)

    def test_matches_closed_form_power_average(self):
        # oracle: average the closed-form matrix powers of the perturbed flip chain
        beta, eps, gamma, n = 0.25, 0.1, 0.85, 30
        P_eps, _ = kernel_pair(beta, eps)
        nu = np.array([gamma, 1.0 - gamma])
        avg = np.zeros(2)
        for k in range(n):
            avg += nu @ perturbed_power_closed_form(beta, eps, k)
        avg /= n
        law = n_step_average_law(nu, P_eps, n)
        np.testing.assert_allclose(law.weights, avg, atol=1e-12)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            n_step_average_law([1.0, 0.0], np.eye(2), 0)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integer_horizon(self, n):
        # 2.5 used to sum two steps and divide by 2.5
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            n_step_average_law([1.0, 0.0], np.eye(2), n)

    def test_rejects_law_of_other_length(self):
        with pytest.raises(DimensionMismatchError, match="distribution on 3 states, kernel on 2"):
            n_step_average_law([0.5, 0.25, 0.25], np.eye(2), 3)


class TestValidationAndSerialization:
    def test_round_trip_kernel(self):
        P = random_kernel(np.random.default_rng(31), 4)
        doc = kernel_to_json(P)
        again = kernel_from_json(doc)
        np.testing.assert_array_equal(P.rows, again.rows)

    def test_loader_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            FiniteKernel([[0.5, 0.5 + 2e-9], [0.5, 0.5]])

    def test_loader_renormalizes_within_tolerance(self):
        K = FiniteKernel([[0.5, 0.5 + 1e-10], [0.5, 0.5]])
        np.testing.assert_allclose(K.rows.sum(axis=1), 1.0, atol=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ProbDist([1.1, -0.1])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            FiniteKernel([[0.5, 0.5]])

    @pytest.mark.parametrize("build, values", [
        (FiniteKernel, {"a": 1}),
        (FiniteKernel, [["0.75", "0.25"], [True, False]]),
        (FiniteKernel, [[True, False], [False, True]]),
        (FiniteKernel, [[1.0, 0.0], [True, 0.0]]),
        (FiniteKernel, [[0.5, 0.5], [None, 1.0]]),
        (ProbDist, ["0.5", "0.5"]),
        (ProbDist, None),
        (StateFunction, {"a": 1}),
        (StateFunction, [0.0, False]),
        (StateFunction, np.array([True, False])),
    ], ids=["kernel-object", "kernel-strings-bools", "kernel-bools", "kernel-bool-among-floats",
            "kernel-null", "dist-strings", "dist-null", "function-object",
            "function-bool-among-floats", "function-bool-array"])
    def test_non_real_entries_rejected(self, build, values):
        # a mapping used to raise TypeError; strings and bools were read as numbers
        with pytest.raises(ValueError, match="entries must be real numbers"):
            build(values)

    @pytest.mark.parametrize("build, values, message", [
        (FiniteKernel, [[0.5, np.nan], [0.5, 0.5]], "kernel entries must be finite"),
        (ProbDist, [0.5, np.inf], "distribution entries must be finite"),
        (ProbDist, [[0.5, 0.5]], "weights must be a non-empty 1-d vector"),
        (StateFunction, [[0.0, 1.0]], "state function must be a non-empty 1-d vector"),
        (StateFunction, [0.0, np.nan], "state function must be finite"),
    ], ids=["kernel-nan", "dist-inf", "dist-2d", "function-2d", "function-nan"])
    def test_non_finite_or_misshapen_values_rejected(self, build, values, message):
        with pytest.raises(ValueError, match=message):
            build(values)

    def test_real_entries_of_any_numeric_type_accepted(self):
        K = FiniteKernel([[np.int64(1), 0], [np.float32(0.5), 0.5]])
        np.testing.assert_array_equal(K.rows, [[1.0, 0.0], [0.5, 0.5]])
        assert StateFunction([2**70, 0]).values[0] == 2.0**70

    def test_float_array_converts_without_entry_scan(self):
        class NoIter(np.ndarray):
            def __iter__(self):
                raise AssertionError("entries scanned one by one")

        rows = np.full((2, 2), 0.5).view(NoIter)
        np.testing.assert_array_equal(FiniteKernel(rows).rows, 0.5)
        assert rows.flags.writeable
