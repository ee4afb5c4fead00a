import dataclasses

import numpy as np
import pytest

from chain_perturb import (
    BoundParams,
    avg_disagreement_bound,
    cross_doeblin_constant,
    doeblin_constant,
    kernel_pair,
    local_epsilon,
    n_step_average_law,
    perturbed_matrix,
    tightness_table,
    tv_distance,
)
from chain_perturb import sharpness
from oracles import exact_averaged_tv, perturbed_power_closed_form


class TestClosedFormPowers:
    def test_power_zero_is_identity(self):
        np.testing.assert_allclose(perturbed_power_closed_form(0.3, 0.1, 0), np.eye(2), atol=1e-15)

    def test_power_one_is_the_matrix(self):
        np.testing.assert_allclose(
            perturbed_power_closed_form(0.25, 0.1, 1), perturbed_matrix(0.25, 0.1), atol=1e-15)

    def test_matches_repeated_multiplication(self):
        M = perturbed_matrix(0.25, 0.1)
        acc = np.eye(2)
        for k in range(11):
            np.testing.assert_allclose(perturbed_power_closed_form(0.25, 0.1, k), acc, atol=1e-12)
            acc = acc @ M


class TestFamilyConstants:
    @pytest.mark.parametrize("beta,eps", [(0.25, 0.1), (0.3, 0.05), (0.5, 0.2), (0.1, 0.1)])
    def test_exact_constants(self, beta, eps):
        P_eps, P = kernel_pair(beta, eps)
        assert doeblin_constant(P) == pytest.approx(2.0 * beta, abs=1e-15)
        assert local_epsilon(P_eps, P) == pytest.approx(eps, abs=1e-15)
        # the maximum is attained (not strictly below) at the off-diagonal pair
        assert cross_doeblin_constant(P_eps, P) == pytest.approx(2.0 * beta - eps, abs=1e-14)

    def test_eigen_reconstruction(self):
        # Q diag(1, 1 - 2 beta) Q^{-1}, with right eigenvectors (1, 1) and
        # (-(beta - eps), beta + eps), rebuilds the perturbed matrix
        for beta, eps in [(0.25, 0.1), (0.4, 0.3), (0.1, 0.05)]:
            Q = np.array([[1.0, -(beta - eps)], [1.0, beta + eps]])
            D = np.diag([1.0, 1.0 - 2.0 * beta])
            np.testing.assert_allclose(
                Q @ D @ np.linalg.inv(Q), perturbed_matrix(beta, eps), atol=1e-12)

    def test_kernel_pair_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            kernel_pair(0.2, 0.3)

    @pytest.mark.parametrize("beta, eps, name", [
        (0.7, 0.1, "beta"),  # a stochastic pair, but its Doeblin constant is 0.6, not 2 beta
        (0.0, 0.0, "beta"),
        (float("nan"), 0.1, "beta"),
        (True, 0.1, "beta"),
        (0.25, -0.1, "epsilon"),  # its local epsilon is 0.1, not -0.1
        (0.25, float("nan"), "epsilon"),
        (0.25, "0.1", "epsilon"),
    ])
    def test_kernel_pair_rejects_parameters_outside_the_family(self, beta, eps, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            kernel_pair(beta, eps)


class TestExactAveragedTv:
    def test_single_step_is_initial_tv(self):
        assert exact_averaged_tv(0.25, 0.1, 1.0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_long_horizon_limit(self):
        assert exact_averaged_tv(0.25, 0.1, 1.0, 10 ** 7) == pytest.approx(0.2, abs=1e-5)

    def test_balanced_start_constant_in_n(self):
        # gamma with initial TV equal to eps/(alpha+eps) kills the correction
        beta, eps = 0.25, 0.1
        gamma = 0.5 + eps / (2 * beta)
        for n in (1, 2, 7, 50):
            assert exact_averaged_tv(beta, eps, gamma, n) == pytest.approx(eps / (2 * beta),
                                                                           abs=1e-15)

    def test_matches_numerical_tv(self):
        # direct simulation of the averaged law against the closed form
        for beta, eps, gamma, n in [(0.25, 0.1, 1.0, 7), (0.3, 0.05, 0.9, 23), (0.5, 0.2, 0.6, 3)]:
            P_eps, _ = kernel_pair(beta, eps)
            law = n_step_average_law([gamma, 1.0 - gamma], P_eps, n)
            assert exact_averaged_tv(beta, eps, gamma, n) == pytest.approx(
                tv_distance([0.5, 0.5], law), abs=1e-12)

    def test_zero_perturbation_degenerate_form(self):
        beta, gamma, n = 0.25, 0.9, 12
        expected = (gamma - 0.5) * (1.0 - (1.0 - 2 * beta) ** n) / (2 * beta * n)
        assert exact_averaged_tv(beta, 0.0, gamma, n) == pytest.approx(expected, abs=1e-15)
        bound = avg_disagreement_bound(BoundParams(epsilon=0.0, n=n, alpha=2 * beta, p0=gamma - 0.5))
        assert bound == pytest.approx(expected, abs=1e-15)


class TestTightness:
    def test_certificate_examples(self):
        rows = tightness_table(0.3, 0.05, 0.9, 100)
        assert [n for n, *_ in rows] == list(range(1, 101))
        assert all(gap <= 1e-12 for *_, gap in rows)
        assert tightness_table(0.25, 0.1, 1.0, 50)[-1][3] <= 1e-12

    def test_full_grid(self):
        for beta in (0.1, 0.2, 0.3, 0.4, 0.5):
            for eps in (0.01, beta / 2, 2 * beta - 0.01):
                for gamma in (0.6, 0.9, 1.0):
                    rows = tightness_table(beta, eps, gamma, 100)
                    for n in (1, 2, 5, 10, 100):
                        gap = rows[n - 1][3]
                        assert gap <= 1e-12, f"gap {gap} at {(beta, eps, gamma, n)}"

    def test_wrong_initial_tv_fails(self, monkeypatch):
        # the certificate evaluated at a wrong p0 must not certify
        assert tightness_table(0.3, 0.05, 0.9, 10)[-1][3] <= 1e-12
        bound = sharpness.avg_disagreement_bound
        monkeypatch.setattr(sharpness, "avg_disagreement_bound",
                            lambda params: bound(dataclasses.replace(params, p0=0.3)))
        assert all(g > 1e-3 for *_, g in tightness_table(0.3, 0.05, 0.9, 10))

    def test_propagation_matches_closed_form(self):
        # epsilon > beta: the matrix has a negative entry, the algebra still holds
        for beta, eps in ((0.25, 0.1), (0.2, 0.39)):
            rows = tightness_table(beta, eps, 0.9, 60)
            for n, exact, _, _ in rows:
                assert exact == pytest.approx(exact_averaged_tv(beta, eps, 0.9, n), abs=1e-13)

    def test_table_shape(self):
        rows = tightness_table(0.3, 0.05, 0.9, 10)
        assert len(rows) == 10
        assert all(g <= 1e-12 for *_, g in rows)
        assert rows[0][0] == 1 and rows[-1][0] == 10

    @pytest.mark.parametrize("n_max", [2.5, True, 0, 1.0])
    def test_rejects_non_integer_horizon(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            tightness_table(0.3, 0.05, 0.9, n_max)


class TestInstanceValidation:
    def test_ranges(self):
        with pytest.raises(ValueError, match="beta must be in"):
            tightness_table(0.6, 0.1, 0.9, 1)
        with pytest.raises(ValueError, match="epsilon must be in"):
            tightness_table(0.25, 0.5, 0.9, 1)
        with pytest.raises(ValueError, match="gamma must be in"):
            tightness_table(0.25, 0.1, 0.5, 1)
        with pytest.raises(ValueError, match="n_max must be"):
            tightness_table(0.25, 0.1, 0.9, 0)

    @pytest.mark.parametrize("n", [True, 2.5])
    def test_rejects_non_integer_horizon(self, n):
        # the horizon of a sharpness instance (beta, epsilon, gamma, n) is n_max
        with pytest.raises(ValueError, match="n_max must be"):
            tightness_table(0.25, 0.1, 0.9, n)

    @pytest.mark.parametrize("beta, eps, gamma, name", [
        (0.25, 0.1, True, "gamma"),  # ran as gamma = 1
        (True, 0.1, 0.9, "beta"),
        (0.25, "0.1", 0.9, "epsilon"),
        (float("nan"), 0.1, 0.9, "beta"),
        (0.25, float("nan"), 0.9, "epsilon"),
        (0.25, 0.1, float("nan"), "gamma"),
    ])
    def test_rejects_non_real_parameters(self, beta, eps, gamma, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            tightness_table(beta, eps, gamma, 5)

    def test_base_matrix_is_symmetric_flip(self):
        np.testing.assert_allclose(perturbed_matrix(0.25, 0.0), [[0.75, 0.25], [0.25, 0.75]])
