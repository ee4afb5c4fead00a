import math

import numpy as np
import pytest

from chain_perturb import (
    BoundParams,
    InvalidRegimeError,
    avg_disagreement_bound,
    base_concentration_bound,
    base_concentration_threshold,
    coupled_concentration_bound,
    coupled_concentration_threshold,
    coupled_variance_bound,
    decoupling_time_bound,
    evaluate_report_table,
    remark_perturbation_bounds,
    remark_tail_threshold,
    stationary_gap_bound,
    variance_of_time_average_bound,
)
from oracles import BoundingChain


def cross_params(alpha=0.4, epsilon=0.1, n=100, p0=0.0, f_star=0.0, a=None):
    return BoundParams(epsilon=epsilon, n=n, alpha=alpha, a=a, p0=p0, f_star=f_star)


class TestAvgDisagreementBound:
    def test_stationary_start_constant_in_n(self):
        ratio = 0.1 / 0.5
        for n in (1, 3, 17, 400):
            params = cross_params(n=n, p0=ratio)
            assert avg_disagreement_bound(params) == pytest.approx(ratio, abs=1e-15)

    def test_single_step_returns_p0(self):
        assert avg_disagreement_bound(cross_params(n=1, p0=0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_large_horizon_limit(self):
        val = avg_disagreement_bound(cross_params(n=10 ** 7, p0=1.0))
        assert val == pytest.approx(0.2, abs=1e-5)

    def test_monotone_in_p0_eps_alpha(self):
        grid = np.linspace(0.0, 1.0, 9)
        vals = [avg_disagreement_bound(cross_params(p0=p)) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        eps_grid = np.linspace(0.0, 0.55, 9)
        vals = [avg_disagreement_bound(cross_params(epsilon=e, p0=0.3)) for e in eps_grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        alpha_grid = np.linspace(0.05, 0.85, 9)
        vals = [avg_disagreement_bound(cross_params(alpha=al, p0=0.3)) for al in alpha_grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_regime_violation_raises(self):
        with pytest.raises(InvalidRegimeError):
            avg_disagreement_bound(cross_params(alpha=0.3, epsilon=0.75))
        with pytest.raises(InvalidRegimeError):
            avg_disagreement_bound(cross_params(alpha=0.0, epsilon=0.0))
        with pytest.raises(InvalidRegimeError):
            avg_disagreement_bound(BoundParams(epsilon=0.1, n=5))

    def test_boundary_regime_is_legal(self):
        # alpha + epsilon = 1: the dominating chain mixes in one step
        val = avg_disagreement_bound(cross_params(alpha=0.75, epsilon=0.25, n=4, p0=1.0))
        assert val == pytest.approx(0.25 + (1.0 - 0.25) / 4.0, abs=1e-15)

    def test_matches_bounding_chain_occupation(self):
        # the bound IS the dominating chain's exact occupation started Bernoulli(p0)
        rng = np.random.default_rng(42)
        for _ in range(200):
            alpha = rng.uniform(0.05, 0.9)
            eps = rng.uniform(0.0, min(0.5, 1.0 - alpha - 1e-3))
            p0 = rng.uniform(0.0, 1.0)
            n = int(rng.integers(1, 500))
            # state-1 occupation of the dominating chain propagated from (1 - p0, p0)
            T = BoundingChain(alpha=alpha, epsilon=eps).transition
            law, total = np.array([1.0 - p0, p0]), 0.0
            for _ in range(n):
                total += law[1]
                law = law @ T
            occ = total / n
            bound = avg_disagreement_bound(BoundParams(epsilon=eps, n=n, alpha=alpha, p0=p0))
            assert occ == pytest.approx(bound, abs=1e-13)


class TestAveragedTvBound:
    def test_equal_initial_laws(self):
        params = cross_params(n=25, p0=0.0)
        s = 0.5
        w = (1.0 - (1.0 - s) ** 25) / (25 * s)
        assert avg_disagreement_bound(params) == pytest.approx(0.2 * (1.0 - w), abs=1e-15)

    def test_single_step_with_disjoint_laws(self):
        assert avg_disagreement_bound(cross_params(n=1, p0=1.0)) == pytest.approx(1.0, abs=1e-15)


class TestCoupledVarianceBound:
    def test_zero_observable(self):
        assert coupled_variance_bound(cross_params(f_star=0.0)) == 0.0

    def test_vanishes_without_perturbation_at_long_horizon(self):
        val = coupled_variance_bound(cross_params(epsilon=0.0, n=10 ** 9, f_star=1.0))
        assert val <= 1e-6

    def test_plug_in_value(self):
        # 4*0.25 * (0.01/0.25 + 2/(100^2*0.25) + (2/100)*(0.16/0.0625))
        expected = 1.0 * (0.04 + 0.0008 + 0.02 * 2.56)
        val = coupled_variance_bound(cross_params(n=100, f_star=0.5))
        assert val == pytest.approx(expected, rel=1e-12)


class TestConcentrationBounds:
    def test_coupled_tail_at_tiny_lambda(self):
        assert coupled_concentration_bound(1e-9, cross_params()) == pytest.approx(1.0, abs=1e-12)

    def test_coupled_tail_plug_in(self):
        assert coupled_concentration_bound(4.0, cross_params()) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_doubling_lambda_fourth_power(self):
        base = coupled_concentration_bound(1.3, cross_params())
        assert coupled_concentration_bound(2.6, cross_params()) == pytest.approx(base ** 4, rel=1e-12)

    def test_coupled_threshold(self):
        params = cross_params(n=400)
        thr = coupled_concentration_threshold(2.0, params, initial_disagreement=True)
        assert thr == pytest.approx(0.2 + 1.0 / (400 * 0.5) + 2.0 / 20.0, abs=1e-15)

    def test_base_tail_vacuous_small_lambda(self):
        params = cross_params(a=0.5)
        assert base_concentration_bound(1e-9, params) == pytest.approx(2.0, abs=1e-12)
        # raw value above 1 is returned as-is and documents the vacuous regime
        assert base_concentration_bound(8.0, params) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)
        assert base_concentration_bound(8.0, params) > 1.0

    def test_base_tail_plug_in(self):
        val = base_concentration_bound(32.0, cross_params(a=0.5))
        assert val == pytest.approx(2.0 * math.exp(-8.0), rel=1e-15)
        assert val == pytest.approx(6.7092e-4, abs=2e-7)

    def test_base_threshold(self):
        params = cross_params(a=0.5, n=100, f_star=0.5)
        assert base_concentration_threshold(4.0, params) == pytest.approx(
            4 * 0.5 / (100 * 0.5) + 4 * 0.5 / 10.0, abs=1e-15)

    def test_missing_a_raises(self):
        with pytest.raises(InvalidRegimeError):
            base_concentration_bound(1.0, cross_params(a=None))

    def test_thresholds_need_a_nonconstant_f(self):
        # a threshold of 0 makes |avg - mu f| >= 0 sure, while the Azuma tail falls below 1
        with pytest.raises(InvalidRegimeError, match="f_star must be finite and positive"):
            base_concentration_threshold(10.0, cross_params(a=0.5, f_star=0.0))
        with pytest.raises(InvalidRegimeError, match="f_inf must be finite and positive"):
            remark_tail_threshold(10.0, cross_params(a=0.5), 0.0)


class TestVarianceOfTimeAverage:
    def test_zero_observable(self):
        assert variance_of_time_average_bound(cross_params(a=0.5, f_star=0.0)) == 0.0

    def test_plug_in_value(self):
        val = variance_of_time_average_bound(cross_params(a=0.5, n=100, f_star=0.5))
        assert val == pytest.approx(0.0832, rel=1e-12)

    def test_decays_with_horizon(self):
        val = variance_of_time_average_bound(cross_params(a=0.5, n=10 ** 8, f_star=1.0))
        assert val <= 1e-6


class TestStationaryGapBound:
    def test_zero_perturbation(self):
        assert stationary_gap_bound(0.0, 0.5) == 0.0

    def test_plug_in(self):
        assert stationary_gap_bound(0.05, 0.5) == pytest.approx(0.1, rel=1e-15)

    def test_vacuous_at_eps_equals_a(self):
        assert stationary_gap_bound(0.5, 0.5) == 1.0

    def test_requires_positive_a(self):
        with pytest.raises(InvalidRegimeError):
            stationary_gap_bound(0.1, 0.0)

    @pytest.mark.parametrize("a", [math.inf, 7.0, 1.0 + 1e-9])
    def test_a_above_one_rejected(self, a):
        # a Doeblin constant lies in (0, 1], as BoundParams reads it
        with pytest.raises(InvalidRegimeError, match=r"a must be in \(0, 1\]"):
            stationary_gap_bound(0.1, a)

    def test_a_equal_to_one(self):
        assert stationary_gap_bound(0.1, 1.0) == 0.1


class TestDecouplingAndPathLaw:
    def test_zero_eps(self):
        assert decoupling_time_bound(0.0, 100.0) == 0.0
        assert decoupling_time_bound(0.0, 3.0) == 0.0

    def test_plug_in(self):
        assert decoupling_time_bound(0.01, 30.0) == pytest.approx(0.3, rel=1e-15)

    def test_capped_at_one(self):
        assert decoupling_time_bound(0.5, 10.0) == 1.0
        assert decoupling_time_bound(0.9, 100.0) == 1.0

    def test_infinite_expected_tau(self):
        # min(1, eps * inf) is 1; at eps = 0 the chains coincide, and 0 * inf is never formed
        assert decoupling_time_bound(0.1, math.inf) == 1.0
        assert decoupling_time_bound(5e-324, math.inf) == 1.0
        assert decoupling_time_bound(0.0, math.inf) == 0.0
        with pytest.raises(ValueError, match="expected_tau must be nonnegative"):
            decoupling_time_bound(0.1, -1.0)

    def test_exact_deterministic_law_below_linear_bound(self):
        # 1 - (1-eps)^N <= eps * N for every eps in [0,1], N >= 0
        for eps in (0.0, 0.01, 0.1, 0.5, 1.0):
            for N in (0, 1, 5, 50, 500):
                assert 1.0 - (1.0 - eps) ** N <= eps * N + 1e-12


class TestRemarkBounds:
    def test_plug_in_mean_bias(self):
        params = BoundParams(epsilon=0.05, n=100, a=0.5)
        mean_bias, second, tail = remark_perturbation_bounds(params, 1.0, 1.0)
        assert mean_bias == pytest.approx(0.08 + 0.4, rel=1e-12)

    def test_plug_in_second_moment(self):
        # (3/a^2)(16 e^2 + 16/n^2) f_inf^2 + 12 f_inf^2/(a^2 n) = 12 (0.04 + 0.0016) + 0.48
        params = BoundParams(epsilon=0.05, n=100, a=0.5)
        mean_bias, second, tail = remark_perturbation_bounds(params, 1.0, 1.0)
        assert second == pytest.approx(0.9792, rel=1e-12)

    def test_zero_observable(self):
        params = BoundParams(epsilon=0.05, n=100, a=0.5)
        mean_bias, second, tail = remark_perturbation_bounds(params, 0.0, 1.0)
        assert mean_bias == 0.0
        assert second == 0.0

    def test_zero_eps_recovers_single_chain_shape(self):
        params = BoundParams(epsilon=0.0, n=50, a=0.5)
        mean_bias, second, tail = remark_perturbation_bounds(params, 1.0, 2.0)
        assert mean_bias == pytest.approx(4.0 / (0.5 * 50), rel=1e-12)
        assert second == pytest.approx(
            (3.0 / 0.25) * (16.0 / 2500.0) + 12.0 / (0.25 * 50), rel=1e-12)
        assert tail == pytest.approx(2.0 * math.exp(-0.25 * 4.0 / 32.0), rel=1e-12)

    def test_threshold(self):
        params = BoundParams(epsilon=0.05, n=100, a=0.5)
        thr = remark_tail_threshold(2.0, params, 1.0)
        assert thr == pytest.approx((4.0 / 0.5) * (0.05 + 0.01) + 2.0 / 10.0, rel=1e-12)


class TestBoundParamsValidation:
    def test_negative_epsilon(self):
        with pytest.raises(InvalidRegimeError):
            BoundParams(epsilon=-0.1, n=1)

    def test_zero_a_rejected_at_construction(self):
        with pytest.raises(InvalidRegimeError):
            BoundParams(epsilon=0.1, n=1, a=0.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            BoundParams(epsilon=0.1, n=0)

    def test_alpha_one_accepted(self):
        # rows all equal give alpha = 1, which forces epsilon = 0: no bound divides by zero
        params = BoundParams(epsilon=0.0, n=5, alpha=1.0, a=1.0, p0=0.5, f_star=0.5)
        assert avg_disagreement_bound(params) == pytest.approx(0.1, rel=1e-15)
        assert coupled_variance_bound(params) == pytest.approx(0.48, rel=1e-15)
        with pytest.raises(InvalidRegimeError, match=r"alpha must be in \[0, 1\]"):
            BoundParams(epsilon=0.0, n=5, alpha=1.0 + 1e-9)
        with pytest.raises(InvalidRegimeError, match="does not contract"):
            avg_disagreement_bound(BoundParams(epsilon=0.1, n=5, alpha=1.0))

    def test_bad_p0(self):
        with pytest.raises(ValueError):
            BoundParams(epsilon=0.1, n=1, p0=1.5)

    @pytest.mark.parametrize("n", [True, 3.0])
    def test_non_integer_horizon(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            BoundParams(epsilon=0.1, n=n)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 1.5])
    def test_epsilon_outside_unit_interval(self, epsilon):
        # every comparison fails on NaN, so NaN is out of range
        with pytest.raises(InvalidRegimeError, match="epsilon must be in"):
            BoundParams(epsilon=epsilon, n=1)

    @pytest.mark.parametrize("f_star", [math.nan, math.inf])
    def test_f_star_not_finite(self, f_star):
        with pytest.raises(ValueError, match="f_star must be finite"):
            BoundParams(epsilon=0.1, n=1, f_star=f_star)

    @pytest.mark.parametrize("field", ["epsilon", "alpha", "a", "p0", "f_star"])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_real_fields_reject_bools_and_strings(self, field, value):
        # True would otherwise be stored and read as 1
        kwargs = {"epsilon": 0.1, "n": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            BoundParams(**kwargs)


_FULL = BoundParams(epsilon=0.05, n=100, alpha=0.4, a=0.5, f_star=1.0)
# every bound and threshold that reads lambda, as a function of lambda
_LAMBDA_READERS = {
    "coupled_concentration_bound": lambda lam: coupled_concentration_bound(lam, _FULL),
    "base_concentration_bound": lambda lam: base_concentration_bound(lam, _FULL),
    "remark_perturbation_bounds": lambda lam: remark_perturbation_bounds(_FULL, 1.0, lam),
    "coupled_concentration_threshold": lambda lam: coupled_concentration_threshold(lam, _FULL),
    "base_concentration_threshold": lambda lam: base_concentration_threshold(lam, _FULL),
    "remark_tail_threshold": lambda lam: remark_tail_threshold(lam, _FULL, 1.0),
    "evaluate_report_table": lambda lam: evaluate_report_table(BoundParams(epsilon=0.1, n=10),
                                                               lam=lam),
}


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, True, "2"])
@pytest.mark.parametrize("reader", sorted(_LAMBDA_READERS))
def test_lambda_must_be_finite_and_positive(reader, lam):
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        _LAMBDA_READERS[reader](lam)


@pytest.mark.parametrize("call", [
    lambda: stationary_gap_bound(math.nan, 0.5),
    lambda: stationary_gap_bound(0.1, math.nan),
    lambda: remark_perturbation_bounds(_FULL, math.nan, 1.0),
    lambda: remark_tail_threshold(1.0, _FULL, math.nan),
    lambda: decoupling_time_bound(math.nan, 3.0),
    lambda: decoupling_time_bound(0.1, math.nan),
], ids=["gap-epsilon", "gap-a", "remark-f_inf", "remark-threshold-f_inf",
        "decoupling-epsilon", "decoupling-etau"])
def test_nan_scalar_raises(call):
    with pytest.raises(ValueError):
        call()


class TestReportTable:
    def test_caps_probability_rows(self):
        params = BoundParams(epsilon=0.6, n=10, a=0.3, alpha=0.2, f_star=1.0)
        rows = {r.name: r for r in evaluate_report_table(params, lam=0.5)}
        gap = rows["stationary_gap"]
        assert gap.value == 1.0 and gap.capped and gap.raw == pytest.approx(2.0)
        base = rows["base_concentration"]
        assert base.value == 1.0 and base.capped and base.raw > 1.0

    def test_regime_failures_reported_not_raised(self):
        params = BoundParams(epsilon=0.1, n=10)  # no alpha, no a
        rows = {r.name: r for r in evaluate_report_table(params, lam=1.0, expected_tau=5.0)}
        assert not rows["avg_disagreement"].regime_ok
        assert rows["avg_disagreement"].value is None
        assert not rows["variance_of_time_average"].regime_ok
        assert rows["decoupling_time"].regime_ok
        assert rows["decoupling_time"].value == pytest.approx(0.5)

    def test_values_in_unit_interval_after_capping(self):
        params = BoundParams(epsilon=0.2, n=7, a=0.4, alpha=0.3, p0=0.9, f_star=2.0)
        for r in evaluate_report_table(params, lam=0.1, expected_tau=100.0):
            if r.regime_ok and r.name in (
                "avg_disagreement", "averaged_tv", "coupled_concentration",
                "base_concentration", "stationary_gap", "decoupling_time",
                "path_law", "remark_tail",
            ):
                assert 0.0 <= r.value <= 1.0
