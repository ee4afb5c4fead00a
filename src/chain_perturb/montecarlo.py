"""Simulation harness comparing empirical averages against the closed-form certificates.

Each ``empirical_*`` operation estimates the quantity a certificate bounds
and returns a :class:`VerificationResult` whose ``satisfied`` flag applies a
one-sided ``estimate <= bound + 3 * std_error`` test: the bounds are truths
about expectations, so the slack only absorbs Monte Carlo noise.

Every check reads the coupled stepper of :mod:`.coupling`; single-chain
checks read one of its marginals, which are exact ``P``- and
``P_eps``-chains.  A check reduces each batch to per-replicate values, so
:func:`run_experiments` steps the coupled chain once, over the horizon ``n``,
for any set of checks, in memory O(batch + replicates).  The stopping-time
checks read ``tau ^ n`` (``tau ^ (n + 1)`` for the path law), stopping times
with ``E[tau ^ n] <= E[tau]``, so no check needs a run longer than ``n``.

Everything is reproducible bit-for-bit from ``(master_seed, config)``:
trajectory ``i`` reads its slot of the substream ``spawn_key=(i // 1024,)``
of its block of 1024 trajectories (see :mod:`.coupling`), whichever checks
read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    BoundParams,
    _require_lambda,
    avg_disagreement_bound,
    base_concentration_bound,
    base_concentration_threshold,
    coupled_concentration_bound,
    coupled_concentration_threshold,
    coupled_variance_bound,
    decoupling_time_bound,
)
from .coupling import _as_initial, iter_coupled_batches
from .errors import DimensionMismatchError, NumericalFailureError
from .kernels import (
    FiniteKernel,
    StateFunction,
    _count,
    _is_integer,
    _kernel_pair,
    _state_tuple,
    _target_states,
    _target_table,
    as_kernel,
    as_state_function,
    cross_doeblin_constant,
    doeblin_constant,
    f_star_norm,
    invariant_measure,
    local_epsilon,
    tv_distance,
)

__all__ = [
    "StoppingRule",
    "ExperimentConfig",
    "VerificationResult",
    "closeness_params",
    "initial_disagreement_prob",
    "expected_hitting_time",
    "empirical_disagreement",
    "empirical_average_difference",
    "empirical_tail",
    "empirical_base_tail",
    "empirical_decoupling",
    "empirical_path_law_distance",
    "run_experiments",
    "EXPERIMENT_NAMES",
]


@dataclass(frozen=True)
class StoppingRule:
    """Stopping-time rule: a deterministic horizon or the hitting time of a state set."""

    kind: str
    time: int | None = None
    targets: tuple = ()

    def __post_init__(self):
        if self.kind not in ("deterministic", "hitting"):
            raise ValueError(f"kind must be 'deterministic' or 'hitting', got {self.kind!r}")
        if self.kind == "deterministic":
            if not _is_integer(self.time) or self.time < 1:
                raise ValueError("deterministic rule needs an integer time >= 1, "
                                 f"got {self.time!r}")
            if _state_tuple(self.targets):
                raise ValueError(f"deterministic rule reads no targets, got {self.targets!r}")
        else:
            if self.time is not None:
                raise ValueError(f"hitting rule reads no time, got {self.time!r}")
            object.__setattr__(self, "targets", _target_states(self.targets))


@dataclass(frozen=True)
class ExperimentConfig:
    """One verification setup: kernel pair, horizon, replication, starts, observable, stopping rule."""

    p_eps: FiniteKernel
    p: FiniteKernel
    n: int
    replicates: int
    master_seed: int
    x0_eps: object = 0
    x0: object = 0
    f: StateFunction | None = None
    stopping: StoppingRule | None = None

    def __post_init__(self):
        p_eps, p = _kernel_pair(self.p_eps, self.p)
        object.__setattr__(self, "p_eps", p_eps)
        object.__setattr__(self, "p", p)
        _as_initial(self.x0_eps, len(p), "x0_eps")
        _as_initial(self.x0, len(p), "x0")
        for name, low in (("n", 1), ("replicates", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), low))
        if self.f is not None:
            object.__setattr__(self, "f", as_state_function(self.f))
            if len(self.f) != len(self.p):
                raise DimensionMismatchError("observable and kernel dimension differ")


@dataclass(frozen=True)
class VerificationResult:
    """Estimate vs certificate, with ``satisfied = estimate <= bound + 3 std_error``."""

    name: str
    estimate: float
    std_error: float
    bound: float
    satisfied: bool
    replicates_used: int


def _result(name, values, bound):
    values = np.asarray(values, dtype=float)
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return VerificationResult(
        name=name,
        estimate=est,
        std_error=se,
        bound=float(bound),
        satisfied=est <= bound + 3.0 * se,
        replicates_used=int(values.size),
    )


def initial_disagreement_prob(config: ExperimentConfig) -> float:
    """P(X_0 != X_0^eps) under the maximal coupling of the initial laws (their TV distance)."""
    S = len(config.p)
    _, w_e = _as_initial(config.x0_eps, S, "x0_eps")
    _, w_b = _as_initial(config.x0, S, "x0")
    return tv_distance(w_e, w_b)


def closeness_params(config: ExperimentConfig) -> BoundParams:
    """Exact closeness constants of the configured pair, bundled for the evaluators."""
    a = doeblin_constant(config.p)
    return BoundParams(
        epsilon=local_epsilon(config.p_eps, config.p),
        n=config.n,
        alpha=cross_doeblin_constant(config.p_eps, config.p),
        a=a if a > 0.0 else None,
        p0=initial_disagreement_prob(config),
        f_star=f_star_norm(config.f) if config.f is not None else 0.0,
    )


class _Check(NamedTuple):
    """One check over the coupled run of horizon ``n``.

    ``per_batch`` maps a :class:`CoupledBatch` to one value (or row of
    values) per trajectory; ``finish`` turns the values of all replicates,
    in trajectory order, into the check's result.
    """

    per_batch: Callable
    finish: Callable


def _run_checks(config: ExperimentConfig, checks):
    """Results of ``checks``, all read from one coupled run of horizon ``n``."""
    parts = [[] for _ in checks]
    # batches arrive in trajectory order
    for batch in iter_coupled_batches(config.p_eps, config.p, config.x0_eps, config.x0,
                                      config.n, config.replicates, config.master_seed):
        for check, values in zip(checks, parts):
            values.append(check.per_batch(batch))
        del batch  # one batch alive while the next is drawn
    return [check.finish(np.concatenate(values)) for check, values in zip(checks, parts)]


def _first_hit_times(states, on, missing):
    """First index k with ``on[states[:, k]]``; ``missing`` where never hit.

    ``on`` is a boolean lookup table over the states, True on the targets.
    """
    hit = on[states]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), missing)


_ON_ONE = np.array([False, True])  # target {1} of the binary paths z and y


def expected_hitting_time(P, targets, start=None):
    """Exact expected hitting time of ``targets``, by inverting ``I - P`` off the target set.

    Returns the full vector of expectations if ``start`` is None, otherwise
    the expectation from a start state (int) or start law (vector).
    """
    K = as_kernel(P)
    n = len(K)
    others = np.flatnonzero(~_target_table(targets, n))
    times = np.zeros(n)
    if others.size:
        A = np.eye(others.size) - K.rows[np.ix_(others, others)]
        try:
            times[others] = np.linalg.solve(A, np.ones(others.size))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"hitting-time system singular: {exc}") from exc
        if not np.all(np.isfinite(times)) or times.min() < 0.0:
            raise NumericalFailureError("hitting-time solve produced an invalid vector")
    if start is None:
        return times
    state, weights = _as_initial(start, n, "start")
    return float(times[state] if state is not None else weights @ times)


# ---------------------------------------------------------------------------
# checks: each validates its inputs before anything is simulated

def _disagreement(config, params, lam):
    n = config.n
    bound = avg_disagreement_bound(params)
    return _Check(lambda batch: batch.z[:, :n].mean(axis=1),
                  lambda v: _result("disagreement", v, bound))


def _average_difference(config, params, lam):
    if config.f is None:
        raise ValueError("config.f is required for the average-difference check")
    fv = config.f.values
    n = config.n
    bound = coupled_variance_bound(params)

    def per_batch(batch):
        diff = fv[batch.x[:, :n]].mean(axis=1) - fv[batch.x_eps[:, :n]].mean(axis=1)
        return diff ** 2

    return _Check(per_batch, lambda v: _result("average_difference", v, bound))


def _tail(config, params, lam):
    # threshold of a trajectory, indexed by its initial disagreement 0 or 1
    thr = np.array([coupled_concentration_threshold(lam, params, d) for d in (False, True)])
    n = config.n
    bound = coupled_concentration_bound(lam, params)
    return _Check(lambda batch: batch.z[:, :n].mean(axis=1) >= thr[batch.z[:, 0]],
                  lambda v: _result("tail", v, bound))


def _base_tail(config, params, lam):
    if config.f is None:
        raise ValueError("config.f is required for the base tail check")
    thr = base_concentration_threshold(lam, params)
    fv = config.f.values
    mu_f = float(invariant_measure(config.p).weights @ fv)
    n = config.n
    bound = base_concentration_bound(lam, params)
    return _Check(lambda batch: np.abs(mu_f - fv[batch.x[:, :n]].mean(axis=1)) >= thr,
                  lambda v: _result("base_tail", v, bound))


def _stopping(config, params, kinds):
    """The bound ``min(1, epsilon E[tau])`` of the one rule ``config.stopping``, and ``tau``.

    The rule must be one of ``kinds``, the starts equal and a deterministic
    time within the horizon.  ``tau(states, cap)`` is ``tau ^ cap`` per base
    chain trajectory; ``E[tau] >= E[tau ^ cap]``, so the bound holds at any cap.
    """
    rule = config.stopping
    if rule is None or rule.kind not in kinds:
        raise ValueError(f"this check needs a {' or '.join(kinds)} stopping rule, got {rule!r}")
    if params.p0 != 0.0:
        raise ValueError("stopping-time checks require equal initial states/laws")
    if rule.kind == "deterministic":
        if rule.time > config.n:
            raise ValueError("deterministic stopping time exceeds the simulated horizon")
        return (decoupling_time_bound(params.epsilon, float(rule.time)),
                lambda states, cap: min(rule.time, cap))
    on = _target_table(rule.targets, len(config.p))
    return (decoupling_time_bound(params.epsilon,
                                  expected_hitting_time(config.p, rule.targets, config.x0)),
            lambda states, cap: _first_hit_times(states, on, cap))


def _decoupling_of(name, path, kinds):
    """Check ``name``: P(the binary ``path`` of a batch first reads 1 by ``tau ^ n``).

    ``path`` is ``"z"``, the disagreement indicator, or ``"y"``, the
    dominating chain, which reads 1 wherever ``z`` does.
    """
    def check(config, params, lam):
        bound, tau = _stopping(config, params, kinds)
        n = config.n

        def per_batch(batch):
            # first step reading 1 (n + 1: none in the run) against tau ^ n
            return _first_hit_times(getattr(batch, path), _ON_ONE, n + 1) <= tau(batch.x, n)

        return _Check(per_batch, lambda v: _result(name, v, bound))

    return check


def _path_law(config, params, lam):
    # the laws of tau ^ (n + 1), a function of tau, are as close as those of
    # any path functional measurable at tau: min(1, epsilon E[tau])
    bound, tau = _stopping(config, params, ("hitting",))
    n = config.n

    def per_batch(batch):
        # tau ^ (n + 1) of each marginal: a hit after step n reads n + 1
        return np.stack([tau(batch.x, n + 1), tau(batch.x_eps, n + 1)], axis=1)

    def finish(v):
        tau_p, tau_q = v[:, 0], v[:, 1]
        p_hat = np.bincount(tau_p, minlength=n + 2) / tau_p.size
        q_hat = np.bincount(tau_q, minlength=n + 2) / tau_q.size
        # Plug-in TV with the signs of p_hat - q_hat frozen: one term per
        # replicate, whose mean is the plug-in estimate and whose spread gives
        # the paired standard error.
        signs = np.sign(p_hat - q_hat)
        return _result("path_law", 0.5 * (signs[tau_p] - signs[tau_q]), bound)

    return _Check(per_batch, finish)


_CHECKS = {
    "disagreement": _disagreement,
    "average_difference": _average_difference,
    "tail": _tail,
    "base_tail": _base_tail,
    "decoupling": _decoupling_of("decoupling", "z", ("deterministic", "hitting")),
    "bounding_decoupling": _decoupling_of("bounding_decoupling", "y", ("deterministic",)),
    "path_law": _path_law,
}

EXPERIMENT_NAMES = tuple(_CHECKS)


def run_experiments(names, config: ExperimentConfig, lam=1.0):
    """Run the named checks on one coupled run; results in the order of ``names``.

    Every check reads the same run of horizon ``n``; ``decoupling`` and
    ``path_law`` stop at ``tau ^ n`` and ``tau ^ (n + 1)``.  An empty
    ``names``, unknown names and invalid configs are rejected before anything
    is simulated, and so is a ``lam`` that is not finite and positive,
    although only the tail checks read it.  Each result equals, bit for bit,
    the matching ``empirical_*`` call, where there is one.
    """
    names = list(names)
    if not names:
        raise ValueError(f"no experiment named; known: {', '.join(EXPERIMENT_NAMES)}")
    unknown = [name for name in names if name not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(EXPERIMENT_NAMES)}")
    _require_lambda(lam)
    params = closeness_params(config)
    return _run_checks(config, [_CHECKS[name](config, params, lam) for name in names])


def empirical_disagreement(config: ExperimentConfig) -> VerificationResult:
    """Mean over replicates of the disagreement fraction ``(1/n) sum_k 1{X_k != X_k^eps}``."""
    return run_experiments(["disagreement"], config)[0]


def empirical_average_difference(config: ExperimentConfig) -> VerificationResult:
    """Second moment of the difference of the two time averages of ``f``."""
    return run_experiments(["average_difference"], config)[0]


def empirical_tail(config: ExperimentConfig, lam) -> VerificationResult:
    """Probability the disagreement fraction exceeds its concentration threshold."""
    return run_experiments(["tail"], config, lam)[0]


def empirical_base_tail(config: ExperimentConfig, lam) -> VerificationResult:
    """Single-chain analogue: deviation of the time average of ``f`` from ``mu f``.

    Reads the base marginal ``X`` of the coupled run, an exact ``P``-chain.
    """
    return run_experiments(["base_tail"], config, lam)[0]


def empirical_decoupling(config: ExperimentConfig) -> VerificationResult:
    """P(first disagreement <= stopping time) against ``min(1, epsilon E[tau])``.

    The stopping time is ``tau ^ n``: a replicate whose pair has not
    separated by step ``n`` is not decoupled, whether or not ``tau`` came.
    The bound keeps ``E[tau]`` (the exact linear solve for a hitting rule),
    which is at least ``E[tau ^ n]``, so it holds for every ``n``.
    """
    return run_experiments(["decoupling"], config)[0]


def empirical_path_law_distance(config: ExperimentConfig) -> VerificationResult:
    """TV distance between the laws of ``tau ^ (n + 1)`` of the two chains.

    Both laws are read from the two marginals of the coupled run of horizon
    ``n``; the claim concerns marginal laws, and each marginal is an exact
    chain.  A hitting time not seen by step ``n`` reads ``n + 1``, a function
    of ``tau``, so the bound on the laws of ``tau`` applies.  The plug-in
    estimate lives on the support ``0..n+1``.  Its standard error is the
    paired one of the per-replicate terms ``0.5 (g(tau_p) - g(tau_q))`` with
    the signs ``g`` of the histogram difference frozen; their mean is the
    plug-in estimate.
    """
    return run_experiments(["path_law"], config)[0]
