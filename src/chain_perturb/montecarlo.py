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
    avg_disagreement_bound,
    base_concentration_bound,
    base_concentration_threshold,
    coupled_concentration_bound,
    coupled_concentration_threshold,
    coupled_variance_bound,
    decoupling_time_bound,
    path_law_bound,
)
from .coupling import _as_initial, iter_coupled_batches
from .errors import DimensionMismatchError, NumericalFailureError
from .kernels import (
    FiniteKernel,
    StateFunction,
    _is_integer,
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
        else:
            if not self.targets:
                raise ValueError("hitting rule needs a non-empty target set")
            for t in self.targets:
                if not _is_integer(t):
                    raise ValueError(f"hitting targets must be integer states, got {t!r}")
            object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


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
        object.__setattr__(self, "p_eps", as_kernel(self.p_eps))
        object.__setattr__(self, "p", as_kernel(self.p))
        if len(self.p_eps) != len(self.p):
            raise DimensionMismatchError(
                f"kernels live on {len(self.p_eps)} vs {len(self.p)} states"
            )
        _as_initial(self.x0_eps, len(self.p), "x0_eps")
        _as_initial(self.x0, len(self.p), "x0")
        for name, low in (("n", 1), ("replicates", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
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
    state_e, w_e = _as_initial(config.x0_eps, S, "x0_eps")
    state_b, w_b = _as_initial(config.x0, S, "x0")
    if state_e is not None and state_b is not None:
        return float(state_e != state_b)
    return tv_distance(w_e, w_b)


def closeness_params(config: ExperimentConfig) -> BoundParams:
    """Exact closeness constants of the configured pair, bundled for the evaluators."""
    a = doeblin_constant(config.p)
    return BoundParams(
        epsilon=local_epsilon(config.p_eps, config.p),
        n=int(config.n),
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
                                      int(config.n), int(config.replicates), config.master_seed):
        for check, values in zip(checks, parts):
            values.append(check.per_batch(batch))
    return [check.finish(np.concatenate(values)) for check, values in zip(checks, parts)]


def _first_hit_times(states, on, missing):
    """First index k with ``on[states[:, k]]``; ``missing`` where never hit.

    ``on`` is a boolean lookup table over the states, True on the targets.
    """
    hit = on[states]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), missing)


_ON_ONE = np.array([False, True])  # target {1} of the binary paths z and y


def _target_table(targets, n_states):
    """Boolean lookup table over ``n_states`` states, True on ``targets``."""
    on = np.zeros(n_states, dtype=bool)
    on[list(targets)] = True
    return on


def expected_hitting_time(P, targets, start=None):
    """Exact expected hitting time of ``targets``, by inverting ``I - P`` off the target set.

    Returns the full vector of expectations if ``start`` is None, otherwise
    the expectation from a start state (int) or start law (vector).
    """
    K = as_kernel(P)
    n = len(K)
    targets = sorted(set(StoppingRule("hitting", targets=tuple(targets)).targets))
    if targets[0] < 0 or targets[-1] >= n:
        raise ValueError(f"targets outside 0..{n - 1}")
    times = np.zeros(n)
    off_target = np.ones(n, dtype=bool)
    off_target[targets] = False
    others = np.flatnonzero(off_target)
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
    n = int(config.n)
    bound = avg_disagreement_bound(params)
    return _Check(lambda batch: batch.z[:, :n].mean(axis=1),
                  lambda v: _result("disagreement", v, bound))


def _average_difference(config, params, lam):
    if config.f is None:
        raise ValueError("config.f is required for the average-difference check")
    fv = config.f.values
    n = int(config.n)
    bound = coupled_variance_bound(params)

    def per_batch(batch):
        diff = fv[batch.x[:, :n]].mean(axis=1) - fv[batch.x_eps[:, :n]].mean(axis=1)
        return diff ** 2

    return _Check(per_batch, lambda v: _result("average_difference", v, bound))


def _tail(config, params, lam):
    # threshold of a trajectory, indexed by its initial disagreement 0 or 1
    thr = np.array([coupled_concentration_threshold(lam, params, d) for d in (False, True)])
    n = int(config.n)
    bound = coupled_concentration_bound(lam, params)
    return _Check(lambda batch: batch.z[:, :n].mean(axis=1) >= thr[batch.z[:, 0]],
                  lambda v: _result("tail", v, bound))


def _base_tail(config, params, lam):
    if config.f is None:
        raise ValueError("config.f is required for the base tail check")
    thr = base_concentration_threshold(lam, params)
    fv = config.f.values
    mu_f = float(invariant_measure(config.p).weights @ fv)
    n = int(config.n)
    bound = base_concentration_bound(lam, params)
    return _Check(lambda batch: np.abs(mu_f - fv[batch.x[:, :n]].mean(axis=1)) >= thr,
                  lambda v: _result("base_tail", v, bound))


def _stopping_rule(config, params):
    rule = config.stopping
    if rule is None:
        raise ValueError("config.stopping is required for decoupling checks")
    if params.p0 != 0.0:
        raise ValueError("decoupling checks require equal initial states/laws")
    if rule.kind == "deterministic" and int(rule.time) > int(config.n):
        raise ValueError("deterministic stopping time exceeds the simulated horizon")
    return rule


def _decoupling(config, params, lam):
    rule = _stopping_rule(config, params)
    if rule.kind == "deterministic":
        e_tau = float(rule.time)
    else:
        e_tau = expected_hitting_time(config.p, rule.targets, config.x0)
    bound = decoupling_time_bound(params.epsilon, e_tau)  # E[tau ^ n] <= E[tau]
    n = int(config.n)
    on = _target_table(rule.targets, len(config.p))

    def per_batch(batch):
        # first disagreement step (n + 1: none in the run) against tau ^ n
        s_eps = _first_hit_times(batch.z, _ON_ONE, n + 1)
        if rule.kind == "deterministic":
            return s_eps <= rule.time
        return s_eps <= _first_hit_times(batch.x, on, n)

    return _Check(per_batch, lambda v: _result("decoupling", v, bound))


def _bounding_decoupling(config, params, lam):
    rule = config.stopping
    if rule is None or rule.kind != "deterministic":
        raise ValueError("bounding-chain decoupling needs a deterministic stopping rule")
    _stopping_rule(config, params)
    N = int(rule.time)
    bound = decoupling_time_bound(params.epsilon, float(N))

    def per_batch(batch):
        return _first_hit_times(batch.y, _ON_ONE, N + 1) <= N

    return _Check(per_batch, lambda v: _result("bounding_decoupling", v, bound))


def _path_law(config, params, lam):
    rule = config.stopping
    if rule is None or rule.kind != "hitting":
        raise ValueError("path-law check needs a hitting stopping rule")
    if params.p0 != 0.0:
        raise ValueError("path-law check requires equal initial laws")
    e_tau = expected_hitting_time(config.p, rule.targets, config.x0)
    bound = path_law_bound(params.epsilon, e_tau)  # tau ^ (n + 1) is a function of tau
    n = int(config.n)
    on = _target_table(rule.targets, len(config.p))

    def per_batch(batch):
        # tau ^ (n + 1) of each marginal: a hit after step n reads n + 1
        return np.stack([_first_hit_times(batch.x, on, n + 1),
                         _first_hit_times(batch.x_eps, on, n + 1)], axis=1)

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
    "decoupling": _decoupling,
    "bounding_decoupling": _bounding_decoupling,
    "path_law": _path_law,
}

EXPERIMENT_NAMES = tuple(_CHECKS)


def run_experiments(names, config: ExperimentConfig, lam=1.0):
    """Run the named checks on one coupled run; results in the order of ``names``.

    Every check reads the same run of horizon ``n``; ``decoupling`` and
    ``path_law`` stop at ``tau ^ n`` and ``tau ^ (n + 1)``.  Unknown names and
    invalid configs are rejected before anything is simulated.  ``lam`` only
    matters for the tail checks.  Each result equals, bit for bit, the
    matching ``empirical_*`` call, where there is one.
    """
    names = list(names)
    unknown = [name for name in names if name not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(EXPERIMENT_NAMES)}")
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
