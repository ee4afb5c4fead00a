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

Everything is reproducible bit-for-bit from ``(master_seed, config)`` under
the RNG contract of :mod:`.coupling`, whichever checks read a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bounds import (
    _ROWS,
    BoundParams,
    _require_lambda,
    base_concentration_threshold,
    coupled_concentration_threshold,
)
from .coupling import CoupledBatch, _as_initial, iter_coupled_batches
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


def _result(name, values, bound, steps=1):
    """The estimate is the total of the terms over ``replicates * steps``: rounded once
    when the terms are counts, so an attained bound is not exceeded by rounding alone."""
    values = np.asarray(values, dtype=float)
    est = float(values.sum() / (values.size * steps))
    fractions = values / steps
    se = float(fractions.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
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

    ``per_batch`` maps a :class:`CoupledBatch` (a slice of rows of one) to one
    value (or row of values) per trajectory; ``terms`` turns the values of all
    replicates, in trajectory order, into one term per replicate, whose mean
    is the estimate; ``expected_tau`` is the ``E[tau]`` of a stopping-time check.
    A term that counts over ``steps`` steps stands for its fraction of them.
    """

    per_batch: Callable
    terms: Callable = lambda values: values
    expected_tau: float | None = None
    steps: int = 1


def _first_hit_times(states, on, missing):
    """First index k with ``on[states[:, k]]``; ``missing`` where never hit.

    ``on`` is a boolean lookup table over the states, True on the targets.
    """
    hit = on[states]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), missing)


_ON_ONE = np.array([False, True])  # target {1} of the binary paths z and y


def _reaching(into, edges):
    """States with a path along ``edges`` (``edges[x, y]`` for a move x -> y) into the mask ``into``."""
    while not np.array_equal(into, more := into | edges[:, into].any(axis=1)):
        into = more
    return into


def expected_hitting_time(P, targets, start=None):
    """Exact expected hitting time of ``targets``, by inverting ``I - P`` where it is finite.

    It is ``inf`` from every state that can reach, off the targets, a state
    that cannot reach them.  Returns the vector if ``start`` is None, else the
    expectation from a start state (int) or law (vector; states without mass do not count).
    """
    K = as_kernel(P)
    n = len(K)
    target = _target_table(targets, n)
    edges = K.rows > 0.0
    infinite = _reaching(~_reaching(target, edges), edges & ~target[:, None])
    others = np.flatnonzero(~target & ~infinite)
    times = np.where(infinite, np.inf, 0.0)
    if others.size:
        A = np.eye(others.size) - K.rows[np.ix_(others, others)]
        try:
            times[others] = np.linalg.solve(A, np.ones(others.size))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"hitting-time system singular: {exc}") from exc
        if not np.all(np.isfinite(times[others])) or times[others].min() < 0.0:
            raise NumericalFailureError("hitting-time solve produced an invalid vector")
    if start is None:
        return times
    state, weights = _as_initial(start, n, "start")
    return float(times[state] if state is not None else weights[weights > 0] @ times[weights > 0])


# ---------------------------------------------------------------------------
# checks: each validates its inputs before anything is simulated; its bound is
# the raw value of its bounds-table row, named in _CHECKS

def _disagreement(config, params, lam):
    return _Check(lambda batch: batch.z[:, :config.n].sum(axis=1), steps=config.n)


def _average_difference(config, params, lam):
    if config.f is None:
        raise ValueError("config.f is required for the average-difference check")
    fv = config.f.values
    n = config.n

    def per_batch(batch):
        diff = fv[batch.x[:, :n]].mean(axis=1) - fv[batch.x_eps[:, :n]].mean(axis=1)
        return diff ** 2

    return _Check(per_batch)


def _tail(config, params, lam):
    # threshold of a trajectory, indexed by its initial disagreement 0 or 1
    thr = np.array([coupled_concentration_threshold(lam, params, d) for d in (False, True)])
    return _Check(lambda batch: batch.z[:, :config.n].mean(axis=1) >= thr[batch.z[:, 0]])


def _base_tail(config, params, lam):
    if config.f is None:
        raise ValueError("config.f is required for the base tail check")
    thr = base_concentration_threshold(lam, params)
    fv = config.f.values
    mu_f = float(invariant_measure(config.p).weights @ fv)
    return _Check(lambda batch: np.abs(mu_f - fv[batch.x[:, :config.n]].mean(axis=1)) >= thr)


def _stopping(config, params, kinds):
    """``E[tau]`` of the one rule ``config.stopping``, and ``tau``.

    The rule must be one of ``kinds``, the starts equal and a deterministic
    time within the horizon.  ``tau(states, cap)`` is ``tau ^ cap`` per base
    chain trajectory; ``E[tau] >= E[tau ^ cap]``, so a bound in ``E[tau]``
    holds at any cap.
    """
    rule = config.stopping
    if rule is None or rule.kind not in kinds:
        raise ValueError(f"this check needs a {' or '.join(kinds)} stopping rule, got {rule!r}")
    if params.p0 != 0.0:
        raise ValueError("stopping-time checks require equal initial states/laws")
    if rule.kind == "deterministic":
        if rule.time > config.n:
            raise ValueError("deterministic stopping time exceeds the simulated horizon")
        return float(rule.time), lambda states, cap: min(rule.time, cap)
    on = _target_table(rule.targets, len(config.p))
    return (expected_hitting_time(config.p, rule.targets, config.x0),
            lambda states, cap: _first_hit_times(states, on, cap))


def _decoupling_of(path, kinds):
    """The check P(the binary ``path`` of a batch first reads 1 by ``tau ^ n``).

    ``path`` is ``"z"``, the disagreement indicator, or ``"y"``, the
    dominating chain, which reads 1 wherever ``z`` does.
    """
    def check(config, params, lam):
        expected_tau, tau = _stopping(config, params, kinds)
        n = config.n

        def per_batch(batch):
            # first step reading 1 (n + 1: none in the run) against tau ^ n
            return _first_hit_times(getattr(batch, path), _ON_ONE, n + 1) <= tau(batch.x, n)

        return _Check(per_batch, expected_tau=expected_tau)

    return check


def _path_law(config, params, lam):
    # the laws of tau ^ (n + 1), a function of tau, are as close as those of
    # any path functional measurable at tau: min(1, epsilon E[tau])
    expected_tau, tau = _stopping(config, params, ("hitting",))
    n = config.n

    def per_batch(batch):
        # tau ^ (n + 1) of each marginal: a hit after step n reads n + 1
        return np.stack([tau(batch.x, n + 1), tau(batch.x_eps, n + 1)], axis=1)

    def terms(v):
        tau_p, tau_q = v[:, 0], v[:, 1]
        p_hat = np.bincount(tau_p, minlength=n + 2) / tau_p.size
        q_hat = np.bincount(tau_q, minlength=n + 2) / tau_q.size
        # Plug-in TV with the signs of p_hat - q_hat frozen: one term per
        # replicate, whose mean is the plug-in estimate and whose spread gives
        # the paired standard error.
        signs = np.sign(p_hat - q_hat)
        return 0.5 * (signs[tau_p] - signs[tau_q])

    return _Check(per_batch, terms, expected_tau)


# Each check: (the bounds-table row whose raw value is its bound, its builder).
_CHECKS = {
    "disagreement": ("avg_disagreement", _disagreement),
    "average_difference": ("coupled_variance", _average_difference),
    "tail": ("coupled_concentration", _tail),
    "base_tail": ("base_concentration", _base_tail),
    "decoupling": ("decoupling_time", _decoupling_of("z", ("deterministic", "hitting"))),
    "bounding_decoupling": ("decoupling_time", _decoupling_of("y", ("deterministic",))),
    "path_law": ("path_law", _path_law),
}
_ROW_VALUES = {name: value for name, *_, value in _ROWS}

_SLICE_ROWS = 256  # trajectories per slice handed to the checks: small float64 temporaries

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
    checks, bounds, parts = [], [], [[] for _ in names]
    for name in names:  # each bound right after its check, in the order of names
        row, build = _CHECKS[name]
        checks.append(build(config, params, lam))
        bounds.append(_ROW_VALUES[row](params, lam, checks[-1].expected_tau))
    # one coupled run of horizon n for every check; batches arrive in trajectory order
    for batch in iter_coupled_batches(config.p_eps, config.p, config.x0_eps, config.x0,
                                      config.n, config.replicates, config.master_seed):
        # every check reduces per trajectory: a slice of rows gives the whole batch's bits
        for lo in range(0, batch.n_traj, _SLICE_ROWS):
            rows = CoupledBatch(*(path[lo:lo + _SLICE_ROWS] for path in
                                  (batch.x_eps, batch.x, batch.z, batch.y)), batch.first_index + lo)
            for check, values in zip(checks, parts):
                values.append(check.per_batch(rows))
        del batch, rows  # one batch alive while the next is drawn
    return [_result(name, check.terms(np.concatenate(values)), bound, check.steps)
            for name, check, bound, values in zip(names, checks, bounds, parts)]


def empirical_disagreement(config: ExperimentConfig) -> VerificationResult:
    """Mean over replicates of the disagreement fraction ``(1/n) sum_k 1{X_k != X_k^eps}``,
    as the disagreements of all replicates over ``replicates * n``."""
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
