"""Simulation harness comparing empirical averages against the closed-form certificates.

Each ``empirical_*`` operation simulates the coupled pair (or a single chain),
estimates the quantity a certificate bounds, and returns a
:class:`VerificationResult` whose ``satisfied`` flag applies a one-sided
``estimate <= bound + 3 * std_error`` test: the bounds are truths about
expectations, so the slack only absorbs Monte Carlo noise.

Everything is reproducible bit-for-bit from ``(master_seed, config)``:
coupled runs consume per-trajectory substreams ``spawn_key=(i,)``, auxiliary
single-chain runs use ``spawn_key=(tag, i)`` with distinct tags per role.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundParams,
    avg_disagreement_bound,
    base_concentration_bound,
    base_concentration_threshold,
    coupled_concentration_bound,
    coupled_variance_bound,
    decoupling_time_bound,
    path_law_bound,
)
from .coupling import _cdf, _pick, iter_coupled_batches
from .errors import DimensionMismatchError, NumericalFailureError
from .kernels import (
    FiniteKernel,
    StateFunction,
    as_dist,
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
    "EnvelopeReport",
    "closeness_params",
    "initial_disagreement_prob",
    "expected_hitting_time",
    "empirical_disagreement",
    "empirical_average_difference",
    "empirical_tail",
    "empirical_base_tail",
    "empirical_decoupling",
    "empirical_bounding_decoupling",
    "empirical_path_law_distance",
    "almost_sure_envelope_check",
    "run_experiment",
    "EXPERIMENT_NAMES",
]

# spawn_key tags for auxiliary single-chain streams (coupled runs use (i,)).
_TAG_BASE = 1
_TAG_EPS = 2


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
            if self.time is None or int(self.time) < 1:
                raise ValueError("deterministic rule needs a positive time")
        else:
            if not self.targets:
                raise ValueError("hitting rule needs a non-empty target set")
            object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


@dataclass
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
        self.p_eps = as_kernel(self.p_eps)
        self.p = as_kernel(self.p)
        if len(self.p_eps) != len(self.p):
            raise DimensionMismatchError(
                f"kernels live on {len(self.p_eps)} vs {len(self.p)} states"
            )
        if int(self.n) < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if int(self.replicates) < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates!r}")
        if self.f is not None:
            self.f = as_state_function(self.f)
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


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-trajectory envelope statistics over a horizon grid (heuristic witness)."""

    stats: np.ndarray        # max over the grid of n * (avg - ratio - 2 sqrt(log n / n))
    stabilized: np.ndarray   # True where the second half of the grid adds nothing
    grid: np.ndarray


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


def _initial_weights(value, n_states):
    if isinstance(value, (int, np.integer)):
        w = np.zeros(n_states)
        w[int(value)] = 1.0
        return w
    return as_dist(value).weights


def initial_disagreement_prob(config: ExperimentConfig) -> float:
    """P(X_0 != X_0^eps) under the maximal coupling of the initial laws (their TV distance)."""
    if isinstance(config.x0_eps, (int, np.integer)) and isinstance(config.x0, (int, np.integer)):
        return float(int(config.x0_eps) != int(config.x0))
    S = len(config.p)
    return tv_distance(_initial_weights(config.x0_eps, S), _initial_weights(config.x0, S))


def closeness_params(config: ExperimentConfig, f_star=None) -> BoundParams:
    """Exact closeness constants of the configured pair, bundled for the evaluators."""
    a = doeblin_constant(config.p)
    if f_star is None:
        f_star = f_star_norm(config.f) if config.f is not None else 0.0
    return BoundParams(
        epsilon=local_epsilon(config.p_eps, config.p),
        n=int(config.n),
        alpha=cross_doeblin_constant(config.p_eps, config.p),
        a=a if a > 0.0 else None,
        p0=initial_disagreement_prob(config),
        f_star=f_star,
    )


def _coupled_batches(config: ExperimentConfig):
    return iter_coupled_batches(
        config.p_eps, config.p, config.x0_eps, config.x0,
        int(config.n), int(config.replicates), config.master_seed,
    )


# ---------------------------------------------------------------------------
# single-chain simulation (for the base-chain tail and the path-law estimate)

def _iter_chain_batches(kernel, x0, n, n_traj, seed, tag, batch_size=None):
    cdf = _cdf(as_kernel(kernel).rows)
    if isinstance(x0, (int, np.integer)):
        init = int(x0)
        init_cdf = None
        steps = n
    else:
        init_cdf = _cdf(as_dist(x0).weights)
        steps = n + 1
    if batch_size is None:
        batch_size = max(1, min(int(n_traj), 3_000_000 // max(steps, 1)))
    for start in range(0, int(n_traj), batch_size):
        count = min(batch_size, int(n_traj) - start)
        U = np.empty((count, steps))
        for j in range(count):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, start + j))
            U[j] = np.random.default_rng(ss).random(steps)
        states = np.empty((count, n + 1), dtype=np.int32)
        offset = 0
        if init_cdf is None:
            states[:, 0] = init
        else:
            states[:, 0] = _pick(init_cdf, U[:, 0])
            offset = 1
        cur = states[:, 0].copy()
        for k in range(n):
            cur = _pick(cdf[cur], U[:, offset + k]).astype(np.int32)
            states[:, k + 1] = cur
        yield start, states


def _first_hit_times(states, targets):
    """First index k with states[:, k] in targets; -1 where never hit."""
    hit = np.isin(states, list(targets))
    any_hit = hit.any(axis=1)
    return np.where(any_hit, hit.argmax(axis=1), -1)


def expected_hitting_time(P, targets, start=None):
    """Exact expected hitting time of ``targets``, by inverting ``I - P`` off the target set.

    Returns the full vector of expectations if ``start`` is None, otherwise
    the expectation from a start state (int) or start law (vector).
    """
    K = as_kernel(P)
    n = len(K)
    targets = sorted({int(t) for t in targets})
    if not targets:
        raise ValueError("target set must be non-empty")
    if targets[0] < 0 or targets[-1] >= n:
        raise ValueError(f"targets outside 0..{n - 1}")
    times = np.zeros(n)
    others = np.setdiff1d(np.arange(n), targets)
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
    if isinstance(start, (int, np.integer)):
        return float(times[int(start)])
    return float(_initial_weights(start, n) @ times)


# ---------------------------------------------------------------------------
# empirical checks

def empirical_disagreement(config: ExperimentConfig) -> VerificationResult:
    """Mean over replicates of the disagreement fraction ``(1/n) sum_k 1{X_k != X_k^eps}``."""
    n = int(config.n)
    per_rep = np.empty(int(config.replicates))
    for batch in _coupled_batches(config):
        per_rep[batch.first_index:batch.first_index + batch.n_traj] = \
            batch.z[:, :n].mean(axis=1)
    return _result("disagreement", per_rep, avg_disagreement_bound(closeness_params(config)))


def empirical_average_difference(config: ExperimentConfig) -> VerificationResult:
    """Second moment of the difference of the two time averages of ``f``."""
    if config.f is None:
        raise ValueError("config.f is required for the average-difference check")
    fv = config.f.values
    n = int(config.n)
    per_rep = np.empty(int(config.replicates))
    for batch in _coupled_batches(config):
        diff = fv[batch.x[:, :n]].mean(axis=1) - fv[batch.x_eps[:, :n]].mean(axis=1)
        per_rep[batch.first_index:batch.first_index + batch.n_traj] = diff ** 2
    return _result("average_difference", per_rep,
                   coupled_variance_bound(closeness_params(config)))


def empirical_tail(config: ExperimentConfig, lam) -> VerificationResult:
    """Probability the disagreement fraction exceeds its concentration threshold."""
    params = closeness_params(config)
    s = params.alpha + params.epsilon
    base_thr = params.epsilon / s + lam / math.sqrt(config.n)
    n = int(config.n)
    per_rep = np.empty(int(config.replicates))
    for batch in _coupled_batches(config):
        thr = base_thr + batch.z[:, 0] / (n * s)
        per_rep[batch.first_index:batch.first_index + batch.n_traj] = \
            batch.z[:, :n].mean(axis=1) >= thr
    return _result("tail", per_rep, coupled_concentration_bound(lam, params))


def empirical_base_tail(config: ExperimentConfig, lam) -> VerificationResult:
    """Single-chain analogue: deviation of the time average of ``f`` from ``mu f``."""
    if config.f is None:
        raise ValueError("config.f is required for the base tail check")
    params = closeness_params(config)
    thr = base_concentration_threshold(lam, params)
    fv = config.f.values
    mu_f = float(invariant_measure(config.p).weights @ fv)
    n = int(config.n)
    per_rep = np.empty(int(config.replicates))
    for start, states in _iter_chain_batches(config.p, config.x0, n,
                                             int(config.replicates),
                                             config.master_seed, _TAG_BASE):
        avg = fv[states[:, :n]].mean(axis=1)
        per_rep[start:start + states.shape[0]] = np.abs(mu_f - avg) >= thr
    return _result("base_tail", per_rep, base_concentration_bound(lam, params))


def _decoupling_and_tau(config):
    """Per-replicate first disagreement step and realized stopping time (-1 = not yet)."""
    rule = config.stopping
    if rule is None:
        raise ValueError("config.stopping is required for decoupling checks")
    if initial_disagreement_prob(config) != 0.0:
        raise ValueError("decoupling checks require equal initial states/laws")
    R = int(config.replicates)
    s_eps = np.empty(R, dtype=np.int64)
    tau = np.empty(R, dtype=np.int64)
    sigma = np.empty(R, dtype=np.int64)
    for batch in _coupled_batches(config):
        sl = slice(batch.first_index, batch.first_index + batch.n_traj)
        s_eps[sl] = _first_hit_times(batch.z, [1])
        sigma[sl] = _first_hit_times(batch.y, [1])
        if rule.kind == "deterministic":
            tau[sl] = int(rule.time)
        else:
            tau[sl] = _first_hit_times(batch.x, rule.targets)
    return s_eps, tau, sigma


def empirical_decoupling(config: ExperimentConfig) -> VerificationResult:
    """P(first disagreement <= stopping time) against ``min(1, epsilon E[tau])``.

    With a hitting rule, E[tau] comes from the exact linear solve.  Replicates
    where neither event resolved within the horizon are counted as decoupled
    (one-sided safe) and a truncation warning reports the fraction.
    """
    rule = config.stopping
    s_eps, tau, _ = _decoupling_and_tau(config)
    if rule.kind == "deterministic":
        if int(rule.time) > int(config.n):
            raise ValueError("deterministic stopping time exceeds the simulated horizon")
        e_tau = float(rule.time)
    else:
        e_tau = expected_hitting_time(config.p, rule.targets, config.x0)
    dec = np.where(s_eps >= 0, s_eps, np.iinfo(np.int64).max)
    stop = np.where(tau >= 0, tau, np.iinfo(np.int64).max)
    undetermined = (s_eps < 0) & (tau < 0)
    events = np.where(undetermined, True, dec <= stop)
    frac_und = float(undetermined.mean())
    if frac_und > 0.0:
        warnings.warn(
            f"{frac_und:.2%} of replicates resolved neither event within the horizon; "
            f"counted as decoupled, so the estimate is biased upward by at most that amount",
            RuntimeWarning,
            stacklevel=2,
        )
    eps = local_epsilon(config.p_eps, config.p)
    return _result("decoupling", events.astype(float), decoupling_time_bound(eps, e_tau))


def empirical_bounding_decoupling(config: ExperimentConfig) -> VerificationResult:
    """P(dominating chain visits 1 within N steps); exact law is ``1 - (1-epsilon)^N``."""
    rule = config.stopping
    if rule is None or rule.kind != "deterministic":
        raise ValueError("bounding-chain decoupling needs a deterministic stopping rule")
    if int(rule.time) > int(config.n):
        raise ValueError("deterministic stopping time exceeds the simulated horizon")
    _, _, sigma = _decoupling_and_tau(config)
    events = (sigma >= 0) & (sigma <= int(rule.time))
    eps = local_epsilon(config.p_eps, config.p)
    return _result("bounding_decoupling", events.astype(float),
                   decoupling_time_bound(eps, float(rule.time)))


def empirical_path_law_distance(config: ExperimentConfig) -> VerificationResult:
    """TV distance between the hitting-time laws of the two chains, run independently.

    Estimated on support ``0..cap`` with ``cap = 50 E[tau]``, the tail mass of
    both histograms added as a worst case; the two samples use uncoupled
    streams because the claim concerns marginal laws.  Standard error by a
    delta-method normal approximation with the observed signs.
    """
    rule = config.stopping
    if rule is None or rule.kind != "hitting":
        raise ValueError("path-law check needs a hitting stopping rule")
    if initial_disagreement_prob(config) != 0.0:
        raise ValueError("path-law check requires equal initial laws")
    e_tau = expected_hitting_time(config.p, rule.targets, config.x0)
    cap = max(int(config.n), int(math.ceil(50.0 * e_tau)))
    R = int(config.replicates)

    def histogram(kernel, tag):
        counts = np.zeros(cap + 1)
        overflow = 0
        for _, states in _iter_chain_batches(kernel, config.x0, cap, R,
                                             config.master_seed, tag):
            hits = _first_hit_times(states, rule.targets)
            overflow += int((hits < 0).sum())
            got = hits[hits >= 0]
            counts += np.bincount(got, minlength=cap + 1)
        return counts / R, overflow / R

    p_hat, p_tail = histogram(config.p, _TAG_BASE)
    q_hat, q_tail = histogram(config.p_eps, _TAG_EPS)
    if p_tail > 0.0 or q_tail > 0.0:
        warnings.warn(
            f"hitting-time support truncated at {cap}: tail masses {p_tail:.3g} / {q_tail:.3g} "
            "added to the TV estimate as a worst case",
            RuntimeWarning,
            stacklevel=2,
        )
    tv_est = 0.5 * float(np.abs(p_hat - q_hat).sum()) + 0.5 * (p_tail + q_tail)
    # Linear-functional variance with frozen signs (tail signs are the worst case +1/-1).
    signs = np.sign(p_hat - q_hat)
    lin_p = float(signs @ p_hat + p_tail)
    lin_q = float(signs @ q_hat - q_tail)
    se = 0.5 * math.sqrt(max(1.0 - lin_p ** 2, 0.0) / R + max(1.0 - lin_q ** 2, 0.0) / R)
    eps = local_epsilon(config.p_eps, config.p)
    bound = path_law_bound(eps, e_tau)
    return VerificationResult(
        name="path_law",
        estimate=tv_est,
        std_error=se,
        bound=bound,
        satisfied=tv_est <= bound + 3.0 * se,
        replicates_used=R,
    )


def almost_sure_envelope_check(config: ExperimentConfig, grid=None,
                               use_bounding=False) -> EnvelopeReport:
    """Empirical witness for the almost-sure envelope of the disagreement average.

    For each trajectory and each horizon ``g`` in a log-spaced grid, computes
    ``g * (avg_g - e/s - 2 sqrt(log g / g))`` -- the running value any a.s.
    envelope constant would have to dominate -- and reports its maximum plus a
    stabilization flag (the second half of the grid adds nothing).  This is a
    heuristic witness, not a proof-grade test: the envelope constant is a
    random quantity with no distribution to test against.
    """
    n = int(config.n)
    if n < 10_000:
        raise ValueError("envelope check needs a long horizon (n >= 10^4)")
    if grid is None:
        grid = np.unique(np.geomspace(1_000, n, num=15).astype(np.int64))
    grid = np.asarray(grid, dtype=np.int64)
    if grid.min() < 1 or grid.max() > n:
        raise ValueError("grid horizons must lie in 1..n")
    params = closeness_params(config)
    ratio = params.epsilon / (params.alpha + params.epsilon)
    drift = 2.0 * np.sqrt(np.log(grid) / grid)
    stats = np.empty(int(config.replicates))
    stabilized = np.empty(int(config.replicates), dtype=bool)
    half = grid.size // 2
    for batch in _coupled_batches(config):
        path = batch.y if use_bounding else batch.z
        csum = np.cumsum(path[:, :n], axis=1, dtype=np.float64)
        avg = csum[:, grid - 1] / grid
        k_hat = (avg - ratio - drift) * grid
        sl = slice(batch.first_index, batch.first_index + batch.n_traj)
        stats[sl] = k_hat.max(axis=1)
        stabilized[sl] = k_hat[:, half:].max(axis=1) <= np.maximum(k_hat[:, :half].max(axis=1), 0.0)
    return EnvelopeReport(stats=stats, stabilized=stabilized, grid=grid)


EXPERIMENT_NAMES = (
    "disagreement",
    "average_difference",
    "tail",
    "base_tail",
    "decoupling",
    "bounding_decoupling",
    "path_law",
)


def run_experiment(name, config: ExperimentConfig, lam=1.0) -> VerificationResult:
    """Dispatch one named check; ``lam`` only matters for the tail checks."""
    if name == "disagreement":
        return empirical_disagreement(config)
    if name == "average_difference":
        return empirical_average_difference(config)
    if name == "tail":
        return empirical_tail(config, lam)
    if name == "base_tail":
        return empirical_base_tail(config, lam)
    if name == "decoupling":
        return empirical_decoupling(config)
    if name == "bounding_decoupling":
        return empirical_bounding_decoupling(config)
    if name == "path_law":
        return empirical_path_law_distance(config)
    raise ValueError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENT_NAMES)}")
