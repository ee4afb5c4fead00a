"""Gibbs samplers for a discretized GP hyperparameter posterior, exact and low-rank.

A squared-exponential Gaussian process observed with noise has a marginal
likelihood for (length-scale, amplitude) that only involves ``I + x2 Sigma``.
Discretizing both hyperparameters to ``m`` atoms each makes the two-block
Gibbs sampler an explicit ``m^2 x m^2`` transition matrix.  Replacing
``Sigma`` by its best rank-q eigendecomposition truncation gives a cheap
approximating sampler whose inversions go through the Woodbury identity, and
because rows of either matrix depend only on the current length-scale atom,
the closeness constants of the pair reduce to maxima over ``m x m`` row
pairs and are computed exactly.

In the eigenbasis of each length-scale Gram matrix the Woodbury quadratic
form and log-determinant at every rank are prefix sums over one spectrum, so
the rank sweep builds all truncations, and the full-rank table, from one
eigendecomposition per atom.  The dense path through numpy's Cholesky
factorization (:func:`marginal_log_likelihood`, :func:`exact_log_table`)
stays as an independent reference for the exact kernel.

All likelihood arithmetic is done in log space with log-sum-exp
normalization; raw ratios underflow already at moderate data sizes.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegimeError, NumericalFailureError
from .kernels import FiniteKernel

__all__ = [
    "GPConfig",
    "LowRankFactor",
    "SweepRow",
    "squared_distances",
    "gram_matrix",
    "generate_data",
    "low_rank_factor",
    "woodbury_inverse",
    "lowrank_logdet",
    "marginal_log_likelihood",
    "exact_log_table",
    "lowrank_log_table",
    "gibbs_transition_matrix",
    "epsilon_alpha_for_gp",
    "figure_sweep",
    "config_snapshot",
]

_DECAY_TARGET = 0.01   # correlation value the spatial kernel reaches ...
_DECAY_FRACTION = 0.45  # ... at this fraction of the maximal squared distance

SweepRow = namedtuple("SweepRow", ["replicate", "q", "epsilon", "alpha", "ratio"])


@dataclass
class GPConfig:
    """Model, grid, and prior setup.

    Defaults are the desk-scale protocol (n=100, m=5); the grids follow the
    scale-free construction ``x1 = -log(0.01)/d`` for equally spaced decay
    fractions d and equally spaced amplitudes, and the data-generating
    length-scale places the correlation decay at 0.01 exactly at 45% of the
    maximal squared distance between sampling points.
    """

    n: int = 100
    m: int = 5
    prior_a: float = 2.0
    prior_b: float = 2.0
    true_x2: float = 0.9
    true_x3_sq: float = 0.2
    seed: int = 0
    points: np.ndarray | None = None
    grid_x1: np.ndarray | None = None
    grid_x2: np.ndarray | None = None
    true_x1: float | None = None

    def __post_init__(self):
        if int(self.n) < 2:
            raise ValueError(f"n must be >= 2, got {self.n!r}")
        if int(self.m) < 1:
            raise ValueError(f"m must be >= 1, got {self.m!r}")
        if self.prior_a <= 0.0 or self.prior_b <= 0.0:
            raise ValueError("prior parameters must be positive")
        if self.true_x2 < 0.0 or self.true_x3_sq < 0.0:
            raise ValueError("true amplitude and noise variance must be nonnegative")
        if self.points is None:
            self.points = np.arange(1, int(self.n) + 1) / float(self.n)
        else:
            self.points = np.asarray(self.points, dtype=float)
            if self.points.size != int(self.n):
                raise ValueError("points length must equal n")
        max_sq = float(squared_distances(self.points).max())
        if max_sq <= 0.0:
            raise ValueError("sampling points must not be all equal")
        if self.true_x1 is None:
            self.true_x1 = -math.log(_DECAY_TARGET) / (_DECAY_FRACTION * max_sq)
        if self.grid_x1 is None:
            self.grid_x1 = -math.log(_DECAY_TARGET) / np.linspace(0.95, 0.05, int(self.m))
        else:
            self.grid_x1 = np.asarray(self.grid_x1, dtype=float)
        if self.grid_x2 is None:
            self.grid_x2 = np.linspace(0.5, 1.4, int(self.m))
        else:
            self.grid_x2 = np.asarray(self.grid_x2, dtype=float)
        if self.grid_x1.size != int(self.m) or self.grid_x2.size != int(self.m):
            raise ValueError("grids must each hold m atoms")
        if self.grid_x1.min() <= 0.0 or self.grid_x2.min() <= 0.0:
            raise ValueError("grid atoms must be strictly positive")


def squared_distances(points) -> np.ndarray:
    d = np.subtract.outer(points, points)
    return d * d


def gram_matrix(x1, points) -> np.ndarray:
    """Squared-exponential Gram matrix ``exp(-x1 ||w_i - w_j||^2)`` (unit diagonal)."""
    if x1 <= 0.0:
        raise ValueError(f"length-scale parameter must be positive, got {x1!r}")
    return np.exp(-x1 * squared_distances(points))


def generate_data(config: GPConfig, replicate=0) -> np.ndarray:
    """Draw one observation vector: latent field plus noise, both scaled by the noise level.

    The latent field has covariance ``true_x2 * Sigma(true_x1)``; observations
    are ``x3 * f + e`` with independent ``e ~ N(0, x3^2)`` per coordinate, so
    the observation covariance is ``x3^2 (I + x2 Sigma)``.  Reproducible from
    ``(config.seed, replicate)``.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(int(replicate),))
    )
    sigma = gram_matrix(config.true_x1, config.points)
    cov_f = config.true_x2 * sigma
    try:
        chol = np.linalg.cholesky(cov_f)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov_f + 1e-10 * np.eye(config.n))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"latent covariance not factorizable: {exc}") from exc
    f = chol @ rng.standard_normal(int(config.n))
    x3 = math.sqrt(config.true_x3_sq)
    return x3 * f + x3 * rng.standard_normal(int(config.n))


@dataclass(frozen=True)
class LowRankFactor:
    """Rank-q factor ``Lambda`` with ``Lambda Lambda' `` the top-q eigen truncation."""

    lam: np.ndarray
    q: int


def _spectrum(gram):
    """Eigenvalues of a symmetric PSD matrix in descending order, and matching vectors.

    Ties keep their original order (stable sort); tiny negative eigenvalues
    are clipped to zero.
    """
    try:
        vals, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    return np.clip(vals[order], 0.0, None), vecs[:, order]


def low_rank_factor(sigma, q) -> LowRankFactor:
    """Top-q eigenpair factor of a symmetric PSD matrix, from :func:`_spectrum`.

    The Frobenius error ``||Sigma - Lambda Lambda'||_F`` equals the
    root-sum-square of the discarded eigenvalues.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    if not 1 <= int(q) <= n:
        raise ValueError(f"rank must be in 1..{n}, got {q!r}")
    q = int(q)
    vals, vecs = _spectrum(sigma)
    return LowRankFactor(lam=vecs[:, :q] * np.sqrt(vals[:q]), q=q)


def woodbury_inverse(lam, c) -> np.ndarray:
    """``(I + c Lambda Lambda')^{-1} = I - Lambda (c^{-1} I_q + Lambda'Lambda)^{-1} Lambda'``."""
    if c <= 0.0:
        raise InvalidRegimeError(f"scale c must be positive, got {c!r}")
    lam = np.asarray(lam, dtype=float)
    n, q = lam.shape
    inner = np.eye(q) / c + lam.T @ lam
    try:
        core = np.linalg.solve(inner, lam.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Woodbury inner solve failed: {exc}") from exc
    return np.eye(n) - lam @ core


def lowrank_logdet(lam, c) -> float:
    """``log det(I_n + c Lambda Lambda') = log det(I_q + c Lambda'Lambda)``."""
    if c <= 0.0:
        raise InvalidRegimeError(f"scale c must be positive, got {c!r}")
    lam = np.asarray(lam, dtype=float)
    inner = np.eye(lam.shape[1]) + c * (lam.T @ lam)
    sign, logdet = np.linalg.slogdet(inner)
    if sign <= 0.0:
        raise NumericalFailureError("inner determinant not positive")
    return float(logdet)


def marginal_log_likelihood(x1, x2, z, points, prior_b=2.0, prior_a=2.0,
                            rank=None, gram=None) -> float:
    """Log marginal likelihood of the data at one hyperparameter atom (up to a constant).

    ``-0.5 log det(I + x2 Sigma) - 0.5 (a + n) log(b + z'(I + x2 Sigma)^{-1} z)``,
    where the noise level has been integrated out against its inverse-Gamma
    prior.  With ``rank=q`` the Gram matrix is replaced by its top-q eigen
    truncation and both the quadratic form and the determinant go through the
    Woodbury identities; ``gram`` can be passed to reuse a precomputed Gram
    matrix.

    The dropped proportionality constant cancels in every conditional the
    Gibbs kernels are built from.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if prior_b <= 0.0 or prior_a <= 0.0:
        raise ValueError("prior parameters must be positive")
    if gram is None:
        gram = gram_matrix(x1, points)
    if rank is None:
        try:
            chol = np.linalg.cholesky(np.eye(n) + x2 * gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"covariance not positive definite: {exc}") from exc
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        w = np.empty(n)
        for i in range(n):  # forward substitution for chol^{-1} z: O(n^2), a general solve O(n^3)
            w[i] = (z[i] - chol[i, :i] @ w[:i]) / chol[i, i]
        quad = float(w @ w)
    else:
        if x2 <= 0.0:
            raise InvalidRegimeError("low-rank engine needs a positive amplitude x2")
        lam = low_rank_factor(gram, rank).lam
        t = lam.T @ z
        inner = np.eye(lam.shape[1]) / x2 + lam.T @ lam
        try:
            quad = float(z @ z - t @ np.linalg.solve(inner, t))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"Woodbury inner solve failed: {exc}") from exc
        logdet = lowrank_logdet(lam, x2)
    return -0.5 * logdet - 0.5 * (prior_a + n) * math.log(prior_b + quad)


# ---------------------------------------------------------------------------
# likelihood tables over the m x m atom grid

def _gram_list(config):
    return [gram_matrix(x1, config.points) for x1 in config.grid_x1]


def _eigen_cache(config, grams=None):
    """Per length-scale atom: the :func:`_spectrum` of its Gram matrix."""
    if grams is None:  # one n x n Gram matrix alive at a time
        grams = (gram_matrix(x1, config.points) for x1 in config.grid_x1)
    return [_spectrum(g) for g in grams]


def exact_log_table(config, z, grams=None) -> np.ndarray:
    """Dense-factorization log-likelihood table ``ll[i1, i2]``."""
    grams = grams if grams is not None else _gram_list(config)
    m = int(config.m)
    ll = np.empty((m, m))
    for i1 in range(m):
        for i2 in range(m):
            ll[i1, i2] = marginal_log_likelihood(
                config.grid_x1[i1], config.grid_x2[i2], z, config.points,
                prior_b=config.prior_b, prior_a=config.prior_a, gram=grams[i1],
            )
    return ll


def lowrank_log_table(config, z, q, eigen_cache=None) -> np.ndarray:
    """Low-rank log-likelihood table ``ll[i1, i2]`` at rank ``q``.

    Evaluates the Woodbury identities in the eigenbasis, where the inner
    ``q x q`` matrix is diagonal: with projections ``c_i = u_i'z``,

    ``quad = z'z - sum_{i<q} l_i c_i^2 / (1/x2 + l_i)``,
    ``logdet = sum_{i<q} log(1 + x2 l_i)``,

    so every rank is a prefix sum over one spectrum.  ``q`` may also be an
    array of ranks, giving ``ll[k, i1, i2]`` at rank ``q[k]``; ranks above
    ``n`` give the full-rank table.
    """
    ranks = np.asarray(q, dtype=int)
    if np.any(ranks < 1):
        raise ValueError(f"ranks must be >= 1, got {q!r}")
    cache = eigen_cache if eigen_cache is not None else _eigen_cache(config)
    z = np.asarray(z, dtype=float)
    n = z.size
    x2 = np.asarray(config.grid_x2, dtype=float)[:, None]
    scale = 0.5 * (config.prior_a + n)
    ll = np.empty((n, int(config.m), x2.shape[0]))
    for i1, (vals, vecs) in enumerate(cache):
        coef_sq = (vecs.T @ z) ** 2
        quad = z @ z - np.cumsum(vals * coef_sq / (1.0 / x2 + vals), axis=1)
        logdet = np.cumsum(np.log1p(x2 * vals), axis=1)
        ll[:, i1, :] = (-0.5 * logdet - scale * np.log(config.prior_b + quad)).T
    return ll[np.minimum(ranks, n) - 1]


def logsumexp(a, axis):
    """``log(sum(exp(a), axis))`` shifted by the maximum, keeping ``axis`` with length 1."""
    top = a.max(axis=axis, keepdims=True)
    return top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))


def _conditional_tables(ll):
    # r[..., i1, y2]: resample the amplitude atom given the length-scale atom;
    # s[..., y1, y2]: resample the length-scale atom given the (new) amplitude atom.
    if not np.all(np.isfinite(ll)):
        raise NumericalFailureError("log-likelihood table contains non-finite entries")
    r = np.exp(ll - logsumexp(ll, axis=-1))
    s = np.exp(ll - logsumexp(ll, axis=-2))
    return r, s


def _rows_by_x1(ll):
    """Distinct transition rows as (..., m, m, m): entry [..., i1, j1, j2] = s[j1,j2] r[i1,j2]."""
    r, s = _conditional_tables(ll)
    return s[..., None, :, :] * r[..., :, None, :]


def gibbs_transition_matrix(config, z, rank=None) -> FiniteKernel:
    """Explicit two-block Gibbs transition matrix on the ``m^2`` atom pairs.

    State ``(i1, i2)`` sits at flat index ``i1 * m + i2``; a step resamples
    the amplitude atom given ``i1``, then the length-scale atom given the new
    amplitude atom, so every row depends on ``i1`` only (asserted by
    construction: the ``m`` rows of each block are identical).
    """
    ll = exact_log_table(config, z) if rank is None else lowrank_log_table(config, z, rank)
    rows = _rows_by_x1(ll)
    m = int(config.m)
    P = np.empty((m * m, m * m))
    for i1 in range(m):
        P[i1 * m:(i1 + 1) * m, :] = rows[i1].reshape(1, -1)
    labels = [f"x1={x1:.8g}|x2={x2:.8g}" for x1 in config.grid_x1 for x2 in config.grid_x2]
    return FiniteKernel(P, state_labels=labels)


def _local_tv(T_a, T_b):
    # max over i1 of the TV between row i1 of T_a and row i1 of T_b, per leading rank
    m = T_b.shape[0]
    flat_a = T_a.reshape(T_a.shape[:-3] + (m, m * m))
    return 0.5 * np.abs(flat_a - T_b.reshape(m, m * m)).sum(axis=-1).max(axis=-1)


def _cross_tv(T_a, T_b):
    # max over (i1, j1) of the TV between row i1 of T_a and row j1 of T_b, per
    # leading rank; one i1 at a time keeps memory at K m^3, not K m^4
    m = T_b.shape[0]
    flat_a = T_a.reshape(T_a.shape[:-3] + (m, m * m))
    flat_b = T_b.reshape(m, m * m)
    return np.max([0.5 * np.abs(flat_a[..., i1, None, :] - flat_b).sum(axis=-1).max(axis=-1)
                   for i1 in range(m)], axis=0)


def epsilon_alpha_for_gp(config, z, q, grams=None, eigen_cache=None):
    """Exact closeness constants of the (exact, rank-q) Gibbs pair.

    Exploits the row structure: rows depend only on the length-scale atom, so
    the maxima over the ``m^2 x m^2`` state space reduce to ``m x m`` row
    pairs.  The exact side comes from dense factorizations, independently of
    the eigen tables :func:`figure_sweep` uses.  Returns ``(epsilon, alpha)``.
    """
    grams = grams if grams is not None else _gram_list(config)
    cache = eigen_cache if eigen_cache is not None else _eigen_cache(config, grams)
    T = _rows_by_x1(exact_log_table(config, z, grams=grams))
    Te = _rows_by_x1(lowrank_log_table(config, z, q, eigen_cache=cache))
    return float(_local_tv(Te, T)), 1.0 - float(_cross_tv(Te, T))


def figure_sweep(config, replicates, eps_threshold=1e-10, qmax=None) -> list[SweepRow]:
    """Closeness constants of the Gibbs pair as a function of the truncation rank.

    For each replicate dataset and each rank ``q = 1 .. qmax`` (default
    ``n``; ``qmax < 1`` is rejected), stopping at the first rank whose
    ``epsilon`` drops below ``eps_threshold``, records ``(replicate, q,
    epsilon, alpha, epsilon/(alpha+epsilon))``.
    Every rank of a replicate, and the full-rank table that is its exact
    side, are slices of one table of prefix sums over the cached eigenpairs
    (:func:`lowrank_log_table`); ranks above ``n`` give the full-rank rows.
    ``epsilon`` is computed for all ranks, the adaptive stop cuts them, and
    ``alpha`` is computed only up to the largest rank kept, so memory stays
    ``O(n m^3)`` whatever ``qmax``.  Rows come in (replicate, q) order.
    Replicates where ``epsilon`` is not monotone in ``q`` are flagged with a
    warning, not an error.
    """
    if int(replicates) < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates!r}")
    n = int(config.n)
    qmax = n if qmax is None else int(qmax)
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax!r}")
    cache = _eigen_cache(config)
    table = np.minimum(np.arange(1, qmax + 1), n) - 1  # rank-table row of ranks 1..qmax
    rows, wobbly = [], []
    for rep in range(int(replicates)):
        ll = lowrank_log_table(config, generate_data(config, rep), np.arange(1, n + 1),
                               eigen_cache=cache)
        T = _rows_by_x1(ll)
        eps = _local_tv(T, T[-1])[table]
        below = np.flatnonzero(eps < eps_threshold)
        keep = int(below[0]) + 1 if below.size else qmax
        eps = eps[:keep]
        alpha = 1.0 - _cross_tv(T[:table[keep - 1] + 1], T[-1])[table[:keep]]
        for q, (e, a) in enumerate(zip(eps, alpha), start=1):
            rows.append(SweepRow(rep, q, float(e), float(a),
                                 0.0 if e == 0.0 else float(e / (a + e))))
        if np.any(eps[1:] > eps[:-1]):
            wobbly.append(rep)
    if wobbly:
        warnings.warn(
            f"epsilon not monotone in q for replicates {wobbly}; rows kept as computed",
            RuntimeWarning,
            stacklevel=2,
        )
    return rows


def config_snapshot(config: GPConfig) -> dict:
    """JSON-ready record of the full configuration, priors included."""
    return {
        "n": int(config.n),
        "m": int(config.m),
        "prior_a": float(config.prior_a),
        "prior_b": float(config.prior_b),
        "true_x1": float(config.true_x1),
        "true_x2": float(config.true_x2),
        "true_x3_sq": float(config.true_x3_sq),
        "seed": int(config.seed),
        "points": [float(w) for w in config.points],
        "grid_x1": [float(v) for v in config.grid_x1],
        "grid_x2": [float(v) for v in config.grid_x2],
    }
