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

Every rank-q table comes from :func:`lowrank_log_table`: in the eigenbasis of
each length-scale Gram matrix the Woodbury quadratic form and
log-determinant at every rank are prefix sums over one spectrum, so the rank
sweep builds all truncations, and the full-rank table, from one
eigendecomposition per atom, done as two half-size solves of its
centrosymmetric split; the latent Cholesky factor is made once per ``n``.
The tests hold the independent reference for the exact kernel, a dense
route through numpy's Cholesky factorization; it is not package code.

All likelihood arithmetic is done in log space with log-sum-exp
normalization; raw ratios underflow already at moderate data sizes.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NumericalFailureError
from .kernels import _is_integer

__all__ = [
    "GPConfig",
    "SweepRow",
    "squared_distances",
    "gram_matrix",
    "generate_data",
    "lowrank_log_table",
    "figure_sweep",
    "config_snapshot",
]

_DECAY_TARGET = 0.01   # correlation value the spatial kernel reaches ...
_DECAY_FRACTION = 0.45  # ... at this fraction of the maximal squared distance

SweepRow = namedtuple("SweepRow", ["replicate", "q", "epsilon", "alpha", "ratio"])


@dataclass(frozen=True)
class GPConfig:
    """The GP protocol at ``n`` sampling points and ``m`` atoms per hyperparameter.

    Only ``n`` (>= 2), ``m`` (>= 1) and ``seed`` (>= 0) are set; the defaults
    are the desk-scale protocol (n=100, m=5).  The rest is fixed by the
    protocol: an inverse-Gamma(2, 2) prior on the noise variance, truth
    ``x2 = 0.9`` and ``x3^2 = 0.2``, points ``i/n``, and the scale-free grids
    ``x1 = -log(0.01)/d`` for equally spaced decay fractions d and equally
    spaced amplitudes.  The data-generating length-scale places the
    correlation decay at 0.01 exactly at 45% of the maximal squared distance
    between sampling points.
    """

    n: int = 100
    m: int = 5
    prior_a: float = field(init=False)
    prior_b: float = field(init=False)
    true_x1: float = field(init=False)
    true_x2: float = field(init=False)
    true_x3_sq: float = field(init=False)
    seed: int = 0
    points: np.ndarray = field(init=False)
    grid_x1: np.ndarray = field(init=False)
    grid_x2: np.ndarray = field(init=False)

    def __post_init__(self):
        for name, low in (("n", 2), ("m", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        points = np.arange(1, self.n + 1) / float(self.n)
        max_sq = float(squared_distances(points).max())
        derived = {
            "prior_a": 2.0, "prior_b": 2.0, "true_x2": 0.9, "true_x3_sq": 0.2, "points": points,
            "true_x1": -math.log(_DECAY_TARGET) / (_DECAY_FRACTION * max_sq),
            "grid_x1": -math.log(_DECAY_TARGET) / np.linspace(0.95, 0.05, self.m),
            "grid_x2": np.linspace(0.5, 1.4, self.m),
        }
        for name in ("points", "grid_x1", "grid_x2"):
            derived[name].setflags(write=False)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


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
    f = _latent_factor(config.n) @ rng.standard_normal(int(config.n))
    x3 = math.sqrt(config.true_x3_sq)
    return x3 * f + x3 * rng.standard_normal(int(config.n))


@functools.lru_cache(maxsize=1)
def _latent_factor(n):
    """Cholesky factor of the latent covariance; the truth and the points depend on ``n`` alone."""
    config = GPConfig(n=n, m=1)
    cov_f = config.true_x2 * gram_matrix(config.true_x1, config.points)
    try:
        chol = np.linalg.cholesky(cov_f)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov_f + 1e-10 * np.eye(config.n))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"latent covariance not factorizable: {exc}") from exc
    chol.setflags(write=False)
    return chol


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


# ---------------------------------------------------------------------------
# likelihood tables over the m x m atom grid

def _eigen_cache(config):
    """Per length-scale atom: the eigenpairs of its Gram matrix ``G``, largest first, clipped at 0.

    ``G`` is symmetric Toeplitz, hence centrosymmetric, and splits into two
    half-size problems (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  With
    ``k = n // 2``, ``A = G[:k, :k]`` and ``CJ = G[:k, n-1:n-k-1:-1]``, the
    :func:`_spectrum` of ``A + CJ`` (for odd ``n`` bordered by ``sqrt(2)`` times
    the middle column, and ``G[k, k]``) gives ``[v; Jv]/sqrt(2)`` with middle
    entry ``v_k``, and that of ``A - CJ`` gives ``[w; -Jw]/sqrt(2)``.  ``G`` is
    centrosymmetric only to rounding: the split reads only its first ``k`` rows.
    """
    n, k = int(config.n), int(config.n) // 2
    cache = []
    for x1 in config.grid_x1:
        gram = gram_matrix(x1, config.points)
        a, cj = gram[:k, :k], gram[:k, :n - k - 1:-1]
        sym, anti = a + cj, a - cj
        if n % 2:
            mid = math.sqrt(2.0) * gram[:k, k:k + 1]
            sym = np.block([[sym, mid], [mid.T, gram[k:k + 1, k:k + 1]]])
        del gram, a, cj  # one Gram matrix alive at a time
        (sym_vals, sym_vecs), (anti_vals, anti_vecs) = _spectrum(sym), _spectrum(anti)
        vals = np.concatenate([sym_vals, anti_vals])
        order = np.argsort(-vals, kind="stable")
        s, w = np.split(np.argsort(order), [n - k])  # merged columns of the two halves
        vecs = np.zeros((n, n))
        vecs[:k, s], vecs[:k, w] = sym_vecs[:k] / math.sqrt(2.0), anti_vecs / math.sqrt(2.0)
        vecs[n - k:, s], vecs[n - k:, w] = vecs[k - 1::-1, s], -vecs[k - 1::-1, w]
        vecs[k:n - k, s] = sym_vecs[k:]  # the middle entry v_k; no row when n is even
        cache.append((vals[order], vecs))
    return cache


def lowrank_log_table(config, z, q, eigen_cache=None) -> np.ndarray:
    """Low-rank log-likelihood table ``ll[i1, i2]`` at rank ``q``.

    The Gram matrix of atom ``i1`` is replaced by its top-q eigen truncation
    ``Lambda Lambda'`` with ``Lambda = U_q L_q^{1/2}``, and the likelihood of
    ``I + x2 Lambda Lambda'`` goes through the Woodbury identity

    ``(I + x2 Lambda Lambda')^{-1} = I - Lambda (x2^{-1} I + Lambda'Lambda)^{-1} Lambda'``

    and ``det(I + x2 Lambda Lambda') = det(I_q + x2 Lambda'Lambda)``.  In the
    eigenbasis ``Lambda'Lambda = L_q`` is diagonal, so with projections
    ``c_i = u_i'z``

    ``quad = z'z - sum_{i<q} l_i c_i^2 / (1/x2 + l_i)``,
    ``logdet = sum_{i<q} log(1 + x2 l_i)``,

    and every rank is a prefix sum over one spectrum.  ``q`` may also be an
    array of ranks, giving ``ll[k, i1, i2]`` at rank ``q[k]``; ranks of ``n``
    and above give the full-rank table.  ``eigen_cache`` reuses the spectra of
    :func:`_eigen_cache` across datasets.
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
    ``O(n m^3)`` whatever ``qmax``.  Rows come in (replicate, q) order, so
    whether ``epsilon`` is monotone in ``q`` can be read from them.
    """
    n = int(config.n)
    qmax = n if qmax is None else qmax
    for name, value in (("replicates", replicates), ("qmax", qmax)):
        if not _is_integer(value) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    cache = _eigen_cache(config)
    table = np.minimum(np.arange(1, qmax + 1), n) - 1  # rank-table row of ranks 1..qmax
    rows = []
    for rep in range(replicates):
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
    return rows


def config_snapshot(config: GPConfig) -> dict:
    """JSON-ready record of the full configuration, priors included, in field order."""
    snap = {}
    for f in fields(config):
        value = getattr(config, f.name)
        snap[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return snap
