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
One atom's eigenvectors are alive at a time, projecting up to ``n`` datasets,
so ``R`` replicates take ``O(n^2 + m n min(R, n))`` floats plus one chunk of
transition rows: 100 at n=1000, m=10 peak at 94 MB RSS (2-core x86-64 host).
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

from .bounds import _require, _require_finite_nonnegative
from .errors import NumericalFailureError
from .kernels import _count, _max_cross_tv, _row_tv

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
_RANK_CHUNK = 64  # ranks of a replicate whose transition rows are built at once

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
            object.__setattr__(self, name, _count(name, getattr(self, name), low))
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
    _require("x1", x1, "finite and positive", lambda v: 0.0 < v < math.inf)
    return np.exp(-x1 * squared_distances(points))


def generate_data(config: GPConfig, replicate=0) -> np.ndarray:
    """Draw one observation vector: latent field plus noise, both scaled by the noise level.

    The latent field has covariance ``true_x2 * Sigma(true_x1)``; observations
    are ``x3 * f + e`` with independent ``e ~ N(0, x3^2)`` per coordinate, so
    the observation covariance is ``x3^2 (I + x2 Sigma)``.  Reproducible from
    ``(config.seed, replicate)``.
    """
    key = (_count("replicate", replicate, low=0),)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=key))
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
        del sym, anti, sym_vecs, anti_vecs  # only vecs alive while the caller projects
        yield vals[order], vecs


def _spectra(config, data):
    """Per dataset ``z``, from one eigen pass: ``(vals, (U'z)^2, logdet)``; only ``(U'z)^2`` differs."""
    x2 = np.asarray(config.grid_x2, dtype=float)[:, None]
    vals = np.empty((int(config.m), int(config.n)))
    coef_sq = np.empty((len(data),) + vals.shape)
    for i1, (v, vecs) in enumerate(_eigen_cache(config)):
        vals[i1], coef_sq[:, i1] = v, [(vecs.T @ z) ** 2 for z in data]
    logdet = [np.cumsum(np.log1p(x2 * v), axis=1) for v in vals]
    return [(vals, c, logdet) for c in coef_sq]


def lowrank_log_table(config, z, q, spectrum=None) -> np.ndarray:
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
    and above give the full-rank table.  ``spectrum`` is ``z``'s entry of
    :func:`_spectra`; without it one eigen pass is made for ``z`` alone.
    """
    ranks = np.asarray(q)
    if ranks.dtype.kind not in "iu" or np.any(ranks < 1):
        raise ValueError(f"ranks must be integers >= 1, got {q!r}")
    z = np.asarray(z, dtype=float)
    vals, coef_sq, logdet = spectrum if spectrum is not None else _spectra(config, [z])[0]
    n = z.size
    x2 = np.asarray(config.grid_x2, dtype=float)[:, None]
    scale = 0.5 * (config.prior_a + n)
    ll = np.empty((n, int(config.m), x2.shape[0]))
    for i1 in range(int(config.m)):
        quad = z @ z - np.cumsum(vals[i1] * coef_sq[i1] / (1.0 / x2 + vals[i1]), axis=1)
        ll[:, i1, :] = (-0.5 * logdet[i1] - scale * np.log(config.prior_b + quad)).T
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
    """Distinct transition rows, (..., m, m^2): entry [..., i1, j1*m + j2] = s[j1,j2] r[i1,j2]."""
    r, s = _conditional_tables(ll)
    rows = s[..., None, :, :] * r[..., :, None, :]
    return rows.reshape(rows.shape[:-2] + (-1,))


def figure_sweep(config, replicates, eps_threshold=1e-10, qmax=None) -> list[SweepRow]:
    """Closeness constants of the Gibbs pair as a function of the truncation rank.

    For each replicate dataset and each rank ``q = 1 .. qmax`` (default
    ``n``; ``qmax < 1`` is rejected), stopping at the first rank whose
    ``epsilon`` drops below ``eps_threshold`` (finite, nonnegative), records
    ``(replicate, q, epsilon, alpha, epsilon/(alpha+epsilon))``.
    Every rank of a replicate, and the full-rank table that is its exact
    side, are slices of one table of prefix sums (:func:`lowrank_log_table`);
    ranks above ``n`` give the full-rank rows.  One eigen pass serves a block
    of up to ``n`` replicates, and transition rows are built ``_RANK_CHUNK``
    ranks at a time up to the stop, so memory is ``O(n^2 + m n min(R, n))``
    for ``R`` replicates plus one chunk of rows.  Rows come in (replicate, q)
    order, so whether ``epsilon`` is monotone in ``q`` can be read from them.
    """
    n = int(config.n)
    _require_finite_nonnegative("eps_threshold", eps_threshold)
    replicates = _count("replicates", replicates)
    qmax = n if qmax is None else _count("qmax", qmax)
    rows = []
    for start in range(0, replicates, n):
        data = [generate_data(config, rep) for rep in range(start, min(start + n, replicates))]
        for rep, (z, spectrum) in enumerate(zip(data, _spectra(config, data)), start=start):
            ll = lowrank_log_table(config, z, np.arange(1, n + 1), spectrum=spectrum)
            full = _rows_by_x1(ll[-1:])
            for k in range(0, qmax, _RANK_CHUNK):
                T = _rows_by_x1(ll[np.minimum(np.arange(k, min(k + _RANK_CHUNK, qmax)), n - 1)])
                eps = _row_tv(T, full).max(axis=-1)
                below = np.flatnonzero(eps < eps_threshold)
                eps = eps[:int(below[0]) + 1] if below.size else eps
                alpha = 1.0 - _max_cross_tv(T[:eps.size], full[0])
                for q, (e, a) in enumerate(zip(eps, alpha), start=k + 1):
                    rows.append(SweepRow(rep, q, float(e), float(a),
                                         0.0 if e == 0.0 else float(e / (a + e))))
                if below.size:
                    break
    return rows


def config_snapshot(config: GPConfig) -> dict:
    """JSON-ready record of the full configuration, priors included, in field order."""
    snap = {}
    for f in fields(config):
        value = getattr(config, f.name)
        snap[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return snap
