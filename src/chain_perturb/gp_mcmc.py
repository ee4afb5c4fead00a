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
each length-scale Gram matrix the Woodbury quadratic form and log-determinant
at every rank are prefix sums over one spectrum, so the rank sweep builds all
truncations, and the full-rank table, from one eigendecomposition per atom,
done as two half-size solves of its centrosymmetric split.  :func:`figure_sweep`
runs three stages per block of up to ``n`` replicates: one :func:`generate_data`
call draws the block from a spectral factor of the same split; one eigen pass
folds each dataset once and projects it with one atom's two half-size
eigenvector blocks at a time; and one table of prefix sums per replicate gives
every rank.  No stage makes an ``n x n`` array: ``R`` replicates take a few
``n/2 x n/2`` blocks, ``O(m n min(R, n))`` floats and one chunk of transition
rows; 100 at n=1000, m=10 peak at 63 MB RSS (2-core x86-64 host).
The tests hold the independent reference for the exact kernel, a dense
route through numpy's Cholesky factorization; it is not package code.

All likelihood arithmetic is done in log space with log-sum-exp
normalization; raw ratios underflow already at moderate data sizes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import _require, _require_finite_nonnegative
from .errors import DimensionMismatchError, NumericalFailureError
from .kernels import _count, _max_cross_tv, _reals, _row_tv

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
_LATENT_FLOOR = 1e-7  # latent modes at most this fraction of the largest are not drawn

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
        spread = points[-1] - points[0]  # the widest pair; rounding is monotone
        max_sq = float(spread * spread)
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


def squared_distances(points, others=None) -> np.ndarray:
    """``(points_i - others_j)^2``, ``others`` defaulting to ``points``, in one array."""
    d = np.subtract.outer(points, points if others is None else others)
    return np.multiply(d, d, out=d)


def gram_matrix(x1, points, others=None) -> np.ndarray:
    """Squared-exponential Gram matrix ``exp(-x1 ||w_i - w_j||^2)`` (unit diagonal), or with
    ``others`` given the block ``exp(-x1 ||w_i - v_j||^2)``."""
    _require("x1", x1, "finite and positive", lambda v: 0.0 < v < math.inf)
    gram = squared_distances(points, others)
    np.multiply(gram, -x1, out=gram)  # in place, the bits of exp(-x1 * d2)
    return np.exp(gram, out=gram)


def generate_data(config: GPConfig, replicate=0) -> np.ndarray:
    """Draw one observation vector: latent field plus noise, both scaled by the noise level.

    The latent field has covariance ``true_x2 * Sigma(true_x1)``, floored (:func:`_latent_factor`);
    observations are ``x3 * f + e`` with independent ``e ~ N(0, x3^2)`` per coordinate, so the
    observation covariance is ``x3^2 (I + x2 Sigma)``.  Of the normals of ``(config.seed,
    replicate)`` the field reads the first ``q`` of the first ``n``, the noise the second ``n``.
    A sequence of replicates gives one row each, the same bit for bit as drawn alone, all from
    one ``n x q`` factor made in the call and freed on return.
    """
    single = np.ndim(replicate) == 0
    keys = [_count("replicate", r, low=0) for r in ([replicate] if single else replicate)]
    factor, x3 = _latent_factor(config), math.sqrt(config.true_x3_sq)
    data = np.empty((len(keys), int(config.n)))
    for z, key in zip(data, keys):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(key,)))
        draw = rng.standard_normal((2, z.size))  # the field's normals, then the noise's
        z[:] = x3 * (factor @ draw[0, :factor.shape[1]]) + x3 * draw[1]
    return data[0] if single else data


def _latent_factor(config):
    """The ``n x q`` spectral factor ``U_q sqrt(x2 L_q)`` of the latent covariance ``x2 Sigma``.

    Only the ``q`` modes of :func:`_half_spectra` with ``lambda > _LATENT_FLOOR * lambda_max``
    are unfolded, largest first: 12 at n=1000, dropping a total variance of 5.1e-6 (of 900).
    Each column's first entry of largest magnitude is positive, whatever signs ``eigh`` picks.
    """
    n, k = int(config.n), int(config.n) // 2
    (sym_vals, sym_vecs), (anti_vals, anti_vecs) = _half_spectra(config.true_x1, config.points)
    vals = np.concatenate([sym_vals, anti_vals])
    keep = np.argsort(-vals, kind="stable")[:np.count_nonzero(vals > _LATENT_FLOOR * vals.max())]
    sym = keep < n - k
    half = np.zeros((n - k, keep.size))  # a symmetric mode's middle entry in the last row, odd n
    half[:, sym], half[:k, ~sym] = sym_vecs[:, keep[sym]], anti_vecs[:, keep[~sym] - (n - k)]
    half[:k] /= math.sqrt(2.0)
    half *= np.copysign(1.0, half[np.abs(half).argmax(axis=0), np.arange(keep.size)])
    unfolded = np.concatenate([half, np.where(sym, 1.0, -1.0) * half[k - 1::-1]])
    return unfolded * np.sqrt(config.true_x2 * vals[keep])


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


def _half_spectra(x1, points):
    """:func:`_spectrum` of ``Sigma(x1)``'s half-size blocks ``A +- CJ`` (see :func:`_spectra`)."""
    n, k = points.size, points.size // 2
    near, far = points[:k], points[:n - k - 1:-1]
    a, cj = gram_matrix(x1, near), gram_matrix(x1, near, far)
    sym, anti = a + cj, np.subtract(a, cj, out=a)
    del cj
    if n % 2:
        mid = math.sqrt(2.0) * gram_matrix(x1, near, points[k:k + 1])
        sym = np.block([[sym, mid], [mid.T, np.ones((1, 1))]])
    return _spectrum(sym), _spectrum(anti)


# ---------------------------------------------------------------------------
# likelihood tables over the m x m atom grid

def _spectra(config, data):
    """One eigen pass over the rows ``z`` of ``data``: ``(vals, coef)``, shapes ``(m, n)``
    and ``(len(data), m, n)``.  ``vals[i1]`` are length-scale atom ``i1``'s Gram matrix
    ``G``'s eigenvalues, largest first, clipped at 0, and ``coef[r, i1] = U'z`` in their order.

    ``G`` is symmetric Toeplitz, hence centrosymmetric, and splits into two
    half-size problems (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  With
    ``k = n // 2``, ``A = G[:k, :k]`` and ``CJ = G[:k, n-1:n-k-1:-1]``, the
    :func:`_spectrum` of ``A + CJ`` (for odd ``n`` bordered by ``sqrt(2)`` times
    the middle column, and ``G[k, k] = 1``) gives ``[v; Jv]/sqrt(2)`` with
    middle entry ``v_k``, and that of ``A - CJ`` gives ``[w; -Jw]/sqrt(2)``.
    The blocks are built from the points, never ``G`` or ``U``.  Each ``z`` is
    folded once into ``(z[:k] +- (Jz)[:k])/sqrt(2)``, the ``+`` fold ending in
    ``z_k`` when ``n`` is odd, and each fold is multiplied by one atom's half
    vectors at a time.  Each row takes its own matrix-vector products, as one
    product over all rows would round a row's result differently with the
    number of rows.
    """
    n, k = int(config.n), int(config.n) // 2
    plus, minus = data[:, :k] + data[:, :n - k - 1:-1], data[:, :k] - data[:, :n - k - 1:-1]
    plus = np.concatenate([plus / math.sqrt(2.0), data[:, k:n - k]], axis=1)  # z_k for odd n
    minus /= math.sqrt(2.0)
    vals, coef = np.empty((int(config.m), n)), np.empty((len(data), int(config.m), n))
    proj = np.empty((len(data), n))
    for i1, x1 in enumerate(config.grid_x1):
        (sym_vals, sym_vecs), (anti_vals, anti_vecs) = _half_spectra(x1, config.points)
        for c, p, w in zip(proj, plus, minus):
            c[:n - k], c[n - k:] = sym_vecs.T @ p, anti_vecs.T @ w
        del sym_vecs, anti_vecs
        v = np.concatenate([sym_vals, anti_vals])
        order = np.argsort(-v, kind="stable")
        vals[i1], coef[:, i1] = v[order], proj[:, order]
    return vals, coef


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
    and above give the full-rank table.  ``spectrum`` is ``(vals, coef[r])``
    of :func:`_spectra` for the row ``z`` of its data; without it one eigen
    pass is made for ``z`` alone.  ``z`` must hold ``config.n`` finite reals.
    """
    ranks = np.asarray(q)
    if ranks.dtype.kind not in "iu" or np.any(ranks < 1):
        raise ValueError(f"ranks must be integers >= 1, got {q!r}")
    z = _reals(z, "z")
    if z.shape != (config.n,):
        raise DimensionMismatchError(f"z must be a vector of {config.n} observations, "
                                     f"got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z entries must be finite")
    vals, coef = spectrum if spectrum is not None else _spectra(config, z[None])
    n, x2 = z.size, np.asarray(config.grid_x2, dtype=float)
    # ll[rank - 1, i1, i2] in one broadcast; a pass over z alone gives coef as (1, m, n)
    lv, coef_sq = vals.T[:, :, None], (coef.reshape(vals.shape) ** 2).T[:, :, None]
    logdet = np.cumsum(np.log1p(lv * x2), axis=0)
    quad = z @ z - np.cumsum(lv * coef_sq / (1.0 / x2 + lv), axis=0)
    ll = -0.5 * logdet - 0.5 * (config.prior_a + n) * np.log(config.prior_b + quad)
    return ll[np.minimum(ranks, n) - 1]


def logsumexp(a, axis):
    """``log(sum(exp(a), axis))`` shifted by the maximum, keeping ``axis`` with length 1."""
    top = a.max(axis=axis, keepdims=True)
    return top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))


def _rows_by_x1(ll):
    """Distinct transition rows, (..., m, m^2): entry [..., i1, j1*m + j2] = s[j1,j2] r[i1,j2].

    ``r[..., i1, y2]`` resamples the amplitude atom given the length-scale
    atom, ``s[..., y1, y2]`` the length-scale atom given the (new) amplitude atom.
    """
    if not np.all(np.isfinite(ll)):
        raise NumericalFailureError("log-likelihood table contains non-finite entries")
    r = np.exp(ll - logsumexp(ll, axis=-1))
    s = np.exp(ll - logsumexp(ll, axis=-2))
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
    ranks above ``n`` give the full-rank rows.  A block of up to ``n``
    replicates is drawn in one :func:`generate_data` call and projected in
    one eigen pass, and transition rows are built ``_RANK_CHUNK`` ranks at a
    time up to the stop, so memory is a few ``n/2 x n/2`` blocks plus ``O(m n min(R, n))``
    floats for ``R`` replicates and one chunk of rows.  Rows come in (replicate, q) order,
    so whether ``epsilon`` is monotone in ``q`` can be read from them.
    """
    n = int(config.n)
    _require_finite_nonnegative("eps_threshold", eps_threshold)
    replicates = _count("replicates", replicates)
    qmax = n if qmax is None else _count("qmax", qmax)
    rows = []
    for start in range(0, replicates, n):
        data = generate_data(config, range(start, min(start + n, replicates)))
        vals, coef = _spectra(config, data)
        for rep, (z, c) in enumerate(zip(data, coef), start=start):
            ll = lowrank_log_table(config, z, np.arange(1, n + 1), spectrum=(vals, c))
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
