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
truncations, and the full-rank table, from one spectrum per atom.  It is read
from the two half-size blocks of the Gram matrix's centrosymmetric split, each
at its numerical rank and never built: a pivoted Cholesky factor to rounding
level reads a block's diagonal and its pivots' rows, made from the points, and
the ``eigh`` of an ``r x r`` matrix gives the modes (25-63 of 1000 per atom at
n=1000).  :func:`figure_sweep` runs three stages per block of up to ``n``
replicates: one :func:`generate_data` call draws the block from the kept modes
of ``Sigma(true_x1)``; one eigen pass projects each dataset on one atom's
``n x r`` kept modes at a time; and one table of prefix sums per replicate gives
every rank.  No stage makes an ``n x n`` or ``n/2 x n/2`` array: ``R``
replicates take ``O(m n min(R, n))`` floats, one atom's kept modes and one chunk
of transition rows; 100 at n=1000, m=10 peak at 52 MB RSS (2-core x86-64 host).
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
    are kept, largest first: 12 at n=1000, dropping a total variance of 5.1e-6 (of 900).
    Each column's first entry of largest magnitude is positive, whatever signs ``eigh`` picks.
    """
    vals, modes = next(_half_spectra([config.true_x1], config.points))
    q = np.count_nonzero(vals > _LATENT_FLOOR * vals.max())
    sign = np.copysign(1.0, modes[np.abs(modes[:, :q]).argmax(axis=0), np.arange(q)])
    return modes[:, :q] * (sign * np.sqrt(config.true_x2 * vals[:q]))


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


def _half_spectra(grid, points):
    """For each ``x1`` of ``grid``, ``(vals, U)``: the kept eigenpairs of ``Sigma(x1)``, largest
    first (ties in stable order), with ``U`` a C-contiguous ``n x r`` array of orthonormal columns.

    ``Sigma`` is symmetric Toeplitz, hence centrosymmetric, and splits into two half-size
    problems (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  With ``k = n // 2``,
    ``A = Sigma[:k, :k]`` and ``CJ = Sigma[:k, n-1:n-k-1:-1]``, a mode ``v`` of ``A + CJ``
    (for odd ``n`` bordered by ``sqrt(2)`` times the middle column, and ``Sigma[k, k] = 1``)
    gives the even mode ``[v; Jv]/sqrt(2)`` with middle entry ``v_k``, and a mode ``w`` of
    ``A - CJ`` the odd mode ``[w; -Jw]/sqrt(2)`` with middle entry 0.  Each block is solved at
    its numerical rank by :func:`_ritz_spectrum` from :func:`_half_blocks`, never built whole.
    """
    n, k = points.size, points.size // 2
    for x1 in grid:
        plus, minus = _half_blocks(x1, points)
        (even_vals, even), (odd_vals, odd) = _ritz_spectrum(*plus), _ritz_spectrum(*minus)
        vals, s = np.concatenate([even_vals, odd_vals]), even_vals.size
        order = np.argsort(-vals, kind="stable")
        is_even = order < s
        modes = np.zeros((n, order.size))  # an odd mode's middle entry stays 0 for odd n
        modes[:n - k, is_even] = even[:, order[is_even]]
        modes[:k, ~is_even] = odd[:, order[~is_even] - s]
        modes[:k] /= math.sqrt(2.0)
        np.multiply(modes[k - 1::-1], np.where(is_even, 1.0, -1.0), out=modes[n - k:])
        del even, odd  # only the yielded modes outlive the atom's solve ...
        yield vals[order], modes
        del modes  # ... and not the next one's


def _half_blocks(x1, points):
    """``(diagonal, row)`` of ``A + CJ`` (bordered for odd ``n``) and of ``A - CJ`` at ``x1``.

    ``row(p)`` is row ``p`` of the block, folded from row ``p`` of ``Sigma(x1)`` made from the
    points; every entry has the bits of the same entry of the dense block built from
    :func:`gram_matrix`'s ``A``, ``CJ`` and middle column.
    """
    n, k = points.size, points.size // 2
    d, root2 = points[:k] - points[:n - k - 1:-1], math.sqrt(2.0)
    cj = np.exp(d * d * -x1)  # the diagonal of CJ; that of A is exactly 1

    def folds(p):  # row p of Sigma: its first k entries, its last k reversed, the middle one
        g = gram_matrix(x1, points[p:p + 1], points)[0]
        return g[:k], g[:n - k - 1:-1], g[k:n - k]

    def plus(p):
        near, far, middle = folds(p)
        if p == k:  # odd n: sqrt(2) times the middle row, and G[k, k] = 1
            return np.append(root2 * near, middle)
        return np.concatenate([near + far, root2 * middle])

    def minus(p):
        near, far, _ = folds(p)
        return near - far

    return (np.append(1.0 + cj, np.ones(n - 2 * k)), plus), (1.0 - cj, minus)


def _ritz_spectrum(diagonal, row):
    """:func:`_spectrum` of a symmetric PSD ``k x k`` block at its numerical rank ``r``, read
    from its ``diagonal`` and the rows ``row(p)`` of its ``r`` pivots alone.

    A pivoted Cholesky factor (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012)
    takes the largest remaining diagonal entry as pivot until none is above ``eps`` times the
    block's largest diagonal entry.  Its ``r x k`` rows ``F`` give ``block = F'F + E`` with
    ``E`` PSD of trace at most ``k eps`` times that entry; with ``F' = QR``, the pairs
    ``(L, W)`` of the ``r x r`` matrix ``R R'`` give the modes ``(L, Q W)``.  ``F`` grows by
    doubling its rows as pivots are taken.
    """
    rest = np.array(diagonal, dtype=float)
    k = rest.size
    cut, factor, r = np.finfo(float).eps * rest.max(), np.empty((0, k)), 0
    while rest.max() > cut:
        if r == len(factor):
            factor = np.concatenate([factor, np.empty((min(max(r, 1), k - r), k))])
        p = int(rest.argmax())
        factor[r] = (row(p) - factor[:r, p] @ factor[:r]) / math.sqrt(rest[p])
        rest -= factor[r] * factor[r]
        rest[p], r = 0.0, r + 1
    span, tri = np.linalg.qr(factor[:r].T)
    vals, vecs = _spectrum(tri @ tri.T)
    return vals, span @ vecs


# ---------------------------------------------------------------------------
# likelihood tables over the m x m atom grid

def _spectra(config, data):
    """One eigen pass over the rows ``z`` of ``data``: ``(vals, coef)``, shapes ``(m, n)``
    and ``(len(data), m, n)``.  ``vals[i1]`` are length-scale atom ``i1``'s Gram matrix's
    eigenvalues, largest first, clipped at 0, and ``coef[r, i1] = U'z`` in their order, for
    the modes :func:`_half_spectra` keeps and 0 after them, so ranks above them give the
    full-rank table.  The dropped part of each half-size block has trace at most ``k eps``
    times its largest diagonal entry: rounding level.

    The atom of largest ``x1``, whose blocks have the largest rank, is solved first, so the
    pass peaks on its first atom whatever ``m`` is.  Each row takes its own matrix-vector
    product, as one product over all rows would round a row's result differently with the
    number of rows.
    """
    n, m = int(config.n), int(config.m)
    vals, coef = np.zeros((m, n)), np.zeros((len(data), m, n))
    # largest x1 first; enumerate() would hold the last atom while the next one is solved
    atoms = _half_spectra(config.grid_x1[::-1], config.points)
    for i1 in reversed(range(m)):
        atom_vals, modes = next(atoms)
        r = atom_vals.size
        vals[i1, :r] = atom_vals
        for c, z in zip(coef[:, i1], data):
            c[:r] = modes.T @ z
        del modes  # no atom's modes outlive it
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
    ranks above an atom's numerical rank, and so ranks above ``n``, give the
    full-rank rows.  A block of up to ``n``
    replicates is drawn in one :func:`generate_data` call and projected in
    one eigen pass, and transition rows are built ``_RANK_CHUNK`` ranks at a
    time up to the stop, so memory is ``O(m n min(R, n))`` floats for ``R`` replicates, one
    atom's kept modes and one chunk of rows.  Rows come in (replicate, q) order,
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
