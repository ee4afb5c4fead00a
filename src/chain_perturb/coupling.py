"""Minimum-overlap coupling of two finite kernels and its dominating two-state chain.

Given the current pair of states, the two outgoing rows are split by their
pointwise minimum into a shared component carrying mass ``rho = 1 - tv`` and
two disjoint leftover parts.  One uniform decides whether the pair moves
together (inside the shared component) or independently (one leftover part
each); the same uniform drives a two-state chain whose state-1 occupation
dominates the disagreement indicator pathwise, because ``rho >= 1 - epsilon``
on the diagonal and ``rho >= alpha`` off it.

The two marginals of the coupled run are exact ``P_eps``- and ``P``-chains,
so this stepper is the package's only sampler: single-chain statistics read
one marginal of a coupled run.  :func:`iter_coupled_batches` is the one way
in: it yields :class:`CoupledBatch` chunks in trajectory order, and every
consumer (the checks, the ``simulate`` command) reduces or writes a chunk
before the next one is drawn.  The closeness constants that drive the
dominating chain are always computed from the kernels themselves.

The split is held as sampling tables, each part a table of row CDFs.  When
S <= 5 every one of the S^2 pairs is tabulated (3 S^3 + S^2 floats, within
the O(S^2) budget at that size): the pair ``(e, b)`` reads row ``e * S + b``,
so no step ever splits a row pair.  For larger S only the S diagonal pairs
``(x, x)`` are, at row ``x``: a coupled pair always sits on the diagonal.
Every pair draws from the row of its approximating chain's state, and a pair
off the diagonal is then drawn again from the split of its two kernel rows,
built in the step that needs it, at most 512 pairs at a time; a start drawn
from two laws reads the one-row split of the two laws.  Table rows are
inverted by binary search (:func:`_pick`), fresh splits by a linear count
(:func:`_draw_fresh`).  The stepper holds O(S^2) floats, one slice of fresh
splits and one batch: its paths and a 64-step chunk of its uniforms.

RNG contract: trajectory ``i`` under master seed ``s`` reads the substream
``SeedSequence(entropy=s, spawn_key=(i // 64,))`` of its block of 64
trajectory slots.  A block's uniforms are laid out step-major: step ``k``
is a row of 64 triples, slot ``j = i % 64`` taking doubles ``3 (64 k + j)
.. 3 (64 k + j) + 2``, and a start drawn from two laws adds one row at the
front.  So a trajectory's first ``k`` steps depend on neither the horizon
nor the number of trajectories.  A batch draws each block it touches a
chunk of 64 steps at a time, one contiguous draw of the block's whole rows,
and keeps its own slots: results are bit-for-bit the same for every batch
size and chunk width, and a batch never holds more than one chunk of its
own uniforms.  No other substream is ever drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .kernels import (
    ProbDist,
    _count,
    _is_integer,
    _kernel_pair,
    as_dist,
    cross_doeblin_constant,
    local_epsilon,
)

__all__ = [
    "CoupledBatch",
    "product_kernel_row",
    "iter_coupled_batches",
]


@dataclass
class CoupledBatch:
    """Stacked coupled trajectories; row i is trajectory ``first_index + i``.

    ``x_eps`` and ``x`` take the smallest signed type that holds ``-S`` (``int8``
    up to S = 128), so ``x - x_eps`` never wraps; ``z`` and ``y`` are ``int8``.
    """

    x_eps: np.ndarray  # (n_traj, n+1)
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    first_index: int

    @property
    def n_traj(self) -> int:
        return self.x.shape[0]

    @property
    def length(self) -> int:
        return self.x.shape[1]


def product_kernel_row(P_eps, P, xi) -> ProbDist:
    """Explicit joint one-step law on state pairs out of the pair ``xi``.

    Returns a distribution over ``n*n`` outcomes, pair ``(i, j)`` at flat
    index ``i * n + j`` where ``i`` is the next state of the approximating
    chain and ``j`` the next state of the base chain.  It is
    ``diag(min) + outer(pos, neg) / (1 - rho)``, built from the same split
    the simulator samples, so the two marginals reproduce the kernel rows and
    the diagonal carries mass ``rho`` (the leftover parts have disjoint
    supports).
    """
    A, B = _kernel_pair(P_eps, P)
    p, q = A.rows[xi[0]], B.rows[xi[1]]
    m = np.minimum(p, q)
    rho = m.sum()
    joint = np.diag(m)
    if rho < 1.0:
        joint += np.outer(p - m, q - m) / (1.0 - rho)
    return ProbDist(joint.ravel())


def _split(rows_eps, rows_base):
    """Sampling form of the split of R paired rows: ``(rho, cdf)``.

    ``rho`` (R,) is the shared mass of each row pair; ``cdf`` (3, R, S) holds
    the row CDFs (:func:`_cdf`) of the shared part, the pointwise minimum
    ``m``, and of the two leftover parts ``rows_eps - m`` and
    ``rows_base - m``, which have disjoint supports.
    """
    m = np.minimum(rows_eps, rows_base)
    return m.sum(axis=-1), _cdf(np.stack([m, rows_eps - m, rows_base - m]))


def _cdf(rows):
    """Row CDFs of unnormalised nonnegative weights (last axis).

    Each row is divided by its own last cumulative sum, so the last state
    with mass and every zero-mass state after it sit at exactly 1.0: a
    uniform ``u < 1`` can never select past the support.  Rows without mass
    (never sampled) become all ones.  Every row is nondecreasing.
    """
    cdf = np.cumsum(rows, axis=-1)
    cdf[cdf[..., -1] == 0.0] = 1.0
    cdf /= cdf[..., -1:].copy()
    return cdf


def _pick(cdf, rows, u):
    """Half-open inverse CDF: the number of entries of row ``rows[i]`` at or below ``u[i]``.

    The rows are those of ``cdf`` along its last axis, numbered in C order
    (``cdf.reshape(-1, S)``).  A branchless binary search, O(log S) per
    draw; it equals the linear count ``(cdf[rows] <= u[:, None]).sum(axis=1)``
    because every row is nondecreasing.
    """
    S = cdf.shape[-1]
    flat = cdf.reshape(-1)
    base = rows * S
    h = 1 << (S.bit_length() - 1)
    # The first probe leaves at most h candidate counts above pos - base;
    # each later probe halves them: entry pos + step - 1 is at or below u
    # exactly when the count is at least pos - base + step.
    pos = base + np.where(flat[base + (S - h)] <= u, S - h + 1, 0)
    step = h >> 1
    while step:
        pos += step * (flat[pos + (step - 1)] <= u)
        step >>= 1
    return pos - base


def _draw(split, rows, u):
    """Next pair of states from rows ``rows`` of ``split``, with uniforms ``u`` (count, 3).

    ``u[:, 0]`` decides whether the pair moves together.  A coupled pair
    reads the shared part with ``u[:, 1]`` for both chains; otherwise the
    approximating chain reads its leftover part with ``u[:, 1]`` and the base
    chain its own with ``u[:, 2]``.  One binary search serves both chains of
    a coupled pair; a free pair searches a second time, for the base chain,
    in the same call.
    """
    rho, cdf = split
    free = u[:, 0] >= rho[rows]
    loose = np.flatnonzero(free)
    # the approximating chain reads part 0 or 1 of its row, a free base chain part 2
    rows = np.concatenate([rows + rho.size * free, rows[loose] + 2 * rho.size])
    return _both_chains(_pick(cdf, rows, np.concatenate([u[:, 1], u[loose, 2]])), loose)


def _draw_fresh(rows_eps, rows_base, u):
    """:func:`_draw` on the split of each paired row, built for this one draw.

    Only the parts a pair reads get a CDF: the shared part of a coupled
    pair, the approximating chain's leftover part of a free one, and the
    base chain's leftover part of the free pairs alone.  The few fresh rows
    are inverted by the linear count that :func:`_pick` equals, with the
    same bits as a draw from the split's sampling tables.
    """
    m = np.minimum(rows_eps, rows_base)
    free = u[:, 0] >= m.sum(axis=-1)
    loose = np.flatnonzero(free)
    # rows_eps - m is max(rows_eps - rows_base, 0) bit for bit, and likewise for the base
    parts = np.concatenate([np.where(free[:, None], rows_eps - m, m),
                            rows_base[loose] - m[loose]])
    picks = (_cdf(parts) <= np.concatenate([u[:, 1], u[loose, 2]])[:, None]).sum(axis=1)
    return _both_chains(picks, loose)


def _both_chains(picks, loose):
    """Split one search's ``picks`` into ``(nxt_e, nxt_b)``.

    ``picks`` holds every pair's approximating chain, then the base chain of
    each pair in ``loose``; every other base chain moves with its
    approximating chain.
    """
    count = picks.size - loose.size
    nxt_b = picks[:count].copy()
    nxt_b[loose] = picks[count:]
    return picks[:count], nxt_b


def _as_initial(value, n_states, name):
    """Normalize the initial condition ``name`` to ``(state, weights)``.

    A state index (range-checked) gives ``(index, one-hot weights)``; a
    distribution gives ``(None, weights)``.  Any other scalar, a bool, a
    float or a string, is rejected under ``name``; anything else fails as a
    distribution.
    """
    if _is_integer(value):
        v = int(value)
        if not 0 <= v < n_states:
            raise ValueError(f"initial state {v} outside 0..{n_states - 1}")
        return v, np.eye(n_states)[v]
    if np.ndim(value) == 0:
        raise ValueError(f"{name} must be a state index or a distribution, got {value!r}")
    w = as_dist(value).weights
    if w.size != n_states:
        raise DimensionMismatchError(f"initial law on {w.size} states, kernel on {n_states}")
    return None, w


def iter_coupled_batches(P_eps, P, x0_eps, x0, n, n_traj, seed):
    """Yield :class:`CoupledBatch` chunks of ``n_traj`` coupled trajectories, in order.

    The dominating chain runs on the closeness constants of the kernel pair,
    computed exactly here; they always satisfy ``alpha + epsilon <= 1``.
    Initial conditions may be states or distributions; with distributions
    the initial pair is drawn from the maximal coupling of the two laws, so
    the initial disagreement probability equals their TV distance.
    """
    A, B = _kernel_pair(P_eps, P)
    n, n_traj, seed = _count("n", n), _count("n_traj", n_traj), _count("seed", seed, low=0)
    # The dominating chain moves to 1 exactly when the step's first uniform
    # reaches to_one[y] from its state y: 1-eps from 0, alpha from 1.
    to_one = np.array([1.0 - local_epsilon(A, B), cross_doeblin_constant(A, B)])
    S = len(A)
    init_e, we = _as_initial(x0_eps, S, "x0_eps")
    init_b, wb = _as_initial(x0, S, "x0")
    sample_init = init_e is None or init_b is None
    all_pairs = S <= _ALL_PAIRS_MAX
    table = (_split(np.repeat(A.rows, S, 0), np.tile(B.rows, (S, 1))) if all_pairs
             else _split(A.rows, B.rows))
    steps = n + (1 if sample_init else 0)
    path_type = np.min_scalar_type(-S)
    batch_size = _batch_size(steps, n, path_type)
    for start in range(0, n_traj, batch_size):
        count = min(batch_size, n_traj - start)
        # one (count, 3) view per step, in stream order, the first triple of a law start first
        uniforms = (chunk[k] for chunk in _uniform_chunks(seed, start, count, steps)
                    for k in range(chunk.shape[0]))
        xe = np.empty((count, n + 1), dtype=path_type)
        xb = np.empty((count, n + 1), dtype=path_type)
        if sample_init:
            cur_e, cur_b = _draw(_split(we[None], wb[None]), np.zeros(count, np.intp),
                                 next(uniforms))
        else:
            cur_e = np.full(count, init_e, dtype=np.intp)
            cur_b = np.full(count, init_b, dtype=np.intp)
        y = np.empty((count, n + 1), dtype=np.int8)
        cur_y = (cur_e != cur_b).view(np.int8)
        xe[:, 0], xb[:, 0], y[:, 0] = cur_e, cur_b, cur_y
        for k in range(n):
            u = next(uniforms)
            if all_pairs:
                cur_e, cur_b = _draw(table, cur_e * S + cur_b, u)
            else:
                # Drawing every pair, not the diagonal ones alone, and then
                # redrawing the rest measured no slower on a dense S=200 pair.
                nxt_e, nxt_b = _draw(table, cur_e, u)
                off = np.flatnonzero(cur_e != cur_b)
                for lo in range(0, off.size, _FRESH_ROWS):
                    sl = off[lo:lo + _FRESH_ROWS]
                    nxt_e[sl], nxt_b[sl] = _draw_fresh(A.rows[cur_e[sl]], B.rows[cur_b[sl]], u[sl])
                cur_e, cur_b = nxt_e, nxt_b
            # Same uniform drives the dominating chain; rho >= 1-eps on the
            # diagonal and rho >= alpha elsewhere make Z <= Y pathwise.
            cur_y = (u[:, 0] >= to_one[cur_y]).view(np.int8)
            xe[:, k + 1], xb[:, k + 1], y[:, k + 1] = cur_e, cur_b, cur_y
        del u, uniforms  # free this batch's chunk buffer before the next batch draws its own
        yield CoupledBatch(x_eps=xe, x=xb, z=(xe != xb).view(np.int8), y=y, first_index=start)
        del xe, xb, y  # a consumer that dropped the batch holds no path of it while the next is drawn


_BATCH_BYTES = 16 << 20  # a batch's paths and chunk of uniforms

_ALL_PAIRS_MAX = 5  # largest S whose 3 S^3 all-pair table fits the 16 S^2 budget

_FRESH_ROWS = 512  # off-diagonal pairs per fresh split: a few (512, S) arrays, whatever the batch

_BLOCK = 64  # trajectory slots per RNG substream; part of the RNG contract

# Steps per chunk of uniforms; any width draws the same stream.  A batch holds
# one chunk of the blocks it touches (3.75 MB for 2,500 trajectories) and one
# of a block's rows (96 KiB).
_STEP_CHUNK = 64


def _batch_size(steps, n, path_type):
    """Trajectories per batch: as many as fit ``_BATCH_BYTES``, at least one.

    Each costs 24 bytes a step of one chunk of uniforms and ``n + 1`` entries
    of four paths.  Bytes, not steps: a step cap that split 2,500 runs of 400
    steps also split 500 of 2000, whose per-step-bound loop then slowed 75%.
    """
    per_traj = 24 * min(steps, _STEP_CHUNK) + (n + 1) * (2 * path_type.itemsize + 2)
    return max(1, _BATCH_BYTES // per_traj)


def _uniform_chunks(seed, start, count, steps):
    """Uniforms of trajectories ``start .. start+count-1``, ``_STEP_CHUNK`` steps at a time.

    Yields ``(width, count, 3)`` views of one buffer, each chunk written over
    the one before: step ``k0 + k`` is the contiguous ``(count, 3)`` slice
    ``[k]``.  The buffer holds every slot of the blocks the batch touches, and
    each block fills its part with one ``random`` call per chunk.
    """
    first = start // _BLOCK
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
            for block in range(first, (start + count - 1) // _BLOCK + 1)]
    buf = np.empty((min(_STEP_CHUNK, steps), len(rngs), _BLOCK, 3))
    rows = np.empty((buf.shape[0], _BLOCK, 3))  # random() fills contiguous arrays only
    lo = start - first * _BLOCK  # the batch's first slot in the buffer
    for k0 in range(0, steps, _STEP_CHUNK):
        width = min(_STEP_CHUNK, steps - k0)
        for block, rng in enumerate(rngs):
            rng.random(out=rows[:width])
            buf[:width, block] = rows[:width]
        yield buf[:width].reshape(width, -1, 3)[:, lo:lo + count]
