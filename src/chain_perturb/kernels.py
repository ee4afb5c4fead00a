"""Finite-state Markov kernels, total-variation geometry, and closeness constants.

State spaces are finite and 0-indexed throughout, so every supremum over
states or state pairs appearing in uniform-ergodicity arguments becomes an
exact maximum over an explicit enumeration.  That exactness is what turns the
closed-form estimates evaluated elsewhere in this package into certificates
rather than approximations.
"""

from __future__ import annotations

import numbers
import warnings

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError

__all__ = [
    "ProbDist",
    "FiniteKernel",
    "StateFunction",
    "as_dist",
    "as_kernel",
    "as_state_function",
    "tv_distance",
    "doeblin_constant",
    "local_epsilon",
    "cross_doeblin_constant",
    "invariant_measure",
    "f_star_norm",
    "n_step_average_law",
    "kernel_from_json",
]

#: Loader tolerance: masses further than this from 1 are rejected, anything
#: inside is renormalized exactly.
ROW_SUM_TOL = 1e-9

# Rounding slack for weights produced by subtraction of near-equal numbers.
_NEG_TOL = 1e-12


def _is_integer(value):
    """True for an integer, numpy's included; False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(name, value, low=1):
    """``int(value)`` for an integer ``>= low``; a bool, a float or a smaller value raises."""
    if not _is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _state_tuple(targets):
    """``targets`` as a tuple; a value that is not a collection raises ValueError."""
    try:
        return tuple(targets)
    except TypeError:
        raise ValueError(f"targets must be a collection of states, got {targets!r}") from None


def _target_states(targets):
    """``targets`` as a tuple of ints; a non-collection, an empty set or a non-integer raises."""
    targets = _state_tuple(targets)
    if not targets:
        raise ValueError("hitting rule needs a non-empty target set")
    for t in targets:
        if not _is_integer(t):
            raise ValueError(f"hitting targets must be integer states, got {t!r}")
    return tuple(map(int, targets))


def _target_table(targets, n_states):
    """Boolean lookup table over ``n_states`` states, True on ``targets``, states in range."""
    targets = _target_states(targets)
    if min(targets) < 0 or max(targets) >= n_states:
        raise ValueError(f"targets outside 0..{n_states - 1}")
    return np.isin(np.arange(n_states), targets)


def _entry_types(values, depth):
    """Types of the entries ``depth`` levels into a nested sequence; an ndarray gives its dtype."""
    if isinstance(values, np.ndarray):
        return {values.dtype.type}
    if depth <= 1:
        return set(map(type, values)) if depth else {type(values)}
    return set().union(*(_entry_types(v, depth - 1) for v in values))


def _reals(values, what):
    """``values`` as a new float array; a string, bool, None or mapping entry raises ValueError.

    An ndarray is judged by its dtype, so a float array pays no per-entry scan.
    """
    arr = np.array(values)
    bad = sorted(t.__name__ for t in _entry_types(values, arr.ndim)
                 if not issubclass(t, numbers.Real) or issubclass(t, bool))
    if bad:
        raise ValueError(f"{what} entries must be real numbers, got {', '.join(bad)}")
    return arr.astype(float, copy=False)


def _stochastic(mat, what):
    """``mat`` with each vector along its last axis checked and renormalized exactly.

    Entries must be finite and at least ``-1e-12`` (then clipped at 0), and
    each vector's mass within :data:`ROW_SUM_TOL` of 1.
    """
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} entries must be finite")
    if mat.min() < -_NEG_TOL:
        raise ValueError(f"{what} has a negative entry ({mat.min():g})")
    mat = np.clip(mat, 0.0, None)
    sums = mat.sum(axis=-1, keepdims=True)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        x = int(np.argmax(bad))
        where = f"{what} row {x}" if mat.ndim > 1 else what
        raise ValueError(f"{where} sums to {float(sums.flat[x])!r}, "
                         f"more than {ROW_SUM_TOL:g} away from 1")
    return mat / sums


class ProbDist:
    """Probability vector over a finite, 0-indexed state space.

    Weights are validated on construction (nonnegative, total mass within
    ``1e-9`` of 1) and renormalized exactly, so the stored vector always sums
    to 1 at machine precision.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = _reals(weights, "distribution")
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        w = _stochastic(w, "distribution")
        w.setflags(write=False)
        self.weights = w

    def __len__(self):
        return self.weights.size

    def __getitem__(self, i):
        return float(self.weights[i])

    def __repr__(self):
        return f"ProbDist({self.weights.tolist()!r})"


class FiniteKernel:
    """Row-stochastic matrix over a finite state space.

    Parameters
    ----------
    rows : array_like, shape (n, n)
        ``rows[x, y]`` is the one-step probability of moving from state ``x``
        to state ``y``.  Each row must be a valid probability vector (same
        tolerance as :class:`ProbDist`); rows are renormalized exactly.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        mat = _reals(rows, "kernel")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError(f"kernel must be a non-empty square matrix, got shape {mat.shape}")
        mat = _stochastic(mat, "kernel")
        mat.setflags(write=False)
        self.rows = mat

    def __len__(self):
        return self.rows.shape[0]

    def __repr__(self):
        return f"FiniteKernel(n_states={len(self)})"


class StateFunction:
    """Real-valued observable on a finite state space (a plain vector)."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = _reals(values, "state function")
        if v.ndim != 1 or v.size == 0:
            raise ValueError("state function must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("state function must be finite")
        v.setflags(write=False)
        self.values = v

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"StateFunction({self.values.tolist()!r})"


def as_dist(p) -> ProbDist:
    """Coerce an array-like to :class:`ProbDist` (validating), pass through if already one."""
    return p if isinstance(p, ProbDist) else ProbDist(p)


def as_kernel(P) -> FiniteKernel:
    """Coerce an array-like to :class:`FiniteKernel` (validating), pass through if already one."""
    return P if isinstance(P, FiniteKernel) else FiniteKernel(P)


def as_state_function(f) -> StateFunction:
    return f if isinstance(f, StateFunction) else StateFunction(f)


def tv_distance(p, q) -> float:
    """Total variation distance between two finite probability vectors.

    ``tv(p, q) = max_A |p(A) - q(A)| = 0.5 * sum_x |p(x) - q(x)|``, which also
    equals the minimal disagreement probability over all couplings of p and q.
    """
    pw = as_dist(p).weights
    qw = as_dist(q).weights
    if pw.size != qw.size:
        raise DimensionMismatchError(f"distributions live on {pw.size} vs {qw.size} states")
    return float(_row_tv(pw, qw))


def _row_tv(p, q):
    """TV distance ``0.5 * sum |p - q|`` along the last axis; the other axes broadcast."""
    return 0.5 * np.abs(p - q).sum(axis=-1)


def _max_cross_tv(A, B):
    """Largest TV distance between a row of ``A`` and a row of ``B``, rows on axis -2.

    Leading axes are kept; one row of ``A`` at a time keeps memory O(S^2) per leading index.
    """
    return np.max([_row_tv(A[..., i, None, :], B).max(axis=-1) for i in range(A.shape[-2])],
                  axis=0)


def doeblin_constant(P) -> float:
    """Uniform contraction constant ``a = 1 - max_{x,y} tv(P(x,.), P(y,.))``.

    ``a > 0`` is the Doeblin condition: any two rows overlap by at least ``a``,
    which forces geometric ergodicity at rate ``1 - a``.  Returns a value in
    ``[0, 1]``; ``a = 1`` exactly when all rows are identical.
    """
    K = as_kernel(P)
    return 1.0 - float(_max_cross_tv(K.rows, K.rows))


def _kernel_pair(P_eps, P):
    """Both kernels, validated; :class:`DimensionMismatchError` unless they share their states."""
    A, B = as_kernel(P_eps), as_kernel(P)
    if len(A) != len(B):
        raise DimensionMismatchError(f"kernels live on {len(A)} vs {len(B)} states")
    return A, B


def local_epsilon(P_eps, P) -> float:
    """Worst-case row perturbation ``max_x tv(P_eps(x,.), P(x,.))``."""
    A, B = _kernel_pair(P_eps, P)
    return float(_row_tv(A.rows, B.rows).max())


def cross_doeblin_constant(P_eps, P) -> float:
    """Cross contraction constant ``alpha = 1 - max_{x,y} tv(P_eps(x,.), P(y,.))``.

    The maximum runs over rows of the two *different* kernels; it governs how
    fast a coupled pair re-agrees after a disagreement.  With identical
    kernels this reduces exactly to :func:`doeblin_constant`.
    """
    A, B = _kernel_pair(P_eps, P)
    return 1.0 - float(_max_cross_tv(A.rows, B.rows))


def invariant_measure(P) -> ProbDist:
    """Stationary distribution ``mu`` with ``mu P = mu``.

    Solves the linear system ``(P' - I) mu = 0`` with a normalization row
    appended, which is exact at the scales this package targets.  ``mu`` is
    unique exactly when the system has rank ``S`` (one closed class, which
    ``a = 0`` allows: the periodic flip); else a warning comes with it.

    Raises
    ------
    NumericalFailureError
        If the solve leaves a residual ``||mu P - mu||_1 > 1e-12``.
    """
    K = as_kernel(P)
    n = len(K)
    A = np.vstack([K.rows.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    mu, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < n:
        warnings.warn(
            f"stationary system has rank {rank} < {n}; the stationary measure is not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    mu = np.clip(mu, 0.0, None)
    total = mu.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalFailureError("stationary solve returned a degenerate vector")
    mu = mu / total
    residual = float(np.abs(mu @ K.rows - mu).sum())
    if residual > 1e-12:
        raise NumericalFailureError(f"stationary solve residual {residual:g} exceeds 1e-12")
    return ProbDist(mu)


def f_star_norm(f) -> float:
    """Half the oscillation of ``f``: ``(max f - min f) / 2``.

    This is the smallest sup-norm achievable by shifting ``f`` by a constant,
    so it never exceeds ``|f|_inf`` or ``|f - mu f|_inf`` for any ``mu``.
    """
    v = as_state_function(f).values
    return 0.5 * float(v.max() - v.min())


def _law_running_sums(law, M, n):
    """Yield the running sums ``sum_{j=0}^{k} law M^j`` for k = 0 .. n-1.

    Plain vector-matrix products added left to right, so ``M`` may have a
    negative entry (it need not be a kernel).
    """
    total = np.zeros_like(law)
    for k in range(n):
        if k:
            law = law @ M
        total = total + law
        yield total


def n_step_average_law(nu, P, n) -> ProbDist:
    """Time-averaged law ``(1/n) sum_{k=0}^{n-1} nu P^k``."""
    n = _count("n", n)
    K = as_kernel(P)
    law = as_dist(nu).weights
    if law.size != len(K):
        raise DimensionMismatchError(f"distribution on {law.size} states, kernel on {len(K)}")
    for total in _law_running_sums(law, K.rows, n):
        pass
    return ProbDist(total / n)


# ---------------------------------------------------------------------------
# JSON input: {"states": [...], "rows": [[...], ...]} for kernels, reals as
# decimal literals.  The constructor enforces the 1e-9 acceptance tolerance.

def kernel_from_json(doc) -> FiniteKernel:
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError("kernel document must be an object with a 'rows' field, "
                         f"got {type(doc).__name__}")
    K = FiniteKernel(doc["rows"])
    states = doc.get("states")
    if states is not None and (not isinstance(states, list) or len(states) != len(K)):
        raise ValueError(f"kernel field 'states' must be a list of {len(K)} labels, got {states!r}")
    return K
