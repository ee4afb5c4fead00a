"""Finite-state Markov kernels, total-variation geometry, and closeness constants.

State spaces are finite and 0-indexed throughout, so every supremum over
states or state pairs appearing in uniform-ergodicity arguments becomes an
exact maximum over an explicit enumeration.  That exactness is what turns the
closed-form estimates evaluated elsewhere in this package into certificates
rather than approximations.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatchError, InvalidRegimeError, NumericalFailureError

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
    "transfer_constants",
    "invariant_measure",
    "f_star_norm",
    "poisson_solve",
    "n_step_average_law",
    "dist_to_json",
    "dist_from_json",
    "kernel_to_json",
    "kernel_from_json",
]

#: Loader tolerance: masses further than this from 1 are rejected, anything
#: inside is renormalized exactly.
ROW_SUM_TOL = 1e-9

# Rounding slack for weights produced by subtraction of near-equal numbers.
_NEG_TOL = 1e-12


def _clean_weights(weights, what="weights"):
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite")
    if w.min() < -_NEG_TOL:
        raise ValueError(f"{what} contain a negative entry ({w.min():g})")
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"{what} sum to {total!r}, more than {ROW_SUM_TOL:g} away from 1")
    return w / total


class ProbDist:
    """Probability vector over a finite, 0-indexed state space.

    Weights are validated on construction (nonnegative, total mass within
    ``1e-9`` of 1) and renormalized exactly, so the stored vector always sums
    to 1 at machine precision.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = _clean_weights(weights)
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
    state_labels : sequence, optional
        Opaque labels carried along for reporting; defaults to ``0..n-1``.
    """

    __slots__ = ("rows", "state_labels")

    def __init__(self, rows, state_labels=None):
        mat = np.array(rows, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValueError(f"kernel must be a non-empty square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("kernel entries must be finite")
        if mat.min() < -_NEG_TOL:
            raise ValueError(f"kernel has a negative entry ({mat.min():g})")
        mat = np.clip(mat, 0.0, None)
        sums = mat.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            x = int(np.argmax(bad))
            raise ValueError(f"row {x} sums to {sums[x]!r}, more than {ROW_SUM_TOL:g} away from 1")
        mat = mat / sums[:, None]
        mat.setflags(write=False)
        self.rows = mat
        if state_labels is not None:
            state_labels = list(state_labels)
            if len(state_labels) != mat.shape[0]:
                raise ValueError("state_labels length must match the number of states")
        self.state_labels = state_labels

    def __len__(self):
        return self.rows.shape[0]

    def __repr__(self):
        return f"FiniteKernel(n_states={len(self)})"


class StateFunction:
    """Real-valued observable on a finite state space (a plain vector)."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=float)
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
    return 0.5 * float(np.abs(pw - qw).sum())


def _pairwise_row_tv(A, B):
    # (n, m) matrix of TV distances between every row of A and every row of B,
    # one row of A at a time so memory stays O(S^2).
    return 0.5 * np.array([np.abs(row - B).sum(axis=1) for row in A])


def doeblin_constant(P) -> float:
    """Uniform contraction constant ``a = 1 - max_{x,y} tv(P(x,.), P(y,.))``.

    ``a > 0`` is the Doeblin condition: any two rows overlap by at least ``a``,
    which forces geometric ergodicity at rate ``1 - a``.  Returns a value in
    ``[0, 1]``; ``a = 1`` exactly when all rows are identical.
    """
    K = as_kernel(P)
    return 1.0 - float(_pairwise_row_tv(K.rows, K.rows).max())


def local_epsilon(P_eps, P) -> float:
    """Worst-case row perturbation ``max_x tv(P_eps(x,.), P(x,.))``."""
    A = as_kernel(P_eps)
    B = as_kernel(P)
    if len(A) != len(B):
        raise DimensionMismatchError(f"kernels live on {len(A)} vs {len(B)} states")
    return 0.5 * float(np.abs(A.rows - B.rows).sum(axis=1).max())


def cross_doeblin_constant(P_eps, P) -> float:
    """Cross contraction constant ``alpha = 1 - max_{x,y} tv(P_eps(x,.), P(y,.))``.

    The maximum runs over rows of the two *different* kernels; it governs how
    fast a coupled pair re-agrees after a disagreement.  With identical
    kernels this reduces exactly to :func:`doeblin_constant`.
    """
    A = as_kernel(P_eps)
    B = as_kernel(P)
    if len(A) != len(B):
        raise DimensionMismatchError(f"kernels live on {len(A)} vs {len(B)} states")
    return 1.0 - float(_pairwise_row_tv(A.rows, B.rows).max())


def transfer_constants(direction, given, epsilon) -> float:
    """Convert between the plain and cross contraction constants.

    Both conversions lose ``epsilon``: a Doeblin constant ``a`` yields a cross
    constant ``alpha = a - epsilon`` and vice versa (triangle inequality in
    each direction).

    Parameters
    ----------
    direction : {"doeblin_to_cross", "cross_to_doeblin"}
    given : float
        The known constant, in (0, 1).
    epsilon : float
        Worst-case row perturbation, with ``epsilon < given``.
    """
    if direction not in ("doeblin_to_cross", "cross_to_doeblin"):
        raise ValueError(f"unknown direction {direction!r}")
    if not 0.0 < given < 1.0:
        raise InvalidRegimeError(f"constant must be in (0, 1), got {given!r}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    if epsilon >= given:
        raise InvalidRegimeError(
            f"epsilon={epsilon!r} >= {given!r}: the transferred constant would not be positive"
        )
    return given - epsilon


def invariant_measure(P) -> ProbDist:
    """Stationary distribution ``mu`` with ``mu P = mu``.

    Solves the linear system ``(P' - I) mu = 0`` with a normalization row
    appended, which is exact at the scales this package targets.  Uniqueness
    requires a positive Doeblin constant; when ``a = 0`` a solution is still
    returned but a non-uniqueness warning is emitted.

    Raises
    ------
    NumericalFailureError
        If the solve leaves a residual ``||mu P - mu||_1 > 1e-12``.
    """
    K = as_kernel(P)
    n = len(K)
    if doeblin_constant(K) <= 0.0:
        warnings.warn(
            "kernel has no uniform row overlap (a = 0); the stationary measure may not be unique",
            RuntimeWarning,
            stacklevel=2,
        )
    A = np.vstack([K.rows.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    mu, *_ = np.linalg.lstsq(A, b, rcond=None)
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


def poisson_solve(P, f) -> StateFunction:
    """Solve the Poisson equation ``(P - I) psi = mu f - f``.

    The solution is pinned to the representative with ``mu psi = 0``, i.e. the
    sum ``psi = sum_{k>=0} P^k (f - mu f)``, computed here by a direct linear
    solve on the complement of constants.  Requires a positive Doeblin
    constant ``a``, which also yields the a-priori bound
    ``||psi||_inf <= 2 |f|_* / a`` (checked).

    Raises
    ------
    InvalidRegimeError
        If ``a = 0`` (no spectral gap).
    NumericalFailureError
        If the residual exceeds ``1e-10`` or the a-priori bound fails.
    """
    K = as_kernel(P)
    fv = as_state_function(f).values
    n = len(K)
    if fv.size != n:
        raise DimensionMismatchError(f"function on {fv.size} states, kernel on {n}")
    a = doeblin_constant(K)
    if a <= 0.0:
        raise InvalidRegimeError("kernel has no spectral gap (a = 0); Poisson equation not solvable")
    mu = invariant_measure(K).weights
    mu_f = float(mu @ fv)
    A = np.vstack([np.eye(n) - K.rows, mu[None, :]])
    b = np.concatenate([fv - mu_f, [0.0]])
    psi, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.abs((K.rows - np.eye(n)) @ psi - (mu_f - fv)).max())
    if residual > 1e-10:
        raise NumericalFailureError(f"Poisson residual {residual:g} exceeds 1e-10")
    cap = 2.0 * f_star_norm(fv) / a
    if float(np.abs(psi).max()) > cap + 1e-9:
        raise NumericalFailureError(
            f"Poisson solution norm {np.abs(psi).max():g} exceeds a-priori bound {cap:g}"
        )
    return StateFunction(psi)


def _law_running_sums(law, M, n):
    """Yield the running sums ``sum_{j=0}^{k} law M^j`` for k = 0 .. n-1.

    Plain vector-matrix products added left to right, so ``M`` may have a
    negative entry (it need not be a kernel).
    """
    total = np.zeros_like(law)
    for k in range(int(n)):
        if k:
            law = law @ M
        total = total + law
        yield total


def n_step_average_law(nu, P, n) -> ProbDist:
    """Time-averaged law ``(1/n) sum_{k=0}^{n-1} nu P^k``."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    K = as_kernel(P)
    law = as_dist(nu).weights
    if law.size != len(K):
        raise DimensionMismatchError(f"distribution on {law.size} states, kernel on {len(K)}")
    for total in _law_running_sums(law, K.rows, n):
        pass
    return ProbDist(total / n)


# ---------------------------------------------------------------------------
# JSON serialization: {"states": [...], "rows": [[...], ...]} for kernels and
# {"states": [...], "weights": [...]} for distributions; reals as decimal
# literals.  The constructors enforce the 1e-9 acceptance tolerance.

def kernel_to_json(P) -> dict:
    K = as_kernel(P)
    labels = K.state_labels if K.state_labels is not None else list(range(len(K)))
    return {"states": list(labels), "rows": [[float(v) for v in row] for row in K.rows]}


def kernel_from_json(doc) -> FiniteKernel:
    if "rows" not in doc:
        raise ValueError("kernel document must contain a 'rows' field")
    return FiniteKernel(doc["rows"], state_labels=doc.get("states"))


def dist_to_json(p) -> dict:
    d = as_dist(p)
    return {"states": list(range(len(d))), "weights": [float(v) for v in d.weights]}


def dist_from_json(doc) -> ProbDist:
    if "weights" not in doc:
        raise ValueError("distribution document must contain a 'weights' field")
    return ProbDist(doc["weights"])
