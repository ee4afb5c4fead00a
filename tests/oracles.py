"""Independent references the tests compare package code against.

Each one computes a quantity the package also computes, by another route:
the dominating two-state chain as an explicit matrix, the Poisson equation
by a direct solve, the two-state family's closed forms, and the GP Gibbs
kernel through dense Cholesky factorizations.  None of them is package code.
"""

import math
from dataclasses import dataclass

import numpy as np

from chain_perturb import (
    DimensionMismatchError,
    FiniteKernel,
    InvalidRegimeError,
    NumericalFailureError,
    StateFunction,
    as_kernel,
    as_state_function,
    cross_doeblin_constant,
    doeblin_constant,
    f_star_norm,
    gram_matrix,
    invariant_measure,
    local_epsilon,
    lowrank_log_table,
)
from chain_perturb.bounds import _require_contraction
from chain_perturb.gp_mcmc import _rows_by_x1


@dataclass(frozen=True)
class BoundingChain:
    """Two-state chain [[1-epsilon, epsilon], [alpha, 1-alpha]] dominating the disagreement indicator."""

    alpha: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("alpha and epsilon must lie in [0, 1]")
        _require_contraction(self.alpha, self.epsilon)

    @property
    def transition(self) -> np.ndarray:
        return np.array([[1.0 - self.epsilon, self.epsilon], [self.alpha, 1.0 - self.alpha]])

    @property
    def stationary(self) -> np.ndarray:
        s = self.alpha + self.epsilon
        if s <= 0.0:
            raise InvalidRegimeError("alpha + epsilon = 0: stationary measure undefined")
        return np.array([self.alpha / s, self.epsilon / s])


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


def perturbed_power_closed_form(beta, epsilon, k) -> np.ndarray:
    """k-th power of the perturbed matrix via the eigenvalue ``1 - 2 beta``."""
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    b, e = beta, epsilon
    r = (1.0 - 2.0 * b) ** int(k)
    return np.array([
        [(b + e) + (b - e) * r, (b - e) - (b - e) * r],
        [(b + e) - (b + e) * r, (b - e) + (b + e) * r],
    ]) / (2.0 * b)


def exact_averaged_tv(beta, epsilon, gamma, n) -> float:
    """Exact TV distance between ``(1/2, 1/2)`` and the time-averaged perturbed law.

    ``e/s + (tv0 - e/s) * (1 - (1-s)^n) / (s n)`` with ``s = 2 beta`` (which
    equals ``alpha + epsilon`` here) and ``tv0 = gamma - 1/2``.
    """
    s = 2.0 * beta
    ratio = epsilon / s
    w = (1.0 - (1.0 - s) ** n) / (s * n)
    return ratio + (gamma - 0.5 - ratio) * w


def marginal_log_likelihood(x1, x2, z, points, prior_b=2.0, prior_a=2.0) -> float:
    """Log marginal likelihood of the data at one hyperparameter atom (up to a constant).

    ``-0.5 log det(I + x2 Sigma) - 0.5 (a + n) log(b + z'(I + x2 Sigma)^{-1} z)``,
    where the noise level has been integrated out against its inverse-Gamma
    prior.  Evaluated through a dense Cholesky factorization: this is the
    reference every table of :func:`lowrank_log_table` is tested against.

    The dropped proportionality constant cancels in every conditional the
    Gibbs kernels are built from.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if prior_b <= 0.0 or prior_a <= 0.0:
        raise ValueError("prior parameters must be positive")
    try:
        chol = np.linalg.cholesky(np.eye(n) + x2 * gram_matrix(x1, points))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"covariance not positive definite: {exc}") from exc
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    w = np.empty(n)
    for i in range(n):  # forward substitution for chol^{-1} z: O(n^2), a general solve O(n^3)
        w[i] = (z[i] - chol[i, :i] @ w[:i]) / chol[i, i]
    quad = float(w @ w)
    return -0.5 * logdet - 0.5 * (prior_a + n) * math.log(prior_b + quad)


def exact_log_table(config, z) -> np.ndarray:
    """Dense-Cholesky log-likelihood table ``ll[i1, i2]`` from :func:`marginal_log_likelihood`."""
    m = int(config.m)
    ll = np.empty((m, m))
    for i1 in range(m):
        for i2 in range(m):
            ll[i1, i2] = marginal_log_likelihood(
                config.grid_x1[i1], config.grid_x2[i2], z, config.points,
                prior_b=config.prior_b, prior_a=config.prior_a,
            )
    return ll


def gibbs_transition_matrix(config, z, rank=None) -> FiniteKernel:
    """Explicit two-block Gibbs transition matrix on the ``m^2`` atom pairs.

    State ``(i1, i2)`` sits at flat index ``i1 * m + i2``; a step resamples
    the amplitude atom given ``i1``, then the length-scale atom given the new
    amplitude atom, so every row depends on ``i1`` only (asserted by
    construction: the ``m`` rows of each block are identical).
    """
    ll = exact_log_table(config, z) if rank is None else lowrank_log_table(config, z, rank)
    return FiniteKernel(np.repeat(_rows_by_x1(ll), int(config.m), axis=0))


def epsilon_alpha_for_gp(config, z, q):
    """Exact closeness constants of the (exact, rank-q) Gibbs pair.

    Enumerates every state and state pair of the explicit ``m^2 x m^2``
    kernels with the public :func:`local_epsilon` and
    :func:`cross_doeblin_constant`, not the ``m x m`` row maxima of
    :func:`figure_sweep`.  The exact side comes from dense factorizations,
    independently of the eigen tables the sweep uses.  Returns
    ``(epsilon, alpha)``.
    """
    K = gibbs_transition_matrix(config, z)
    Kq = gibbs_transition_matrix(config, z, rank=q)
    return local_epsilon(Kq, K), cross_doeblin_constant(Kq, K)
