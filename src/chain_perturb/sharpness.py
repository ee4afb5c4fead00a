"""Two-state family attaining the averaged-law TV certificate with equality.

The base chain flips with probability ``beta``; the perturbation shifts the
two flip probabilities to ``beta - eps`` and ``beta + eps``, so the worst row
perturbation is exactly ``eps``, the base contraction constant is ``2 beta``,
and the cross constant is ``2 beta - eps``.  Powers of the perturbed matrix
have a closed form through the eigenpair ``(1, 1 - 2 beta)``, which makes the
TV distance between the stationary law ``(1/2, 1/2)`` and the time-averaged
perturbed law exactly computable -- and it coincides with the generic
averaged-TV certificate at every horizon.  The certification checks the
certificate against the averaged law propagated step by step through the
perturbed matrix, not against the closed form, so a wrong certificate fails.

The closed forms are pure algebra and stay valid for ``eps`` up to
``2 beta``; the perturbed matrix is a stochastic matrix only for
``eps <= beta``, which :func:`kernel_pair` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundParams, averaged_tv_bound, decay_power
from .kernels import FiniteKernel

__all__ = [
    "SharpnessInstance",
    "base_matrix",
    "perturbed_matrix",
    "kernel_pair",
    "perturbed_power_closed_form",
    "eigen_reconstruction",
    "exact_averaged_tv",
    "certify_tightness",
    "tightness_table",
]


@dataclass(frozen=True)
class SharpnessInstance:
    """Parameters of the equality family: flip rate, perturbation, initial tilt, horizon."""

    beta: float
    epsilon: float
    gamma: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.beta <= 0.5:
            raise ValueError(f"beta must be in (0, 1/2], got {self.beta!r}")
        if not 0.0 <= self.epsilon < 2.0 * self.beta:
            raise ValueError(f"epsilon must be in [0, 2*beta), got {self.epsilon!r}")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (1/2, 1], got {self.gamma!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @property
    def alpha(self) -> float:
        """Cross contraction constant of the pair, ``2 beta - epsilon``."""
        return 2.0 * self.beta - self.epsilon

    @property
    def initial_tv(self) -> float:
        """TV distance between the tilted start ``(gamma, 1-gamma)`` and ``(1/2, 1/2)``."""
        return self.gamma - 0.5


def base_matrix(beta) -> np.ndarray:
    return np.array([[1.0 - beta, beta], [beta, 1.0 - beta]])


def perturbed_matrix(beta, epsilon) -> np.ndarray:
    """Perturbed flip matrix; stochastic only for ``epsilon <= beta``."""
    return np.array([
        [1.0 - (beta - epsilon), beta - epsilon],
        [beta + epsilon, 1.0 - (beta + epsilon)],
    ])


def kernel_pair(beta, epsilon):
    """Validated kernels ``(P_eps, P)`` for the family; requires ``epsilon <= beta``."""
    if epsilon > beta:
        raise ValueError(
            f"epsilon={epsilon!r} > beta={beta!r}: perturbed matrix has a negative entry"
        )
    return FiniteKernel(perturbed_matrix(beta, epsilon)), FiniteKernel(base_matrix(beta))


def perturbed_power_closed_form(inst: SharpnessInstance, k) -> np.ndarray:
    """k-th power of the perturbed matrix via the eigenvalue ``1 - 2 beta``."""
    if k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    b, e = inst.beta, inst.epsilon
    r = (1.0 - 2.0 * b) ** int(k)
    return np.array([
        [(b + e) + (b - e) * r, (b - e) - (b - e) * r],
        [(b + e) - (b + e) * r, (b - e) + (b + e) * r],
    ]) / (2.0 * b)


def eigen_reconstruction(beta, epsilon) -> np.ndarray:
    """Rebuild the perturbed matrix as ``Q diag(1, 1-2 beta) Q^{-1}``.

    Columns of Q are the right eigenvectors ``(1, 1)`` and
    ``(-(beta-eps), beta+eps)``.
    """
    Q = np.array([[1.0, -(beta - epsilon)], [1.0, beta + epsilon]])
    D = np.diag([1.0, 1.0 - 2.0 * beta])
    return Q @ D @ np.linalg.inv(Q)


def exact_averaged_tv(inst: SharpnessInstance) -> float:
    """Exact TV distance between ``(1/2, 1/2)`` and the time-averaged perturbed law.

    ``e/s + (tv0 - e/s) * (1 - (1-s)^n) / (s n)`` with ``s = 2 beta`` (which
    equals ``alpha + epsilon`` here) and ``tv0 = gamma - 1/2``.
    """
    s = 2.0 * inst.beta
    ratio = inst.epsilon / s
    w = (1.0 - decay_power(1.0 - s, inst.n)) / (s * inst.n)
    return ratio + (inst.initial_tv - ratio) * w


def _propagated_averaged_tv(beta, epsilon, gamma, n_max) -> np.ndarray:
    """Averaged TV for horizons 1..n_max, by propagating ``(gamma, 1-gamma)``.

    Plain vector-matrix products, so it also holds for ``epsilon > beta``,
    where the perturbed matrix has a negative entry.
    """
    P = perturbed_matrix(beta, epsilon)
    law = np.array([gamma, 1.0 - gamma])
    total = np.zeros(2)
    tv = np.empty(int(n_max))
    for k in range(int(n_max)):
        total += law
        tv[k] = 0.5 * np.abs(total / (k + 1) - 0.5).sum()
        law = law @ P
    return tv


def certify_tightness(inst: SharpnessInstance, tol=1e-12):
    """Compare the propagated averaged TV against the generic certificate.

    Returns ``(ok, gap)`` with ``gap = |exact - bound|``; the bound is
    evaluated at the pair's own constants (``alpha = 2 beta - epsilon``) and
    ``p0 = gamma - 1/2``.
    """
    exact = _propagated_averaged_tv(inst.beta, inst.epsilon, inst.gamma, inst.n)[-1]
    params = BoundParams(epsilon=inst.epsilon, n=inst.n, alpha=inst.alpha, p0=inst.initial_tv)
    gap = abs(float(exact) - averaged_tv_bound(params))
    return gap <= tol, gap


def tightness_table(beta, epsilon, gamma, n_max):
    """Rows ``(n, exact_tv, bound, gap)`` for horizons 1..n_max."""
    exact = _propagated_averaged_tv(beta, epsilon, gamma, n_max)
    rows = []
    for n in range(1, int(n_max) + 1):
        inst = SharpnessInstance(beta=beta, epsilon=epsilon, gamma=gamma, n=n)
        bound = averaged_tv_bound(
            BoundParams(epsilon=epsilon, n=n, alpha=inst.alpha, p0=inst.initial_tv)
        )
        tv = float(exact[n - 1])
        rows.append((n, tv, bound, abs(tv - bound)))
    return rows
