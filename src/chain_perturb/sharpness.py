"""Two-state family attaining the averaged-law TV certificate with equality.

The base chain flips with probability ``beta``; the perturbation shifts the
two flip probabilities to ``beta - eps`` and ``beta + eps``, so the worst row
perturbation is exactly ``eps``, the base contraction constant is ``2 beta``,
and the cross constant is ``2 beta - eps``.  Powers of the perturbed matrix
have a closed form through the eigenpair ``(1, 1 - 2 beta)``, so the TV
distance between the stationary law ``(1/2, 1/2)`` and the time-averaged
perturbed law is exactly computable -- and it coincides with the generic
averaged-TV certificate (:func:`~chain_perturb.bounds.avg_disagreement_bound`
with ``p0`` read as the initial TV distance) at every horizon.
:func:`tightness_table` checks the certificate against the averaged law
propagated step by step through the perturbed matrix, so a wrong
certificate fails; the closed forms are the tests' references, not package
code.

The propagation is pure algebra and stays valid for ``eps`` up to
``2 beta``; the perturbed matrix is a stochastic matrix only for
``eps <= beta``, which :func:`kernel_pair` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundParams, avg_disagreement_bound
from .kernels import FiniteKernel, _count, _law_running_sums, _row_tv

__all__ = [
    "SharpnessInstance",
    "base_matrix",
    "perturbed_matrix",
    "kernel_pair",
    "tightness_table",
]

#: Largest ``|exact - bound|`` that the ``sharpness`` command accepts as equality.
TIGHTNESS_TOL = 1e-12


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
        object.__setattr__(self, "n", _count("n", self.n))

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


def _propagated_averaged_tv(beta, epsilon, gamma, n_max) -> np.ndarray:
    """Averaged TV for horizons 1..n_max, by propagating ``(gamma, 1-gamma)``.

    Plain vector-matrix products, so it also holds for ``epsilon > beta``,
    where the perturbed matrix has a negative entry.
    """
    sums = _law_running_sums(np.array([gamma, 1.0 - gamma]), perturbed_matrix(beta, epsilon), n_max)
    return np.array([_row_tv(total / (k + 1), 0.5) for k, total in enumerate(sums)])


def tightness_table(beta, epsilon, gamma, n_max):
    """Rows ``(n, exact_tv, bound, gap)`` for horizons 1..n_max."""
    n_max = _count("n_max", n_max)
    exact = _propagated_averaged_tv(beta, epsilon, gamma, n_max)
    rows = []
    for n in range(1, n_max + 1):
        inst = SharpnessInstance(beta=beta, epsilon=epsilon, gamma=gamma, n=n)
        bound = avg_disagreement_bound(
            BoundParams(epsilon=epsilon, n=n, alpha=inst.alpha, p0=inst.initial_tv)
        )
        tv = float(exact[n - 1])
        rows.append((n, tv, bound, abs(tv - bound)))
    return rows
