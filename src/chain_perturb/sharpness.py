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

import numpy as np

from .bounds import BoundParams, _require, avg_disagreement_bound
from .kernels import FiniteKernel, _count, _law_running_sums, _row_tv

__all__ = [
    "perturbed_matrix",
    "kernel_pair",
    "tightness_table",
]

#: Largest ``|exact - bound|`` that the ``sharpness`` command accepts as equality.
TIGHTNESS_TOL = 1e-12


def perturbed_matrix(beta, epsilon) -> np.ndarray:
    """Perturbed flip matrix; stochastic only for ``epsilon <= beta``."""
    return np.array([
        [1.0 - (beta - epsilon), beta - epsilon],
        [beta + epsilon, 1.0 - (beta + epsilon)],
    ])


def kernel_pair(beta, epsilon):
    """Validated kernels ``(P_eps, P)`` for ``beta`` in (0, 1/2] and ``epsilon`` in [0, beta]."""
    _require("beta", beta, "in (0, 1/2]", lambda v: 0.0 < v <= 0.5)
    _require("epsilon", epsilon, "in [0, beta]; above beta the perturbed matrix has a "
             "negative entry", lambda v: 0.0 <= v <= beta)
    return FiniteKernel(perturbed_matrix(beta, epsilon)), FiniteKernel(perturbed_matrix(beta, 0.0))


def _propagated_averaged_tv(beta, epsilon, gamma, n_max) -> np.ndarray:
    """Averaged TV for horizons 1..n_max, by propagating ``(gamma, 1-gamma)``.

    Plain vector-matrix products, so it also holds for ``epsilon > beta``,
    where the perturbed matrix has a negative entry.
    """
    sums = _law_running_sums(np.array([gamma, 1.0 - gamma]), perturbed_matrix(beta, epsilon), n_max)
    return np.array([_row_tv(total / (k + 1), 0.5) for k, total in enumerate(sums)])


def tightness_table(beta, epsilon, gamma, n_max):
    """Rows ``(n, exact_tv, bound, gap)`` for horizons 1..n_max.

    ``beta`` lies in (0, 1/2], ``epsilon`` in [0, 2 beta) and ``gamma`` in
    (1/2, 1].  The bound reads the cross constant ``2 beta - epsilon`` and,
    as ``p0``, the TV distance ``gamma - 1/2`` of the start from ``(1/2, 1/2)``.
    """
    _require("beta", beta, "in (0, 1/2]", lambda v: 0.0 < v <= 0.5)
    _require("epsilon", epsilon, "in [0, 2*beta)", lambda v: 0.0 <= v < 2.0 * beta)
    _require("gamma", gamma, "in (1/2, 1]", lambda v: 0.5 < v <= 1.0)
    n_max = _count("n_max", n_max)
    exact = _propagated_averaged_tv(beta, epsilon, gamma, n_max)
    alpha, p0 = 2.0 * beta - epsilon, gamma - 0.5
    rows = []
    for n in range(1, n_max + 1):
        bound = avg_disagreement_bound(BoundParams(epsilon=epsilon, n=n, alpha=alpha, p0=p0))
        tv = float(exact[n - 1])
        rows.append((n, tv, bound, abs(tv - bound)))
    return rows
