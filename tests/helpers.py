"""Shared random-instance generators and small adapters for the test suite."""

import numpy as np
import pytest

from chain_perturb import CoupledBatch, FiniteKernel, as_kernel, coupling, iter_coupled_batches


# Two rows with disjoint supports whose ``0.5 * sum|p - q|`` rounds to
# 1.0000000000000002 once the kernel normalises them; as a pair P = (p, p, p, p, q),
# P_eps = (q, p, p, p, q) they have constants a = alpha = 0 and epsilon = 1.
DISJOINT_ROUNDING_ROWS = ([0.21300000000000002, 0.703, 0.084, 0, 0],
                          [0, 0, 0, 0.33999999999999997, 0.66])


def random_dist(rng, n):
    w = rng.gamma(1.0, size=n)
    return w / w.sum()


def random_kernel(rng, n):
    rows = rng.gamma(1.0, size=(n, n))
    return FiniteKernel(rows / rows.sum(axis=1, keepdims=True))


def random_pair(rng, n, t):
    """Base kernel plus a mixture perturbation: row TV at most t."""
    P = random_kernel(rng, n)
    Q = random_kernel(rng, n)
    P_eps = FiniteKernel((1.0 - t) * P.rows + t * Q.rows)
    return P_eps, P


def power_iteration_mu(P, iters=20000):
    n = len(P)
    mu = np.full(n, 1.0 / n)
    for _ in range(iters):
        mu = mu @ P.rows
    return mu


def truncated_gram(S, q):
    """Top-q eigen truncation of a symmetric matrix, straight from ``np.linalg.eigh``."""
    vals, vecs = np.linalg.eigh(S)
    top = np.argsort(vals)[::-1][:q]
    return (vecs[:, top] * vals[top]) @ vecs[:, top].T


def dense_log_likelihood(gram, x2, z, prior_b=2.0, prior_a=2.0):
    """``-0.5 log det(I + x2 G) - 0.5 (a + n) log(b + z'(I + x2 G)^{-1} z)`` by slogdet and solve."""
    B = np.eye(z.size) + x2 * gram
    _, logdet = np.linalg.slogdet(B)
    return -0.5 * logdet - 0.5 * (prior_a + z.size) * np.log(prior_b + z @ np.linalg.solve(B, z))


def pin_batch_size(monkeypatch, size):
    """Make the stepper draw ``size`` trajectories per batch, whatever its byte budget."""
    monkeypatch.setattr(coupling, "_batch_size", lambda steps, n, path_type: size)


def stack_batches(P_eps, P, x0_eps, x0, n, n_traj, seed, batch_size=None):
    """All ``n_traj`` trajectories of :func:`iter_coupled_batches` stacked into one batch.

    With ``batch_size`` the trajectories are drawn that many at a time.
    """
    with pytest.MonkeyPatch.context() as mp:
        if batch_size is not None:
            pin_batch_size(mp, batch_size)
        chunks = list(iter_coupled_batches(P_eps, P, x0_eps, x0, n, n_traj, seed))
    if batch_size is not None:
        assert len(chunks) == -(-n_traj // batch_size)
    return CoupledBatch(*(np.concatenate([getattr(c, name) for c in chunks])
                          for name in ("x_eps", "x", "z", "y")), first_index=0)


def kernel_to_json(P) -> dict:
    K = as_kernel(P)
    return {"states": list(range(len(K))), "rows": [[float(v) for v in row] for row in K.rows]}
