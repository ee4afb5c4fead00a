"""Acceptance suite: one test per shipped criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import time
import warnings

import numpy as np
import pytest

import chain_perturb as cp
from chain_perturb.gp_mcmc import _eigen_cache, _gram_list
from helpers import random_pair

FLIP = cp.kernel_pair(0.25, 0.1)  # P_eps, P with a=0.5, alpha=0.4, eps=0.1


def report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_sharpness_equality():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (0.1, 0.2, 0.3, 0.4, 0.5):
        for eps in (0.01, beta / 2, 2 * beta - 0.01):
            for gamma in (0.6, 0.9, 1.0):
                for n in (1, 2, 5, 10, 100):
                    inst = cp.SharpnessInstance(beta=beta, epsilon=eps, gamma=gamma, n=n)
                    _, gap = cp.certify_tightness(inst)
                    worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"max |exact - bound| = {worst:.2e} over 225 grid points in {elapsed:.2f}s")


def test_criterion_02_closed_form_powers():
    t0 = time.monotonic()
    worst = 0.0
    for beta, eps in ((0.25, 0.1), (0.3, 0.45)):
        inst = cp.SharpnessInstance(beta=beta, epsilon=eps, gamma=0.9, n=1)
        M = cp.perturbed_matrix(beta, eps)
        acc = np.eye(2)
        for k in range(201):
            worst = max(worst, float(np.abs(cp.perturbed_power_closed_form(inst, k) - acc).max()))
            acc = acc @ M
    elapsed = time.monotonic() - t0
    report(2, worst <= 1e-12 and elapsed < 1.0,
           f"max |closed form - repeated product| = {worst:.2e} for k <= 200 in {elapsed:.2f}s")


def test_criterion_03_coupling_marginals():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst_marginal = 0.0
    worst_diag = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        P_eps, P = random_pair(rng, n, rng.uniform(0.02, 0.95))
        for x in range(n):
            for y in range(n):
                joint = cp.product_kernel_row(P_eps, P, (x, y)).weights.reshape(n, n)
                overlap = 1.0 - cp.tv_distance(P_eps.rows[x], P.rows[y])
                worst_marginal = max(
                    worst_marginal,
                    float(np.abs(joint.sum(axis=1) - P_eps.rows[x]).max()),
                    float(np.abs(joint.sum(axis=0) - P.rows[y]).max()),
                )
                worst_diag = max(worst_diag, abs(float(np.trace(joint)) - overlap))
    elapsed = time.monotonic() - t0
    report(3, worst_marginal <= 1e-12 and worst_diag <= 1e-12 and elapsed < 5.0,
           f"100 random pairs: marginal gap {worst_marginal:.2e}, "
           f"diagonal-mass gap {worst_diag:.2e} in {elapsed:.1f}s")


def test_criterion_04_stochastic_dominance():
    t0 = time.monotonic()
    violations = 0
    for batch in cp.iter_coupled_batches(*FLIP, 0, 0, 100, 100_000, seed=424242):
        violations += int((batch.z > batch.y).sum())
    elapsed = time.monotonic() - t0
    report(4, violations == 0 and elapsed < 30.0,
           f"0 of 10^5 length-100 trajectories violate Z <= Y "
           f"({violations} pointwise violations) in {elapsed:.1f}s")


def test_criterion_05_disagreement_bound():
    t0 = time.monotonic()
    results = []
    cfg = cp.ExperimentConfig(p_eps=FLIP[0], p=FLIP[1], n=200, replicates=1500,
                              master_seed=505, x0_eps=0, x0=1)
    results.append(cp.empirical_disagreement(cfg))
    rng = np.random.default_rng(9001)
    for k in range(20):
        n_states = int(rng.integers(2, 7))
        P_eps, P = random_pair(rng, n_states, rng.uniform(0.02, 0.3))
        cfg = cp.ExperimentConfig(p_eps=P_eps, p=P, n=150, replicates=600,
                                  master_seed=1000 + k, x0_eps=0,
                                  x0=min(1, n_states - 1))
        results.append(cp.empirical_disagreement(cfg))
    all_sat = all(r.satisfied for r in results)
    # the bound is the dominating chain's occupation of state 1, propagated step by step
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.05, 0.9)
        eps = rng.uniform(0.0, min(0.5, 1.0 - alpha))
        p0 = rng.uniform(0.0, 1.0)
        n = int(rng.integers(1, 500))
        T = cp.BoundingChain(alpha=alpha, epsilon=eps).transition
        law, acc = np.array([1.0 - p0, p0]), 0.0
        for _ in range(n):
            acc += law[1]
            law = law @ T
        occ = acc / n
        bound = cp.avg_disagreement_bound(cp.BoundParams(epsilon=eps, n=n, alpha=alpha, p0=p0))
        worst = max(worst, abs(occ - bound))
    elapsed = time.monotonic() - t0
    report(5, all_sat and worst <= 1e-13 and elapsed < 120.0,
           f"21/21 configurations satisfied; occupation-vs-bound gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_stationary_gap():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    checked = 0
    worst_excess = -np.inf
    while checked < 100:
        n = int(rng.integers(2, 7))
        P_eps, P = random_pair(rng, n, rng.uniform(0.01, 0.4))
        a = cp.doeblin_constant(P)
        eps = cp.local_epsilon(P_eps, P)
        if a <= eps:
            continue
        gap = cp.tv_distance(cp.invariant_measure(P), cp.invariant_measure(P_eps))
        worst_excess = max(worst_excess, gap - eps / a)
        checked += 1
    elapsed = time.monotonic() - t0
    report(6, worst_excess <= 1e-10 and elapsed < 10.0,
           f"100 random pairs with a > eps: max TV(mu, mu_eps) - eps/a = {worst_excess:.2e} "
           f"in {elapsed:.1f}s")


def test_criterion_07_poisson_solver():
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    worst_res = 0.0
    worst_norm_excess = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 9))
        P = random_pair(rng, n, 0.0)[1]
        f = rng.normal(scale=2.0, size=n)
        psi = cp.poisson_solve(P, f).values
        mu = cp.invariant_measure(P).weights
        res = float(np.abs((P.rows - np.eye(n)) @ psi - (mu @ f - f)).max())
        worst_res = max(worst_res, res)
        cap = 2.0 * cp.f_star_norm(f) / cp.doeblin_constant(P)
        worst_norm_excess = max(worst_norm_excess, float(np.abs(psi).max()) - cap)
    elapsed = time.monotonic() - t0
    report(7, worst_res <= 1e-10 and worst_norm_excess <= 0.0 and elapsed < 10.0,
           f"100 random (P, f): max residual {worst_res:.2e}, "
           f"norm-bound excess {worst_norm_excess:.2e} in {elapsed:.1f}s")


def test_criterion_08_decoupling_times():
    t0 = time.monotonic()
    # deterministic stopping: exact geometric law of the dominating chain
    pe, pb = cp.kernel_pair(0.25, 0.05)
    N = 10
    cfg = cp.ExperimentConfig(p_eps=pe, p=pb, n=N, replicates=4000, master_seed=808,
                              x0_eps=0, x0=0,
                              stopping=cp.StoppingRule(kind="deterministic", time=N))
    res_sigma = cp.empirical_bounding_decoupling(cfg)
    exact = 1.0 - 0.95 ** N
    two_sided = abs(res_sigma.estimate - exact) <= 3.0 * res_sigma.std_error
    linear = res_sigma.estimate <= 0.05 * N + 3.0 * res_sigma.std_error
    # hitting-time stopping rule with the exact fundamental-matrix expectation
    rng = np.random.default_rng(4)
    P_eps, P = random_pair(rng, 5, 0.02)
    e_tau = cp.expected_hitting_time(P, [4], 0)
    cfg = cp.ExperimentConfig(p_eps=P_eps, p=P, n=int(50 * e_tau) + 1, replicates=4000,
                              master_seed=809, x0_eps=0, x0=0,
                              stopping=cp.StoppingRule(kind="hitting", targets=(4,)))
    res_hit = cp.empirical_decoupling(cfg)
    elapsed = time.monotonic() - t0
    report(8, two_sided and linear and res_hit.satisfied and elapsed < 60.0,
           f"sigma law |{res_sigma.estimate:.4f} - {exact:.4f}| <= 3se; "
           f"hitting P(S<=tau)={res_hit.estimate:.4f} <= {res_hit.bound:.4f}+3se "
           f"(E tau={e_tau:.2f}) in {elapsed:.1f}s")


def test_criterion_09_path_laws():
    t0 = time.monotonic()
    results = []
    cfg = cp.ExperimentConfig(p_eps=FLIP[0], p=FLIP[1], n=10, replicates=20_000,
                              master_seed=5, x0_eps=0, x0=0,
                              stopping=cp.StoppingRule(kind="hitting", targets=(1,)))
    results.append(cp.empirical_path_law_distance(cfg))
    for seed in (31337, 271828):
        rng = np.random.default_rng(seed)
        P_eps, P = random_pair(rng, 5, 0.03)
        cfg = cp.ExperimentConfig(p_eps=P_eps, p=P, n=10, replicates=20_000,
                                  master_seed=seed, x0_eps=0, x0=0,
                                  stopping=cp.StoppingRule(kind="hitting", targets=(4,)))
        results.append(cp.empirical_path_law_distance(cfg))
    elapsed = time.monotonic() - t0
    detail = "; ".join(f"est={r.estimate:.3f}<=bound={r.bound:.3f}+3se" for r in results)
    report(9, all(r.satisfied for r in results) and elapsed < 60.0,
           f"{detail} in {elapsed:.1f}s")


def test_criterion_10_azuma_tails():
    t0 = time.monotonic()
    ok = True
    details = []
    for lam in (0.5, 1.0, 2.0):
        cfg = cp.ExperimentConfig(p_eps=FLIP[0], p=FLIP[1], n=400, replicates=1500,
                                  master_seed=int(10 + 10 * lam), x0_eps=0, x0=0,
                                  f=[0.0, 1.0])
        coupled = cp.empirical_tail(cfg, lam)
        base = cp.empirical_base_tail(cfg, lam)
        ok = ok and coupled.satisfied and base.satisfied
        details.append(f"lam={lam}: coupled {coupled.estimate:.3f}<={coupled.bound:.3f}, "
                       f"base {base.estimate:.3f}<={min(1.0, base.bound):.3f}")
    elapsed = time.monotonic() - t0
    report(10, ok and elapsed < 120.0, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_11_gp_low_rank_application():
    t0 = time.monotonic()
    cfg = cp.GPConfig(n=100, m=5, seed=20240817)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = cp.figure_sweep(cfg, 20, eps_threshold=1e-10)
    sweep_time = time.monotonic() - t0
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r.replicate, []).append(r)
    hits = sum(
        1 for rep_rows in by_rep.values()
        if any(r.q <= cfg.n // 3 and r.ratio < 1e-3 for r in rep_rows)
    )
    grams = _gram_list(cfg)
    cache = _eigen_cache(cfg, grams)
    worst_full_ratio = 0.0
    for rep in range(20):
        z = cp.generate_data(cfg, rep)
        eps, alpha = cp.epsilon_alpha_for_gp(cfg, z, q=cfg.n, grams=grams, eigen_cache=cache)
        worst_full_ratio = max(worst_full_ratio, eps / (alpha + eps))
    # Woodbury and determinant identities on every grid point
    worst_inv = 0.0
    worst_det = 0.0
    for i1 in range(cfg.m):
        for q in (5, cfg.n // 3):
            lam = cp.low_rank_factor(grams[i1], q).lam
            for x2 in cfg.grid_x2:
                dense = np.linalg.inv(np.eye(cfg.n) + x2 * lam @ lam.T)
                worst_inv = max(worst_inv, float(np.abs(dense - cp.woodbury_inverse(lam, x2)).max()))
                _, logdet = np.linalg.slogdet(np.eye(cfg.n) + x2 * lam @ lam.T)
                worst_det = max(worst_det, abs(logdet - cp.lowrank_logdet(lam, x2)))
    elapsed = time.monotonic() - t0
    ok = (sweep_time < 600.0 and worst_full_ratio <= 1e-8 and hits >= 18
          and worst_inv <= 1e-10 and worst_det <= 1e-10)
    report(11, ok,
           f"sweep {sweep_time:.1f}s; ratio at q=n <= {worst_full_ratio:.1e}; "
           f"ratio<1e-3 at q<=n/3 in {hits}/20 replicates; "
           f"Woodbury {worst_inv:.1e}, logdet {worst_det:.1e} in {elapsed:.1f}s")


def test_criterion_12_remark_mean_bias():
    t0 = time.monotonic()
    n, R = 100, 2000
    mu_f = float(cp.invariant_measure(FLIP[1]).weights @ np.array([0.0, 1.0]))
    per_rep = np.empty(R)
    for batch in cp.iter_coupled_batches(*FLIP, 0, 0, n, R, seed=1212):
        sl = slice(batch.first_index, batch.first_index + batch.n_traj)
        per_rep[sl] = batch.x_eps[:, :n].mean(axis=1)  # f = identity on {0,1}
    est = float(per_rep.mean())
    se = float(per_rep.std(ddof=1) / np.sqrt(R))
    params = cp.BoundParams(epsilon=0.1, n=n, a=0.5)
    bound = cp.remark_perturbation_bounds(params, 1.0, 1.0)[0].value
    ok = abs(mu_f - est) <= bound + 3.0 * se
    elapsed = time.monotonic() - t0
    report(12, ok and elapsed < 60.0,
           f"|mu f - mean time-average| = {abs(mu_f - est):.4f} <= {bound:.4f} + 3se "
           f"in {elapsed:.1f}s")
