"""The four benchmark workloads: inputs from the seed, CLI arguments, output checks.

Each workload makes its input files from ``--seed`` alone and runs one
``chain-perturb`` subcommand on them.  ``quick`` shrinks every size so the
benchmark's self-test can run all workloads, checks and wrappers in seconds.

Every check must keep holding when the program's RNG streams change or its
results shift in the last digits, so none compares against stored output.
Byte-identical outputs across repetitions of one seed are checked by
``run.py`` on top of these.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

EXPERIMENTS = ["disagreement", "average_difference", "tail", "base_tail",
               "decoupling", "path_law"]

# Flip pair kernel_pair(beta=0.25, epsilon=0.1) of chain_perturb.sharpness.
FLIP_PAIR = {"P": {"states": [0, 1], "rows": [[0.75, 0.25], [0.25, 0.75]]},
             "P_eps": {"states": [0, 1], "rows": [[0.85, 0.15], [0.35, 0.65]]}}

GP_TOLERANCE = 1e-8       # absolute, on epsilon and alpha against the reference
# Rows whose expectation on the flip pair is their bound itself, so a correct
# program fails their 3 se test for about 1 seed in 740 each.
AT_BOUND_ROWS = ("disagreement", "decoupling")
AT_BOUND_MAX_SE = 5.0     # beyond this, an at-bound row's excess is not a tail event


class CheckFailed(Exception):
    """The outputs of a run are wrong."""


@dataclass(frozen=True)
class Sizes:
    full: dict
    quick: dict


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


# -- verify_flip -----------------------------------------------------------------

VERIFY_SIZES = Sizes(full={"n": 400, "replicates": 2500}, quick={"n": 40, "replicates": 100})


def verify_inputs(in_dir, seed, quick):
    size = VERIFY_SIZES.quick if quick else VERIFY_SIZES.full
    _write_json(os.path.join(in_dir, "pair.json"), FLIP_PAIR)
    _write_json(os.path.join(in_dir, "config.json"), {
        "pair": "pair.json", "n": size["n"], "replicates": size["replicates"], "seed": seed,
        "x0": 0, "x0_eps": 0, "f": [0, 1], "lambda": 1.0,
        "stopping": {"kind": "hitting", "targets": [1]},
        "experiments": EXPERIMENTS,
    })
    return ["verify", "--config", os.path.join(in_dir, "config.json")]


def verify_check(out_dir, in_dir, seed, quick):
    size = VERIFY_SIZES.quick if quick else VERIFY_SIZES.full
    rows = _read_csv(os.path.join(out_dir, "verify.csv"))
    if [r["name"] for r in rows] != EXPERIMENTS:
        raise CheckFailed(f"verify.csv rows {[r['name'] for r in rows]}, expected {EXPERIMENTS}")
    for r in rows:
        if int(r["replicates"]) != size["replicates"]:
            raise CheckFailed(f"{r['name']}: {r['replicates']} replicates used")
    excess = {}
    for r in rows:
        if r["satisfied"] != "true":
            est, bound, se = float(r["estimate"]), float(r["bound"]), float(r["std_error"])
            excess[r["name"]] = (est - bound) / se if se > 0 else math.inf
    if not excess:
        return
    detail = ", ".join(f"{name} {z:.2f} se above its bound" for name, z in excess.items())
    if all(name in AT_BOUND_ROWS and z <= AT_BOUND_MAX_SE for name, z in excess.items()):
        raise CheckFailed(f"at-bound tail: {detail}; only rows whose expectation is their bound "
                          f"failed, by less than {AT_BOUND_MAX_SE:g} se, as a correct program "
                          f"does for about 1 seed in 370")
    raise CheckFailed(f"unsatisfied: {detail}")


# -- simulate_wide ---------------------------------------------------------------

SIMULATE_SIZES = Sizes(full={"states": 200, "n": 2000, "replicates": 500},
                       quick={"states": 12, "n": 50, "replicates": 40})


def simulate_inputs(in_dir, seed, quick):
    """Dense random pair: Dirichlet(1) rows, ``P_eps = 0.95 P + 0.05 Q``."""
    size = SIMULATE_SIZES.quick if quick else SIMULATE_SIZES.full
    S = size["states"]
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(S), size=S)
    P_eps = 0.95 * P + 0.05 * rng.dirichlet(np.ones(S), size=S)
    states = list(range(S))
    _write_json(os.path.join(in_dir, "pair.json"), {
        "P": {"states": states, "rows": P.tolist()},
        "P_eps": {"states": states, "rows": P_eps.tolist()},
    })
    return ["simulate", "--pair", os.path.join(in_dir, "pair.json"), "--n", str(size["n"]),
            "--replicates", str(size["replicates"]), "--seed", str(seed)]


def avg_disagreement_bound(P_eps, P, n, p0=0.0):
    """The dominating chain's expected occupation, from constants computed here."""
    eps = 0.5 * np.abs(P_eps - P).sum(axis=1).max()
    cross = max(0.5 * np.abs(row - P).sum(axis=1).max() for row in P_eps)
    s = (1.0 - cross) + eps
    ratio = eps / s
    return ratio + (1.0 - (1.0 - s) ** n) / (n * s) * (p0 - ratio)


def simulate_check(out_dir, in_dir, seed, quick):
    size = SIMULATE_SIZES.quick if quick else SIMULATE_SIZES.full
    rows = _read_csv(os.path.join(out_dir, "summary.csv"))
    if [int(r["seed"]) for r in rows] != list(range(size["replicates"])):
        raise CheckFailed(f"summary.csv has {len(rows)} rows, expected {size['replicates']}")
    frac = np.array([float(r["disagreement_fraction"]) for r in rows])
    with open(os.path.join(in_dir, "pair.json")) as fh:
        doc = json.load(fh)
    bound = avg_disagreement_bound(np.array(doc["P_eps"]["rows"]), np.array(doc["P"]["rows"]),
                                   size["n"])
    se = frac.std(ddof=1) / math.sqrt(frac.size)
    if frac.mean() > bound + 3.0 * se:
        raise CheckFailed(f"mean disagreement {frac.mean()} above bound {bound} + 3 se {se}")


# -- gp_sweep_full and gp_sweep_desk -------------------------------------------

GP_FULL_SIZES = Sizes(full={"replicates": 4}, quick={"n": 60, "m": 4, "replicates": 2})
GP_DESK_SIZES = Sizes(full={"replicates": 100}, quick={"replicates": 3})


def gp_full_inputs(in_dir, seed, quick):
    size = GP_FULL_SIZES.quick if quick else GP_FULL_SIZES.full
    args = ["gp-sweep", "--full-scale", "--seed", str(seed)]
    for key in ("n", "m", "replicates"):
        if key in size:
            args += [f"--{key}", str(size[key])]
    return args


def gp_desk_inputs(in_dir, seed, quick):
    size = GP_DESK_SIZES.quick if quick else GP_DESK_SIZES.full
    return ["gp-sweep", "--replicates", str(size["replicates"]), "--seed", str(seed)]


def _softmax(ll, axis):
    w = np.exp(ll - ll.max(axis=axis, keepdims=True))
    return w / w.sum(axis=axis, keepdims=True)


def _gibbs_rows(ll):
    """Rows [.., i1, j1, j2] = s[j1, j2] r[i1, j2] of the two-block Gibbs kernel."""
    r = _softmax(ll, axis=-1)
    s = _softmax(ll, axis=-2)
    return s[..., None, :, :] * r[..., :, None, :]


def gp_spectra(cfg):
    """Eigenpairs of each length-scale atom's Gram matrix, largest first; data-free."""
    points = np.asarray(cfg["points"])
    spectra = []
    for x1 in cfg["grid_x1"]:
        vals, vecs = np.linalg.eigh(np.exp(-x1 * np.subtract.outer(points, points) ** 2))
        order = np.argsort(-vals, kind="stable")
        spectra.append((vals[order], vecs[:, order]))
    return spectra


def gp_reference(cfg, spectra, z, qmax):
    """(epsilon, alpha) for ranks 1..qmax, from the ``gp_spectra`` of every length-scale atom.

    The exact table uses the whole spectrum, the rank-q table its top q
    eigenpairs, which is the truncation the program defines.
    """
    x2 = np.asarray(cfg["grid_x2"])
    a, b, n = cfg["prior_a"], cfg["prior_b"], len(cfg["points"])
    m = x2.size
    ll_exact = np.empty((m, m))
    ll_rank = np.empty((qmax, m, m))
    for i1, (vals, vecs) in enumerate(spectra):
        coef_sq = (vecs.T @ z) ** 2
        scaled = np.outer(x2, vals)
        ll_exact[i1] = (-0.5 * np.log1p(scaled).sum(axis=1)
                        - 0.5 * (a + n) * np.log(b + (coef_sq / (1.0 + scaled)).sum(axis=1)))
        lv, cq = np.clip(vals[:qmax], 0.0, None), coef_sq[:qmax]
        shrink = np.cumsum(lv * cq / (1.0 / x2[:, None] + lv), axis=1)   # (m, qmax)
        logdet = np.cumsum(np.log1p(x2[:, None] * lv), axis=1)
        ll_rank[:, i1, :] = (-0.5 * logdet - 0.5 * (a + n) * np.log(b + z @ z - shrink)).T
    exact = _gibbs_rows(ll_exact).reshape(m, -1)
    rank = _gibbs_rows(ll_rank).reshape(qmax, m, -1)
    eps = 0.5 * np.abs(rank - exact[None]).sum(axis=2).max(axis=1)
    cross = 0.5 * np.abs(rank[:, :, None, :] - exact[None, None]).sum(axis=3).max(axis=(1, 2))
    return eps, 1.0 - cross


def gp_check(out_dir, in_dir, seed, quick):
    """Adaptive stop reached in every replicate; every row within GP_TOLERANCE of the reference."""
    from chain_perturb.gp_mcmc import GPConfig, generate_data

    with open(os.path.join(out_dir, "config.json")) as fh:
        cfg = json.load(fh)
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    by_rep = {}
    for r in rows:
        by_rep.setdefault(int(r["replicate"]), []).append(r)
    if sorted(by_rep) != list(range(cfg["replicates"])):
        raise CheckFailed(f"sweep.csv replicates {sorted(by_rep)}")
    config = GPConfig(n=cfg["n"], m=cfg["m"], seed=cfg["seed"])
    spectra = gp_spectra(cfg)
    for rep, reps in sorted(by_rep.items()):
        qs = [int(r["q"]) for r in reps]
        eps = np.array([float(r["epsilon"]) for r in reps])
        alpha = np.array([float(r["alpha"]) for r in reps])
        ratio = np.array([float(r["ratio"]) for r in reps])
        if qs != list(range(1, len(qs) + 1)):
            raise CheckFailed(f"replicate {rep}: ranks {qs} not 1..{len(qs)}")
        if eps[-1] >= cfg["eps_threshold"] or (eps[:-1] < cfg["eps_threshold"]).any():
            raise CheckFailed(f"replicate {rep}: adaptive stop not at the first epsilon below "
                              f"{cfg['eps_threshold']}")
        expect = np.where(eps == 0.0, 0.0, eps / np.where(eps == 0.0, 1.0, alpha + eps))
        if not np.allclose(ratio, expect, rtol=1e-12, atol=0.0):
            raise CheckFailed(f"replicate {rep}: ratio is not epsilon / (alpha + epsilon)")
        ref_eps, ref_alpha = gp_reference(cfg, spectra, generate_data(config, rep), len(qs))
        worst = max(np.abs(eps - ref_eps).max(), np.abs(alpha - ref_alpha).max())
        if not worst <= GP_TOLERANCE:
            raise CheckFailed(f"replicate {rep}: rows differ from the reference by {worst:.3g}")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object   # (in_dir, seed, quick) -> CLI arguments after --out-dir
    check: object    # (out_dir, in_dir, seed, quick) -> None, raises CheckFailed


WORKLOADS = {w.name: w for w in (
    Workload("verify_flip", verify_inputs, verify_check),
    Workload("simulate_wide", simulate_inputs, simulate_check),
    Workload("gp_sweep_full", gp_full_inputs, gp_check),
    Workload("gp_sweep_desk", gp_desk_inputs, gp_check),
)}
