"""Command-line front end.

Subcommands: ``constants``, ``bounds``, ``simulate``, ``verify``,
``sharpness``, ``gp-sweep``.  Every run writes a ``manifest.json`` beside its
outputs.  Exit codes: 0 all checks satisfied, 1 a verification failed, 2
usage or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import BoundParams, evaluate_report_table
from .coupling import iter_coupled_batches
from .errors import NumericalFailureError
from .kernels import (
    _json_object,
    cross_doeblin_constant,
    doeblin_constant,
    kernel_from_json,
    local_epsilon,
)
from .montecarlo import ExperimentConfig, StoppingRule, run_experiments
from .sharpness import TIGHTNESS_TOL, tightness_table
from .gp_mcmc import GPConfig, config_snapshot, figure_sweep

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# gp-sweep defaults (n, m, replicates): desk scale, and with --full-scale
_GP_SIZES = {False: (100, 5, 20), True: (1000, 10, 100)}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chain-perturb",
        description="Coupling-based closeness certificates for finite Markov chains",
    )
    parser.add_argument("--out-dir", default="./out", help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="closeness constants a, alpha, epsilon of a kernel pair")
    p.add_argument("--pair", required=True, help="JSON file with fields 'P' and 'P_eps'")

    p = sub.add_parser("bounds", help="evaluate every closed-form bound at given parameters")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--fstar", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--etau", type=float, default=None,
                   help="expected stopping time, enables the decoupling/path-law rows")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("simulate", help="simulate coupled trajectories of a kernel pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--x0-eps", type=int, default=0)

    p = sub.add_parser("verify", help="run empirical checks from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("sharpness", help="certify the averaged-TV equality family")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("gp-sweep", help="closeness constants of the GP Gibbs pair vs truncation rank")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--eps-threshold", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-scale", action="store_true")
    return parser


def _read_json(path):
    """The document in the JSON file ``path``; an error in the text names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path}: {exc}") from None


def _load_pair(source, base=""):
    """Kernel pair ``(P_eps, P)`` from a parsed document, or from the JSON file it names."""
    if isinstance(source, (str, os.PathLike)):
        source = _read_json(os.path.join(base, source))
    _json_object(source, "pair", ("P", "P_eps"))
    return kernel_from_json(source["P_eps"]), kernel_from_json(source["P"])


def _write_csv(out_dir, name, header, lines):
    """Write ``header`` and the already formatted ``lines`` to ``name``; return the text."""
    text = "\n".join([header, *lines]) + "\n"
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)
    return text


def _write_manifest(out_dir, command, snapshot, seed, outputs, started):
    for name in outputs:
        if not os.path.exists(os.path.join(out_dir, name)):
            raise NumericalFailureError(f"declared output {name} missing")
    manifest = {
        "subcommand": command,
        "config": snapshot,
        "seed": seed,
        "version": __version__,
        "duration_s": time.perf_counter() - started,
        "outputs": list(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def _cmd_constants(args, out_dir):
    p_eps, p = _load_pair(args.pair)
    a = doeblin_constant(p)
    alpha = cross_doeblin_constant(p_eps, p)
    eps = local_epsilon(p_eps, p)
    sys.stdout.write(_write_csv(out_dir, "constants.csv", "a,alpha,epsilon",
                                [f"{_fmt(a)},{_fmt(alpha)},{_fmt(eps)}"]))
    return EXIT_OK, ["constants.csv"], None


def _cmd_bounds(args, out_dir):
    params = BoundParams(
        epsilon=args.epsilon, n=args.n, alpha=args.alpha, a=args.a,
        p0=args.p0, f_star=args.fstar,
    )
    reports = evaluate_report_table(params, lam=args.lam, expected_tau=args.etau)
    header = ["name", "value", "raw", "capped", "regime_ok"]
    rows = [
        [r.name,
         "" if r.value is None else _fmt(r.value),
         "" if r.raw is None else _fmt(r.raw),
         str(r.capped).lower(),
         str(r.regime_ok).lower()]
        for r in reports
    ]
    csv_text = _write_csv(out_dir, "bounds.csv", ",".join(header), [",".join(row) for row in rows])
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
        for line in [header] + rows:
            sys.stdout.write("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() + "\n")
    return EXIT_OK, ["bounds.csv"], None


def _cmd_simulate(args, out_dir):
    """Stream the coupled batches into ``trajectory.csv`` (one replicate) or ``summary.csv``."""
    p_eps, p = _load_pair(args.pair)
    n, single = args.n, args.replicates == 1
    batches = iter_coupled_batches(p_eps, p, args.x0_eps, args.x0, n, args.replicates, args.seed)
    batch = next(batches)  # the first batch runs every input check before a file is opened
    name = "trajectory.csv" if single else "summary.csv"
    disagreements = 0
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write("step,x,x_eps,z,y\n" if single
                 else "seed,n,disagreement_fraction,first_decoupling_step\n")
        while batch is not None:
            z = batch.z[:, :n]
            disagreements += int(np.count_nonzero(z))
            if single:
                fh.writelines(f"{k},{x},{xe},{zk},{yk}\n" for k, x, xe, zk, yk in zip(
                    range(n + 1), batch.x[0].tolist(), batch.x_eps[0].tolist(),
                    batch.z[0].tolist(), batch.y[0].tolist()))
            else:
                fracs = z.mean(axis=1).tolist()
                firsts = np.where(batch.z.any(axis=1), batch.z.argmax(axis=1), -1).tolist()
                fh.writelines(f"{batch.first_index + i},{n},{_fmt(frac)},{first}\n"
                              for i, (frac, first) in enumerate(zip(fracs, firsts)))
            del batch, z  # one batch alive while the next is drawn
            batch = next(batches, None)
    sys.stdout.write(
        f"simulated {args.replicates} trajectories of length {n + 1}; "
        f"mean disagreement fraction {_fmt(disagreements / (args.replicates * n))}\n"
    )
    return EXIT_OK, [name], args.seed


# Each verify config key and the ExperimentConfig field or run_experiments parameter it
# sets ("pair" names the pair document that sets p_eps and p).  An absent key takes its
# setting's default; "seed" defaults to 0 and "experiments" to ["disagreement"].
_CONFIG_FIELDS = {"pair": ("p_eps", "p"), "n": "n", "replicates": "replicates",
                  "seed": "master_seed", "x0_eps": "x0_eps", "x0": "x0", "f": "f",
                  "stopping": "stopping"}
_RUN_PARAMS = {"experiments": "names", "lambda": "lam"}
_REQUIRED_KEYS = ("pair", "n", "replicates")
_STOPPING_REQUIRED, _STOPPING_OPTIONAL = ("kind",), ("time", "targets")  # StoppingRule's


def _cmd_verify(args, out_dir):
    doc = _read_json(args.config)
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    doc = {"seed": 0, "experiments": ["disagreement"],
           **_json_object(doc, "config", _REQUIRED_KEYS, [*_CONFIG_FIELDS, *_RUN_PARAMS])}
    experiments = doc["experiments"]
    if not isinstance(experiments, list) or not all(isinstance(e, str) for e in experiments):
        raise ValueError(f"experiments must be a list of names, got {experiments!r}")
    if "stopping" in doc:
        doc["stopping"] = StoppingRule(**_json_object(
            doc["stopping"], "stopping", _STOPPING_REQUIRED, _STOPPING_OPTIONAL))
    pair = _load_pair(doc.pop("pair"), os.path.dirname(os.path.abspath(args.config)))
    config = ExperimentConfig(*pair, **{_CONFIG_FIELDS[key]: value for key, value in doc.items()
                                        if key in _CONFIG_FIELDS})
    results = run_experiments(config=config, **{_RUN_PARAMS[key]: value
                                                for key, value in doc.items() if key in _RUN_PARAMS})
    for r in results:
        sys.stdout.write(f"{r.name}: estimate={_fmt(r.estimate)} bound={_fmt(r.bound)} "
                         f"satisfied={str(r.satisfied).lower()}\n")
    _write_csv(out_dir, "verify.csv", "name,estimate,std_error,bound,satisfied,replicates",
               [f"{r.name},{_fmt(r.estimate)},{_fmt(r.std_error)},{_fmt(r.bound)},"
                f"{str(r.satisfied).lower()},{r.replicates_used}" for r in results])
    code = EXIT_OK if all(r.satisfied for r in results) else EXIT_UNSATISFIED
    return code, ["verify.csv"], config.master_seed


def _cmd_sharpness(args, out_dir):
    rows = tightness_table(args.beta, args.eps, args.gamma, args.nmax)
    sys.stdout.write(_write_csv(out_dir, "sharpness.csv", "n,exact_tv,bound,gap",
                                [f"{n},{_fmt(e)},{_fmt(b)},{_fmt(g)}" for n, e, b, g in rows]))
    worst = max(g for *_, g in rows)
    code = EXIT_OK if worst <= TIGHTNESS_TOL else EXIT_UNSATISFIED
    return code, ["sharpness.csv"], None


def _cmd_gp_sweep(args, out_dir):
    given = (args.n, args.m, args.replicates)
    n, m, replicates = (d if g is None else g for g, d in zip(given, _GP_SIZES[args.full_scale]))
    config = GPConfig(n=n, m=m, seed=args.seed)
    rows = figure_sweep(config, replicates, eps_threshold=args.eps_threshold, qmax=args.qmax)
    _write_csv(out_dir, "sweep.csv", "replicate,q,epsilon,alpha,ratio",
               [f"{r.replicate},{r.q},{_fmt(r.epsilon)},{_fmt(r.alpha)},{_fmt(r.ratio)}"
                for r in rows])
    snap = config_snapshot(config)
    snap["replicates"] = int(replicates)
    snap["eps_threshold"] = float(args.eps_threshold)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(snap, fh, indent=2)
    sys.stdout.write(f"wrote {len(rows)} sweep rows for {replicates} replicates\n")
    return EXIT_OK, ["sweep.csv", "config.json"], args.seed


_HANDLERS = {
    "constants": _cmd_constants,
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sharpness": _cmd_sharpness,
    "gp-sweep": _cmd_gp_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    out_dir = os.path.abspath(args.out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        code, outputs, seed = _HANDLERS[args.command](args, out_dir)
        snapshot = {k: v for k, v in vars(args).items() if k != "command"}
        _write_manifest(out_dir, args.command, snapshot, seed, outputs, started)
        return code
    except NumericalFailureError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # InvalidRegimeError included
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
