"""Golden outputs: fixed CLI runs whose output files and stdout are stored byte for byte.

Each case is one ``chain-perturb`` command line over the inputs in
``inputs/``.  Its golden set, ``<case>/``, holds every file the run writes
except ``manifest.json`` (it records a duration), plus ``stdout.txt``.
``tests/test_golden.py`` reruns every case and compares bytes, so any change
to a stored output must rewrite it here and say why in CHANGES.md.

One file is compared with a tolerance: the last digits of ``gp-sweep``'s
``sweep.csv`` depend on the LAPACK ``eigh`` in use, so the ``gp_sweep`` case
requires the same ``(replicate, q)`` rows with values within 1e-12; its
``config.json`` and stdout are compared byte for byte.  The data come from
the floored spectral factor of the latent covariance, whose kept modes and
signs do not depend on the BLAS thread count.

The ``trajectory`` case runs ``tie_pair.json``, whose rows 0 and 2 are built
from the uniforms of seed 2, trajectory 0 (slot 0 of block 0, whose triple
of step k starts at double ``3 * 64 * k``): its first two draws land exactly
on a CDF entry (entry 1 of row 0, then entry 0 of row 2), so the run pins
the half-open inverse CDF (a uniform equal to an entry selects past it).

Every CSV ends its lines with a bare line feed.  The ``simulate_pair3``,
``simulate_pair12`` and ``trajectory`` sets were rewritten once, when
``simulate`` stopped writing through ``csv.writer``: each new file is its
old bytes with every CR LF line ending made LF.  The six Monte Carlo sets
(``verify_*``, ``simulate_*`` and ``trajectory``) were recorded again when
the RNG blocks became 64 step-major slots, and the ``gp_sweep`` set when the
latent field came to be drawn from the spectral factor in place of a Cholesky
factor.

Rewrite the set with::

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import shutil
import sys
import tempfile

from chain_perturb.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"

_BOUNDS = ["bounds", "--alpha", "0.4", "--epsilon", "0.1", "--a", "0.5", "--n", "100",
           "--p0", "0.5", "--fstar", "0.5", "--lambda", "2", "--etau", "30"]

# case name -> (command line after --out-dir, with inputs named relative to inputs/)
CASES = {
    "constants": ["constants", "--pair", "flip_pair.json"],
    "bounds_text": _BOUNDS,
    "bounds_csv": _BOUNDS + ["--format", "csv"],
    "sharpness": ["sharpness", "--beta", "0.25", "--eps", "0.1", "--gamma", "0.9",
                  "--nmax", "50"],
    "verify_flip": ["verify", "--config", "verify_flip.json"],
    # 1100 trajectories fill 17 blocks of 64 RNG slots and part of an 18th
    "simulate_pair3": ["simulate", "--pair", "pair3.json", "--n", "40",
                       "--replicates", "1100", "--seed", "3", "--x0", "0", "--x0-eps", "2"],
    "simulate_pair12": ["simulate", "--pair", "pair12.json", "--n", "40",
                        "--replicates", "1100", "--seed", "4", "--x0", "1", "--x0-eps", "5"],
    # unequal law starts: the initial pair is drawn from the split of the two
    # laws, leftover parts included; at S = 12 off-diagonal pairs are
    # untabulated, and 1100 trajectories end inside an RNG block
    "verify_pair12": ["verify", "--config", "verify_pair12.json"],
    # one equal law start (a fully shared split) and a deterministic rule
    "verify_pair12_equal": ["verify", "--config", "verify_pair12_equal.json"],
    # 1200 steps cross 18 64-step chunks of uniforms, and the run is 1 trajectory of a 64-slot block
    "trajectory": ["simulate", "--pair", "tie_pair.json", "--n", "1200", "--seed", "2"],
    # desk scale (n=100, m=5)
    "gp_sweep": ["gp-sweep", "--replicates", "20"],
}

_INPUT_FLAGS = {"--pair", "--config"}


def argv(case):
    """The case's command line, its input files made absolute."""
    args = list(CASES[case])
    for i, arg in enumerate(args[:-1]):
        if arg in _INPUT_FLAGS:
            args[i + 1] = str(INPUTS / args[i + 1])
    return args


def run(case, out_dir):
    """Run ``case`` into ``out_dir``; return its exit code and ``{file name: bytes}``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--out-dir", str(out_dir)] + argv(case))
    files = {name: (pathlib.Path(out_dir) / name).read_bytes()
             for name in sorted(os.listdir(out_dir)) if name != "manifest.json"}
    files["stdout.txt"] = stdout.getvalue().encode()
    return code, files


def record(work_dir):
    for case in CASES:
        code, files = run(case, pathlib.Path(work_dir) / case)
        if code != 0:
            raise SystemExit(f"{case} exited {code}")
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for name, data in files.items():
            (target / name).write_bytes(data)
        print(f"{case}: {', '.join(files)}", file=sys.stderr)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
