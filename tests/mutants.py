"""Mutation catalogue: one-line faults that the tests must catch without the goldens.

Each entry of ``MUTANTS`` is ``(file, old text, new text, why it is wrong)``;
the old text occurs exactly once in its file, which a tooling test checks.
Run by hand from anywhere (pytest does not collect this file):

    python3 tests/mutants.py

For each entry the script copies the tree (``src/``, ``tests/``,
``perfbench/``, ``README.md`` and ``pyproject.toml``; tooling tests read the
README and the benchmark's tracer) into a temporary directory, replaces the
old text by the new one, and runs the Tier-1 tests there with
``tests/test_golden.py`` left out, stopping at the first failure.  A golden
cannot tell a defect from an intended change, so a mutant counts as killed
only by a test that states a meaning.  It prints ``killed`` or ``survived``
per entry and exits 1 if any entry survived.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")

MUTANTS = [
    ("src/chain_perturb/montecarlo.py",
     "fv[batch.x[:, :config.n]].mean(axis=1)) >= thr",
     "fv[batch.x[:, :config.n]].mean(axis=1)) >= 2 * thr",
     "base_tail holds each deviation against twice the threshold its bound is paired with"),
    ("src/chain_perturb/montecarlo.py",
     "mu_f = float(invariant_measure(config.p).weights @ fv)",
     "mu_f = float(invariant_measure(config.p_eps).weights @ fv)",
     "base_tail centres the base chain's average at the mean under P_eps, not under P"),
    ("src/chain_perturb/montecarlo.py",
     "diff = fv[batch.x[:, :n]].mean(axis=1) - fv[batch.x_eps[:, :n]].mean(axis=1)",
     "diff = fv[batch.x[:, 1:]].mean(axis=1) - fv[batch.x_eps[:, 1:]].mean(axis=1)",
     "average_difference averages steps 1..n instead of 0..n-1"),
    ("src/chain_perturb/bounds.py",
     "(16.0 * e * e + 16.0 / (n * n))",
     "(4.0 * e * e + 16.0 / (n * n))",
     "the perturbation-route second moment loses three quarters of its e^2 term"),
    ("src/chain_perturb/montecarlo.py",
     '"tail": ("coupled_concentration", _tail),',
     '"tail": ("base_concentration", _tail),',
     "tail is held against the single-chain Azuma tail instead of its own row"),
]


def run(file, old, new, where):
    """True if the Tier-1 tests, goldens left out, fail on the tree at ``where`` mutated."""
    path = where / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times: {old!r}")
    path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_golden.py"],
            cwd=where, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text)
    return proc.returncode != 0


def main():
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        where = pathlib.Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, where / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(src, where / name)
        for file, old, new, why in MUTANTS:
            started = time.perf_counter()
            killed = run(file, old, new, where)
            survived += not killed
            print(f"{'killed' if killed else 'survived':8s} {time.perf_counter() - started:5.1f} s"
                  f"  {file}: {why}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
