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
    ("src/chain_perturb/coupling.py",
     "lo = start - first * _BLOCK",
     "lo = start - first * count",
     "a batch's first slot is computed with the batch's size in place of the block width"),
    ("src/chain_perturb/coupling.py",
     "for block, rng in enumerate(rngs):",
     "for block, rng in enumerate(rngs[::-1]):",
     "a batch that spans several blocks lays their slots out in reverse block order"),
    ("src/chain_perturb/coupling.py",
     "                                 next(uniforms))",
     "                                 next(iter(_uniform_chunks(seed, start, count, steps)))[0])",
     "a law start reads the front row but does not consume it, so step 0 reads it again"),
    ("src/chain_perturb/coupling.py",
     "            rng.random(out=rows[:width])",
     "            rng.random(out=rows[:width]) if not k0 else (rng.random(3 * _BLOCK), "
     "rng.random(out=rows[:width]))",
     "every chunk after the first starts one row late in its block's stream"),
    ("src/chain_perturb/gp_mcmc.py",
     "np.multiply(modes[k - 1::-1], np.where(is_even, 1.0, -1.0), out=modes[n - k:])",
     "np.multiply(modes[k - 1::-1], np.where(is_even, -1.0, 1.0), out=modes[n - k:])",
     "the GP modes mirror the symmetric block's vectors as odd and the antisymmetric one's as even"),
    ("src/chain_perturb/gp_mcmc.py",
     "modes[:k] /= math.sqrt(2.0)",
     "modes[:k] /= 1.0",
     "the GP modes' halves are not scaled by 1/sqrt(2), so U is not orthonormal"),
    ("src/chain_perturb/gp_mcmc.py",
     "modes[:n - k, is_even] = even[:, order[is_even]]",
     "modes[:k, is_even] = even[:k, order[is_even]]",
     "the GP even modes drop their middle entry v_k when n is odd"),
    ("src/chain_perturb/gp_mcmc.py",
     "yield vals[order], modes",
     "yield vals[order], modes[:, np.argsort(order)]",
     "the GP modes stay in half-block order while their eigenvalues are sorted"),
    ("src/chain_perturb/gp_mcmc.py",
     "np.finfo(float).eps * rest.max()",
     "np.finfo(float).eps * rest[0]",
     "the pivoted Cholesky cut is measured against the first diagonal entry, not the largest"),
    ("src/chain_perturb/gp_mcmc.py",
     "rest[p], r = 0.0, r + 1",
     "r = r + 1",
     "the pivot's remaining diagonal is left at its rounding residue, so it can be taken again"),
    ("src/chain_perturb/gp_mcmc.py",
     "vals, vecs = _spectrum(tri @ tri.T)",
     "vals, vecs = (factor[:r] ** 2).sum(axis=1), np.eye(r)",
     "the GP modes are the pivoted Cholesky columns' span and norms, with no Rayleigh-Ritz step"),
    ("src/chain_perturb/gp_mcmc.py",
     "vals, vecs = _spectrum(tri @ tri.T)",
     "vals, vecs = _spectrum(tri.T @ tri)",
     "the GP Ritz pairs come from R'R: the right eigenvalues, but vectors not in the basis Q"),
    ("src/chain_perturb/gp_mcmc.py",
     "        return near - far",
     "        return near + far",
     "a row of the GP antisymmetric block A - CJ is read from A + CJ"),
    ("src/chain_perturb/gp_mcmc.py",
     "return np.concatenate([near + far, root2 * middle])",
     "return np.concatenate([near + far, 0.0 * middle])",
     "the rows of the GP symmetric block drop the odd-n border, while its middle row keeps it"),
    ("src/chain_perturb/gp_mcmc.py",
     "logdet = np.cumsum(np.log1p(lv * x2), axis=0)",
     "logdet = np.cumsum(np.log(lv * x2), axis=0)",
     "the GP log-determinant sums log(x2 l_i) in place of log(1 + x2 l_i)"),
    ("src/chain_perturb/gp_mcmc.py",
     "z[:] = x3 * (factor @ draw[0, :factor.shape[1]]) + x3 * draw[1]",
     "z[:] = x3 * (factor @ draw[0, :factor.shape[1]]) + x3 * draw[0]",
     "the GP noise term reuses the latent field's normals, so noise and field are correlated"),
    ("src/chain_perturb/gp_mcmc.py",
     "np.multiply(modes[k - 1::-1], np.where(is_even, 1.0, -1.0), out=modes[n - k:])",
     "np.multiply(modes[k - 1::-1], 1.0, out=modes[n - k:])",
     "the GP modes unfold an antisymmetric mode as if it were symmetric"),
    ("src/chain_perturb/gp_mcmc.py",
     "q = np.count_nonzero(vals > _LATENT_FLOOR * vals.max())",
     "q = np.count_nonzero(vals > 0.0)",
     "the latent factor keeps the modes below its floor, whose vectors rounding decides"),
    ("src/chain_perturb/kernels.py",
     "return np.minimum(0.5 * np.abs(p - q).sum(axis=-1), 1.0)",
     "return 0.5 * np.abs(p - q).sum(axis=-1)",
     "a TV distance of disjoint rows can round above 1, and constants leave [0, 1]"),
    ("src/chain_perturb/gp_mcmc.py",
     "return ll[np.minimum(ranks, len(ll)) - 1]",
     "return ll[np.minimum(ranks, len(ll) - 1) - 1]",
     "the GP likelihood table is cut one column short, so rank r reads rank r-1's row"),
    ("src/chain_perturb/gp_mcmc.py",
     "T = _rows_by_x1(ll[np.minimum(ks, len(ll) - 1)])",
     "T = _rows_by_x1(ll[np.minimum(ks, len(ll) - 2)])",
     "the GP sweep clips its ranks one short, so rank r and above read rank r-1's rows"),
    ("src/chain_perturb/gp_mcmc.py",
     "r = np.exp(ll - logsumexp(ll, axis=-1))",
     "r = np.exp(ll - logsumexp(ll, axis=-2))",
     "the amplitude resample is normalised over the length-scale atoms"),
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
