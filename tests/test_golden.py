"""Every golden case reproduces its stored outputs (see tests/golden/record.py).

Byte for byte, except ``sweep.csv``: the same rows, with values within 1e-12.
"""

import io
import json

import numpy as np
import pytest

from golden.record import CASES, GOLDEN, INPUTS, run
from chain_perturb import iter_coupled_batches, kernel_from_json


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    code, files = run(case, tmp_path)
    assert code == 0
    stored = {path.name: path.read_bytes() for path in sorted((GOLDEN / case).iterdir())}
    assert sorted(files) == sorted(stored)
    for name, data in files.items():
        if name == "sweep.csv":
            assert_sweep_close(data, stored[name])
        else:
            assert data == stored[name], f"{case}/{name} differs from its golden bytes"


def assert_sweep_close(data, stored):
    """Same header and ``(replicate, q)`` rows; values within 1e-12 (LAPACK ``eigh`` digits)."""
    got, want = (np.genfromtxt(io.BytesIO(b), delimiter=",", names=True) for b in (data, stored))
    assert got.dtype.names == want.dtype.names
    np.testing.assert_array_equal(got[["replicate", "q"]], want[["replicate", "q"]])
    for col in want.dtype.names[2:]:
        np.testing.assert_allclose(got[col], want[col], rtol=0.0, atol=1e-12, err_msg=col)


def test_tie_pair_draws_on_cdf_entries():
    # the trajectory case pins the half-open inverse CDF only while its first
    # two draws (seed 2, trajectory 0, second uniform of each triple) land on
    # an entry: entry 1 of row 0's CDF, then entry 0 of row 2's.  Trajectory
    # 0 is slot 0 of block 0, so its triple of step k starts at double 3 B k
    # of the block's substream, B = 64 slots per block
    doc = json.loads((INPUTS / "tie_pair.json").read_text())
    P, P_eps = kernel_from_json(doc["P"]), kernel_from_json(doc["P_eps"])
    np.testing.assert_array_equal(P.rows[[0, 2]], P_eps.rows[[0, 2]])
    u = np.random.default_rng(np.random.SeedSequence(entropy=2, spawn_key=(0,))).random(3 * 64 + 3)
    assert np.cumsum(P.rows[0])[1] == u[1]
    assert np.cumsum(P.rows[2])[0] == u[3 * 64 + 1]
    # so the stepper, which selects past an entry equal to its uniform, goes 0 -> 2 -> 1
    (batch,) = iter_coupled_batches(P_eps, P, 0, 0, 2, 1, seed=2)
    np.testing.assert_array_equal(batch.x[0], [0, 2, 1])
    np.testing.assert_array_equal(batch.x_eps[0], [0, 2, 1])
    assert np.cumsum(P.rows[0])[-1] == np.cumsum(P.rows[2])[-1] == 1.0
