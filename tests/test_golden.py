"""Every golden case reproduces its stored outputs byte for byte (see tests/golden/record.py)."""

import json

import numpy as np
import pytest

from golden.record import CASES, GOLDEN, INPUTS, run
from chain_perturb import kernel_from_json


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    code, files = run(case, tmp_path)
    assert code == 0
    stored = {path.name: path.read_bytes() for path in sorted((GOLDEN / case).iterdir())}
    assert sorted(files) == sorted(stored)
    for name, data in files.items():
        assert data == stored[name], f"{case}/{name} differs from its golden bytes"


def test_tie_pair_draws_on_cdf_entries():
    # the trajectory case pins the half-open inverse CDF only while its first
    # two draws (seed 2, trajectory 0, second uniform of each triple) land on
    # an entry: entry 1 of row 0's CDF, then entry 0 of row 2's
    doc = json.loads((INPUTS / "tie_pair.json").read_text())
    P, P_eps = kernel_from_json(doc["P"]), kernel_from_json(doc["P_eps"])
    np.testing.assert_array_equal(P.rows[[0, 2]], P_eps.rows[[0, 2]])
    u = np.random.default_rng(np.random.SeedSequence(entropy=2, spawn_key=(0,))).random(6)
    assert np.cumsum(P.rows[0])[1] == u[1]
    assert np.cumsum(P.rows[2])[0] == u[4]
    assert np.cumsum(P.rows[0])[-1] == np.cumsum(P.rows[2])[-1] == 1.0
