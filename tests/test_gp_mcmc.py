import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chain_perturb import (
    DimensionMismatchError,
    GPConfig,
    NumericalFailureError,
    cross_doeblin_constant,
    figure_sweep,
    generate_data,
    gram_matrix,
    local_epsilon,
    lowrank_log_table,
    squared_distances,
)
from chain_perturb import gp_mcmc
from chain_perturb.gp_mcmc import _half_blocks, _ritz_spectrum, _spectra, _spectrum, logsumexp
from helpers import dense_log_likelihood, truncated_gram
from oracles import (
    epsilon_alpha_for_gp,
    exact_log_table,
    gibbs_transition_matrix,
    marginal_log_likelihood,
)


class TestConfig:
    def test_grids_match_protocol_at_m10(self):
        cfg = GPConfig(n=50, m=10)
        d = np.array([0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25, 0.15, 0.05])
        np.testing.assert_allclose(cfg.grid_x1, -math.log(0.01) / d, rtol=1e-12)
        np.testing.assert_allclose(cfg.grid_x2, np.arange(0.5, 1.45, 0.1), atol=1e-12)

    def test_decay_placement(self):
        # the generating length-scale puts the correlation at exactly 0.01
        # at 45% of the maximal squared distance
        cfg = GPConfig(n=100, m=5)
        max_sq = squared_distances(cfg.points).max()
        assert math.exp(-cfg.true_x1 * 0.45 * max_sq) == pytest.approx(0.01, abs=1e-12)

    def test_default_truth(self):
        cfg = GPConfig()
        assert cfg.true_x2 == 0.9
        assert cfg.true_x3_sq == 0.2
        assert cfg.prior_a == 2.0 and cfg.prior_b == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GPConfig(n=1)
        with pytest.raises(ValueError):
            GPConfig(m=0)
        for bad in ({"n": 20.5}, {"m": 3.7}, {"n": True}, {"m": "5"}, {"seed": -1}):
            with pytest.raises(ValueError):
                GPConfig(**bad)

    def test_sizes_stored_as_int(self):
        cfg = GPConfig(n=np.int64(20), m=np.int32(3), seed=np.uint8(4))
        assert [type(v) for v in (cfg.n, cfg.m, cfg.seed)] == [int, int, int]

    def test_frozen(self):
        # the derived fields are computed once, so a later size change would desynchronise them
        cfg = GPConfig(n=20, m=2)
        for name, value in (("n", 30), ("m", 3), ("seed", 1), ("points", np.zeros(20))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        for name in ("points", "grid_x1", "grid_x2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg, name)[0] = 0.0
        assert cfg.n == 20 and cfg.points.size == 20
        assert generate_data(cfg, 0).shape == (20,)


class TestGramMatrix:
    def test_unit_diagonal_and_symmetry(self):
        cfg = GPConfig(n=40, m=2)
        S = gram_matrix(cfg.grid_x1[0], cfg.points)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-15)
        assert np.abs(S - S.T).max() <= 1e-14

    def test_block_between_two_point_sets_is_a_slice(self):
        # the half-size split reads single rows of Sigma this way
        cfg = GPConfig(n=41, m=2)
        full, p = gram_matrix(cfg.grid_x1[1], cfg.points), cfg.points
        np.testing.assert_array_equal(gram_matrix(cfg.grid_x1[1], p[:20], p[:20:-1]),
                                      full[:20, :20:-1])
        np.testing.assert_array_equal(gram_matrix(cfg.grid_x1[1], p[:20], p[20:21]),
                                      full[:20, 20:21])
        np.testing.assert_array_equal(gram_matrix(cfg.grid_x1[1], p[7:8], p), full[7:8])

    def test_numerically_psd(self):
        cfg = GPConfig(n=60, m=2)
        for x1 in cfg.grid_x1:
            vals = np.linalg.eigvalsh(gram_matrix(x1, cfg.points))
            assert vals.min() >= -1e-10

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            gram_matrix(0.0, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("x1", [float("nan"), float("inf"), True])
    def test_rejects_scale_that_is_not_a_finite_real(self, x1):
        # NaN gave an all-NaN matrix, inf a NaN diagonal, True the scale 1
        with pytest.raises(ValueError, match="x1 must be"):
            gram_matrix(x1, np.array([0.0, 1.0]))


class TestGenerateData:
    def test_reproducible(self):
        cfg = GPConfig(n=20, m=2, seed=3)
        np.testing.assert_array_equal(generate_data(cfg, 4), generate_data(cfg, 4))
        assert not np.array_equal(generate_data(cfg, 4), generate_data(cfg, 5))

    def test_sample_covariance_matches_model(self):
        # target: x3^2 (I + x2 Sigma), entrywise within 4 sigma
        cfg = GPConfig(n=5, m=2, seed=11)
        R = 8000
        Z = np.stack([generate_data(cfg, r) for r in range(R)])
        target = cfg.true_x3_sq * (np.eye(5) + cfg.true_x2 * gram_matrix(cfg.true_x1, cfg.points))
        sample = (Z.T @ Z) / R
        tol = 4.0 * np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / R)
        assert np.all(np.abs(sample - target) <= tol)


    @pytest.mark.parametrize("n", [10, 50, 51])
    def test_matches_per_replicate_factorization(self, n):
        # the factor spans the modes of a dense eigh of x2 Sigma above the floor
        # (all of them at n=10), scaled by their eigenvalues; the field reads the
        # first q normals and the noise the second n, bit for bit
        cfg = GPConfig(n=n, m=2, seed=6)
        vals, vecs = np.linalg.eigh(cfg.true_x2 * gram_matrix(cfg.true_x1, cfg.points))
        kept = vals > gp_mcmc._LATENT_FLOOR * vals[-1]
        factor = gp_mcmc._latent_factor(cfg)
        q = factor.shape[1]
        assert q == np.count_nonzero(kept) and (q == n) == (n == 10)
        floored = (vecs[:, kept] * vals[kept]) @ vecs[:, kept].T
        assert np.abs(factor @ factor.T - floored).max() <= 1e-13 * vals[-1]
        np.testing.assert_allclose((factor ** 2).sum(axis=0), vals[kept][::-1],
                                   rtol=1e-12, atol=1e-13 * vals[-1])
        x3 = math.sqrt(cfg.true_x3_sq)
        for rep in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=6, spawn_key=(rep,)))
            field, noise = rng.standard_normal(n)[:q], rng.standard_normal(n)
            expected = x3 * (factor @ field) + x3 * noise
            np.testing.assert_array_equal(generate_data(cfg, rep), expected)

    def test_latent_factor_signs_do_not_depend_on_the_eigensolver(self, monkeypatch):
        # each column's first entry of largest magnitude is positive, so flipping
        # the eigenvectors eigh returns leaves the factor, and the data, as they are
        cfg = GPConfig(n=31, m=2, seed=1)
        factor = gp_mcmc._latent_factor(cfg)
        top = np.abs(factor).argmax(axis=0)
        assert np.all(factor[top, np.arange(factor.shape[1])] > 0.0)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], -eigh(a)[1]))
        np.testing.assert_array_equal(gp_mcmc._latent_factor(cfg), factor)

    def test_one_latent_factor_per_config(self, monkeypatch):
        calls = []
        build = gp_mcmc._latent_factor

        def counted(config):
            calls.append(config.n)
            return build(config)

        monkeypatch.setattr(gp_mcmc, "_latent_factor", counted)
        figure_sweep(GPConfig(n=50, m=2), 5)
        assert calls == [50]

    def test_draw_holds_no_n_by_n_array(self):
        # the Gram matrix and its Cholesky factor peaked at 2.00 n^2 floats, the
        # dense half-size blocks at 1.02 n^2; the pivot rows and kept modes need 0.062 n^2
        cfg = GPConfig(n=1000)
        generate_data(GPConfig(n=10), 0)  # numpy.random is imported on first use
        tracemalloc.start()
        try:
            generate_data(cfg, range(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * cfg.n ** 2 * 8, peak / (8 * cfg.n ** 2)

    def test_sequence_rows_match_single_draws(self):
        # n=10: replicates 8..11 cross the sweep's block edge at 10
        cfg = GPConfig(n=10, m=2, seed=2)
        rows = generate_data(cfg, range(8, 12))
        assert rows.shape == (4, 10)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row, generate_data(cfg, 8 + i))
        np.testing.assert_array_equal(generate_data(cfg, [11, 8])[0], rows[3])

    def test_sweep_calls_the_traced_names(self, monkeypatch):
        # the benchmark's tracer counts these three names inside figure_sweep;
        # one draw per block of n replicates, one table per replicate
        calls = {"generate_data": 0, "lowrank_log_table": 0, "logsumexp": 0}
        for name in calls:
            def counted(*args, _fn=getattr(gp_mcmc, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(gp_mcmc, name, counted)
        figure_sweep(GPConfig(n=50, m=2), 120)
        assert calls["generate_data"] == 3 and calls["lowrank_log_table"] == 120
        assert calls["logsumexp"] >= 1


def _dense_ritz(block):
    """:func:`_ritz_spectrum` of a block given whole: its diagonal, and its rows by index."""
    return _ritz_spectrum(block.diagonal(), block.__getitem__)


class TestEigenCache:
    @pytest.mark.parametrize("n", [2, 3, 30, 31, 200, 201])
    def test_matches_full_eigh(self, n):
        # the two half-size solves give the full spectrum, orthonormal kept
        # modes and the Gram matrix back, odd n (middle row) included, for
        # every atom.  Row i of U is U'e_i, the projection of the i-th unit
        # vector; the modes past the numerical rank r are exact zeros
        cfg = GPConfig(n=n, m=3)
        spectra, coef = _spectra(cfg, np.eye(n))
        ranks = [vals.size for vals, _ in gp_mcmc._half_spectra(cfg.grid_x1, cfg.points)]
        for i1, (x1, vals, r) in enumerate(zip(cfg.grid_x1, spectra, ranks, strict=True)):
            vecs = coef[:, i1]
            G = gram_matrix(x1, cfg.points)
            ref = np.clip(np.linalg.eigh(G)[0][::-1], 0.0, None)
            assert np.all(np.diff(vals) <= 0.0)
            assert np.abs(vals - ref).max() <= 1e-12 * ref[0]
            assert np.abs((vecs * vals) @ vecs.T - G).max() <= 1e-10
            assert np.abs(vecs[:, :r].T @ vecs[:, :r] - np.eye(r)).max() <= 1e-12
            assert not vals[r:].any() and not vecs[:, r:].any()
            assert np.count_nonzero(ref > 1e-13 * ref[0]) <= r

    @pytest.mark.parametrize("n", [2, 3, 30, 31, 300, 301])
    def test_modes_are_exactly_even_or_odd(self, n):
        # each yielded mode is, bit for bit, the reversal of itself or of its negative; an odd
        # mode's middle entry is exactly 0 for odd n, though no half-size solve writes it.  The
        # modes come largest first in one C-contiguous array, as a strided one would take
        # another BLAS kernel and round the latent draw differently
        cfg = GPConfig(n=n, m=4)
        grid = [*cfg.grid_x1, cfg.true_x1]
        for vals, modes in gp_mcmc._half_spectra(grid, cfg.points):
            assert modes.shape == (n, vals.size) and modes.flags.c_contiguous
            assert np.all(np.diff(vals) <= 0.0)
            even = np.all(modes[::-1] == modes, axis=0)
            odd = np.all(modes[::-1] == -modes, axis=0)
            assert np.all(even | odd) and not np.any(even & odd)
            if n % 2:
                assert np.all(modes[n // 2, odd] == 0.0)

    def test_eigen_pass_holds_no_half_size_block(self):
        # the three n/2 x n/2 blocks and a k x k factor peaked at 1.10 n^2 floats;
        # the pivot rows, an r x k factor and the n x r kept modes take 0.16 n^2
        cfg = GPConfig(n=1000, m=10)
        data = generate_data(cfg, range(4))
        tracemalloc.start()
        try:
            _spectra(cfg, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * cfg.n ** 2 * 8, peak / (8 * cfg.n ** 2)

    @pytest.mark.parametrize("n", [30, 31, 300, 301])
    def test_rows_from_the_points_are_the_dense_blocks_rows(self, n):
        # every entry the pivoted Cholesky loop reads has the bits of the dense
        # block A +- CJ, bordered for odd n by sqrt(2) times the middle column
        cfg, k = GPConfig(n=n, m=4), n // 2
        near, far, middle = cfg.points[:k], cfg.points[:n - k - 1:-1], cfg.points[k:k + 1]
        for x1 in [*cfg.grid_x1, cfg.true_x1]:
            a, cj = gram_matrix(x1, near), gram_matrix(x1, near, far)
            plus = np.ones((n - k, n - k))
            plus[:k, :k] = a + cj
            if n % 2:
                plus[k, :k] = plus[:k, k] = math.sqrt(2.0) * gram_matrix(x1, near, middle)[:, 0]
            for (diagonal, row), block in zip(_half_blocks(x1, cfg.points), (plus, a - cj),
                                              strict=True):
                np.testing.assert_array_equal(diagonal, block.diagonal())
                np.testing.assert_array_equal([row(p) for p in range(len(block))], block)

    def test_full_rank_block_keeps_every_mode(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 7))
        block = a @ a.T + np.eye(7)
        vals, vecs = _dense_ritz(block)
        ref = np.linalg.eigvalsh(block)[::-1]
        assert vals.shape == (7,) and vecs.shape == (7, 7)
        assert np.abs(vals - ref).max() <= 1e-12 * ref[0]
        assert np.abs(vecs.T @ vecs - np.eye(7)).max() <= 1e-12
        assert np.abs((vecs * vals) @ vecs.T - block).max() <= 1e-12 * ref[0]

    def test_cut_is_rounding_level_of_the_largest_diagonal_entry(self):
        # wherever it sits, a mode at or below eps times the largest diagonal entry is dropped
        for d in ([1e-30, 1.0, 0.25], [0.25, 1e-30, 1.0], [1.0, 0.25, 1e-16]):
            vals, vecs = _dense_ritz(np.diag(d))
            assert vals.tolist() == [1.0, 0.25]
            np.testing.assert_array_equal(np.abs(vecs), np.eye(3)[:, np.argsort(d)[:0:-1]])

    def test_rank_one_block_keeps_one_mode(self):
        # the long length-scale limit: both halves' blocks tend to a multiple of
        # ones (the sum) and to 0 (the difference)
        vals, vecs = _dense_ritz(np.full((50, 50), 2.0))
        assert vals.shape == (1,) and vals[0] == pytest.approx(100.0, rel=1e-14)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.full(50, 50 ** -0.5), rtol=1e-14)
        assert _dense_ritz(np.zeros((4, 4)))[0].size == 0
        # a general rank-one block: its mode, and rounding-level ones at most
        v = np.random.default_rng(5).normal(size=30)
        vals, vecs = _dense_ritz(np.outer(v, v))
        assert vals[0] == pytest.approx(v @ v, rel=1e-13)
        assert abs(vecs[:, 0] @ v) == pytest.approx(np.linalg.norm(v), rel=1e-13)
        assert np.all(vals[1:] <= np.finfo(float).eps * vals[0])


class TestSpectrum:
    def test_full_rank_reconstructs(self):
        cfg = GPConfig(n=30, m=2)
        S = gram_matrix(cfg.grid_x1[1], cfg.points)
        vals, vecs = _spectrum(S)
        assert np.abs((vecs * vals) @ vecs.T - S).max() <= 1e-10

    def test_identity_gives_coordinate_projector(self):
        vals, vecs = _spectrum(np.eye(5))
        lam = vecs[:, :2] * np.sqrt(vals[:2])
        proj = lam @ lam.T
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0, 0.0]), atol=1e-12)

    def test_frobenius_error_is_discarded_spectrum(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6))
        S = A @ A.T
        vals = np.sort(np.linalg.eigvalsh(S))[::-1]
        top, vecs = _spectrum(S)
        err = np.linalg.norm(S - (vecs[:, :3] * top[:3]) @ vecs[:, :3].T, "fro")
        assert err == pytest.approx(np.sqrt((vals[3:] ** 2).sum()), abs=1e-8)


class TestMarginalLogLikelihood:
    def test_zero_amplitude_identity_covariance(self):
        z = np.array([0.3, -1.2, 0.5])
        val = marginal_log_likelihood(1.0, 0.0, z, np.array([0.1, 0.2, 0.3]),
                                      prior_b=2.0, prior_a=2.0)
        expected = -0.5 * (2.0 + 3) * math.log(2.0 + float(z @ z))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_full_rank_matches_exact(self):
        cfg = GPConfig(n=25, m=3, seed=9)
        z = generate_data(cfg, 0)
        np.testing.assert_allclose(lowrank_log_table(cfg, z, 25), exact_log_table(cfg, z),
                                   rtol=0, atol=1e-8)

    def test_two_point_symbolic_inverse(self):
        # closed-form 2x2 inverse of [[1+x2, x2 s], [x2 s, 1+x2]]
        z = np.array([0.7, -0.4])
        pts = np.array([0.0, 0.5])
        x1, x2, b, a = 2.0, 0.8, 2.0, 2.0
        s = math.exp(-x1 * 0.25)
        B = np.array([[1 + x2, x2 * s], [x2 * s, 1 + x2]])
        det = (1 + x2) ** 2 - (x2 * s) ** 2
        inv = np.array([[1 + x2, -x2 * s], [-x2 * s, 1 + x2]]) / det
        expected = -0.5 * math.log(det) - 0.5 * (a + 2) * math.log(b + z @ inv @ z)
        val = marginal_log_likelihood(x1, x2, z, pts, prior_b=b, prior_a=a)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_exact_path_rejects_indefinite_covariance(self):
        # I + x2 Sigma with x2 = -2 has eigenvalue 1 - 2 * lambda_max < 0
        pts = np.array([0.0, 0.1, 0.2])
        with pytest.raises(NumericalFailureError, match="not positive definite"):
            marginal_log_likelihood(1.0, -2.0, np.ones(3), pts)

    def test_table_builders_agree_with_pointwise(self):
        cfg = GPConfig(n=20, m=3, seed=13)
        z = generate_data(cfg, 1)
        ll = exact_log_table(cfg, z)
        llq = lowrank_log_table(cfg, z, 6)
        for i1, x1 in enumerate(cfg.grid_x1):
            G6 = truncated_gram(gram_matrix(x1, cfg.points), 6)
            for i2, x2 in enumerate(cfg.grid_x2):
                assert ll[i1, i2] == pytest.approx(
                    marginal_log_likelihood(x1, x2, z, cfg.points), rel=1e-12)
                assert llq[i1, i2] == pytest.approx(dense_log_likelihood(G6, x2, z), abs=1e-8)


def brute_force_gibbs(cfg, z, rank=None):
    """Raw-ratio construction of the Gibbs matrix, no log-space tricks."""
    m = cfg.m
    L = np.empty((m, m))
    for i1, x1 in enumerate(cfg.grid_x1):
        S = gram_matrix(x1, cfg.points)
        if rank is not None:
            S = truncated_gram(S, rank)
        for i2, x2 in enumerate(cfg.grid_x2):
            B = np.eye(cfg.n) + x2 * S
            L[i1, i2] = np.linalg.det(B) ** -0.5 \
                * (cfg.prior_b + z @ np.linalg.inv(B) @ z) ** (-0.5 * (cfg.prior_a + cfg.n))
    r = L / L.sum(axis=1, keepdims=True)
    s = L / L.sum(axis=0, keepdims=True)
    P = np.empty((m * m, m * m))
    for i1 in range(m):
        for i2 in range(m):
            for j1 in range(m):
                for j2 in range(m):
                    P[i1 * m + i2, j1 * m + j2] = r[i1, j2] * s[j1, j2]
    return P


class TestGibbsTransitionMatrix:
    def test_single_atom_trivial_kernel(self):
        cfg = GPConfig(n=5, m=1, seed=1)
        K = gibbs_transition_matrix(cfg, generate_data(cfg, 0))
        np.testing.assert_allclose(K.rows, [[1.0]])

    def test_matches_brute_force_tables(self):
        cfg = GPConfig(n=3, m=2, seed=21)
        z = generate_data(cfg, 0)
        K = gibbs_transition_matrix(cfg, z)
        np.testing.assert_allclose(K.rows, brute_force_gibbs(cfg, z), atol=1e-12)
        Kq = gibbs_transition_matrix(cfg, z, rank=2)
        np.testing.assert_allclose(Kq.rows, brute_force_gibbs(cfg, z, rank=2), atol=1e-12)

    def test_rows_stochastic_and_constant_in_x2(self):
        cfg = GPConfig(n=30, m=4, seed=2)
        K = gibbs_transition_matrix(cfg, generate_data(cfg, 0))
        np.testing.assert_allclose(K.rows.sum(axis=1), 1.0, atol=1e-10)
        for i1 in range(4):
            block = K.rows[i1 * 4:(i1 + 1) * 4]
            assert np.abs(block - block[0]).max() == 0.0


class TestEpsilonAlpha:
    def test_full_rank_nearly_exact(self):
        cfg = GPConfig(n=40, m=3, seed=5)
        z = generate_data(cfg, 0)
        eps, alpha = epsilon_alpha_for_gp(cfg, z, q=40)
        assert eps <= 1e-8
        assert 0.0 < alpha <= 1.0

    @pytest.mark.parametrize("n, m, q", [(3, 2, 1), (12, 3, 4), (30, 4, 30)],
                             ids=["n3-m2-q1", "n12-m3-q4", "n30-m4-q30"])
    def test_matches_full_kernel_enumeration(self, n, m, q):
        cfg = GPConfig(n=n, m=m, seed=8)
        z = generate_data(cfg, 0)
        K = gibbs_transition_matrix(cfg, z)
        Kq = gibbs_transition_matrix(cfg, z, rank=q)
        eps, alpha = epsilon_alpha_for_gp(cfg, z, q=q)
        assert eps == pytest.approx(local_epsilon(Kq, K), abs=1e-13)
        assert alpha == pytest.approx(cross_doeblin_constant(Kq, K), abs=1e-13)


class TestFigureSweep:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adaptive_sweep_reaches_threshold(self):
        # non-monotone epsilon is read from the rows, not announced by a warning
        cfg = GPConfig(n=30, m=3, seed=1)
        rows = figure_sweep(cfg, 2, eps_threshold=1e-10)
        by_rep = {}
        for row in rows:
            by_rep.setdefault(row.replicate, []).append(row)
        assert set(by_rep) == {0, 1}
        for rep_rows in by_rep.values():
            assert [r.q for r in rep_rows] == list(range(1, len(rep_rows) + 1))
            assert rep_rows[-1].epsilon < 1e-10 or rep_rows[-1].q == 30
            for r in rep_rows:
                assert 0.0 <= r.ratio <= 1.0
                assert r.ratio == pytest.approx(
                    0.0 if r.epsilon == 0.0 else r.epsilon / (r.alpha + r.epsilon))

    def test_explicit_q_list(self):
        # with no adaptive stop the ranks are exactly 1..qmax; pick out three
        cfg = GPConfig(n=20, m=2, seed=3)
        swept = figure_sweep(cfg, 1, eps_threshold=0.0, qmax=20)
        assert [r.q for r in swept] == list(range(1, 21))
        rows = [r for r in swept if r.q in (1, 5, 20)]
        assert [r.q for r in rows] == [1, 5, 20]

    def test_matches_cholesky_oracle(self):
        cfg = GPConfig(n=24, m=3, seed=4)
        qs = [1, cfg.n // 3, cfg.n]
        rows = [r for r in figure_sweep(cfg, 2, eps_threshold=0.0, qmax=cfg.n) if r.q in qs]
        assert [(r.replicate, r.q) for r in rows] == [(rep, q) for rep in (0, 1) for q in qs]
        for r in rows:
            eps, alpha = epsilon_alpha_for_gp(cfg, generate_data(cfg, r.replicate), r.q)
            assert abs(r.epsilon - eps) <= 1e-10
            assert abs(r.alpha - alpha) <= 1e-10

    def test_ranks_above_n_give_full_rank_rows(self):
        cfg = GPConfig(n=12, m=2, seed=2)
        listed = [r for r in figure_sweep(cfg, 1, eps_threshold=0.0, qmax=40)
                  if r.q in (12, 13, 40)]
        capped = figure_sweep(cfg, 1, eps_threshold=0.0, qmax=15)
        assert [r.q for r in listed] == [12, 13, 40]
        assert listed[1][2:] == listed[0][2:] and listed[2][2:] == listed[0][2:]
        assert [r.q for r in capped] == list(range(1, 16))
        assert all(r[2:] == listed[0][2:] for r in capped[11:])
        np.testing.assert_array_equal(lowrank_log_table(cfg, generate_data(cfg, 0), 40),
                                      lowrank_log_table(cfg, generate_data(cfg, 0), 12))

    def test_replicate_blocks_give_the_same_rows(self):
        # 25 replicates at n=10 take three eigen passes of at most n datasets
        cfg = GPConfig(n=10, m=2, seed=1)
        rows = figure_sweep(cfg, 25)
        assert [r for r in rows if r.replicate < 5] == figure_sweep(cfg, 5)
        assert sorted({r.replicate for r in rows}) == list(range(25))
        for r in rows:
            if r.replicate in (9, 10, 24):  # both sides of a block edge, and the last block
                eps, alpha = epsilon_alpha_for_gp(cfg, generate_data(cfg, r.replicate), r.q)
                assert abs(r.epsilon - eps) <= 1e-10 and abs(r.alpha - alpha) <= 1e-10

    @pytest.mark.parametrize("n", [100, 101])
    def test_replicate_rows_do_not_depend_on_replicates(self, n):
        # a replicate's rows are the same, bit for bit, whatever --replicates
        # is; one matrix product over a block of datasets broke this
        cfg = GPConfig(n=n, m=5, seed=4)
        first = [r for r in figure_sweep(cfg, 3) if r.replicate <= 2]
        assert sorted({r.replicate for r in first}) == [0, 1, 2]
        for replicates in (1, 7):
            rows = [r for r in figure_sweep(cfg, replicates) if r.replicate <= 2]
            assert rows == [r for r in first if r.replicate < replicates], replicates

    def test_peak_memory_does_not_grow_with_m(self):
        # the eigen pass holds one atom's pivot rows and kept modes at a time and
        # solves the atom of largest rank first, so m = 8 adds only four more
        # atoms' vals and coef floats, 4 n (R + 1), to the peak of m = 4; keeping
        # every atom's eigenvectors took 13.4 n^2 floats at m=8, and one atom's
        # n x n eigenvectors with the factor cached 3.8 n^2.  The whole sweep
        # peaks in its rank stage, on 64 m^3 temporaries: 0.45 n^2 at m = 4, 1.78 at m = 8
        n, replicates, peaks = 301, 2, {}
        for m in (4, 8):
            cfg = GPConfig(n=n, m=m, seed=1)
            # a first pass imports numpy.random and fills numpy's first-use caches untraced
            _spectra(cfg, generate_data(cfg, range(replicates)))
            tracemalloc.start()
            try:
                _spectra(cfg, generate_data(cfg, range(replicates)))
                peaks[m] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                figure_sweep(cfg, replicates)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * n ** 2 * 8, (m, peak / (8 * n ** 2))
        assert peaks[8] - peaks[4] <= 4 * n * (replicates + 1) * 8, peaks

    @pytest.mark.parametrize("replicates,qmax,name", [(1.7, 5, "replicates"),
                                                      (True, 5, "replicates"),
                                                      (1, 2.5, "qmax"), (1, True, "qmax")])
    def test_rejects_non_integer_counts(self, replicates, qmax, name):
        with pytest.raises(ValueError, match=name):
            figure_sweep(GPConfig(n=10, m=2, seed=1), replicates, qmax=qmax)

    @pytest.mark.parametrize("replicate", [1.7, True, [0, 1.7], [True]],
                             ids=["float", "bool", "float-in-list", "bool-in-list"])
    def test_generate_data_rejects_non_integer_replicate(self, replicate):
        # 1.7 and True used to return replicate 1's data
        with pytest.raises(ValueError, match="replicate must be an integer >= 0"):
            generate_data(GPConfig(n=10, m=2, seed=1), replicate)

    @pytest.mark.parametrize("q", [2.5, True, [1, 2.5]], ids=["float", "bool", "float-in-list"])
    def test_lowrank_table_rejects_non_integer_rank(self, q):
        # 2.5 used to give the rank-2 table
        cfg = GPConfig(n=10, m=2, seed=1)
        with pytest.raises(ValueError, match="ranks must be integers >= 1"):
            lowrank_log_table(cfg, generate_data(cfg, 0), q)

    @pytest.mark.parametrize("z, error, match", [
        (np.full(10, np.nan), ValueError, "z entries must be finite"),
        (np.r_[np.zeros(9), np.inf], ValueError, "z entries must be finite"),
        (np.zeros(5), DimensionMismatchError, "vector of 10 observations"),
        (np.zeros((2, 10)), DimensionMismatchError, "vector of 10 observations"),
        (["a"] * 10, ValueError, "z entries must be real numbers"),
    ], ids=["nan", "inf", "short", "matrix", "string"])
    def test_lowrank_table_rejects_bad_data(self, z, error, match):
        # an all-NaN z returned an all-NaN table; a 5-entry z failed inside matmul
        with pytest.raises(error, match=match):
            lowrank_log_table(GPConfig(n=10, m=2, seed=1), z, 2)

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, True, "x"])
    def test_rejects_bad_eps_threshold_before_drawing_data(self, monkeypatch, threshold):
        # NaN and -1 swept every rank, True ran as 1, "x" failed inside numpy
        monkeypatch.setattr(gp_mcmc, "generate_data", lambda *a: pytest.fail("data drawn"))
        with pytest.raises(ValueError, match="eps_threshold must be"):
            figure_sweep(GPConfig(n=10, m=2, seed=1), 1, eps_threshold=threshold)

    def test_rejects_rank_zero(self):
        cfg = GPConfig(n=10, m=2, seed=1)
        for qmax in (0, -1):
            with pytest.raises(ValueError, match="qmax"):
                figure_sweep(cfg, 1, qmax=qmax)
        with pytest.raises(ValueError):
            lowrank_log_table(cfg, generate_data(cfg, 0), 0)


class TestLogSumExp:
    def test_matches_direct_sum_and_keeps_axis(self):
        a = np.random.default_rng(4).normal(size=(3, 4, 5))
        for axis in (-1, -2):
            expected = np.log(np.exp(a).sum(axis=axis, keepdims=True))
            np.testing.assert_allclose(logsumexp(a, axis=axis), expected, rtol=1e-14)

    def test_no_overflow_or_underflow(self):
        a = np.array([[1000.0, 1000.0], [-1000.0, -1000.0 + math.log(3.0)]])
        np.testing.assert_allclose(logsumexp(a, axis=-1),
                                   [[1000.0 + math.log(2.0)], [-1000.0 + math.log(4.0)]],
                                   rtol=1e-15)
