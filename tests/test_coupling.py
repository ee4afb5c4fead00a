import collections
import tracemalloc

import numpy as np
import pytest

from chain_perturb import (
    BoundParams,
    DimensionMismatchError,
    ExperimentConfig,
    FiniteKernel,
    InvalidRegimeError,
    as_dist,
    avg_disagreement_bound,
    cross_doeblin_constant,
    invariant_measure,
    iter_coupled_batches,
    kernel_pair,
    local_epsilon,
    product_kernel_row,
    run_experiments,
    tv_distance,
)
from chain_perturb import coupling
from chain_perturb.coupling import _cdf, _pick, _split
from helpers import pin_batch_size, random_dist, random_kernel, random_pair, stack_batches
from oracles import BoundingChain

FLIP_PAIR = kernel_pair(0.25, 0.1)  # P_eps, P with a=0.5, alpha=0.4, eps=0.1


class PairSplit:
    """The split the stepper samples for the pair (x, y): a diagonal table row, or a per-step split."""

    def __init__(self, P_eps, P, x, y):
        if x == y:
            split, row = _split(P_eps.rows, P.rows), x
        else:
            split, row = _split(P_eps.rows[[x]], P.rows[[y]]), 0
        rho, cdf = split
        self.rho = float(rho[row])
        self.q_cdf, self.r_cdf, self.rt_cdf = cdf[:, row]


def weights(cdf_row):
    """Probability vector of a sampling CDF row (zero-mass rows read as state 0)."""
    return np.diff(cdf_row, prepend=0.0)


class TestBuildRecipe:
    """The minimum-overlap split of each state pair, as the stepper samples it."""

    def test_identical_rows_fully_coupled(self):
        P = random_kernel(np.random.default_rng(0), 3)
        T = PairSplit(P, P, 1, 1)
        assert T.rho == 1.0
        np.testing.assert_array_equal(T.r_cdf, np.ones(3))   # no leftover mass
        np.testing.assert_array_equal(T.rt_cdf, np.ones(3))
        np.testing.assert_allclose(weights(T.q_cdf), P.rows[1])

    def test_disjoint_rows_fully_decoupled(self):
        A = FiniteKernel(np.eye(2))
        B = FiniteKernel([[0.0, 1.0], [1.0, 0.0]])
        T = PairSplit(A, B, 0, 0)
        assert T.rho == 0.0
        np.testing.assert_array_equal(T.q_cdf, np.ones(2))   # no shared mass
        np.testing.assert_allclose(weights(T.r_cdf), [1.0, 0.0])
        np.testing.assert_allclose(weights(T.rt_cdf), [0.0, 1.0])
        np.testing.assert_array_equal(product_kernel_row(A, B, (0, 0)).weights, [0, 1, 0, 0])

    def test_flip_pair_diagonal_overlap(self):
        # rows (0.85, 0.15) vs (0.75, 0.25): overlap mass 0.9
        assert PairSplit(*FLIP_PAIR, 0, 0).rho == pytest.approx(0.9, abs=1e-15)

    def test_marginal_reconstruction(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            P_eps, P = random_pair(rng, n, rng.uniform(0.05, 0.9))
            x, y = rng.integers(0, n, size=2)
            T = PairSplit(P_eps, P, x, y)
            shared = T.rho * weights(T.q_cdf)
            rebuilt_eps = shared + (1 - T.rho) * weights(T.r_cdf)
            rebuilt_base = shared + (1 - T.rho) * weights(T.rt_cdf)
            np.testing.assert_allclose(rebuilt_eps, P_eps.rows[x], atol=1e-12)
            np.testing.assert_allclose(rebuilt_base, P.rows[y], atol=1e-12)

    def test_leftover_supports_disjoint(self):
        rng = np.random.default_rng(19)
        P_eps, P = random_pair(rng, 5, 0.5)
        for k in range(25):
            T = PairSplit(P_eps, P, *divmod(k, 5))
            if 0.0 < T.rho < 1.0:
                assert not np.any((weights(T.r_cdf) > 0) & (weights(T.rt_cdf) > 0))

    def test_overlap_identity_three_ways(self):
        # shared mass equals 1 - TV equals 1 - positive-part mass, computed independently
        rng = np.random.default_rng(27)
        for _ in range(20):
            P_eps, P = random_pair(rng, 4, rng.uniform(0.1, 0.9))
            x, y = rng.integers(0, 4, size=2)
            p, q = P_eps.rows[x], P.rows[y]
            rho = PairSplit(P_eps, P, x, y).rho
            assert rho == pytest.approx(1.0 - tv_distance(p, q), abs=1e-12)
            assert rho == pytest.approx(float(np.minimum(p, q).sum()), abs=1e-15)
            assert rho == pytest.approx(1.0 - float(np.clip(p - q, 0, None).sum()), abs=1e-12)

    def test_overlap_lower_bounds(self):
        # rho >= 1 - eps on the diagonal, rho >= alpha everywhere
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            P_eps, P = random_pair(rng, n, rng.uniform(0.05, 0.6))
            eps = local_epsilon(P_eps, P)
            alpha = cross_doeblin_constant(P_eps, P)
            rho = np.array([[PairSplit(P_eps, P, x, y).rho for y in range(n)] for x in range(n)])
            assert np.all(rho >= alpha - 1e-12)
            assert np.all(np.diag(rho) >= 1.0 - eps - 1e-12)

    def test_stepper_peak_memory(self):
        # diagonal splits only: the stepper's memory is O(S^2), not O(S^3)
        rng = np.random.default_rng(61)
        S = 200
        P_eps, P = random_pair(rng, S, 0.1)
        tracemalloc.start()
        try:
            stack_batches(P_eps, P, 0, 1, 20, 8, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * S ** 2 * 8


class TestProductKernelRow:
    def test_identical_rows_live_on_diagonal(self):
        P = random_kernel(np.random.default_rng(2), 4)
        joint = product_kernel_row(P, P, (2, 2)).weights.reshape(4, 4)
        np.testing.assert_allclose(np.diag(joint), P.rows[2], atol=1e-15)
        assert joint.sum() == pytest.approx(1.0)
        assert np.abs(joint - np.diag(np.diag(joint))).max() == 0.0

    def test_marginals_match_rows(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            P_eps, P = random_pair(rng, n, rng.uniform(0.05, 0.9))
            x, y = rng.integers(0, n, size=2)
            joint = product_kernel_row(P_eps, P, (x, y)).weights.reshape(n, n)
            np.testing.assert_allclose(joint.sum(axis=1), P_eps.rows[x], atol=1e-12)
            np.testing.assert_allclose(joint.sum(axis=0), P.rows[y], atol=1e-12)

    def test_diagonal_mass_equals_overlap(self):
        rng = np.random.default_rng(41)
        P_eps, P = random_pair(rng, 5, 0.4)
        for x in range(5):
            for y in range(5):
                joint = product_kernel_row(P_eps, P, (x, y)).weights.reshape(5, 5)
                rho = PairSplit(P_eps, P, x, y).rho
                assert float(np.trace(joint)) == pytest.approx(rho, abs=1e-12)

    def test_flip_pair_diagonal_mass(self):
        joint = product_kernel_row(*FLIP_PAIR, (0, 0)).weights.reshape(2, 2)
        assert float(np.trace(joint)) == pytest.approx(0.9, abs=1e-12)


class TestCoupledStep:
    """One step of the coupled stepper, against the explicit pair kernel."""

    def test_fully_coupled_always_equal(self):
        P = random_kernel(np.random.default_rng(3), 3)
        batch = stack_batches(P, P, 0, 0, 100, 20, seed=1)
        np.testing.assert_array_equal(batch.x_eps, batch.x)

    def test_fully_decoupled_marginals(self):
        A = FiniteKernel(np.eye(2))
        B = FiniteKernel([[0.0, 1.0], [1.0, 0.0]])
        batch = stack_batches(A, B, 0, 0, 1, 50, seed=2)
        np.testing.assert_array_equal(batch.x_eps[:, 1], 0)
        np.testing.assert_array_equal(batch.x[:, 1], 1)

    @staticmethod
    def assert_law_matches_product_row(P_eps, P):
        # one-step moves from runs started at every pair (each on its own seed),
        # tallied per current pair against the exact joint law out of it,
        # 4 sigma per outcome
        S = len(P)
        here, nxt = [], []
        for start in range(S * S):
            batch = stack_batches(P_eps, P, *divmod(start, S), 10, 2500, seed=123 + start)
            here.append((batch.x_eps[:, :-1] * S + batch.x[:, :-1]).ravel())
            nxt.append((batch.x_eps[:, 1:] * S + batch.x[:, 1:]).ravel())
        here, nxt = np.concatenate(here), np.concatenate(nxt)
        for pair in range(S * S):
            exact = product_kernel_row(P_eps, P, divmod(pair, S)).weights
            draws = int((here == pair).sum())
            assert draws >= 1000
            freq = np.bincount(nxt[here == pair], minlength=S * S) / draws
            tol = 4.0 * np.sqrt(exact * (1 - exact) / draws) + 1e-9
            assert np.all(np.abs(freq - exact) <= tol)

    def test_empirical_law_matches_product_row(self):
        self.assert_law_matches_product_row(*FLIP_PAIR)

    def test_leftover_draws_independent(self):
        # leftover parts (0.1, 0.1, 0, 0) vs (0, 0, 0.1, 0.1): only independent
        # leftover draws give the four off-diagonal pairs equal mass
        self.assert_law_matches_product_row(FiniteKernel([[0.3, 0.3, 0.2, 0.2]] * 4),
                                            FiniteKernel([[0.2, 0.2, 0.3, 0.3]] * 4))


class TestSamplingSupport:
    ROW = np.array([0.6, 0.9, 0.3, 0.0])  # unnormalised, last state without mass
    U_MAX = np.nextafter(1.0, 0.0)

    def test_largest_uniform_stays_on_support(self):
        cdf = _cdf(self.ROW[None, :])
        np.testing.assert_array_equal(_pick(cdf, np.zeros(1, dtype=int), np.array([self.U_MAX])), [2])

    def test_cdf_ends_at_exactly_one(self):
        cdf = _cdf(np.stack([self.ROW, np.zeros(4)]))
        np.testing.assert_array_equal(cdf[0, 2:], [1.0, 1.0])
        np.testing.assert_array_equal(cdf[1], np.ones(4))
        assert _pick(cdf, np.array([0, 1]), np.array([0.0, self.U_MAX]))[1] == 0


def linear_pick(cdf_rows, u):
    """The linear inverse CDF: entries of each row at or below its uniform."""
    return (cdf_rows <= u[:, None]).sum(axis=1)


def reference_cdf(weights):
    cdf = np.cumsum(weights, axis=-1)
    last = cdf[..., -1:]
    return np.where(last > 0.0, cdf / np.where(last > 0.0, last, 1.0), 1.0)


def reference_paths(P_eps, P, x0_eps, x0, U, eps, alpha):
    """Coupled paths on the uniforms ``U`` from S^3 pair tables and the linear pick.

    Every pair (x, y) has its split tabulated at row ``x * S + y``; starts
    given as laws use ``U[:, 0]`` for the initial draw.
    """
    A, B = P_eps.rows, P.rows
    S = A.shape[0]
    m = np.minimum(A[:, None, :], B[None, :, :]).reshape(S * S, S)
    pos = np.clip(A[:, None, :] - B[None, :, :], 0.0, None).reshape(S * S, S)
    neg = np.clip(B[None, :, :] - A[:, None, :], 0.0, None).reshape(S * S, S)
    rho, q, r, rt = m.sum(axis=1), reference_cdf(m), reference_cdf(pos), reference_cdf(neg)

    def move(k, u):
        coupled = u[:, 0] < rho[k]
        common = linear_pick(q[k], u[:, 1])
        return (np.where(coupled, common, linear_pick(r[k], u[:, 1])),
                np.where(coupled, common, linear_pick(rt[k], u[:, 2])))

    count = U.shape[0]
    if isinstance(x0_eps, int) and isinstance(x0, int):
        e, b = np.full(count, x0_eps), np.full(count, x0)
    else:
        we = np.eye(S)[x0_eps] if isinstance(x0_eps, int) else as_dist(x0_eps).weights
        wb = np.eye(S)[x0] if isinstance(x0, int) else as_dist(x0).weights
        w_m = np.minimum(we, wb)
        u = U[:, 0]
        coupled = u[:, 0] < w_m.sum()
        common = linear_pick(np.tile(reference_cdf(w_m), (count, 1)), u[:, 1])
        left = linear_pick(np.tile(reference_cdf(np.clip(we - wb, 0.0, None)), (count, 1)), u[:, 1])
        right = linear_pick(np.tile(reference_cdf(np.clip(wb - we, 0.0, None)), (count, 1)), u[:, 2])
        e, b = np.where(coupled, common, left), np.where(coupled, common, right)
        U = U[:, 1:]
    xe, xb, y = [e], [b], [(e != b).astype(np.int8)]
    for k in range(U.shape[1]):
        u = U[:, k]
        e, b = move(e * S + b, u)
        stay = np.where(y[-1] == 0, u[:, 0] < 1.0 - eps, u[:, 0] < alpha)
        xe.append(e), xb.append(b), y.append(np.where(stay, 0, 1).astype(np.int8))
    return np.stack(xe, axis=1), np.stack(xb, axis=1), np.stack(y, axis=1)


def contract_uniforms(seed, count, steps):
    """Uniforms of the documented RNG contract: one substream ``spawn_key=(block,)`` per block.

    Every block of 64 trajectory slots is drawn whole in one call,
    step-major (a row of 64 triples per step), and returned as
    ``(count, steps, 3)``: the first ``count`` slots, trajectory by trajectory.
    """
    blocks = range(-(-count // 64))
    return np.concatenate([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
                           .random((steps, 64, 3)).transpose(1, 0, 2) for b in blocks])[:count]


def sparse_weights(rng, shape):
    """Gamma weights with about a third of the entries zero."""
    return rng.gamma(1.0, size=shape) * (rng.random(shape) < 0.65)


def oracle_pair(rng):
    """A random pair on S <= 12 states with zero entries, repeated rows and equal rows, in the regime."""
    while True:
        S = int(rng.integers(1, 13))
        rows = sparse_weights(rng, (S, S))
        rows[rows.sum(axis=1) == 0.0, int(rng.integers(S))] = 1.0
        rows[rng.random(S) < 0.2] = rows[0]                   # repeated rows
        other = sparse_weights(rng, (S, S)) + rows * (rng.random((S, 1)) < 0.3)
        other[other.sum(axis=1) == 0.0] = 1.0
        t = rng.uniform(0.0, 0.6)
        P = rows / rows.sum(axis=1, keepdims=True)
        Q = other / other.sum(axis=1, keepdims=True)
        mix = np.where(rng.random((S, 1)) < 0.25, P, (1.0 - t) * P + t * Q)  # some rows equal
        P_eps, P = FiniteKernel(mix), FiniteKernel(P)
        eps, alpha = local_epsilon(P_eps, P), cross_doeblin_constant(P_eps, P)
        if eps <= 1.0 - alpha:
            return P_eps, P, eps, alpha


class TestStepperOracle:
    """The O(S^2) stepper against S^3 pair tables with a linear pick, exactly."""

    N, COUNT = 25, 30
    U_MAX = np.nextafter(1.0, 0.0)

    @staticmethod
    def starts(rng, S):
        x, y = (int(v) for v in rng.integers(0, S, size=2))
        law_e = sparse_weights(rng, S) + (np.arange(S) == x)
        law_b = law_e if rng.random() < 0.3 else sparse_weights(rng, S) + (np.arange(S) == y)
        return [(x, x), (x, (x + 1) % S), (x, y),
                (list(law_e / law_e.sum()), list(law_b / law_b.sum())), (x, list(law_b / law_b.sum()))]

    def check(self, P_eps, P, eps, alpha, x0_eps, x0, U, seed):
        batch = stack_batches(P_eps, P, x0_eps, x0, self.N, self.COUNT, seed=seed,
                              batch_size=16)
        xe, xb, y = reference_paths(P_eps, P, x0_eps, x0, U, eps, alpha)
        np.testing.assert_array_equal(batch.x_eps, xe)
        np.testing.assert_array_equal(batch.x, xb)
        np.testing.assert_array_equal(batch.y, y)

    def test_matches_pair_tables_on_contract_uniforms(self):
        rng = np.random.default_rng(71)
        for trial in range(40):
            P_eps, P, eps, alpha = oracle_pair(rng)
            for x0_eps, x0 in self.starts(rng, len(P)):
                steps = self.N + (0 if isinstance(x0_eps, int) and isinstance(x0, int) else 1)
                U = contract_uniforms(trial, self.COUNT, steps)
                self.check(P_eps, P, eps, alpha, x0_eps, x0, U, seed=trial)

    def test_matches_pair_tables_on_contract_uniforms_in_short_chunks(self, monkeypatch):
        # 7-step chunks: 25 steps (26 with a law start) cross three chunk boundaries
        monkeypatch.setattr(coupling, "_STEP_CHUNK", 7)
        self.test_matches_pair_tables_on_contract_uniforms()

    def test_matches_pair_tables_on_planted_uniforms(self, monkeypatch):
        # uniforms 0.0 and the largest double below 1 at about a third of the draws each
        rng = np.random.default_rng(73)
        planted = {}

        def planted_chunks(seed, start, count, steps):
            width = coupling._STEP_CHUNK
            for k0 in range(0, steps, width):
                yield planted["U"][start:start + count, k0:k0 + width].transpose(1, 0, 2)

        monkeypatch.setattr(coupling, "_uniform_chunks", planted_chunks)
        for trial in range(40):
            P_eps, P, eps, alpha = oracle_pair(rng)
            for x0_eps, x0 in self.starts(rng, len(P)):
                steps = self.N + (0 if isinstance(x0_eps, int) and isinstance(x0, int) else 1)
                U = rng.random((self.COUNT, steps, 3))
                which = rng.integers(0, 3, size=U.shape)
                U[which == 0] = 0.0
                U[which == 1] = self.U_MAX
                planted["U"] = U
                self.check(P_eps, P, eps, alpha, x0_eps, x0, U, seed=trial)

    def test_binary_search_pick_equals_linear_count(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            S = int(rng.integers(1, 34))
            R = int(rng.integers(1, 8))
            ties = np.sort(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(R, S)), axis=1)
            weights = sparse_weights(rng, (R, S))
            weights[rng.random(R) < 0.3] = 0.0                 # zero-mass rows
            cdf = np.concatenate([ties, _cdf(weights)])
            rows = rng.integers(0, cdf.shape[0], size=64)
            u = np.concatenate([rng.random(16), cdf[rows[16:48], rng.integers(0, S, size=32)],
                                np.zeros(8), np.full(8, self.U_MAX)])
            np.testing.assert_array_equal(_pick(cdf, rows, u), linear_pick(cdf[rows], u))


def reference_draw(rows_eps, rows_base, u):
    """One coupled draw per row pair, at its definition: linear picks on all three parts' CDFs."""
    m = np.minimum(rows_eps, rows_base)
    coupled = u[:, 0] < m.sum(axis=1)
    common = linear_pick(reference_cdf(m), u[:, 1])
    own_e = linear_pick(reference_cdf(np.clip(rows_eps - rows_base, 0.0, None)), u[:, 1])
    own_b = linear_pick(reference_cdf(np.clip(rows_base - rows_eps, 0.0, None)), u[:, 2])
    return np.where(coupled, common, own_e), np.where(coupled, common, own_b)


class TestDraw:
    """Both draw paths, the tabulated and the fresh split, against the definition, exactly."""

    U_MAX = np.nextafter(1.0, 0.0)

    @staticmethod
    def row_pairs(rng, R, S):
        """R pairs of probability rows with zero entries; some equal, some one ulp apart."""
        rows = sparse_weights(rng, (2, R, S))
        rows[rows.sum(axis=2) == 0.0, 0] = 1.0
        pe, pb = rows / rows.sum(axis=2, keepdims=True)
        kind = rng.integers(0, 4, size=R)
        same = (kind == 1) | (kind == 2)
        pb[same] = pe[same]                           # no leftover mass
        for i in np.flatnonzero(kind == 2):           # leftover masses 0 and one ulp
            j = rng.choice(np.flatnonzero(pb[i] > 0.0))
            pb[i, j] = np.nextafter(pb[i, j], 2.0)
        t = rng.uniform(0.0, 1.0, size=(R, 1))
        pb = np.where(kind[:, None] == 3, (1.0 - t) * pe + t * pb, pb)
        return pe, pb

    def uniforms(self, rng, pe, pb):
        """0.0, the largest double below 1, or a value on the split: rho, or an entry of a part's CDF."""
        R, S = pe.shape
        m = np.minimum(pe, pb)
        parts = [reference_cdf(m), reference_cdf(np.clip(pe - pb, 0.0, None)),
                 reference_cdf(np.clip(pb - pe, 0.0, None))]
        col = rng.integers(0, S, size=R)
        on_split = np.stack([m.sum(axis=1),
                             np.where(rng.random((R, 1)) < 0.5, parts[0], parts[1])[np.arange(R), col],
                             parts[2][np.arange(R), col]], axis=1)
        on_split = np.minimum(on_split, self.U_MAX)
        u = rng.random((R, 3))
        which = rng.integers(0, 4, size=u.shape)
        u[which == 0] = 0.0
        u[which == 1] = self.U_MAX
        return np.where(which == 2, on_split, u)

    def test_both_paths_match_definition(self):
        rng = np.random.default_rng(83)
        law_rng = np.random.default_rng(89)  # the law starts' uniforms; rng's stream is unchanged
        for _ in range(300):
            R, S = int(rng.integers(1, 9)), int(rng.integers(1, 25))
            pe, pb = self.row_pairs(rng, R, S)
            rows = rng.integers(0, R, size=64)
            u = self.uniforms(rng, pe[rows], pb[rows])
            want_e, want_b = reference_draw(pe[rows], pb[rows], u)
            for got_e, got_b in (coupling._draw(_split(pe, pb), rows, u),
                                 coupling._draw_fresh(pe[rows], pb[rows], u)):
                np.testing.assert_array_equal(got_e, want_e)
                np.testing.assert_array_equal(got_b, want_b)
            # a law start: one row pair broadcast (stride 0) to every draw, against
            # C-ordered copies (a row sum over an F-ordered copy may differ in the last bit)
            law_e, law_b = (np.repeat(p[rows[:1]], rows.size, axis=0) for p in (pe, pb))
            u = self.uniforms(law_rng, law_e, law_b)
            want_e, want_b = reference_draw(law_e, law_b, u)
            got_e, got_b = coupling._draw_fresh(np.broadcast_to(pe[rows[0]], (rows.size, S)),
                                                np.broadcast_to(pb[rows[0]], (rows.size, S)), u)
            np.testing.assert_array_equal(got_e, want_e)
            np.testing.assert_array_equal(got_b, want_b)


class TestSimulateCoupled:
    def test_identical_kernels_never_decouple(self):
        _, P = FLIP_PAIR
        batch = stack_batches(P, P, 0, 0, 200, 1, seed=5)
        assert batch.z.sum() == 0
        assert not batch.z[0].any()   # never a first decoupling step

    def test_pathwise_domination(self):
        batch = stack_batches(*FLIP_PAIR, 0, 0, 100, 2000, seed=11)
        assert not np.any(batch.z > batch.y)

    def test_occupation_dominance(self):
        batch = stack_batches(*FLIP_PAIR, 0, 1, 80, 500, seed=13)
        z_frac = batch.z[:, :80].mean(axis=1)
        y_frac = batch.y[:, :80].mean(axis=1)
        assert np.all(z_frac <= y_frac + 1e-15)

    def test_marginal_transition_frequencies(self):
        P_eps, P = FLIP_PAIR
        batch = stack_batches(P_eps, P, 0, 0, 50, 3000, seed=17)
        for path, kernel in ((batch.x, P), (batch.x_eps, P_eps)):
            for i in range(2):
                mask = path[:, :-1] == i
                total = int(mask.sum())
                nxt = path[:, 1:][mask]
                for j in range(2):
                    freq = float((nxt == j).sum()) / total
                    p = kernel.rows[i, j]
                    assert abs(freq - p) <= 4.0 * np.sqrt(p * (1 - p) / total)

    def test_batch_matches_single_trajectory(self):
        batch = stack_batches(*FLIP_PAIR, 0, 1, 60, 3, seed=23)
        single = stack_batches(*FLIP_PAIR, 0, 1, 60, 1, seed=23)
        np.testing.assert_array_equal(batch.x[0], single.x[0])
        np.testing.assert_array_equal(batch.x_eps[0], single.x_eps[0])
        np.testing.assert_array_equal(batch.y[0], single.y[0])

    def test_bit_exact_reproducibility(self):
        a = stack_batches(*FLIP_PAIR, 0, 0, 40, 20, seed=29)
        b = stack_batches(*FLIP_PAIR, 0, 0, 40, 20, seed=29)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.x_eps, b.x_eps)
        c = stack_batches(*FLIP_PAIR, 0, 0, 40, 20, seed=29, batch_size=7)
        np.testing.assert_array_equal(a.x, c.x)

    @pytest.mark.parametrize("x0_eps, x0", [(0, 1), ([0.5, 0.5], [0.8, 0.2])],
                             ids=["state-start", "law-start"])
    def test_batch_size_independent_across_blocks(self, x0_eps, x0):
        # 2100 trajectories span 33 RNG blocks, and a batch of 2 B + 1 spans
        # three; every batch size gives the same paths, and they are the paths
        # of the contract's uniforms
        n, count, B = 5, 2100, coupling._BLOCK
        runs = [stack_batches(*FLIP_PAIR, x0_eps, x0, n, count, seed=41, batch_size=b)
                for b in (None, 1, B - 1, B, B + 1, 2 * B + 1)]
        for run in runs[1:]:
            for name in ("x_eps", "x", "y", "z"):
                np.testing.assert_array_equal(getattr(run, name), getattr(runs[0], name))
        steps = n + (0 if isinstance(x0_eps, int) else 1)
        xe, xb, y = reference_paths(*FLIP_PAIR, x0_eps, x0, contract_uniforms(41, count, steps),
                                    0.1, 0.4)
        np.testing.assert_array_equal(runs[0].x_eps, xe)
        np.testing.assert_array_equal(runs[0].x, xb)
        np.testing.assert_array_equal(runs[0].y, y)

    @pytest.mark.parametrize("x0_eps, x0", [(0, 1), ([0.5, 0.5], [0.8, 0.2])],
                             ids=["state-start", "law-start"])
    def test_short_chunks_independent_across_blocks(self, monkeypatch, x0_eps, x0):
        # 5 steps (6 with a law start) cross two 2-step chunk boundaries
        monkeypatch.setattr(coupling, "_STEP_CHUNK", 2)
        self.test_batch_size_independent_across_blocks(x0_eps, x0)

    @pytest.mark.parametrize("x0_eps, x0", [(0, 1), ([0.5, 0.5], [0.8, 0.2])],
                             ids=["state-start", "law-start"])
    def test_long_horizon_matches_contract(self, x0_eps, x0):
        # 600 steps (601 with a law start) take nine full 64-step chunks and a short one
        n, count = 600, 40
        assert coupling._STEP_CHUNK < n
        batch = stack_batches(*FLIP_PAIR, x0_eps, x0, n, count, seed=43, batch_size=15)
        steps = n + (0 if isinstance(x0_eps, int) else 1)
        xe, xb, y = reference_paths(*FLIP_PAIR, x0_eps, x0, contract_uniforms(43, count, steps),
                                    0.1, 0.4)
        np.testing.assert_array_equal(batch.x_eps, xe)
        np.testing.assert_array_equal(batch.x, xb)
        np.testing.assert_array_equal(batch.y, y)

    @pytest.mark.parametrize("x0_eps, x0", [(0, 1), ([0.5, 0.5], [0.8, 0.2])],
                             ids=["state-start", "law-start"])
    def test_first_steps_depend_on_neither_n_nor_count(self, x0_eps, x0):
        # step k of trajectory i reads the same doubles of its block's substream
        # whatever the horizon and the number of trajectories
        whole = stack_batches(*FLIP_PAIR, x0_eps, x0, 150, 200, seed=53)
        for n, count in ((1, 200), (40, 3), (64, 130), (149, 65)):
            run = stack_batches(*FLIP_PAIR, x0_eps, x0, n, count, seed=53)
            for name in ("x_eps", "x", "y", "z"):
                np.testing.assert_array_equal(getattr(run, name),
                                              getattr(whole, name)[:count, :n + 1])

    @pytest.mark.parametrize("x0_eps, x0", [(0, 1), ([0.5, 0.5], [0.8, 0.2])],
                             ids=["state-start", "law-start"])
    def test_one_random_call_per_block_and_chunk(self, monkeypatch, x0_eps, x0):
        # 2 B + 22 trajectories touch three blocks; each block's substream is
        # read by whole rows, one call per chunk, and by nothing else (no advance)
        calls = []
        make = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng = make(seed)

            def random(self, size=None, dtype=np.float64, out=None):
                calls.append(out.size)
                return self.rng.random(size, dtype, out)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        B, n = coupling._BLOCK, 100
        (batch,) = iter_coupled_batches(*FLIP_PAIR, x0_eps, x0, n, 2 * B + 22, seed=5)
        steps = n + (0 if isinstance(x0_eps, int) else 1)
        assert len(calls) == 3 * -(-steps // coupling._STEP_CHUNK)
        assert sum(calls) == 3 * steps * B * 3

    def test_peak_memory_does_not_grow_with_n(self):
        # one chunk of uniforms besides the paths, not all n steps' (19 MB here)
        count, n = 200, 4000
        tracemalloc.start()
        try:
            (batch,) = iter_coupled_batches(*FLIP_PAIR, 0, 0, n, count, seed=47)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        paths = sum(getattr(batch, name).nbytes for name in ("x_eps", "x", "y", "z"))
        assert peak <= 1.5 * (paths + 24 * count * coupling._STEP_CHUNK)

    @pytest.mark.parametrize("states, n, count", [(2, 400, 20000), (200, 200, 3000)],
                             ids=["flip", "dense-200"])
    def test_peak_memory_within_byte_budget(self, states, n, count):
        # a batch's paths and chunk of uniforms fit _BATCH_BYTES; beside them the
        # stepper holds its tables and one slice of fresh splits, which one step
        # of 2,000 trajectories from the off-diagonal pair (1, 0) holds too
        pair = FLIP_PAIR if states == 2 else random_pair(np.random.default_rng(71), states, 0.1)

        def peak(n, n_traj):
            tracemalloc.start()
            try:
                collections.deque(iter_coupled_batches(*pair, 1, 0, n, n_traj, seed=9), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, 2000)  # first-call allocations are not the stepper's
        assert peak(n, count) <= coupling._BATCH_BYTES + peak(1, 2000)

    def test_budget_splits_wide_short_runs_only(self):
        def batches(states, n, count):
            return -(-count // coupling._batch_size(n, n, np.min_scalar_type(-states)))

        # 2,500 two-state runs of 400 steps: 4 MB of paths and a 64-step chunk of uniforms
        assert batches(2, 400, 2500) == 1
        # 500 runs of 2000 steps on 200 states, a loop bound by per-step overhead
        assert batches(200, 2000, 500) == 1
        # but 20,000 two-state runs of 400 steps, or 2,000 of 2000 on 200 states, split
        assert batches(2, 400, 20000) >= 2
        assert batches(200, 2000, 2000) >= 2

    @pytest.mark.parametrize("states, path_type", [(2, np.int8), (128, np.int8),
                                                   (129, np.int16), (200, np.int16)])
    def test_paths_in_smallest_signed_type(self, states, path_type):
        P_eps, P = random_pair(np.random.default_rng(states), states, 0.5)
        (batch,) = iter_coupled_batches(P_eps, P, 0, states - 1, 5, 50, seed=3)
        assert batch.x_eps.dtype == batch.x.dtype == path_type
        assert batch.z.dtype == batch.y.dtype == np.int8
        assert batch.x[:, 0].max() - batch.x_eps[:, 0].min() == states - 1
        np.testing.assert_array_equal(batch.x.astype(int) - batch.x_eps, batch.x - batch.x_eps)

    def test_one_batch_alive_at_a_time(self, monkeypatch):
        # a consumer that drops each batch never holds two batches' paths
        pin_batch_size(monkeypatch, 2000)

        def peak(n_traj):
            tracemalloc.start()
            try:
                collections.deque(iter_coupled_batches(*FLIP_PAIR, 0, 0, 100, n_traj, seed=5),
                                  maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # first-call allocations are not the batch's
        assert peak(3 * 2000) <= 1.15 * peak(2000)

    @pytest.mark.parametrize("start", ["state", "law"])
    def test_fresh_split_memory_does_not_grow_with_batch(self, start):
        # off-diagonal pairs are split a slice of pairs at a time and a law
        # start reads one split of the two laws; splitting every pair of the
        # batch at once peaked 3.8 times higher at 8,000 trajectories than at 2,000
        rng = np.random.default_rng(71)
        S = 200
        P_eps, P = random_pair(rng, S, 0.1)
        x0_eps, x0 = (1, 0) if start == "state" else (random_dist(rng, S), random_dist(rng, S))

        def peak(n_traj):
            tracemalloc.start()
            try:
                collections.deque(iter_coupled_batches(P_eps, P, x0_eps, x0, 1, n_traj, seed=9),
                                  maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(2000)
        assert peak(8000) <= 1.5 * small

    def test_distribution_starts_sample_maximal_coupling(self):
        P_eps, P = FLIP_PAIR
        batch = stack_batches(P_eps, P, [1.0, 0.0], [0.8, 0.2], 5, 4000, seed=31)
        z0 = batch.z[:, 0].mean()
        assert abs(z0 - 0.2) <= 4.0 * np.sqrt(0.2 * 0.8 / 4000)

    @pytest.mark.parametrize("x0_eps, x0", [(True, 0), (0, True)], ids=["x0_eps", "x0"])
    def test_bool_start_rejected(self, x0_eps, x0):
        # True is not state 1
        with pytest.raises(ValueError):
            next(iter_coupled_batches(*FLIP_PAIR, x0_eps, x0, 5, 3, seed=1))

    def test_law_start_of_other_length_rejected(self):
        with pytest.raises(DimensionMismatchError, match="initial law on 3 states, kernel on 2"):
            next(iter_coupled_batches(*FLIP_PAIR, [0.5, 0.25, 0.25], 0, 5, 3, seed=1))

    @pytest.mark.parametrize("n, n_traj", [(True, 3), (5, 2.5), (5, True)],
                             ids=["n-bool", "n_traj-float", "n_traj-bool"])
    def test_non_integer_count_rejected(self, n, n_traj):
        # True is not a horizon of 1 and 2.5 trajectories are not 2
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            next(iter_coupled_batches(*FLIP_PAIR, 0, 0, n, n_traj, seed=1))

    @pytest.mark.parametrize("seed", [None, True, 1.5, "3", -1])
    def test_bad_seed_rejected(self, seed):
        # None drew OS entropy, True ran as seed 1, the others failed inside numpy
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            next(iter_coupled_batches(*FLIP_PAIR, 0, 0, 5, 3, seed=seed))

    def test_z_is_disagreement_indicator(self):
        batch = stack_batches(*FLIP_PAIR, 0, 1, 30, 50, seed=37)
        np.testing.assert_array_equal(batch.z, (batch.x != batch.x_eps).astype(np.int8))

    def test_boundary_regime_simulates(self):
        # identical iid kernels sit exactly at eps = 1 - alpha = 0
        iid = FiniteKernel([[0.5, 0.5], [0.5, 0.5]])
        batch = stack_batches(iid, iid, 0, 0, 20, 1, seed=1)
        assert batch.z.sum() == 0


class TestRegimeRounding:
    def test_exact_constants_never_rejected_by_rounding(self):
        # alpha + eps <= 1 holds exactly, but 1 - alpha can round an ulp below
        # eps: 22 of these 2000 draws were rejected by the check eps > 1 - alpha
        rounded = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                S = int(rng.integers(2, 6))
                P_eps, P = random_pair(rng, S, float(rng.uniform(0.0, 1.0)))
                eps, alpha = local_epsilon(P_eps, P), cross_doeblin_constant(P_eps, P)
                assert alpha + eps <= 1.0
                BoundingChain(alpha=alpha, epsilon=eps)
                avg_disagreement_bound(BoundParams(epsilon=eps, n=5, alpha=alpha))
                if eps > 1.0 - alpha:
                    rounded += 1
                    stack_batches(P_eps, P, 0, 0, 2, 1, seed=0)
                    run_experiments(["disagreement"], ExperimentConfig(P_eps, P, 2, 2, 0))
        assert rounded > 0


def occupation(bc, p1, n):
    """Expected fraction of steps k < n the dominating chain spends in state 1, from P(Y_0 = 1) = p1."""
    return avg_disagreement_bound(BoundParams(epsilon=bc.epsilon, n=n, alpha=bc.alpha, p0=p1))


class TestBoundingChain:
    def test_transition_and_stationary(self):
        bc = BoundingChain(alpha=0.4, epsilon=0.1)
        np.testing.assert_allclose(bc.transition, [[0.9, 0.1], [0.4, 0.6]])
        np.testing.assert_allclose(bc.stationary, [0.8, 0.2], atol=1e-15)
        mu = invariant_measure(FiniteKernel(bc.transition)).weights
        np.testing.assert_allclose(bc.stationary, mu, atol=1e-12)

    def test_regime_validation(self):
        with pytest.raises(InvalidRegimeError):
            BoundingChain(alpha=0.3, epsilon=0.8)

    def test_invalid_regime_rejected_on_override(self):
        # exact constants always satisfy alpha + eps <= 1; only inconsistent
        # user-given scalars can violate the regime
        with pytest.raises(InvalidRegimeError):
            BoundingChain(alpha=0.5, epsilon=0.7)
        with pytest.raises(InvalidRegimeError):
            avg_disagreement_bound(BoundParams(epsilon=0.7, n=10, alpha=0.5))

    def test_stationary_start_occupation_constant(self):
        bc = BoundingChain(alpha=0.4, epsilon=0.1)
        for n in (1, 2, 10, 1000):
            occ = occupation(bc, 0.2, n)
            assert occ == pytest.approx(0.2, abs=1e-15)

    def test_long_horizon_limit(self):
        bc = BoundingChain(alpha=0.4, epsilon=0.1)
        assert occupation(bc, 1, 10 ** 6) == pytest.approx(0.2, abs=1e-5)

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(47)
        phi = np.array([0.0, 1.0])
        for _ in range(25):
            alpha = rng.uniform(0.1, 0.8)
            eps = rng.uniform(0.0, min(0.6, 1.0 - alpha - 0.05))
            p1 = rng.uniform(0.0, 1.0)
            n = int(rng.integers(1, 200))
            bc = BoundingChain(alpha=alpha, epsilon=eps)
            law = np.array([1.0 - p1, p1])
            acc = 0.0
            for _ in range(n):
                acc += law @ phi
                law = law @ bc.transition
            assert occupation(bc, p1, n) == pytest.approx(acc / n, abs=1e-13)
