import numpy as np
import pytest
from ctxseg.propagation import (LinkScoreMatrix, dense_two_pass_limit, dump_scores,
                                load_scores, predict_all_links, propagate_column_pass,
                                propagate_row_pass, resolvent)
from ctxseg.regions import SparseMatrix

sp = SparseMatrix.from_dense


def random_operator(rng, n, k=3):
    """Normalized affinity of a random union-symmetrized k-NN graph."""
    F = rng.standard_normal((n, 6))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    G = np.clip(F @ F.T, 0, None)
    np.fill_diagonal(G, 0)
    W = np.zeros_like(G)
    for i in range(n):
        idx = np.argsort(-G[i])[:k]
        W[i, idx] = G[i, idx]
    W = np.maximum(W, W.T)
    d = W.sum(1)
    dinv = np.where(d > 0, 1 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return W * dinv[:, None] * dinv[None, :]


def random_links(rng, n, count):
    O = np.zeros((n, n))
    for _ in range(count):
        i, j = rng.integers(0, n, 2)
        if i != j:
            O[i, j] = 1.0
    return O


class TestRowPass:
    def test_zero_source_stays_zero(self):
        L = sp(np.array([[0, 0.5], [0.5, 0]]))
        res = propagate_row_pass(sp(np.zeros((2, 2))), resolvent(L, 0.5))
        assert res.matrix.nnz == 0
        assert res.converged

    def test_no_edges_single_step(self):
        O = sp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        res = propagate_row_pass(O, resolvent(sp(np.zeros((2, 2))), 0.5))
        assert np.allclose(res.matrix.toarray(), 0.5 * O.toarray())
        assert res.converged

    def test_three_vertex_path_matches_dense_solve(self):
        # path graph 0-1-2 with unit weights
        W = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        d = W.sum(1)
        L = W / np.sqrt(np.outer(d, d))
        O = np.zeros((3, 3))
        O[0, 1] = 1.0
        res = propagate_row_pass(sp(O), resolvent(sp(L), 0.5))
        want = 0.5 * O @ np.linalg.inv(np.eye(3) - 0.5 * L)
        assert np.abs(res.matrix.toarray() - want).max() < 1e-6

    def test_inactive_rows_exactly_zero(self):
        rng = np.random.default_rng(0)
        L = sp(random_operator(rng, 12))
        O = np.zeros((12, 12))
        O[3, 5] = 1.0
        res = propagate_row_pass(sp(O), resolvent(L, 0.5))
        out = res.matrix.toarray()
        assert np.all(out[[r for r in range(12) if r != 3]] == 0.0)
        assert out[3].any()


class TestColumnPass:
    def test_zero_input(self):
        L = sp(np.array([[0, 0.5], [0.5, 0]]))
        res = propagate_column_pass(sp(np.zeros((2, 2))), resolvent(L, 0.5))
        assert res.matrix.nnz == 0

    def test_two_vertex_closed_form(self):
        L = np.array([[0.0, 1.0], [1.0, 0.0]])  # single unit edge, normalized
        O = np.array([[0.0, 1.0], [1.0, 0.0]])
        R = resolvent(sp(L), 0.5)
        r = propagate_row_pass(sp(O), R)
        c = propagate_column_pass(r.matrix, R)
        Minv = np.linalg.inv(np.eye(2) - 0.5 * L)
        want = 0.25 * Minv @ O @ Minv
        assert np.abs(c.matrix.toarray() - want).max() < 1e-9

    def test_symmetric_source_symmetric_result(self):
        rng = np.random.default_rng(3)
        L = sp(random_operator(rng, 15))
        O = random_links(rng, 15, 6)
        O = np.maximum(O, O.T)  # symmetric observed links
        R = resolvent(L, 0.9)
        r = propagate_row_pass(sp(O), R)
        c = propagate_column_pass(r.matrix, R)
        out = c.matrix.toarray()
        assert np.abs(out - out.T).max() < 1e-9


class TestPredictAllLinks:
    def test_empty_pairs_skipped(self):
        L = sp(np.array([[0, 0.5], [0.5, 0]]))
        observed = {(0, 1): sp(np.zeros((2, 2)))}
        assert predict_all_links(observed, L, 0.5, 0.0) == {}

    def test_transpose_duality_across_pairs(self):
        rng = np.random.default_rng(5)
        L = sp(random_operator(rng, 20))
        O = random_links(rng, 20, 8)
        observed = {(1, 2): sp(O),
                    (2, 1): sp(O.T)}
        scores = predict_all_links(observed, L, 0.9, 0.0)
        a = scores[(1, 2)].scores.toarray()
        b = scores[(2, 1)].scores.toarray()
        assert np.abs(a - b.T).max() < 1e-9

    def test_prune_drops_small_entries(self):
        rng = np.random.default_rng(6)
        L = sp(random_operator(rng, 20))
        O = sp(random_links(rng, 20, 3))
        out = predict_all_links({(0, 1): O}, L, 0.9, 1e-4)[(0, 1)]
        assert out.scores.nnz == 0 or out.scores.data.min() >= 1e-4

    def test_qualitative_link_transfer(self):
        # Two 'horse'-like and two 'person'-like vertices; one labeled pair
        # carries the observed link. The unlabeled lookalike pair must score
        # strictly higher than a dissimilar pair.
        F = np.array([
            [1.0, 0.0, 0.0],   # 0: labeled horse
            [0.0, 1.0, 0.0],   # 1: labeled person
            [0.99, 0.14, 0.0], # 2: unlabeled, horse-like
            [0.14, 0.99, 0.0], # 3: unlabeled, person-like
            [0.0, 0.0, 1.0],   # 4: unrelated
        ])
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        G = np.clip(F @ F.T, 0, None)
        np.fill_diagonal(G, 0)
        d = G.sum(1)
        dinv = np.where(d > 0, 1 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        L = G * dinv[:, None] * dinv[None, :]
        O = np.zeros((5, 5))
        O[0, 1] = 1.0
        out = predict_all_links({(1, 2): sp(O)},
                                sp(L), 0.9, 0.0)[(1, 2)]
        S = out.scores.toarray()
        assert S[2, 3] > S[2, 4]
        assert S[2, 3] > S[4, 3]

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            L = sp(random_operator(rng, n))
            O = random_links(rng, n, int(rng.integers(1, 6)))
            mu = float(rng.choice([0.5, 0.9, 0.99]))
            out = predict_all_links({(0, 1): sp(O)}, L, mu, 0.0)[(0, 1)]
            if out.scores.nnz:
                assert out.scores.data.min() >= 0.0
                # contraction bound: scores never exceed the source maximum
                assert out.scores.data.max() <= O.max() + 1e-9


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("mu", [0.5, 0.9, 0.99])
    def test_two_pass_matches_closed_form(self, mu):
        rng = np.random.default_rng(int(mu * 100))
        for _ in range(5):
            n = int(rng.integers(5, 40))
            Ld = random_operator(rng, n)
            O = random_links(rng, n, int(rng.integers(1, 6)))
            R = resolvent(sp(Ld), mu)
            r = propagate_row_pass(sp(O), R)
            c = propagate_column_pass(r.matrix, R)
            want = dense_two_pass_limit(O, Ld, mu)
            assert np.abs(c.matrix.toarray() - want).max() < 1e-5

    def test_monotone_in_source(self):
        rng = np.random.default_rng(21)
        n = 15
        Ld = random_operator(rng, n)
        O1 = random_links(rng, n, 4)
        O2 = O1.copy()
        O2[0, 1] = 1.0  # one extra link
        R = resolvent(sp(Ld), 0.9)
        p1 = propagate_column_pass(
            propagate_row_pass(sp(O1), R).matrix, R).matrix.toarray()
        p2 = propagate_column_pass(
            propagate_row_pass(sp(O2), R).matrix, R).matrix.toarray()
        assert np.all(p2 >= p1 - 1e-12)

    def test_mu_to_zero_degeneracy(self):
        rng = np.random.default_rng(22)
        n = 10
        Ld = random_operator(rng, n)
        O = random_links(rng, n, 5)
        R = resolvent(sp(Ld), 1e-12)
        r = propagate_row_pass(sp(O), R)
        assert np.abs(r.matrix.toarray() - O).max() < 1e-9
        c = propagate_column_pass(r.matrix, R)
        assert np.abs(c.matrix.toarray() - O).max() < 1e-9


class TestExactSolve:
    """The shared-resolvent solve sits on the closed form up to round-off."""

    @pytest.mark.parametrize("mu", [0.5, 0.9, 0.99, 0.999])
    def test_matches_oracle_with_isolated_vertices_and_empty_lines(self, mu):
        rng = np.random.default_rng(int(mu * 1000))
        for _ in range(5):
            n = int(rng.integers(6, 60))
            isolated = rng.choice(n, 2, replace=False)
            Ld = random_operator(rng, n)
            Ld[isolated, :] = 0.0
            Ld[:, isolated] = 0.0
            O = random_links(rng, n, int(rng.integers(1, 8)))
            O[isolated, :] = 0.0
            O[:, isolated] = 0.0
            L, Os = sp(Ld), sp(O)
            got = predict_all_links({(0, 1): Os}, L, mu, 0.0)
            want = dense_two_pass_limit(O, Ld, mu)
            S = got[(0, 1)].scores.toarray() if got else np.zeros((n, n))
            assert np.abs(S - want).max() <= 1e-12
            assert not S[isolated].any() and not S[:, isolated].any()
            R = resolvent(L, mu)
            rows = propagate_row_pass(Os, R).matrix.toarray()
            cols = propagate_column_pass(sp(rows), R).matrix.toarray()
            assert not rows[~O.any(axis=1)].any()
            assert not cols[:, ~rows.any(axis=0)].any()

    def test_direct_solve_reports_one_converged_step(self):
        rng = np.random.default_rng(11)
        L = sp(random_operator(rng, 10))
        O = sp(random_links(rng, 10, 3))
        res = propagate_row_pass(O, resolvent(L, 0.99))
        assert res.converged and res.iterations == 1
        out = predict_all_links({(0, 1): O}, L, 0.99, 1e-8)[(0, 1)]
        assert out.converged


def test_config_validation():
    L = sp(np.array([[0, 0.5], [0.5, 0]]))
    with pytest.raises(ValueError):
        resolvent(L, 0.0)
    with pytest.raises(ValueError):
        resolvent(L, 1.0)


def test_scores_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    L = sp(random_operator(rng, 12))
    observed = {(0, 1): sp(random_links(rng, 12, 4))}
    # and stored values at the ends of the float range, which the reader must take back
    extremes = SparseMatrix.from_entries([0, 3, 11], [5, 3, 0],
                                         [-0.0, 5e-324, 1.7976931348623157e308], (12, 12))
    for scores in (predict_all_links(observed, L, 0.9, 1e-9),
                   {(2, 1): LinkScoreMatrix(extremes)}):
        path = tmp_path / "scores.jsonl"
        dump_scores(scores, path)
        loaded = load_scores(path, 12)
        assert set(loaded) == set(scores)
        for pair in scores:
            want, got = scores[pair].scores, loaded[pair].scores
            assert np.array_equal(got.toarray(), want.toarray())
            assert got.data.tobytes() == want.data.tobytes()
        dump_scores(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
