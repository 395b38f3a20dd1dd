import itertools
import json
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from problem_gen import (as_dict, broadcast_energy, broadcast_fusion_terms,
                         concat_build_pairwise, crf_problem, dense_tables,
                         loop_unary_gradient, random_link_problem, random_signed_problem,
                         random_unary_data, tiled_sequence, unary_sequence)

import ctxseg
from ctxseg import crf, pipeline, tracking
from ctxseg.crf import (CrfProblem, PairwiseTerms, UnaryModel, beta_adaptive,
                        brute_force_oracle, build_pairwise, energy, infer,
                        qpbo_fuse, train_unary, unary_potentials)
from ctxseg.propagation import LinkScoreMatrix
from ctxseg.regions import Region, SparseMatrix, VideoSequence


def seq_with_features(F, frames=None):
    frames = frames or [0] * len(F)
    regions = [Region(i, frames[i], np.asarray(f, dtype=float), 1)
               for i, f in enumerate(F)]
    return VideoSequence(regions, [])


def scores_from_entries(entries, n, converged=True):
    """entries: {(m, n_cls): [(i, j, s), ...]}"""
    out = {}
    for pair, items in entries.items():
        mat = np.zeros((n, n))
        for i, j, s in items:
            mat[i, j] = s
        out[pair] = LinkScoreMatrix(SparseMatrix.from_dense(mat), converged)
    return out


class TestTrainUnary:
    def test_separable_features_full_accuracy(self):
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0]] * 5)
        labeled = {i: i % 2 for i in range(10)}
        model = train_unary(labeled, seq)
        pred = model.probabilities(seq.feature_matrix()).argmax(axis=1)
        assert np.array_equal(pred, [i % 2 for i in range(10)])

    def test_single_example_per_class_at_poles(self):
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0]])
        model = train_unary({0: 0, 1: 1}, seq)
        probs = model.probabilities(seq.feature_matrix())
        assert probs[0, 0] > 0.5
        assert probs[1, 1] > 0.5

    def test_training_bitwise_deterministic(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((12, 4))
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        seq = seq_with_features(F.tolist())
        labeled = {i: i % 3 for i in range(12)}
        m1 = train_unary(labeled, seq)
        m2 = train_unary(labeled, seq)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)

    def test_missing_class_listed_in_error(self):
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\[1\]"):
            train_unary({0: 0, 1: 2}, seq)

    def test_label_out_of_range_rejected(self):
        # the classes run from 0 to the largest label, so only a negative one lies outside
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"region 2 has class -1, not in \[0, 2\)"):
            train_unary({0: 0, 1: 1, 2: -1}, seq)

    def test_many_missing_classes_counted_not_listed(self):
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            train_unary({0: 0, 1: 1, 2: 10 ** 6 - 1}, seq)
        assert time.perf_counter() - start < 0.5
        message = str(err.value)
        assert len(message) < 1024
        assert "999997" in message and "[2, 3, 4, 5, 6]" in message

    def test_identical_features_warns_but_returns(self, caplog):
        seq = seq_with_features([[1.0, 0.0]] * 4)
        with caplog.at_level("WARNING"):
            model = train_unary({0: 0, 1: 1, 2: 0, 3: 1}, seq)
        assert model.weights.shape == (2, 2)
        assert any("identical" in m for m in caplog.messages)

    def test_probabilities_form_simplex(self):
        rng = np.random.default_rng(3)
        F = rng.standard_normal((9, 5))
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        seq = seq_with_features(F.tolist())
        model = train_unary({i: i % 3 for i in range(9)}, seq)
        probs = model.probabilities(seq.feature_matrix())
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError, match="no labeled regions"):
            train_unary({}, seq_with_features([[1.0, 0.0]]))

    @pytest.mark.parametrize("lambda_reg", [0.0, -0.01, float("inf"), float("nan")])
    def test_lambda_outside_open_interval_rejected(self, lambda_reg):
        # at 0 the softmax's shift invariance leaves the Hessian singular
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"lambda_reg must lie in \(0, inf\), got "):
            train_unary({0: 0, 1: 1}, seq, lambda_reg=lambda_reg)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_vanishes_at_the_fit(self, seed):
        """The gradient of the objective, recomputed through ``@``, has a
        max-norm at or below the bound the fit stops at, 1e-10."""
        X, y = unary_data(seed)
        model = train_unary(dict(enumerate(y.tolist())), unary_sequence(X))
        assert crf._GRAD_TOL == 1e-10
        assert np.abs(logistic_gradient(X, y, model)).max() <= 1e-10

    def test_step_cap_warns_and_returns(self, caplog, monkeypatch):
        monkeypatch.setattr(crf, "_MAX_STEPS", 2)
        X, y = unary_data(0)
        with caplog.at_level("WARNING"):
            model = train_unary(dict(enumerate(y.tolist())), unary_sequence(X))
        assert caplog.messages == ["unary fit stopped at its cap of 2 Newton steps"]
        assert np.abs(logistic_gradient(X, y, model)).max() > 1e-10

    @pytest.mark.parametrize("seed,background", [(1, 4), (1, 20), (200, 4), (200, 20)])
    def test_gradient_vanishes_on_benchmark_inputs(self, seed, background, caplog):
        """The inputs of the ``ctx-mu95`` (background 4) and ``files-bare``
        (background 20) workloads, with the classes renumbered as
        ``pipeline.infer_stage`` does: no step-cap warning, and a gradient
        max-norm at or below 1e-10."""
        seq, _ = tiled_sequence(seed, 2, background)
        _, labels = tracking.annotated_frames(pipeline.tracks_stage(seq), seq)
        compact = {c: i for i, c in enumerate(sorted(set(labels.values())))}
        labeled = {rid: compact[c] for rid, c in labels.items()}
        with caplog.at_level("WARNING"):
            model = train_unary(labeled, seq)
        assert not caplog.messages
        ids = sorted(labeled)
        X = np.stack([seq.region(rid).feature for rid in ids])
        y = np.array([labeled[rid] for rid in ids])
        assert np.abs(logistic_gradient(X, y, model)).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_order_of_labeled_regions_does_not_matter(self, seed):
        """The same examples under permuted region ids fit the same model to
        1e-10 (the differences seen are below 2e-13): no order, and no seed,
        picks the result."""
        X, y = unary_data(seed)
        model = train_unary(dict(enumerate(y.tolist())), unary_sequence(X))
        perm = np.random.default_rng(100 + seed).permutation(len(X))
        shuffled = train_unary(dict(enumerate(y[perm].tolist())), unary_sequence(X[perm]))
        assert np.allclose(shuffled.weights, model.weights, rtol=0.0, atol=1e-10)
        assert np.allclose(shuffled.biases, model.biases, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_trust_region_fit(self, seed):
        """``scipy.optimize.minimize`` (trust-exact, gtol 1e-13) on the same
        objective, with the gradient and Hessian written out through ``@``,
        finds the same model to 1e-7 (the differences seen are below 4e-9)."""
        minimize = pytest.importorskip("scipy.optimize").minimize
        X, y = unary_data(seed)
        model = train_unary(dict(enumerate(y.tolist())), unary_sequence(X))
        N, L, D = len(X), model.weights.shape[0], X.shape[1] + 1
        Z = np.hstack([X, np.ones((N, 1))])

        def fun(flat):
            theta = flat.reshape(L, D)
            S = Z @ theta.T
            top = S.max(axis=1, keepdims=True)
            lse = top[:, 0] + np.log(np.exp(S - top).sum(axis=1))
            f = np.mean(lse - S[np.arange(N), y]) + 0.5e-4 * flat @ flat
            return f, logistic_gradient(X, y, UnaryModel(theta[:, :-1], theta[:, -1])).ravel()

        def hess(flat):
            theta = flat.reshape(L, D)
            S = Z @ theta.T
            P = np.exp(S - S.max(axis=1, keepdims=True))
            P /= P.sum(axis=1, keepdims=True)
            H = np.zeros((L, D, L, D))
            for k in range(L):
                for m in range(L):
                    H[k, :, m, :] = (Z * (P[:, k] * ((k == m) - P[:, m]))[:, None]).T @ Z / N
            return H.reshape(L * D, L * D) + 1e-4 * np.eye(L * D)

        ref = minimize(fun, np.zeros(L * D), jac=True, hess=hess, method="trust-exact",
                       options={"gtol": 1e-13}).x.reshape(L, D)
        assert np.abs(model.weights - ref[:, :-1]).max() <= 1e-7
        assert np.abs(model.biases - ref[:, -1]).max() <= 1e-7

    def test_bits_do_not_depend_on_blas_threads(self):
        """A (4592, 16) design of 4 classes fits to the same weight and bias
        bytes under 1 and 2 OpenBLAS threads. Whether the same algebra through
        ``@`` would also keep them depends on the BLAS build: OpenBLAS 0.3.31
        keeps its products at this size single-threaded."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(ctxseg.__file__)))
        code = ("import numpy as np\n"
                "from problem_gen import random_unary_data, unary_sequence\n"
                "from ctxseg.crf import train_unary\n"
                "X, y = random_unary_data(np.random.default_rng(0), 4592, 16, 4, spread=1.0)\n"
                "m = train_unary(dict(enumerate(y.tolist())), unary_sequence(X))\n"
                "print(m.weights.tobytes().hex(), m.biases.tobytes().hex())\n")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           src, here, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


def unary_data(seed):
    """A random training set: 5-299 examples of 1-23 features in 2-5 classes."""
    rng = np.random.default_rng(seed)
    n, d, L = int(rng.integers(5, 300)), int(rng.integers(1, 24)), int(rng.integers(2, 6))
    return random_unary_data(rng, n, d, L, spread=float(rng.uniform(0.05, 2.0)))


def logistic_gradient(X, y, model, lambda_reg=1e-4):
    """Gradient of ``train_unary``'s objective at ``model``, through ``@``."""
    N = len(X)
    Z = np.hstack([X, np.ones((N, 1))])
    theta = np.hstack([model.weights, model.biases[:, None]])
    S = Z @ theta.T
    P = np.exp(S - S.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    P[np.arange(N), y] -= 1.0
    return P.T @ Z / N + lambda_reg * theta



class TestGoldenUnary:
    """The fit held to ``problem_gen.loop_unary_gradient``, its objective's
    gradient summed one example at a time."""

    @pytest.mark.parametrize("seed", range(60))
    def test_edge_shapes_match_loop(self, seed, caplog):
        """N = 1, d = 1, a single class, and a class with a single example, at
        feature scales 0.1 to 10: the fit returns every class without a
        step-cap warning, at a loop gradient max-norm of at most 1e-10."""
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.choice([1, 2, 3, 5, 31, 32, 33, 65]))
        d = int(rng.choice([1, 2, 15, 16, 17]))
        L = min(n, int(rng.integers(1, 4)))
        y = np.zeros(n, dtype=int)
        if L > 1:  # class L - 1 has exactly one example
            y = rng.permutation(np.append(np.arange(n - 1) % (L - 1), L - 1))
        X = rng.standard_normal((n, d)) * float(rng.choice([0.1, 1.0, 10.0]))
        lambda_reg = float(rng.choice([1e-4, 1e-2, 0.1]))
        with caplog.at_level("WARNING"):
            model = train_unary(dict(enumerate(y.tolist())), unary_sequence(X),
                                lambda_reg=lambda_reg)
        assert not caplog.messages
        assert model.weights.shape == (L, d) and model.biases.shape == (L,)
        grad = loop_unary_gradient(X, y, model.weights, model.biases, lambda_reg)
        assert np.abs(grad).max() <= 1e-10

class TestUnaryPotentials:
    def test_certain_class_costs_zero(self):
        seq = seq_with_features([[1.0, 0.0]])
        model = UnaryModel(np.array([[100.0, 0.0], [-100.0, 0.0]]), np.zeros(2))
        psi = unary_potentials(model, seq)
        assert psi[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_probability_floor(self):
        seq = seq_with_features([[1.0, 0.0]])
        model = UnaryModel(np.array([[100.0, 0.0], [-100.0, 0.0]]), np.zeros(2))
        psi = unary_potentials(model, seq)
        assert psi[0, 1] == pytest.approx(-np.log(1e-6), abs=1e-9)
        assert psi[0, 1] == pytest.approx(13.8155, abs=1e-3)

    def test_uniform_probabilities(self):
        seq = seq_with_features([[1.0, 0.0]])
        model = UnaryModel(np.zeros((4, 2)), np.zeros(4))
        psi = unary_potentials(model, seq)
        assert np.allclose(psi[0], np.log(4.0), atol=1e-12)


class TestBetaAdaptive:
    def test_single_score(self):
        scores = scores_from_entries({(0, 1): [(0, 1, 1.0)]}, 3)
        assert beta_adaptive(scores) == 1.0

    def test_mean_of_squares(self):
        scores = scores_from_entries({(0, 1): [(0, 1, 1.0), (1, 2, 1.0)],
                                      (1, 0): [(2, 0, 2.0)]}, 3)
        assert beta_adaptive(scores) == pytest.approx(2.0)

    def test_empty_guard(self):
        assert beta_adaptive({}) == 1.0

    @pytest.mark.parametrize("score", [0.0, -0.0, 1e-200])
    def test_mean_square_of_zero_reads_one(self, score):
        # stored entries, as a scores file holds them (from_dense would drop 0.0)
        M = SparseMatrix(np.array([0, 1]), np.array([1, 2]), np.full(2, score), (3, 3))
        assert beta_adaptive({(0, 1): LinkScoreMatrix(M)}) == 1.0


class TestBuildPairwise:
    def test_zero_score_class_pairs_cost_zero(self):
        scores = scores_from_entries({(1, 2): [(0, 1, 1.0)]}, 2)
        tables = as_dict(build_pairwise(scores, 1.0, 1.0, num_classes=3))
        tbl = tables[(0, 1)]
        assert tbl[1, 2] != 0.0
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 2] = False
        assert np.all(tbl[mask] == 0.0)

    def test_exponent_minus_one_value(self):
        beta = 0.5  # S^2 = 2*beta at S = 1
        scores = scores_from_entries({(0, 1): [(0, 1, 1.0)]}, 2)
        tables = as_dict(build_pairwise(scores, beta, 2.0, num_classes=2))
        assert tables[(0, 1)][0, 1] == pytest.approx(2.0 * (np.exp(-1.0) - 1.0))
        assert tables[(0, 1)][0, 1] == pytest.approx(-0.63212 * 2.0, abs=1e-4)

    def test_edge_arrays_sorted_and_read_in_ab_direction(self):
        scores = scores_from_entries({(0, 1): [(2, 0, 1.0), (1, 3, 0.5), (3, 2, 1.0)],
                                      (1, 0): [(0, 2, 2.0)]}, 4)
        pw = build_pairwise(scores, 1.0, 1.0, num_classes=2)
        assert len(pw) == 2
        assert pw.edges.tolist() == [[0, 2], [1, 3]]
        # (1, 0) stores (0, 2): edge 0, cell (1, 0); (0, 1) stores (1, 3):
        # edge 1, cell (0, 1). (0, 1)'s scores at (2, 0) and (3, 2) run
        # b -> a: they make neither an edge nor a cell
        assert pw.keys.tolist() == [(0 * 2 + 1) * 2 + 0, (1 * 2 + 0) * 2 + 1]
        assert pw.costs.tolist() == [np.exp(-2.0) - 1.0, np.exp(-0.125) - 1.0]
        assert pw.num_classes == 2

    def test_no_scores_give_empty_terms(self):
        pw = build_pairwise({}, 1.0, 1.0, num_classes=3)
        assert len(pw) == 0
        assert pw.edges.shape == (0, 2)
        assert pw.keys.shape == pw.costs.shape == (0,)
        assert pw.num_classes == 3

    @pytest.mark.parametrize("pair", [(0, 3), (2, 0), (-1, 1), (1, 2)])
    def test_class_pair_out_of_range_rejected(self, pair):
        scores = scores_from_entries({pair: [(0, 1, 1.0)]}, 2)
        with pytest.raises(ValueError, match=rf"class pair \({pair[0]}, {pair[1]}\)"):
            build_pairwise(scores, 1.0, 1.0, num_classes=2)

    def test_diagonal_scores_ignored(self):
        scores = scores_from_entries({(0, 1): [(1, 1, 1.0)]}, 3)
        assert as_dict(build_pairwise(scores, 1.0, 1.0, 2)) == {}

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_concatenating_reference(self, seed):
        # class pairs with diagonal entries, with (j, i) entries only, with no
        # entries, or missing; (m, n) and (n, m) both present; lambda_pair 0
        # makes every cost -0.0. The terms are those of the forward entries
        # alone, one cell each, and densify to the reference's bytes
        rng = np.random.default_rng(900 + seed)
        n, L = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        scores = {}
        for m in range(L):
            for nn in range(L):
                kind = int(rng.integers(4))
                if kind == 0:
                    continue
                k = 0 if kind == 1 else int(rng.integers(1, 3 * n))
                row, col = rng.integers(0, n, k), rng.integers(0, n, k)
                if kind == 2:  # on or below the diagonal: (b, a) entries only
                    row, col = np.maximum(row, col), np.minimum(row, col)
                _, first = np.unique(row * n + col, return_index=True)  # each position once
                scores[(m, nn)] = LinkScoreMatrix(SparseMatrix.from_entries(
                    row[first], col[first], rng.uniform(-2.0, 2.0, k)[first], (n, n)))
        beta, lam = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.5, 2.0))
        forward = {}
        for pair, mat in scores.items():
            S = mat.scores
            fwd = S.row < S.col
            forward[pair] = LinkScoreMatrix(
                SparseMatrix.from_entries(S.row[fwd], S.col[fwd], S.data[fwd], S.shape))
        count = sum(s.scores.nnz for s in forward.values())
        for lam in (lam, 0.0):
            got = build_pairwise(scores, beta, lam, L)
            for a, b in zip((got.edges, dense_tables(got)),
                            concat_build_pairwise(forward, beta, lam, L)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            want = build_pairwise(forward, beta, lam, L)
            for a, b in zip((got.edges, got.keys, got.costs),
                            (want.edges, want.keys, want.costs)):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            assert got.keys.shape == got.costs.shape == (count,)
            assert np.all(got.keys[1:] > got.keys[:-1])
        assert np.all(np.signbit(got.costs))  # lambda_pair 0: -0.0 each

    @pytest.mark.parametrize("seed", range(20))
    def test_shift_leaves_minimizers_unchanged(self, seed):
        # literal tables exp(-S^2/2b) vs shifted exp(-S^2/2b) - 1 on the same
        # pair set: brute force both and compare the full minimizer sets
        rng = np.random.default_rng(seed)
        n, L = 4, int(rng.integers(2, 5))
        unary = rng.uniform(0, 3, (n, L))
        from problem_gen import random_scores
        scores = random_scores(rng, n, L)
        beta = beta_adaptive(scores)
        lam = float(rng.uniform(0.5, 2.0))
        shifted = as_dict(build_pairwise(scores, beta, lam, L))
        literal = {k: t + lam for k, t in shifted.items()}
        p_shift = crf_problem(unary, shifted)
        p_lit = crf_problem(unary, literal)

        def minimizers(problem):
            energies = {z: energy(problem, np.array(z))
                        for z in itertools.product(range(L), repeat=n)}
            lo = min(energies.values())
            return {z for z, e in energies.items() if e <= lo + 1e-9}

        assert minimizers(p_shift) == minimizers(p_lit)

    def test_constant_on_single_table_preserves_minimizers(self):
        rng = np.random.default_rng(44)
        n, L = 4, 3
        unary = rng.uniform(0, 3, (n, L))
        pairwise = {(0, 1): rng.normal(size=(L, L)),
                    (1, 2): rng.normal(size=(L, L)),
                    (2, 3): rng.normal(size=(L, L))}
        bumped = dict(pairwise)
        bumped[(1, 2)] = pairwise[(1, 2)] + 7.5

        def minimizers(pw):
            problem = crf_problem(unary, pw)
            energies = {z: energy(problem, np.array(z))
                        for z in itertools.product(range(L), repeat=n)}
            lo = min(energies.values())
            return {z for z, e in energies.items() if e <= lo + 1e-9}

        assert minimizers(pairwise) == minimizers(bumped)


class TestEnergy:
    def test_unary_only(self):
        p = crf_problem(np.array([[1.0, 2.0], [0.5, 3.0]]), {})
        assert energy(p, np.array([0, 0])) == pytest.approx(1.5)
        assert energy(p, np.array([1, 1])) == pytest.approx(5.0)

    def test_hand_table_all_labelings(self):
        psi = np.array([[1.0, 2.0], [3.0, 0.5]])
        tbl = np.array([[0.0, -1.0], [0.25, 0.75]])
        p = crf_problem(psi, {(0, 1): tbl})
        want = {
            (0, 0): 1.0 + 3.0 + 0.0,
            (0, 1): 1.0 + 0.5 - 1.0,
            (1, 0): 2.0 + 3.0 + 0.25,
            (1, 1): 2.0 + 0.5 + 0.75,
        }
        for z, e in want.items():
            assert energy(p, np.array(z)) == pytest.approx(e)

    def test_additive_over_disconnected_components(self):
        rng = np.random.default_rng(4)
        u1 = rng.uniform(0, 3, (3, 3))
        u2 = rng.uniform(0, 3, (2, 3))
        t1 = rng.normal(size=(3, 3))
        t2 = rng.normal(size=(3, 3))
        p1 = crf_problem(u1, {(0, 1): t1})
        p2 = crf_problem(u2, {(0, 1): t2})
        joint = crf_problem(np.vstack([u1, u2]), {(0, 1): t1, (3, 4): t2})
        x1 = np.array([2, 0, 1])
        x2 = np.array([1, 1])
        assert energy(joint, np.concatenate([x1, x2])) == pytest.approx(
            energy(p1, x1) + energy(p2, x2))


class TestQpboFuse:
    def test_identity_proposal(self):
        rng = np.random.default_rng(5)
        p = random_link_problem(rng)
        x = rng.integers(0, p.num_classes, p.n)
        fused = qpbo_fuse(p, x, x.copy())
        assert np.array_equal(fused, x)

    @pytest.mark.parametrize("seed", range(15))
    def test_binary_submodular_fusion_exact(self, seed):
        # attractive link tables are submodular after restriction to two
        # labels whenever the cross options are the rewarded ones; instead
        # force submodularity by construction on random binary tables
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 9))
        unary = rng.uniform(0, 3, (n, 2))
        pairwise = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.7:
                    t = rng.normal(size=(2, 2))
                    gap = t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1]
                    if gap < 0:
                        t[0, 1] += -gap + 0.05
                    pairwise[(a, b)] = t
        p = crf_problem(unary, pairwise)
        current = np.zeros(p.n, dtype=int)
        proposal = np.ones(p.n, dtype=int)
        fused = qpbo_fuse(p, current, proposal)
        assert energy(p, fused) == pytest.approx(brute_force_oracle(p).energy,
                                                 abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_fusion_never_increases_energy(self, seed):
        rng = np.random.default_rng(300 + seed)
        p = random_signed_problem(rng)  # arbitrary sign: nonsubmodular fusions
        for _ in range(5):
            cur = rng.integers(0, p.num_classes, p.n)
            prop = rng.integers(0, p.num_classes, p.n)
            fused = qpbo_fuse(p, cur, prop)
            assert energy(p, fused) <= energy(p, cur) + 1e-9

    def test_adversarial_nonsubmodular_triangle(self):
        # three regions, equal unaries, frustrated pairwise preferences
        anti = np.array([[1.0, -1.0], [-1.0, 1.0]])
        p = crf_problem(np.zeros((3, 2)),
                        {(0, 1): anti, (1, 2): anti, (0, 2): anti})
        cur = np.array([0, 0, 0])
        fused = qpbo_fuse(p, cur, np.array([1, 1, 1]))
        assert energy(p, fused) <= energy(p, cur) + 1e-9


def bits(a):
    """Float array as its bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


def dense_problem(rng, n, L, density=0.5):
    """Mixed-sign tables on a random subset of region pairs; E may be 0."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    return crf_problem(rng.uniform(0.0, 3.0, (n, L)),
                       {e: rng.normal(size=(L, L)) for e in pairs})


class TestFlatGathers:
    """``energy`` and ``qpbo_fuse`` scatter the stored cells; the broadcast
    gathers of ``problem_gen`` over dense tables are the reference, bit for
    bit."""

    @staticmethod
    def fusion_terms(p, current, proposal, monkeypatch):
        """What qpbo_fuse hands the binary solver, or None if it never calls it."""
        seen = []
        network_arcs = crf.network_arcs

        def spy(unary, edges, tables):
            seen.append((np.array(unary), np.array(edges), np.array(tables)))
            return network_arcs(unary, edges, tables)

        monkeypatch.setattr(crf, "network_arcs", spy)
        fused = qpbo_fuse(p, current, proposal)
        monkeypatch.undo()
        assert fused.shape == current.shape
        return seen[0] if seen else None

    def assert_same_terms(self, p, current, proposal, monkeypatch):
        got = self.fusion_terms(p, current, proposal, monkeypatch)
        want = broadcast_fusion_terms(p, current, proposal)
        if want is None:
            assert got is None
            return
        assert got is not None
        for g, w in zip(got, want):
            assert g.shape == w.shape
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(bits(got[2]), bits(want[2]))

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_proposals(self, L, seed, monkeypatch):
        rng = np.random.default_rng(900 + 10 * L + seed)
        p = dense_problem(rng, int(rng.integers(2, 12)), L)
        for _ in range(4):
            current = rng.integers(0, L, p.n)
            proposal = rng.integers(0, L, p.n)
            assert energy(p, current).hex() == broadcast_energy(p, current).hex()
            self.assert_same_terms(p, current, proposal, monkeypatch)

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    @pytest.mark.parametrize("free", ["none", "one", "all"])
    def test_none_one_or_all_free(self, L, free, monkeypatch):
        rng = np.random.default_rng(950 + L)
        p = dense_problem(rng, 7, L, density=0.7)
        current = rng.integers(0, L, p.n)
        proposal = current.copy()
        if free == "one":
            proposal[3] = (current[3] + 1) % L
        elif free == "all":
            proposal = (current + 1 + rng.integers(0, max(L - 1, 1), p.n)) % L
        self.assert_same_terms(p, current, proposal, monkeypatch)

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    def test_no_edges(self, L, monkeypatch):
        rng = np.random.default_rng(970 + L)
        p = crf_problem(rng.uniform(0.0, 3.0, (5, L)), {})
        current, proposal = rng.integers(0, L, 5), rng.integers(0, L, 5)
        assert energy(p, current).hex() == broadcast_energy(p, current).hex()
        self.assert_same_terms(p, current, proposal, monkeypatch)

    @pytest.mark.parametrize("L", [1, 2, 3, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_edges_without_cells(self, L, seed, monkeypatch):
        # edges whose tables are all +0.0 store no cell; -0.0 entries are
        # cells, and a -0.0 unary gains +0.0 from a cell-less edge
        rng = np.random.default_rng(990 + 10 * L + seed)
        n = 8
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.6]
        tables = {}
        for e in pairs:
            kind = int(rng.integers(3))
            tables[e] = (np.zeros((L, L)) if kind == 0 else np.full((L, L), -0.0)
                         if kind == 1 else rng.normal(size=(L, L)) * (rng.random((L, L)) < 0.3))
        unary = rng.uniform(0.0, 3.0, (n, L))
        unary[rng.random((n, L)) < 0.3] = -0.0
        p = crf_problem(unary, tables)
        assert len(p.pairwise.keys) < len(pairs) * L * L
        for _ in range(4):
            current = rng.integers(0, L, n)
            proposal = rng.integers(0, L, n)
            assert energy(p, current).hex() == broadcast_energy(p, current).hex()
            self.assert_same_terms(p, current, proposal, monkeypatch)

    @pytest.mark.parametrize("seed", range(6))
    def test_link_problems_along_inference(self, seed, monkeypatch):
        """Every fusion of an inference run, on production-shaped tables."""
        p = random_link_problem(np.random.default_rng(980 + seed), max_n=12)
        x = p.unary.argmin(axis=1)
        for alpha in range(p.num_classes):
            proposal = np.full(p.n, alpha)
            self.assert_same_terms(p, x, proposal, monkeypatch)
            x = qpbo_fuse(p, x, proposal)


class TestLabelChecks:
    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(12)
        return crf_problem(rng.uniform(0, 3, (2, 3)), {(0, 1): rng.normal(size=(3, 3))})

    @pytest.mark.parametrize("x", [[0, -1], [0, 3], [0], [0, 1, 2], [[0, 1]], [0.0, 1.0]],
                             ids=["minus-one", "L", "short", "long", "2-d", "float"])
    def test_bad_labeling_raises(self, problem, x):
        with pytest.raises(ValueError):
            energy(problem, np.array(x))
        with pytest.raises(ValueError):
            qpbo_fuse(problem, np.array(x), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            qpbo_fuse(problem, np.zeros(2, dtype=int), np.array(x))


def terms(edges, keys, costs, L):
    return PairwiseTerms(np.array(edges), np.array(keys), np.array(costs, dtype=float), L)


NO_EDGES = np.zeros((0, 2), dtype=int)

BAD_PROBLEMS = [
    pytest.param(lambda: (np.zeros(3), terms(NO_EDGES, [], [], 1)), id="unary-1d"),
    pytest.param(lambda: (np.zeros((3, 0)), terms(NO_EDGES, [], [], 0)),
                 id="unary-no-classes"),
    pytest.param(lambda: (np.array([[0.0, np.nan]]), terms(NO_EDGES, [], [], 2)),
                 id="unary-nan"),
    pytest.param(lambda: (np.array([[0.0, np.inf], [1.0, 1.0]]), terms(NO_EDGES, [], [], 2)),
                 id="unary-inf"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [0], [1.0], 3)),
                 id="tables-other-L"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [4], [1.0], 2)),
                 id="tables-other-E"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [[0, 1]], [[1.0, 1.0]], 2)),
                 id="tables-2d"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([0, 1], [], [], 2)), id="edges-1d"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1, 2]], [], [], 2)),
                 id="edges-three-columns"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0.0, 1.0]], [], [], 2)),
                 id="edges-float"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 3]], [], [], 2)), id="edge-end-n"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[-1, 2]], [], [], 2)),
                 id="edge-end-negative"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [3, 1], [1.0, 1.0], 2)),
                 id="keys-unsorted"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [1, 1], [1.0, 2.0], 2)),
                 id="keys-repeated"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [-1], [1.0], 2)),
                 id="keys-negative"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [1.0], [1.0], 2)),
                 id="keys-float"),
    pytest.param(lambda: (np.zeros((3, 2)), terms([[0, 1]], [0, 1], [1.0], 2)),
                 id="costs-short"),
]


class TestProblemChecks:
    @pytest.mark.parametrize("parts", BAD_PROBLEMS)
    def test_bad_shapes_raise(self, parts):
        unary, pairwise = parts()
        with pytest.raises(ValueError):
            CrfProblem(unary, pairwise)

    @pytest.mark.parametrize("cost", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_names_region_and_class_pair(self, cost):
        # a 3-region chain whose unary argmin (1, 2, 0) picks the bad cell:
        # unchecked, NaN made infer return energy nan and +inf failed in the
        # max-flow without naming a term
        table = np.zeros((3, 3))
        table[2, 0] = cost
        unary = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match=r"region pair \(1, 2\) at class pair "
                                             r"\(2, 0\) is not finite"):
            crf_problem(unary, {(0, 1): np.ones((3, 3)), (1, 2): table})

    @pytest.mark.parametrize("n", [0, 4])
    def test_empty_scores_pass(self, n):
        assert CrfProblem(np.zeros((n, 3)), build_pairwise({}, 1.0, 1.0, 3)).n == n

    def test_costs_copied_only_off_the_canonical_dtype(self):
        pw = build_pairwise({}, 1.0, 1.0, 3)
        unary = np.zeros((4, 3))
        assert CrfProblem(unary, pw).unary is unary
        unpickled = pickle.loads(pickle.dumps(unary))
        assert unpickled.dtype is not np.dtype(np.float64)  # equal, but another instance
        p = CrfProblem(unpickled, pw)
        assert p.unary.dtype is np.dtype(np.float64)
        assert np.array_equal(p.unary, unary)

    def test_list_unary_is_stored_as_an_array(self):
        pw = build_pairwise({}, 1.0, 1.0, 2)
        p = CrfProblem([[0.0, 1.0], [1.0, 0.0]], pw)
        assert type(p.unary) is np.ndarray and p.unary.dtype is np.dtype(np.float64)
        assert p.n == 2 and p.num_classes == 2
        assert infer(p).assignment.tolist() == [0, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_pickled_problem_is_canonical_and_infers_bit_for_bit(self, seed):
        p = random_link_problem(np.random.default_rng(700 + seed), max_n=30, max_classes=5)
        q = pickle.loads(pickle.dumps(p))
        assert q.unary.dtype is np.dtype(np.float64)
        assert q.pairwise.costs.dtype is np.dtype(np.float64)
        a, b = infer(p), infer(q)
        assert np.array_equal(a.assignment, b.assignment)
        assert [float(e).hex() for e in a.energy_trace] == [float(e).hex() for e in b.energy_trace]


class TestInfer:
    def test_no_pairwise_gives_unary_argmin(self):
        rng = np.random.default_rng(6)
        unary = rng.uniform(0, 3, (10, 4))
        result = infer(crf_problem(unary, {}))
        assert np.array_equal(result.assignment, unary.argmin(axis=1))
        assert result.energy == pytest.approx(unary.min(axis=1).sum())

    def test_strong_link_resolves_ambiguous_unaries(self):
        # classes: 0 bg, 1 'horse', 2 'person'; both regions equally torn
        # between 1 and 2, the link rewards the joint (1, 2) assignment
        psi = np.array([[5.0, 1.0, 1.0], [5.0, 1.0, 1.0]])
        scores = scores_from_entries({(1, 2): [(0, 1, 1.0)],
                                      (2, 1): [(1, 0, 1.0)]}, 2)
        beta = beta_adaptive(scores)
        p = CrfProblem(psi, build_pairwise(scores, beta, 1.0, 3))
        result = infer(p)
        assert tuple(result.assignment) == (1, 2)
        # 2-node brute force agrees
        assert result.energy == pytest.approx(brute_force_oracle(p).energy)

    @pytest.mark.parametrize("seed", range(25))
    def test_bracketed_by_oracle_and_unary_argmin(self, seed):
        rng = np.random.default_rng(400 + seed)
        p = random_link_problem(rng)
        result = infer(p)
        floor = brute_force_oracle(p).energy
        ceil = energy(p, p.unary.argmin(axis=1))
        assert floor - 1e-9 <= result.energy <= ceil + 1e-9
        # trace is non-increasing
        assert all(b <= a + 1e-9 for a, b in zip(result.energy_trace,
                                                 result.energy_trace[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_energy_evaluated_only_for_changed_labelings(self, seed, monkeypatch):
        p = random_link_problem(np.random.default_rng(450 + seed), max_n=12)
        changed, evaluated = [], []
        fuse, evaluate = crf.qpbo_fuse, crf.energy

        def counted_fuse(problem, current, proposal):
            fused = fuse(problem, current, proposal)
            changed.append(not np.array_equal(fused, current))
            return fused

        def counted_energy(problem, x):
            evaluated.append(True)
            return evaluate(problem, x)

        monkeypatch.setattr(crf, "qpbo_fuse", counted_fuse)
        monkeypatch.setattr(crf, "energy", counted_energy)
        result = infer(p)
        assert len(evaluated) == 1 + sum(changed)
        assert len(result.energy_trace) == 1 + len(changed)
        assert result.energy == evaluate(p, result.assignment)

    @pytest.mark.parametrize("seed", range(20))
    def test_edges_without_cells_change_nothing(self, seed):
        # a cell-less edge adds +0.0 to the energy and to fusion unaries and
        # couples no fusion variables, so inference runs bit for bit
        rng = np.random.default_rng(1300 + seed)
        p = random_link_problem(rng, max_n=12)
        n, L, pw = p.n, p.num_classes, p.pairwise
        pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
        edges = np.unique(np.concatenate([pw.edges, pairs[rng.random(len(pairs)) < 0.4]]),
                          axis=0)
        place = np.flatnonzero((edges[:, None] == pw.edges[None]).all(axis=2).any(axis=1))
        assert len(place) == len(pw)
        keys = place[pw.keys // (L * L)] * (L * L) + pw.keys % (L * L)
        q = CrfProblem(p.unary, PairwiseTerms(edges, keys, pw.costs, L))
        a, b = infer(p), infer(q)
        assert np.array_equal(a.assignment, b.assignment)
        assert [float(e).hex() for e in a.energy_trace] == [float(e).hex() for e in b.energy_trace]
        assert a.energy.hex() == b.energy.hex()

    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_sign_tables_still_bracketed(self, seed):
        rng = np.random.default_rng(500 + seed)
        p = random_signed_problem(rng)
        result = infer(p)
        assert result.energy >= brute_force_oracle(p).energy - 1e-9
        assert result.energy <= energy(p, p.unary.argmin(axis=1)) + 1e-9

    def test_binary_submodular_reaches_exact_optimum(self):
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            n = int(rng.integers(2, 8))
            unary = rng.uniform(0, 3, (n, 2))
            pairwise = {}
            for a in range(n):
                for b in range(a + 1, n):
                    t = rng.normal(size=(2, 2))
                    gap = t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1]
                    if gap < 0:
                        t[0, 1] += -gap + 0.05
                    pairwise[(a, b)] = t
            p = crf_problem(unary, pairwise)
            assert infer(p).energy == pytest.approx(brute_force_oracle(p).energy,
                                                    abs=1e-9)


class TestBruteForce:
    def test_single_region(self):
        p = crf_problem(np.array([[3.0, 1.0, 2.0]]), {})
        result = brute_force_oracle(p)
        assert result.assignment.tolist() == [1]
        assert result.energy == 1.0

    def test_decoupled_product_of_argmins(self):
        unary = np.array([[2.0, 1.0], [0.25, 4.0], [5.0, 0.5]])
        result = brute_force_oracle(crf_problem(unary, {}))
        assert result.assignment.tolist() == [1, 0, 1]

    def test_three_by_three_explicit_enumeration(self):
        rng = np.random.default_rng(8)
        p = crf_problem(rng.uniform(0, 2, (3, 3)),
                        {(0, 1): rng.normal(size=(3, 3)),
                         (1, 2): rng.normal(size=(3, 3))})
        want = min(energy(p, np.array(z))
                   for z in itertools.product(range(3), repeat=3))
        assert brute_force_oracle(p).energy == pytest.approx(want)

    def test_lexicographic_tie_break(self):
        p = crf_problem(np.zeros((3, 2)), {})  # all 8 labelings tie at 0
        assert brute_force_oracle(p).assignment.tolist() == [0, 0, 0]

    def test_size_guard(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_oracle(crf_problem(np.zeros((30, 4)), {}))


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_crf.jsonl")


def golden_cases():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestGoldenInference:
    """Assignments and energy traces (as ``float.hex``) recorded from the
    dict-of-tables implementation that the edge arrays replaced; inference
    must reproduce them bit for bit."""

    @pytest.mark.parametrize("case", golden_cases(),
                             ids=lambda c: f"{c['kind']}-{c['seed']}")
    def test_matches_record(self, case):
        make = {"link": random_link_problem, "signed": random_signed_problem}
        result = infer(make[case["kind"]](np.random.default_rng(case["seed"])))
        assert result.assignment.tolist() == case["assignment"]
        assert [float(e).hex() for e in result.energy_trace] == case["energy_trace"]
