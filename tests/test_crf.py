import itertools
import json
import os
import pickle
import time

import numpy as np
import pytest

from problem_gen import (as_dict, broadcast_energy, broadcast_fusion_terms,
                         concat_build_pairwise, crf_problem, dense_tables, loop_train_unary,
                         random_link_problem, random_signed_problem, random_unary_data,
                         unary_sequence)

from ctxseg import crf
from ctxseg.crf import (CrfProblem, PairwiseTerms, UnaryModel, beta_adaptive,
                        brute_force_oracle, build_pairwise, energy, infer,
                        qpbo_fuse, train_unary, unary_potentials)
from ctxseg.propagation import LinkScoreMatrix
from ctxseg.regions import Region, SparseMatrix, VideoSequence

GOLDEN_UNARY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_unary.jsonl")


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
        model = train_unary(labeled, seq, epochs=100, seed=1)
        pred = model.probabilities(seq.feature_matrix()).argmax(axis=1)
        assert np.array_equal(pred, [i % 2 for i in range(10)])

    def test_single_example_per_class_at_poles(self):
        seq = seq_with_features([[1.0, 0.0], [-1.0, 0.0]])
        model = train_unary({0: 0, 1: 1}, seq)
        probs = model.probabilities(seq.feature_matrix())
        assert probs[0, 0] > 0.5
        assert probs[1, 1] > 0.5

    def test_seeded_training_bitwise_deterministic(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((12, 4))
        F /= np.linalg.norm(F, axis=1, keepdims=True)
        seq = seq_with_features(F.tolist())
        labeled = {i: i % 3 for i in range(12)}
        m1 = train_unary(labeled, seq, epochs=30, seed=9)
        m2 = train_unary(labeled, seq, epochs=30, seed=9)
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


def golden_unary_cases():
    with open(GOLDEN_UNARY, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def unary_fit(X, y, num_classes, cfg):
    """``train_unary``'s weights and biases; its classes run to the largest
    label, which every case here makes ``num_classes`` - 1."""
    model = train_unary(dict(enumerate(np.asarray(y).tolist())), unary_sequence(X), **cfg)
    assert len(model.biases) == num_classes
    return model.weights, model.biases


def assert_matches_loop(X, y, num_classes, cfg):
    weights, biases = unary_fit(X, y, num_classes, cfg)
    ref_w, ref_b = loop_train_unary(X, y, num_classes, **cfg)
    assert weights.tobytes() == ref_w.tobytes()
    assert biases.tobytes() == ref_b.tobytes()


def oracle_dataset(seed):
    """Random training set; by seed mod 4, also features spanning 1e-6..1e6,
    near-duplicate rows (last-bit changes), or features on a grid of thirds
    without decay, whose margins often land on the hinge up to rounding."""
    rng = np.random.default_rng(1000 + seed)
    n, d, L = int(rng.integers(5, 300)), int(rng.integers(1, 24)), int(rng.integers(2, 6))
    X, y = random_unary_data(rng, n, d, L, spread=float(rng.uniform(0.05, 2.0)))
    lambda_reg = float(rng.choice([0.0, 1e-4, 1e-2]))
    if seed % 4 == 1:
        X *= 10.0 ** rng.uniform(-6.0, 6.0, size=X.shape)
    elif seed % 4 == 2:
        src, dst = rng.integers(0, n, size=(2, n // 2))
        X[dst] = np.nextafter(X[src], np.where(rng.random((n // 2, d)) < 0.5, -np.inf, np.inf))
    elif seed % 4 == 3:
        X = rng.integers(-2, 3, size=X.shape) / 3.0
        lambda_reg = 0.0
    cfg = dict(epochs=int(rng.integers(1, 25)),
               learning_rate=float(rng.choice([0.1, 0.3, 0.5, 2.0])),
               lambda_reg=lambda_reg, seed=seed)
    return X, y, L, cfg


class TestGoldenUnary:
    """Weights and biases (as ``float.hex``) recorded from the per-example SGD
    loop that the chunked replay replaced; training must reproduce them."""

    @pytest.mark.parametrize("case", golden_unary_cases(), ids=lambda c: f"seed{c['seed']}")
    def test_matches_record(self, case):
        X, y = random_unary_data(np.random.default_rng(case["seed"]), case["n"], case["d"],
                                 case["num_classes"], case["spread"])
        cfg = dict(epochs=case["epochs"], learning_rate=case["learning_rate"],
                   lambda_reg=case["lambda_reg"], seed=case["seed"])
        weights, biases = unary_fit(X, y, case["num_classes"], cfg)
        assert [[float(v).hex() for v in row] for row in weights] == case["weights"]
        assert [float(v).hex() for v in biases] == case["biases"]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_example_loop(self, seed):
        X, y, L, cfg = oracle_dataset(seed)
        weights, biases = unary_fit(X, y, L, cfg)
        ref_w, ref_b = loop_train_unary(X, y, L, **cfg)
        assert weights.tobytes() == ref_w.tobytes()
        assert biases.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("seed", range(40))
    def test_first_decay_below_minus_one_matches_loop(self, seed):
        """learning_rate * lambda_reg > 2 (train_unary allows it) makes the
        first decay 1 - lr lam < -1; the weights are zero at that step, so the
        bound on the weights still only grows at violations."""
        X, y, L, cfg = oracle_dataset(seed)
        rng = np.random.default_rng(3000 + seed)
        cfg["learning_rate"] = float(rng.choice([30.0, 50.0, 4.0]))
        cfg["lambda_reg"] = float(rng.choice([0.1, 1.0]))
        assert_matches_loop(X, y, L, cfg)

    @pytest.mark.parametrize("seed", range(60))
    def test_edge_shapes_match_loop(self, seed):
        """N = 1 (every step ends an epoch; the first one violates, so the
        update is carried into the next epoch), d = 1, N around the smallest
        chunk, one epoch, and a class with a single positive example. In 25
        of the seeds N > 1 and some epoch but the last ends on a violation."""
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.choice([1, 2, 3, 5, 31, 32, 33, 65]))
        d = int(rng.choice([1, 2, 15, 16, 17]))
        L = min(n, int(rng.integers(1, 4)))
        y = np.zeros(n, dtype=int)
        if L > 1:  # class L - 1 has exactly one example
            y = rng.permutation(np.append(np.arange(n - 1) % (L - 1), L - 1))
        X = rng.standard_normal((n, d)) * float(rng.choice([0.1, 1.0, 10.0]))
        cfg = dict(epochs=int(rng.choice([1, 1, 2, 3, 8])),
                   learning_rate=float(rng.choice([0.1, 0.5, 2.0, 30.0])),
                   lambda_reg=float(rng.choice([0.0, 1e-4, 1e-2, 0.1])), seed=seed)
        assert_matches_loop(X, y, L, cfg)

    @pytest.mark.parametrize("seed,scale", [(0, 1e3), (80, 1e3), (0, 1e-8), (4, 1e-8)])
    def test_near_tie_matches_loop(self, seed, scale):
        """Features on a grid of thirds times ``scale``, no decay, d = 15: many
        margins are exactly 1 in real arithmetic and off by rounding."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        X = rng.integers(-2, 3, size=(n, 15)) / 3.0 * scale
        y = rng.permutation(np.arange(n) % 2)
        cfg = dict(epochs=int(rng.integers(1, 12)), learning_rate=0.5,
                   lambda_reg=0.0, seed=seed)
        assert_matches_loop(X, y, 2, cfg)

    @pytest.mark.parametrize("d", [1, 2, 15, 16, 17, 64])
    def test_strided_vecdot_is_the_loops_dot(self, d):
        """The margins rest on this: ``np.vecdot`` of trajectory rows (row
        stride d, d contiguous columns) against the rows ``t x`` gives each
        row's ``t (w @ x)`` bit for bit, at every magnitude."""
        rng = np.random.default_rng(d)
        t = rng.choice([-1.0, 1.0], size=200)
        for scale in 10.0 ** np.arange(-8, 4):
            traj = rng.standard_normal((200, d)) * scale
            X = rng.standard_normal((200, d)) * 10.0 ** rng.uniform(-8, 3, (200, 1))
            per_row = [ti * (w @ x) for ti, w, x in zip(t, traj, X)]
            assert np.vecdot(traj, t[:, None] * X).tobytes() == np.array(per_row).tobytes()

    def test_above_chunk_cap_matches_loop(self):
        """N = 4200 examples of d = 16 exceed the largest chunk, 4096 steps at
        d = 16: with the module's own constants, each class's chunks grow to
        that cap in epoch two."""
        X, y = random_unary_data(np.random.default_rng(0), 4200, 16, 3, spread=0.1)
        assert crf._CHUNK_CELLS // 16 == 4096
        assert_matches_loop(X, y, 3, dict(epochs=2, learning_rate=0.5, lambda_reg=1e-4,
                                          seed=0))

    @pytest.mark.parametrize("seed", range(8))
    def test_chunk_size_does_not_change_weights(self, seed, monkeypatch):
        """Chunks of one step, and chunks of a whole epoch, train the weights
        of the default chunk policy."""
        X, y, L, cfg = oracle_dataset(seed)
        want = unary_fit(X, y, L, cfg)
        for chunk_min, chunk_cells in [(1, 1), (len(X), 1)]:
            monkeypatch.setattr(crf, "_CHUNK_MIN", chunk_min)
            monkeypatch.setattr(crf, "_CHUNK_CELLS", chunk_cells)
            got = unary_fit(X, y, L, cfg)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("field,value", [
        ("epochs", -1), ("learning_rate", 0.0), ("learning_rate", -0.5),
        ("learning_rate", float("inf")), ("learning_rate", float("nan")),
        ("lambda_reg", -0.01), ("lambda_reg", float("inf")), ("lambda_reg", float("nan"))])
    def test_invalid_config_rejected(self, field, value):
        X = np.eye(3)
        cfg = dict(epochs=3, learning_rate=50.0, lambda_reg=0.1)
        cfg[field] = value
        with pytest.raises(ValueError, match=f"{field}.*got .*{field}={value}"):
            unary_fit(X, [0, 1, 1], 2, cfg)

    def test_exact_hinge_tie_does_not_update(self):
        """Unit features, eta = 0.5, no decay: sums are exact. Epoch one updates
        at every step (w = t / 2; b = 1/2 for class 0, -1/2 for class 1). With
        seed 3 epoch two visits example 0 first for class 0 and example 1
        first for class 1, where t (w x + b) = 1/2 + 1/2 = 1 exactly: the
        hinge holds with equality, so the step must not update. The two later
        steps of epoch two update as worked out below."""
        X = np.eye(3)
        y = [0, 0, 1]
        cfg = dict(epochs=2, learning_rate=0.5, lambda_reg=0.0, seed=3)
        weights, biases = unary_fit(X, y, 2, cfg)
        # class 0, epoch two order (0, 2, 1): tie; margin 0 -> w2 = -1, b = 0;
        # margin 1/2 -> w1 = 1, b = 1/2.  class 1, order (1, 2, 0): tie;
        # margin 0 -> w2 = 1, b = 0; margin 1/2 -> w0 = -1, b = -1/2.
        assert weights.tolist() == [[0.5, 1.0, -1.0], [-1.0, -0.5, 1.0]]
        assert biases.tolist() == [0.5, -0.5]
        ref_w, ref_b = loop_train_unary(X, np.array(y), 2, **cfg)
        assert weights.tobytes() == ref_w.tobytes() and biases.tobytes() == ref_b.tobytes()


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
