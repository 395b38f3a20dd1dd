"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion. Random instances are fully seeded; the CRF match-rate floor was
pinned by the pre-release calibration run (seed 12345: 486/500 = 0.972).
"""

import itertools
import json
import time

import numpy as np
from problem_gen import (as_dict, binary_terms, crf_problem, random_link_problem,
                         random_scores)

from ctxseg.cli import main as cli_main
from ctxseg.crf import (beta_adaptive, brute_force_oracle, build_pairwise,
                        energy, infer)
from ctxseg.evaluation import iou_per_class
from ctxseg.propagation import propagate_column_pass, propagate_row_pass, resolvent
from ctxseg.qpbo import UNLABELED, solve_binary_pairwise
from ctxseg.regions import Detection, Region, SparseMatrix, VideoSequence
from ctxseg.synthetic import AMBIGUITY_MU
from ctxseg.tracking import SOURCE_DETECTION, associate_trajectories, iou_box

CALIBRATED_MATCH_RATE = 0.972  # 486/500, pre-release run, generator seed 12345


def random_instance(rng):
    """Random k-NN graph operator and sparse link matrix, as in production."""
    n = int(rng.integers(5, 51))
    k = int(rng.integers(1, min(6, n)))
    F = rng.standard_normal((n, 8))
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
    L = W * dinv[:, None] * dinv[None, :]
    O = np.zeros((n, n))
    for _ in range(int(rng.integers(1, 6))):
        i, j = rng.integers(0, n, 2)
        if i != j:
            O[i, j] = 1.0
    return L, O


def two_pass(O, L, mu):
    R = resolvent(SparseMatrix.from_dense(L), mu)
    r = propagate_row_pass(SparseMatrix.from_dense(O), R)
    c = propagate_column_pass(r.matrix, R)
    return c.matrix, r.converged and c.converged


def closed_form(O, L, mu):
    M = np.eye(L.shape[0]) - mu * L
    return (1 - mu) ** 2 * np.linalg.solve(M, np.linalg.solve(M.T, O.T).T)


def test_criterion_1_propagation_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        L, O = random_instance(rng)
        mu = [0.5, 0.9, 0.99][trial % 3]
        got, converged = two_pass(O, L, mu)
        assert converged
        worst = max(worst, float(np.abs(got.toarray() - closed_form(O, L, mu)).max()))
    elapsed = time.time() - t0
    assert worst < 1e-5
    assert elapsed < 10.0
    print(f"\nPASS [criterion 1] oracle equivalence: worst err {worst:.2e} "
          f"on 100 instances in {elapsed:.1f}s")


def test_criterion_2_propagation_invariants():
    rng = np.random.default_rng(43)
    for trial in range(100):
        L, O = random_instance(rng)
        mu = [0.5, 0.9, 0.99][trial % 3]
        # nonnegativity on the instance as drawn
        P, _ = two_pass(O, L, mu)
        assert P.nnz == 0 or P.data.min() >= 0.0
        # symmetry preservation for a symmetric source
        Os = np.maximum(O, O.T)
        Ps, _ = two_pass(Os, L, mu)
        Pd = Ps.toarray()
        assert np.abs(Pd - Pd.T).max() < 1e-9
        # adding a link never decreases any score
        O2 = O.copy()
        free = np.argwhere(O2 == 0)
        i, j = free[int(rng.integers(0, len(free)))]
        if i != j:
            O2[i, j] = 1.0
        P2, _ = two_pass(O2, L, mu)
        assert np.all(P2.toarray() >= P.toarray() - 1e-12)
        # vanishing mixing reproduces the source
        P0, _ = two_pass(O, L, 1e-12)
        assert np.abs(P0.toarray() - O).max() < 1e-9
    print("PASS [criterion 2] propagation invariants on 100 instances")


def test_criterion_3_crf_exactness_floor_and_match_rate():
    rng = np.random.default_rng(12345)  # calibration seed: do not change
    t0 = time.time()
    matches = 0
    for _ in range(500):
        problem = random_link_problem(rng)
        result = infer(problem)
        floor = brute_force_oracle(problem).energy
        ceiling = energy(problem, problem.unary.argmin(axis=1))
        assert result.energy >= floor - 1e-9
        assert result.energy <= ceiling + 1e-9
        trace = result.energy_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        if abs(result.energy - floor) <= 1e-9:
            matches += 1
    elapsed = time.time() - t0
    rate = matches / 500
    assert rate >= 0.90
    assert rate >= CALIBRATED_MATCH_RATE
    assert elapsed < 60.0
    print(f"PASS [criterion 3] exactness floor on 500 problems: match rate "
          f"{rate:.3f} (calibrated {CALIBRATED_MATCH_RATE}) in {elapsed:.1f}s")


def test_criterion_4_qpbo_binary_exactness():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        unary = rng.normal(scale=2.0, size=(n, 2))
        pairwise = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.6:
                    t = rng.normal(scale=1.5, size=(2, 2))
                    gap = t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1]
                    if gap < 0:
                        t[0, 1] += -gap + rng.uniform(0.01, 0.5)
                    pairwise[(a, b)] = t
        z = solve_binary_pairwise(unary, *binary_terms(pairwise))
        assert np.all(z != UNLABELED)
        best, best_e = None, np.inf
        for cand in itertools.product((0, 1), repeat=n):
            e = sum(unary[i, cand[i]] for i in range(n))
            e += sum(t[cand[a], cand[b]] for (a, b), t in pairwise.items())
            if e < best_e:
                best, best_e = cand, e
        assert np.array_equal(z, best)
    print("PASS [criterion 4] QPBO exact on 200 submodular binary instances")


def test_criterion_5_shift_equivalence():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n, L = 4, int(rng.integers(2, 5))
        unary = rng.uniform(0, 3, (n, L))
        scores = random_scores(rng, n, L)
        beta = beta_adaptive(scores)
        lam = float(rng.uniform(0.5, 2.0))
        shifted = as_dict(build_pairwise(scores, beta, lam, L))
        literal = {k: t + lam for k, t in shifted.items()}

        def minimizers(pw):
            p = crf_problem(unary, pw)
            energies = {z: energy(p, np.array(z))
                        for z in itertools.product(range(L), repeat=n)}
            lo = min(energies.values())
            return {z for z, e in energies.items() if e <= lo + 1e-9}

        assert minimizers(shifted) == minimizers(literal)
    print("PASS [criterion 5] shifted and literal pairwise tables share "
          "minimizer sets on 100 problems")


def test_criterion_6_trajectory_semantics():
    # strict confidence gate: 0.5 does not exceed 0.5
    regions = [Region(0, 0, np.array([1.0, 0.0]), 10)]
    dets = [Detection(0, (0, 0, 10, 10), 1, c) for c in (0.4, 0.5, 0.9)]
    seq = VideoSequence(regions, dets)
    from ctxseg.regions import filter_detections
    assert [d.confidence for d in filter_detections(seq, 0.5)] == [0.9]

    # IoU > 0.5 association gate: exactly 0.5 overlap is rejected
    half_box = (0.0, 0.0, 10.0, 5.0)  # IoU with the 10x10 seed box = 0.5
    assert iou_box((0, 0, 10, 10), half_box) == 0.5
    half = [Detection(0, (0, 0, 10, 10), 1, 0.9),
            Detection(1, half_box, 1, 0.8),
            Detection(2, (0, 0, 10, 10), 1, 0.7)]
    hyps = associate_trajectories(half, 3, iou_threshold=0.5)
    assert hyps == []  # the borderline middle link breaks the 3-instance chain

    # worked example: 3-frame chain, seeded at the highest confidence
    chain = [Detection(f, (1.0 * f, 0, 10, 10), 1, c)
             for f, c in [(0, 0.9), (1, 0.8), (2, 0.7)]]
    hyps = associate_trajectories(chain, 3)
    assert len(hyps) == 1
    assert hyps[0].seed_confidence == 0.9
    assert hyps[0].instance_count == 3
    assert all(e.source == SOURCE_DETECTION for e in hyps[0].entries)

    # worked example: two detections cannot form a hypothesis
    two = [Detection(0, (0, 0, 10, 10), 1, 0.9), Detection(1, (0, 0, 10, 10), 1, 0.8)]
    assert associate_trajectories(two, 2) == []

    # worked example: two spatially disjoint tracks stay separate
    a = [Detection(f, (1.0 * f, 0, 10, 10), 1, 0.9 - 0.01 * f) for f in range(3)]
    b = [Detection(f, (100.0 + f, 0, 10, 10), 1, 0.7 - 0.01 * f) for f in range(3)]
    for da in a:
        for db in b:
            assert iou_box(da.bbox, db.bbox) <= 0.5
    hyps = associate_trajectories(a + b, 3)
    assert len(hyps) == 2
    assert all(h.instance_count == 3 for h in hyps)
    print("PASS [criterion 6] trajectory association semantics")


def test_criterion_7_end_to_end_ablation(tmp_path):
    t0 = time.time()
    data = tmp_path / "data"
    assert cli_main(["synth", "--seed", "7", "--out", str(data)]) == 0
    base = ["pipeline", "--regions", str(data / "regions.jsonl"),
            "--detections", str(data / "detections.jsonl"),
            "--gt", str(data / "gt.jsonl"), "--seed", "7",
            "--mu", str(AMBIGUITY_MU)]
    assert cli_main([*base, "--out", str(tmp_path / "full")]) == 0
    assert cli_main([*base, "--out", str(tmp_path / "bare"), "--no-context"]) == 0
    with open(tmp_path / "full" / "report.json") as fh:
        m_full = json.load(fh)["mean"]
    with open(tmp_path / "bare" / "report.json") as fh:
        m_bare = json.load(fh)["mean"]
    elapsed = time.time() - t0
    assert m_full - m_bare >= 0.10
    assert elapsed < 120.0
    print(f"PASS [criterion 7] ablation: full {m_full:.3f} vs no-context "
          f"{m_bare:.3f} (+{(m_full - m_bare) * 100:.1f} pts) in {elapsed:.1f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--seed", "7", "--out", str(data)]) == 0
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert cli_main(["pipeline", "--regions", str(data / "regions.jsonl"),
                         "--detections", str(data / "detections.jsonl"),
                         "--gt", str(data / "gt.jsonl"), "--seed", "7",
                         "--out", str(out)]) == 0
        outs.append(out)
    for name in ("hypotheses.jsonl", "labels.jsonl", "graph.json", "links.jsonl",
                 "scores.jsonl", "labeling.jsonl", "report.json"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], name
    print("PASS [criterion 8] bitwise-identical pipeline outputs across runs")


def test_criterion_9_iou_metric_examples():
    regions = [Region(i, 0, np.array([1.0, 0.0]), a)
               for i, a in enumerate([10, 10, 20])]
    seq = VideoSequence(regions, [])
    identical = iou_per_class({0: 1, 1: 1, 2: 0}, {0: 1, 1: 1, 2: 0}, seq)
    assert identical.per_class_iou[1] == 1.0 and identical.mean_iou == 1.0
    disjoint = iou_per_class({0: 1, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 0}, seq)
    assert disjoint.per_class_iou[1] == 0.0 and disjoint.mean_iou == 0.0
    quarter = iou_per_class({0: 1, 1: 0, 2: 1}, {0: 1, 1: 1, 2: 0}, seq)
    assert quarter.per_class_iou[1] == 0.25 and quarter.mean_iou == 0.25
    print("PASS [criterion 9] IoU metric examples exact")
