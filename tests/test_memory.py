"""Traced memory of the CRF's unary training, pairwise assembly, one fusion
move and the stage dumps.

The problem is the benchmark's ``ctx-mu95`` shape: the ambiguity scenario of
seed 200 twice in a row with 4 clutter regions per frame (n = 314), scored at
mu = 0.95 (E = 23544 region pairs, L = 4, 33048 stored cells). ``tracemalloc``
counts what NumPy and Python allocate, so the peaks are deterministic for a
given NumPy build. Each function runs once before it is traced, so modules
that NumPy imports on a first call do not count. Each peak bound sits 10-15 %
above the measured peak (2.04 MiB and 3.24 MiB). A builder that also keys the
backward score entries peaks at 3.48 MiB, one that concatenates five columns
of every score entry at 9.4 MiB, and one that fills (E, L, L) tables at
4.37 MiB; a fusion that keeps its binary terms next to the flow network while
the network sorts its arcs, at 4.74 MiB, and one that also keeps its E-sized
index arrays, its arc lists next to their concatenation and a stored tail
array through the max-flow, at 9.8 MiB. The built terms take 0.91 MB as edges
plus cells.

Unary training on the ``files-bare`` input's labels (N = 1058 labeled
regions, d = 16) peaks at 7.9 (N+1) d doubles (1.02 MiB). With the bias as a
weight column d, its (N+1, d+1) buffers peaked at 9.3.

A dump writes its rows a block of ``regions.WRITE_ROWS`` at a time. Scores of
one 300k-entry class pair dump in 1.7 MiB, and the graph of the
``files-bare`` input (n = 1178, 17748 edges) in 2.2 MiB; one ``json.dumps``
of the whole document, its rows as Python lists, takes 63 MiB and 5.8 MiB.
"""

import tracemalloc

import numpy as np
import pytest
from problem_gen import tiled_sequence

from ctxseg import crf, graph, pipeline, propagation, tracking
from ctxseg.pipeline import PipelineConfig
from ctxseg.regions import SparseMatrix

MIB = 2 ** 20


@pytest.fixture(scope="module")
def ctx_problem():
    seq, _ = tiled_sequence(200, 2, 4)
    cfg = PipelineConfig(mu=0.95, seed=200)
    frames, labels = tracking.annotated_frames(pipeline.tracks_stage(seq), seq)
    links = pipeline.links_stage(seq, frames, labels)
    g = graph.build_knn_graph(seq, cfg.k)
    scores = propagation.predict_all_links(links, g.operator, cfg.mu)
    model = crf.train_unary(labels, seq, seed=pipeline.stage_seed(cfg.seed, "unary"))
    unary = crf.unary_potentials(model, seq)
    return scores, crf.beta_adaptive(scores), cfg.lambda_pair, unary


def traced_peak(fn, *args):
    """Peak bytes traced while a warm ``fn(*args)`` runs, above what it started with."""
    fn(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_build_pairwise_peak(ctx_problem):
    scores, beta, lambda_pair, unary = ctx_problem
    L = unary.shape[1]
    assert len(crf.build_pairwise(scores, beta, lambda_pair, L)) == 23544
    assert traced_peak(crf.build_pairwise, scores, beta, lambda_pair, L) < 2.3 * MIB


def test_pairwise_terms_bytes(ctx_problem):
    scores, beta, lambda_pair, unary = ctx_problem
    pw = crf.build_pairwise(scores, beta, lambda_pair, unary.shape[1])
    arrays = [v for v in vars(pw).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 1.2e6
    assert len(pw.keys) == 33048


def test_largest_fusion_peak(ctx_problem):
    # from the unary argmin, proposal class 3 frees 304 of the 314 regions:
    # the largest fusion of the run's first sweep
    scores, beta, lambda_pair, unary = ctx_problem
    problem = crf.CrfProblem(unary, crf.build_pairwise(scores, beta, lambda_pair,
                                                       unary.shape[1]))
    current = np.argmin(unary, axis=1)
    proposal = np.full(problem.n, 3)
    assert np.count_nonzero(current != proposal) == 304
    assert traced_peak(crf.qpbo_fuse, problem, current, proposal) < 3.55 * MIB


def test_train_unary_peak():
    # the arrays train_unary's docstring lists (X, t x as given, permuted and
    # times eta, A and T) are six (N+1) d arrays, seven while a new epoch's
    # rows replace the last one's; 8.5 leaves room for the N-sized vectors
    seq, _ = tiled_sequence(200, 2, 20)
    _, labels = tracking.annotated_frames(pipeline.tracks_stage(seq), seq)
    N, d = len(labels), seq.feature_matrix().shape[1]
    assert (N, d) == (1058, 16)
    peak = traced_peak(lambda: crf.train_unary(labels, seq, epochs=3))
    assert peak < 8.5 * (N + 1) * d * 8


def test_dump_scores_peak(tmp_path):
    n = 600
    rng = np.random.default_rng(0)
    at = np.flatnonzero(rng.random(n * n) < 300_000 / (n * n))
    scores = {(1, 2): propagation.LinkScoreMatrix(
        SparseMatrix(at // n, at % n, rng.random(at.size), (n, n)))}
    assert scores[(1, 2)].scores.nnz == 300221
    assert traced_peak(propagation.dump_scores, scores, tmp_path / "scores.jsonl") < 3 * MIB


def test_dump_graph_peak(tmp_path):
    seq, _ = tiled_sequence(200, 2, 20)
    g = graph.build_knn_graph(seq, PipelineConfig().k)
    assert (g.n, g.affinity.nnz // 2) == (1178, 17748)
    assert traced_peak(graph.dump_graph, g, tmp_path / "graph.json") < 3 * MIB
