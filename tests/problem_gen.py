"""Seeded random CRF instances shared by the unit and acceptance tests.

``random_link_problem`` mirrors the production path: random sparse link
scores feed ``beta_adaptive`` and ``build_pairwise``, so the pairwise tables
have exactly the shape inference sees. ``random_signed_problem`` draws
arbitrary mixed-sign tables for robustness checks.

Tests write small tables as dicts ``{(a, b): table}``; ``crf_problem`` and
``binary_terms`` turn such a dict into the array form the library takes,
and ``as_dict`` turns built terms back into a dict for reading.

``loop_train_unary`` is the per-example SGD loop that ``crf.train_unary``
replays in chunks; tests hold the library to its bits.
"""

import numpy as np
from scipy import sparse

from ctxseg.crf import CrfProblem, PairwiseTerms, beta_adaptive, build_pairwise
from ctxseg.propagation import LinkScoreMatrix
from ctxseg.regions import Region, VideoSequence


def crf_problem(unary, pairwise):
    """``CrfProblem`` from a unary array and ``{(a, b): L x L table}``, a < b."""
    unary = np.asarray(unary, dtype=float)
    L = unary.shape[1]
    keys = sorted(pairwise)
    return CrfProblem(unary, PairwiseTerms(
        np.array(keys, dtype=int).reshape(-1, 2),
        np.array([pairwise[k] for k in keys], dtype=float).reshape(-1, L, L)))


def binary_terms(pairwise):
    """``{(a, b): 2 x 2 table}`` as the (edges, tables) arrays of the QPBO solver."""
    return (np.array(list(pairwise), dtype=int).reshape(-1, 2),
            np.array(list(pairwise.values()), dtype=float).reshape(-1, 2, 2))


def as_dict(pairwise):
    """``PairwiseTerms`` as ``{(a, b): table}``."""
    return {(int(a), int(b)): t for (a, b), t in zip(pairwise.edges, pairwise.tables)}


def random_scores(rng, n, num_classes, max_pairs=None, max_links=5):
    max_pairs = max_pairs if max_pairs is not None else num_classes * num_classes
    count = int(rng.integers(1, max_pairs + 1))
    chosen = rng.choice(num_classes * num_classes, size=count, replace=False)
    scores = {}
    for lin in sorted(int(c) for c in chosen):
        m, nn = divmod(lin, num_classes)
        mat = np.zeros((n, n))
        for _ in range(int(rng.integers(1, max_links + 1))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                mat[i, j] = rng.uniform(0.1, 2.0)
        if not mat.any():
            continue
        scores[(m, nn)] = LinkScoreMatrix((m, nn), sparse.csr_matrix(mat),
                                          True, 0, 0)
    return scores


def random_link_problem(rng, max_n=8, max_classes=4, lambda_pair=1.0):
    """Instance whose pairwise tables come from the production construction."""
    n = int(rng.integers(2, max_n + 1))
    L = int(rng.integers(2, max_classes + 1))
    unary = rng.uniform(0.0, 3.0, size=(n, L))
    scores = random_scores(rng, n, L)
    beta = beta_adaptive(scores)
    return CrfProblem(unary, build_pairwise(scores, beta, lambda_pair, L))


def random_signed_problem(rng, max_n=8, max_classes=4, density=0.5):
    """Instance with arbitrary mixed-sign pairwise tables."""
    n = int(rng.integers(2, max_n + 1))
    L = int(rng.integers(2, max_classes + 1))
    unary = rng.uniform(0.0, 3.0, size=(n, L))
    pairwise = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                pairwise[(a, b)] = rng.normal(scale=1.0, size=(L, L))
    return crf_problem(unary, pairwise)


def unary_sequence(X):
    """``VideoSequence`` whose region i (frame 0) has feature row i of X."""
    return VideoSequence([Region(i, 0, np.array(row, dtype=float), 1)
                          for i, row in enumerate(X)], [], frame_count=1)


def random_unary_data(rng, n, d, num_classes, spread=1.0):
    """Features around one random mean per class; every class occurs."""
    y = rng.permutation(np.arange(n) % num_classes)
    means = rng.standard_normal((num_classes, d))
    return means[y] + spread * rng.standard_normal((n, d)), y


def loop_train_unary(X, y, num_classes, cfg):
    """Reference one-vs-rest hinge SGD, one Python step per example visit.

    Same draws and arithmetic as ``crf.train_unary`` on regions whose sorted
    ids give rows of X in order; returns (weights, biases).
    """
    N, d = X.shape
    weights = np.zeros((num_classes, d))
    biases = np.zeros(num_classes)
    for c in range(num_classes):
        rng = np.random.default_rng([cfg.seed, c])
        t = np.where(y == c, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        step = 0
        for _ in range(cfg.epochs):
            for i in rng.permutation(N):
                eta = cfg.learning_rate / (1.0 + cfg.learning_rate * cfg.lambda_reg * step)
                step += 1
                decay = 1.0 - eta * cfg.lambda_reg
                if t[i] * (w @ X[i] + b) < 1.0:
                    w = decay * w + eta * t[i] * X[i]
                    b = b + eta * t[i]
                else:
                    w = decay * w
        weights[c] = w
        biases[c] = b
    return weights, biases
