"""Seeded random CRF instances shared by the unit and acceptance tests.

``random_link_problem`` mirrors the production path: random sparse link
scores feed ``beta_adaptive`` and ``build_pairwise``, so the pairwise cells
are exactly the ones inference sees. ``random_signed_problem`` draws
arbitrary mixed-sign tables for robustness checks.

Tests write small tables as dicts ``{(a, b): L x L table}``; ``crf_problem``
and ``binary_terms`` turn such a dict into the array form the library takes,
and ``as_dict`` turns built terms back into a dict for reading. The library
keeps its pairwise terms as stored cells; ``terms_from_tables`` and
``dense_tables`` convert between (E, L, L) tables and cells. A table entry
of +0.0 becomes no cell, as an absent cell reads +0.0; every other entry,
-0.0 included, becomes a cell.

``broadcast_energy`` and ``broadcast_fusion_terms`` read the dense tables
through three-array broadcast indexing, where ``crf.energy`` and
``crf.qpbo_fuse`` scatter the stored cells. ``concat_build_pairwise``
concatenates every score entry's five columns before it fills dense tables
in one scatter, where ``crf.build_pairwise`` keys the forward entries once
and writes one cell each. ``list_dinic`` is the max-flow that
``maxflow.MaxFlowGraph`` runs over arrays, and ``loop_knn_edges`` is
the per-row k-NN selection that ``graph.build_knn_graph`` runs over row
blocks; tests hold the library to their bits. ``pool_associate_trajectories``
rescans one list of all unconsumed detections at every visited frame, where
``tracking.associate_trajectories`` reads a per-(frame, class) index; tests
hold it to equal hypotheses. ``normalized_operator`` builds the graph
operator of a given affinity matrix. ``class_loop_iou`` scans every id once
per class, where ``evaluation.iou_per_class`` makes one pass.
``random_unary_data`` and ``unary_sequence`` make training sets for
``crf.train_unary``. ``loop_unary_gradient`` is the gradient of its
objective summed one example at a time; tests hold the fit to a vanishing
gradient and to a SciPy fit of the same objective.

``tiled_sequence`` generates the benchmark's inputs: the ambiguity scenario
repeated in time with clutter. ``dumps_rows`` is the line
``regions.write_rows`` writes, made by one ``json.dumps`` of the whole
document; the graph, links and scores dumps are held to its bytes.
"""

import dataclasses
import json
import math
from collections import deque

import numpy as np

from ctxseg import synthetic
from ctxseg.crf import CrfProblem, PairwiseTerms, beta_adaptive, build_pairwise
from ctxseg.graph import _assemble
from ctxseg.maxflow import EPS
from ctxseg.propagation import LinkScoreMatrix
from ctxseg.regions import Region, SparseMatrix, VideoSequence
from ctxseg.tracking import (SOURCE_DETECTION, SOURCE_TRACKER, TrajectoryEntry,
                             TrajectoryHypothesis, _predict, iou_box)


def terms_from_tables(edges, tables):
    """``PairwiseTerms`` with a cell for every entry of the (E, L, L) tables
    but the +0.0 ones."""
    tables = np.asarray(tables, dtype=float)
    flat = tables.reshape(-1)
    keys = np.flatnonzero(flat.view(np.int64) != 0)  # bits of +0.0 are all zero
    return PairwiseTerms(np.asarray(edges), keys, flat[keys], tables.shape[-1])


def dense_tables(pairwise):
    """The (E, L, L) tables of ``PairwiseTerms``, +0.0 where no cell is stored."""
    L = pairwise.num_classes
    tables = np.zeros((len(pairwise), L, L))
    tables.reshape(-1)[pairwise.keys] = pairwise.costs
    return tables


def crf_problem(unary, pairwise):
    """``CrfProblem`` from a unary array and ``{(a, b): L x L table}``, a < b."""
    unary = np.asarray(unary, dtype=float)
    L = unary.shape[1]
    keys = sorted(pairwise)
    return CrfProblem(unary, terms_from_tables(
        np.array(keys, dtype=int).reshape(-1, 2),
        np.array([pairwise[k] for k in keys], dtype=float).reshape(-1, L, L)))


def binary_terms(pairwise):
    """``{(a, b): 2 x 2 table}`` as the (edges, tables) arrays of the QPBO solver."""
    return (np.array(list(pairwise), dtype=int).reshape(-1, 2),
            np.array(list(pairwise.values()), dtype=float).reshape(-1, 2, 2))


def as_dict(pairwise):
    """``PairwiseTerms`` as ``{(a, b): dense table}``."""
    return {(int(a), int(b)): t for (a, b), t in zip(pairwise.edges, dense_tables(pairwise))}


def broadcast_energy(problem, x):
    """Reference ``crf.energy``: same terms, same summation order."""
    edges, tables = problem.pairwise.edges, dense_tables(problem.pairwise)
    terms = tables[np.arange(len(edges)), x[edges[:, 0]], x[edges[:, 1]]]
    unary = problem.unary[np.arange(problem.n), x].sum()
    return float(np.cumsum(np.concatenate([[unary], terms]))[-1])


def broadcast_fusion_terms(problem, current, proposal):
    """Reference for the binary problem ``crf.qpbo_fuse`` hands to QPBO.

    Returns (unary (f, 2), edges (E', 2), tables (E', 2, 2)) over the free
    variables, f of them, or None when no variable is free.
    """
    free = np.flatnonzero(current != proposal)
    if free.size == 0:
        return None
    pos = np.full(problem.n, -1)
    pos[free] = np.arange(free.size)
    unary = np.stack([problem.unary[free, current[free]],
                      problem.unary[free, proposal[free]]], axis=1)
    edges, tables = problem.pairwise.edges, dense_tables(problem.pairwise)
    options = np.stack([current[edges], proposal[edges]], axis=2)  # (E, 2 ends, 2)
    t = tables[np.arange(len(edges))[:, None, None],
               options[:, 0, :, None], options[:, 1, None, :]]
    pa, pb = pos[edges[:, 0]], pos[edges[:, 1]]
    fa, fb = pa >= 0, pb >= 0
    one = fa != fb
    var = np.where(fa, pa, pb)[one]
    np.add.at(unary, (var, 0), t[one, 0, 0])
    np.add.at(unary, (var, 1), np.where(fa, t[:, 1, 0], t[:, 0, 1])[one])
    both = fa & fb
    return unary, np.stack([pa, pb], axis=1)[both], t[both]


def concat_build_pairwise(scores, beta, lambda_pair, num_classes):
    """Reference ``crf.build_pairwise`` as (edges, dense tables): all entries'
    columns concatenated. Every off-diagonal entry makes an edge, so it matches
    ``build_pairwise`` on scores that hold forward (i < j) entries only."""
    empty = np.zeros(0, dtype=int)
    parts = [(empty,) * 5]  # i, j, score, m, n of every off-diagonal entry
    for (m, n), mat in scores.items():
        S = mat.scores
        off = S.row != S.col
        k = int(off.sum())
        parts.append((S.row[off], S.col[off], S.data[off],
                      np.full(k, m), np.full(k, n)))
    i, j, s, m, n = (np.concatenate(col) for col in zip(*parts))
    size = max((mat.scores.shape[1] for mat in scores.values()), default=1)
    keys, edge = np.unique(np.minimum(i, j).astype(np.int64) * size + np.maximum(i, j),
                           return_inverse=True)
    tables = np.zeros((len(keys), num_classes, num_classes))
    fwd = i < j
    s = s[fwd]
    tables[edge[fwd], m[fwd], n[fwd]] = lambda_pair * (np.exp(-(s * s) / (2.0 * beta)) - 1.0)
    return np.stack([keys // size, keys % size], axis=1), tables


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
        scores[(m, nn)] = LinkScoreMatrix(SparseMatrix.from_dense(mat))
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
                          for i, row in enumerate(X)], [])


def random_unary_data(rng, n, d, num_classes, spread=1.0):
    """Features around one random mean per class; every class occurs."""
    y = rng.permutation(np.arange(n) % num_classes)
    means = rng.standard_normal((num_classes, d))
    return means[y] + spread * rng.standard_normal((n, d)), y


def loop_unary_gradient(X, y, weights, biases, lambda_reg):
    """Gradient of ``crf.train_unary``'s objective (the mean cross-entropy of
    a softmax over ``w_k x + b_k`` plus ``lambda_reg / 2`` times the squared
    ``[W b]``) at (weights, biases), one Python pass per example; returns the
    (L, d + 1) gradient with respect to ``[W b]``."""
    grad = np.zeros((len(biases), X.shape[1] + 1))
    for x, label in zip(X, y):
        scores = [float(w @ x) + b for w, b in zip(weights, biases)]
        top = max(scores)
        e = [math.exp(s - top) for s in scores]
        total = sum(e)
        for k, ek in enumerate(e):
            grad[k, :-1] += (ek / total - (k == label)) * x
            grad[k, -1] += ek / total - (k == label)
    return grad / len(X) + lambda_reg * np.column_stack([weights, biases])


def loop_knn_edges(F, k):
    """Reference k-NN edge set ``{(a, b): w}``, a < b, one ``np.lexsort`` per row.

    Same unit-length rule (each row divided by ``math.sqrt(f.dot(f))`` unless
    that is 0 or within 1e-9 of 1), Gram matrix, clamping, tie rule (smaller
    index first) and weights ``max(G[a, b], G[b, a])`` as
    ``graph.build_knn_graph``.
    """
    F = np.array(F, dtype=float)
    for f in F:
        norm = math.sqrt(f.dot(f))
        if norm != 0.0 and abs(norm - 1.0) >= 1e-9:
            f /= norm
    n = len(F)
    k = min(k, n - 1)
    G = F @ F.T
    np.clip(G, 0.0, 1.0, out=G)
    np.fill_diagonal(G, -1.0)
    chosen = set()
    idx = np.arange(n)
    for i in range(n):
        row = G[i]
        for j in np.lexsort((idx, -row))[:k]:  # value desc, then smaller index
            if row[j] > 0.0:
                chosen.add((min(i, int(j)), max(i, int(j))))
    return {(a, b): float(max(G[a, b], G[b, a])) for a, b in sorted(chosen)}


def normalized_operator(W):
    """D^{-1/2} W D^{-1/2} of a symmetric nonnegative W with zero diagonal.

    Rows and columns of isolated vertices (zero degree) stay all zero.
    """
    i, j = np.nonzero(np.triu(W, k=1))
    return _assemble(W.shape[0], 0, i, j, W[i, j]).operator


class ListDinic:
    """Dinic over Python lists: every BFS and DFS step scans a vertex's arcs."""

    def __init__(self, n, tails, heads, caps):
        self.n = n
        tails, heads = np.asarray(tails, dtype=int), np.asarray(heads, dtype=int)
        self.to = np.stack([heads, tails], axis=1).ravel().tolist()
        self.cap = np.stack(
            [np.asarray(caps, dtype=float), np.zeros(len(tails))], axis=1).ravel().tolist()
        start = np.stack([tails, heads], axis=1).ravel()
        order = np.argsort(start, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(start, minlength=n)).tolist()
        self.adj = [order[lo:hi] for lo, hi in zip([0] + bounds, bounds)]

    def _bfs_levels(self, s, t):
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > EPS and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _blocking_flow(self, s, t):
        total = 0.0
        it = [0] * self.n
        path = []
        u = s
        while True:
            if u == t:
                bottleneck = min(self.cap[eid] for eid in path)
                for eid in path:
                    self.cap[eid] -= bottleneck
                    self.cap[eid ^ 1] += bottleneck
                total += bottleneck
                cut = next(i for i, e in enumerate(path) if self.cap[e] <= EPS)
                del path[cut:]
                u = s if not path else self.to[path[-1]]
                continue
            advanced = False
            while it[u] < len(self.adj[u]):
                eid = self.adj[u][it[u]]
                v = self.to[eid]
                if self.cap[eid] > EPS and self.level[v] == self.level[u] + 1:
                    path.append(eid)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                return total
            self.level[u] = -1
            eid = path.pop()
            u = self.to[eid ^ 1]
            it[u] += 1

    def max_flow(self, s, t):
        flow = 0.0
        while self._bfs_levels(s, t):
            flow += self._blocking_flow(s, t)
        return flow

    def source_side(self, s):
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > EPS and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen


def list_dinic(n, tails, heads, caps, s, t):
    """Reference max-flow: (flow, residual caps by arc id, source side), as lists."""
    g = ListDinic(n, tails, heads, caps)
    flow = g.max_flow(s, t)
    return flow, g.cap, g.source_side(s)


def pool_associate_trajectories(dets, frame_count, iou_threshold=0.5, min_instances=3,
                                max_miss=5):
    """Reference ``tracking.associate_trajectories``: the unconsumed detections
    are one rank-ordered pool, scanned whole at every visited frame; a seed
    leaves it by ``pop(0)`` and an absorbed detection by ``remove``."""
    pool = sorted(dets, key=lambda d: (-d.confidence, d.frame, d.bbox[0], d.bbox[1],
                                       d.class_id))
    retained = []
    while len(pool) >= min_instances:
        seed = pool.pop(0)
        entries = {seed.frame: TrajectoryEntry(seed.frame, seed.bbox, SOURCE_DETECTION)}
        for direction in (1, -1):
            prev, last = None, (seed.frame, seed.bbox)
            misses = 0
            f = seed.frame + direction
            while 0 <= f < frame_count and misses < max_miss:
                pred = _predict(prev, last, f)
                best = None
                best_key = None
                for d in pool:
                    if d.frame != f or d.class_id != seed.class_id:
                        continue
                    ov = iou_box(pred, d.bbox)
                    if ov <= iou_threshold:
                        continue
                    key = (-ov, -d.confidence, d.bbox[0], d.bbox[1])
                    if best_key is None or key < best_key:
                        best, best_key = d, key
                if best is not None:
                    entries[f] = TrajectoryEntry(f, best.bbox, SOURCE_DETECTION)
                    pool.remove(best)
                    prev, last = last, (f, best.bbox)
                    misses = 0
                else:
                    entries[f] = TrajectoryEntry(f, pred, SOURCE_TRACKER)
                    misses += 1
                f += direction
        hyp = TrajectoryHypothesis(seed.class_id, [entries[f] for f in sorted(entries)],
                                   seed.confidence)
        if hyp.instance_count >= min_instances:
            retained.append(hyp)
    return retained


def tiled_sequence(seed, repeats, background, drop=()):
    """Sequence and ground truth of ``ambiguity_scenario(seed)`` repeated
    ``repeats`` times in time with ``background`` clutter regions per frame:
    (200, 2, 4) is the ``ctx-mu95`` benchmark input, (200, 2, 20) ``files-bare``.
    The objects of the classes in ``drop`` are left out."""
    base = synthetic.ambiguity_scenario(seed)
    span = base.frame_count
    objects = [dataclasses.replace(obj, start_frame=obj.start_frame + r * span,
                                   end_frame=obj.end_frame + r * span)
               for r in range(repeats) for obj in base.objects if obj.class_id not in drop]
    return synthetic.generate(dataclasses.replace(
        base, frame_count=repeats * span, objects=objects,
        background_regions_per_frame=background))


def dumps_rows(head, key, columns):
    """Reference ``regions.write_rows``: the whole document in one ``json.dumps``,
    every row a Python list."""
    rows = list(zip(*(np.asarray(c).tolist() for c in columns)))
    return json.dumps({**head, key: rows}) + "\n"


def class_loop_iou(pred, gt, seq, background=0):
    """Reference per-class IoU of ``evaluation.iou_per_class``: one scan of
    every id per class, summing areas as Python ints."""
    ids = set(pred) | set(gt)
    classes = sorted((set(pred.values()) | set(gt.values())) - {background})
    per_class = {}
    for c in classes:
        inter = union = 0
        for rid in ids:
            p, g = pred.get(rid) == c, gt.get(rid) == c
            if p or g:
                area = seq.region(rid).area
                union += area
                inter += area if p and g else 0
        per_class[c] = inter / union if union > 0 else 0.0
    return per_class
