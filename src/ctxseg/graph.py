"""Symmetric k-NN affinity graph over regions and its normalized operator.

Edge weights are inner products of the region features scaled to unit
length, clamped to be nonnegative. The propagation operator, D^{-1/2} W
D^{-1/2}, is the degree-normalized affinity; its spectrum lies in [-1, 1].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .regions import (IngestError, SparseMatrix, VideoSequence, _entries, _int,
                      _iter_records, write_rows)

log = logging.getLogger(__name__)

SELECT_ROWS = 64     # rows per block of the top-k selection


@dataclass
class SimilarityGraph:
    n: int
    k: int
    affinity: SparseMatrix           # W, symmetric, zero diagonal
    operator: SparseMatrix           # D^{-1/2} W D^{-1/2}


def _assemble(n: int, k: int, i: np.ndarray, j: np.ndarray,
              w: np.ndarray) -> SimilarityGraph:
    """Build W and its normalized operator from undirected edges i < j.

    The edges may come in any order, each pair once. Both matrix entries of
    an edge are written from the same scalar, so W and the operator are
    exactly symmetric.
    """
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    W = SparseMatrix(rows, cols, np.concatenate([w, w])[order], (n, n))
    start = np.flatnonzero(np.diff(rows, prepend=-1))  # first entry of each row
    degrees = np.zeros(n)
    degrees[rows[start]] = np.add.reduceat(W.data, start)  # as scipy's csr.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(degrees)
    dinv[~np.isfinite(dinv)] = 0.0
    lv = w * dinv[i] * dinv[j]
    L = SparseMatrix(rows, cols, np.concatenate([lv, lv])[order], (n, n))
    return SimilarityGraph(n=n, k=k, affinity=W, operator=L)


def _proposals(G: np.ndarray, k: int) -> np.ndarray:
    """Sorted distinct keys ``min(a, b) n + max(a, b)`` of the proposals a -> b.

    ``G`` is the clipped Gram matrix with -1 on its diagonal. Row a proposes
    its k largest values that are positive; ties at the k-th value go to the
    smaller index, so no row proposes more than k. Rows are read in blocks of
    ``SELECT_ROWS``, so the temporaries are O(SELECT_ROWS n) next to the
    n k keys. No view of ``G`` outlives the call.
    """
    n = len(G)
    keys = np.empty(n * k, dtype=np.int64)
    count = 0
    for r in range(0, n, SELECT_ROWS):
        block = G[r:r + SELECT_ROWS]
        kth = np.partition(block, n - k, axis=1)[:, [n - k]]  # k-th largest, a copy
        keep = block >= kth
        # a row with more than k such values has ties at the k-th: of the tied
        # values keep the ones with smaller indices
        over = np.flatnonzero(keep.sum(axis=1) > k)
        if over.size:
            sub, cut = block[over], kth[over]
            tied = sub == cut
            room = k - (sub > cut).sum(axis=1, keepdims=True)
            keep[over] = (sub > cut) | (tied & (np.cumsum(tied, axis=1) <= room))
        keep &= block > 0.0
        a, b = np.nonzero(keep)
        a += r
        keys[count:count + a.size] = np.minimum(a, b) * n + np.maximum(a, b)
        count += a.size
    keys = keys[:count]
    keys.sort()
    first = np.ones(count, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def build_knn_graph(seq: VideoSequence, k: int) -> SimilarityGraph:
    """k-nearest-neighbor similarity graph over all regions of a sequence.

    Each feature is first divided by its norm, ``np.sqrt(np.vecdot(f, f))``,
    unless it is all zero or already unit within 1e-9: the graph is the one
    stage that needs unit features. Each vertex proposes edges to its k
    largest-inner-product neighbors (ties at the cutoff go to the smaller
    vertex index); the edge set is the union of the directed proposals.
    Negative inner products are clamped to zero and zero-weight edges are
    dropped, so degenerate (all-zero) features end up isolated.

    The Gram matrix is one ``F @ F.T`` (row blocks of it round differently
    from NumPy's symmetric product). Next to it live only the selection's
    O(SELECT_ROWS n) temporaries, the n k proposal keys and the edge arrays.
    The Gram is freed before W and the operator are built.
    """
    n = seq.n
    if n < 2:
        raise ValueError(f"need at least 2 regions to build a graph, got {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        log.warning("k=%d >= n=%d; truncating to %d", k, n, n - 1)
        k = n - 1

    F = seq.feature_matrix()
    norms = np.sqrt(np.vecdot(F, F))
    scale = (norms != 0.0) & (np.abs(norms - 1.0) >= 1e-9)
    F[scale] /= norms[scale, None]
    G = F @ F.T
    del F
    np.clip(G, 0.0, 1.0, out=G)  # unit features: products in [-1, 1] up to rounding
    np.fill_diagonal(G, -1.0)  # exclude self from the top-k search
    a, b = np.divmod(_proposals(G, k), n)
    w = G[a, b]
    np.maximum(w, G[b, a], out=w)
    del G
    return _assemble(n, k, a, b, w)


def dump_graph(graph: SimilarityGraph, path) -> None:
    """Write ``{"n":, "k":, "edges": [[i, j, w]...]}`` sorted by (i, j), plus a
    newline."""
    W = graph.affinity
    upper = W.row < W.col
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, {"n": graph.n, "k": graph.k}, "edges",
                   (W.row[upper], W.col[upper], W.data[upper]))


def load_graph(path) -> SimilarityGraph:
    """Read a ``dump_graph`` file, which holds one record. :class:`IngestError`
    names its file:line for what :func:`regions._iter_records` refuses, an ``n``
    or ``k`` (0 if absent) or ``edges`` that ``_int`` or ``_entries`` refuse, a
    negative weight, an edge without i < j and a repeated pair (the smallest,
    found in the assembly's sorted W)."""
    records = list(_iter_records(path))
    if len(records) != 1:
        raise IngestError(f"{path}: a graph file holds one record, not {len(records)}")
    [(where, doc)] = records
    n, k = _int(where, "n", doc.get("n")), _int(where, "k", doc.get("k", 0))
    edges = _entries(where, "edges", doc.get("edges"), n, 3)
    i, j, w = edges.T
    for bad, what in ((w < 0.0, "weight is negative"), (i >= j, "needs i < j")):
        if bad.any():
            p = int(np.flatnonzero(bad)[0])
            raise IngestError(f"{where}: edge {p} {edges[p].tolist()}: {what}")
    g = _assemble(n, k, i.astype(np.intp), j.astype(np.intp), w)
    try:
        g.affinity.refuse_repeats()
    except ValueError as exc:
        raise IngestError(f"{where}: {exc}") from None
    return g
