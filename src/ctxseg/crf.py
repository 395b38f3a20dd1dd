"""Gibbs-energy assembly over regions and fusion-move minimization.

Unary costs are negative log-probabilities from a multinomial logistic
model fitted to the annotated regions by Newton's method. Pairwise costs come
from predicted link scores: a pair of regions assigned classes (m, n) costs

    lambda_pair * (exp(-S(i, m, j, n)^2 / (2 beta)) - 1)

where beta is the mean squared stored link score. The -1 shift zeroes the
no-link cost; it subtracts the same constant from every labeling for each
instantiated pair, so minimizers are unchanged relative to the unshifted
cost, and pairs without any link score can be omitted entirely.

The pairwise terms have one form throughout, ``PairwiseTerms``: an (E, 2)
array of region pairs and the cells of their L x L cost tables, as sorted
keys (k L + m) L + n with their costs. Each stored (a, b) score with a < b
of class pair (m, n) gives edge (a, b) the cell (m, n). A class pair
without a cell costs 0.0, so memory is O(E + C) for E region pairs and C
cells. ``CrfProblem`` checks the cells against the (n, L) unary, and
``energy`` and ``qpbo_fuse`` reject labelings that are not n labels in
[0, L). Both decode the cells on each call and read what each cell's two
regions are at its classes in an (n, L) table. Energy scatters the cells
the labeling selects into a zeroed term per edge. A fusion scatters each
cell into the unary of an edge with one free end or the 2 x 2 table of an
edge with two, in edge order. The fusion's E-sized temporaries are freed
before QPBO runs.

Inference sweeps expansion proposals (every region offered one class) and
accepts each move through a QPBO fusion step, which never increases the
energy. A fusion that returns the labeling unchanged keeps its energy
without evaluating it again. ``brute_force_oracle`` enumerates labelings
exactly on small instances so inference quality is measurable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .maxflow import MaxFlowGraph
from .propagation import LinkScoreMatrix
from .qpbo import cut_labels, network_arcs
from .regions import VideoSequence

log = logging.getLogger(__name__)

BRUTE_FORCE_LIMIT = 10 ** 7
# train_unary stops at this gradient max-norm, or warns after this many steps; at
# lambda_reg 1e-4 a step from a gradient below 5e-11 gains less than rounding
_GRAD_TOL = 1e-10
_MAX_STEPS = 50


@dataclass
class UnaryModel:
    """One linear scorer per class; probabilities are the softmax of the scores."""

    weights: np.ndarray  # (L, d)
    biases: np.ndarray   # (L,)

    def margins(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.biases

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        m = self.margins(features)
        m -= m.max(axis=1, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=1, keepdims=True)


def train_unary(labeled: Mapping[int, int], seq: VideoSequence, *,
                lambda_reg: float = 1e-4) -> UnaryModel:
    """Fit a multinomial logistic model over classes 0..L-1, for L the largest
    label + 1, by Newton's method; equal inputs give equal bits.

    It minimises the mean cross-entropy of the N labeled regions plus
    ``lambda_reg / 2`` times the squared ``[W b]``, over the design ``Z = [X 1]``.
    From zero it takes Newton steps (``H s = g``, s halved until the objective
    does not rise) until the gradient max-norm is at most ``_GRAD_TOL``; the
    step cap ``_MAX_STEPS`` warns. H is ``blockdiag_k(Z^T diag(P_k) Z) - U^T U``
    over N plus ``lambda_reg I``, for the probabilities P and ``U[i, k (d+1)
    + a] = P[i, k] Z[i, a]``: Z, P, U and H are the extra memory. The
    products are ``np.einsum`` without ``optimize``, which calls no BLAS;
    OpenBLAS threads the LAPACK solve from L (d+1) of about 100, so below
    that the bits do not depend on the thread count.

    ValueError: lambda_reg not in (0, inf) (at 0 the softmax's shift
    invariance makes H singular), no labels, a negative label, a class in
    [0, L) without examples.
    """
    if not 0.0 < lambda_reg < np.inf:
        raise ValueError(f"lambda_reg must lie in (0, inf), got {lambda_reg}")
    ids = sorted(labeled)
    if not ids:
        raise ValueError("no labeled regions to train on")
    y = np.array([labeled[rid] for rid in ids])
    L = int(y.max()) + 1
    bad = np.flatnonzero(y < 0)
    if bad.size:
        raise ValueError(f"region {ids[bad[0]]} has class {y[bad[0]]}, not in [0, {L})")
    missing = np.flatnonzero(np.bincount(y, minlength=L) == 0)
    if missing.size:
        raise ValueError(f"classes without training examples: {missing.size}, "
                         f"the first {missing[:5].tolist()}")
    Z = np.column_stack([np.stack([seq.region(r).feature for r in ids]), np.ones(len(ids))])
    if len(ids) > 1 and np.allclose(Z, Z[0]):
        log.warning("all training features are identical; unary model is degenerate")
    (N, D), Y = Z.shape, np.eye(L)[y]

    def objective(theta):  # and P at theta
        S = np.einsum("ia,ka->ik", Z, theta)
        S -= S.max(axis=1, keepdims=True)
        P = np.exp(S)
        total = P.sum(axis=1)
        P /= total[:, None]
        loss = np.mean(np.log(total) - S[np.arange(N), y])
        return loss + 0.5 * lambda_reg * np.einsum("ka,ka->", theta, theta), P

    theta = np.zeros((L, D))
    f, P = objective(theta)
    for _ in range(_MAX_STEPS):
        g = np.einsum("ik,ia->ka", P - Y, Z) / N + lambda_reg * theta
        if np.abs(g).max() <= _GRAD_TOL:
            break
        U = (P[:, :, None] * Z[:, None, :]).reshape(N, L * D)
        H = -np.einsum("ip,iq->pq", U, U)
        np.einsum("kakb->kab", H.reshape(L, D, L, D))[...] += np.einsum(
            "ika,ib->kab", U.reshape(N, L, D), Z)
        del U  # so the next step's U is not made while this one lives
        H /= N
        H.flat[::L * D + 1] += lambda_reg
        s = np.linalg.solve(H, g.reshape(-1)).reshape(L, D)
        f_new, P_new = objective(theta - s)
        while not f_new <= f:  # a NaN objective halves the step too
            s *= 0.5
            f_new, P_new = objective(theta - s)
        theta -= s
        f, P = f_new, P_new
    else:
        log.warning("unary fit stopped at its cap of %d Newton steps", _MAX_STEPS)
    return UnaryModel(theta[:, :-1].copy(), theta[:, -1].copy())


def unary_potentials(model: UnaryModel, seq: VideoSequence,
                     p_floor: float = 1e-6) -> np.ndarray:
    """Negative log-likelihood table (n, L), probabilities floored at p_floor.

    ValueError: ``p_floor`` not in (0, inf).
    """
    if not 0.0 < p_floor < np.inf:
        raise ValueError("p_floor must be positive and finite")
    probs = model.probabilities(seq.feature_matrix())
    return -np.log(np.maximum(probs, p_floor))


def beta_adaptive(scores: Mapping[tuple[int, int], LinkScoreMatrix]) -> float:
    """Mean squared stored link score across all class pairs; 1.0 if none, or
    if it is not positive (every score squares to 0.0, and a score of 0.0
    costs 0.0 at any beta)."""
    chunks = [m.scores.data for m in scores.values() if m.scores.nnz]
    beta = float(np.mean(np.concatenate(chunks) ** 2)) if chunks else 0.0
    return beta if beta > 0.0 else 1.0


@dataclass
class PairwiseTerms:
    """Pairwise costs of a CRF as stored cells of per-region-pair L x L tables.

    ``edges`` is an (E, 2) int array of region pairs (a, b) with a < b, rows
    in sorted order. Cell c costs ``costs[c]`` when edge k's regions take the
    classes (m, n), where ``keys[c] = (k L + m) L + n``; the keys increase
    strictly. A class pair without a cell costs 0.0.
    """

    edges: np.ndarray   # (E, 2) int
    keys: np.ndarray    # (C,) int, strictly increasing
    costs: np.ndarray   # (C,) float
    num_classes: int

    def __len__(self) -> int:
        return len(self.edges)


def build_pairwise(scores: Mapping[tuple[int, int], LinkScoreMatrix], beta: float,
                   lambda_pair: float, num_classes: int) -> PairwiseTerms:
    """Pairwise cells from link scores.

    Each stored (a, b) score with a < b of class pair (m, n) gives edge
    (a, b) the cell (m, n). Scores with a >= b are ignored. ValueError: beta
    not positive, a class pair outside [0, num_classes).
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    L = num_classes
    for m, n in scores:
        if not (0 <= m < L and 0 <= n < L):
            raise ValueError(f"class pair {(m, n)} has a class outside [0, {L})")
    mats = [(m * L + n, mat.scores) for (m, n), mat in scores.items()]
    size = max((S.shape[1] for _, S in mats), default=1)
    fwds = [S.row < S.col for _, S in mats]
    counts = [int(fwd.sum()) for fwd in fwds]
    # one key a * size + b and one score per forward entry, class pair by pair
    keys = np.empty(sum(counts), dtype=np.int64)
    s = np.empty(keys.size)
    start = 0
    for (_, S), fwd, count in zip(mats, fwds, counts):
        at = slice(start, start + count)
        np.add(S.row[fwd].astype(np.int64) * size, S.col[fwd], out=keys[at])
        s[at] = S.data[fwd]
        start += count
    keys, cells = np.unique(keys, return_inverse=True)  # edges sorted by (a, b)
    edges = np.stack([keys // size, keys % size], axis=1)
    del keys
    cells *= L * L  # (k L + m) L + n = k L^2 + (m L + n)
    cells += np.repeat(np.array([mn for mn, _ in mats], dtype=np.int64), counts)
    costs = lambda_pair * (np.exp(-(s * s) / (2.0 * beta)) - 1.0)
    # each class pair's cells increase, so the stable sort merges sorted runs
    order = np.argsort(cells, kind="stable")
    return PairwiseTerms(edges, cells[order], costs[order], L)


@dataclass
class CrfProblem:
    """Unary costs and pairwise terms over n regions and L classes.

    ValueError: unary not (n, L) with L >= 1 or not finite, edges not an
    (E, 2) int array with entries in [0, n), pairwise terms of another L,
    keys not strictly increasing ints in [0, E L^2), costs not as many or
    not finite (the message names the region pair and class pair).
    """

    unary: np.ndarray         # (n, L) costs
    pairwise: PairwiseTerms

    def __post_init__(self):
        pw = self.pairwise
        unary, edges, keys, costs = map(np.asarray, (self.unary, pw.edges, pw.keys,
                                                     pw.costs))
        if unary.ndim != 2 or unary.shape[1] < 1:
            raise ValueError(f"unary must be (n, L) with L >= 1, got shape {unary.shape}")
        if not np.isfinite(unary).all():
            raise ValueError("unary costs must be finite")
        n, L = unary.shape
        E = len(edges)
        if pw.num_classes != L:
            raise ValueError(f"pairwise terms have {pw.num_classes} classes, unary {L}")
        if edges.shape != (E, 2) or not np.issubdtype(edges.dtype, np.integer):
            raise ValueError(f"pairwise edges must be an (E, 2) int array, got shape "
                             f"{edges.shape} of {edges.dtype}")
        if E and not (edges.min() >= 0 and edges.max() < n):
            raise ValueError(f"pairwise edge endpoint out of range [0, {n})")
        if keys.ndim != 1 or keys.shape != costs.shape or not (
                keys.size == 0 or np.issubdtype(keys.dtype, np.integer)):
            raise ValueError(f"pairwise keys and costs must be two equal-length 1-d "
                             f"arrays of ints and floats, got shapes {keys.shape} of "
                             f"{keys.dtype} and {costs.shape}")
        if keys.size and not (keys[0] >= 0 and keys[-1] < E * L * L
                              and (keys[1:] > keys[:-1]).all()):
            raise ValueError(f"pairwise keys must increase strictly within [0, {E * L * L})")
        bad = np.flatnonzero(~np.isfinite(costs))
        if bad.size:
            k, cell = divmod(int(keys[bad[0]]), L * L)
            raise ValueError(f"pairwise cost of region pair {tuple(edges[k].tolist())} at "
                             f"class pair {divmod(cell, L)} is not finite: {costs[bad[0]]}")
        # costs are stored with NumPy's own float64 dtype instance: on an equal
        # copy of it (as unpickling makes) np.add.at runs per element
        f64 = np.dtype(np.float64)
        self.unary = unary if unary.dtype is f64 else unary.astype(f64)
        if costs.dtype is not f64:
            costs = costs.astype(f64)
        keys = keys.astype(np.int64, copy=False)
        if any(x is not y for x, y in zip((edges, keys, costs), (pw.edges, pw.keys, pw.costs))):
            self.pairwise = PairwiseTerms(edges, keys, costs, L)

    def __reduce__(self):
        # unpickle through __init__, so the checks and the dtype fix run again
        return type(self), (self.unary, self.pairwise)

    @property
    def n(self) -> int:
        return self.unary.shape[0]

    @property
    def num_classes(self) -> int:
        return self.unary.shape[1]


def _cell_options(problem: CrfProblem, table: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell (k, m, n): its edge k, table[a, m] and table[b, n], for edge k
    = (a, b) and an (n, L) table of one-byte entries.

    The table's rows are gathered per edge end, E L bytes each, and read at
    k L + m = keys // L and at k L + n. q and k are the only cell-sized int
    arrays made, as each fresh one also costs its page faults.
    """
    L = problem.num_classes
    keys, edges = problem.pairwise.keys, problem.pairwise.edges
    q = keys // L  # k L + m
    k = q // L
    at_a = np.take(table, edges[:, 0], axis=0).reshape(-1).take(q)
    np.subtract(q, k, out=q)
    q *= L
    np.subtract(keys, q, out=q)  # k L + n
    return k, at_a, np.take(table, edges[:, 1], axis=0).reshape(-1).take(q)


@dataclass
class Labeling:
    assignment: np.ndarray
    energy: float
    sweeps: int = 0
    energy_trace: list[float] = field(default_factory=list)


def _labels(problem: CrfProblem, x) -> np.ndarray:
    """``x`` as an int array; ValueError unless it holds n labels in [0, L)."""
    x = np.asarray(x)
    if x.shape != (problem.n,) or not (x.size == 0 or np.issubdtype(x.dtype, np.integer)):
        raise ValueError(f"labeling must be {problem.n} int labels, got shape "
                         f"{x.shape} of {x.dtype}")
    if x.size and not (x.min() >= 0 and x.max() < problem.num_classes):
        raise ValueError(f"label out of range [0, {problem.num_classes})")
    return x


def energy(problem: CrfProblem, x: np.ndarray) -> float:
    """Total cost of a labeling; each stored pair counted once."""
    x = _labels(problem, x)
    n, L = problem.unary.shape
    chosen = np.zeros((n, L), dtype=bool)
    chosen[np.arange(n), x] = True
    k, on_a, on_b = _cell_options(problem, chosen)
    on = np.flatnonzero(on_a & on_b)
    terms = np.zeros(len(problem.pairwise) + 1)  # an edge without a cell adds 0.0
    terms[0] = problem.unary.reshape(-1)[np.arange(0, n * L, L) + x].sum()
    terms[1 + k.take(on)] = problem.pairwise.costs.take(on)
    # cumsum adds the terms one by one in edge order; np.sum would add them
    # pairwise, which changes the last bits of the energy
    return float(np.cumsum(terms)[-1])


def qpbo_fuse(problem: CrfProblem, current: np.ndarray,
              proposal: np.ndarray) -> np.ndarray:
    """Best per-region choice between two labelings via QPBO.

    Variables whose two options coincide are fixed up front, and an edge with
    one fixed end folds into the unary of its free end; variables QPBO leaves
    undecided keep their current label, so the fused labeling never has
    higher energy than ``current``.
    """
    current = _labels(problem, current)
    proposal = _labels(problem, proposal)
    free = np.flatnonzero(current != proposal)
    if free.size == 0:
        return current.copy()
    # the binary terms are freed once their arcs exist, and the arc arrays
    # once the network has sorted them
    z = cut_labels(MaxFlowGraph(*network_arcs(*_fusion_terms(problem, current, proposal,
                                                             free))))
    fused = current.copy()
    take = free[z == 1]
    fused[take] = proposal[take]
    return fused


def _fusion_terms(problem: CrfProblem, current: np.ndarray, proposal: np.ndarray,
                  free: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The binary problem of a fusion over the free variables, in their order:
    unary (f, 2) and the edges (E', 2) and tables (E', 2, 2) of the edges with
    two free ends, as ``network_arcs`` takes them."""
    n, L = problem.unary.shape
    pos = np.full(n, -1)
    pos[free] = np.arange(free.size)
    unary = np.stack([problem.unary[free, current[free]], problem.unary[free, proposal[free]]])

    a, b = problem.pairwise.edges[:, 0], problem.pairwise.edges[:, 1]
    pa, pb = pos[a], pos[b]
    fa, fb = pa >= 0, pb >= 0
    one = np.flatnonzero(fa != fb)
    both = np.flatnonzero(fa & fb)
    var = np.maximum(pa[one], pb[one])
    pair_ends = np.stack([pa[both], pb[both]], axis=1)
    del pa, pb, fa, fb
    rank = np.empty(len(a), dtype=np.int64)  # edge k's place in one or in both
    rank[one] = np.arange(one.size)
    rank[both] = np.arange(both.size)

    # option of region i at class l: 0 its current class and 1 its proposed
    # one if i is free, 2 the class of a fixed region, -1 neither
    opt = np.full((n, L), -1, dtype=np.int8)
    opt[np.arange(n), current] = 2
    opt[free, current[free]] = 0
    opt[free, proposal[free]] = 1
    k, za, zb = _cell_options(problem, opt)
    costs = problem.pairwise.costs
    # one free end: the term joins that end's unary, z = 0 at (current_a,
    # current_b) and z = 1 at (proposal_a, proposal_b); the fixed end's two
    # options coincide. Edges without a cell add 0.0, in edge order too, as
    # np.add.at adds in edge order.
    fold = np.flatnonzero(((za == 2) & (zb >= 0) & (zb < 2))
                          | ((zb == 2) & (za >= 0) & (za < 2)))
    vals = np.zeros((2, one.size))
    vals[np.minimum(za[fold], zb[fold]), rank.take(k.take(fold))] = costs.take(fold)
    np.add.at(unary[0], var, vals[0])
    np.add.at(unary[1], var, vals[1])

    cell = np.flatnonzero((za >= 0) & (za < 2) & (zb >= 0) & (zb < 2))
    pair = np.zeros((both.size, 2, 2))  # edge k at options z_a, z_b
    at = rank.take(k.take(cell)) * 4
    at += 2 * za[cell] + zb[cell]
    pair.reshape(-1)[at] = costs.take(cell)
    return unary.T, pair_ends, pair


def infer(problem: CrfProblem, max_sweeps: int = 10) -> Labeling:
    """Expansion sweeps fused by QPBO, from the unary-argmin labeling.

    Each sweep offers every class as a constant proposal in order; a fuse is
    kept only when it strictly lowers the energy, and sweeping stops after a
    full pass without improvement or ``max_sweeps``.

    ValueError: ``max_sweeps`` below 1.
    """
    if not max_sweeps >= 1:
        raise ValueError("max_sweeps must be >= 1")
    x = np.argmin(problem.unary, axis=1)
    e = energy(problem, x)
    trace = [e]
    for sweeps_done in range(1, max_sweeps + 1):
        improved = False
        for alpha in range(problem.num_classes):
            proposal = np.full(problem.n, alpha)
            x_new = qpbo_fuse(problem, x, proposal)
            # an unchanged labeling keeps its energy, bit for bit
            e_new = e if np.array_equal(x_new, x) else energy(problem, x_new)
            if e_new > e + 1e-9:
                raise AssertionError(
                    f"fusion increased energy: {e} -> {e_new} (alpha={alpha})")
            if e_new < e:
                x, e = x_new, e_new
                improved = True
            trace.append(e)
        if not improved:
            break
    return Labeling(x, e, sweeps_done, trace)


def brute_force_oracle(problem: CrfProblem) -> Labeling:
    """Exact minimizer by chunked enumeration of all L^n labelings.

    Ties resolve to the lexicographically smallest labeling. Refuses
    instances with more than 10^7 labelings.
    """
    n, L = problem.n, problem.num_classes
    total = L ** n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for enumeration: {L}^{n} labelings")
    radix = L ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # dense tables, small as L^n <= BRUTE_FORCE_LIMIT
    tables = np.zeros((len(problem.pairwise), L, L))
    tables.reshape(-1)[problem.pairwise.keys] = problem.pairwise.costs
    best_e, best_idx = np.inf, -1
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labelings = (idx[:, None] // radix[None, :]) % L
        e = problem.unary[np.arange(n)[None, :], labelings].sum(axis=1)
        for k, (a, b) in enumerate(problem.pairwise.edges):
            e += tables[k][labelings[:, a], labelings[:, b]]
        k = int(np.argmin(e))
        if e[k] < best_e:
            best_e = float(e[k])
            best_idx = int(idx[k])
    assignment = (best_idx // radix) % L
    return Labeling(assignment.astype(int), best_e)
