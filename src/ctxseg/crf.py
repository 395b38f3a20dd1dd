"""Gibbs-energy assembly over regions and fusion-move minimization.

Unary costs are negative log-probabilities from a linear one-vs-rest
max-margin classifier trained on the annotated regions. Pairwise costs come
from predicted link scores: a pair of regions assigned classes (m, n) costs

    lambda_pair * (exp(-S(i, m, j, n)^2 / (2 beta)) - 1)

where beta is the mean squared stored link score. The -1 shift zeroes the
no-link cost; it subtracts the same constant from every labeling for each
instantiated pair, so minimizers are unchanged relative to the unshifted
cost, and pairs without any link score can be omitted entirely.

The pairwise terms have one form throughout, ``PairwiseTerms``: an (E, 2)
array of region pairs and an (E, L, L) array of their cost tables, so memory
is O(E L^2) for the E region pairs that carry a stored score. Energy is one
gather, and a fusion step gathers the 2 x 2 restriction of every table.

Inference sweeps expansion proposals (every region offered one class) and
accepts each move through a QPBO fusion step, which never increases the
energy. ``brute_force_oracle`` enumerates labelings exactly on small
instances so inference quality is measurable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .propagation import LinkScoreMatrix
from .qpbo import solve_binary_pairwise
from .regions import VideoSequence

log = logging.getLogger(__name__)

P_FLOOR = 1e-6
BRUTE_FORCE_LIMIT = 10 ** 7
# train_unary's chunk of K steps: K starts at _CHUNK_MIN and grows up to
# _CHUNK_CELLS / d (4096 steps, 512 KB per (K, d) float array, at d = 16)
_CHUNK_MIN = 32
_CHUNK_CELLS = 1 << 16


@dataclass
class UnaryTrainConfig:
    epochs: int = 100
    learning_rate: float = 0.5
    lambda_reg: float = 1e-4
    seed: int = 0


@dataclass
class UnaryModel:
    """One linear scorer per class; probabilities via softmax over margins."""

    weights: np.ndarray  # (L, d)
    biases: np.ndarray   # (L,)
    config: UnaryTrainConfig

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def margins(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.biases

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        m = self.margins(features)
        m -= m.max(axis=1, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=1, keepdims=True)


def train_unary(labeled: Mapping[int, int], seq: VideoSequence,
                cfg: Optional[UnaryTrainConfig] = None,
                num_classes: Optional[int] = None) -> UnaryModel:
    """Train one-vs-rest hinge-loss linear classifiers by seeded SGD.

    Per class c, each epoch visits the examples in ``rng.permutation`` order
    (``rng = default_rng([seed, c])``) and step k, with
    ``eta = lr / (1 + lr * lambda_reg * k)`` and ``decay = 1 - eta * lambda_reg``,
    sets ``w = decay * w + eta * t * x`` and ``b += eta * t`` when the hinge is
    violated (``t * (w @ x + b) < 1``), else only ``w = decay * w``.

    Most steps do not update, so the steps run in chunks of K: one
    ``np.multiply.accumulate`` over ``[w, decay_s, ..., decay_{s+K-2}]`` gives
    the weights before every step of the chunk if none updates, rounded
    exactly as step-by-step decays are; all K margins follow at once, and only
    the first violating step is replayed with the per-step expression before
    the next chunk starts after it. K doubles after a chunk without a
    violation and halves after an early one. The batched margins add their
    products in another order than ``w @ x``; where a margin lies within
    ``2 (d + 2) eps (max |w_j| max_i ||x_i||_1 + |b|)`` of the hinge (w over
    the chunk's trajectory, x over all examples), the decision is taken again
    with ``w @ x``. That scalar bounds every step's ``sum |w_j x_j| + |b|``, so
    it bounds both orders' rounding error. So every branch, and every bit of
    the weights, is what the step-by-step loop gives. Extra memory is
    O(N d + K d): one epoch's shuffled examples and step sizes and one
    trajectory buffer.

    Every class in [0, num_classes) needs at least one example; missing
    classes raise ValueError. Identical seeds give bitwise-identical weights.
    """
    cfg = cfg or UnaryTrainConfig()
    ids = sorted(labeled)
    if not ids:
        raise ValueError("no labeled regions to train on")
    X = np.stack([seq.region(rid).feature for rid in ids])
    y = np.array([labeled[rid] for rid in ids])
    L = num_classes if num_classes is not None else int(y.max()) + 1

    missing = [c for c in range(L) if not np.any(y == c)]
    if missing:
        raise ValueError(f"classes without training examples: {missing}")
    if len(ids) > 1 and np.allclose(X, X[0]):
        log.warning("all training features are identical; unary model is degenerate")

    N, d = X.shape
    lr, lam = cfg.learning_rate, cfg.lambda_reg
    guard = 2 * (d + 2) * np.finfo(float).eps
    max_size = max(_CHUNK_MIN, _CHUNK_CELLS // max(d, 1))
    x1 = np.abs(X).sum(axis=1).max()  # max_i ||x_i||_1
    buf = np.empty((max_size, d))
    weights = np.zeros((L, d))
    biases = np.zeros(L)
    for c in range(L):
        rng = np.random.default_rng([cfg.seed, c])
        t = np.where(y == c, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        size = _CHUNK_MIN
        for epoch in range(cfg.epochs):
            order = rng.permutation(N)
            Xo, to = X[order], t[order]
            # the per-step formula's operation order: lr * lam first, then times k
            eta = lr / (1.0 + lr * lam * np.arange(epoch * N, (epoch + 1) * N, dtype=float))
            decay = 1.0 - eta * lam
            s = 0
            while s < N:
                e = min(s + size, N)
                traj = buf[:e - s]
                traj[0] = w
                traj[1:] = decay[s:e - 1, None]
                np.multiply.accumulate(traj, axis=0, out=traj)
                gap = to[s:e] * ((traj * Xo[s:e]).sum(axis=1) + b) - 1.0
                tol = guard * (np.abs(traj).max() * x1 + abs(b))
                hit = -1
                # a step with gap < -tol violates the hinge in either summation
                # order; one with |gap| <= tol is decided by the per-step w @ x
                for j in (gap <= tol).nonzero()[0]:
                    if gap[j] < -tol or to[s + j] * (traj[j] @ Xo[s + j] + b) < 1.0:
                        hit = j
                        break
                if hit < 0:
                    w = decay[e - 1] * traj[-1]
                    size = min(2 * size, max_size)
                    s = e
                    continue
                k = s + hit
                w = decay[k] * traj[hit] + eta[k] * to[k] * Xo[k]
                b = b + eta[k] * to[k]
                if 2 * hit < e - s:
                    size = max(size // 2, _CHUNK_MIN)
                s = k + 1
        weights[c] = w
        biases[c] = b
    return UnaryModel(weights, biases, cfg)


def unary_potentials(model: UnaryModel, seq: VideoSequence,
                     p_floor: float = P_FLOOR) -> np.ndarray:
    """Negative log-likelihood table (n, L), probabilities floored at p_floor."""
    probs = model.probabilities(seq.feature_matrix())
    return -np.log(np.maximum(probs, p_floor))


def beta_adaptive(scores: Mapping[tuple[int, int], LinkScoreMatrix]) -> float:
    """Mean squared stored link score across all class pairs; 1.0 if none."""
    chunks = [m.scores.data for m in scores.values() if m.scores.nnz]
    if not chunks:
        return 1.0
    data = np.concatenate(chunks)
    return float(np.mean(data ** 2))


@dataclass
class PairwiseTerms:
    """Pairwise cost tables of a CRF, one per region pair, as arrays.

    ``edges`` is an (E, 2) int array of region pairs (a, b) with a < b, rows
    in sorted order; ``tables[k]`` is the L x L cost of edge k, indexed
    [label of a, label of b].
    """

    edges: np.ndarray   # (E, 2) int
    tables: np.ndarray  # (E, L, L) costs

    def __len__(self) -> int:
        return len(self.edges)


def build_pairwise(scores: Mapping[tuple[int, int], LinkScoreMatrix], beta: float,
                   lambda_pair: float, num_classes: int) -> PairwiseTerms:
    """Per-region-pair L x L cost tables from link scores.

    An edge exists for every unordered region pair (a < b) carrying at least
    one stored score in some class pair; entry [m, n] reads the (a, b) score
    of class pair (m, n). Diagonal score entries (i == j) are ignored.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    empty = np.zeros(0, dtype=int)
    parts = [(empty,) * 5]  # i, j, score, m, n of every off-diagonal entry
    for (m, n), mat in scores.items():
        coo = mat.scores.tocoo()
        off = coo.row != coo.col
        k = int(off.sum())
        parts.append((coo.row[off], coo.col[off], coo.data[off],
                      np.full(k, m), np.full(k, n)))
    i, j, s, m, n = (np.concatenate(col) for col in zip(*parts))
    size = max((mat.scores.shape[1] for mat in scores.values()), default=1)
    keys, edge = np.unique(np.minimum(i, j).astype(np.int64) * size + np.maximum(i, j),
                           return_inverse=True)  # sorted by (a, b)
    tables = np.zeros((len(keys), num_classes, num_classes))
    fwd = i < j  # the (a, b)-direction score fills entry [m, n]
    s = s[fwd]
    tables[edge[fwd], m[fwd], n[fwd]] = lambda_pair * (np.exp(-(s * s) / (2.0 * beta)) - 1.0)
    return PairwiseTerms(np.stack([keys // size, keys % size], axis=1), tables)


@dataclass
class CrfProblem:
    unary: np.ndarray         # (n, L) costs
    pairwise: PairwiseTerms

    @property
    def n(self) -> int:
        return self.unary.shape[0]

    @property
    def num_classes(self) -> int:
        return self.unary.shape[1]


@dataclass
class Labeling:
    assignment: np.ndarray
    energy: float
    sweeps: int = 0
    energy_trace: list[float] = field(default_factory=list)


def energy(problem: CrfProblem, x: np.ndarray) -> float:
    """Total cost of a labeling; each stored pair counted once."""
    x = np.asarray(x)
    edges, tables = problem.pairwise.edges, problem.pairwise.tables
    terms = tables[np.arange(len(edges)), x[edges[:, 0]], x[edges[:, 1]]]
    unary = problem.unary[np.arange(problem.n), x].sum()
    # cumsum adds the terms one by one in edge order; np.sum would add them
    # pairwise, which changes the last bits of the energy
    return float(np.cumsum(np.concatenate([[unary], terms]))[-1])


def qpbo_fuse(problem: CrfProblem, current: np.ndarray,
              proposal: np.ndarray) -> np.ndarray:
    """Best per-region choice between two labelings via QPBO.

    Variables whose two options coincide are fixed up front, and an edge with
    one fixed end folds into the unary of its free end; variables QPBO leaves
    undecided keep their current label, so the fused labeling never has
    higher energy than ``current``.
    """
    current = np.asarray(current)
    proposal = np.asarray(proposal)
    free = np.flatnonzero(current != proposal)
    if free.size == 0:
        return current.copy()
    pos = np.full(problem.n, -1)
    pos[free] = np.arange(free.size)

    unary = np.stack([problem.unary[free, current[free]],
                      problem.unary[free, proposal[free]]], axis=1)
    edges, tables = problem.pairwise.edges, problem.pairwise.tables
    options = np.stack([current[edges], proposal[edges]], axis=2)  # (E, 2 ends, 2)
    # t[k, za, zb]: cost of edge k when its ends take options za and zb
    t = tables[np.arange(len(edges))[:, None, None],
               options[:, 0, :, None], options[:, 1, None, :]]
    pa, pb = pos[edges[:, 0]], pos[edges[:, 1]]
    fa, fb = pa >= 0, pb >= 0
    one = fa != fb  # one free end: the term joins that end's unary
    var = np.where(fa, pa, pb)[one]
    # np.add.at adds in edge order, so every unary sums its terms in that order
    np.add.at(unary, (var, 0), t[one, 0, 0])
    np.add.at(unary, (var, 1), np.where(fa, t[:, 1, 0], t[:, 0, 1])[one])

    both = fa & fb
    z = solve_binary_pairwise(unary, np.stack([pa, pb], axis=1)[both], t[both])
    fused = current.copy()
    take = free[z == 1]
    fused[take] = proposal[take]
    return fused


def infer(problem: CrfProblem, max_sweeps: int = 10) -> Labeling:
    """Expansion sweeps fused by QPBO, from the unary-argmin labeling.

    Each sweep offers every class as a constant proposal in order; a fuse is
    kept only when it strictly lowers the energy, and sweeping stops after a
    full pass without improvement or ``max_sweeps``.
    """
    x = np.argmin(problem.unary, axis=1)
    e = energy(problem, x)
    trace = [e]
    sweeps_done = 0
    for _ in range(max_sweeps):
        improved = False
        for alpha in range(problem.num_classes):
            proposal = np.full(problem.n, alpha)
            x_new = qpbo_fuse(problem, x, proposal)
            e_new = energy(problem, x_new)
            if e_new > e + 1e-9:
                raise AssertionError(
                    f"fusion increased energy: {e} -> {e_new} (alpha={alpha})")
            if e_new < e:
                x, e = x_new, e_new
                improved = True
            trace.append(e)
        sweeps_done += 1
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
    best_e = np.inf
    best_idx = -1
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labelings = (idx[:, None] // radix[None, :]) % L
        e = problem.unary[np.arange(n)[None, :], labelings].sum(axis=1)
        for (a, b), tbl in zip(problem.pairwise.edges, problem.pairwise.tables):
            e += tbl[labelings[:, a], labelings[:, b]]
        k = int(np.argmin(e))
        if e[k] < best_e:
            best_e = float(e[k])
            best_idx = int(idx[k])
    assignment = (best_idx // radix) % L
    return Labeling(assignment.astype(int), best_e)
