"""Two-pass link-score propagation over the similarity graph.

Observed links for a class pair diffuse in two stages: a row pass spreads
each nonzero row of the observed matrix over the graph, then a column pass
spreads each column of the row result. Each pass is the limit of the
fixed-point iteration ``P <- mu * P L + (1 - mu) * source`` (row pass, from
the right) or ``mu * L P + ...`` (column pass, from the left), which is a
product with the resolvent

    R = (1 - mu) (I - mu L)^{-1},

so the two passes together give the separable closed form

    (1 - mu)^2 (I - mu L)^{-1} O (I - mu L)^{-1} = R O R.

``R`` depends only on the graph and ``mu``, so ``predict_all_links`` inverts
the dense ``I - mu L`` once (``resolvent``) and hands it to both pass
functions for every class pair; it holds n^2 doubles. Each pass forms its
product densely over the rows that hold entries, and ``SparseMatrix.from_dense``
gathers what a prune at ``prune_eps`` keeps. ``dense_two_pass_limit``
evaluates the closed form by separate dense solves as a small-instance oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .regions import SparseMatrix, dump_class_pairs, load_class_pairs


@dataclass
class PassResult:
    """One pass's scores; a direct solve always reports one converged step."""

    matrix: SparseMatrix
    converged: bool = True
    iterations: int = 1


@dataclass
class LinkScoreMatrix:
    scores: SparseMatrix
    converged: bool = True


def resolvent(op: SparseMatrix, mu: float) -> np.ndarray:
    """Dense R = (1 - mu) (I - mu L)^{-1}, shared by every pass."""
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    M = np.eye(op.shape[0]) - mu * op.toarray()
    return (1.0 - mu) * np.linalg.inv(M)


def _right_product(O: SparseMatrix, R: np.ndarray) -> np.ndarray:
    """Dense O @ R, each row adding its terms in stored order as SciPy does.

    Round k adds the k-th entry of every row that has one, so the rounds are
    as many as the longest row has entries.
    """
    out = np.zeros((O.shape[0], R.shape[1]))
    rank = np.arange(O.nnz) - np.searchsorted(O.row, O.row)
    order = np.argsort(rank, kind="stable")
    for at in np.split(order, np.cumsum(np.bincount(rank))[:-1]):
        out[O.row[at]] += O.data[at, None] * R[O.col[at]]
    return out


def propagate_row_pass(O: SparseMatrix, R: np.ndarray,
                       prune_eps: Optional[float] = None) -> PassResult:
    """Diffuse each nonzero row of O over the graph: O R = (1-mu) O (I - mu L)^{-1}.

    ``R`` is ``resolvent(op, mu)``. Only the rows of O that hold a link are
    computed, each adding its terms in SciPy's order; the others stay exactly
    zero. ``SparseMatrix.from_dense`` gathers the result, pruned at ``prune_eps``.
    """
    active, rank = np.unique(O.row, return_inverse=True)
    dense = _right_product(SparseMatrix(rank, O.col, O.data, (len(active), O.shape[1])), R)
    P = SparseMatrix.from_dense(dense, prune_eps)
    return PassResult(SparseMatrix(active[P.row], P.col, P.data, (O.shape[0], R.shape[1])))


def propagate_column_pass(P_rows: SparseMatrix, R: np.ndarray,
                          prune_eps: Optional[float] = None) -> PassResult:
    """Diffuse each column of the row-pass result: R P_rows.

    Only the nonzero rows of P_rows are densified and multiplied; its zero
    columns stay exactly zero. ``R`` and ``prune_eps`` are as for the row pass.
    """
    active, rank = np.unique(P_rows.row, return_inverse=True)
    rows = SparseMatrix(rank, P_rows.col, P_rows.data, (len(active), P_rows.shape[1])).toarray()
    return PassResult(SparseMatrix.from_dense(R[:, active] @ rows, prune_eps))


def predict_all_links(observed: dict[tuple[int, int], SparseMatrix],
                      op: SparseMatrix, mu: float, prune_eps: float = 1e-8
                      ) -> dict[tuple[int, int], LinkScoreMatrix]:
    """Run both passes for every class pair with at least one observed link.

    The resolvent is computed once and shared by every pair and pass. Scores
    below ``prune_eps`` are dropped from storage after each pass.

    ValueError: ``mu`` not in (0, 1), or ``prune_eps`` not in [0, inf).
    """
    if not (0.0 < mu < 1.0):  # refused even when no pair has a link
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    if not 0.0 <= prune_eps < np.inf:
        raise ValueError("prune_eps must be >= 0 and finite")
    pairs = [(p, M) for p, M in sorted(observed.items()) if M.nnz > 0]
    if not pairs:
        return {}
    R = resolvent(op, mu)
    out = {}
    for pair, O in pairs:
        rows = propagate_row_pass(O, R, prune_eps)
        out[pair] = LinkScoreMatrix(propagate_column_pass(rows.matrix, R, prune_eps).matrix)
    return out


def dense_two_pass_limit(O: np.ndarray, op: np.ndarray, mu: float) -> np.ndarray:
    """Exact limit of the two-pass scheme by dense solves (test oracle)."""
    O = np.asarray(O, dtype=float)
    M = np.eye(O.shape[0]) - mu * np.asarray(op, dtype=float)
    rows = (1.0 - mu) * np.linalg.solve(M.T, O.T).T
    return (1.0 - mu) * np.linalg.solve(M, rows)


def dump_scores(scores: dict[tuple[int, int], LinkScoreMatrix], path) -> None:
    """One JSON line per class pair: ``{"m":, "n":, "scores": [[i, j, s]...]}``."""
    dump_class_pairs({pair: s.scores for pair, s in scores.items()}, path, "scores", 3)


def load_scores(path, n: int) -> dict[tuple[int, int], LinkScoreMatrix]:
    return {pair: LinkScoreMatrix(S)
            for pair, S in load_class_pairs(path, "scores", n, 3).items()}
