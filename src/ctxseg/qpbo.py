"""Roof-duality (QPBO) solver for binary pairwise energies.

The energy

    E(z) = sum_i theta_i(z_i) + sum_{ij} theta_ij(z_i, z_j),   z in {0,1}^n

comes as an (n, 2) unary array, an (E, 2) array of variable pairs and an
(E, 2, 2) array of their tables. It is mapped onto a doubled flow network
with one literal node and one complement node per variable. Every term is
split in half between the primal and the mirrored complement copy,
submodular couplings become arcs between literal nodes and nonsubmodular
ones cross over to complement nodes, so all arc capacities are nonnegative.
The solver runs in two steps. ``network_arcs`` writes the arcs into one
preallocated array each of tails, heads and capacities, per-variable arcs
first and then couplings in edge order; the edge-sized temporaries of the
split are dropped before those arrays are made. ``cut_labels`` runs the
max-flow of the ``MaxFlowGraph`` built from them. A caller that owns the
terms lets them go once the arcs exist, so neither they nor the arc arrays
sit next to the sorted network. After a max-flow, a variable whose two nodes
fall on opposite sides of the minimum cut is labeled; nodes on the same side
leave the variable undecided. Labeled variables satisfy weak autarky:
overwriting any labeling with them never increases the energy, and if every
coupling is submodular the full labeling is an exact global minimum.
"""

from __future__ import annotations

import numpy as np

from .maxflow import MaxFlowGraph

UNLABELED = -1


def solve_binary_pairwise(unary: np.ndarray, edges: np.ndarray,
                          tables: np.ndarray) -> np.ndarray:
    """Partial optimal labeling of a binary pairwise energy.

    ``unary`` is (n, 2); ``edges`` is (E, 2) with the variable pair (a, b) of
    each term and ``tables`` is (E, 2, 2), indexed [k, z_a, z_b]. Returns an
    int array with entries 0, 1, or ``UNLABELED`` (-1).
    """
    return cut_labels(MaxFlowGraph(*network_arcs(unary, edges, tables)))


def network_arcs(unary: np.ndarray, edges: np.ndarray, tables: np.ndarray
                 ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The doubled flow network of the energy as ``MaxFlowGraph`` takes it:
    2n + 2 nodes (source 2n, sink 2n + 1), tails, heads and capacities."""
    unary = np.asarray(unary, dtype=float)
    n = unary.shape[0]
    a, b = edges[:, 0], edges[:, 1]
    A, B, C, D = tables[:, 0, 0], tables[:, 0, 1], tables[:, 1, 0], tables[:, 1, 1]
    gap = B + C - A - D
    sub = gap >= 0.0
    # submodular:    A + (C-A) z_a + (D-C) z_b + gap [z_a=0][z_b=1]
    # nonsubmodular: B + (D-B) z_a + (D-C) z_b + (A+D-B-C) [z_a=0][z_b=0]  (+ const)
    lin = unary[:, 1] - unary[:, 0]  # accumulated cost of choosing z_i = 1
    # contributions interleaved a, b per edge (the rows of edges, raveled):
    # each lin sums them in edge order
    np.add.at(lin, edges.ravel(),
              np.stack([np.where(sub, C - A, D - B), D - C], axis=1).ravel())
    coupled = ~sub | (gap > 0.0)
    a, b, sub, half = a[coupled], b[coupled], sub[coupled], np.abs(gap[coupled]) / 2.0
    del gap, coupled

    source = 2 * n
    sink = 2 * n + 1
    # node 2i stands for z_i, node 2i + 1 for its complement; each term is
    # split in half between an arc and its mirrored copy. Arcs per variable
    # come first, pay when z_i = 1 (up) or z_i = 0, then the couplings.
    lin = lin / 2.0
    var = np.flatnonzero((lin > 0.0) | (lin < 0.0))
    up = lin[var] > 0.0
    lit, comp = 2 * var, 2 * var + 1
    k = 2 * var.size  # arcs per variable, then two per coupling
    tails, heads = np.empty((2, k + 2 * a.size), dtype=np.int64)
    caps = np.empty(tails.size)
    tails[0:k:2], heads[0:k:2] = np.where(up, source, lit), np.where(up, lit, sink)
    tails[1:k:2], heads[1:k:2] = np.where(up, comp, source), np.where(up, sink, comp)
    caps[0:k:2] = caps[1:k:2] = np.abs(lin[var])
    tails[k::2], heads[k::2] = 2 * a, 2 * b + ~sub
    tails[k + 1::2], heads[k + 1::2] = 2 * b + sub, 2 * a + 1
    caps[k::2] = caps[k + 1::2] = half
    return 2 * n + 2, tails, heads, caps


def cut_labels(g: MaxFlowGraph) -> np.ndarray:
    """Labels of the variables from the minimum cut of a ``network_arcs``
    network, whose last two nodes are the source and the sink."""
    source = g.n - 2
    g.max_flow(source, source + 1)
    reach = g.source_side(source)
    u, v = reach[0:source:2], reach[1:source:2]
    return np.where(u & ~v, 0, np.where(v & ~u, 1, UNLABELED))
