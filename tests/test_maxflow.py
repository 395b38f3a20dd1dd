import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import maximum_flow

from ctxseg.maxflow import MaxFlowGraph


def random_graph(rng):
    """Integer capacities; parallel and antiparallel arcs allowed, no loops."""
    n = int(rng.integers(2, 13))
    m = int(rng.integers(n, 6 * n))
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    keep = tails != heads
    return n, tails[keep], heads[keep], rng.integers(0, 11, int(keep.sum()))


def scipy_flow(n, tails, heads, caps, s, t):
    graph = sparse.csr_matrix((caps.astype(np.int32), (tails, heads)), shape=(n, n))
    return maximum_flow(graph, s, t).flow_value


@pytest.mark.parametrize("seed", range(40))
def test_flow_value_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n, tails, heads, caps = random_graph(rng)
    g = MaxFlowGraph(n, tails, heads, caps)
    assert g.max_flow(0, n - 1) == scipy_flow(n, tails, heads, caps, 0, n - 1)


@pytest.mark.parametrize("seed", range(40))
def test_source_side_cut_capacity_equals_flow(seed):
    rng = np.random.default_rng(100 + seed)
    n, tails, heads, caps = random_graph(rng)
    g = MaxFlowGraph(n, tails, heads, caps)
    flow = g.max_flow(0, n - 1)
    side = np.array(g.source_side(0))
    assert side[0] and not side[n - 1]
    crossing = side[tails] & ~side[heads]
    assert caps[crossing].sum() == flow


def test_arcs_listed_in_edge_order():
    g = MaxFlowGraph(3, [0, 1, 0, 2], [1, 2, 2, 0], [1.0, 2.0, 3.0, 4.0])
    # arc k sits at id 2k, its reverse at 2k + 1
    assert g.to == [1, 0, 2, 1, 2, 0, 0, 2]
    assert g.cap == [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]
    assert g.adj == [[0, 4, 7], [1, 2], [3, 5, 6]]


@pytest.mark.parametrize("seed", range(10))
def test_adjacency_matches_arc_by_arc_insertion(seed):
    rng = np.random.default_rng(200 + seed)
    n, tails, heads, caps = random_graph(rng)
    adj = [[] for _ in range(n)]
    for k, (u, v) in enumerate(zip(tails, heads)):
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
    assert MaxFlowGraph(n, tails, heads, caps).adj == adj


def test_no_arcs():
    g = MaxFlowGraph(2, [], [], [])
    assert g.max_flow(0, 1) == 0.0
    assert g.source_side(0) == [True, False]
