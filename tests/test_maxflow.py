import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import maximum_flow

from ctxseg import crf
from ctxseg.maxflow import EPS, MaxFlowGraph
from problem_gen import ListDinic, list_dinic, random_signed_problem


def random_graph(rng):
    """Integer capacities; parallel and antiparallel arcs allowed, no loops."""
    n = int(rng.integers(2, 13))
    m = int(rng.integers(n, 6 * n))
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    keep = tails != heads
    return n, tails[keep], heads[keep], rng.integers(0, 11, int(keep.sum()))


def out_arcs(g):
    """Each vertex's out-arc ids, read through the CSR offsets."""
    return [g.out_arcs[lo:hi].tolist() for lo, hi in zip(g.out_start, g.out_start[1:])]


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
    assert g.to.tolist() == [1, 0, 2, 1, 2, 0, 0, 2]
    assert g.cap.tolist() == [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]
    assert out_arcs(g) == [[0, 4, 7], [1, 2], [3, 5, 6]]


@pytest.mark.parametrize("seed", range(10))
def test_adjacency_matches_arc_by_arc_insertion(seed):
    rng = np.random.default_rng(200 + seed)
    n, tails, heads, caps = random_graph(rng)
    adj = [[] for _ in range(n)]
    for k, (u, v) in enumerate(zip(tails, heads)):
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
    assert out_arcs(MaxFlowGraph(n, tails, heads, caps)) == adj


def test_no_arcs():
    g = MaxFlowGraph(2, [], [], [])
    assert g.max_flow(0, 1) == 0.0
    assert g.source_side(0).tolist() == [True, False]


def skewed_tails(rng, n, m):
    """m arc tails in [0, n) crowded at both ends and at the 16-bit boundaries."""
    spots = np.array([0, 1, 65535, 65536, n - 2, n - 1]) % n
    return np.where(rng.random(m) < 0.5, rng.choice(spots, m), rng.integers(0, n, m))


@pytest.mark.parametrize("n", [65535, 65536, 65537, "random"])
def test_arc_index_is_the_stable_argsort_of_tails(n):
    rng = np.random.default_rng(17)
    n = int(rng.integers(65538, 1 << 20)) if n == "random" else n
    m = 3000
    g = MaxFlowGraph(n, skewed_tails(rng, n, m), skewed_tails(rng, n, m), np.ones(m))
    tail = g.to[np.arange(g.to.size) ^ 1]  # arc e runs from the head of arc e ^ 1
    assert np.array_equal(g.out_arcs, np.argsort(tail, kind="stable"))
    assert np.array_equal(g.out_start, np.concatenate(
        [[0], np.cumsum(np.bincount(tail, minlength=n))]))


@pytest.mark.parametrize("seed", range(10))
def test_source_side_before_and_after_max_flow(seed):
    rng = np.random.default_rng(600 + seed)
    n, tails, heads, caps = random_graph(rng)
    s, other = 0, int(rng.integers(1, n))
    _, residual, side = list_dinic(n, tails, heads, caps, s, n - 1)
    g = MaxFlowGraph(n, tails, heads, caps)
    before = [g.source_side(v).tolist() for v in range(n)]
    fresh = ListDinic(n, tails, heads, caps)
    assert before == [fresh.source_side(v) for v in range(n)]
    g.max_flow(s, n - 1)
    assert g.source_side(s).tolist() == side  # read off the last BFS
    after = ListDinic(n, tails, heads, caps)
    after.cap = residual
    assert g.source_side(other).tolist() == after.source_side(other)
    assert g.source_side(s).tolist() == side


@pytest.mark.parametrize("s", [-1, 3])
def test_source_side_out_of_range_raises(s):
    g = MaxFlowGraph(3, [0, 1], [1, 2], [1.0, 1.0])
    with pytest.raises(ValueError):
        g.source_side(s)
    g.max_flow(0, 2)
    with pytest.raises(ValueError):
        g.source_side(s)


def assert_same_as_list_dinic(n, tails, heads, caps, s, t):
    flow, cap, side = list_dinic(n, tails, heads, caps, s, t)
    g = MaxFlowGraph(n, tails, heads, caps)
    assert g.max_flow(s, t).hex() == flow.hex()
    assert list(map(float.hex, g.cap.tolist())) == list(map(float.hex, cap))
    assert g.source_side(s).tolist() == side


def with_parallel_and_antiparallel(rng, tails, heads, caps):
    """Append a reversed copy and a parallel copy of some arcs, with shuffled caps."""
    rev = rng.random(tails.size) < 0.3
    dup = rng.random(tails.size) < 0.3
    return (np.concatenate([tails, heads[rev], tails[dup]]),
            np.concatenate([heads, tails[rev], heads[dup]]),
            np.concatenate([caps, rng.permutation(np.concatenate([caps[rev], caps[dup]]))]))


@pytest.mark.parametrize("seed", range(40))
def test_float_graphs_match_list_dinic(seed):
    rng = np.random.default_rng(300 + seed)
    n, tails, heads, _ = random_graph(rng)
    caps = rng.uniform(0.0, 10.0, tails.size) * (rng.random(tails.size) < 0.9)
    assert_same_as_list_dinic(n, *with_parallel_and_antiparallel(rng, tails, heads, caps),
                              0, n - 1)


@pytest.mark.parametrize("seed", range(40))
def test_caps_within_ulps_of_eps_match_list_dinic(seed):
    """Capacities and residuals a few ulps either side of the saturation test."""
    rng = np.random.default_rng(400 + seed)
    n, tails, heads, _ = random_graph(rng)
    ulps = rng.integers(-4, 5, tails.size)
    near = np.stack([EPS + ulps * np.spacing(EPS),         # the capacity itself
                     1.0 + EPS + ulps * np.spacing(1.0),   # the residual after 1.0
                     np.full(tails.size, 1.0), np.full(tails.size, 2 * EPS)])
    caps = near[rng.integers(0, 4, tails.size), np.arange(tails.size)]
    assert_same_as_list_dinic(n, *with_parallel_and_antiparallel(rng, tails, heads, caps),
                              0, n - 1)


@pytest.mark.parametrize("seed", range(20))
def test_qpbo_networks_match_list_dinic(seed, monkeypatch):
    """Every network the fusion solver builds while inferring a signed problem."""
    networks = []

    class Recording(MaxFlowGraph):
        def __init__(self, n, tails, heads, caps):
            networks.append((n, tails, heads, caps))
            super().__init__(n, tails, heads, caps)

    monkeypatch.setattr(crf, "MaxFlowGraph", Recording)
    crf.infer(random_signed_problem(np.random.default_rng(500 + seed), max_n=14))
    assert networks
    for n, tails, heads, caps in networks:
        assert_same_as_list_dinic(n, tails, heads, caps, n - 2, n - 1)


def chain(n, k, rng):
    """Path 0 -> 1 -> ... -> n - 1 whose only arc of capacity 0.5 is k -> k + 1."""
    caps = rng.uniform(1.0, 2.0, n - 1)
    caps[k] = 0.5
    return np.arange(n - 1), np.arange(1, n), caps


def ladder(n, k, rng):
    """The chain plus a rail of n more vertices hung off it by rungs.

    Rungs i -> n + i and back, rail n + i + 1 -> n + i: every rail vertex is a
    dead end of the level graph and nothing bypasses the bottleneck. The rungs
    come first, so the DFS tries each dead end before the next chain arc.
    """
    i = np.arange(n)
    tails, heads, caps = chain(n, k, rng)
    return (np.concatenate([i, n + i, n + i[1:], tails]),
            np.concatenate([n + i, i, n + i[:-1], heads]),
            np.concatenate([np.ones(3 * n - 1), caps]))


class Counting(MaxFlowGraph):
    """Counts BFS calls and the arcs their frontiers gather."""
    bfs_calls = 0
    gathered = 0

    def _bfs_levels(self, s):
        self.bfs_calls += 1
        return super()._bfs_levels(s)

    def _gather(self, nodes):
        arcs = super()._gather(nodes)
        self.gathered += arcs.size
        return arcs


@pytest.mark.parametrize("shape", [chain, ladder])
def test_deep_path(shape):
    n, k = 10_000, 6_000
    tails, heads, caps = shape(n, k, np.random.default_rng(7))
    nodes = 2 * n if shape is ladder else n
    g = Counting(nodes, tails, heads, caps)
    assert g.max_flow(0, n - 1) == 0.5
    expect = np.zeros(nodes, dtype=bool)
    expect[:k + 1] = True  # the cut falls right after the bottleneck arc
    expect[n:n + k + 1] = shape is ladder
    assert (g.source_side(0) == expect).all()
    # each BFS reads every arc at most once, however deep the levels run; the
    # cut is read off the BFS that ended max_flow
    assert g.bfs_calls == 2 and g.gathered <= g.bfs_calls * len(g.to)


def test_deep_ladder_matches_list_dinic():
    n = 10_000
    tails, heads, caps = ladder(n, 6_000, np.random.default_rng(8))
    assert_same_as_list_dinic(2 * n, tails, heads, caps, 0, n - 1)


BAD_NETWORKS = [
    pytest.param(lambda: MaxFlowGraph(3, [0, 3], [1, 2], [1.0, 1.0]), id="endpoint-high"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [-1, 2], [1.0, 1.0]),
                 id="endpoint-negative"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1, 2], [1.0, -1.0]), id="cap-negative"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1, 2], [1.0, np.nan]), id="cap-nan"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1, 2], [np.inf, 1.0]), id="cap-inf"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1], [1.0, 1.0]), id="length-mismatch"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1, 2], [1.0, 1.0]).max_flow(1, 1),
                 id="source-is-sink"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1, 2], [1.0, 1.0]).max_flow(0, 3),
                 id="sink-out-of-range"),
    pytest.param(lambda: MaxFlowGraph(3, [0, 1], [1, 2], [1.0, 1.0]).max_flow(-1, 2),
                 id="source-out-of-range"),
]


@pytest.mark.parametrize("build", BAD_NETWORKS)
def test_bad_network_raises(build):
    with pytest.raises(ValueError):
        build()
