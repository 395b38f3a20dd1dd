import json
import tracemalloc

import numpy as np
import pytest

from ctxseg import graph
from ctxseg.graph import build_knn_graph, dump_graph, load_graph
from ctxseg.regions import Region, VideoSequence
from problem_gen import loop_knn_edges, normalized_operator


def seq_from_features(F):
    regions = [Region(i, 0, np.asarray(f, dtype=float), 1) for i, f in enumerate(F)]
    return VideoSequence(regions, [])


def dense_reference(F, k):
    """Dense W of the reference edge set and its brute-force normalized operator."""
    n = len(F)
    W = np.zeros((n, n))
    for (i, j), w in loop_knn_edges(F, k).items():
        W[i, j] = W[j, i] = w
    d = W.sum(axis=1)
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if W[i, j] and d[i] > 0 and d[j] > 0:
                L[i, j] = W[i, j] / np.sqrt(d[i] * d[j])
    return W, L


def test_identical_unit_features_single_edge():
    g = build_knn_graph(seq_from_features([[1.0, 0.0], [1.0, 0.0]]), k=1)
    assert g.affinity.nnz == 2
    assert g.affinity.toarray()[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert g.operator.toarray()[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_features_isolated():
    g = build_knn_graph(seq_from_features([[1.0, 0.0], [0.0, 1.0]]), k=1)
    assert g.affinity.nnz == 0
    assert np.all(g.affinity.toarray().sum(axis=1) == 0)
    assert g.operator.nnz == 0


def test_three_angles_matches_dense_brute_force():
    F = [[1.0, 0.0],
         [np.cos(np.pi / 4), np.sin(np.pi / 4)],
         [0.0, 1.0]]
    g = build_knn_graph(seq_from_features(F), k=1)
    W_ref, L_ref = dense_reference(F, 1)
    assert np.allclose(g.affinity.toarray(), W_ref, atol=1e-12)
    assert np.allclose(g.operator.toarray(), L_ref, atol=1e-12)
    # the middle vertex bridges both ends at weight cos(45 deg)
    W = g.affinity.toarray()
    assert W[0, 1] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert W[1, 2] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert W[0, 2] == 0.0


def test_normalized_operator_single_edge_is_one():
    W = np.array([[0.0, 0.37], [0.37, 0.0]])
    L = normalized_operator(W).toarray()
    assert L[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert L[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_normalized_operator_four_cycle_all_half():
    W = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        W[i, j] = W[j, i] = 1.0
    L = normalized_operator(W).toarray()
    assert np.allclose(L[W > 0], 0.5, atol=1e-12)
    assert np.allclose(L[W == 0], 0.0)


def test_normalized_operator_empty():
    L = normalized_operator(np.zeros((3, 3)))
    assert L.nnz == 0


def test_k_truncated_when_too_large():
    g = build_knn_graph(seq_from_features([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), k=99)
    assert g.k == 2


def test_too_few_vertices():
    with pytest.raises(ValueError):
        build_knn_graph(seq_from_features([[1.0, 0.0]]), k=1)


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_match_dense_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    k = int(rng.integers(1, 5))
    F = rng.standard_normal((n, 5))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    g = build_knn_graph(seq_from_features(F), k=k)
    W_ref, L_ref = dense_reference(F, k)
    assert np.allclose(g.affinity.toarray(), W_ref, atol=1e-9)
    assert np.allclose(g.operator.toarray(), L_ref, atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_graph_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 50))
    k = int(rng.integers(1, 8))
    F = rng.standard_normal((n, 6))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    g = build_knn_graph(seq_from_features(F), k=k)
    W = g.affinity.toarray()
    L = g.operator.toarray()
    # exact symmetry, zero diagonal, weights in [0, 1]
    assert np.array_equal(W, W.T)
    assert np.array_equal(L, L.T)
    assert np.all(W.diagonal() == 0)
    assert g.affinity.data.min() >= 0 and g.affinity.data.max() <= 1.0
    # sparsity: at most n*k undirected edges
    assert g.affinity.nnz / 2 <= n * k
    # the operator is W scaled on both sides by its row sums, the degrees
    d = W.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.allclose(L, np.nan_to_num(W / np.sqrt(np.outer(d, d))), atol=1e-12)
    # spectrum of the normalized operator within [-1, 1]
    eig = np.linalg.eigvalsh(L)
    assert np.abs(eig).max() <= 1.0 + 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    n = 12
    F = rng.standard_normal((n, 4))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    perm = rng.permutation(n)
    g1 = build_knn_graph(seq_from_features(F), k=3)
    g2 = build_knn_graph(seq_from_features(F[perm]), k=3)
    P = np.eye(n)[perm]
    assert np.allclose(P @ g1.affinity.toarray() @ P.T, g2.affinity.toarray(), atol=1e-12)
    assert np.allclose(P @ g1.operator.toarray() @ P.T, g2.operator.toarray(), atol=1e-12)


def test_dump_and_reload_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    F = rng.standard_normal((10, 4))
    F /= np.linalg.norm(F, axis=1, keepdims=True)
    # and weights at the ends of the float range, which the reader must take back
    extremes = graph._assemble(6, 1, np.array([0, 2, 4]), np.array([1, 3, 5]),
                               np.array([-0.0, 5e-324, 1.7976931348623157e308]))
    for g1 in (build_knn_graph(seq_from_features(F), k=3), extremes):
        path = tmp_path / "graph.json"
        dump_graph(g1, path)
        g2 = load_graph(path)
        assert g2.n == g1.n
        assert np.array_equal(g1.affinity.toarray(), g2.affinity.toarray())
        assert g1.affinity.data.tobytes() == g2.affinity.data.tobytes()
        assert np.array_equal(g1.operator.toarray(), g2.operator.toarray())
        dump_graph(g2, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def upper_entries(g):
    """Rows, columns and weights of the affinity's entries above the diagonal."""
    W = g.affinity
    upper = W.row < W.col
    return W.row[upper], W.col[upper], W.data[upper]


def edge_dict(g):
    """``{(a, b): w}``, a < b, of a graph's affinity."""
    return {(int(a), int(b)): float(w) for a, b, w in zip(*upper_entries(g))}


def assert_matches_oracle(F, k):
    got = edge_dict(build_knn_graph(seq_from_features(F), k))
    want = loop_knn_edges(F, k)
    assert sorted(got) == sorted(want)
    assert all(got[e].hex() == want[e].hex() for e in want)


def unit_rows(rng, n, d):
    F = rng.standard_normal((n, d))
    return F / np.linalg.norm(F, axis=1, keepdims=True)


B = graph.SELECT_ROWS


@pytest.mark.parametrize("n", [2, 3, B - 1, B, B + 1, 2 * B, 2 * B + 5])
@pytest.mark.parametrize("k", [1, 3, 10])
def test_selection_matches_oracle_across_block_edges(n, k):
    rng = np.random.default_rng(1000 * n + k)
    assert_matches_oracle(unit_rows(rng, n, 4), k)


@pytest.mark.parametrize("n", [2, 5, B + 1])
@pytest.mark.parametrize("extra", [-1, 0, 1, 50])
def test_selection_matches_oracle_for_k_near_and_above_n(n, extra):
    rng = np.random.default_rng(n)
    assert_matches_oracle(unit_rows(rng, n, 3), max(1, n - 1 + extra))


@pytest.mark.parametrize("seed", range(4))
def test_selection_matches_oracle_with_ties_at_the_cutoff(seed):
    # a few distinct directions, each repeated many times: most rows hold more
    # equal values at the cutoff than the k slots left
    rng = np.random.default_rng(seed)
    n = 2 * B + 7
    F = unit_rows(rng, 5, 3)[rng.integers(0, 5, n)]
    for k in (1, 4, 20, n - 1):
        assert_matches_oracle(F, k)


@pytest.mark.parametrize("seed", range(3))
def test_selection_matches_oracle_with_negative_and_clipped_products(seed):
    # seven directions in the plane, each at one length (3, 0.5 or 1) and
    # repeated: products of a direction with itself tie (or clip to 1.0), and
    # those of directions more than 90 degrees apart clip to 0.0 (dropped)
    rng = np.random.default_rng(10 + seed)
    dirs = unit_rows(rng, 7, 2) * np.array([3.0, 0.5, 1.0, 3.0, 0.5, 1.0, 3.0])[:, None]
    F = dirs[rng.integers(0, 7, B + 9)]
    for k in (1, 5, 30):
        assert_matches_oracle(F, k)


def test_selection_all_zero_and_partly_zero_features():
    assert_matches_oracle(np.zeros((B + 3, 4)), 5)
    assert edge_dict(build_knn_graph(seq_from_features(np.zeros((B + 3, 4))), 5)) == {}
    F = unit_rows(np.random.default_rng(3), B + 3, 4)
    F[::3] = 0.0
    assert_matches_oracle(F, 5)


def test_selection_temporaries_scale_with_the_block():
    """Beyond the 8 n^2 Gram matrix, the build holds at most 12 bytes per cell
    of one row block and 24 bytes per proposal slot (k per row)."""
    n, k = 1500, 20
    seq = seq_from_features(unit_rows(np.random.default_rng(0), n, 16))
    build_knn_graph(seq, k)  # first calls may import modules; trace a warm one
    tracemalloc.start()
    try:
        build_knn_graph(seq, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * n * n <= 12 * B * n + 24 * n * k


def test_gram_is_freed_before_assembly(monkeypatch):
    n, k = 600, 10
    seq = seq_from_features(unit_rows(np.random.default_rng(1), n, 8))
    build_knn_graph(seq, k)
    assemble, held = graph._assemble, []

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return assemble(*args)

    monkeypatch.setattr(graph, "_assemble", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build_knn_graph(seq, k)
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < 8 * n * n


def graph_with_edges(m, n=200):
    """A graph on n vertices with m distinct random edges."""
    rng = np.random.default_rng(m)
    i, j = np.triu_indices(n, 1)
    pick = rng.choice(len(i), size=m, replace=False)
    return graph._assemble(n, 7, i[pick], j[pick], rng.uniform(0.0, 1.0, m))


@pytest.mark.parametrize("m", [0, 1, 5000])
def test_dump_writes_the_bytes_of_json_dump(tmp_path, m):
    g = graph_with_edges(m)
    dump_graph(g, tmp_path / "graph.json")
    edges = sorted([int(a), int(b), float(w)] for a, b, w in zip(*upper_entries(g)))
    assert len(edges) == m
    with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
        json.dump({"n": g.n, "k": g.k, "edges": edges}, fh)
        fh.write("\n")
    assert (tmp_path / "graph.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    dump_graph(load_graph(tmp_path / "graph.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "want.json").read_bytes()
