import numpy as np
import pytest
from scipy import sparse

from ctxseg.graph import build_knn_graph, dump_graph, load_graph, normalized_operator
from ctxseg.regions import Region, VideoSequence


def seq_from_features(F):
    regions = [Region(i, 0, np.asarray(f, dtype=float), 1) for i, f in enumerate(F)]
    return VideoSequence(regions, [], frame_count=1)


def dense_reference(F, k):
    """Brute-force W and normalized operator over all pairwise inner products."""
    F = np.asarray(F, dtype=float)
    n = len(F)
    G = np.clip(F @ F.T, 0, None)
    np.fill_diagonal(G, -1)
    W = np.zeros((n, n))
    for i in range(n):
        order = np.lexsort((np.arange(n), -G[i]))
        for j in order[:k]:
            if G[i, j] > 0:
                W[i, j] = W[j, i] = G[i, j]
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
    assert g.affinity[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert g.operator[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_features_isolated():
    g = build_knn_graph(seq_from_features([[1.0, 0.0], [0.0, 1.0]]), k=1)
    assert g.affinity.nnz == 0
    assert np.all(g.degrees == 0)
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
    assert g.affinity[0, 1] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert g.affinity[1, 2] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert g.affinity[0, 2] == 0.0


def test_normalized_operator_single_edge_is_one():
    W = sparse.csr_matrix(np.array([[0.0, 0.37], [0.37, 0.0]]))
    L = normalized_operator(W)
    assert L[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert L[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_normalized_operator_four_cycle_all_half():
    W = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        W[i, j] = W[j, i] = 1.0
    L = normalized_operator(sparse.csr_matrix(W)).toarray()
    assert np.allclose(L[W > 0], 0.5, atol=1e-12)
    assert np.allclose(L[W == 0], 0.0)


def test_normalized_operator_empty():
    L = normalized_operator(sparse.csr_matrix((3, 3)))
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
    W = g.affinity
    L = g.operator
    # exact symmetry, zero diagonal, weights in [0, 1]
    assert (W != W.T).nnz == 0
    assert (L != L.T).nnz == 0
    assert np.all(W.diagonal() == 0)
    assert W.data.min() >= 0 and W.data.max() <= 1.0
    # sparsity: at most n*k undirected edges
    assert W.nnz / 2 <= n * k
    # degrees are row sums
    assert np.allclose(g.degrees, np.asarray(W.sum(axis=1)).ravel())
    # spectrum of the normalized operator within [-1, 1]
    eig = np.linalg.eigvalsh(L.toarray())
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
    g1 = build_knn_graph(seq_from_features(F), k=3)
    path = tmp_path / "graph.json"
    dump_graph(g1, path)
    g2 = load_graph(path)
    assert g2.n == g1.n
    assert (g1.affinity != g2.affinity).nnz == 0
    assert (g1.operator != g2.operator).nnz == 0
    dump_graph(g2, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
