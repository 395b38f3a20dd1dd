"""``regions.SparseMatrix`` and the sparse arithmetic built on it, bit for bit
against ``scipy.sparse``, which the package itself no longer imports.

Bits are compared through ``view(np.uint64)``, so signed zeros count too.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import ctxseg
from ctxseg import graph, propagation
from ctxseg.regions import SparseMatrix

SIZES = [0, 1, 2, 3, 7, 20]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same(M, S):
    """M holds exactly the stored entries of the SciPy matrix S."""
    S = sparse.csr_matrix(S)
    S.sort_indices()
    coo = S.tocoo()
    assert M.shape == S.shape
    assert M.nnz == S.nnz
    assert np.array_equal(M.row, coo.row) and np.array_equal(M.col, coo.col)
    assert np.array_equal(bits(M.data), bits(coo.data))


def random_values(rng, size):
    """Values over many magnitudes, with exact zeros and negative zeros mixed in."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7, size)
    v[rng.random(size) < 0.1] = 0.0
    v[rng.random(size) < 0.1] = -0.0
    return v


def random_entries(rng, n, max_row=16):
    """Entries in random order, up to ``max_row`` a row, each position once.

    Rows left empty are common. A position drawn more than once holds the sum
    of its draws, added in draw order.
    """
    counts = rng.integers(0, max_row + 1, n) * (rng.random(n) < 0.6)
    row = np.repeat(np.arange(n), counts)
    col = rng.integers(0, max(1, min(n, 4 if rng.random() < 0.5 else n)), len(row))
    order = rng.permutation(len(row))
    row, col, data = row[order], col[order], random_values(rng, len(row))
    _, first, position = np.unique(row * n + col, return_index=True, return_inverse=True)
    later = np.ones(len(row), dtype=bool)
    later[first] = False
    summed = data[first]
    np.add.at(summed, position[later], data[later])
    drawn = np.argsort(first)
    return row[first][drawn], col[first][drawn], summed[drawn]


def random_dense(rng, n, m=None):
    a = random_values(rng, (n, n if m is None else m))
    a[rng.random(a.shape) < 0.6] = 0.0
    a[rng.random(n) < 0.3] = 0.0  # empty rows
    return a


@pytest.mark.parametrize("seed", range(40))
def test_from_entries_sums_repeats_as_scipy_does(seed):
    # SciPy sums a repeated position; from_entries refuses it. Given each
    # position once, the two store the same entries
    rng = np.random.default_rng(seed)
    n = SIZES[seed % len(SIZES)]
    row, col, data = random_entries(rng, n)
    M = SparseMatrix.from_entries(row, col, data, (n, n))
    assert_same(M, sparse.csr_matrix((data, (row, col)), shape=(n, n)))
    assert np.array_equal(bits(M.toarray()),
                          bits(sparse.csr_matrix((data, (row, col)), shape=(n, n)).toarray()))
    if len(row):
        i = int(rng.integers(len(row)))
        with pytest.raises(ValueError,
                           match=fr"^position \({row[i]}, {col[i]}\) repeats an earlier entry$"):
            SparseMatrix.from_entries(np.append(row, row[i]), np.append(col, col[i]),
                                      np.append(data, 1.0), (n, n))


def test_from_entries_keeps_stored_zeros():
    M = SparseMatrix.from_entries([1, 0], [0, 1], [2.0, 0.0], (2, 2))
    S = sparse.csr_matrix(([2.0, 0.0], ([1, 0], [0, 1])), shape=(2, 2))
    assert_same(M, S)
    assert M.nnz == 2


@pytest.mark.parametrize("seed", range(30))
def test_from_dense_and_toarray_match_csr(seed):
    rng = np.random.default_rng(100 + seed)
    n = SIZES[seed % len(SIZES)]
    a = random_dense(rng, n, int(rng.integers(0, 6)) if seed % 3 == 0 else None)
    M = SparseMatrix.from_dense(a)
    assert_same(M, sparse.csr_matrix(a))
    assert np.array_equal(bits(M.toarray()), bits(sparse.csr_matrix(a).toarray()))


@pytest.mark.parametrize("seed", range(12))
def test_from_dense_gathers_as_nonzero_does(seed):
    # the gather through a mask keeps what np.nonzero on the floats keeps:
    # NaN is kept, -0.0 and 0.0 are not
    rng = np.random.default_rng(700 + seed)
    n = SIZES[seed % len(SIZES)]
    a = random_dense(rng, n, int(rng.integers(0, 6)) if seed % 3 == 0 else None)
    a[rng.random(a.shape) < 0.2] = -0.0
    a[rng.random(a.shape) < 0.1] = np.nan
    row, col = np.nonzero(a)
    M = SparseMatrix.from_dense(a)
    assert M.shape == a.shape
    assert np.array_equal(M.row, row) and np.array_equal(M.col, col)
    assert np.array_equal(bits(M.data), bits(a[row, col]))
    eps = float(rng.choice([0.0, 1e-8, 1e-3, 1.0]))
    assert_same(SparseMatrix.from_dense(a, eps), pruned(a, eps))


@pytest.mark.parametrize("n", SIZES)
def test_all_zero_matrices(n):
    zero = np.zeros((n, n))
    for M in (SparseMatrix.from_dense(zero), SparseMatrix.from_dense(-zero),
              SparseMatrix.from_entries([], [], [], (n, n))):
        assert_same(M, sparse.csr_matrix((n, n)))
        assert np.array_equal(bits(M.toarray()), bits(zero))


@pytest.mark.parametrize("seed", range(40))
def test_row_product_matches_csr_matmul(seed):
    rng = np.random.default_rng(200 + seed)
    n = (SIZES + [60])[seed % (len(SIZES) + 1)]
    M = SparseMatrix.from_entries(*random_entries(rng, n, max_row=40), (n, n))
    R = rng.standard_normal((n, n))
    want = sparse.csr_matrix((M.data, (M.row, M.col)), shape=(n, n)) @ R
    assert np.array_equal(bits(propagation._right_product(M, R)), bits(want))


@pytest.mark.parametrize("seed", range(30))
def test_left_product_matches_scipy(seed):
    rng = np.random.default_rng(300 + seed)
    n = SIZES[seed % len(SIZES)]
    a = random_dense(rng, n)
    R = rng.standard_normal((n, n))
    S = sparse.csr_matrix(a)
    active = np.flatnonzero(np.diff(S.indptr))
    want = sparse.csr_matrix(R[:, active] @ S[active].toarray())
    assert_same(propagation.propagate_column_pass(SparseMatrix.from_dense(a), R).matrix, want)


@pytest.mark.parametrize("seed", range(30))
def test_graph_degrees_and_operator_match_scipy(seed):
    rng = np.random.default_rng(400 + seed)
    n = SIZES[seed % len(SIZES)]
    i, j = np.triu_indices(n, 1)
    pick = rng.random(len(i)) < rng.random()
    i, j = i[pick], j[pick]
    w = rng.uniform(0.0, 1.0, len(i)) * 10.0 ** rng.integers(-3, 3, len(i))
    w[rng.random(len(w)) < 0.1] = 0.0
    order = rng.permutation(len(i))
    g = graph._assemble(n, 3, i[order], j[order], w[order])
    # the assembly as it was written against scipy.sparse
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    W = sparse.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    degrees = np.asarray(W.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(degrees)
    dinv[~np.isfinite(dinv)] = 0.0
    lv = w * dinv[i] * dinv[j]
    L = sparse.csr_matrix((np.concatenate([lv, lv]), (rows, cols)), shape=(n, n))
    assert_same(g.affinity, W)
    assert_same(g.operator, L)
    A = g.affinity
    sums = sparse.csr_matrix((A.data, (A.row, A.col)), shape=(n, n)).sum(axis=1)
    assert np.array_equal(bits(np.asarray(sums).ravel()), bits(degrees))


@pytest.mark.parametrize("seed", range(30))
def test_prune_matches_eliminate_zeros(seed):
    rng = np.random.default_rng(500 + seed)
    n = SIZES[seed % len(SIZES)]
    row, col, data = random_entries(rng, n)
    data = np.abs(data) * rng.choice([1.0, -1.0], len(data), p=[0.8, 0.2])
    eps = float(rng.choice([0.0, 1e-8, 1e-3, 1.0]))
    M = SparseMatrix.from_entries(row, col, data, (n, n))
    S = sparse.csr_matrix((data, (row, col)), shape=(n, n))
    S.data[S.data < eps] = 0.0
    S.eliminate_zeros()
    got = SparseMatrix.from_dense(M.toarray(), eps)
    assert_same(got, S)
    assert not (got.data < eps).any() and got.data.all()


def pruned(dense, eps):
    """SciPy's stored entries of a dense product, pruned at eps (None: none)."""
    S = sparse.csr_matrix(dense)
    if eps is not None:
        S.data[S.data < eps] = 0.0
        S.eliminate_zeros()
    return S


@pytest.mark.parametrize("eps", [None, 0.0, 1e-3], ids=["none", "zero", "1e-3"])
@pytest.mark.parametrize("seed", range(12))
def test_passes_gather_what_the_prune_keeps(seed, eps):
    # each pass gathers only the entries a prune at eps keeps: the same bytes
    # as the dense product's nonzeros pruned afterwards; with no prune,
    # negative entries stay
    rng = np.random.default_rng(600 + seed)
    n = SIZES[seed % len(SIZES)]
    O = SparseMatrix.from_entries(*random_entries(rng, n), (n, n))
    R = rng.standard_normal((n, n))
    rows = propagation.propagate_row_pass(O, R, eps).matrix
    assert_same(rows, pruned(sparse.csr_matrix((O.data, (O.row, O.col)), shape=(n, n)) @ R,
                             eps))
    cols = propagation.propagate_column_pass(rows, R, eps).matrix
    S = sparse.csr_matrix(rows.toarray())
    active = np.flatnonzero(np.diff(S.indptr))
    assert_same(cols, pruned(R[:, active] @ S[active].toarray(), eps))
    if eps is None and rows.nnz:
        assert (rows.data < 0).any()


def test_import_and_pipeline_run_leave_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctxseg.__file__)))
    script = f"""
import sys
import ctxseg, ctxseg.cli
out = {str(tmp_path)!r}
assert ctxseg.cli.main(["synth", "--seed", "7", "--out", out + "/data"]) == 0
assert ctxseg.cli.main(["pipeline", "--regions", out + "/data/regions.jsonl",
                        "--detections", out + "/data/detections.jsonl",
                        "--gt", out + "/data/gt.jsonl", "--out", out + "/run"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "scores.jsonl").stat().st_size > 0  # context ran
