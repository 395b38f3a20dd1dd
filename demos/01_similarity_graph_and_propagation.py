"""Build a small similarity graph and watch link scores diffuse over it.

Five regions: two 'horse'-like, two 'person'-like, one unrelated. A single
observed (horse, person) link between the labeled pair spreads to the
unlabeled lookalike pair, and the two-pass result (one shared resolvent
solve) is checked against the dense closed form.
"""

import numpy as np

from ctxseg.graph import build_knn_graph
from ctxseg.propagation import (dense_two_pass_limit, propagate_column_pass,
                                propagate_row_pass, resolvent)
from ctxseg.regions import Region, SparseMatrix, VideoSequence

print(__doc__)

features = np.array([
    [1.00, 0.00, 0.00],   # 0: horse, labeled
    [0.00, 1.00, 0.00],   # 1: person, labeled
    [0.99, 0.14, 0.00],   # 2: horse-like, unlabeled
    [0.14, 0.99, 0.00],   # 3: person-like, unlabeled
    [0.00, 0.00, 1.00],   # 4: unrelated
])
features /= np.linalg.norm(features, axis=1, keepdims=True)
regions = [Region(i, 0, f, area=100) for i, f in enumerate(features)]
seq = VideoSequence(regions, [])

graph = build_knn_graph(seq, k=2)
print("affinity matrix W:")
print(np.round(graph.affinity.toarray(), 3))
print("\nnormalized operator D^-1/2 W D^-1/2:")
print(np.round(graph.operator.toarray(), 3))

# one observed (horse, person) link between the labeled regions
observed = np.zeros((5, 5))
observed[0, 1] = 1.0
R = resolvent(graph.operator, mu=0.9)

rows = propagate_row_pass(SparseMatrix.from_dense(observed), R)
cols = propagate_column_pass(rows.matrix, R)
scores = cols.matrix.toarray()
print("\npropagated (horse, person) link scores:")
print(np.round(scores, 4))

print(f"\nscore for the unlabeled lookalike pair (2, 3): {scores[2, 3]:.4f}")
print(f"score for a pair involving the unrelated region (2, 4): {scores[2, 4]:.4f}")

oracle = dense_two_pass_limit(observed, graph.operator.toarray(), 0.9)
print(f"\nmax abs error against dense_two_pass_limit: "
      f"{np.abs(scores - oracle).max():.2e}")
