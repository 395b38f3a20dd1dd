"""Minimize a small region-labeling energy with QPBO fusion moves.

Two regions are equally torn between 'horse' (1) and 'person' (2) under the
unary model alone, and a strong propagated (horse, person) link tips the
joint assignment. A batch of random problems then compares fusion inference
against exhaustive enumeration.
"""

import numpy as np

from ctxseg.crf import (CrfProblem, PairwiseTerms, beta_adaptive,
                        brute_force_oracle, build_pairwise, energy, infer)
from ctxseg.propagation import LinkScoreMatrix
from ctxseg.regions import SparseMatrix

print(__doc__)

# classes: 0 background, 1 horse, 2 person; both regions ambiguous on 1 vs 2
unary = np.array([[5.0, 1.0, 1.0],
                  [5.0, 1.0, 1.0]])

link = np.zeros((2, 2))
link[0, 1] = 1.0
scores = {(1, 2): LinkScoreMatrix(SparseMatrix.from_dense(link)),
          (2, 1): LinkScoreMatrix(SparseMatrix.from_dense(link.T))}
beta = beta_adaptive(scores)
pairwise = build_pairwise(scores, beta, lambda_pair=1.0, num_classes=3)
problem = CrfProblem(unary, pairwise)
print(f"pairwise terms on region pairs {pairwise.edges.tolist()}; the stored cells of "
      f"(0, 1), every other class pair costing 0:")
L = pairwise.num_classes
for key, cost in zip(pairwise.keys.tolist(), pairwise.costs.tolist()):
    cell = key % (L * L)
    print(f"  classes {divmod(cell, L)}: {cost:+.4f}")

print("labeling energies:")
for a in range(3):
    for b in range(3):
        x = np.array([a, b])
        print(f"  x = ({a}, {b}): E = {energy(problem, x):+.4f}")

result = infer(problem)
print(f"\nfusion result: {tuple(map(int, result.assignment))} "
      f"at energy {result.energy:+.4f}")
print(f"exhaustive minimum: {tuple(map(int, brute_force_oracle(problem).assignment))}")

# random problems: inference is bracketed by the oracle and the unary argmin
rng = np.random.default_rng(11)
exact = 0
trials = 200
for _ in range(trials):
    n = int(rng.integers(3, 8))
    L = int(rng.integers(2, 5))
    unary = rng.uniform(0, 3, (n, L))
    terms = [((a, b), rng.normal(scale=0.7, size=(L, L)))
             for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    # every class pair of every table as a cell: key (k L + m) L + n
    tables = np.array([t for _, t in terms]).reshape(-1, L, L)
    p = CrfProblem(unary, PairwiseTerms(
        np.array([e for e, _ in terms], dtype=int).reshape(-1, 2),
        np.arange(tables.size), tables.reshape(-1), L))
    got = infer(p)
    best = brute_force_oracle(p)
    assert got.energy >= best.energy - 1e-9
    if abs(got.energy - best.energy) <= 1e-9:
        exact += 1
print(f"\nrandom mixed-sign problems solved exactly: {exact}/{trials}")
