import itertools

import numpy as np
import pytest

from problem_gen import binary_terms

from ctxseg.qpbo import UNLABELED, solve_binary_pairwise


def binary_energy(unary, pairwise, z):
    e = sum(unary[i, z[i]] for i in range(len(z)))
    for (a, b), t in pairwise.items():
        e += t[z[a], z[b]]
    return e


def enumerate_minimum(unary, pairwise):
    n = unary.shape[0]
    best, best_e = None, np.inf
    for z in itertools.product((0, 1), repeat=n):
        e = binary_energy(unary, pairwise, z)
        if e < best_e:
            best, best_e = z, e
    return np.array(best), best_e


def random_binary(rng, n, submodular):
    unary = rng.normal(scale=2.0, size=(n, 2))
    pairwise = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                t = rng.normal(scale=1.5, size=(2, 2))
                if submodular:
                    gap = t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1]
                    if gap < 0:
                        t[0, 1] += -gap + rng.uniform(0.01, 0.5)
                pairwise[(a, b)] = t
    return unary, pairwise


@pytest.mark.parametrize("seed", range(30))
def test_submodular_fully_labeled_and_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    unary, pairwise = random_binary(rng, n, submodular=True)
    z = solve_binary_pairwise(unary, *binary_terms(pairwise))
    assert np.all(z != UNLABELED)
    _, best_e = enumerate_minimum(unary, pairwise)
    assert binary_energy(unary, pairwise, z) == pytest.approx(best_e, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_weak_autarky_on_arbitrary_instances(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 10))
    unary, pairwise = random_binary(rng, n, submodular=False)
    z = solve_binary_pairwise(unary, *binary_terms(pairwise))
    labeled = z != UNLABELED
    for _ in range(10):
        y = rng.integers(0, 2, size=n)
        fused = y.copy()
        fused[labeled] = z[labeled]
        assert (binary_energy(unary, pairwise, fused)
                <= binary_energy(unary, pairwise, y) + 1e-9)


def test_unary_only():
    unary = np.array([[0.0, 1.0], [3.0, -1.0]])
    z = solve_binary_pairwise(unary, *binary_terms({}))
    assert np.array_equal(z, [0, 1])


def test_empty_problem():
    assert solve_binary_pairwise(np.zeros((0, 2)), *binary_terms({})).size == 0


def test_nonsubmodular_labeled_part_matches_an_optimum():
    # frustrated triangle: disagreement costs on all three edges
    unary = np.zeros((3, 2))
    anti = np.array([[1.0, 0.0], [0.0, 1.0]])
    pairwise = {(0, 1): anti, (1, 2): anti, (0, 2): anti}
    z = solve_binary_pairwise(unary, *binary_terms(pairwise))
    best, best_e = enumerate_minimum(unary, pairwise)
    labeled = z != UNLABELED
    if labeled.any():
        # completing the labeled part optimally reaches the global minimum
        candidates = [c for c in itertools.product((0, 1), repeat=3)
                      if all(c[i] == z[i] for i in range(3) if labeled[i])]
        assert min(binary_energy(unary, pairwise, c) for c in candidates) \
            == pytest.approx(best_e, abs=1e-9)
