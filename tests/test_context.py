import itertools
import time

import numpy as np
import pytest

from ctxseg.context import (build_observed_links, dump_links, extract_exemplars,
                            load_links)
from ctxseg.regions import Region, VideoSequence


def make_seq(frame_of):
    """Sequence with one region per id, frames as given."""
    regions = [Region(rid, f, np.array([1.0, 0.0]), 10, (0, 0, 5, 5))
               for rid, f in frame_of.items()]
    return VideoSequence(regions, [])


class TestExtractExemplars:
    def test_two_object_classes_both_orders(self):
        seq = make_seq({0: 0, 1: 0})
        ex = extract_exemplars({0: 1, 1: 2}, {0}, seq)
        assert sorted(ex) == [(0, 1, 1, 2), (1, 0, 2, 1)]

    def test_background_pair_excluded_by_default(self):
        seq = make_seq({0: 0, 1: 0})
        assert extract_exemplars({0: 0, 1: 0}, {0}, seq) == []

    def test_mixed_background_pairs_kept(self):
        seq = make_seq({0: 0, 1: 0})
        ex = extract_exemplars({0: 0, 1: 2}, {0}, seq)
        assert sorted(ex) == [(0, 1, 0, 2), (1, 0, 2, 0)]

    def test_temporal_window_gate(self):
        seq = make_seq({0: 0, 1: 3})
        assert extract_exemplars({0: 1, 1: 2}, {0, 3}, seq) == []
        ex = extract_exemplars({0: 1, 1: 2}, {0, 3}, seq, temporal_window=3)
        assert len(ex) == 2

    def test_empty_labels(self):
        seq = make_seq({0: 0})
        assert extract_exemplars({}, {0}, seq) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_same_frame_count_formula(self, seed):
        rng = np.random.default_rng(seed)
        frame_of = {rid: int(rng.integers(0, 5)) for rid in range(20)}
        labels = {rid: int(rng.integers(0, 3)) for rid in frame_of}
        seq = make_seq(frame_of)
        ex = extract_exemplars(labels, set(frame_of.values()), seq)
        expected = 0
        for f in set(frame_of.values()):
            ids = [r for r in labels if frame_of[r] == f]
            expected += len(ids) * (len(ids) - 1)
            bg = [r for r in ids if labels[r] == 0]
            expected -= len(bg) * (len(bg) - 1)
        assert len(ex) == expected

    @pytest.mark.parametrize("window", [0, 1, 2, 5, 2.5, 10**9])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_brute_force_over_all_region_pairs(self, seed, window):
        rng = np.random.default_rng(100 + seed)
        frame_of = {rid: int(rng.integers(0, 12)) for rid in range(30)}
        covered = {int(f) for f in rng.choice(12, size=7, replace=False)}
        labels = {rid: int(rng.integers(0, 3)) for rid in frame_of
                  if rng.random() < 0.7}  # some outside ``covered``, some unlabeled
        seq = make_seq(frame_of)
        kept = [r for r in labels if frame_of[r] in covered]
        pairs = sorted(((a, b) for a, b in itertools.product(kept, kept)
                        if a != b and abs(frame_of[a] - frame_of[b]) <= window
                        and (labels[a] != 0 or labels[b] != 0)),
                       key=lambda p: (frame_of[p[0]], frame_of[p[1]], p[0], p[1]))
        expected = [(seq.index_of(a), seq.index_of(b), labels[a], labels[b])
                    for a, b in pairs]
        assert extract_exemplars(labels, covered, seq, window) == expected

    def test_long_video_scales_with_window_not_frame_count(self):
        frames = 8000
        seq = make_seq({rid: rid for rid in range(frames)})
        labels = dict.fromkeys(range(frames), 1)
        start = time.perf_counter()
        ex = extract_exemplars(labels, set(range(frames)), seq, temporal_window=1)
        elapsed = time.perf_counter() - start
        assert len(ex) == 2 * (frames - 1)
        assert elapsed < 1.0


class TestObservedLinks:
    def test_entries_and_cross_pair_symmetry(self):
        seq = make_seq({2: 0, 5: 0})
        ex = extract_exemplars({2: 1, 5: 2}, {0}, seq)
        links = build_observed_links(ex, n=6)
        i, j = seq.index_of(2), seq.index_of(5)
        assert links[(1, 2)].toarray()[i, j] == 1.0
        assert links[(2, 1)].toarray()[j, i] == 1.0
        assert links[(1, 2)].nnz == links[(2, 1)].nnz == 1

    def test_empty_exemplars(self):
        assert build_observed_links([], 4) == {}

    def test_duplicate_exemplars_idempotent(self):
        ex = [(0, 1, 1, 2), (0, 1, 1, 2)]
        links = build_observed_links(ex, 3)
        assert links[(1, 2)].toarray()[0, 1] == 1.0
        assert links[(1, 2)].nnz == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            build_observed_links([(0, 9, 1, 2)], 3)

    @pytest.mark.parametrize("exemplar", [(0, 1, -1, 2), (0, 1, 1, -2)])
    def test_negative_class(self, exemplar):
        with pytest.raises(ValueError, match="must be >= 0"):
            build_observed_links([exemplar], 3)

    def test_class_ids_have_no_upper_bound(self):
        assert list(build_observed_links([(0, 1, 7, 40)], 3)) == [(7, 40)]

    @pytest.mark.parametrize("seed", range(4))
    def test_pairwise_nnz_balance_and_frame_membership(self, seed):
        rng = np.random.default_rng(10 + seed)
        frame_of = {rid: int(rng.integers(0, 6)) for rid in range(15)}
        seq = make_seq(frame_of)
        annotated = {0, 1, 2}
        labels = {rid: int(rng.integers(0, 3)) for rid in frame_of
                  if frame_of[rid] in annotated}
        ex = extract_exemplars(labels, annotated, seq)
        links = build_observed_links(ex, seq.n)
        ann_vertices = {seq.index_of(r) for r in labels}
        for (m, n), mat in links.items():
            assert links[(n, m)].nnz == mat.nnz
            assert np.array_equal(mat.toarray(), links[(n, m)].toarray().T)
            assert all(i in ann_vertices and j in ann_vertices
                       for i, j in zip(mat.row, mat.col))
            assert np.all(mat.toarray().diagonal() == 0)


def test_links_dump_roundtrip(tmp_path):
    seq = make_seq({0: 0, 1: 0, 2: 0})
    ex = extract_exemplars({0: 1, 1: 2, 2: 0}, {0}, seq)
    links = build_observed_links(ex, 3)
    path = tmp_path / "links.jsonl"
    dump_links(links, path)
    loaded = load_links(path, 3)
    assert set(loaded) == set(links)
    for pair in links:
        assert np.array_equal(loaded[pair].toarray(), links[pair].toarray())
