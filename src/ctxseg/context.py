"""Context exemplars from labeled regions and their observed link matrices.

An exemplar is an ordered pair of labeled regions asserting that the first
region's class supports the second's. Exemplars are grouped by ordered class
pair (m, n) into binary N x N ``SparseMatrix`` links, indexed by vertex position.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from .regions import SparseMatrix, VideoSequence, dump_class_pairs, load_class_pairs

BACKGROUND = 0
Exemplar = tuple[int, int, int, int]  # (vertex_i, vertex_j, class_m, class_n)


def extract_exemplars(labels: Mapping[int, int], frames: AbstractSet[int],
                      seq: VideoSequence, temporal_window: int = 0) -> list[Exemplar]:
    """Every ordered pair of distinct labeled regions in frames of ``frames``
    at most ``temporal_window`` apart, except two background regions.

    ``labels`` maps region ids to classes. Pairs are ordered by the two frames,
    then the two region ids; each frame meets only the covered frames in its
    window, found by bisection, so any window costs O(F log F + pairs).

    ValueError: ``temporal_window`` below 0.
    """
    if not temporal_window >= 0:
        raise ValueError("temporal_window must be >= 0")
    by_frame: dict[int, list[tuple[int, int]]] = {}  # frame -> [(vertex, class)]
    for rid in sorted(labels):
        r = seq.region(rid)
        if r.frame not in frames:
            continue
        by_frame.setdefault(r.frame, []).append((seq.index_of(rid), labels[rid]))

    out: list[Exemplar] = []
    covered = sorted(by_frame)
    for fa in covered:
        for fb in covered[bisect_left(covered, fa - temporal_window):
                          bisect_right(covered, fa + temporal_window)]:
            for i, ci in by_frame[fa]:
                for j, cj in by_frame[fb]:
                    if i != j and (ci != BACKGROUND or cj != BACKGROUND):
                        out.append((i, j, ci, cj))
    return out


def build_observed_links(ex: Sequence[Exemplar], n: int) -> dict[tuple[int, int], SparseMatrix]:
    """One binary link matrix per ordered class pair that has exemplars.

    Entry (i, j) is 1 when the exemplar set contains (v_i, v_j, c_m, c_n);
    repeated exemplars collapse to a single entry. Class pairs without
    exemplars are absent (implicit zero matrices). Class ids are the caller's.
    ValueError: a vertex outside [0, n), a negative class, or i == j.
    """
    cells: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for i, j, m, n_cls in ex:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"exemplar vertex ({i}, {j}) out of range for n={n}")
        if m < 0 or n_cls < 0:
            raise ValueError(f"exemplar classes ({m}, {n_cls}) must be >= 0")
        if i == j:
            raise ValueError("exemplar must pair two distinct regions")
        cells.setdefault((m, n_cls), set()).add((i, j))

    out: dict[tuple[int, int], SparseMatrix] = {}
    for pair in sorted(cells):
        rows, cols = np.array(sorted(cells[pair])).T
        out[pair] = SparseMatrix(rows, cols, np.ones(len(rows)), (n, n))
    return out


def dump_links(links: Mapping[tuple[int, int], SparseMatrix], path) -> None:
    """One JSON line per class pair: ``{"m":, "n":, "links": [[i, j]...]}``."""
    dump_class_pairs(links, path, "links", 2)


def load_links(path, n: int) -> dict[tuple[int, int], SparseMatrix]:
    return load_class_pairs(path, "links", n, 2)
