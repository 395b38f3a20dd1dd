"""Dinic max-flow on float capacities, for the binary fusion solver.

The network lives in arrays indexed by arc id. Arc k is stored at id 2k with
its reverse at 2k + 1; ``to`` holds the head of every arc and ``cap`` its
residual capacity, which starts at zero on the reverse arcs. No tail array
is kept: the tail of arc e is the head of its reverse, ``to[e ^ 1]``.
Residual capacities at or below ``EPS`` count as saturated. ``out_arcs`` is
the stable sort of the arc ids by tail, so the arcs leaving vertex u sit in
id order at ``out_arcs[out_start[u]:out_start[u + 1]]`` (CSR offsets). It is
an LSD radix sort: one stable ``argsort`` per 16-bit digit of the tail, on
``uint16`` keys, which NumPy sorts by radix; one pass for n <= 65536. So a
network of m arcs holds three arrays of 2m eight-byte slots (``to``, ``cap``,
``out_arcs``) and n + 1 offsets.

Each phase first builds the BFS level graph by frontier expansion: the
frontier's out-arcs are gathered from the CSR offsets, so one BFS reads each
arc at most once however deep the graph is. BFS levels are distances, so they
do not depend on the visiting order. The blocking flow is an iterative DFS
with current-arc pointers, so deep augmenting paths cannot hit the
interpreter recursion limit. It runs over Python lists of the admissible
arcs alone: residual capacity above ``EPS``, head exactly one level above a
reached tail, and head either the sink or below the sink's level, grouped by
tail in id order, each with its reverse capacity alongside. The mask reads
the head levels once; arcs 2k and 2k + 1 hold each other's tail levels, so
one half-length difference of the pairs gives every level step. The DFS
keeps the path's vertices next to its arcs, for stepping back. When the
phase ends the capacities are written back.

Why this gives, bit for bit, the flow of a DFS that scans every arc of a
vertex and tests ``level[v] == level[u] + 1``: no arc outside the admissible
set can become admissible during the phase. Augmenting raises only the
residual of a reverse arc, which points one level down. Levels change only
when a dead end is marked, and a vertex on the DFS path is never dead, so for
an admissible arc the level test fails exactly when its head is dead: a flag
per vertex replaces it. An arc into a vertex at or beyond the sink's level
(other than the sink) leads only to vertices that cannot reach the sink:
that DFS would step in, mark them dead without moving flow and step back.
Only arcs into those vertices ever look at their flags and pointers, so
leaving these arcs out changes no capacity or later choice. So the DFS tries
the remaining arcs in the same order and subtracts and adds the same
bottlenecks in the same sequence, which gives the same flow, residuals and
cut. The bottleneck is the path's smallest capacity; the pass that subtracts
it also finds the first saturated arc, where the path is cut back.

The minimum cut, ``source_side``, is what a BFS from the source reaches in the
residual network. The last BFS of ``max_flow``, the one that no longer
reaches the sink, is exactly that BFS: ``source_side`` of the same source
reads it instead of searching again.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12


class MaxFlowGraph:
    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray, caps: np.ndarray):
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        caps = np.asarray(caps, dtype=float)
        if not (tails.ndim == heads.ndim == caps.ndim == 1
                and tails.size == heads.size == caps.size):
            raise ValueError(f"tails, heads and caps must be 1-D of one length, got shapes "
                             f"{tails.shape}, {heads.shape}, {caps.shape}")
        self.to = np.empty(2 * tails.size, dtype=np.int64)
        self.to[0::2], self.to[1::2] = heads, tails
        if self.to.size and not (self.to.min() >= 0 and self.to.max() < n):
            raise ValueError(f"arc endpoint out of range [0, {n})")
        if not (np.isfinite(caps) & (caps >= 0.0)).all():
            raise ValueError("arc capacities must be finite and nonnegative")
        self.n = n
        self.cap = np.zeros(2 * caps.size)
        self.cap[0::2] = caps
        # LSD radix sort on 16-bit digits: the stable argsort of the tails
        # (tails, then heads as the tails of the reverse arcs). Assignment
        # keeps a tail's low 16 bits; later digits read tail e as to[e ^ 1].
        digit = np.empty(self.to.size, dtype=np.uint16)
        digit[0::2], digit[1::2] = tails, heads
        order = np.argsort(digit, kind="stable")
        for shift in range(16, (n - 1).bit_length(), 16):
            digit = (self.to[order ^ 1] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
        self.out_arcs = order
        self.out_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n),
                  out=self.out_start[1:])
        self._cut: tuple[int, np.ndarray] | None = None  # (source, levels) of the last BFS

    def _gather(self, nodes: np.ndarray) -> np.ndarray:
        """Ids of the arcs leaving ``nodes``, node by node, each in id order."""
        lo = self.out_start[nodes]
        counts = self.out_start[nodes + 1] - lo
        # entry p of the result reads out_arcs[lo[i] + p - (start of node i's run)]
        shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        return self.out_arcs[shift + np.arange(shift.size)]

    def _bfs_levels(self, s: int) -> np.ndarray:
        """Residual distance from s of every vertex, -1 where unreachable."""
        if not 0 <= s < self.n:
            raise ValueError(f"source {s} out of range [0, {self.n})")
        level = np.full(self.n, -1)
        level[s] = 0
        slot = np.empty(self.n, dtype=np.int64)  # dedupes a frontier without sorting
        frontier = np.array([s])
        depth = 0
        while frontier.size:
            arcs = self._gather(frontier)
            heads = self.to[arcs[self.cap[arcs] > EPS]]
            heads = heads[level[heads] < 0]
            # one slot index survives per vertex: the next frontier, each vertex once
            k = np.arange(heads.size)
            slot[heads] = k
            frontier = heads[slot[heads] == k]
            depth += 1
            level[frontier] = depth
        return level

    def _admissible(self, t: int, level: np.ndarray) -> np.ndarray:
        """Ids of the admissible arcs, grouped by tail in id order."""
        lh = level[self.to]
        # the tail of arc e is the head of arc e ^ 1: pairs 2k, 2k + 1 hold
        # each other's tail levels
        rise = lh[0::2] - lh[1::2]
        ok = self.cap > EPS
        ok[0::2] &= (rise == 1) & (lh[1::2] >= 0)
        ok[1::2] &= (rise == -1) & (lh[0::2] >= 0)
        ok &= (lh < level[t]) | (self.to == t)  # only heads that can reach t
        return self.out_arcs[ok[self.out_arcs]]

    def _blocking_flow(self, s: int, t: int, level: np.ndarray) -> float:
        adm = self._admissible(t, level)
        counts = np.bincount(self.to[adm ^ 1], minlength=self.n)
        end = np.cumsum(counts)
        it = (end - counts).tolist()  # current-arc pointers
        end = end.tolist()
        to = self.to[adm].tolist()
        cap, rcap = self.cap[adm].tolist(), self.cap[adm ^ 1].tolist()
        dead = [False] * self.n
        total = 0.0
        path: list[int] = []   # admissible-list indices from s to the current node
        nodes: list[int] = []  # the tail of each arc on the path
        u = s
        while True:
            j, stop = it[u], end[u]
            while j < stop and (cap[j] <= EPS or dead[to[j]]):
                j += 1
            it[u] = j
            if j == stop:  # dead end
                if u == s:
                    break
                dead[u] = True
                path.pop()
                u = nodes.pop()
                it[u] += 1
                continue
            path.append(j)
            nodes.append(u)
            u = to[j]
            if u != t:
                continue
            bottleneck = cap[path[0]]
            for j in path:
                if cap[j] < bottleneck:
                    bottleneck = cap[j]
            cut = -1  # the path is truncated at its first saturated arc
            for i, j in enumerate(path):
                c = cap[j] = cap[j] - bottleneck
                rcap[j] += bottleneck
                if c <= EPS and cut < 0:
                    cut = i
            total += bottleneck
            u = nodes[cut]
            del path[cut:], nodes[cut:]
        self.cap[adm] = cap
        self.cap[adm ^ 1] = rcap
        return total

    def max_flow(self, s: int, t: int) -> float:
        if s == t:
            raise ValueError(f"source and sink are the same vertex {s}")
        if not 0 <= t < self.n:
            raise ValueError(f"sink {t} out of range [0, {self.n})")
        flow = 0.0
        level = self._bfs_levels(s)
        while level[t] >= 0:
            flow += self._blocking_flow(s, t, level)
            level = self._bfs_levels(s)
        self._cut = (s, level)
        return flow

    def source_side(self, s: int) -> np.ndarray:
        """Vertices reachable from s in the residual graph (the minimal cut)."""
        if self._cut is not None and self._cut[0] == s:
            return self._cut[1] >= 0
        return self._bfs_levels(s) >= 0
