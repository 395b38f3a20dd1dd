"""Dinic max-flow on float capacities, for the binary fusion solver.

The network lives in arrays indexed by arc id. Arc k is stored at id 2k with
its reverse at 2k + 1; ``tail`` and ``to`` hold the ends of every arc and
``cap`` its residual capacity, which starts at zero on the reverse arcs.
Residual capacities at or below ``EPS`` count as saturated. ``out_arcs`` is
the stable sort of the arc ids by tail, so the arcs leaving vertex u sit in
id order at ``out_arcs[out_start[u]:out_start[u + 1]]`` (CSR offsets).

Each phase first builds the BFS level graph by frontier expansion: the
frontier's out-arcs are gathered from the CSR offsets, so one BFS reads each
arc at most once however deep the graph is. BFS levels are distances, so they
do not depend on the visiting order. The blocking flow is an iterative DFS
with current-arc pointers, so deep augmenting paths cannot hit the
interpreter recursion limit. It runs over Python lists of the admissible
arcs alone: residual capacity above ``EPS`` and head exactly one level above
a reached tail, grouped by tail in id order, each with its reverse capacity
alongside. When the phase ends their capacities are written back.

Why this gives, bit for bit, the flow of a DFS that scans every arc of a
vertex: no arc outside the admissible set can become admissible during the
phase. Augmenting raises only the residual of a reverse arc, which points one
level down, and a dead end only sets its vertex's level to -1, which no arc
from a reached vertex lies one level below. So the DFS tries the same arcs in
the same order and subtracts and adds the same bottlenecks in the same
sequence, which gives the same flow, residuals and cut.

The minimum cut, ``source_side``, is what a BFS from the source reaches in the
residual network.
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
        ends = np.concatenate([tails, heads])
        if ends.size and not (ends.min() >= 0 and ends.max() < n):
            raise ValueError(f"arc endpoint out of range [0, {n})")
        if not (np.isfinite(caps) & (caps >= 0.0)).all():
            raise ValueError("arc capacities must be finite and nonnegative")
        self.n = n
        self.tail = np.stack([tails, heads], axis=1).ravel()
        self.to = np.stack([heads, tails], axis=1).ravel()
        self.cap = np.stack([caps, np.zeros_like(caps)], axis=1).ravel()
        self.out_arcs = np.argsort(self.tail, kind="stable")
        self.out_start = np.concatenate(
            [[0], np.cumsum(np.bincount(self.tail, minlength=n))])

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
        frontier = np.array([s])
        depth = 0
        while frontier.size:
            arcs = self._gather(frontier)
            heads = self.to[arcs[self.cap[arcs] > EPS]]
            frontier = np.unique(heads[level[heads] < 0])
            depth += 1
            level[frontier] = depth
        return level

    def _blocking_flow(self, s: int, t: int, level: np.ndarray) -> float:
        lt = level[self.tail]
        ok = (self.cap > EPS) & (lt >= 0) & (level[self.to] == lt + 1)
        adm = self.out_arcs[ok[self.out_arcs]]  # admissible ids, by tail in id order
        counts = np.bincount(self.tail[adm], minlength=self.n)
        end = np.cumsum(counts)
        it = (end - counts).tolist()  # current-arc pointers
        end = end.tolist()
        to, tail = self.to[adm].tolist(), self.tail[adm].tolist()
        cap, rcap = self.cap[adm].tolist(), self.cap[adm ^ 1].tolist()
        level = level.tolist()
        total = 0.0
        path: list[int] = []  # admissible-list indices from s to the current node
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[j] for j in path)
                for j in path:
                    cap[j] -= bottleneck
                    rcap[j] += bottleneck
                total += bottleneck
                # truncate the path at its first saturated edge
                cut = next(i for i, j in enumerate(path) if cap[j] <= EPS)
                del path[cut:]
                u = s if not path else to[path[-1]]
                continue
            advanced = False
            while it[u] < end[u]:
                j = it[u]
                v = to[j]
                if cap[j] > EPS and level[v] == level[u] + 1:
                    path.append(j)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                break
            level[u] = -1  # dead end
            u = tail[path.pop()]
            it[u] += 1
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
        return flow

    def source_side(self, s: int) -> np.ndarray:
        """Vertices reachable from s in the residual graph (the minimal cut)."""
        return self._bfs_levels(s) >= 0
