"""Dinic max-flow on float capacities, for the binary fusion solver.

The network is given as arrays of arc tails, heads and capacities. Arc k is
stored at id 2k with its zero-capacity reverse at 2k + 1, and each vertex
lists the ids of the arcs leaving it in id order. Blocking flows are found
over a BFS level graph with an iterative DFS, so deep augmenting paths
cannot hit the interpreter recursion limit. Residual capacities below
``EPS`` count as saturated.
"""

from __future__ import annotations

from collections import deque

import numpy as np

EPS = 1e-12


class MaxFlowGraph:
    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray, caps: np.ndarray):
        self.n = n
        tails, heads = np.asarray(tails, dtype=int), np.asarray(heads, dtype=int)
        self.to: list[int] = np.stack([heads, tails], axis=1).ravel().tolist()
        self.cap: list[float] = np.stack(
            [np.asarray(caps, dtype=float), np.zeros(len(tails))], axis=1).ravel().tolist()
        start = np.stack([tails, heads], axis=1).ravel()
        order = np.argsort(start, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(start, minlength=n)).tolist()
        self.adj: list[list[int]] = [order[lo:hi] for lo, hi in zip([0] + bounds, bounds)]

    def _bfs_levels(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > EPS and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _blocking_flow(self, s: int, t: int) -> float:
        total = 0.0
        it = [0] * self.n  # current-arc pointers
        path: list[int] = []  # edge ids from s to the current node
        u = s
        while True:
            if u == t:
                bottleneck = min(self.cap[eid] for eid in path)
                for eid in path:
                    self.cap[eid] -= bottleneck
                    self.cap[eid ^ 1] += bottleneck
                total += bottleneck
                # truncate the path at its first saturated edge
                cut = next(i for i, e in enumerate(path) if self.cap[e] <= EPS)
                del path[cut:]
                u = s if not path else self.to[path[-1]]
                continue
            advanced = False
            while it[u] < len(self.adj[u]):
                eid = self.adj[u][it[u]]
                v = self.to[eid]
                if self.cap[eid] > EPS and self.level[v] == self.level[u] + 1:
                    path.append(eid)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                return total
            self.level[u] = -1  # dead end
            eid = path.pop()
            u = self.to[eid ^ 1]
            it[u] += 1

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while self._bfs_levels(s, t):
            flow += self._blocking_flow(s, t)
        return flow

    def source_side(self, s: int) -> list[bool]:
        """Vertices reachable from s in the residual graph (the minimal cut)."""
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > EPS and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen
