"""Answer checks, run off the timed path.

Ground truth comes from plain breadth-first search on the benchmark's
own copy of the (unweighted, undirected) graph, never from the program.
"""

from __future__ import annotations

import math
from collections import deque


class Adjacency:
    """Undirected adjacency sets that can grow edge by edge."""

    def __init__(self, n: int, edges=()) -> None:
        self.nbrs = [set() for _ in range(n)]
        for u, v in edges:
            self.add(u, v)

    def add(self, u: int, v: int) -> None:
        self.nbrs[u].add(v)
        self.nbrs[v].add(u)

    def bfs(self, source: int) -> list[float]:
        dist = [math.inf] * len(self.nbrs)
        dist[source] = 0.0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in self.nbrs[u]:
                if dist[w] == math.inf:
                    dist[w] = du
                    queue.append(w)
        return dist

    def bidirectional(self, s: int, t: int) -> float:
        """Exact hop distance by alternating BFS from both ends."""
        if s == t:
            return 0.0
        dist = ({s: 0}, {t: 0})
        frontier = ([s], [t])
        best = math.inf
        while frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
            mine, other = dist[side], dist[1 - side]
            nxt = []
            for u in frontier[side]:
                du = mine[u] + 1
                for w in self.nbrs[u]:
                    if w in other:
                        best = min(best, du + other[w])
                    if w not in mine:
                        mine[w] = du
                        nxt.append(w)
            frontier = (nxt, frontier[1]) if side == 0 else (frontier[0], nxt)
            depth = min(dist[0][x] for x in frontier[0]) if frontier[0] else math.inf
            depth_t = min(dist[1][x] for x in frontier[1]) if frontier[1] else math.inf
            if depth + depth_t >= best:
                break
        return float(best)


def first_mismatch(got, expected):
    """Index of the first differing distance, or ``None`` if all agree.

    Distances are small integers stored exactly in binary, so equality
    is exact; ``inf`` matches ``inf``.
    """
    if len(got) != len(expected):
        return min(len(got), len(expected))
    for k, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return k
    return None


def check_against_bfs(adj: Adjacency, pairs, answers) -> str | None:
    """Compare answers for ``pairs`` with BFS grouped by source."""
    by_source: dict[int, list[int]] = {}
    for k, (s, _) in enumerate(pairs):
        by_source.setdefault(s, []).append(k)
    for s, ks in by_source.items():
        dist = adj.bfs(s)
        for k in ks:
            t = pairs[k][1]
            if answers[k] != dist[t]:
                return f"dist({s}, {t}) = {answers[k]}, BFS says {dist[t]}"
    return None


def check_against_bidirectional(adj: Adjacency, pairs, answers) -> str | None:
    for (s, t), got in zip(pairs, answers):
        want = adj.bidirectional(s, t)
        if got != want:
            return f"dist({s}, {t}) = {got}, bidirectional BFS says {want}"
    return None
