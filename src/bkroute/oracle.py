"""Independent reference answer for cost-to-target distances.

Deliberately structured unlike the sweep solvers: Dijkstra's label-setting
search (Numer. Math. 1959) from node n over the reversed arcs, which fixes
each node's distance once, in order of distance, with no cost matrix, no
sweep and no relaxation until stable. `verify` compares both solvers
against it.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graph import INF, Graph, Weight


def oracle_distances(g: Graph) -> tuple[Weight, ...]:
    """Exact shortest cost from every node to node n, by Dijkstra's search
    from node n over the reversed arcs; exact because weights are
    non-negative. Takes O(n + m log m) time, whatever the arc order."""
    n = g.n
    into: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]  # 1-based, like the arcs
    for i, j, w in zip(g.src, g.dst, g.wt):
        into[j].append((i, w))
    dist: list[Weight] = [INF] * (n + 1)  # slot 0 is unused
    dist[n] = 0
    heap = [(0, n)]
    while heap:
        d, j = heappop(heap)
        if d > dist[j]:
            continue  # a stale entry: j was settled at a smaller distance
        for i, w in into[j]:
            c = d + w
            if c < dist[i]:
                dist[i] = c
                heappush(heap, (c, i))
    return tuple(dist[1:])
