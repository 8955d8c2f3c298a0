"""Independent reference answers for cost-to-target distances.

Deliberately structured unlike the sweep solvers: one routine
relaxes the raw arc list until stable, the others enumerate simple paths
outright. Tests treat these as ground truth.
"""

from __future__ import annotations

from .graph import INF, Graph, Weight

#: Hard cap for the exhaustive enumerators (simple paths grow factorially).
BRUTE_FORCE_MAX_NODES = 10


class SizeLimitError(ValueError):
    """Exhaustive enumeration was requested for a graph that is too large."""


def oracle_distances(g: Graph) -> tuple[Weight, ...]:
    """Exact shortest cost from every node to node n, by arc-list relaxation."""
    n = g.n
    dist: list[Weight] = [INF] * (n + 1)  # 1-based, like the arcs: slot 0 is unused
    dist[n] = 0
    arcs = list(zip(g.src, g.dst, g.wt))
    for _ in range(n):
        changed = False
        for i, j, w in arcs:
            c = w + dist[j]
            if c < dist[i]:
                dist[i] = c
                changed = True
        if not changed:
            break
    return tuple(dist[1:])


def _check_size(g: Graph) -> None:
    if g.n > BRUTE_FORCE_MAX_NODES:
        raise SizeLimitError(
            f"exhaustive enumeration supports n <= {BRUTE_FORCE_MAX_NODES}, got {g.n}"
        )


def _adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, j, w in zip(g.src, g.dst, g.wt):
        adj[i - 1].append((j - 1, w))
    return adj


def brute_force_distance(g: Graph) -> Weight:
    """Minimum total weight over all simple paths from node 1 to node n."""
    _check_size(g)
    adj = _adjacency(g)
    target = g.n - 1
    best: Weight = INF

    def walk(node: int, cost: int, seen: int) -> None:
        nonlocal best
        if node == target:
            if cost < best:
                best = cost
            return
        for nxt, w in adj[node]:
            if not seen & (1 << nxt):
                walk(nxt, cost + w, seen | (1 << nxt))

    walk(0, 0, 1)
    return best


def bounded_distances(g: Graph, max_arc_count: int) -> tuple[Weight, ...]:
    """Shortest cost to node n from every node over simple paths of at most
    `max_arc_count` arcs. Exhaustive; used to cross-check sweep semantics."""
    _check_size(g)
    adj = _adjacency(g)
    target = g.n - 1
    best: list[Weight] = [INF] * g.n
    best[target] = 0

    def walk(start: int, node: int, cost: int, seen: int, left: int) -> None:
        if node == target:
            if cost < best[start]:
                best[start] = cost
            return
        if left == 0:
            return
        for nxt, w in adj[node]:
            if not seen & (1 << nxt):
                walk(start, nxt, cost + w, seen | (1 << nxt), left - 1)

    for s in range(g.n):
        if s != target:
            walk(s, s, 0, 1 << s, max_arc_count)
    return tuple(best)
