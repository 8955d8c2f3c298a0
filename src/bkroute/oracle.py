"""Independent reference answer for cost-to-target distances.

Deliberately structured unlike the sweep solvers: it relaxes the raw arc
list until stable, with no cost matrix and no sweep order. `verify`
compares both solvers against it.
"""

from __future__ import annotations

from .graph import INF, Graph, Weight


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
