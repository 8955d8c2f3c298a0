"""Shared test material: reference graphs, a hypothesis graph strategy and
the exhaustive enumerators that cross-check the solvers and the oracle."""

from __future__ import annotations

from hypothesis import strategies as st

from bkroute import INF, Graph
from bkroute.graph import Weight

# Four-node chain with a costly direct shortcut; the standing worked example.
CHAIN = Graph(4, *zip((1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 10)))


def arcs(g: Graph) -> list[tuple[int, int, int]]:
    """The (i, j, w) arcs of g, in order."""
    return list(zip(g.src, g.dst, g.wt))


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 8, min_w: int = 1, max_w: int = 100):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, *zip(*[(i, j, draw(st.integers(min_w, max_w))) for i, j in chosen]))


#: Hard cap for the exhaustive enumerators (simple paths grow factorially).
BRUTE_FORCE_MAX_NODES = 10


class SizeLimitError(ValueError):
    """Exhaustive enumeration was requested for a graph that is too large."""


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
