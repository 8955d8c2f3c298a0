"""Shared test material: reference graphs, the traced-memory helpers,
hypothesis graph strategies and the exhaustive enumerators that
cross-check the solvers and the oracle."""

from __future__ import annotations

import functools
import tracemalloc

from hypothesis import strategies as st

from bkroute import INF, Graph, RngStream, draw_graph
from bkroute.graph import Weight

# Four-node chain with a costly direct shortcut; the standing worked example.
CHAIN = Graph(4, *zip((1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 10)))


def traced(make, *args):
    """make(*args) under tracemalloc: what it made, the bytes still traced
    when it returns (what it made, once its temporaries are gone) and the
    traced peak. Only what make allocates is traced, not its arguments."""
    tracemalloc.start()
    try:
        made = make(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, held, peak


def within_memory_bound(make, *args, held: int | None = None, peak: int = 64 * 2**20):
    """make(*args), asserting that its traced peak stays under `peak` bytes
    (64 MB unless given) and, given `held`, that what is still traced when
    it returns stays under `held` bytes."""
    made, traced_held, traced_peak = traced(make, *args)
    assert traced_peak < peak, traced_peak
    assert held is None or traced_held < held, traced_held
    return made


@functools.cache
def large_record() -> Graph:
    """One 10**5-arc graph (n=1000, weights up to 9), the large record of
    the reader and Graph memory tests, drawn once per session."""
    return draw_graph(1000, 10**5, RngStream(16), 9)


def arcs(g: Graph) -> list[tuple[int, int, int]]:
    """The (i, j, w) arcs of g, in order."""
    return list(zip(g.src, g.dst, g.wt))


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 8, min_w: int = 1, max_w: int = 100):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, *zip(*[(i, j, draw(st.integers(min_w, max_w))) for i, j in chosen]))


@st.composite
def complete_graphs(draw, min_n: int = 2, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return Graph(n, *zip(*[(i, j, draw(st.integers(0, 100))) for i, j in pairs]))


@st.composite
def gate_boundary_graphs(draw):
    """m = 8n arcs, the densest matrix that keeps predecessor lists, or
    m = 8n + 1, the sparsest that has none."""
    g = draw(complete_graphs(min_n=10, max_n=14))
    kept = draw(st.permutations(arcs(g)))[: 8 * g.n + draw(st.integers(0, 1))]
    return Graph(g.n, *zip(*kept))


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
