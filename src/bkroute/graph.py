"""Directed graphs with integer arc weights and their cost matrices.

A cost matrix keeps only its finite entries, one table row per node, so
nothing here grows with n*n. Node indices are 1-based wherever a human
sees them (arc lists, files, printed routes); in-memory tables are
ordinary 0-based sequences.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

#: Absent-arc marker. IEEE infinity saturates under addition, so no sum of
#: weights along a sweep can turn it into a finite value.
INF: float = math.inf

#: Largest admissible finite arc weight. The generator emits weights <= 100;
#: the headroom keeps every path sum exactly representable even at n = 10**4.
MAX_WEIGHT = 10**9

#: Extended weight: finite values are non-negative ints, the only float is INF.
Weight = int | float


class MalformedGraphError(ValueError):
    """An arc list violates the graph invariants."""


def max_arcs(n: int) -> int:
    """Number of ordered node pairs without loops, n*(n-1)."""
    if n < 2:
        raise ValueError(f"node count must be at least 2, got {n}")
    return n * (n - 1)


class Arc(NamedTuple):
    """Directed arc from node i to node j with finite weight w (1-based nodes)."""

    i: int
    j: int
    w: int


@dataclass(frozen=True)
class Graph:
    """Node count plus a duplicate-free arc list.

    The invariants are enforced here, at construction, so every Graph that
    exists holds them: n an int >= 2; i and j ints with 1 <= i, j <= n;
    i != j; no repeated ordered pair; w an int with 0 <= w <= MAX_WEIGHT.
    "An int" means exactly int: a bool, or a float equal to an int, is
    refused, since it would not survive a BKSET round trip. The first broken
    one raises MalformedGraphError; arc errors start with "arc k" (1-based
    position in arcs) so callers can prefix their own context. Arcs may be
    given as any iterable of triples; an Arc is kept as it is. The duplicate
    check needs memory proportional to m, not n*n.
    """

    n: int
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int:
            raise MalformedGraphError(f"node count must be an integer, got {n!r}")
        if n < 2:
            raise MalformedGraphError(f"node count must be at least 2, got {n}")
        arcs: list[Arc] = []
        seen: set[int] = set()  # i*n + j, one int per ordered pair once i, j are in range
        for k, a in enumerate(self.arcs, start=1):
            if not isinstance(a, Arc):
                a = Arc(*a)
            i, j, w = a
            if type(i) is not int or type(j) is not int:
                reason = "node indices must be integers"
            elif not (1 <= i <= n and 1 <= j <= n):
                reason = f"node index out of range for n={n}"
            elif i == j:
                reason = "loop arcs are not allowed"
            elif type(w) is not int or not 0 <= w <= MAX_WEIGHT:
                reason = f"weight must be an integer in [0, {MAX_WEIGHT}]"
            elif (key := i * n + j) in seen:
                reason = f"duplicate ordered pair ({i}, {j})"
            else:
                seen.add(key)
                arcs.append(a)
                continue
            raise MalformedGraphError(f"arc {k} ({i}, {j}, {w}): {reason}")
        object.__setattr__(self, "arcs", tuple(arcs))

    @property
    def m(self) -> int:
        return len(self.arcs)


#: One row of the sweep view: the 0-based row index i, a gather that reads
#: v at the row's columns (its diagonal first, then one per arc), and the
#: weights at those columns, in the same order.
RowTerms = tuple[int, Callable[[Sequence[Weight]], Sequence[Weight]], tuple[Weight, ...]]

#: One row of the cost table: 0-based columns and the weights at them, in
#: the same order, the diagonal (weight 0) first and then one per arc.
TableRow = tuple[tuple[int, ...], tuple[Weight, ...]]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Extended-weight costs of a graph: 0 on the diagonal, the arc weight
    where an arc exists, INF everywhere else. Only the finite entries are
    stored, so memory grows with n + m, never with n*n.

    `table[i]` (0-based) is row i: its diagonal, then its arcs in the order
    given. It is built in one pass that groups the (i, j, w) triples (1-based
    nodes) by row. The triples are taken as they are, without checks:
    `build_cost_matrix` passes a Graph's arcs, which are already checked,
    and tests pass weights no Graph admits, such as a negative cycle.

    `sparse_rows` is derived from `table`: one RowTerms entry, in row order,
    for each non-target row with at least one arc. A row without arcs stays
    INF in every sweep, so it is left out.
    """

    n: int
    arcs: InitVar[Iterable[tuple[int, int, Weight]]]
    table: tuple[TableRow, ...] = field(init=False, repr=False)
    sparse_rows: tuple[RowTerms, ...] = field(init=False, repr=False)

    def __post_init__(self, arcs: Iterable[tuple[int, int, Weight]]) -> None:
        n = self.n
        cols: list[list[int]] = [[k] for k in range(n)]
        weights: list[list[Weight]] = [[0] for _ in range(n)]
        for i, j, w in arcs:
            cols[i - 1].append(j - 1)
            weights[i - 1].append(w)
        table = tuple(zip(map(tuple, cols), map(tuple, weights)))
        view = tuple(
            (i, itemgetter(*c), w) for i, (c, w) in enumerate(table[:-1]) if len(c) > 1
        )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "sparse_rows", view)

    def entry(self, i: int, j: int) -> Weight:
        """1-based accessor, for tests and route checks. Takes time in
        proportion to row i's arc count; raises IndexError outside 1..n."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"entry ({i}, {j}) is outside 1..{n}")
        cols, weights = self.table[i - 1]
        try:
            return weights[cols.index(j - 1)]
        except ValueError:
            return INF


def build_cost_matrix(g: Graph) -> CostMatrix:
    """The cost matrix of a graph, in time and memory proportional to n + m.

    Never raises: the Graph checked its arcs when it was constructed.
    """
    return CostMatrix(g.n, g.arcs)
