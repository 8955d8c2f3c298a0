"""Directed graphs with integer arc weights and their cost matrices.

A cost matrix keeps only its finite entries, one table row per node, so
nothing here grows with n*n. Node indices are 1-based wherever a human
sees them (arc lists, files, printed routes); in-memory tables are
ordinary 0-based sequences.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from operator import itemgetter

#: Absent-arc marker. IEEE infinity saturates under addition, so no sum of
#: weights along a sweep can turn it into a finite value.
INF: float = math.inf

#: Largest admissible finite arc weight, far above the generator's default
#: weight_max.
MAX_WEIGHT = 10**9

#: Largest admissible node count. It bounds what a BKSET record header can
#: make the tools allocate, and keeps every path sum below
#: MAX_WEIGHT * MAX_NODES < 2**53, exact even as a float64.
MAX_NODES = 10**5

#: Extended weight: finite values are non-negative ints, the only float is INF.
Weight = int | float


class MalformedGraphError(ValueError):
    """An arc list violates the graph invariants."""


def max_arcs(n: int) -> int:
    """Number of ordered node pairs without loops, n*(n-1). n must be a
    node count a Graph admits."""
    _check_node_count(n)
    return n * (n - 1)


@dataclass(frozen=True, init=False)
class Graph:
    """Node count plus a duplicate-free arc list, held as three int columns.

    Arc k (0-based) runs from node src[k] to node dst[k] with weight wt[k].
    `Graph(n, arcs)` takes any iterable of (i, j, w) sequences and
    transposes it; `Graph.from_columns` takes the columns as they are. Both
    go through the same per-arc check, so every Graph that exists holds the
    invariants: n an int with 2 <= n <= MAX_NODES; i and j ints with
    1 <= i, j <= n; i != j; no repeated ordered pair; w an int with
    0 <= w <= MAX_WEIGHT. "An int" means exactly int: a bool, or a float
    equal to an int, is refused, since it would not survive a BKSET round
    trip. The first broken arc raises MalformedGraphError; arc errors start
    with "arc k" (1-based position in arcs) so callers can prefix their own
    context. The duplicate check needs memory proportional to m, not n*n.
    """

    n: int
    src: tuple[int, ...]
    dst: tuple[int, ...]
    wt: tuple[int, ...]

    def __init__(self, n: int, arcs: Iterable[Sequence[int]] = ()) -> None:
        _check_node_count(n)
        items = list(arcs)
        if not all(map(isinstance, items, repeat(tuple))):  # read each item once
            items = [tuple(a) if isinstance(a, Iterable) else a for a in items]
        _check_arcs(n, items)
        self._set_columns(n, *(zip(*items) if items else ((), (), ())))

    @classmethod
    def from_columns(
        cls, n: int, src: Sequence[int], dst: Sequence[int], wt: Sequence[int]
    ) -> Graph:
        """The graph whose arc k runs from src[k] to dst[k] with weight wt[k]."""
        _check_node_count(n)
        if not len(src) == len(dst) == len(wt):
            raise MalformedGraphError(
                f"columns differ in length: {len(src)}, {len(dst)}, {len(wt)}"
            )
        _check_arcs(n, zip(src, dst, wt))
        g = cls.__new__(cls)
        g._set_columns(n, src, dst, wt)
        return g

    def _set_columns(
        self, n: int, src: Iterable[int], dst: Iterable[int], wt: Iterable[int]
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "src", tuple(src))
        object.__setattr__(self, "dst", tuple(dst))
        object.__setattr__(self, "wt", tuple(wt))

    @property
    def m(self) -> int:
        return len(self.src)


def _check_node_count(n: int) -> None:
    if type(n) is not int:
        raise MalformedGraphError(f"node count must be an integer, got {n!r}")
    if n < 2:
        raise MalformedGraphError(f"node count must be at least 2, got {n}")
    if n > MAX_NODES:
        raise MalformedGraphError(f"node count must be at most {MAX_NODES}, got {n}")


def _check_arcs(n: int, arcs: Iterable) -> None:
    """Check the (i, j, w) items one by one, in the order the Graph
    docstring gives the rules; the first broken arc raises
    MalformedGraphError."""
    seen: set[int] = set()  # i*n + j, one int per ordered pair once i, j are in range
    for k, a in enumerate(arcs, start=1):
        try:
            i, j, w = a
        except (TypeError, ValueError):
            raise MalformedGraphError(
                f"arc {k}: expected an (i, j, w) triple, got {a!r}"
            ) from None
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
            continue
        raise MalformedGraphError(f"arc {k} ({i}, {j}, {w}): {reason}")


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
    `build_cost_matrix` zips a Graph's columns, which are already checked,
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
    return CostMatrix(g.n, zip(g.src, g.dst, g.wt))
