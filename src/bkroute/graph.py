"""Directed graphs with integer arc weights and their cost matrices.

Node indices are 1-based wherever a human sees them (arc lists, files,
printed routes); in-memory tables are ordinary 0-based lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

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

    Invariants, checked by validate_graph (which build_cost_matrix and the
    file reader both call), not here: n >= 2; 1 <= i, j <= n; i != j; no
    repeated ordered pair; w an int with 0 <= w <= MAX_WEIGHT.
    """

    n: int
    arcs: tuple[Arc, ...] = ()

    def __post_init__(self) -> None:
        arcs = tuple(a if isinstance(a, Arc) else Arc(*a) for a in self.arcs)
        object.__setattr__(self, "arcs", arcs)

    @property
    def m(self) -> int:
        return len(self.arcs)


#: One row of the sweep view: the 0-based row index i, a gather that reads
#: v at the row's finite columns (the diagonal included when finite), and
#: the weights a[i][j] at those columns, in the same order.
RowTerms = tuple[int, Callable[[Sequence[Weight]], Sequence[Weight]], tuple[Weight, ...]]


@dataclass(frozen=True)
class CostMatrix:
    """Dense extended-weight table: 0 on the diagonal, the arc weight where an
    arc exists, INF everywhere else. `rows` is 0-based.

    `sparse_rows` is derived from `rows` at construction: one RowTerms entry,
    in row order, for each non-target row with a finite off-diagonal entry.
    The other rows stay INF in every sweep, so they are left out, and the
    INF terms of a row can never win its minimum, so they are left out too.
    Because the view is built once, `rows` must never be mutated.
    """

    n: int
    rows: list[list[Weight]]
    sparse_rows: tuple[RowTerms, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        view: list[RowTerms] = []
        for i, row in enumerate(self.rows[:-1]):
            cols = [j for j, x in enumerate(row) if x != INF]
            if cols == [i] or not cols:
                continue
            if len(cols) > 1:
                gather = itemgetter(*cols)
            else:  # itemgetter of one index returns a scalar; a slice keeps a sequence
                gather = itemgetter(slice(cols[0], cols[0] + 1))
            view.append((i, gather, tuple(gather(row))))
        object.__setattr__(self, "sparse_rows", tuple(view))

    def entry(self, i: int, j: int) -> Weight:
        """1-based accessor, mainly for tests and debugging."""
        return self.rows[i - 1][j - 1]


def validate_graph(g: Graph) -> None:
    """Raise MalformedGraphError on the first broken graph invariant.

    Arc errors start with "arc k" (1-based position in g.arcs) so callers
    can prefix their own context. Needs memory proportional to m, not n*n.
    """
    n = g.n
    if n < 2:
        raise MalformedGraphError(f"node count must be at least 2, got {n}")
    seen: set[int] = set()  # i*n + j, one int per ordered pair once i, j are in range
    for k, (i, j, w) in enumerate(g.arcs, start=1):
        if not (1 <= i <= n and 1 <= j <= n):
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


def build_cost_matrix(g: Graph) -> CostMatrix:
    """Expand an arc list into its dense cost matrix.

    Raises MalformedGraphError, via validate_graph, on any graph that
    breaks the Graph invariants.
    """
    validate_graph(g)
    n = g.n
    rows: list[list[Weight]] = [[INF] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = 0
    for i, j, w in g.arcs:
        rows[i - 1][j - 1] = w
    return CostMatrix(n, rows)
