"""Directed graphs with integer arc weights and their dense cost matrices.

Node indices are 1-based wherever a human sees them (arc lists, files,
printed routes); in-memory tables are ordinary 0-based lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        object.__setattr__(self, "arcs", tuple(Arc(*a) for a in self.arcs))

    @property
    def m(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class CostMatrix:
    """Dense extended-weight table: 0 on the diagonal, the arc weight where an
    arc exists, INF everywhere else. `rows` is 0-based and must not be mutated."""

    n: int
    rows: list[list[Weight]]

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
