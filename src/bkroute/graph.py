"""Directed graphs with integer arc weights and their cost matrices.

A cost matrix keeps only its finite entries, one table row per node, so
nothing here grows with n*n. Node indices are 1-based wherever a human
sees them (arc lists, files, printed routes); in-memory tables are
ordinary 0-based sequences.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter, sub

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

#: Largest mean out-degree m/n at which a CostMatrix's sweeps take
#: candidates from the arcs into changed rows from the first pass on.
#: Denser graphs keep the paper's passes, which evaluate every row: on them
#: the two sweep orders would make the same changes, erasing the gap the
#: paper measures, and their in-arc lists would cost about 64 bytes per arc.
_SPARSE_DEGREE = 8

#: How many of the paper's passes a solve of a denser matrix makes before it
#: switches to candidate passes: far above the 13 that the paper's grids
#: need, so only a long route pays for the in-arc lists.
_FULL_PASSES = 32

#: Extended weight: finite values are non-negative ints, the only float is INF.
Weight = int | float


class MalformedGraphError(ValueError):
    """An arc list violates the graph invariants."""


def max_arcs(n: int) -> int:
    """Number of ordered node pairs without loops, n*(n-1). n must be a
    node count a Graph admits."""
    _check_node_count(n)
    return n * (n - 1)


@dataclass(frozen=True)
class Graph:
    """Node count plus a duplicate-free arc list, held as three int columns.

    Arc k (0-based) runs from node src[k] to node dst[k] with weight wt[k].
    The columns may be any sequences of equal length and are stored as
    arrays; `Graph(n)` has no arcs, and `Graph(n, *zip(*arcs))` transposes
    a list of (i, j, w) triples. Construction checks every invariant, so
    every Graph that exists holds them: n an int with 2 <= n <= MAX_NODES;
    i and j ints with 1 <= i, j <= n; i != j; no repeated ordered pair; w an
    int with 0 <= w <= MAX_WEIGHT. "An int" means exactly int: a bool, or a
    float equal to an int, is refused, since it would not survive a BKSET
    round trip. The first broken rule raises MalformedGraphError; arc errors
    start with "arc k" (1-based position in the columns) so callers can
    prefix their own context. The duplicate check marks each ordered pair
    in a table of n*n bytes when that is at most 16 bytes per arc, and in a
    set of about 88 bytes per arc only for sparser graphs.

    Once checked, each column is copied into its own array('i'): 4 bytes
    per value and no int object behind it, since every value a Graph
    admits fits in 32 bits. The arrays iterate, slice and compare like the
    sequences they came from, but they are mutable: treat them as
    read-only, since a write would bypass the checks and change the hash.
    """

    n: int
    src: Sequence[int] = ()
    dst: Sequence[int] = ()
    wt: Sequence[int] = ()

    def __post_init__(self) -> None:
        n, src, dst, wt = self.n, self.src, self.dst, self.wt
        _check_node_count(n)
        if not len(src) == len(dst) == len(wt):
            raise MalformedGraphError(
                f"columns differ in length: {len(src)}, {len(dst)}, {len(wt)}"
            )
        _check_arcs(n, len(src), zip(src, dst, wt))
        object.__setattr__(self, "src", array("i", src))
        object.__setattr__(self, "dst", array("i", dst))
        object.__setattr__(self, "wt", array("i", wt))

    def __hash__(self) -> int:
        # arrays have no hash of their own; equal columns have equal bytes
        return hash((self.n, self.src.tobytes(), self.dst.tobytes(), self.wt.tobytes()))

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


def _check_arcs(
    n: int, m: int, arcs: Iterable[tuple[int, int, int]], first: int = 1
) -> None:
    """Check the m (i, j, w) triples that zip(src, dst, wt) yields, one by
    one, in the order the Graph docstring gives the rules; the first broken
    arc raises MalformedGraphError, which numbers the arcs from `first`."""
    # the ordered pairs seen, by key i*n + j once i, j are in range: a byte
    # per possible key where that costs at most 16 bytes per arc, else a set
    dense = n * n <= 16 * m
    seen = bytearray(n * n + n + 1) if dense else set()
    for k, (i, j, w) in enumerate(arcs, start=first):
        if type(i) is not int or type(j) is not int:
            reason = "node indices must be integers"
        elif not (1 <= i <= n and 1 <= j <= n):
            reason = f"node index out of range for n={n}"
        elif i == j:
            reason = "loop arcs are not allowed"
        elif type(w) is not int or not 0 <= w <= MAX_WEIGHT:
            reason = f"weight must be an integer in [0, {MAX_WEIGHT}]"
        else:
            key = i * n + j
            if dense:
                if not seen[key]:
                    seen[key] = 1
                    continue
            elif key not in seen:
                seen.add(key)
                continue
            reason = f"duplicate ordered pair ({i}, {j})"
        raise MalformedGraphError(f"arc {k} ({i}, {j}, {w}): {reason}")


#: One row of the sweep view: the 0-based row index i, a gather that reads
#: v at the row's columns (its diagonal first, then one per arc), and the
#: weights at those columns, in the same order.
RowTerms = tuple[int, Callable[[Sequence[Weight]], Sequence[Weight]], tuple[Weight, ...]]

#: Arcs into each node: node j -> ((i, w), ...), the rows i with an arc
#: into j and that arc's weight w.
Preds = dict[int, tuple[tuple[int, Weight], ...]]

#: One row of the cost table: 0-based columns and the weights at them, in
#: the same order, the diagonal (weight 0) first and then one per arc.
TableRow = tuple[tuple[int, ...], tuple[Weight, ...]]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Extended-weight costs of a graph: 0 on the diagonal, the arc weight
    where an arc exists, INF everywhere else. Only the finite entries are
    stored, so memory grows with n + m, never with n*n.

    The columns are a Graph's: arc k runs from node src[k] to node dst[k]
    (1-based) with weight wt[k]. They are not checked, so tests can pass
    weights no Graph admits, but unequal lengths raise ValueError. One pass
    groups the arcs by row: `table[i]` (0-based) is row i's diagonal, then
    its arcs in arc order. `preds[j]` (0-based) holds the arcs (i, w) into
    node j from every row i but the target's, and a node that no such arc
    enters has no key. `full_passes` is the number of passes a solve
    evaluates every row before it takes candidates from `preds`: 0 when
    m <= 8n, which len(src) tells up front, and then the table's pass fills
    `preds` too, in arc order; `_FULL_PASSES` otherwise, and then `preds`
    is built from the table, row by row, only when a solve first needs it.
    """

    n: int
    src: InitVar[Sequence[int]]
    dst: InitVar[Sequence[int]]
    wt: InitVar[Sequence[Weight]]
    table: tuple[TableRow, ...] = field(init=False, repr=False)
    full_passes: int = field(init=False)

    def __post_init__(
        self, src: Sequence[int], dst: Sequence[int], wt: Sequence[Weight]
    ) -> None:
        n = self.n
        cols: list[list[int]] = [[k] for k in range(n)]
        weights: list[list[Weight]] = [[0] for _ in range(n)]
        if len(src) > _SPARSE_DEGREE * n:
            for i, j, w in zip(src, dst, wt, strict=True):
                cols[i - 1].append(j - 1)
                weights[i - 1].append(w)
            object.__setattr__(self, "full_passes", _FULL_PASSES)
        else:
            into: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
            target, one = n - 1, repeat(1)
            for i, j, w in zip(map(sub, src, one), map(sub, dst, one), wt, strict=True):
                cols[i].append(j)
                weights[i].append(w)
                if i != target:
                    into[j].append((i, w))
            object.__setattr__(self, "full_passes", 0)
            # stored where the cached_property below would store it
            object.__setattr__(self, "preds", _keyed(into))
        object.__setattr__(self, "table", tuple(zip(map(tuple, cols), map(tuple, weights))))

    @cached_property
    def preds(self) -> Preds:
        """The in-arc lists of a dense matrix, built on a solve's first
        candidate pass; a sparse matrix's build has already stored them."""
        into: list[list[tuple[int, Weight]]] = [[] for _ in range(self.n)]
        for i, (cols, weights) in enumerate(self.table[:-1]):
            for j, w in zip(cols[1:], weights[1:]):
                into[j].append((i, w))
        return _keyed(into)

    @cached_property
    def sparse_rows(self) -> tuple[RowTerms, ...]:
        """RowTerms of the non-target rows with arcs, read only by full passes."""
        return tuple(
            (i, itemgetter(*c), w) for i, (c, w) in enumerate(self.table[:-1]) if len(c) > 1
        )

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


def _keyed(into: list[list[tuple[int, Weight]]]) -> Preds:
    return {j: tuple(arcs_in) for j, arcs_in in enumerate(into) if arcs_in}


def build_cost_matrix(g: Graph) -> CostMatrix:
    """The cost matrix of a graph, in time and memory proportional to n + m.

    Never raises: the Graph checked its arcs when it was constructed.
    """
    return CostMatrix(g.n, g.src, g.dst, g.wt)
