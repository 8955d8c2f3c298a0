"""Directed graphs with integer arc weights and their cost matrices.

A cost matrix keeps only its finite entries, in flat tuples with one
entry per node, so nothing here grows with n*n. Node indices are 1-based
wherever a human sees them (arc lists, files, printed routes); in-memory
tables are ordinary 0-based sequences.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
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

#: Arcs into each node, by 0-based node j: ((i, w), ...), the rows i with
#: an arc into j and that arc's weight w, or () when no arc enters j.
Preds = tuple[tuple[tuple[int, Weight], ...], ...]


class CostMatrix:
    """Extended-weight costs of a graph: 0 on the diagonal, the arc weight
    where an arc exists, INF everywhere else. Only the arcs are stored, so
    memory grows with n + m, never with n*n.

    The columns are a Graph's: arc k runs from node src[k] to node dst[k]
    (1-based) with weight wt[k]. They are not checked, so tests can pass
    weights no Graph admits, but unequal lengths raise ValueError. One pass
    groups the arcs by row into three flat tuples with one entry per
    0-based node: `cols[i]` and `weights[i]` are row i's arcs in arc order,
    the 0-based columns and the weights at them, and `preds[j]` holds the
    arcs (i, w) into node j from every row i but the target's. An entry
    with no arc is CPython's shared empty tuple. Only `sparse_rows` and
    `entry` add the zero diagonal. `sparse_rows` holds the RowTerms of the
    non-target rows with arcs, and `full_passes` is the number of passes a
    solve reads them before it takes candidates from `preds`. A matrix is
    built holding what its passes read: when m <= 8n, which len(src) tells
    up front, `full_passes` is 0 and the pass that fills `cols` and
    `weights` fills `preds` too, in arc order; otherwise `full_passes` is
    `_FULL_PASSES`, the build makes `sparse_rows` from the finished rows,
    and `preds` is built from them, row by row, only when a solve first
    needs it.
    """

    def __init__(
        self, n: int, src: Sequence[int], dst: Sequence[int], wt: Sequence[Weight]
    ) -> None:
        self.n = n
        cols: list[list[int]] = [[] for _ in range(n)]
        weights: list[list[Weight]] = [[] for _ in range(n)]
        if len(src) > _SPARSE_DEGREE * n:
            for i, j, w in zip(src, dst, wt, strict=True):
                cols[i - 1].append(j - 1)
                weights[i - 1].append(w)
            self.full_passes = _FULL_PASSES
        else:
            into: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
            target, one = n - 1, repeat(1)
            for i, j, w in zip(map(sub, src, one), map(sub, dst, one), wt, strict=True):
                cols[i].append(j)
                weights[i].append(w)
                if i != target:
                    into[j].append((i, w))
            self.full_passes = 0
            self.preds = tuple(map(tuple, into))  # where the cached_property below stores it
        self.cols: tuple[tuple[int, ...], ...] = tuple(map(tuple, cols))
        self.weights: tuple[tuple[Weight, ...], ...] = tuple(map(tuple, weights))
        del cols, weights  # so that the build never holds them and the view at once
        if self.full_passes:
            rows = zip(range(n - 1), self.cols, self.weights)
            self.sparse_rows: tuple[RowTerms, ...] = tuple(
                (i, itemgetter(*(i,) + c), (0,) + w) for i, c, w in rows if c
            )

    @cached_property
    def preds(self) -> Preds:
        """The in-arc lists of a dense matrix, built on a solve's first
        candidate pass; a sparse matrix's build has already stored them."""
        into: list[list[tuple[int, Weight]]] = [[] for _ in range(self.n)]
        for i, cols, weights in zip(range(self.n - 1), self.cols, self.weights):
            for j, w in zip(cols, weights):
                into[j].append((i, w))
        return tuple(map(tuple, into))

    def entry(self, i: int, j: int) -> Weight:
        """1-based accessor, for tests and route checks. Takes time in
        proportion to row i's arc count; raises IndexError outside 1..n."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"entry ({i}, {j}) is outside 1..{n}")
        if i == j:
            return 0
        try:
            return self.weights[i - 1][self.cols[i - 1].index(j - 1)]
        except ValueError:
            return INF


def build_cost_matrix(g: Graph) -> CostMatrix:
    """The cost matrix of a graph, in time and memory proportional to n + m.

    Never raises: the Graph checked its arcs when it was constructed.
    """
    return CostMatrix(g.n, g.src, g.dst, g.wt)
