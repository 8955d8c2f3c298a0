"""Min-plus sweep solvers for the single-target shortest-route problem.

One engine, ``_solve``, repeats passes of

    v[i] <- min over j of (a[i][j] + v[j])

starting from the vector that is 0 at the target (node n) and INF
everywhere else, and stops as soon as a pass leaves the vector unchanged.
Each sweep order has two pass functions, and ``_solve`` alone chooses
between them. A pass function returns the new vector, or None when nothing
changed.

A full pass evaluates every row. It reads them through
``CostMatrix.sparse_rows``, which holds for each row only its finite
entries: its diagonal, then one per arc. An absent arc's INF term could
never win the minimum, and a row with no arc stays INF, so a pass of at
most n + m terms gets the result that the paper's n terms per row would.

* ``_simultaneous`` (``bk_classic``) recomputes every row from the
  previous pass's vector (Jacobi order);
* ``_bottom_up`` (``bk_accelerated``) walks rows n-1 down to 1 updating
  in place, so each row already sees the values refreshed earlier in the
  same pass (Gauss-Seidel order), which can only shorten the descent.

A candidate pass evaluates no row in full. Row i's minimum can only drop
when a successor j drops, and then only to w + v[j] for the arc i -> j.
So when a row changes to b, each row with an arc into it (``preds``) is
offered the candidate w + b, and keeps it in ``best`` if it beats both its
value and the candidates it already holds. A pass then takes the queued
candidates in its own order:

* ``_simultaneous_candidates`` applies every candidate offered by the
  previous pass, then offers candidates from the rows it changed;
* ``_bottom_up_candidates`` takes the queued rows from n-1 down to 1; a
  row it changes offers candidates at once, so a lower row takes its
  candidate later in the same pass and a higher one in the next.

``_solve`` makes the first ``CostMatrix.full_passes`` passes full ones: 0
on a sparse matrix (m <= 8n), 32 on a denser one, where the paper's grids
never need more. Then every row with a finite value makes one offer, which
at sweep 1 is just the target's, and candidate passes follow. This is
exact: a row's terms for the successors that made no offer since are no
smaller than the value it already holds, so its best candidate, where it
has one, is the minimum a full evaluation would compute. Every pass leaves
the vector that a full pass would, and sweeps, distances and trace
snapshots are the same. The work of a candidate pass is the in-arcs of the
rows that changed, so a long route costs each pass little however dense
the graph, and on a sparse graph both orders make about the same number of
changes at about the same cost: bottom-up order saves sweeps but no longer
time. No pass depends on the order of ``preds``: ``best`` keeps a minimum,
and ``_bottom_up_candidates`` sorts the rows it takes.

Counting convention used by every counter downstream: ``sweeps`` is the
number of executed passes, including the final confirming pass (the one
that detects no change); ``relaxations`` is the paper's nominal
sweeps * (n-1) * n, the n candidate terms of each of the n-1 non-target
rows per pass, not the number of terms or candidates a pass looks at. The
diagonal zero makes row i's own value one of its candidates, so entries
never increase, and with non-negative weights at most n passes are ever
needed (n-1 productive plus one confirming).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .graph import INF, CostMatrix, Preds, RowTerms, Weight

View = tuple[RowTerms, ...]

#: The candidates of the next candidate pass, (best, queued): best[i] is the
#: smallest w + v[j] offered to row i over an arc i -> j since row i last
#: changed, INF when none beat v[i], and queued lists the rows whose best is
#: finite.
Pending = tuple[list[Weight], list[int]]


class ConvergenceError(RuntimeError):
    """No fixed point within n sweeps; impossible for valid non-negative input."""


class NoRouteError(ValueError):
    """Route extraction was asked for a node that cannot reach the target."""


@dataclass(frozen=True)
class SolveResult:
    """Final distance vector plus the work counters behind it.

    distances[k] is the cost from node k+1 to node n, so the vector reads
    in node order, distances[-1] is always 0, and INF marks "no route".
    """

    distances: tuple[Weight, ...]
    sweeps: int

    @property
    def relaxations(self) -> int:
        n = len(self.distances)
        return self.sweeps * (n - 1) * n


@dataclass(frozen=True)
class Route:
    """A concrete path to node n: 1-based node sequence plus its total cost."""

    nodes: tuple[int, ...]
    cost: int


def _offer(preds: Preds, v: list[Weight], pending: Pending, rows: Iterable[int]) -> None:
    """Offer each row with an arc i -> k into a row k of `rows` the
    candidate w + v[k], kept where it beats both v[i] and best[i]."""
    best, queued = pending
    for k in rows:
        b = v[k]
        for i, w in preds.get(k, ()):
            c = w + b
            if c < v[i] and c < best[i]:
                if best[i] == INF:
                    queued.append(i)
                best[i] = c


def _simultaneous(rows: View, v: list[Weight]) -> list[Weight] | None:
    new = v[:]
    for i, gather, weights in rows:
        new[i] = min(map(add, weights, gather(v)))
    return None if new == v else new


def _simultaneous_candidates(
    preds: Preds, v: list[Weight], pending: Pending
) -> list[Weight] | None:
    best, queued = pending
    if not queued:
        return None
    rows = queued[:]
    queued.clear()
    for k in rows:
        v[k] = best[k]
        best[k] = INF
    _offer(preds, v, pending, rows)
    return v


def _bottom_up(rows: View, v: list[Weight]) -> list[Weight] | None:
    changed = False
    for i, gather, weights in reversed(rows):
        b = min(map(add, weights, gather(v)))
        if b != v[i]:
            v[i] = b
            changed = True
    return v if changed else None


def _bottom_up_candidates(
    preds: Preds, v: list[Weight], pending: Pending
) -> list[Weight] | None:
    best, queued = pending
    if not queued:
        return None
    rows = sorted(queued)  # the rows still to change in this pass, highest last
    queued.clear()
    while rows:
        k = rows.pop()
        v[k] = b = best[k]
        best[k] = INF
        for i, w in preds.get(k, ()):
            c = w + b
            if c < v[i] and c < best[i]:
                if best[i] == INF:
                    # a lower row changes later in this pass, a higher one in the next
                    if i < k:
                        insort(rows, i)
                    else:
                        queued.append(i)
                best[i] = c
    return v


def _solve(
    a: CostMatrix,
    full_pass: Callable[[View, list[Weight]], list[Weight] | None],
    candidate_pass: Callable[[Preds, list[Weight], Pending], list[Weight] | None],
    trace: list[tuple[Weight, ...]] | None,
) -> SolveResult:
    n = a.n
    v: list[Weight] = [INF] * n
    v[n - 1] = 0
    pending: Pending = ([INF] * n, [])
    for sweep in range(1, n + 1):
        if sweep <= a.full_passes:
            new = full_pass(a.sparse_rows, v)
        else:
            if sweep == a.full_passes + 1:
                _offer(a.preds, v, pending, [k for k, b in enumerate(v) if b != INF])
            new = candidate_pass(a.preds, v, pending)
        if trace is not None:
            trace.append(tuple(v if new is None else new))
        if new is None:
            return SolveResult(tuple(v), sweep)
        v = new
    raise ConvergenceError(
        f"no fixed point within {n} sweeps; the matrix violates its invariants"
    )


def bk_classic(
    a: CostMatrix, *, trace: list[tuple[Weight, ...]] | None = None
) -> SolveResult:
    """Solve by simultaneous (Jacobi-order) sweeps.

    ``trace``, when given a list, receives the vector snapshot after every
    executed sweep.
    """
    return _solve(a, _simultaneous, _simultaneous_candidates, trace)


def bk_accelerated(
    a: CostMatrix, *, trace: list[tuple[Weight, ...]] | None = None
) -> SolveResult:
    """Solve by bottom-up in-place (Gauss-Seidel-order) sweeps.

    Returns the same distances as bk_classic, in at most as many sweeps.
    """
    return _solve(a, _bottom_up, _bottom_up_candidates, trace)


def extract_route(a: CostMatrix, distances: Sequence[Weight]) -> Route:
    """Read one optimal route from node 1 off a solved distance vector.

    An arc i -> j is tight when distances[i] == a[i][j] + distances[j].
    The route is found by a depth-first walk over tight arcs that tries
    successors smallest j first, never enters a node it has tried before,
    and backs up from a node whose tight arcs are used up. Backing up is
    needed only when zero-weight cycles make tight arcs lead away from the
    target; with positive weights the first tight arc always continues,
    so the walk never backtracks. A row's tight arcs are picked out and
    sorted by column only when the walk enters that row. Because every hop
    is tight, the summed cost telescopes to distances[0] exactly.
    """
    n = a.n
    if distances[0] == INF:
        raise NoRouteError("node 1 cannot reach the target")
    table = a.table

    def tight_arcs(k: int) -> Iterator[tuple[int, Weight]]:
        # the diagonal (k, 0) is tight too, but k is on the path, so tried
        dk = distances[k]
        return iter(sorted((j, w) for j, w in zip(*table[k]) if w + distances[j] == dk))

    tried = [False] * n
    tried[0] = True
    # the path from node 1: (0-based node, weight of the arc into it, its
    # tight arcs not yet tried)
    path = [(0, 0, tight_arcs(0))]
    while path[-1][0] != n - 1:
        for j, w in path[-1][2]:
            if not tried[j]:
                break
        else:
            path.pop()
            if not path:
                raise ValueError(
                    "no consistent successor from node 1; vector is not a fixed point"
                )
            continue
        tried[j] = True
        path.append((j, w, tight_arcs(j)))
    return Route(tuple(k + 1 for k, _, _ in path), sum(w for _, w, _ in path))
