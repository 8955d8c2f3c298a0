"""Min-plus sweep solvers for the single-target shortest-route problem.

One engine, ``_solve``, repeats passes of

    v[i] <- min over j of (a[i][j] + v[j])

starting from the vector that is 0 at the target (node n) and INF
everywhere else, and stops as soon as a pass leaves the vector unchanged.
A pass reads the matrix through ``CostMatrix.sparse_rows``, which holds
for each row only its finite entries, diagonal included: an INF term can
never win the minimum, and a row with no arc stays INF, so the pass gets
the dense row's result from fewer terms. A pass function decides only how
a pass reads v; it returns the new vector, or None when nothing changed:

* ``_simultaneous`` (``bk_classic``) recomputes every row from the
  previous pass's vector (Jacobi order);
* ``_bottom_up`` (``bk_accelerated``) walks rows n-1 down to 1 updating
  in place, so each row already sees the values refreshed earlier in the
  same pass (Gauss-Seidel order), which can only shorten the descent.

Counting convention used by every counter downstream: ``sweeps`` is the
number of executed passes, including the final confirming pass (the one
that detects no change); ``relaxations`` is the paper's nominal
sweeps * (n-1) * n, the n candidate terms of each of the n-1 non-target
rows per pass, not the number of finite terms a pass evaluates. The
diagonal zero makes row i's own value one of its candidates, so entries
never increase, and with non-negative weights at most n passes are ever
needed (n-1 productive plus one confirming).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Sequence

from .graph import INF, CostMatrix, RowTerms, Weight

View = tuple[RowTerms, ...]


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
    method: str

    @property
    def relaxations(self) -> int:
        n = len(self.distances)
        return self.sweeps * (n - 1) * n


@dataclass(frozen=True)
class Route:
    """A concrete path to node n: 1-based node sequence plus its total cost."""

    nodes: tuple[int, ...]
    cost: int


def _simultaneous(view: View, v: list[Weight]) -> list[Weight] | None:
    new = v[:]
    for i, gather, weights in view:
        new[i] = min(map(add, weights, gather(v)))
    return None if new == v else new


def _bottom_up(view: View, v: list[Weight]) -> list[Weight] | None:
    changed = False
    for i, gather, weights in reversed(view):
        b = min(map(add, weights, gather(v)))
        if b != v[i]:
            v[i] = b
            changed = True
    return v if changed else None


def _solve(
    a: CostMatrix,
    sweep_pass: Callable[[View, list[Weight]], list[Weight] | None],
    method: str,
    trace: list[tuple[Weight, ...]] | None,
) -> SolveResult:
    n = a.n
    view = a.sparse_rows
    v: list[Weight] = [INF] * n
    v[n - 1] = 0
    for sweep in range(1, n + 1):
        new = sweep_pass(view, v)
        if trace is not None:
            trace.append(tuple(v if new is None else new))
        if new is None:
            return SolveResult(tuple(v), sweep, method)
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
    return _solve(a, _simultaneous, "classic", trace)


def bk_accelerated(
    a: CostMatrix, *, trace: list[tuple[Weight, ...]] | None = None
) -> SolveResult:
    """Solve by bottom-up in-place (Gauss-Seidel-order) sweeps.

    Returns the same distances as bk_classic, in at most as many sweeps.
    """
    return _solve(a, _bottom_up, "accelerated", trace)


def extract_route(a: CostMatrix, distances: Sequence[Weight]) -> Route:
    """Read one optimal route from node 1 off a solved distance vector.

    An arc i -> j is tight when distances[i] == a[i][j] + distances[j].
    The route is found by a depth-first walk over tight arcs that tries
    successors smallest j first, never enters a node it has tried before,
    and backs up from a node whose tight arcs are used up. Backing up is
    needed only when zero-weight cycles make tight arcs lead away from the
    target; with positive weights the first tight arc always continues,
    so the walk never backtracks. Because every hop is tight, the summed
    cost telescopes to distances[0] exactly.
    """
    n = a.n
    if distances[0] == INF:
        raise NoRouteError("node 1 cannot reach the target")
    rows = a.rows
    tried = [False] * n
    tried[0] = True
    path = [0]  # 0-based nodes from node 1
    resume = [0]  # per path entry, the first column not yet tried
    while path[-1] != n - 1:
        row, di = rows[path[-1]], distances[path[-1]]
        j = resume[-1]
        while j < n and (tried[j] or row[j] + distances[j] != di):
            j += 1
        if j == n:
            path.pop()
            resume.pop()
            if not path:
                raise ValueError(
                    "no consistent successor from node 1; vector is not a fixed point"
                )
            continue
        resume[-1] = j + 1
        tried[j] = True
        path.append(j)
        resume.append(0)
    cost = sum(rows[i][j] for i, j in zip(path, path[1:]))
    return Route(tuple(k + 1 for k in path), cost)
