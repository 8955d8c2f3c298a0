from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bkroute import (
    INF,
    MAX_WEIGHT,
    Arc,
    Graph,
    MalformedGraphError,
    build_cost_matrix,
    max_arcs,
)
from helpers import CHAIN, graphs

def test_max_arcs_values():
    assert max_arcs(2) == 2
    assert max_arcs(10) == 90
    assert max_arcs(90) == 8010


@pytest.mark.parametrize("n", [1, 0, -3])
def test_max_arcs_rejects_small_n(n):
    with pytest.raises(ValueError):
        max_arcs(n)


def test_graph_normalizes_arcs_to_named_tuples():
    g = Graph(3, [(1, 2, 5)])
    assert g.arcs == (Arc(1, 2, 5),)
    assert g.m == 1
    arc = Arc(2, 3, 4)
    g = Graph(3, (a for a in [arc, [1, 3, 6]]))  # any iterable of triples
    assert g.arcs == (arc, Arc(1, 3, 6))
    assert type(g.arcs[1]) is Arc
    assert g.arcs[0] is arc  # an Arc is kept, not re-wrapped


def test_matrix_without_arcs():
    mat = build_cost_matrix(Graph(3, []))
    for i in range(1, 4):
        for j in range(1, 4):
            assert mat.entry(i, j) == (0 if i == j else INF)


def test_matrix_single_arc():
    mat = build_cost_matrix(Graph(2, [(1, 2, 7)]))
    assert mat.entry(1, 2) == 7
    assert mat.entry(2, 1) == INF
    assert mat.entry(1, 1) == 0
    assert mat.entry(2, 2) == 0


def test_sparse_rows_hold_the_finite_entries_of_each_row():
    mat = build_cost_matrix(CHAIN)
    v = [30, 20, 10, 0]
    view = [(i, tuple(gather(v)), weights) for i, gather, weights in mat.sparse_rows]
    # the target row is left out; each row keeps its diagonal and its arcs
    assert view == [(0, (30, 20, 0), (0, 1, 10)), (1, (20, 10), (0, 1)), (2, (10, 0), (0, 1))]
    assert build_cost_matrix(Graph(3, [(2, 3, 1)])).sparse_rows[0][0] == 1  # arcless row 0 left out


def test_matrix_chain():
    mat = build_cost_matrix(CHAIN)
    present = {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 10}
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                assert mat.entry(i, j) == 0
            else:
                assert mat.entry(i, j) == present.get((i, j), INF)


@pytest.mark.parametrize(
    "arcs,msg",
    [
        ([(1, 2, 3), (1, 2, 5)], "duplicate"),
        ([(2, 2, 1)], "loop"),
        ([(0, 2, 1)], "out of range"),
        ([(1, 5, 1)], "out of range"),
        ([(1, 2, -1)], "weight"),
        ([(1, 2, MAX_WEIGHT + 1)], "weight"),
    ],
)
def test_matrix_rejects_malformed_input(arcs, msg):
    with pytest.raises(MalformedGraphError, match=msg):
        build_cost_matrix(Graph(3, arcs))


def test_matrix_rejects_non_integer_weight():
    with pytest.raises(MalformedGraphError, match="integer"):
        build_cost_matrix(Graph(2, [Arc(1, 2, 1.5)]))


@given(graphs(min_w=0))
def test_matrix_matches_arc_set(g):
    mat = build_cost_matrix(g)
    lookup = {(a.i, a.j): a.w for a in g.arcs}
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            expected = 0 if i == j else lookup.get((i, j), INF)
            assert mat.entry(i, j) == expected


@given(graphs(), st.randoms(use_true_random=False))
def test_matrix_ignores_arc_order(g, rnd):
    shuffled = list(g.arcs)
    rnd.shuffle(shuffled)
    assert build_cost_matrix(Graph(g.n, tuple(shuffled))).rows == build_cost_matrix(g).rows
