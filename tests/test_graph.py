from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bkroute import (
    INF,
    MAX_NODES,
    MAX_WEIGHT,
    Graph,
    MalformedGraphError,
    build_cost_matrix,
    max_arcs,
)
from helpers import CHAIN, arcs, graphs

def test_max_arcs_values():
    assert max_arcs(2) == 2
    assert max_arcs(10) == 90
    assert max_arcs(90) == 8010
    assert max_arcs(MAX_NODES) == MAX_NODES * (MAX_NODES - 1)


def test_max_nodes_keeps_every_path_sum_exact_in_a_float64():
    assert MAX_WEIGHT * MAX_NODES < 2**53


@pytest.mark.parametrize("n", [1, 0, -3])
def test_max_arcs_rejects_small_n(n):
    with pytest.raises(ValueError):
        max_arcs(n)


@pytest.mark.parametrize(
    "n,message",
    [
        (1, "node count must be at least 2, got 1"),
        (2.5, "node count must be an integer, got 2.5"),
        (True, "node count must be an integer, got True"),
        (MAX_NODES + 1, f"node count must be at most {MAX_NODES}, got {MAX_NODES + 1}"),
    ],
)
def test_max_arcs_has_the_graph_node_count_rule(n, message):
    with pytest.raises(ValueError) as exc:
        max_arcs(n)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Graph(n)
    assert str(exc.value) == message


def test_graph_is_made_from_its_columns_only():
    assert str(inspect.signature(Graph)) == (
        "(n: 'int', src: 'tuple[int, ...]' = (), dst: 'tuple[int, ...]' = (),"
        " wt: 'tuple[int, ...]' = ()) -> None"
    )


def test_graph_stores_its_columns_as_tuples():
    g = Graph(3, [2, 1], [3, 3], [4, 6])
    assert (g.src, g.dst, g.wt) == ((2, 1), (3, 3), (4, 6))
    assert g == Graph(3, (2, 1), (3, 3), (4, 6)) == Graph(3, *zip((2, 3, 4), (1, 3, 6)))
    assert g.m == 2
    assert (Graph(3).m, Graph(3)) == (0, Graph(3, (), (), ()))


@pytest.mark.parametrize(
    "columns,text",
    [
        (((2, 1), (3, 3), (4,)), "columns differ in length: 2, 2, 1"),
        # a list of triples, the call shape of a removed constructor, is one column
        (([(1, 2, 5)],), "columns differ in length: 1, 0, 0"),
    ],
)
def test_graph_columns_must_have_equal_lengths(columns, text):
    with pytest.raises(MalformedGraphError) as exc:
        Graph(3, *columns)
    assert str(exc.value) == text


def test_replace_checks_the_new_columns():
    g = Graph(3, (1, 2), (2, 1), (3, 3))
    with pytest.raises(MalformedGraphError) as exc:
        dataclasses.replace(g, wt=(3, -1))
    assert str(exc.value) == f"arc 2 (2, 1, -1): {WEIGHT_RULE}"


def test_matrix_without_arcs():
    mat = build_cost_matrix(Graph(3))
    for i in range(1, 4):
        for j in range(1, 4):
            assert mat.entry(i, j) == (0 if i == j else INF)


def test_matrix_single_arc():
    mat = build_cost_matrix(Graph(2, *zip((1, 2, 7))))
    assert mat.entry(1, 2) == 7
    assert mat.entry(2, 1) == INF
    assert mat.entry(1, 1) == 0
    assert mat.entry(2, 2) == 0


def entries(mat):
    """The full 1-based table of a matrix, INF where no arc exists."""
    nodes = range(1, mat.n + 1)
    return [[mat.entry(i, j) for j in nodes] for i in nodes]


def test_sparse_rows_hold_the_finite_entries_of_each_row():
    def view(g, v):
        return [(i, tuple(gather(v)), w) for i, gather, w in build_cost_matrix(g).sparse_rows]

    # the target row is left out; each row keeps its diagonal, then its arcs
    assert view(CHAIN, [30, 20, 10, 0]) == [
        (0, (30, 20, 0), (0, 1, 10)),
        (1, (20, 10), (0, 1)),
        (2, (10, 0), (0, 1)),
    ]
    # the arcless row 1 and the target row, arcs or not, are left out
    assert view(Graph(3, *zip((2, 3, 1), (3, 1, 4))), [30, 20, 10]) == [(1, (20, 10), (0, 1))]


@pytest.mark.parametrize("bad", [0, -1, 4])
@pytest.mark.parametrize("which", ["i", "j"])
def test_entry_rejects_nodes_outside_the_graph(which, bad):
    # an index of 0 or -1 must not wrap round to the last rows or columns
    mat = build_cost_matrix(Graph(3, *zip((3, 1, 7))))
    with pytest.raises(IndexError):
        mat.entry(*((bad, 1) if which == "i" else (3, bad)))


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
        Graph(3, *zip(*arcs))  # no matrix is built: the graph itself refuses


def test_matrix_rejects_non_integer_weight():
    with pytest.raises(MalformedGraphError, match="integer"):
        Graph(2, *zip((1, 2, 1.5)))


WEIGHT_RULE = f"weight must be an integer in [0, {MAX_WEIGHT}]"
NODE_TYPE_RULE = "node indices must be integers"


@pytest.mark.parametrize(
    "n,arcs,text",
    [
        (1, [], "node count must be at least 2, got 1"),
        (0, [(1, 2, 3)], "node count must be at least 2, got 0"),
        (3, [(1, 2, 3), (0, 2, 1)], "arc 2 (0, 2, 1): node index out of range for n=3"),
        (3, [(1, 4, 1)], "arc 1 (1, 4, 1): node index out of range for n=3"),
        (3, [(2, 2, 1)], "arc 1 (2, 2, 1): loop arcs are not allowed"),
        (3, [(1, 2, -1)], f"arc 1 (1, 2, -1): {WEIGHT_RULE}"),
        (3, [(1, 2, MAX_WEIGHT + 1)], f"arc 1 (1, 2, {MAX_WEIGHT + 1}): {WEIGHT_RULE}"),
        (3, [(1, 2, 1.5)], f"arc 1 (1, 2, 1.5): {WEIGHT_RULE}"),
        (3, [(1, 2, True)], f"arc 1 (1, 2, True): {WEIGHT_RULE}"),
        (3, [(1, 2, 3), (2, 1, 3), (1, 2, 5)], "arc 3 (1, 2, 5): duplicate ordered pair (1, 2)"),
        # the first broken rule of the first bad arc wins
        (3, [(3, 3, -1), (0, 1, 1)], "arc 1 (3, 3, -1): loop arcs are not allowed"),
        (3, [(1, 2, 1), (1, 2, -1)], f"arc 2 (1, 2, -1): {WEIGHT_RULE}"),
        # values that compare like ints but are not ints
        (3.0, [(1, 3, 5)], "node count must be an integer, got 3.0"),
        (True, [], "node count must be an integer, got True"),
        (3, [(1.0, 3, 5)], f"arc 1 (1.0, 3, 5): {NODE_TYPE_RULE}"),
        (3, [(1, 3.0, 5)], f"arc 1 (1, 3.0, 5): {NODE_TYPE_RULE}"),
        (3, [(True, 3, 5)], f"arc 1 (True, 3, 5): {NODE_TYPE_RULE}"),
        (3, [(1, 2, 5), (2, False, 5)], f"arc 2 (2, False, 5): {NODE_TYPE_RULE}"),
        (3, [(2.0, 2, -1)], f"arc 1 (2.0, 2, -1): {NODE_TYPE_RULE}"),
    ],
)
def test_graph_construction_raises_the_exact_text(n, arcs, text):
    with pytest.raises(MalformedGraphError) as exc:
        Graph(n, *zip(*arcs))
    assert str(exc.value) == text


def _first_broken_rule(n, arcs):
    """(1-based position, reason) of the first arc breaking a rule, or None."""
    pairs = [(i, j) for i, j, _ in arcs]
    for k, (i, j, w) in enumerate(arcs, start=1):
        rules = [
            (type(i) is int and type(j) is int, NODE_TYPE_RULE),
            (i in range(1, n + 1) and j in range(1, n + 1), f"node index out of range for n={n}"),
            (i != j, "loop arcs are not allowed"),
            (type(w) is int and 0 <= w <= MAX_WEIGHT, WEIGHT_RULE),
            ((i, j) not in pairs[: k - 1], f"duplicate ordered pair ({i}, {j})"),
        ]
        for holds, reason in rules:
            if not holds:
                return k, reason
    return None


@st.composite
def triples(draw):
    n = draw(st.integers(2, 5))
    node = st.integers(-1, n + 1)
    weight = st.sampled_from([-1, 0, MAX_WEIGHT, MAX_WEIGHT + 1, 1.5]) | st.integers(0, 9)
    if draw(st.booleans()):  # also values that compare like ints but are not ints
        node |= st.sampled_from([1.0, float(n), True, False])
        n = draw(st.sampled_from([n, float(n), True]))
    return n, draw(st.lists(st.tuples(node, node, weight), max_size=12))  # repeats allowed


@given(triples())
def test_graph_construction_names_the_first_broken_arc(case):
    n, arcs = case
    if type(n) is not int:
        with pytest.raises(MalformedGraphError) as exc:
            Graph(n, *zip(*arcs))
        assert str(exc.value) == f"node count must be an integer, got {n!r}"
        return
    broken = _first_broken_rule(n, arcs)
    if broken is not None:
        k, reason = broken
        i, j, w = arcs[k - 1]
        with pytest.raises(MalformedGraphError) as exc:
            Graph(n, *zip(*arcs))
        assert str(exc.value) == f"arc {k} ({i}, {j}, {w}): {reason}"
        return
    g = Graph(n, *zip(*arcs))
    assert list(zip(g.src, g.dst, g.wt)) == arcs
    mat = build_cost_matrix(g)
    lookup = {(i, j): w for i, j, w in arcs}
    assert entries(mat) == [
        [0 if i == j else lookup.get((i, j), INF) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


@given(graphs(min_w=0))
def test_matrix_matches_arc_set(g):
    mat = build_cost_matrix(g)
    lookup = {(i, j): w for i, j, w in arcs(g)}
    for i in range(1, g.n + 1):
        for j in range(1, g.n + 1):
            expected = 0 if i == j else lookup.get((i, j), INF)
            assert mat.entry(i, j) == expected


@given(graphs(), st.randoms(use_true_random=False))
def test_matrix_ignores_arc_order(g, rnd):
    shuffled = arcs(g)
    rnd.shuffle(shuffled)
    assert entries(build_cost_matrix(Graph(g.n, *zip(*shuffled)))) == entries(build_cost_matrix(g))
