from __future__ import annotations

import dataclasses
import inspect
import pickle
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bkroute import (
    INF,
    MAX_NODES,
    MAX_WEIGHT,
    Graph,
    MalformedGraphError,
    RngStream,
    build_cost_matrix,
    draw_graph,
    max_arcs,
)
from bkroute.graph import CostMatrix
from helpers import (
    CHAIN,
    arcs,
    complete_graphs,
    gate_boundary_graphs,
    graphs,
    large_record,
    within_memory_bound,
)

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
        "(n: 'int', src: 'Sequence[int]' = (), dst: 'Sequence[int]' = (),"
        " wt: 'Sequence[int]' = ()) -> None"
    )


def test_graph_stores_its_columns_packed():
    g = Graph(3, [2, 1], [3, 3], [4, 6])
    assert (g.src, g.dst, g.wt) == (array("i", (2, 1)), array("i", (3, 3)), array("i", (4, 6)))
    assert (tuple(g.src), tuple(g.dst), tuple(g.wt)) == ((2, 1), (3, 3), (4, 6))
    assert {(type(c), c.itemsize) for c in (g.src, g.dst, g.wt)} == {(array, 4)}
    assert g == Graph(3, (2, 1), (3, 3), (4, 6)) == Graph(3, *zip((2, 3, 4), (1, 3, 6)))
    assert g.m == 2
    assert (Graph(3).m, Graph(3)) == (0, Graph(3, (), (), ()))


def test_graph_is_a_value():
    src, dst, wt = [1, 2], [2, 3], [5, MAX_WEIGHT]
    g = Graph(3, src, dst, wt)
    twin = Graph(3, tuple(src), tuple(dst), tuple(wt))
    # equal Graphs hash equal, so they work as set members and dict keys
    assert hash(g) == hash(twin)
    assert {g, twin, Graph(3, [1], [2], [5])} == {twin, Graph(3, (1,), (2,), (5,))}
    assert pickle.loads(pickle.dumps(g)) == g
    # the Graph holds copies, not the caller's lists
    src[0], dst[1], wt[1] = 3, 1, 0
    assert g == twin
    assert (tuple(g.src), tuple(g.dst), tuple(g.wt)) == ((1, 2), (2, 3), (5, MAX_WEIGHT))


def test_a_large_graph_holds_four_bytes_per_value():
    # drawn, packed and the generator's columns dropped inside the trace, so
    # what stays traced is the Graph: three int32 columns, about 12 bytes an arc
    m = 10**5
    g = within_memory_bound(draw_graph, 10**4, m, RngStream(18), 10**6, held=14 * m)
    assert g.m == m and max(g.wt) > 2**16


def test_checking_a_graph_costs_little_beyond_its_columns():
    # n*n <= 16*m: the duplicate check marks a table of n*n bytes (1 MB),
    # not a set of 10**5 ints (8.4 MiB), and the packed copies take 1.2 MB
    g = large_record()
    columns = list(g.src), list(g.dst), list(g.wt)
    assert within_memory_bound(Graph, 1000, *columns, peak=2 * 2**20) == g


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
        mat = build_cost_matrix(g)
        assert mat.full_passes > 0  # only a dense matrix holds a view
        return [(i, tuple(gather(v)), w) for i, gather, w in mat.sparse_rows]

    # the complete graph on 10 nodes, the smallest dense one (90 > 80 arcs),
    # each row's arcs listed from the highest column down; arc i -> j weighs 10i + j
    complete = [(i, j, 10 * i + j) for i in range(1, 11) for j in range(10, 0, -1) if i != j]
    v = [100 * k for k in range(10)]
    # node 5's row: its diagonal, then its arcs to nodes 10 down to 6 and 4 down to 1
    row5 = (
        4,
        (400, 900, 800, 700, 600, 500, 300, 200, 100, 0),
        (0, 60, 59, 58, 57, 56, 54, 53, 52, 51),
    )
    rows = view(Graph(10, *zip(*complete)), v)
    # the target row is left out; each row keeps its diagonal, then its arcs in arc order
    assert [i for i, _, _ in rows] == list(range(9))
    assert rows[0] == (
        0,
        (0, 900, 800, 700, 600, 500, 400, 300, 200, 100),
        (0, 20, 19, 18, 17, 16, 15, 14, 13, 12),
    )
    assert rows[4] == row5
    # without row 1's arcs the graph is still dense (81 > 80 arcs); its arcless row is left out
    rows = view(Graph(10, *zip(*[a for a in complete if a[0] != 1])), v)
    assert [i for i, _, _ in rows] == list(range(1, 9))
    assert rows[3] == row5


def test_preds_hold_the_arcs_into_each_node():
    # entry j (0-based): the (row, weight) pairs of the arcs into j, in arc order
    assert build_cost_matrix(CHAIN).preds == ((), ((0, 1),), ((1, 1),), ((2, 1), (0, 10)))
    # the target's arc 3 -> 1 is left out with its row, which is never evaluated
    assert build_cost_matrix(Graph(3, *zip((2, 3, 1), (3, 1, 4)))).preds == ((), (), ((1, 1),))


def test_preds_exist_up_to_eight_arcs_per_node():
    n = 12
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for m, sparse in ((0, True), (8 * n, True), (8 * n + 1, False), (len(pairs), False)):
        mat = build_cost_matrix(Graph(n, *zip(*[(i, j, 1) for i, j in pairs[:m]])))
        assert (mat.full_passes == 0) == sparse, m
        assert ("preds" in vars(mat)) == sparse, m  # a dense one builds them on demand


@pytest.mark.parametrize(
    "strategy",
    [graphs(), gate_boundary_graphs(), complete_graphs(min_n=12, max_n=20)],
    ids=["graphs", "gate-boundary", "complete-n12-20"],
)
@given(data=st.data())
def test_one_pass_build_matches_the_columns(strategy, data):
    g = data.draw(strategy)
    mat = build_cost_matrix(g)
    assert ("sparse_rows" in vars(mat)) == (mat.full_passes > 0)  # made by the build, never later
    assert (mat.full_passes == 0) == (g.m <= 8 * g.n)
    assert ("preds" in vars(mat)) == (mat.full_passes == 0)
    for member in (mat.cols, mat.weights, mat.preds):
        assert type(member) is tuple and len(member) == g.n
    for i in range(g.n):
        # row i's arcs in arc order, no diagonal
        row = [(j - 1, w) for k, j, w in arcs(g) if k - 1 == i]
        assert list(zip(mat.cols[i], mat.weights[i])) == row
        # the arcs into node i from every row but the target's; a dense
        # matrix's lists, built from its rows, hold the same arcs
        into = [(k - 1, w) for k, j, w in arcs(g) if j - 1 == i and k != g.n]
        assert sorted(mat.preds[i]) == sorted(into)


@pytest.mark.parametrize(
    "n,src,dst,wt",
    [
        (3, (1, 2), (2, 3), (5,)),
        (3, (1,), (2, 3), (5, 5)),
        (2, (1,) * 16, (2,) * 17, (1,) * 17),
        (2, (1,) * 17, (2,) * 16, (1,) * 17),
        (2, (1,) * 17, (2,) * 17, (1,) * 18),
    ],
    ids=["sparse-short-wt", "sparse-short-src", "short-src-reads-sparse", "dense-short-dst",
         "dense-long-wt"],
)
def test_matrix_refuses_columns_of_unequal_length(n, src, dst, wt):
    # no arc is dropped silently, and the density gate never reads a wrong m
    with pytest.raises(ValueError, match="shorter|longer"):
        CostMatrix(n, src, dst, wt)


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
        # values beyond the 32 bits a column packs: the same errors, never OverflowError
        (3, [(1, 2, 2**31)], f"arc 1 (1, 2, 2147483648): {WEIGHT_RULE}"),
        (3, [(1, 2, 2**40)], f"arc 1 (1, 2, 1099511627776): {WEIGHT_RULE}"),
        (3, [(1, 2, -(2**40))], f"arc 1 (1, 2, -1099511627776): {WEIGHT_RULE}"),
        (3, [(2**40, 2, 1)], "arc 1 (1099511627776, 2, 1): node index out of range for n=3"),
        # both duplicate checks, with a duplicate before and after an
        # out-of-range arc and on the highest key, (n, n-1): n=3 marks a
        # byte table (n*n <= 16*m), n=MAX_NODES with 3 arcs a set
        (3, [(1, 2, 3), (1, 2, 4), (1, 4, 5)], "arc 2 (1, 2, 4): duplicate ordered pair (1, 2)"),
        (3, [(1, 2, 3), (1, 4, 5), (1, 2, 4)], "arc 2 (1, 4, 5): node index out of range for n=3"),
        (
            3,
            [(3, 2, 1), (2, 3, 1), (1, 2, 1), (3, 2, 0)],
            "arc 4 (3, 2, 0): duplicate ordered pair (3, 2)",
        ),
        (
            MAX_NODES,
            [(1, 2, 3), (1, 2, 4), (1, MAX_NODES + 1, 5)],
            "arc 2 (1, 2, 4): duplicate ordered pair (1, 2)",
        ),
        (
            MAX_NODES,
            [(1, 2, 3), (1, MAX_NODES + 1, 5), (1, 2, 4)],
            "arc 2 (1, 100001, 5): node index out of range for n=100000",
        ),
        (
            MAX_NODES,
            [
                (MAX_NODES, MAX_NODES - 1, 1),
                (MAX_NODES - 1, MAX_NODES, 1),
                (MAX_NODES, MAX_NODES - 1, 0),
            ],
            "arc 3 (100000, 99999, 0): duplicate ordered pair (100000, 99999)",
        ),
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


@st.composite
def repeating_triples(draw):
    """Arc lists on few pairs, so repeats are common, that reach both
    duplicate checks: n=3 always marks a byte table, n=40 from 100 arcs on,
    and n=MAX_NODES always a set."""
    n = draw(st.sampled_from([3, 40, MAX_NODES]))
    node = st.sampled_from([0, 1, 2, n - 1, n, n + 1])
    weight = st.sampled_from([-1, 0, 7])
    return n, draw(st.lists(st.tuples(node, node, weight), max_size=120))


@given(repeating_triples())
def test_both_duplicate_checks_name_the_first_broken_arc(case):
    n, arcs = case
    broken = _first_broken_rule(n, arcs)
    if broken is None:
        g = Graph(n, *zip(*arcs))
        assert list(zip(g.src, g.dst, g.wt)) == arcs
        return
    k, reason = broken
    i, j, w = arcs[k - 1]
    with pytest.raises(MalformedGraphError) as exc:
        Graph(n, *zip(*arcs))
    assert str(exc.value) == f"arc {k} ({i}, {j}, {w}): {reason}"


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
