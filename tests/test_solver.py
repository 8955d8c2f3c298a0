from __future__ import annotations

import random
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bkroute import (
    INF,
    MAX_NODES,
    MAX_WEIGHT,
    ConvergenceError,
    GenSpec,
    Graph,
    NoRouteError,
    RngStream,
    bk_accelerated,
    bk_classic,
    build_cost_matrix,
    draw_graph,
    extract_route,
    generate_set,
    oracle_distances,
)
from bkroute.graph import _FULL_PASSES, CostMatrix
from helpers import (
    CHAIN,
    arcs,
    bounded_distances,
    brute_force_distance,
    complete_graphs,
    gate_boundary_graphs,
    graphs,
    traced,
    within_memory_bound,
    zero_weight_cycles,
)

CHAIN_MAT = build_cost_matrix(CHAIN)


class TestChainExample:
    def test_classic(self):
        r = bk_classic(CHAIN_MAT)
        assert r.distances == (3, 2, 1, 0)
        assert r.sweeps == 4  # three productive passes plus the confirming one
        assert r.relaxations == 48  # 4 sweeps * 3 rows * 4 terms

    def test_classic_sweep_sequence(self):
        trace = []
        bk_classic(CHAIN_MAT, trace=trace)
        assert trace == [(10, INF, 1, 0), (10, 2, 1, 0), (3, 2, 1, 0), (3, 2, 1, 0)]

    def test_accelerated(self):
        r = bk_accelerated(CHAIN_MAT)
        assert r.distances == (3, 2, 1, 0)
        assert r.sweeps == 2  # one productive pass plus the confirming one
        assert r.relaxations == 24

    def test_accelerated_sweep_sequence(self):
        trace = []
        bk_accelerated(CHAIN_MAT, trace=trace)
        assert trace == [(3, 2, 1, 0), (3, 2, 1, 0)]

    def test_route(self):
        route = extract_route(CHAIN_MAT, bk_classic(CHAIN_MAT).distances)
        assert route.nodes == (1, 2, 3, 4)
        assert route.cost == 3


def test_two_nodes_single_arc():
    mat = build_cost_matrix(Graph(2, *zip((1, 2, 7))))
    for solve in (bk_classic, bk_accelerated):
        r = solve(mat)
        assert r.distances == (7, 0)
        assert r.sweeps == 2  # the first pass finds the arc, the second confirms
        assert r.relaxations == 4
    route = extract_route(mat, bk_classic(mat).distances)
    assert route.nodes == (1, 2)
    assert route.cost == 7


def test_no_arcs_settles_in_one_sweep():
    mat = build_cost_matrix(Graph(3))
    for solve in (bk_classic, bk_accelerated):
        r = solve(mat)
        assert r.distances == (INF, INF, 0)
        assert r.sweeps == 1
        assert r.relaxations == 6


def test_complete_three_node_graph():
    g = Graph(3, *zip(*[(i, j, 1) for i in range(1, 4) for j in range(1, 4) if i != j]))
    mat = build_cost_matrix(g)
    r = bk_classic(mat)
    assert r.distances == (1, 1, 0)
    route = extract_route(mat, r.distances)
    assert route.nodes == (1, 3)
    assert route.cost == 1


def test_route_tie_break_prefers_smallest_successor():
    g = Graph(3, *zip((1, 2, 1), (2, 3, 1), (1, 3, 2)))
    mat = build_cost_matrix(g)
    d = bk_classic(mat).distances
    assert d == (2, 1, 0)
    # both continuations are optimal; node 2 wins over node 3
    assert extract_route(mat, d).nodes == (1, 2, 3)


def test_route_backs_out_of_a_zero_weight_cycle():
    # 1 -> 2 is tight (0 + 5 == 5) but leads only back to node 1
    mat = build_cost_matrix(Graph(3, *zip((1, 2, 0), (2, 1, 0), (1, 3, 5))))
    d = bk_classic(mat).distances
    assert d == (5, 5, 0)
    route = extract_route(mat, d)
    assert route.nodes == (1, 3)
    assert route.cost == 5


def test_route_requires_reachability():
    mat = build_cost_matrix(Graph(2))
    with pytest.raises(NoRouteError):
        extract_route(mat, bk_classic(mat).distances)


def test_route_rejects_a_non_fixed_point():
    with pytest.raises(ValueError, match="fixed point"):
        extract_route(CHAIN_MAT, (5, 2, 1, 0))


#: A negative two-cycle with a path to the target: no Graph admits it, and
#: no fixed point ever arrives.
NEGATIVE_CYCLE = [(1, 2, -5), (1, 3, 0), (2, 1, 1), (2, 3, 0)]


def test_divergent_matrix_is_detected():
    mat = CostMatrix(3, *zip(*NEGATIVE_CYCLE))
    assert mat.full_passes == 0  # sparse, so its passes take only the offered candidates
    for solve in (bk_classic, bk_accelerated):
        trace = []
        with pytest.raises(ConvergenceError, match="fixed point"):
            solve(mat, trace=trace)
        assert len(trace) == 3  # n sweeps, then the error


def dense_reference(a: CostMatrix, bottom_up: bool):
    """The dense passes, every row evaluating all n terms a[i][j] + v[j].

    Returns (distances, sweeps, trace); distances is None when no fixed
    point arrives within n sweeps, where the solvers raise instead.
    """
    n = a.n
    rows = [[a.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    v = [INF] * n
    v[n - 1] = 0
    trace = []
    for sweep in range(1, n + 1):
        if bottom_up:
            new = v[:]
            for i in range(n - 2, -1, -1):
                new[i] = min(map(add, rows[i], new))
        else:
            new = [min(map(add, row, v)) for row in rows[:-1]] + [0]
        trace.append(tuple(new))
        if new == v:
            return tuple(v), sweep, trace
        v = new
    return None, n, trace


def assert_matches_dense_reference(mat: CostMatrix) -> None:
    for solve, bottom_up in ((bk_classic, False), (bk_accelerated, True)):
        distances, sweeps, expected = dense_reference(mat, bottom_up)
        trace = []
        if distances is None:
            with pytest.raises(ConvergenceError):
                solve(mat, trace=trace)
        else:
            r = solve(mat, trace=trace)
            assert (r.distances, r.sweeps) == (distances, sweeps)
        assert trace == expected


@st.composite
def graphs_with_sinks(draw):
    g = draw(graphs(min_w=0))
    sinks = draw(st.sets(st.integers(1, g.n - 1), min_size=1))
    return Graph(g.n, *zip(*[(i, j, w) for i, j, w in arcs(g) if i not in sinks]))


def label_reversed(n: int) -> list[int]:
    """The route 1 -> n-1 -> n-2 -> ... -> 2 -> n through every node."""
    return [1, *range(n - 1, 1, -1), n]


@st.composite
def reversed_chains(draw):
    """The route 1 -> n-1 -> n-2 -> ... -> 2 -> n: every arc but the last
    points to a lower label, so bottom-up needs about n sweeps too."""
    n = draw(st.integers(2, 30))
    path = label_reversed(n)
    weights = draw(st.lists(st.integers(0, 100), min_size=n - 1, max_size=n - 1))
    return Graph(n, path[:-1], path[1:], weights)


def dense_chain(route: list[int], weights, back: int = 10**6, span: int = 9) -> Graph:
    """The route's arcs, weighted in order, plus an arc of weight `back` from
    each node to each of the up to `span` nodes before it on the route. For
    span 9 and n >= 24 that is over 8n arcs, yet every route to the target
    still follows the whole chain."""
    n = len(route)
    back_arcs = [(route[p], route[q], back) for p in range(n) for q in range(max(0, p - span), p)]
    return Graph(n, *zip(*zip(route, route[1:], weights), *back_arcs))


@st.composite
def dense_chains(draw):
    """A dense chain on 30..80 nodes, forward or label-reversed, in a drawn
    arc order: the classic order needs n sweeps on either route, and the
    bottom-up order n - 1 on a label-reversed one, so for n above 33 both
    orders pass _FULL_PASSES and switch to candidate passes."""
    n = draw(st.integers(30, 80))
    route = draw(st.sampled_from([list(range(1, n + 1)), label_reversed(n)]))
    weights = draw(st.lists(st.integers(0, 100), min_size=n - 1, max_size=n - 1))
    g = dense_chain(route, weights, draw(st.integers(0, MAX_WEIGHT)), draw(st.integers(9, 12)))
    shuffled = arcs(g)
    draw(st.randoms(use_true_random=True)).shuffle(shuffled)
    return Graph(n, *zip(*shuffled))


#: Shaped like the sparse-route corpus: n 50..90, m 100..400.
SPARSE_ROUTE_SET = generate_set(GenSpec(50, 90, 100, 400, 12, 7, 100))


@pytest.mark.parametrize(
    "strategy",
    [
        graphs(min_w=0),
        graphs(min_w=MAX_WEIGHT - 2, max_w=MAX_WEIGHT),
        complete_graphs(),
        graphs_with_sinks(),
        st.sampled_from(SPARSE_ROUTE_SET),
        complete_graphs(min_n=12, max_n=20),
        gate_boundary_graphs(),
        reversed_chains(),
        zero_weight_cycles(),
        dense_chains(),
    ],
    ids=[
        "min_w=0", "near-MAX_WEIGHT", "complete", "sinks", "sparse-route-shaped",
        "complete-n12-20", "gate-boundary", "reversed-chain", "zero-weight-cycle",
        "dense-chain",
    ],
)
@given(data=st.data())
def test_sparse_view_matches_dense_reference(strategy, data):
    assert_matches_dense_reference(build_cost_matrix(data.draw(strategy)))


@pytest.mark.parametrize(
    "strategy",
    [
        graphs(min_w=0),
        st.sampled_from(SPARSE_ROUTE_SET),
        complete_graphs(),
        gate_boundary_graphs(),
        zero_weight_cycles(),
        dense_chains(),
    ],
    ids=[
        "min_w=0", "sparse-route-shaped", "complete", "gate-boundary", "zero-weight-cycle",
        "dense-chain",
    ],
)
@given(data=st.data())
def test_solves_do_not_depend_on_the_order_of_preds(strategy, data):
    g = data.draw(strategy)
    mat = build_cost_matrix(g)
    flipped = build_cost_matrix(g)
    object.__setattr__(flipped, "preds", tuple(p[::-1] for p in mat.preds))
    for solve in (bk_classic, bk_accelerated):
        trace, flipped_trace = [], []
        r = solve(mat, trace=trace)
        f = solve(flipped, trace=flipped_trace)
        assert (r.distances, r.sweeps) == (f.distances, f.sweeps)
        assert trace == flipped_trace


def test_only_dense_solves_build_the_row_view():
    sparse = build_cost_matrix(CHAIN)
    pairs = [(i, j) for i in range(1, 13) for j in range(1, 13) if i != j]
    dense = build_cost_matrix(Graph(12, *zip(*[(i, j, 1) for i, j in pairs])))
    assert sparse.full_passes == 0 and dense.full_passes == _FULL_PASSES
    # the build makes the dense matrix's view, and no solve makes the sparse one's
    assert "sparse_rows" not in vars(sparse)
    assert "sparse_rows" in vars(dense)
    for mat in (sparse, dense):
        for solve in (bk_classic, bk_accelerated):
            extract_route(mat, solve(mat).distances)
    assert "sparse_rows" not in vars(sparse)
    assert "sparse_rows" in vars(dense)
    # a dense matrix builds its in-arc lists only for a solve that switches
    assert "preds" not in vars(dense)
    chain = build_cost_matrix(dense_chain(list(range(1, 41)), [1] * 39))
    assert bk_classic(chain).sweeps == 40 > _FULL_PASSES
    assert "preds" in vars(chain)


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "label-reversed"])
def test_dense_solves_switch_after_the_full_passes(reverse, extra):
    # the order the route suits least needs exactly _FULL_PASSES + extra
    # sweeps: the full passes, then `extra` candidate passes
    solve = bk_accelerated if reverse else bk_classic
    n = _FULL_PASSES + extra + reverse
    mat = build_cost_matrix(
        dense_chain(label_reversed(n) if reverse else list(range(1, n + 1)), [1] * (n - 1))
    )
    assert mat.full_passes == _FULL_PASSES
    assert solve(mat).sweeps == _FULL_PASSES + extra
    assert ("preds" in vars(mat)) == (extra > 0)
    assert_matches_dense_reference(mat)


@pytest.mark.parametrize(
    "arcs",
    [[(2, 3, 5)], NEGATIVE_CYCLE],  # row 1 has no arc; no fixed point
    ids=["diagonal-only", "negative-cycle"],
)
def test_sparse_view_matches_dense_reference_on_edge_rows(arcs):
    assert_matches_dense_reference(CostMatrix(3, *zip(*arcs)))


@given(graphs(min_w=0))
def test_methods_and_oracle_agree(g):
    mat = build_cost_matrix(g)
    c = bk_classic(mat)
    a = bk_accelerated(mat)
    assert c.distances == a.distances == oracle_distances(g)


@pytest.mark.parametrize(
    "strategy",
    [graphs(min_w=0), st.sampled_from(SPARSE_ROUTE_SET)],
    ids=["min_w=0", "sparse-route-shaped"],
)
@given(data=st.data())
def test_oracle_and_methods_match_networkx_dijkstra(strategy, data):
    nx = pytest.importorskip("networkx")
    g = data.draw(strategy)
    reverse = nx.DiGraph()
    reverse.add_nodes_from(range(1, g.n + 1))
    reverse.add_weighted_edges_from((j, i, w) for i, j, w in arcs(g))
    found = nx.single_source_dijkstra_path_length(reverse, g.n)
    expected = tuple(found.get(k, INF) for k in range(1, g.n + 1))
    mat = build_cost_matrix(g)
    assert oracle_distances(g) == expected
    assert bk_classic(mat).distances == bk_accelerated(mat).distances == expected


#: The n that MAX_WEIGHT's headroom is sized for.
LARGE_N = 10**4


def test_matrix_without_arcs_holds_no_predecessor_lists():
    # an arcless MAX_NODES matrix holds 2.3 MiB on CPython 3.11: three flat
    # tuples (cols, weights, preds) of one pointer per node, each entry the
    # shared empty tuple, since no row stores a diagonal
    mat, size, _ = traced(lambda: build_cost_matrix(Graph(MAX_NODES)))
    assert mat.preds == ((),) * MAX_NODES
    assert all(c == w == () for c, w in zip(mat.cols, mat.weights))
    assert size < 3 * 2**20
    # two arcs fill the entries of the nodes they enter, however large n is
    few = build_cost_matrix(Graph(MAX_NODES, *zip((1, 2, 5), (2, MAX_NODES, 5))))
    assert few.preds[1] == ((0, 5),) and few.preds[MAX_NODES - 1] == ((1, 5),)
    assert sum(map(len, few.preds)) == 2


def test_a_sparse_matrix_of_max_nodes_holds_what_its_arcs_need():
    # 10^5 nodes and 10^5 arcs: the matrix holds 23.3 MiB on CPython 3.11,
    # its three flat tuples of n entries, the rows' and in-arc lists'
    # tuples and one (i, w) pair per in-arc. Drawn outside the trace.
    g = draw_graph(MAX_NODES, MAX_NODES, RngStream(3))
    mat, size, _ = traced(build_cost_matrix, g)
    assert mat.full_passes == 0 and len(mat.preds) == MAX_NODES
    assert size < 27 * 2**20


def test_large_draw_is_within_memory_bound():
    # the generator's memory grows with m, not with its n*(n-1) position pool
    g = within_memory_bound(draw_graph, LARGE_N, 4 * LARGE_N, RngStream(7))
    assert (g.n, g.m) == (LARGE_N, 4 * LARGE_N)


def test_large_chain_is_exact():
    # every sum MAX_WEIGHT*k stays an exact int; the classic order needs n sweeps
    n = LARGE_N
    chain = Graph(n, *zip(*[(k, k + 1, MAX_WEIGHT) for k in range(1, n)]))
    mat = within_memory_bound(build_cost_matrix, chain)
    r = bk_accelerated(mat)
    assert r.sweeps == 2
    assert all(type(d) is int for d in r.distances)
    assert r.distances == tuple(MAX_WEIGHT * (n - 1 - k) for k in range(n))
    route = extract_route(mat, r.distances)
    assert route.nodes == tuple(range(1, n + 1))
    assert route.cost == MAX_WEIGHT * (n - 1)


def test_large_random_graph_matches_oracle():
    n, m = LARGE_N, 4 * LARGE_N
    rnd = random.Random(1)
    seen, arcs = set(), []
    while len(arcs) < m:
        i, j = rnd.randint(1, n), rnd.randint(1, n)
        if i != j and (i, j) not in seen:
            seen.add((i, j))
            arcs.append((i, j, rnd.randint(0, 100)))
    g = Graph(n, *zip(*arcs))
    mat = within_memory_bound(build_cost_matrix, g)
    expected = oracle_distances(g)
    assert sum(d != INF for d in expected) > n // 2  # most nodes reach the target
    assert bk_classic(mat).distances == bk_accelerated(mat).distances == expected


@given(graphs())
def test_accelerated_never_does_more_work(g):
    mat = build_cost_matrix(g)
    c = bk_classic(mat)
    a = bk_accelerated(mat)
    assert a.sweeps <= c.sweeps
    assert a.relaxations <= c.relaxations


@given(graphs())
def test_sweeps_never_exceed_node_count(g):
    assert bk_classic(build_cost_matrix(g)).sweeps <= g.n


@given(graphs())
def test_relaxation_accounting(g):
    per_sweep = (g.n - 1) * g.n
    for solve in (bk_classic, bk_accelerated):
        r = solve(build_cost_matrix(g))
        assert r.relaxations == r.sweeps * per_sweep


@given(graphs())
def test_first_node_matches_enumeration(g):
    assert bk_classic(build_cost_matrix(g)).distances[0] == brute_force_distance(g)


@given(graphs(max_n=6))
def test_sweep_k_covers_routes_of_k_arcs(g):
    trace = []
    bk_classic(build_cost_matrix(g), trace=trace)
    for k, vec in enumerate(trace, start=1):
        assert vec == bounded_distances(g, k)


@given(graphs(min_w=0))
def test_descent_is_monotone(g):
    # Every row is written at most once per pass, so comparing consecutive
    # snapshots also catches an entry that rose inside a pass.
    mat = build_cost_matrix(g)
    for solve in (bk_classic, bk_accelerated):
        trace = []
        solve(mat, trace=trace)
        start = tuple([INF] * (g.n - 1) + [0])
        for prev, cur in zip([start] + trace, trace):
            assert all(c <= p for c, p in zip(cur, prev))


@given(graphs(min_w=0))
def test_route_is_consistent_with_distances(g):
    mat = build_cost_matrix(g)
    d = bk_classic(mat).distances
    if d[0] == INF:
        with pytest.raises(NoRouteError):
            extract_route(mat, d)
        return
    route = extract_route(mat, d)
    assert route.nodes[0] == 1
    assert route.nodes[-1] == g.n
    assert len(set(route.nodes)) == len(route.nodes) <= g.n
    assert route.cost == d[0]
    lookup = {(i, j): w for i, j, w in arcs(g)}
    assert route.cost == sum(lookup[p] for p in zip(route.nodes, route.nodes[1:]))
