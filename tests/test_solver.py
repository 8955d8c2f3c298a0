from __future__ import annotations

import pytest
from hypothesis import given

from bkroute import (
    INF,
    ConvergenceError,
    Graph,
    NoRouteError,
    bk_accelerated,
    bk_classic,
    bounded_distances,
    brute_force_distance,
    build_cost_matrix,
    extract_route,
    oracle_distances,
)
from bkroute.graph import CostMatrix
from helpers import CHAIN, graphs

CHAIN_MAT = build_cost_matrix(CHAIN)


class TestChainExample:
    def test_classic(self):
        r = bk_classic(CHAIN_MAT)
        assert r.distances == (3, 2, 1, 0)
        assert r.sweeps == 4  # three productive passes plus the confirming one
        assert r.relaxations == 48  # 4 sweeps * 3 rows * 4 terms
        assert r.method == "classic"

    def test_classic_sweep_sequence(self):
        trace = []
        bk_classic(CHAIN_MAT, trace=trace)
        assert trace == [(10, INF, 1, 0), (10, 2, 1, 0), (3, 2, 1, 0), (3, 2, 1, 0)]

    def test_accelerated(self):
        r = bk_accelerated(CHAIN_MAT)
        assert r.distances == (3, 2, 1, 0)
        assert r.sweeps == 2  # one productive pass plus the confirming one
        assert r.relaxations == 24
        assert r.method == "accelerated"

    def test_accelerated_sweep_sequence(self):
        trace = []
        bk_accelerated(CHAIN_MAT, trace=trace)
        assert trace == [(3, 2, 1, 0), (3, 2, 1, 0)]

    def test_route(self):
        route = extract_route(CHAIN_MAT, bk_classic(CHAIN_MAT).distances)
        assert route.nodes == (1, 2, 3, 4)
        assert route.cost == 3


def test_two_nodes_single_arc():
    mat = build_cost_matrix(Graph(2, [(1, 2, 7)]))
    for solve in (bk_classic, bk_accelerated):
        r = solve(mat)
        assert r.distances == (7, 0)
        assert r.sweeps == 2  # the first pass finds the arc, the second confirms
        assert r.relaxations == 4
    route = extract_route(mat, bk_classic(mat).distances)
    assert route.nodes == (1, 2)
    assert route.cost == 7


def test_no_arcs_settles_in_one_sweep():
    mat = build_cost_matrix(Graph(3, []))
    for solve in (bk_classic, bk_accelerated):
        r = solve(mat)
        assert r.distances == (INF, INF, 0)
        assert r.sweeps == 1
        assert r.relaxations == 6


def test_complete_three_node_graph():
    g = Graph(3, [(i, j, 1) for i in range(1, 4) for j in range(1, 4) if i != j])
    mat = build_cost_matrix(g)
    r = bk_classic(mat)
    assert r.distances == (1, 1, 0)
    route = extract_route(mat, r.distances)
    assert route.nodes == (1, 3)
    assert route.cost == 1


def test_route_tie_break_prefers_smallest_successor():
    g = Graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
    mat = build_cost_matrix(g)
    d = bk_classic(mat).distances
    assert d == (2, 1, 0)
    # both continuations are optimal; node 2 wins over node 3
    assert extract_route(mat, d).nodes == (1, 2, 3)


def test_route_backs_out_of_a_zero_weight_cycle():
    # 1 -> 2 is tight (0 + 5 == 5) but leads only back to node 1
    mat = build_cost_matrix(Graph(3, [(1, 2, 0), (2, 1, 0), (1, 3, 5)]))
    d = bk_classic(mat).distances
    assert d == (5, 5, 0)
    route = extract_route(mat, d)
    assert route.nodes == (1, 3)
    assert route.cost == 5


def test_route_requires_reachability():
    mat = build_cost_matrix(Graph(2, []))
    with pytest.raises(NoRouteError):
        extract_route(mat, bk_classic(mat).distances)


def test_route_rejects_a_non_fixed_point():
    with pytest.raises(ValueError, match="fixed point"):
        extract_route(CHAIN_MAT, (5, 2, 1, 0))


def test_divergent_matrix_is_detected():
    # a negative two-cycle with a path to the target never settles
    rows = [[0, -5, 0], [1, 0, 0], [INF, INF, 0]]
    for solve in (bk_classic, bk_accelerated):
        with pytest.raises(ConvergenceError, match="fixed point"):
            solve(CostMatrix(3, [list(r) for r in rows]))


@given(graphs(min_w=0))
def test_methods_and_oracle_agree(g):
    mat = build_cost_matrix(g)
    c = bk_classic(mat)
    a = bk_accelerated(mat)
    assert c.distances == a.distances == oracle_distances(g)


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
    lookup = {(a.i, a.j): a.w for a in g.arcs}
    assert route.cost == sum(lookup[p] for p in zip(route.nodes, route.nodes[1:]))
