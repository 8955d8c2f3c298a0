from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bkroute import INF, MAX_NODES, MAX_WEIGHT, Graph, oracle_distances
from helpers import (
    CHAIN,
    SizeLimitError,
    bounded_distances,
    brute_force_distance,
    graphs,
    large_record,
    within_memory_bound,
    zero_weight_cycles,
)


def test_oracle_chain():
    assert oracle_distances(CHAIN) == (3, 2, 1, 0)


def test_oracle_without_arcs():
    assert oracle_distances(Graph(3)) == (INF, INF, 0)


def test_oracle_arc_pointing_away_from_target():
    assert oracle_distances(Graph(2, *zip((2, 1, 5)))) == (INF, 0)


def test_oracle_chain_at_max_nodes_in_arc_order():
    # relaxing the arc list in order made one pass per node on this chain,
    # about 11 minutes at MAX_NODES; the bound leaves room for a slow host
    n = MAX_NODES
    chain = Graph(n, range(1, n), range(2, n + 1), [MAX_WEIGHT] * (n - 1))
    start = time.perf_counter()
    dist = oracle_distances(chain)
    assert time.perf_counter() - start < 5
    assert dist == tuple(MAX_WEIGHT * (n - k) for k in range(1, n + 1))


def test_oracle_holds_no_tuple_per_arc():
    # its in-arc index holds ints only, i, w, i, w, ...: the 10**5-arc record
    # peaked at 4.1 MiB traced, and at 8.6 MiB with an (i, w) tuple per arc
    within_memory_bound(oracle_distances, large_record(), peak=5 * 2**20)


def test_brute_force_chain():
    assert brute_force_distance(CHAIN) == 3


def test_brute_force_unreachable():
    assert brute_force_distance(Graph(2)) == INF


def test_size_guard():
    with pytest.raises(SizeLimitError):
        brute_force_distance(Graph(11))
    with pytest.raises(SizeLimitError):
        bounded_distances(Graph(11), 3)


def test_bounded_distances_by_arc_budget():
    # one arc only reaches the target via the expensive shortcut
    assert bounded_distances(CHAIN, 1) == (10, INF, 1, 0)
    assert bounded_distances(CHAIN, 2) == (10, 2, 1, 0)
    assert bounded_distances(CHAIN, 3) == (3, 2, 1, 0)
    assert bounded_distances(CHAIN, 4) == (3, 2, 1, 0)


def assert_agrees_with_enumeration(g: Graph) -> None:
    dist = oracle_distances(g)
    assert dist[g.n - 1] == 0
    assert dist[0] == brute_force_distance(g)
    # a budget of n-1 arcs covers every simple path
    assert bounded_distances(g, g.n - 1) == dist


@given(graphs(max_n=7))
def test_oracle_agrees_with_enumeration(g):
    assert_agrees_with_enumeration(g)


@pytest.mark.parametrize(
    "strategy",
    [
        graphs(max_n=7, min_w=0),
        graphs(max_n=7, min_w=MAX_WEIGHT - 2, max_w=MAX_WEIGHT),
        zero_weight_cycles(max_n=7),
    ],
    ids=["min_w=0", "near-MAX_WEIGHT", "zero-weight-cycle"],
)
@given(data=st.data())
def test_oracle_agrees_with_enumeration_at_every_weight(strategy, data):
    assert_agrees_with_enumeration(data.draw(strategy))
