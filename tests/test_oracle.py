from __future__ import annotations

import pytest
from hypothesis import given

from bkroute import INF, Graph, oracle_distances
from helpers import (
    CHAIN,
    SizeLimitError,
    bounded_distances,
    brute_force_distance,
    graphs,
)


def test_oracle_chain():
    assert oracle_distances(CHAIN) == (3, 2, 1, 0)


def test_oracle_without_arcs():
    assert oracle_distances(Graph(3)) == (INF, INF, 0)


def test_oracle_arc_pointing_away_from_target():
    assert oracle_distances(Graph(2, *zip((2, 1, 5)))) == (INF, 0)


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


@given(graphs(max_n=7))
def test_oracle_agrees_with_enumeration(g):
    dist = oracle_distances(g)
    assert dist[g.n - 1] == 0
    assert dist[0] == brute_force_distance(g)
    # a budget of n-1 arcs covers every simple path
    assert bounded_distances(g, g.n - 1) == dist
