"""Micro-benchmarks of the matrix build and the two sweep kernels.

Run from the root of a source checkout:

    PYTHONPATH=src python -m pytest benchmarks -q

They need pytest-benchmark and are skipped without it. `testpaths` in
pyproject.toml keeps this directory out of a plain `pytest` run.
"""

from __future__ import annotations

import pytest

pytest.importorskip("pytest_benchmark")

from bkroute import RngStream, bk_accelerated, bk_classic, build_cost_matrix, draw_graph

# One sparse-route-shaped graph (n 50..90, m 100..400, about 4 arcs per
# row) and the densest table1 cell, n=90 with m=7800.
GRAPHS = {
    "sparse-n70-m250": draw_graph(70, 250, RngStream(7)),
    "dense-n90-m7800": draw_graph(90, 7800, RngStream(7)),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]


def test_build_cost_matrix(benchmark, graph):
    benchmark(build_cost_matrix, graph)


@pytest.mark.parametrize("solve", [bk_classic, bk_accelerated], ids=["classic", "accelerated"])
def test_solve(benchmark, graph, solve):
    mat = build_cost_matrix(graph)
    result = benchmark(solve, mat)
    assert result.distances[-1] == 0
