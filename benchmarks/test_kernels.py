"""Micro-benchmarks of graph generation, graph construction (where the arc
rules are checked), the matrix build, the two sweep kernels, route extraction and the
BKSET reader and writer.

Run from the root of a source checkout:

    PYTHONPATH=src python -m pytest benchmarks -q

They need pytest-benchmark and are skipped without it. `testpaths` in
pyproject.toml keeps this directory out of a plain `pytest` run.
"""

from __future__ import annotations

import pytest

pytest.importorskip("pytest_benchmark")

from bkroute import (
    GenSpec,
    Graph,
    RngStream,
    bk_accelerated,
    bk_classic,
    build_cost_matrix,
    draw_graph,
    extract_route,
    generate_set,
    read_set,
    write_set,
)


# One sparse-route-shaped graph (n 50..90, m 100..400, about 4 arcs per
# row), the densest table1 cell, n=90 with m=7800, and the same sparsity
# at the n that MAX_WEIGHT is sized for.
GRAPHS = {
    "sparse-n70-m250": draw_graph(70, 250, RngStream(7)),
    "dense-n90-m7800": draw_graph(90, 7800, RngStream(7)),
    "sparse-n10000-m40000": draw_graph(10**4, 4 * 10**4, RngStream(7)),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]


def test_graph_construction(benchmark, graph):
    benchmark(Graph, graph.n, graph.src, graph.dst, graph.wt)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_draw_graph(benchmark, name):
    g = GRAPHS[name]
    drawn = benchmark(lambda: draw_graph(g.n, g.m, RngStream(7)))
    assert drawn == g


def test_build_cost_matrix(benchmark, graph):
    benchmark(build_cost_matrix, graph)


@pytest.mark.parametrize("solve", [bk_classic, bk_accelerated], ids=["classic", "accelerated"])
def test_solve(benchmark, graph, solve):
    mat = build_cost_matrix(graph)
    result = benchmark(solve, mat)
    assert result.distances[-1] == 0


def test_extract_route(benchmark, graph):
    mat = build_cost_matrix(graph)
    distances = bk_classic(mat).distances
    route = benchmark(extract_route, mat, distances)
    assert route.cost == distances[0]


#: A bkset-files-shaped set: n 70..90, m 1000..8010, 10 graphs (about
#: 0.3 MB of BKSET text).
BKSET_SPEC = GenSpec(70, 90, 1000, 8010, 10, 7)


@pytest.fixture(scope="module")
def bkset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bkset") / "set.bkset"
    write_set(generate_set(BKSET_SPEC), BKSET_SPEC, path)
    return path


def test_read_set(benchmark, bkset_file):
    spec, graphs = benchmark(read_set, bkset_file)
    assert spec == BKSET_SPEC and len(graphs) == BKSET_SPEC.count


def test_write_set(benchmark, bkset_file, tmp_path):
    spec, graphs = read_set(bkset_file)
    dest = tmp_path / "copy.bkset"
    benchmark(write_set, graphs, spec, dest)
    assert dest.read_bytes() == bkset_file.read_bytes()
