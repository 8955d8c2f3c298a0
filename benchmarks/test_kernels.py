"""Micro-benchmarks of graph generation, graph construction (where the arc
rules are checked), the matrix build, the two sweep kernels (also on long
sparse and dense chains), route extraction, the BKSET reader and writer and
the timed solves of a whole set.

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
    TimingPolicy,
    bk_accelerated,
    bk_classic,
    build_cost_matrix,
    draw_graph,
    extract_route,
    generate_set,
    read_set,
    time_solver,
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


#: Solved only: GRAPHS plus the README's chain 1 -> 2 -> ... -> 3000, on
#: which the classic order needs one pass per arc, and a dense chain
#: 1 -> 2 -> ... -> 2000 that also has an arc of weight 10**6 from each node
#: back to each of the 8 before it (over 8n arcs), on which the classic
#: order switches to candidate passes after the full ones.
SOLVED = {
    **GRAPHS,
    "chain-n3000": Graph(3000, tuple(range(1, 3000)), tuple(range(2, 3001)), (1,) * 2999),
    "dense-chain-n2000": Graph(
        2000,
        *zip(
            *((k, k + 1, 1) for k in range(1, 2000)),
            *((k, b, 10**6) for k in range(1, 2001) for b in range(max(1, k - 8), k)),
        ),
    ),
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
@pytest.mark.parametrize("name", sorted(SOLVED))
def test_solve(benchmark, name, solve):
    mat = build_cost_matrix(SOLVED[name])
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


def test_read_set_large_record(benchmark, tmp_path):
    # one record of 40000 arcs (0.5 MB), which a read parses in slices of
    # lines into the record's columns
    g = GRAPHS["sparse-n10000-m40000"]
    path = tmp_path / "large.bkset"
    write_set([g], BKSET_SPEC, path)
    _, graphs = benchmark(read_set, path)
    assert graphs == [g]


def test_write_set(benchmark, bkset_file, tmp_path):
    spec, graphs = read_set(bkset_file)
    dest = tmp_path / "copy.bkset"
    benchmark(write_set, graphs, spec, dest)
    assert dest.read_bytes() == bkset_file.read_bytes()


def test_write_set_large_record(benchmark, tmp_path):
    # the same record, which a write formats in slices of lines
    g = GRAPHS["sparse-n10000-m40000"]
    path = tmp_path / "large.bkset"
    benchmark(write_set, [g], BKSET_SPEC, path)
    assert read_set(path)[1] == [g]


@pytest.mark.parametrize(
    "method,solve",
    [("classic", bk_classic), ("accelerated", bk_accelerated)],
    ids=["classic", "accelerated"],
)
def test_time_solver(benchmark, method, solve):
    # each graph's matrix built once, then solved with a clock read around
    # the solve, as `bkroute bench` times a set
    graphs = generate_set(BKSET_SPEC)
    timing = benchmark(time_solver, graphs, method, TimingPolicy(1))
    assert timing.sweeps_total == sum(solve(build_cost_matrix(g)).sweeps for g in graphs)
