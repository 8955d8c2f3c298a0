"""The package's public surface is pinned: a name enters or leaves
`bkroute.__all__` only together with this list."""

from __future__ import annotations

import bkroute

PUBLIC_NAMES = [
    "BenchReport",
    "BenchRow",
    "ConvergenceError",
    "CorruptFileError",
    "CostMatrix",
    "GRIDS",
    "GenSpec",
    "Graph",
    "INF",
    "MAX_NODES",
    "MAX_WEIGHT",
    "MalformedGraphError",
    "NoRouteError",
    "REPORT_COLUMNS",
    "RngStream",
    "Route",
    "TABLE1_CELLS",
    "TABLE2_CELLS",
    "TimingPolicy",
    "UnsupportedFormatError",
    "aggregate_speedup",
    "bk_accelerated",
    "bk_classic",
    "build_cost_matrix",
    "derive_cell_seed",
    "draw_graph",
    "emit_table",
    "extract_route",
    "generate_set",
    "generate_set_detailed",
    "max_arcs",
    "oracle_distances",
    "range_label",
    "read_set",
    "run_grid",
    "time_solver",
    "verify_equivalence",
    "write_set",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(bkroute.__all__) == PUBLIC_NAMES
    assert len(set(bkroute.__all__)) == len(bkroute.__all__) == 38
    for name in PUBLIC_NAMES:
        assert hasattr(bkroute, name), name
