"""Shortest-route solving on the min-plus semiring: cost-matrix iteration
in classic (simultaneous) and accelerated (in-place, bottom-up) sweep
orders over a per-row table of finite costs, plus a seeded graph
generator, a bit-exact set file format, and a benchmark harness with
fixed measurement grids."""

from .bench import (
    GRIDS,
    REPORT_COLUMNS,
    TABLE1_CELLS,
    TABLE2_CELLS,
    BenchReport,
    BenchRow,
    TimingPolicy,
    aggregate_speedup,
    derive_cell_seed,
    emit_table,
    range_label,
    run_grid,
    time_solver,
    verify_equivalence,
)
from .generator import (
    GenSpec,
    RngStream,
    draw_graph,
    generate_set,
    generate_set_detailed,
)
from .graph import (
    INF,
    MAX_NODES,
    MAX_WEIGHT,
    CostMatrix,
    Graph,
    MalformedGraphError,
    build_cost_matrix,
    max_arcs,
)
from .oracle import oracle_distances
from .setfile import CorruptFileError, UnsupportedFormatError, read_set, write_set
from .solver import (
    ConvergenceError,
    NoRouteError,
    Route,
    bk_accelerated,
    bk_classic,
    extract_route,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "MAX_NODES",
    "MAX_WEIGHT",
    "BenchReport",
    "BenchRow",
    "ConvergenceError",
    "CorruptFileError",
    "CostMatrix",
    "GenSpec",
    "Graph",
    "GRIDS",
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
