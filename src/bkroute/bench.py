"""Benchmark harness: timed solver comparisons over graph sets, identity
verification against the oracle, and the two fixed measurement grids.

Timing methodology, also echoed in every report's environment note: the
timed region covers solver calls only, and the reported time is the
minimum over ``repeats`` runs of the whole set on the monotonic
``perf_counter_ns`` clock. The runs are gathered graph by graph: each
graph's cost matrix is built outside the clock, then solved ``repeats``
times back to back, each solve timed on its own and added to its run's
total. So a benchmark holds one matrix at a time besides the set's
Graphs, however many graphs the set has.

Hardware-independent work counters (sweeps, relaxations) accompany every
timing so results stay comparable across machines; wall-clock ratios are
reported, never asserted.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

from .generator import MAX_SEED, GenSpec, _check_int, generate_set
from .graph import Graph, build_cost_matrix
from .oracle import oracle_distances
from .solver import ConvergenceError, bk_accelerated, bk_classic

_SOLVERS = {"classic": bk_classic, "accelerated": bk_accelerated}

REPORT_COLUMNS = (
    "n",
    "m",
    "t_BK",
    "t_BKaccelerat",
    "sweeps_classic",
    "sweeps_accel",
    "relaxations_classic",
    "relaxations_accel",
    "mismatches",
)

_FIXED = (10, 30, 50, 70, 90)

#: 5x5 fixed cells plus the dense n=90 ladder (m = 200, 600, 1000, ..., 7800).
TABLE1_CELLS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    ((n, n), (m, m)) for n in _FIXED for m in _FIXED
) + tuple(((90, 90), (m, m)) for m in range(200, 7801, 400))

#: Interval cells: four n ranges, each with its own m ladder. The 2001..2501
#: bound in the 50-70 block is intentional.
_TABLE2_LADDERS = (
    ((10, 30), ((1, 100), (101, 200), (201, 300), (301, 400),
                (401, 500), (501, 600), (601, 700), (701, 800))),
    ((30, 50), ((1, 300), (301, 600), (601, 900), (901, 1200),
                (1201, 1500), (1501, 1800), (1801, 2100), (2101, 2400))),
    ((50, 70), ((1, 500), (501, 1000), (1001, 1500), (1501, 2000), (2001, 2501),
                (2501, 3000), (3001, 3500), (3501, 4000), (4001, 4500))),
    ((70, 90), ((1, 1000), (1001, 2000), (2001, 3000), (3001, 4000),
                (4001, 5000), (5001, 6000), (6001, 7000), (7001, 8000))),
)
TABLE2_CELLS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    (nr, mr) for nr, ladder in _TABLE2_LADDERS for mr in ladder
)

GRIDS = {"table1": TABLE1_CELLS, "table2": TABLE2_CELLS}

_SPEEDUP_NOTE = (
    "Reference best-case band for comparison: 10-15%. Wall-clock ratios are "
    "hardware-dependent; they are reported, never asserted."
)


def derive_cell_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for grid cell `index` (splitmix64 finalizer)."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MAX_SEED
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MAX_SEED
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MAX_SEED
    return x ^ (x >> 31)


def range_label(lo: int, hi: int) -> str:
    """Human-facing cell label: '90' for a fixed value, '10-30' for a range."""
    return str(lo) if lo == hi else f"{lo}-{hi}"


@dataclass(frozen=True)
class TimingPolicy:
    """Repeat the whole set `repeats` times and report the minimum."""

    repeats: int = 3

    def __post_init__(self) -> None:
        _check_int("repeats", self.repeats)
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True)
class MethodTiming:
    elapsed_ms: float
    sweeps_total: int
    relaxations_total: int


@dataclass(frozen=True)
class BenchRow:
    n_label: str
    m_label: str
    t_classic_ms: float
    t_accel_ms: float
    sweeps_classic_total: int
    sweeps_accel_total: int
    relaxations_classic_total: int
    relaxations_accel_total: int
    mismatches: int


@dataclass(frozen=True)
class BenchReport:
    rows: list[BenchRow]
    environment: str
    spec_echo: str


def environment_note(policy: TimingPolicy) -> str:
    return (
        f"host: {platform.platform()}; python {platform.python_version()}; "
        f"clock: perf_counter_ns; elapsed = min over {policy.repeats} repeat(s); "
        "timed region covers solver calls only (matrices prebuilt, no file I/O)"
    )


def time_solver(
    graphs: list[Graph], method: str, policy: TimingPolicy = TimingPolicy()
) -> MethodTiming:
    """Time one solver over a whole set.

    Each graph's matrix is built before its solves, which run back to back,
    one per repeat, each timed on its own. Repeat r's time is the sum of
    the graphs' r-th solves, and the elapsed time the least of these sums.
    Only one matrix is alive at a time. A solver failure is re-raised with
    the offending 1-based graph number attached.
    """
    if not graphs:
        raise ValueError("graph set is empty")
    if method not in _SOLVERS:
        raise ValueError(f"unknown method {method!r}")
    solve = _SOLVERS[method]
    totals_ns = [0] * policy.repeats
    sweeps = relaxations = 0
    for gi, g in enumerate(graphs, start=1):
        mat = build_cost_matrix(g)
        try:
            for r in range(policy.repeats):
                t0 = time.perf_counter_ns()
                result = solve(mat)
                totals_ns[r] += time.perf_counter_ns() - t0
        except ConvergenceError as exc:
            raise ConvergenceError(f"graph {gi}: {exc}") from exc
        del mat  # before the next graph's matrix is built
        sweeps += result.sweeps
        relaxations += result.relaxations
    return MethodTiming(min(totals_ns) / 1e6, sweeps, relaxations)


def verify_equivalence(graphs: list[Graph]) -> tuple[int, ...]:
    """Check classic == accelerated == oracle distances on every graph,
    holding one graph's matrix at a time.

    Returns the 1-based numbers of the graphs where they differ, so an
    empty tuple means the whole set agrees.
    """
    if not graphs:
        raise ValueError("graph set is empty")
    mismatched = []
    for gi, g in enumerate(graphs, start=1):
        mat = build_cost_matrix(g)
        if not (
            bk_classic(mat).distances
            == bk_accelerated(mat).distances
            == oracle_distances(g)
        ):
            mismatched.append(gi)
        del mat  # before the next graph's matrix is built
    return tuple(mismatched)


def bench_cell(spec: GenSpec, graphs: list[Graph], policy: TimingPolicy) -> BenchRow:
    """Verify and time one set, labelled by the n and m bounds of its spec."""
    mismatches = len(verify_equivalence(graphs))
    tc = time_solver(graphs, "classic", policy)
    ta = time_solver(graphs, "accelerated", policy)
    return BenchRow(
        range_label(spec.n1, spec.n2),
        range_label(spec.m1, spec.m2),
        tc.elapsed_ms,
        ta.elapsed_ms,
        tc.sweeps_total,
        ta.sweeps_total,
        tc.relaxations_total,
        ta.relaxations_total,
        mismatches,
    )


def run_grid(
    grid: str, count: int, seed: int, policy: TimingPolicy = TimingPolicy()
) -> BenchReport:
    """Generate, verify, and time every cell of a named grid.

    Each cell gets its own sub-seed derived from (seed, cell index), so
    one master seed pins the whole report.
    """
    if grid not in GRIDS:
        raise ValueError(f"unknown grid {grid!r}; expected one of {sorted(GRIDS)}")
    (n1, n2), (m1, m2) = GRIDS[grid][0]
    GenSpec(n1, n2, m1, m2, count, seed).validate()  # cell specs get derived seeds
    rows = []
    for ci, ((n1, n2), (m1, m2)) in enumerate(GRIDS[grid]):
        spec = GenSpec(n1, n2, m1, m2, count, derive_cell_seed(seed, ci))
        rows.append(bench_cell(spec, generate_set(spec), policy))
    return BenchReport(
        rows,
        environment_note(policy),
        f"grid={grid} count={count} seed={seed} repeats={policy.repeats}",
    )


def _row_values(r: BenchRow) -> tuple[str, ...]:
    return (
        r.n_label,
        r.m_label,
        f"{r.t_classic_ms:.3f}",
        f"{r.t_accel_ms:.3f}",
        str(r.sweeps_classic_total),
        str(r.sweeps_accel_total),
        str(r.relaxations_classic_total),
        str(r.relaxations_accel_total),
        str(r.mismatches),
    )


def emit_table(report: BenchReport, format: str = "md") -> str:
    """Render a whole report as markdown ("md") or as plain parseable CSV.

    Markdown holds the settings, the environment note, the table and, when
    it is defined, the speedup summary. CSV output is exactly one header
    line plus one line per row (LF endings, comma separators).
    """
    if format == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        lines.extend(",".join(_row_values(r)) for r in report.rows)
        return "\n".join(lines) + "\n"
    if format != "md":
        raise ValueError(f"unknown format {format!r}")
    lines = [
        "# Shortest-route solver benchmark",
        "",
        f"- settings: {report.spec_echo}",
        f"- environment: {report.environment}",
        "",
        "| " + " | ".join(REPORT_COLUMNS) + " |",
        "|" + "|".join("---" for _ in REPORT_COLUMNS) + "|",
    ]
    lines.extend("| " + " | ".join(_row_values(r)) + " |" for r in report.rows)
    for line in speedup_summary(report):
        lines += ["", line]
    return "\n".join(lines) + "\n"


def aggregate_speedup(report: BenchReport) -> float | None:
    """Whole-report speedup percentage, 100 * (1 - sum(t_accel) / sum(t_classic)),
    or None when the classic total time is zero and the ratio is undefined."""
    total_classic = sum(r.t_classic_ms for r in report.rows)
    total_accel = sum(r.t_accel_ms for r in report.rows)
    if total_classic <= 0:
        return None
    return 100.0 * (1.0 - total_accel / total_classic)


def speedup_summary(report: BenchReport) -> tuple[str, ...]:
    """The aggregate speedup line and the reference-band note, or () when
    the speedup is undefined."""
    pct = aggregate_speedup(report)
    if pct is None:
        return ()
    line = f"Aggregate speedup (total t_BK vs total t_BKaccelerat): {pct:.2f}%"
    return line, _SPEEDUP_NOTE
