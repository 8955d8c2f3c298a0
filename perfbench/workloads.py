"""The benchmark's workloads: what each one runs, and how its outputs are
checked.

Every workload has the same four steps. ``setup`` builds the inputs from the
seed, ``run`` is one timed unit of work, ``check`` judges that unit's outputs
(outside the clock) and ``check_inputs`` re-solves every input graph once,
independently of the workload's own path. Library functions are always
looked up as module attributes at call time, so that a traced run's
wrappers see the calls.

Why these workloads (also recorded in ``map.json``):

* ``table1`` is the paper's table: ``bench.run_grid`` exactly as
  ``bkroute table --grid table1`` runs it. It is the only workload with the
  dense n=90 ladder, where generation, the triple matrix build and the
  repeated solves dominate.
* ``sparse-route`` routes one prebuilt corpus of sparse graphs with long
  routes, one graph at a time. The solver dominates and the generator only
  runs in set-up, so kernel changes show here and generator changes must not.
* ``bkset-files`` runs the command line's generate, verify and bench on one
  dense BKSET file: the only workload that runs ``setfile`` and ``cli``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from bkroute import bench, cli, generator, graph, oracle, setfile, solver

COUNTERS = ("sweeps_classic", "sweeps_accel", "relaxations_classic", "relaxations_accel")

#: Work per timed unit. The recorded totals in expected.json hold for these.
SIZES = {
    "table1": {"count": 2},
    "sparse-route": {"graphs": 500},
    "bkset-files": {"count": 60},
}
#: The correctness pass on the holdout seed, run at the end of every run.
HOLDOUT_SIZES = {
    "table1": {"count": 1},
    "sparse-route": {"graphs": 100},
    "bkset-files": {"count": 4},
}
#: A seed no baseline uses; its totals are recorded for HOLDOUT_SIZES.
HOLDOUT_SEED = 2**63 + 7

SPARSE_N = (50, 90)
SPARSE_M = (100, 400)
BKSET_N = (70, 90)
BKSET_M = (1000, 8010)


@dataclass
class Outcome:
    """One unit's verdict: graphs attempted and failed, the exact counters
    summed once per distinct graph, and a digest of outputs that must repeat
    exactly for a seed."""

    graphs: int
    failed: int
    totals: dict[str, int]
    digest: str
    latencies: list[float] = field(default_factory=list)


def route_ok(mat: graph.CostMatrix, distances: tuple, route: solver.Route) -> bool:
    """The route runs 1 -> n over existing arcs, and both its stated cost
    and the sum of its arc weights equal distances[0]."""
    nodes = route.nodes
    if nodes[0] != 1 or nodes[-1] != mat.n or route.cost != distances[0]:
        return False
    return sum(mat.entry(i, j) for i, j in zip(nodes, nodes[1:])) == route.cost


def graph_ok(g: graph.Graph) -> bool:
    """Both orders agree with the oracle, and the route is consistent."""
    mat = graph.build_cost_matrix(g)
    d = solver.bk_classic(mat).distances
    if not d == solver.bk_accelerated(mat).distances == oracle.oracle_distances(g):
        return False
    return d[0] == graph.INF or route_ok(mat, d, solver.extract_route(mat, d))


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _row_ok(row: bench.BenchRow, n_fixed: int | None) -> bool:
    """Counter invariants of one report row."""
    if row.sweeps_accel_total > row.sweeps_classic_total:
        return False
    if n_fixed is None:
        return True
    per_sweep = (n_fixed - 1) * n_fixed
    return (
        row.relaxations_classic_total == row.sweeps_classic_total * per_sweep
        and row.relaxations_accel_total == row.sweeps_accel_total * per_sweep
    )


def _csv_matches(line: list[str], row: bench.BenchRow) -> bool:
    return line[:2] + line[4:] == [
        row.n_label, row.m_label,
        str(row.sweeps_classic_total), str(row.sweeps_accel_total),
        str(row.relaxations_classic_total), str(row.relaxations_accel_total),
        str(row.mismatches),
    ]


def _totals(row: bench.BenchRow) -> dict[str, int]:
    return dict(zip(COUNTERS, (
        row.sweeps_classic_total, row.sweeps_accel_total,
        row.relaxations_classic_total, row.relaxations_accel_total,
    )))


class Table1:
    name = "table1"

    def setup(self, seed: int, size: dict, workdir: Path) -> dict:
        return {"seed": seed, "count": size["count"]}

    def graphs_per_unit(self, state: dict) -> int:
        return len(bench.GRIDS["table1"]) * state["count"]

    def run(self, state: dict):
        report = bench.run_grid("table1", state["count"], state["seed"])
        return report, bench.emit_table(report, "csv")

    def check(self, state: dict, raw) -> Outcome:
        report, text = raw
        count = state["count"]
        cells = bench.GRIDS["table1"]
        lines = list(csv.reader(io.StringIO(text)))
        total = len(cells) * count
        totals = dict.fromkeys(COUNTERS, 0)
        if tuple(lines[0]) != bench.REPORT_COLUMNS or not len(lines) - 1 == len(report.rows) == len(cells):
            return Outcome(total, total, totals, "")
        failed = 0
        for ((n1, n2), _), row, line in zip(cells, report.rows, lines[1:]):
            if _csv_matches(line, row) and _row_ok(row, n1 if n1 == n2 else None):
                failed += row.mismatches
            else:
                failed += count
            for key, value in _totals(row).items():
                totals[key] += value
        # Timing columns vary from run to run; everything else must repeat.
        digest = _digest(",".join(line[:2] + line[4:]) for line in lines)
        return Outcome(total, failed, totals, digest)

    def check_inputs(self, state: dict) -> tuple[int, int]:
        attempted = failed = 0
        for ci, ((n1, n2), (m1, m2)) in enumerate(bench.GRIDS["table1"]):
            spec = generator.GenSpec(
                n1, n2, m1, m2, state["count"], bench.derive_cell_seed(state["seed"], ci)
            )
            for g in generator.generate_set(spec):
                attempted += 1
                failed += not graph_ok(g)
        return attempted, failed


class SparseRoute:
    name = "sparse-route"

    def setup(self, seed: int, size: dict, workdir: Path) -> dict:
        spec = generator.GenSpec(*SPARSE_N, *SPARSE_M, size["graphs"], seed)
        graphs = generator.generate_set(spec)
        return {"graphs": graphs, "expected": [oracle.oracle_distances(g) for g in graphs]}

    def graphs_per_unit(self, state: dict) -> int:
        return len(state["graphs"])

    def run(self, state: dict) -> list:
        """Route every graph; each graph's clock covers the library path only."""
        clock = time.perf_counter
        INF = graph.INF
        out = []
        for g, expected in zip(state["graphs"], state["expected"]):
            t0 = clock()
            mat = graph.build_cost_matrix(g)
            rc = solver.bk_classic(mat)
            ra = solver.bk_accelerated(mat)
            route = solver.extract_route(mat, rc.distances) if rc.distances[0] != INF else None
            elapsed = clock() - t0
            ok = rc.distances == ra.distances == expected and ra.sweeps <= rc.sweeps
            if route is not None:
                ok = ok and route_ok(mat, rc.distances, route)
            out.append((elapsed, ok, rc, ra, route))
        return out

    def check(self, state: dict, raw: list) -> Outcome:
        totals = dict.fromkeys(COUNTERS, 0)
        lines = []
        for _, _, rc, ra, route in raw:
            totals["sweeps_classic"] += rc.sweeps
            totals["sweeps_accel"] += ra.sweeps
            totals["relaxations_classic"] += rc.relaxations
            totals["relaxations_accel"] += ra.relaxations
            lines.append(f"{rc.distances}|{route.nodes if route else '-'}")
        failed = sum(not ok for _, ok, _, _, _ in raw)
        return Outcome(len(raw), failed, totals, _digest(lines), [r[0] for r in raw])

    def check_inputs(self, state: dict) -> tuple[int, int]:
        return 0, 0  # every unit already checks each graph against the oracle


class BksetFiles:
    name = "bkset-files"

    def setup(self, seed: int, size: dict, workdir: Path) -> dict:
        path = str(workdir / f"set-{seed}.bkset")
        n, m = (f"{lo}..{hi}" for lo, hi in (BKSET_N, BKSET_M))
        count = size["count"]
        return {
            "path": path,
            "count": count,
            "commands": (
                ["generate", "--n", n, "--m", m, "--count", str(count),
                 "--seed", str(seed), "--out", path],
                ["verify", "--in", path],
                ["bench", "--in", path, "--format", "csv"],
            ),
        }

    def graphs_per_unit(self, state: dict) -> int:
        return state["count"]

    def run(self, state: dict):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            codes = tuple(cli.main(argv) for argv in state["commands"])
        return codes, out.getvalue()

    def check(self, state: dict, raw) -> Outcome:
        codes, text = raw
        count = state["count"]
        with open(state["path"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        lines = text.splitlines()
        totals = dict.fromkeys(COUNTERS, 0)
        failed = count
        if (
            codes == (0, 0, 0)
            and len(lines) == 5
            and lines[0].startswith(f"wrote {count} graphs to ")
            and lines[2] == f"verified {count} graphs: 0 mismatches"
            and tuple(lines[3].split(",")) == bench.REPORT_COLUMNS
        ):
            cells = lines[4].split(",")
            labels = [bench.range_label(*BKSET_N), bench.range_label(*BKSET_M)]
            if len(cells) == len(bench.REPORT_COLUMNS) and cells[:2] == labels:
                row = bench.BenchRow(cells[0], cells[1], float(cells[2]), float(cells[3]),
                                     *map(int, cells[4:]))
                if _row_ok(row, None):
                    failed = row.mismatches
                totals = _totals(row)
        return Outcome(count, failed, totals, digest)

    def check_inputs(self, state: dict) -> tuple[int, int]:
        """Re-solve every graph of the file, and require that writing what
        was read reproduces the file byte for byte."""
        spec, graphs = setfile.read_set(state["path"])
        copy = state["path"] + ".copy"
        setfile.write_set(graphs, spec, copy)
        with open(state["path"], "rb") as a, open(copy, "rb") as b:
            same = a.read() == b.read()
        failed = sum(not graph_ok(g) for g in graphs)
        return len(graphs), len(graphs) if not same else failed


WORKLOADS = {w.name: w for w in (Table1(), SparseRoute(), BksetFiles())}
