from __future__ import annotations

import csv
import io

import pytest

from bkroute import (
    GRIDS,
    REPORT_COLUMNS,
    TABLE1_CELLS,
    TABLE2_CELLS,
    BenchReport,
    BenchRow,
    ConvergenceError,
    GenSpec,
    Graph,
    TimingPolicy,
    aggregate_speedup,
    bk_classic,
    derive_cell_seed,
    emit_table,
    generate_set,
    range_label,
    run_grid,
    time_solver,
    verify_equivalence,
)
from helpers import CHAIN


@pytest.fixture(scope="module")
def table1_report():
    return run_grid("table1", 1, 3, TimingPolicy(1))


@pytest.fixture(scope="module")
def table2_report():
    return run_grid("table2", 1, 3, TimingPolicy(1))


def test_table1_cells():
    assert len(TABLE1_CELLS) == 45
    fixed = TABLE1_CELLS[:25]
    assert fixed[0] == ((10, 10), (10, 10))
    assert fixed[-1] == ((90, 90), (90, 90))
    ladder = TABLE1_CELLS[25:]
    assert [m1 for _, (m1, _) in ladder] == list(range(200, 7801, 400))
    assert all(nr == (90, 90) for nr, _ in ladder)
    assert all(m1 == m2 for _, (m1, m2) in TABLE1_CELLS)


def test_table2_cells():
    assert len(TABLE2_CELLS) == 33
    blocks = {}
    for nr, mr in TABLE2_CELLS:
        blocks.setdefault(nr, []).append(mr)
    order = [(10, 30), (30, 50), (50, 70), (70, 90)]
    assert list(blocks) == order
    assert [len(blocks[k]) for k in order] == [8, 8, 9, 8]
    assert blocks[(10, 30)][0] == (1, 100)
    assert (2001, 2501) in blocks[(50, 70)]
    assert blocks[(70, 90)][-1] == (7001, 8000)


def test_grid_registry():
    assert set(GRIDS) == {"table1", "table2"}
    assert GRIDS["table1"] is TABLE1_CELLS
    assert GRIDS["table2"] is TABLE2_CELLS


def test_derive_cell_seed_spreads():
    assert derive_cell_seed(7, 0) == derive_cell_seed(7, 0)
    seeds = {derive_cell_seed(7, i) for i in range(100)}
    seeds |= {derive_cell_seed(8, i) for i in range(100)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**64 for s in seeds)


def test_range_label():
    assert range_label(90, 90) == "90"
    assert range_label(10, 30) == "10-30"


def test_timing_policy_rejects_nonpositive_repeats():
    with pytest.raises(ValueError):
        TimingPolicy(0)


@pytest.mark.parametrize("repeats", [1.5, True])
def test_timing_policy_rejects_a_repeats_that_is_not_an_int(repeats):
    with pytest.raises(ValueError, match=f"^repeats must be an integer, got {repeats}$"):
        TimingPolicy(repeats)


def test_time_solver_chain_counters():
    t_classic = time_solver([CHAIN], "classic", TimingPolicy(2))
    t_accel = time_solver([CHAIN], "accelerated", TimingPolicy(2))
    assert t_classic.sweeps_total == 4
    assert t_accel.sweeps_total == 2
    assert t_classic.relaxations_total == 48
    assert t_accel.relaxations_total == 24
    assert t_classic.elapsed_ms > 0
    assert t_accel.elapsed_ms > 0


def test_time_solver_totals_accumulate():
    graphs = generate_set(GenSpec(5, 5, 6, 6, 8, 13))
    total = time_solver(graphs, "classic", TimingPolicy(1))
    singles = [time_solver([g], "classic", TimingPolicy(1)) for g in graphs]
    assert total.sweeps_total == sum(s.sweeps_total for s in singles)
    assert total.relaxations_total == sum(s.relaxations_total for s in singles)


def test_time_solver_rejects_bad_input():
    with pytest.raises(ValueError):
        time_solver([], "classic")
    with pytest.raises(ValueError):
        time_solver([CHAIN], "dijkstra")
    with pytest.raises(ValueError):
        time_solver([CHAIN], "classic", TimingPolicy(0))


def test_time_solver_names_the_failing_graph(monkeypatch):
    import bkroute.bench as bench_mod

    bad = Graph(2, *zip((1, 2, 7)))
    calls = []

    def boom(mat):  # only the 2nd of 3 matrices fails
        calls.append(mat.n)
        if mat.n == bad.n:
            raise ConvergenceError("synthetic failure")
        return bk_classic(mat)

    monkeypatch.setitem(bench_mod._SOLVERS, "classic", boom)
    with pytest.raises(ConvergenceError, match="^graph 2: synthetic failure$") as exc:
        time_solver([CHAIN, bad, CHAIN], "classic", TimingPolicy(1))
    assert isinstance(exc.value.__cause__, ConvergenceError)
    assert calls == [CHAIN.n, bad.n]  # no second pass to find the failing graph


def test_verify_equivalence_on_seeded_set():
    graphs = generate_set(GenSpec(2, 12, 1, 40, 40, 99))
    assert verify_equivalence(graphs) == ()


def test_verify_equivalence_rejects_an_empty_set():
    with pytest.raises(ValueError, match="^graph set is empty$"):
        verify_equivalence([])


def test_run_grid_table1_shape(table1_report):
    assert len(table1_report.rows) == 45
    assert all(r.mismatches == 0 for r in table1_report.rows)
    assert all(r.sweeps_accel_total <= r.sweeps_classic_total for r in table1_report.rows)
    assert all(
        r.relaxations_accel_total <= r.relaxations_classic_total
        for r in table1_report.rows
    )
    assert "grid=table1" in table1_report.spec_echo
    assert table1_report.rows[0].n_label == "10"
    assert table1_report.rows[-1].m_label == "7800"


def test_run_grid_table2_shape(table2_report):
    assert len(table2_report.rows) == 33
    assert all(r.mismatches == 0 for r in table2_report.rows)
    assert table2_report.rows[0].n_label == "10-30"
    assert table2_report.rows[0].m_label == "1-100"


def test_run_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_grid("table9", 1, 0)
    with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
        run_grid("table1", 0, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_grid_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=f"^seed must fit in 64 bits, got {seed}$"):
        run_grid("table2", 1, seed)


@pytest.mark.parametrize(
    "count,seed,message",
    [
        (1, 1.5, "seed must be an integer, got 1.5"),
        (1, True, "seed must be an integer, got True"),
        (1.5, 1, "count must be an integer, got 1.5"),
        (0, -1, "count must be >= 1, got 0"),
    ],
)
def test_run_grid_checks_count_and_seed_before_any_cell(monkeypatch, count, seed, message):
    import bkroute.bench as bench_mod

    def no_cell(spec):
        raise AssertionError(f"a cell was generated: {spec}")

    monkeypatch.setattr(bench_mod, "generate_set", no_cell)
    with pytest.raises(ValueError) as exc:
        run_grid("table2", count, seed)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_run_grid_accepts_the_64_bit_seed_bounds(seed):
    report = run_grid("table2", 1, seed, TimingPolicy(1))
    assert len(report.rows) == 33
    assert f"seed={seed} " in report.spec_echo


def _dummy_report():
    row = BenchRow("90", "90", 3410.0, 3190.0, 40, 30, 320400, 240300, 0)
    return BenchReport([row], "env-note", "echo")


def test_emit_csv_is_header_plus_rows():
    text = emit_table(_dummy_report(), "csv")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert text.endswith("\n")


def test_emit_csv_round_trips_every_counter(table1_report):
    text = emit_table(table1_report, "csv")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 45
    for got, row in zip(parsed, table1_report.rows):
        assert got["n"] == row.n_label
        assert got["m"] == row.m_label
        assert int(got["sweeps_classic"]) == row.sweeps_classic_total
        assert int(got["sweeps_accel"]) == row.sweeps_accel_total
        assert int(got["relaxations_classic"]) == row.relaxations_classic_total
        assert int(got["relaxations_accel"]) == row.relaxations_accel_total
        assert int(got["mismatches"]) == row.mismatches
        # times are printed in milliseconds at fixed precision
        assert got["t_BK"] == f"{row.t_classic_ms:.3f}"
        assert got["t_BKaccelerat"] == f"{row.t_accel_ms:.3f}"


def test_emit_markdown_layout(table1_report):
    text = emit_table(table1_report, "md")
    assert text.startswith("# ")
    assert "| n | m | t_BK | t_BKaccelerat |" in text
    # header, separator and one line per cell
    assert sum(1 for line in text.splitlines() if line.startswith("|")) == 47
    assert table1_report.environment in text
    assert table1_report.spec_echo in text


def test_emit_rejects_unknown_format():
    for format in ("html", "markdown"):
        with pytest.raises(ValueError, match="^unknown format"):
            emit_table(_dummy_report(), format)


def test_aggregate_speedup_reference_row():
    assert aggregate_speedup(_dummy_report()) == pytest.approx(6.4516, abs=1e-3)


def test_aggregate_speedup_simple_ratio():
    rep = BenchReport([BenchRow("2", "1", 100.0, 90.0, 1, 1, 1, 1, 0)], "", "")
    assert aggregate_speedup(rep) == pytest.approx(10.0)


def test_aggregate_speedup_equal_times_is_zero():
    rep = BenchReport([BenchRow("2", "1", 5.0, 5.0, 1, 1, 1, 1, 0)], "", "")
    assert aggregate_speedup(rep) == pytest.approx(0.0)


def test_aggregate_speedup_undefined_without_classic_time():
    rep = BenchReport([BenchRow("2", "1", 0.0, 0.0, 1, 1, 1, 1, 0)], "", "")
    assert aggregate_speedup(rep) is None
