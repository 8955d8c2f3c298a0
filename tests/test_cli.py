from __future__ import annotations

import dataclasses
import itertools
import subprocess
import sys

import pytest

import bkroute.bench
from bkroute.cli import main, parse_range


def test_parse_range_forms():
    assert parse_range("10..30") == (10, 30)
    assert parse_range("7") == (7, 7)
    with pytest.raises(ValueError):
        parse_range("10..x")
    with pytest.raises(ValueError):
        parse_range("")


def test_generate_is_byte_deterministic(tmp_path, capsys):
    args = ["generate", "--n", "2..6", "--m", "1..10", "--count", "20", "--seed", "5"]
    p1 = tmp_path / "a.bkset"
    p2 = tmp_path / "b.bkset"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    out = capsys.readouterr().out
    assert "wrote 20 graphs" in out
    assert "m clamped on" in out


def test_generate_rejects_inverted_bounds(tmp_path, capsys):
    rc = main(
        ["generate", "--n", "30..10", "--m", "1..2", "--count", "1",
         "--seed", "0", "--out", str(tmp_path / "x.bkset")]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_generate_rejects_weight_max_above_the_graph_bound(tmp_path, capsys):
    out = tmp_path / "x.bkset"
    rc = main(
        ["generate", "--n", "3..3", "--m", "2..2", "--count", "1", "--seed", "1",
         "--weight-max", str(2**40), "--out", str(out)]
    )
    assert rc == 2
    assert "weight_max" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_a_node_bound_above_max_nodes(tmp_path, capsys):
    out = tmp_path / "x.bkset"
    rc = main(
        ["generate", "--n", "2..100001", "--m", "1..2", "--count", "1", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 2
    assert "n2 must be at most 100000, got 100001" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_range_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            ["generate", "--n", "10-30", "--m", "1..2", "--count", "1",
             "--seed", "0", "--out", str(tmp_path / "x.bkset")]
        )
    assert exc.value.code == 2


def test_verify_prints_sample_and_tally(tmp_path, capsys):
    path = tmp_path / "chain.bkset"
    path.write_text(
        "BKSET 1\nSPEC 4 4 4 4 0 100\nCOUNT 1\n"
        "G 4 4\n1 2 1\n2 3 1\n3 4 1\n1 4 10\n"
    )
    assert main(["verify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(3, 2, 1, 0)" in out
    assert "verified 1 graphs: 0 mismatches" in out


def test_verify_prints_at_most_ten_sample_distances(tmp_path, capsys):
    path = tmp_path / "wide.bkset"
    path.write_text("BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 100000 0\n")
    assert main(["verify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 300
    assert out.splitlines() == [
        "sample: graph 1 distances = (" + "inf, " * 10 + "...)",
        "verified 1 graphs: 0 mismatches",
    ]


def test_verify_reports_the_mismatched_graphs(tmp_path, capsys, monkeypatch):
    path = tmp_path / "three.bkset"
    path.write_text(
        "BKSET 1\nSPEC 2 4 1 3 0 100\nCOUNT 3\n"
        "G 2 1\n1 2 5\nG 3 2\n1 2 1\n2 3 1\nG 4 3\n1 2 1\n2 3 1\n3 4 1\n"
    )
    solve = bkroute.bench.bk_accelerated

    def perturbed(mat):  # graph 2 is the only one with 3 nodes
        result = solve(mat)
        if mat.n == 3:  # the target's distance is 0 in every true solution
            return dataclasses.replace(result, distances=result.distances[:-1] + (1,))
        return result

    monkeypatch.setattr(bkroute.bench, "bk_accelerated", perturbed)
    assert main(["verify", "--in", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "verified 3 graphs: 1 mismatches at graphs [2]"
    )


def test_verify_names_the_graph_that_fails_to_converge(tmp_path, capsys, monkeypatch):
    path = tmp_path / "three.bkset"
    path.write_text(
        "BKSET 1\nSPEC 2 4 1 3 0 100\nCOUNT 3\n"
        "G 2 1\n1 2 5\nG 3 2\n1 2 1\n2 3 1\nG 4 3\n1 2 1\n2 3 1\n3 4 1\n"
    )
    solve = bkroute.bench.bk_classic

    def boom(mat):  # graph 2 is the only one with 3 nodes
        if mat.n == 3:
            raise bkroute.bench.ConvergenceError("synthetic failure")
        return solve(mat)

    monkeypatch.setattr(bkroute.bench, "bk_classic", boom)
    assert main(["verify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: graph 2: synthetic failure\n"
    assert captured.out == ""


def test_verify_empty_set_passes(tmp_path, capsys):
    path = tmp_path / "empty.bkset"
    path.write_text("BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 0\n")
    assert main(["verify", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "verified 0 graphs: 0 mismatches\n"


def test_verify_corrupt_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "bad.bkset"
    path.write_text("BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 2 1\n1 1 7\n")
    assert main(["verify", "--in", str(path)]) == 1
    assert "loop" in capsys.readouterr().err


def test_verify_unterminated_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "cut.bkset"
    path.write_text("BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 2 1\n2 1 15")
    assert main(["verify", "--in", str(path)]) == 1
    assert "final line feed is missing" in capsys.readouterr().err


def test_verify_missing_file_is_a_data_error(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path / "none.bkset")]) == 1
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize(
    "data,msg",
    [
        (b"BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 2 1\n1 2 \xff\n", "line 5 is not UTF-8"),
        ("BKSET 1\n".encode("utf-16"), "not a BKSET file"),
    ],
    ids=["bad-arc-byte", "utf-16"],
)
def test_non_utf8_file_is_a_data_error(tmp_path, capsys, command, data, msg):
    path = tmp_path / "binary.bkset"
    path.write_bytes(data)
    assert main([command, "--in", str(path)]) == 1
    assert msg in capsys.readouterr().err


def test_a_long_version_token_is_a_data_error(tmp_path, capsys):
    # the reader quotes the token up to a bound that cuts a character here
    path = tmp_path / "long.bkset"
    path.write_bytes(b"BKSET " + "\u20ac".encode() * 30000 + b"\n")
    assert main(["verify", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: unsupported BKSET version '\u20ac")


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_a_record_claiming_too_many_nodes_is_a_data_error(tmp_path, capsys, command):
    path = tmp_path / "huge.bkset"
    path.write_text("BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 1000000 0\n")
    assert main([command, "--in", str(path)]) == 1
    assert "error: graph 1, node count must be at most 100000" in capsys.readouterr().err


@pytest.fixture()
def small_set(tmp_path):
    path = tmp_path / "s.bkset"
    rc = main(
        ["generate", "--n", "2..6", "--m", "1..12", "--count", "15",
         "--seed", "21", "--out", str(path)]
    )
    assert rc == 0
    return path


def test_bench_markdown_output(small_set, capsys):
    assert main(["bench", "--in", str(small_set), "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    assert "| n | m | t_BK | t_BKaccelerat |" in out
    assert "Aggregate speedup" in out


def test_bench_csv_stdout_stays_machine_readable(small_set, capsys):
    assert main(["bench", "--in", str(small_set), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["n"] == "2-6"
    assert row["mismatches"] == "0"
    assert int(row["relaxations_accel"]) <= int(row["relaxations_classic"])
    # the speedup note must not pollute the CSV stream
    assert "Aggregate speedup" not in captured.out
    assert "Aggregate speedup" in captured.err


def test_bench_without_a_defined_speedup_prints_only_the_table(
    small_set, capsys, monkeypatch
):
    monkeypatch.setattr(bkroute.bench, "aggregate_speedup", lambda report: None)
    assert main(["bench", "--in", str(small_set), "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert "| n | m | t_BK | t_BKaccelerat |" in out
    assert "Aggregate speedup" not in out
    assert main(["bench", "--in", str(small_set), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert captured.err == ""


def test_bench_writes_report_file(small_set, tmp_path, capsys):
    dest = tmp_path / "report.md"
    assert main(["bench", "--in", str(small_set), "--out", str(dest)]) == 0
    text = dest.read_text()
    assert text.startswith("# ")
    assert "Aggregate speedup" in text
    assert "wrote report to" in capsys.readouterr().out


_GOLDEN_TABLE = (
    "| n | m | t_BK | t_BKaccelerat | sweeps_classic | sweeps_accel "
    "| relaxations_classic | relaxations_accel | mismatches |\n"
    "|---|---|---|---|---|---|---|---|---|\n"
    "| 2-6 | 1-12 | 13.350 | 4.350 | 34 | 32 | 492 | 456 | 0 |\n"
)
_GOLDEN_SPEEDUP = (
    "Aggregate speedup (total t_BK vs total t_BKaccelerat): 67.42%\n",
    "Reference best-case band for comparison: 10-15%. Wall-clock ratios are "
    "hardware-dependent; they are reported, never asserted.\n",
)


def test_bench_report_is_byte_exact(small_set, tmp_path, capsys, monkeypatch):
    """The whole report, with the clock and the host fixed."""
    monkeypatch.setattr(bkroute.bench.platform, "platform", lambda: "TestOS-1.0")
    monkeypatch.setattr(bkroute.bench.platform, "python_version", lambda: "3.99.0")

    def bench(*extra):
        # two reads per solve, 15 graphs x 2 repeats x 2 solvers: every
        # solve looks 20 us faster than the one before it, so each graph's
        # second repeat beats its first and the second repeats win the minimum
        steps = itertools.count(1_200_000, -10_000)
        now = 0

        def perf_counter_ns():
            nonlocal now
            now += next(steps)
            return now

        monkeypatch.setattr(bkroute.bench.time, "perf_counter_ns", perf_counter_ns)
        assert main(["bench", "--in", str(small_set), "--repeats", "2", *extra]) == 0
        return capsys.readouterr()

    markdown = (
        "# Shortest-route solver benchmark\n\n"
        f"- settings: set={small_set} count=15 seed=21\n"
        "- environment: host: TestOS-1.0; python 3.99.0; clock: perf_counter_ns; "
        "elapsed = min over 2 repeat(s); timed region covers solver calls only "
        "(matrices prebuilt, no file I/O)\n\n"
        + _GOLDEN_TABLE + "\n" + _GOLDEN_SPEEDUP[0] + "\n" + _GOLDEN_SPEEDUP[1]
    )
    md = bench("--format", "md")
    assert (md.out, md.err) == (markdown, "")
    csv = bench("--format", "csv")
    assert csv.out == (
        "n,m,t_BK,t_BKaccelerat,sweeps_classic,sweeps_accel,relaxations_classic,"
        "relaxations_accel,mismatches\n2-6,1-12,13.350,4.350,34,32,492,456,0\n"
    )
    assert csv.err == "".join(_GOLDEN_SPEEDUP)
    dest = tmp_path / "report.md"
    written = bench("--out", str(dest))
    assert (written.out, written.err) == (f"wrote report to {dest}\n", "")
    assert dest.read_bytes() == markdown.encode()


def test_bench_empty_set_is_rejected(tmp_path, capsys):
    path = tmp_path / "empty.bkset"
    path.write_text("BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 0\n")
    assert main(["bench", "--in", str(path)]) == 1
    assert "empty" in capsys.readouterr().err


def test_table_runs_a_whole_grid(capsys):
    rc = main(
        ["table", "--grid", "table2", "--count", "1", "--seed", "1",
         "--repeats", "1", "--format", "csv"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 34
    assert "Aggregate speedup" in captured.err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_table_rejects_a_seed_outside_64_bits(seed, capsys):
    assert main(["table", "--grid", "table2", "--count", "1", "--seed", seed]) == 2
    assert "seed must fit in 64 bits" in capsys.readouterr().err


def test_table_rejects_unknown_grid():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--grid", "table9", "--count", "1", "--seed", "1"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.bkset"
    proc = subprocess.run(
        [sys.executable, "-m", "bkroute", "generate", "--n", "2..3",
         "--m", "1..2", "--count", "2", "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote 2 graphs" in proc.stdout
