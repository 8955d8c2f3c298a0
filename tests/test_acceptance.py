"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``) before asserting. The shared corpus is both
benchmark grids at 10 graphs per cell, seeded per cell from one master seed.
"""

from __future__ import annotations

import time
from statistics import mean

import pytest

from bkroute import (
    GRIDS,
    GenSpec,
    bk_accelerated,
    bk_classic,
    build_cost_matrix,
    derive_cell_seed,
    extract_route,
    generate_set,
    oracle_distances,
    read_set,
    write_set,
)
from bkroute.cli import main
from helpers import CHAIN, brute_force_distance

SEED = 7
COUNT_PER_CELL = 10


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def corpus():
    cells = list(GRIDS["table1"]) + list(GRIDS["table2"])
    out = []
    for ci, ((n1, n2), (m1, m2)) in enumerate(cells):
        spec = GenSpec(n1, n2, m1, m2, COUNT_PER_CELL, derive_cell_seed(SEED, ci))
        out.append((spec, generate_set(spec)))
    return out


@pytest.fixture(scope="module")
def solved(corpus):
    graphs = [g for _, cell in corpus for g in cell]
    t0 = time.perf_counter()
    results = [
        (g, bk_classic(build_cost_matrix(g)), bk_accelerated(build_cost_matrix(g)))
        for g in graphs
    ]
    return results, time.perf_counter() - t0


def test_criterion_1_methods_agree(solved):
    results, elapsed = solved
    mismatches = sum(1 for _, c, a in results if c.distances != a.distances)
    ok = mismatches == 0 and elapsed < 10.0
    _report(1, ok, f"{len(results)} graphs, {mismatches} mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_oracle_agreement(solved):
    results, _ = solved
    t0 = time.perf_counter()
    oracle_bad = sum(1 for g, c, _ in results if c.distances != oracle_distances(g))
    small = generate_set(GenSpec(2, 8, 1, 56, 500, SEED))
    brute_bad = 0
    for g in small:
        mat = build_cost_matrix(g)
        expected = brute_force_distance(g)
        if (bk_classic(mat).distances[0] != expected
                or bk_accelerated(mat).distances[0] != expected):
            brute_bad += 1
    elapsed = time.perf_counter() - t0
    ok = oracle_bad == 0 and brute_bad == 0 and elapsed < 10.0
    _report(
        2, ok,
        f"oracle on {len(results)} graphs, enumeration on {len(small)}, "
        f"{oracle_bad}+{brute_bad} mismatches, {elapsed:.2f}s",
    )
    assert oracle_bad == 0
    assert brute_bad == 0
    assert elapsed < 10.0


def test_criterion_3_accelerated_work_never_exceeds_classic(solved):
    results, _ = solved
    sweep_viol = sum(1 for _, c, a in results if a.sweeps > c.sweeps)
    relax_viol = sum(1 for _, c, a in results if a.relaxations > c.relaxations)
    ok = sweep_viol == 0 and relax_viol == 0
    _report(3, ok, f"{len(results)} graphs, {sweep_viol + relax_viol} violations")
    assert sweep_viol == 0
    assert relax_viol == 0


def test_criterion_4_sweeps_bounded_by_node_count(solved):
    results, _ = solved
    violations = sum(1 for g, c, _ in results if c.sweeps > g.n)
    _report(4, violations == 0, f"{len(results)} graphs, {violations} violations")
    assert violations == 0


def test_criterion_5_relaxations_grow_with_node_count():
    t0 = time.perf_counter()
    means = []
    for k, n in enumerate((10, 30, 50, 70, 90)):
        spec = GenSpec(n, n, 10, 10, 100, derive_cell_seed(SEED, 1000 + k))
        means.append(
            mean(bk_classic(build_cost_matrix(g)).relaxations for g in generate_set(spec))
        )
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(means, means[1:]))
    ok = increasing and elapsed < 10.0
    _report(5, ok, f"means {[round(x, 1) for x in means]}, {elapsed:.2f}s")
    assert increasing
    assert elapsed < 10.0


def test_criterion_6_denser_graphs_need_fewer_sweeps():
    t0 = time.perf_counter()
    sweeps = {}
    for k, m in enumerate((200, 7800)):
        spec = GenSpec(90, 90, m, m, 100, derive_cell_seed(SEED, 2000 + k))
        sweeps[m] = mean(
            bk_classic(build_cost_matrix(g)).sweeps for g in generate_set(spec)
        )
    elapsed = time.perf_counter() - t0
    ok = sweeps[7800] < sweeps[200] and elapsed < 30.0
    _report(
        6, ok,
        f"mean sweeps at m=200: {sweeps[200]:.2f}, at m=7800: {sweeps[7800]:.2f}, "
        f"{elapsed:.2f}s",
    )
    assert sweeps[7800] < sweeps[200]
    assert elapsed < 30.0


def test_criterion_7_worked_example():
    mat = build_cost_matrix(CHAIN)
    c = bk_classic(mat)
    a = bk_accelerated(mat)
    route = extract_route(mat, c.distances)
    ok = (
        c.distances == (3, 2, 1, 0)
        and c.sweeps == 4
        and a.distances == (3, 2, 1, 0)
        and a.sweeps == 2
        and route.nodes == (1, 2, 3, 4)
    )
    _report(
        7, ok,
        f"classic {c.sweeps} sweeps, accelerated {a.sweeps} sweeps, "
        f"route {'-'.join(map(str, route.nodes))}",
    )
    assert c.distances == (3, 2, 1, 0)
    assert c.sweeps == 4
    assert a.distances == (3, 2, 1, 0)
    assert a.sweeps == 2
    assert route.nodes == (1, 2, 3, 4)


def test_criterion_8_determinism_and_round_trip(corpus, tmp_path):
    args = ["generate", "--n", "10..30", "--m", "1..200",
            "--count", "50", "--seed", str(SEED)]
    p1 = tmp_path / "a.bkset"
    p2 = tmp_path / "b.bkset"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    identical = p1.read_bytes() == p2.read_bytes()

    round_trip_ok = True
    path = tmp_path / "cell.bkset"
    for spec, graphs in corpus:
        write_set(graphs, spec, path)
        spec2, graphs2 = read_set(path)
        if graphs2 != graphs or spec2 != spec:
            round_trip_ok = False
            break
    ok = identical and round_trip_ok
    _report(
        8, ok,
        f"byte-identical={identical}, round trip on {len(corpus)} cells of "
        f"{COUNT_PER_CELL} graphs={round_trip_ok}",
    )
    assert identical
    assert round_trip_ok


def test_criterion_9_full_grid_reports_speedup(capsys):
    rc = main(["table", "--grid", "table1", "--count", "100", "--seed", str(SEED)])
    out = capsys.readouterr().out
    has_speedup = "Aggregate speedup" in out
    has_band = "10-15%" in out
    line = next((ln for ln in out.splitlines() if "Aggregate speedup" in ln), "")
    ok = rc == 0 and has_speedup and has_band
    _report(9, ok, line if line else "speedup line missing")
    assert rc == 0
    assert has_speedup
    assert has_band
