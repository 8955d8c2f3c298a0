"""Self-tests of the benchmark, at tiny sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()
import tracing  # noqa: E402
from bkroute import solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"table1": {"count": 1}, "sparse-route": {"graphs": 12}, "bkset-files": {"count": 2}}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(tmp_path, workload: str, trace: int, seed: int = 3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            sizes=TINY, workdir=tmp_path, setup_samples=2,
        )
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_prints_declared_metrics(tmp_path, workload, trace):
    code, lines, result = run_tiny(tmp_path, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} = " in "\n".join(lines)
    assert not list(tmp_path.iterdir())  # the scratch directory was removed


def test_wrappers_reach_every_call(tmp_path):
    """run_grid builds each matrix three times and solves each graph eight
    times (verify: 2, time_solver: 2 orders x 3 repeats); the solves that go
    through bench._SOLVERS count only if that dict was patched too."""
    _, lines, result = run_tiny(tmp_path, "table1", 1)
    v = values(result)
    assert v["generator.calls"] == 45
    assert v["oracle.calls"] == 45
    assert v["graph.builds_per_graph"] == 3.0
    assert v["solver.solves_per_graph"] == 8.0
    assert v["setfile.read_calls"] == 0 and v["cli.self_s"] == 0
    assert any(line.startswith("traced wall per unit") for line in lines)


def test_traced_file_flow_counts(tmp_path):
    _, _, result = run_tiny(tmp_path, "bkset-files", 1)
    v = values(result)
    assert v["generator.calls"] == 1
    assert v["setfile.read_calls"] == 2
    assert v["setfile.bytes"] > 0 and v["cli.self_s"] > 0
    # verify: 1 build per graph plus one for the sample line; bench: 3 per graph
    assert v["graph.build_calls"] == 4 * TINY["bkset-files"]["count"] + 1


def test_sparse_route_setup_work_is_traced_once(tmp_path):
    _, _, result = run_tiny(tmp_path, "sparse-route", 1)
    v = values(result)
    graphs = TINY["sparse-route"]["graphs"]
    assert v["generator.calls"] == 1
    assert v["oracle.calls"] == graphs
    assert v["graph.builds_per_graph"] == 1.0
    assert v["solver.solves_per_graph"] == 2.0


def test_traced_run_restores_the_package():
    before = solver.bk_classic
    tracer = tracing.Tracer()
    with tracer.active():
        assert solver.bk_classic is not before
        from bkroute import bench

        assert bench._SOLVERS["classic"] is solver.bk_classic
    assert solver.bk_classic is before
    assert bench._SOLVERS["classic"] is before


def test_self_times_add_up():
    spans = [
        tracing.Span("bench.verify_equivalence", 0.0, 10.0, -1),
        tracing.Span("graph.build_cost_matrix", 1.0, 2.0, 0),
        tracing.Span("solver.bk_classic", 2.0, 6.0, 0),
        tracing.Span("generator.generate_set", 11.0, 14.0, -1),
        tracing.Span("generator.generate_set_detailed", 11.5, 13.5, 3),
    ]
    by_fn, top = tracing.summarise(spans)
    assert top == 13.0
    assert sum(t.self_time for t in by_fn.values()) == pytest.approx(top)
    assert by_fn["bench.verify_equivalence"].self_time == 5.0
    by_layer, _ = tracing.summarise(spans, tracing.layer_of)
    assert by_layer["generator"].calls == 1 and by_layer["generator"].busy == 3.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_perturbed_distance_fails_the_run(tmp_path, workload):
    original = solver.bk_accelerated
    calls = 0

    def perturb_first(mat, **kwargs):
        nonlocal calls
        calls += 1
        result = original(mat, **kwargs)
        if calls > 1:
            return result
        return dataclasses.replace(result, distances=result.distances[:-1] + (1,))

    with tracing.patched({original: perturb_first}):
        code, _, result = run_tiny(tmp_path, workload, 0)
    assert calls > 1
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_map_covers_every_metric_and_workload():
    layer_map = json.loads((run.HERE / "map.json").read_text(encoding="utf-8"))
    mapped = [m for group in layer_map["layers"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in DECLARED["per_layer"])
    assert set(layer_map["workloads"]) == set(WORKLOADS)
    for group in layer_map["layers"]:
        assert set(WORKLOADS) <= set(group)
