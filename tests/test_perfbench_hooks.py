"""The benchmark in perfbench/ lies outside `testpaths`, and its traced runs
install wrappers on bkroute functions that it looks up by name. This builds
its tracer, so renaming or deleting a wrapped function fails here, not only
in the benchmark's own slower self-tests."""

from __future__ import annotations

from pathlib import Path

from bkroute import bench

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_wraps_the_solver_table(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    solvers, emit = dict(bench._SOLVERS), bench.emit_table
    with tracer.active():
        assert {k: f.__wrapped__ for k, f in bench._SOLVERS.items()} == solvers
        assert bench.emit_table.__wrapped__ is emit
    assert bench._SOLVERS == solvers and bench.emit_table is emit
