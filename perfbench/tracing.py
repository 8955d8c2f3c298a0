"""Span tracing for the benchmark's traced runs, applied from outside the
package.

A traced run replaces each public layer function of ``bkroute`` by a
wrapper that records one span per call: name, start, end, parent span and
an optional work count (arcs generated, relaxations done, bytes moved).
Modules bind these functions through ``from ... import``, and ``bench``
also keeps its solvers in the ``_SOLVERS`` dict, so a wrapper has to be
installed wherever the function object is found: as a module attribute of
any loaded ``bkroute`` module, or as a value of a dict held by one.
Everything is put back when the traced section ends.

Span names are ``<layer>.<function>``; the layer names are the module
names. The spans stay in memory and are summarised when the run ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

Counter = Callable[[tuple, dict, object], int]


def _arcs_of_list(args, kwargs, graphs) -> int:
    return sum(g.m for g in graphs)


def _arcs_of_detailed(args, kwargs, built) -> int:
    return sum(g.m for g in built.graphs)


def _relaxations(args, kwargs, result) -> int:
    return result.relaxations


def _size_of(position: int, keyword: str) -> Counter:
    def count(args, kwargs, result) -> int:
        path = args[position] if len(args) > position else kwargs[keyword]
        return os.path.getsize(path)

    return count


#: span name -> (defining module, function name, work counter or None)
TRACED: dict[str, tuple[str, str, Counter | None]] = {
    "generator.generate_set": ("generator", "generate_set", _arcs_of_list),
    "generator.generate_set_detailed": ("generator", "generate_set_detailed", _arcs_of_detailed),
    "graph.build_cost_matrix": ("graph", "build_cost_matrix", None),
    "solver.bk_classic": ("solver", "bk_classic", _relaxations),
    "solver.bk_accelerated": ("solver", "bk_accelerated", _relaxations),
    "solver.extract_route": ("solver", "extract_route", None),
    "oracle.oracle_distances": ("oracle", "oracle_distances", None),
    "setfile.write_set": ("setfile", "write_set", _size_of(2, "dest")),
    "setfile.read_set": ("setfile", "read_set", _size_of(0, "source")),
    "bench.run_grid": ("bench", "run_grid", None),
    "bench.verify_equivalence": ("bench", "verify_equivalence", None),
    "bench.time_solver": ("bench", "time_solver", None),
    "bench.emit_table": ("bench", "emit_table", None),
    "cli.main": ("cli", "main", None),
}


@contextmanager
def patched(replacements: dict[Callable, Callable]) -> Iterator[None]:
    """Install ``replacements[f]`` wherever a loaded ``bkroute`` module looks
    ``f`` up: its own attributes and the values of dicts it holds. Restores
    every original on exit."""
    undo: list[tuple[dict, object, Callable]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bkroute" or name.startswith("bkroute.")):
            continue
        namespace = vars(module)
        for table in [namespace] + [v for v in namespace.values() if type(v) is dict]:
            for key, value in list(table.items()):
                try:
                    new = replacements.get(value)
                except TypeError:  # unhashable value
                    continue
                if new is not None:
                    undo.append((table, key, value))
                    table[key] = new
    try:
        yield
    finally:
        for table, key, value in reversed(undo):
            table[key] = value


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    count: int = 0


class Tracer:
    """Collects spans from the wrappers it installs. Single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._wrappers: dict[Callable, Callable] = {}
        for name, (module, attr, counter) in TRACED.items():
            original = getattr(importlib.import_module(f"bkroute.{module}"), attr)
            self._wrappers[original] = self._wrap(name, original, counter)

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self) -> Iterator[None]:
        with patched(self._wrappers):
            yield


@dataclass
class Totals:
    """Per group of spans: calls and busy time, both counting only calls not
    nested in another call of the same group; self time (duration minus the
    time covered by direct children) of every call; work counted by the
    outermost calls."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    count: int = 0


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def summarise(
    spans: list[Span], group: Callable[[str], str] = str
) -> tuple[dict[str, Totals], float]:
    """Fold spans into totals per ``group(span name)``: per function by
    default, per layer with ``group=layer_of``. Also returns the summed
    duration of the top-level spans, which equals the summed self times."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, Totals] = {}
    top = 0.0
    for k, s in enumerate(spans):
        dur = s.end - s.start
        key = group(s.name)
        t = out.setdefault(key, Totals())
        t.self_time += dur - child_time[k]
        if s.parent < 0:
            top += dur
        p = s.parent
        while p >= 0 and group(spans[p].name) != key:
            p = spans[p].parent
        if p < 0:  # no enclosing call of the same group
            t.calls += 1
            t.busy += dur
            t.count += s.count
    return out, top
