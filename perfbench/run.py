"""bkroute benchmark: run one workload in this process and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``bkroute`` from
``src/`` and exits with an error, printing no result, when that is missing.
The workload's inputs come from ``--seed``. Units of the workload repeat
until the next one would end after ``--seconds`` (at least two of each
kind), every unit's outputs are checked, and a correctness pass on a fixed
holdout seed follows.
With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` traced and untraced units alternate
and the JSON carries the per-layer metrics and the tracing overhead. The
exit code is 1 when any check failed. Metric definitions are in
``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up is measured this many times per run (this process plus fresh
#: processes that only set up, run between timed units) and the median is
#: reported.
SETUP_SAMPLES = 9
#: Fewest timed units of each kind (untraced, traced) in one run.
MIN_UNITS = 2


def import_package():
    """Import ``bkroute`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "bkroute" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC} holds no bkroute sources; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bkroute

    return bkroute


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def size_key(size: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(size.items()))


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def measure(workload, state, seconds: int, tracer, between=None):
    """Repeat the workload's unit for about ``seconds``; with a tracer, alternate
    untraced and traced units. ``between``, when given, runs after each unit;
    its time does not count against ``seconds``. Returns (untraced walls,
    traced walls, outcomes in run order)."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    outcomes = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        with tracer.active() if traced else nullcontext():
            t0 = time.perf_counter()
            raw = workload.run(state)
            walls[traced].append(time.perf_counter() - t0)
        outcomes.append(workload.check(state, raw))
        del raw
        k += 1
        if between is not None:
            t0 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t0
        enough = len(walls[False]) >= MIN_UNITS and (
            tracer is None or len(walls[True]) >= MIN_UNITS
        )
        # Stop when the next unit would most likely end past the deadline.
        if enough and time.perf_counter() + statistics.median(walls[traced]) > deadline:
            return walls[False], walls[True], outcomes


def judge(name: str, size: dict, seed: int, outcomes, recorded: dict | None) -> int:
    """Failed graphs among ``outcomes``: each unit's own failures, plus every
    graph of a unit whose exact counters or digest differ from the recorded
    ones (or, with nothing recorded, from the first unit's)."""
    reference = recorded or {"digest": outcomes[0].digest, **outcomes[0].totals}
    failed = 0
    for k, o in enumerate(outcomes, start=1):
        if {"digest": o.digest, **o.totals} != reference:
            print(f"error: {name} seed {seed} unit {k}: totals {o.totals} or digest "
                f"{o.digest} differ from {reference}")
            failed += o.graphs
        else:
            failed += o.failed
    if recorded is None:
        print(f"note: no recorded totals for {name} seed {seed} at {size_key(size)}; "
            "units were checked against each other")
    return failed


def holdout_check(workload, workdir: Path, expected: dict) -> tuple[int, int]:
    """The full correctness check on the holdout seed, at the holdout size."""
    from workloads import HOLDOUT_SEED, HOLDOUT_SIZES

    size = HOLDOUT_SIZES[workload.name]
    hold_dir = workdir / "holdout"
    hold_dir.mkdir()
    state = workload.setup(HOLDOUT_SEED, size, hold_dir)
    outcome = workload.check(state, workload.run(state))
    recorded = expected["holdout"].get(workload.name, {}).get(size_key(size))
    if recorded is None:
        print(f"error: no recorded holdout totals for {workload.name} at {size_key(size)}")
        return outcome.graphs, outcome.graphs
    failed = judge(workload.name, size, HOLDOUT_SEED, [outcome], recorded)
    attempted, failed_inputs = workload.check_inputs(state)
    return outcome.graphs + attempted, failed + failed_inputs


def setup_probe_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process that only sets up this workload."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.split()[-1])


def layer_metrics(workload, state, setup_tracer, run_tracer, plain, traced, first):
    """Per-layer metrics of one traced run: per timed unit, plus set-up work
    counted once. ``first`` is the first unit's Outcome (exact counters)."""
    from tracing import Totals, layer_of, summarise

    units = len(traced)
    graphs = workload.graphs_per_unit(state)
    setup_fn, _ = summarise(setup_tracer.spans)
    setup_layer, _ = summarise(setup_tracer.spans, layer_of)
    run_fn, top = summarise(run_tracer.spans)
    run_layer, _ = summarise(run_tracer.spans, layer_of)

    def get(setup: dict, run: dict, key: str) -> Totals:
        s, r = setup.get(key, Totals()), run.get(key, Totals())
        return Totals(
            s.calls + r.calls / units,
            s.busy + r.busy / units,
            s.self_time + r.self_time / units,
            s.count + r.count / units,
        )

    def fn(name: str) -> Totals:
        return get(setup_fn, run_fn, name)

    def layer(name: str) -> Totals:
        return get(setup_layer, run_layer, name)

    def rate(work: float, busy: float) -> float:
        return work / busy if busy else 0.0

    gen, orc = layer("generator"), layer("oracle")
    build = fn("graph.build_cost_matrix")
    classic, accel = fn("solver.bk_classic"), fn("solver.bk_accelerated")
    write, read = fn("setfile.write_set"), fn("setfile.read_set")
    wall = statistics.fmean(traced)
    harness = wall - top / units
    values = {
        "generator.calls": gen.calls,
        "generator.busy_s": gen.busy,
        "generator.arcs": gen.count,
        "generator.arcs_per_s": rate(gen.count, gen.busy),
        "graph.build_calls": build.calls,
        "graph.build_busy_s": build.busy,
        "graph.builds_per_graph": build.calls / graphs,
        "solver.classic_calls": classic.calls,
        "solver.accel_calls": accel.calls,
        "solver.solves_per_graph": (classic.calls + accel.calls) / graphs,
        "solver.classic_busy_s": classic.busy,
        "solver.accel_busy_s": accel.busy,
        "solver.relax_per_s_classic": rate(classic.count, classic.busy),
        "solver.relax_per_s_accel": rate(accel.count, accel.busy),
        "solver.route_busy_s": fn("solver.extract_route").busy,
        "solver.sweeps_classic": first.totals["sweeps_classic"],
        "solver.sweeps_accel": first.totals["sweeps_accel"],
        "solver.relaxations_classic": first.totals["relaxations_classic"],
        "solver.relaxations_accel": first.totals["relaxations_accel"],
        "solver.speedup_pct": 100.0 * (1.0 - accel.busy / classic.busy),
        "oracle.calls": orc.calls,
        "oracle.busy_s": orc.busy,
        "setfile.write_busy_s": write.busy,
        "setfile.read_calls": read.calls,
        "setfile.read_busy_s": read.busy,
        "setfile.bytes": write.count,
        "setfile.read_mb_per_s": rate(read.count / 1e6, read.busy),
        "bench.run_grid_self_s": fn("bench.run_grid").self_time,
        "bench.verify_busy_s": fn("bench.verify_equivalence").busy,
        "bench.time_solver_busy_s": fn("bench.time_solver").busy,
        "cli.self_s": fn("cli.main").self_time,
        "harness.self_s": harness,
        "trace_overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
    }
    # Where the traced unit's wall time went: library self time per layer,
    # plus the benchmark's own loop and checks.
    selfs = {k: v.self_time / units for k, v in run_layer.items()}
    parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(selfs.items()))
    accounting = (f"traced wall per unit {wall:.4f} s = library self "
                  f"{sum(selfs.values()):.4f} s ({parts}) + harness self {harness:.4f} s")
    return values, accounting


def stamp(bkroute, name: str, seed: int, seconds: int, trace: int) -> dict:
    from workloads import HOLDOUT_SEED

    return {
        "package": bkroute.__version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": name,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "trace": trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "sparse-route", "bkset-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:  # the holdout seed lies above this range
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None, sizes=None, workdir=None, started=None, setup_samples=SETUP_SAMPLES) -> int:
    """Run one workload. ``sizes`` and ``setup_samples`` let the self-tests
    run small; ``started`` is when set-up began (the process start when run
    as a script)."""
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    bkroute = import_package()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload]
    size = (sizes or SIZES)[args.workload]
    base = Path(workdir) if workdir else ROOT / ".perfbench_tmp"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_tracer = Tracer() if args.trace else None
        with setup_tracer.active() if args.trace else nullcontext():
            state = workload.setup(args.seed, size, work)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(f"{setup_s!r}")
            return 0
        gc.collect()
        run_tracer = Tracer() if args.trace else None
        samples = [setup_s]

        def probe_setup() -> None:
            # Spread over the run, so that the median sees the same host
            # load as the timed units do.
            if len(samples) < setup_samples:
                samples.append(setup_probe_seconds(args.workload, args.seed))

        plain, traced, outcomes = measure(
            workload, state, args.seconds, run_tracer, None if args.trace else probe_setup)
        while not args.trace and len(samples) < setup_samples:
            probe_setup()
        # Set-up and the timed units only; the probes are other processes.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        expected = load_expected()
        recorded = expected["seeds"].get(args.workload, {}).get(size_key(size), {}).get(str(args.seed))
        attempted = sum(o.graphs for o in outcomes)
        failed = judge(args.workload, size, args.seed, outcomes, recorded)
        a, f = workload.check_inputs(state)
        attempted, failed = attempted + a, failed + f
        a, f = holdout_check(workload, work, expected)
        attempted, failed = attempted + a, failed + f

        print("stamp " + json.dumps(stamp(bkroute, args.workload, args.seed, args.seconds, args.trace)))
        print(f"units: {len(plain)} untraced, {len(traced)} traced; "
              f"{workload.graphs_per_unit(state)} graphs per unit")
        print(f"unit walls (s): untraced {[round(w, 4) for w in plain]}, "
              f"traced {[round(w, 4) for w in traced]}")
        print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} graphs failed a check)")

        if args.trace:
            values, accounting = layer_metrics(
                workload, state, setup_tracer, run_tracer, plain, traced, outcomes[0])
            print(accounting)
        else:
            print(f"setup samples (s): {[round(t, 4) for t in samples]}")
            latencies = [t for o in outcomes for t in o.latencies]
            if latencies:
                # Per-graph latency exists only where the benchmark times each
                # graph itself; it is printed, not part of the result.
                print(f"graph latency: {len(latencies)} samples, "
                      f"graph_ms_p50 = {1e3 * statistics.median(latencies)!r} ms, "
                      f"graph_ms_p99 = {1e3 * p99(latencies)!r} ms")
            values = {
                "setup_s": statistics.median(samples),
                "wall_s": statistics.median(plain),
                "peak_rss_mb": peak_rss_mb,
            }
        units = declared_units(args.trace)
        if set(values) != set(units):
            raise SystemExit(f"error: metrics {sorted(values)} differ from BENCHMARK.json")
        metrics = {}
        for key, value in values.items():
            print(f"metric {key} = {value!r} {units[key]}")
            metrics[key] = {"value": value, "unit": units[key]}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not workdir:
            try:
                base.rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    # A terminated run still removes its scratch directory and set-up probe.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(started=STARTED))
