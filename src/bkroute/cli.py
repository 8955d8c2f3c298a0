"""Command-line front end: generate graph sets, verify solver identity on a
stored set, benchmark it, or run the full measurement grids.

Exit codes: 0 success, 1 runtime or data error (unreadable, corrupt, or
unusable input), 2 usage error (bad flags or bounds).
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    GRIDS,
    BenchReport,
    TimingPolicy,
    UndefinedSpeedupError,
    aggregate_speedup,
    bench_cell,
    emit_table,
    environment_note,
    run_grid,
    verify_equivalence,
)
from .generator import GenSpec, generate_set_detailed
from .graph import MAX_WEIGHT, MalformedGraphError, build_cost_matrix
from .setfile import CorruptFileError, UnsupportedFormatError, read_set, write_set
from .solver import ConvergenceError, bk_classic

_SPEEDUP_NOTE = (
    "Reference best-case band for comparison: 10-15%. Wall-clock ratios are "
    "hardware-dependent; they are reported, never asserted."
)


def parse_range(text: str) -> tuple[int, int]:
    """'LO..HI' (or a bare value V, meaning V..V) parsed to an int pair."""
    lo, sep, hi = text.partition("..")
    if not sep:
        v = int(text)
        return v, v
    return int(lo), int(hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkroute",
        description="Shortest-route solver toolkit: seeded graph sets, "
        "solver verification, and benchmark tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded graph set to a BKSET file")
    gen.add_argument("--n", type=parse_range, required=True, metavar="LO..HI",
                     help="node count bounds (inclusive)")
    gen.add_argument("--m", type=parse_range, required=True, metavar="LO..HI",
                     help="arc count bounds; clamped per graph to n*(n-1)")
    gen.add_argument("--count", type=int, required=True, help="number of graphs")
    gen.add_argument("--seed", type=int, required=True, help="64-bit seed")
    gen.add_argument("--weight-max", type=int, default=GenSpec.weight_max,
                     help=f"weights are uniform in 1..WEIGHT_MAX, at most {MAX_WEIGHT} "
                          "(default %(default)s)")
    gen.add_argument("--out", required=True, help="destination file")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="check classic == accelerated == oracle "
                                        "on every graph of a set")
    ver.add_argument("--in", dest="infile", required=True, help="BKSET file")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="time both solvers over a stored set")
    ben.add_argument("--in", dest="infile", required=True, help="BKSET file")
    _add_report_options(ben)
    ben.set_defaults(func=_cmd_bench)

    tab = sub.add_parser("table", help="generate, verify, and time a full grid")
    tab.add_argument("--grid", choices=tuple(GRIDS), required=True)
    tab.add_argument("--count", type=int, required=True, help="graphs per cell")
    tab.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    _add_report_options(tab)
    tab.set_defaults(func=_cmd_table)

    return parser


def _add_report_options(sub: argparse.ArgumentParser) -> None:
    """The options bench and table share, after their own."""
    sub.add_argument("--repeats", type=int, default=TimingPolicy.repeats,
                     help="timing repeats, minimum is reported (default %(default)s)")
    sub.add_argument("--format", choices=("md", "csv"), default="md")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(args.n[0], args.n[1], args.m[0], args.m[1],
                   args.count, args.seed, args.weight_max)
    built = generate_set_detailed(spec)
    write_set(built.graphs, spec, args.out)
    print(f"wrote {len(built.graphs)} graphs to {args.out} (m clamped on {built.clamped})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _, graphs = read_set(args.infile)
    if not graphs:
        print("verified 0 graphs: 0 mismatches")
        return 0
    summary = verify_equivalence(graphs)
    sample = bk_classic(build_cost_matrix(graphs[0])).distances
    print(f"sample: graph 1 distances = {sample}")
    if summary.ok:
        print(f"verified {summary.total} graphs: 0 mismatches")
        return 0
    print(
        f"verified {summary.total} graphs: {len(summary.mismatched)} mismatches "
        f"at graphs {list(summary.mismatched)}"
    )
    return 1


def _fmt(args: argparse.Namespace) -> str:
    return "markdown" if args.format == "md" else "csv"


def _deliver(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote report to {out}")


def _with_speedup(text: str, report: BenchReport, fmt: str) -> str:
    try:
        pct = aggregate_speedup(report)
    except UndefinedSpeedupError:
        return text
    line = f"Aggregate speedup (total t_BK vs total t_BKaccelerat): {pct:.2f}%"
    if fmt == "markdown":
        return text + f"\n{line}\n\n{_SPEEDUP_NOTE}\n"
    # CSV stdout stays parseable; the summary goes to stderr instead.
    print(line, file=sys.stderr)
    print(_SPEEDUP_NOTE, file=sys.stderr)
    return text


def _cmd_bench(args: argparse.Namespace) -> int:
    policy = TimingPolicy(args.repeats)
    spec, graphs = read_set(args.infile)
    if not graphs:
        print("error: graph set is empty; nothing to benchmark", file=sys.stderr)
        return 1
    report = BenchReport(
        [bench_cell(spec, graphs, policy)],
        environment_note(policy),
        f"set={args.infile} count={len(graphs)} seed={spec.seed}",
    )
    fmt = _fmt(args)
    _deliver(_with_speedup(emit_table(report, fmt), report, fmt), args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    policy = TimingPolicy(args.repeats)
    report = run_grid(args.grid, args.count, args.seed, policy)
    fmt = _fmt(args)
    _deliver(_with_speedup(emit_table(report, fmt), report, fmt), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFormatError, CorruptFileError, MalformedGraphError,
            ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
