"""Command-line front end: generate graph sets, verify solver identity on a
stored set, benchmark it, or run the full measurement grids.

`bench.emit_table` renders each report and this module only sends it to
stdout or to --out; beside CSV it prints the speedup summary on stderr.

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
    bench_cell,
    emit_table,
    environment_note,
    run_grid,
    speedup_summary,
    verify_equivalence,
)
from .generator import GenSpec, generate_set_detailed
from .graph import MAX_WEIGHT, MalformedGraphError, build_cost_matrix
from .setfile import CorruptFileError, UnsupportedFormatError, read_set, write_set
from .solver import ConvergenceError, bk_classic

#: How many of graph 1's distances `verify` prints, so its output stays
#: short whatever n a file claims.
_SAMPLE_SIZE = 10


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
    mismatched = verify_equivalence(graphs)
    sample = bk_classic(build_cost_matrix(graphs[0])).distances
    shown = ", ".join(map(repr, sample[:_SAMPLE_SIZE]))
    more = ", ..." if len(sample) > _SAMPLE_SIZE else ""
    print(f"sample: graph 1 distances = ({shown}{more})")
    if not mismatched:
        print(f"verified {len(graphs)} graphs: 0 mismatches")
        return 0
    print(
        f"verified {len(graphs)} graphs: {len(mismatched)} mismatches "
        f"at graphs {list(mismatched)}"
    )
    return 1


def _emit(report: BenchReport, args: argparse.Namespace) -> int:
    text = emit_table(report, args.format)
    if args.format == "csv":  # CSV stdout stays parseable
        for line in speedup_summary(report):
            print(line, file=sys.stderr)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote report to {args.out}")
    return 0


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
    return _emit(report, args)


def _cmd_table(args: argparse.Namespace) -> int:
    policy = TimingPolicy(args.repeats)
    return _emit(run_grid(args.grid, args.count, args.seed, policy), args)


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
