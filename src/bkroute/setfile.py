"""Reading and writing graph-set files (BKSET format).

The format is line-oriented UTF-8 text with LF endings, single-space
separators, and canonical decimal integers (the form ``str(int)`` gives):

    BKSET 1
    SPEC n1 n2 m1 m2 seed weight_max
    COUNT c
    G n m          <- c records, each followed by
    i j w          <- exactly m arc lines

Arc lines appear in generation order; nothing is sorted, so re-writing
what was read reproduces the file byte for byte.
"""

from __future__ import annotations

from typing import NoReturn, Sequence

from .generator import GenSpec
from .graph import Arc, Graph, MalformedGraphError

MAGIC = "BKSET"
VERSION = 1


class UnsupportedFormatError(ValueError):
    """The file is not a BKSET file, or its version is unknown."""


class CorruptFileError(ValueError):
    """The file looks like a BKSET file but its contents are invalid."""


def write_set(graphs: Sequence[Graph], spec: GenSpec, dest) -> None:
    """Serialize a graph set and its generating GenSpec to `dest`."""
    lines = [
        f"{MAGIC} {VERSION}",
        f"SPEC {spec.n1} {spec.n2} {spec.m1} {spec.m2} {spec.seed} {spec.weight_max}",
        f"COUNT {len(graphs)}",
    ]
    for g in graphs:
        lines.append(f"G {g.n} {g.m}")
        for a in g.arcs:
            lines.append(f"{a.i} {a.j} {a.w}")
    lines.append("")
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


def _as_int(token: str, what: str, where: str) -> int:
    """Parse a canonical decimal integer, the only form write_set emits, so
    that re-writing what was read reproduces the file byte for byte."""
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or str(value) != token:
        raise CorruptFileError(
            f"{where}: {what} is not a canonical decimal integer: {token!r}"
        )
    return value


def _raise_arc_error(line: str | None, at: str) -> NoReturn:
    """Raise the CorruptFileError for an arc line (None past the end of the
    file) that is not three canonical decimal integers."""
    if line is None:
        raise CorruptFileError(f"unexpected end of file while reading {at}")
    tok = line.split(" ")
    if len(tok) != 3:
        raise CorruptFileError(f"{at}: expected 'i j w', got {line!r}")
    for token, what in zip(tok, ("origin node", "destination node", "weight")):
        _as_int(token, what, at)
    raise AssertionError(f"{at}: arc line {line!r} is well formed")


def read_set(source) -> tuple[GenSpec, list[Graph]]:
    """Parse a BKSET file back into (spec echo, graphs).

    Raises UnsupportedFormatError for a bad magic or version line and
    CorruptFileError, naming the offending record, for everything else.
    """
    with open(source, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise UnsupportedFormatError("empty file is not a BKSET file")

    pos = 0

    def next_line(context: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise CorruptFileError(f"unexpected end of file while reading {context}")
        line = lines[pos]
        pos += 1
        return line

    head = next_line("header").split(" ")
    if len(head) != 2 or head[0] != MAGIC:
        raise UnsupportedFormatError("not a BKSET file")
    if head[1] != str(VERSION):
        raise UnsupportedFormatError(f"unsupported BKSET version {head[1]!r}")

    spec_tok = next_line("SPEC line").split(" ")
    if len(spec_tok) != 7 or spec_tok[0] != "SPEC":
        raise CorruptFileError("malformed SPEC line")
    n1, n2, m1, m2, seed, weight_max = (
        _as_int(t, f, "SPEC line")
        for t, f in zip(spec_tok[1:], ("n1", "n2", "m1", "m2", "seed", "weight_max"))
    )

    count_tok = next_line("COUNT line").split(" ")
    if len(count_tok) != 2 or count_tok[0] != "COUNT":
        raise CorruptFileError("malformed COUNT line")
    count = _as_int(count_tok[1], "count", "COUNT line")
    if count < 0:
        raise CorruptFileError(f"negative count {count}")

    graphs: list[Graph] = []
    for gi in range(1, count + 1):
        where = f"graph {gi}"
        g_tok = next_line(where).split(" ")
        if len(g_tok) != 3 or g_tok[0] != "G":
            raise CorruptFileError(f"{where}: malformed record header {lines[pos - 1]!r}")
        n = _as_int(g_tok[1], "node count", where)
        m = _as_int(g_tok[2], "arc count", where)
        if m < 0:
            raise CorruptFileError(f"{where}: negative arc count {m}")
        arcs: list[Arc] = []
        for ai in range(1, m + 1):
            line = lines[pos] if pos < len(lines) else None
            try:
                arc = Arc(*map(int, line.split(" ")))
            except (AttributeError, TypeError, ValueError):  # no line, not 3 tokens, not ints
                arc = None
            # three canonical tokens are exactly what re-formats to the line
            if arc is None or f"{arc.i} {arc.j} {arc.w}" != line:
                _raise_arc_error(line, f"{where}, arc {ai}")
            pos += 1
            arcs.append(arc)
        try:
            graphs.append(Graph(n, arcs))
        except MalformedGraphError as exc:
            raise CorruptFileError(f"{where}, {exc}") from None

    if pos != len(lines):
        raise CorruptFileError(f"trailing data after the last record (line {pos + 1})")
    return GenSpec(n1, n2, m1, m2, count, seed, weight_max), graphs
