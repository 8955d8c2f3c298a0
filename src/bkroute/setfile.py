"""Reading and writing graph-set files (BKSET format).

The format is line-oriented UTF-8 text: every line, the last one
included, ends in LF; fields are separated by single spaces, and every
integer is in canonical decimal form (the form ``str(int)`` gives):

    BKSET 1
    SPEC n1 n2 m1 m2 seed weight_max
    COUNT c
    G n m          <- c records, each followed by
    i j w          <- exactly m arc lines

Arc lines appear in generation order; nothing is sorted, so re-writing
what was read reproduces the file byte for byte. The reader never splits
the file into lines: it walks the header lines with a cursor and matches
each record's arc lines on the text with one regular expression, so a
record's arcs are parsed in bulk.
"""

from __future__ import annotations

import re
from typing import NoReturn, Sequence

from .generator import GenSpec
from .graph import Graph, MalformedGraphError

MAGIC = "BKSET"
VERSION = 1


#: A canonical decimal integer, the form str(int) gives: no sign but a
#: leading "-", no leading zero, no "-0". [0-9] rather than \d, which would
#: also match non-ASCII digits.
_TOKEN = "(?:0|-?[1-9][0-9]*)"

#: The longest run of arc lines at a position: three canonical tokens
#: separated by single spaces, then LF. Negative tokens are matched here so
#: that a negative weight or node is reported by the Graph rules.
_ARC_LINES = re.compile(f"(?:{_TOKEN} {_TOKEN} {_TOKEN}\n)*")

#: What each token of an arc line is, for error messages.
_ARC_FIELDS = ("origin node", "destination node", "weight")

class UnsupportedFormatError(ValueError):
    """The file is not a BKSET file, or its version is unknown."""


class CorruptFileError(ValueError):
    """The file looks like a BKSET file but its contents are invalid."""


def write_set(graphs: Sequence[Graph], spec: GenSpec, dest) -> None:
    """Serialize a graph set and its generating GenSpec to `dest`."""
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"{MAGIC} {VERSION}\n"
            f"SPEC {spec.n1} {spec.n2} {spec.m1} {spec.m2} {spec.seed} {spec.weight_max}\n"
            f"COUNT {len(graphs)}\n"
        )
        for g in graphs:
            fh.write(f"G {g.n} {g.m}\n")
            values = [0] * (3 * g.m)  # i j w of each arc in turn, as read_set slices them
            values[0::3], values[1::3], values[2::3] = g.src, g.dst, g.wt
            fh.write("%d %d %d\n" * g.m % tuple(values))


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


def _int_fields(
    line: str, key: str, names: Sequence[str], where: str, malformed: str
) -> list[int]:
    """The fields of the line `key f1 f2 ...` (an arc line has no key), one
    canonical decimal integer per name; CorruptFileError(malformed) if the
    key or the field count is wrong."""
    tok = line.split(" ")
    if key:
        if tok[0] != key:
            raise CorruptFileError(malformed)
        del tok[0]
    if len(tok) != len(names):
        raise CorruptFileError(malformed)
    return [_as_int(token, what, where) for token, what in zip(tok, names)]


def _raise_arc_error(line: str | None, at: str) -> NoReturn:
    """Raise the CorruptFileError for an arc line (None past the end of the
    file) that is not three canonical decimal integers."""
    if line is None:
        raise CorruptFileError(f"unexpected end of file while reading {at}")
    _int_fields(line, "", _ARC_FIELDS, at, f"{at}: expected 'i j w', got {line!r}")
    raise AssertionError(f"{at}: arc line {line!r} is well formed")


def _read_text(source) -> str:
    """The file's text. Bytes that are not UTF-8 make it unsupported when its
    first line is not the BKSET 1 header, and corrupt otherwise."""
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if data.partition(b"\n")[0] != f"{MAGIC} {VERSION}".encode():
            raise UnsupportedFormatError("not a BKSET file") from None
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorruptFileError(f"line {line_no} is not UTF-8 text") from None


def read_set(source) -> tuple[GenSpec, list[Graph]]:
    """Parse a BKSET file back into (spec echo, graphs).

    Raises UnsupportedFormatError for an empty file or a bad magic or
    version line and CorruptFileError, naming the offending record, for
    everything else, a missing final line feed included.
    """
    text = _read_text(source)
    if not text:
        raise UnsupportedFormatError("empty file is not a BKSET file")

    head = text.partition("\n")[0].split(" ")
    if len(head) != 2 or head[0] != MAGIC:
        raise UnsupportedFormatError("not a BKSET file")
    if head[1] != str(VERSION):
        raise UnsupportedFormatError(f"unsupported BKSET version {head[1]!r}")
    # every line ends in LF, so text.index("\n", pos) finds the end of any
    # line that starts before the end of the text
    if not text.endswith("\n"):
        raise CorruptFileError("the final line feed is missing")
    pos = text.index("\n") + 1

    def next_line(context: str) -> str:
        nonlocal pos
        if pos == len(text):
            raise CorruptFileError(f"unexpected end of file while reading {context}")
        end = text.index("\n", pos)
        line = text[pos:end]
        pos = end + 1
        return line

    n1, n2, m1, m2, seed, weight_max = _int_fields(
        next_line("SPEC line"), "SPEC", ("n1", "n2", "m1", "m2", "seed", "weight_max"),
        "SPEC line", "malformed SPEC line",
    )
    (count,) = _int_fields(
        next_line("COUNT line"), "COUNT", ("count",), "COUNT line", "malformed COUNT line"
    )
    if count < 0:
        raise CorruptFileError(f"negative count {count}")

    graphs: list[Graph] = []
    for gi in range(1, count + 1):
        where = f"graph {gi}"
        header = next_line(where)
        n, m = _int_fields(
            header, "G", ("node count", "arc count"), where,
            f"{where}: malformed record header {header!r}",
        )
        if m < 0:
            raise CorruptFileError(f"{where}: negative arc count {m}")
        end = _ARC_LINES.match(text, pos).end()
        found = text.count("\n", pos, end)
        if found < m:
            line = text[end : text.index("\n", end)] if end < len(text) else None
            _raise_arc_error(line, f"{where}, arc {found + 1}")
        if found > m:  # the record ends after its m-th arc line; the rest is read on
            end = pos
            for _ in range(m):
                end = text.index("\n", end) + 1
        tokens = text[pos:end].split()
        pos = end
        try:
            values = tuple(map(int, tokens))
        except ValueError:  # a token longer than int() accepts; _as_int names it
            for k, token in enumerate(tokens):
                _as_int(token, _ARC_FIELDS[k % 3], f"{where}, arc {k // 3 + 1}")
            raise
        try:
            graphs.append(Graph(n, values[0::3], values[1::3], values[2::3]))
        except MalformedGraphError as exc:
            raise CorruptFileError(f"{where}, {exc}") from None

    if pos != len(text):
        line_no = text.count("\n", 0, pos) + 1
        raise CorruptFileError(f"trailing data after the last record (line {line_no})")
    return GenSpec(n1, n2, m1, m2, count, seed, weight_max), graphs
