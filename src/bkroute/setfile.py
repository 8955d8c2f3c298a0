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
what was read reproduces the file byte for byte. Both directions stream
the file: neither ever holds its text, or all of a record's lines. The
reader first makes the checks that need the whole file (UTF-8, the
header, the final line feed) in one pass over fixed-size chunks. It then
reads the header lines one at a time and a record's arc lines `_SLICE` at
a time, accepting a slice only when writing the parsed integers back in
the writer's own format reproduces its bytes. An accepted slice is packed
into the record's three array('i') columns, 12 bytes per arc, which the
Graph copies as they are. A slice that is not accepted is read again one
line at a time, to name its first bad line. An arc holding a value beyond
32 bits breaks a Graph rule, as may an earlier arc: the columns keep the
arcs before it and no later one, the rest of the record is still read for
its text errors, and then the Graph checks the arcs kept and that arc in
turn, to name the first bad one.
"""

from __future__ import annotations

import codecs
from array import array
from itertools import islice
from typing import BinaryIO, Sequence

from .generator import GenSpec
from .graph import Graph, MalformedGraphError, _check_arcs

MAGIC = "BKSET"
VERSION = 1

#: The first line of every BKSET file.
_HEADER = f"{MAGIC} {VERSION}\n".encode()

#: One arc line as write_set writes it. A slice of arc lines is canonical
#: exactly when this format, applied to the integers parsed from it, gives
#: it back.
_ARC_LINE = b"%d %d %d\n"

#: What each token of an arc line is, for error messages.
_ARC_FIELDS = ("origin node", "destination node", "weight")

#: Arc lines read or written at once. Besides the graphs, a read or a write
#: holds one slice of this many lines, about 200 bytes per line.
_SLICE = 4096

#: The values an array('i') column holds.
_INT32 = range(-(2**31), 2**31)

#: Bytes that the whole-file checks read at once.
_CHUNK = 1 << 16

#: Bytes of the first line that decide whether it is the header: at least
#: len(MAGIC) + 1, so that no first token the prefix cuts passes for MAGIC.
_PREFIX = 64


class UnsupportedFormatError(ValueError):
    """The file is not a BKSET file, or its version is unknown."""


class CorruptFileError(ValueError):
    """The file looks like a BKSET file but its contents are invalid."""


def write_set(graphs: Sequence[Graph], spec: GenSpec, dest) -> None:
    """Serialize a graph set and its generating GenSpec to `dest`."""
    with open(dest, "wb") as fh:
        fh.write(
            _HEADER
            + f"SPEC {spec.n1} {spec.n2} {spec.m1} {spec.m2} {spec.seed} {spec.weight_max}\n"
            f"COUNT {len(graphs)}\n".encode()
        )
        for g in graphs:
            fh.write(b"G %d %d\n" % (g.n, g.m))
            for a in range(0, g.m, _SLICE):
                src = g.src[a : a + _SLICE]
                values = [0] * (3 * len(src))  # i j w of each arc in turn, as read_set parses them
                values[0::3] = src
                values[1::3] = g.dst[a : a + _SLICE]
                values[2::3] = g.wt[a : a + _SLICE]
                fh.write(_ARC_LINE * len(src) % tuple(values))


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


def _check_file(fh: BinaryIO) -> None:
    """Make the checks that need the whole file, in the order they take
    precedence, and leave `fh` just past the header line.

    Bytes that are not UTF-8 make the file unsupported when its first line
    is not the BKSET 1 header, and corrupt otherwise. An empty file, a
    first line other than the header and a missing final line feed come
    after, in that order.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines = 0  # line feeds before `chunk`
    last = b""
    while True:
        cut = len(decoder.getstate()[0])  # bytes of a character that the last chunk cut
        chunk = fh.read(_CHUNK)
        try:
            decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            # exc.start counts from the first cut byte; a cut byte is never LF
            line_no = lines + chunk.count(b"\n", 0, max(exc.start - cut, 0)) + 1
            fh.seek(0)
            if fh.read(len(_HEADER)) != _HEADER:
                raise UnsupportedFormatError("not a BKSET file") from None
            raise CorruptFileError(f"line {line_no} is not UTF-8 text") from None
        if not chunk:
            break
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    if not last:
        raise UnsupportedFormatError("empty file is not a BKSET file")

    magic = MAGIC.encode()
    fh.seek(0)
    first = fh.readline(_PREFIX)
    head = first.removesuffix(b"\n").split(b" ")
    if len(head) == 2 and head[0] == magic and not first.endswith(b"\n"):
        # the prefix cut the version token, which the version message quotes:
        # at most _CHUNK bytes more of it, dropping a character the bound cuts
        first += fh.readline(_CHUNK)
        head = first.removesuffix(b"\n").split(b" ")
    if len(head) != 2 or head[0] != magic:
        raise UnsupportedFormatError("not a BKSET file")
    if head[1] != b"%d" % VERSION:
        version = head[1].decode(errors="ignore")
        raise UnsupportedFormatError(f"unsupported BKSET version {version!r}")
    if last != b"\n":
        raise CorruptFileError("the final line feed is missing")


def read_set(source) -> tuple[GenSpec, list[Graph]]:
    """Parse a BKSET file back into (spec echo, graphs).

    Raises UnsupportedFormatError for an empty file or a bad magic or
    version line and CorruptFileError, naming the offending record, for
    everything else, a missing final line feed included.
    """
    with open(source, "rb") as fh:
        _check_file(fh)

        def next_line(context: str) -> str:
            # every line ends in LF, so only the end of the file reads b""
            line = fh.readline()
            if not line:
                raise CorruptFileError(f"unexpected end of file while reading {context}")
            return line[:-1].decode()

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
            src, dst, wt = array("i"), array("i"), array("i")
            bad = None  # the number and values of the first arc beyond 32 bits
            for a in range(0, m, _SLICE):
                k = min(_SLICE, m - a)
                start = fh.tell()
                block = b"".join(islice(fh, k))
                try:
                    values = tuple(map(int, block.split()))
                except ValueError:  # not an int, or longer than int() accepts
                    values = ()
                if len(values) != 3 * k or _ARC_LINE * k % values != block:
                    # not k lines as write_set writes them: the earlier slices
                    # were, so reading this one again line by line names the
                    # first bad line
                    fh.seek(start)
                    values = []
                    for b in range(a + 1, a + k + 1):
                        at = f"{where}, arc {b}"
                        line = next_line(at)
                        values += _int_fields(
                            line, "", _ARC_FIELDS, at, f"{at}: expected 'i j w', got {line!r}"
                        )
                if bad is not None:
                    continue  # the record is refused; its lines are read for their text errors
                try:
                    packed = array("i", values)
                except OverflowError:
                    # no Graph admits a value beyond 32 bits, so that arc or an
                    # earlier one breaks a rule: keep only the arcs before it
                    cut = next(x for x, v in enumerate(values) if v not in _INT32) // 3 * 3
                    packed = array("i", values[:cut])
                    bad = (a + cut // 3 + 1, values[cut : cut + 3])
                src += packed[0::3]
                dst += packed[1::3]
                wt += packed[2::3]
            try:
                g = Graph(n, src, dst, wt)
                if bad is not None:
                    arc_no, arc = bad
                    _check_arcs(n, 1, [arc], first=arc_no)  # raises
            except MalformedGraphError as exc:
                raise CorruptFileError(f"{where}, {exc}") from None
            graphs.append(g)

        if fh.read(1):
            # the header, SPEC and COUNT lines, then one line per record and per arc
            line_no = 3 + count + sum(g.m for g in graphs) + 1
            raise CorruptFileError(f"trailing data after the last record (line {line_no})")
    return GenSpec(n1, n2, m1, m2, count, seed, weight_max), graphs
