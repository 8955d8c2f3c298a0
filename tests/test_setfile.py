from __future__ import annotations

import os
import random
import tempfile
from typing import NoReturn

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkroute import (
    MAX_NODES,
    MAX_WEIGHT,
    CorruptFileError,
    GenSpec,
    Graph,
    MalformedGraphError,
    RngStream,
    UnsupportedFormatError,
    draw_graph,
    generate_set,
    read_set,
    write_set,
)
from bkroute import setfile
from bkroute.setfile import _ARC_FIELDS, MAGIC, VERSION, _as_int, _int_fields
from helpers import large_record, traced

TINY_SPEC = GenSpec(2, 2, 1, 1, 2, 42)

# This exact byte string also pins the generator: if the underlying bit
# stream ever drifted across platforms or versions, this test would notice.
GOLDEN = "BKSET 1\nSPEC 2 2 1 1 42 100\nCOUNT 2\nG 2 1\n2 1 15\nG 2 1\n1 2 95\n"


def test_golden_bytes(tmp_path):
    path = tmp_path / "g.bkset"
    write_set(generate_set(TINY_SPEC), TINY_SPEC, path)
    assert path.read_bytes().decode("utf-8") == GOLDEN


def test_single_graph_body(tmp_path):
    path = tmp_path / "one.bkset"
    spec = GenSpec(2, 2, 1, 1, 1, 7)
    write_set([Graph(2, *zip((1, 2, 7)))], spec, path)
    assert path.read_text().endswith("COUNT 1\nG 2 1\n1 2 7\n")


def test_empty_set_is_header_only(tmp_path):
    path = tmp_path / "empty.bkset"
    write_set([], TINY_SPEC, path)
    assert path.read_text() == "BKSET 1\nSPEC 2 2 1 1 42 100\nCOUNT 0\n"
    spec, out = read_set(path)
    assert out == []
    assert spec.count == 0


def test_round_trip(tmp_path):
    spec = GenSpec(2, 12, 1, 60, 25, 4242)
    graphs = generate_set(spec)
    path = tmp_path / "s.bkset"
    write_set(graphs, spec, path)
    spec2, graphs2 = read_set(path)
    assert graphs2 == graphs
    assert spec2 == spec


def test_reserialization_is_byte_identical(tmp_path):
    spec = GenSpec(3, 8, 2, 30, 10, 31337)
    p1 = tmp_path / "a.bkset"
    p2 = tmp_path / "b.bkset"
    write_set(generate_set(spec), spec, p1)
    spec2, graphs2 = read_set(p1)
    write_set(graphs2, spec2, p2)
    assert p1.read_bytes() == p2.read_bytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_round_trip_over_seeds(seed):
    spec = GenSpec(2, 9, 1, 30, 8, seed)
    graphs = generate_set(spec)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.bkset")
        write_set(graphs, spec, path)
        spec2, graphs2 = read_set(path)
    assert graphs2 == graphs
    assert spec2 == spec


def _write(tmp_path, text):
    path = tmp_path / "bad.bkset"
    path.write_text(text)
    return path


def test_wrong_magic(tmp_path):
    with pytest.raises(UnsupportedFormatError):
        read_set(_write(tmp_path, "XKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 0\n"))


def test_unknown_version(tmp_path):
    with pytest.raises(UnsupportedFormatError, match="version"):
        read_set(_write(tmp_path, "BKSET 2\nSPEC 2 2 1 1 0 100\nCOUNT 0\n"))


def test_empty_file(tmp_path):
    with pytest.raises(UnsupportedFormatError):
        read_set(_write(tmp_path, ""))


@pytest.mark.parametrize(
    "data",
    [
        "BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 0\n".encode("utf-16"),
        b"\xffBKSET 1\n",
        b"BKSET 1 \xff\n",
        b"BKSET 2\nSPEC 2 2 1 1 0 100\nCOUNT 0\n\x80",
    ],
    ids=["utf-16", "bad-first-byte", "bad-byte-in-header", "version-2"],
)
def test_non_utf8_without_the_header_is_unsupported(tmp_path, data):
    path = tmp_path / "binary.bkset"
    path.write_bytes(data)
    with pytest.raises(UnsupportedFormatError, match="^not a BKSET file$"):
        read_set(path)


@pytest.mark.parametrize(
    "data,line",
    [
        (b"BKSET 1\n\xff", 2),
        (b"BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 2 1\n1 2 7\xe2\x82\n", 5),
        (b"BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 2 1\n1 2 7\n\xc0\n", 6),
    ],
    ids=["spec-line", "cut-sequence", "trailing-line"],
)
def test_non_utf8_after_the_header_is_corrupt_at_its_line(tmp_path, data, line):
    path = tmp_path / "binary.bkset"
    path.write_bytes(data)
    with pytest.raises(CorruptFileError, match=f"^line {line} is not UTF-8 text$"):
        read_set(path)


def test_malformed_spec_line(tmp_path):
    with pytest.raises(CorruptFileError, match="SPEC"):
        read_set(_write(tmp_path, "BKSET 1\nSPEC 2 2 1 1\nCOUNT 0\n"))


HEADER = "BKSET 1\nSPEC 2 4 1 5 7 100\n"


@pytest.mark.parametrize(
    "body,msg",
    [
        ("COUNT 2\nG 2 1\n1 2 7\n", "graph 2"),  # fewer records than declared
        ("COUNT 1\nG 2 2\n1 2 7\n", "graph 1"),  # fewer arcs than declared
        ("COUNT 1\nG 2 1\n1 1 7\n", "loop"),
        ("COUNT 1\nG 2 2\n1 2 7\n1 2 9\n", "duplicate"),
        ("COUNT 1\nG 2 1\n1 3 7\n", "out of range"),
        ("COUNT 1\nG 2 1\n1 2 -4\n", "weight"),
        ("COUNT 1\nG 2 1\n1 2 x\n", "integer"),
        ("COUNT 1\nG 1 0\n", "node count"),
        ("COUNT 1\nG 2 1\n1 2 7\nextra\n", "trailing"),
        ("COUNT x\n", "integer"),
        ("NOPE 1\n", "COUNT"),
        ("COUNT 1\nG 2 1\n1 2 +7\n", "graph 1, arc 1: weight"),
        ("COUNT 1\nG 2 1\n01 2 7\n", "graph 1, arc 1: origin node"),
        ("COUNT 1\nG 2 1\n1 2 1_5\n", "canonical"),
        ("COUNT 1\nG 2 1\n1 2 -0\n", "canonical"),
        ("COUNT 1\nG 2 1\n1 \u0662 7\n", "destination node"),
        ("COUNT 1\nG 2 01\n1 2 7\n", "arc count"),
        ("COUNT 1\nG 3 2\n1 2 7\n2 2 4\n", "graph 1, arc 2 .*loop"),
        # a body that starts with the magic replaces HEADER
        ("BKSET 1\nSPEC 2 4 1 5 +7 100\nCOUNT 0\n", "SPEC line: seed"),
        ("COUNT 1\nG 2 1\n1 2 7", "^the final line feed is missing$"),
        ("COUNT 1\nG 2 0", "^the final line feed is missing$"),
        ("COUNT 0", "^the final line feed is missing$"),
        # an arc block ends where the next "G" is, or at the end of the text
        ("COUNT 2\nG 2 1\n1 2 7\n2 1 3\nG 2 1\n1 2 7\n", "graph 2: malformed record header '2 1 3'"),
        ("COUNT 1\nG 2 1\n1 G 7\n", "graph 1, arc 1: destination node"),
        ("COUNT 2\nG 2 2\n1 2 7\nG 2 1\n1 2 7\n", "graph 1, arc 2: origin node"),
        ("COUNT 1\nG 3 1\n1 2 7\n\n", r"trailing data after the last record \(line 6\)"),
    ],
)
def test_corrupt_files_name_the_offending_record(tmp_path, body, msg):
    text = body if body.startswith("BKSET") else HEADER + body
    with pytest.raises(CorruptFileError, match=msg):
        read_set(_write(tmp_path, text))


def test_a_record_cannot_claim_more_than_max_nodes(tmp_path):
    # 47 bytes that claim a million nodes: building, solving and checking a
    # record cost time and memory in proportion to the n its header claims
    text = "BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 1\nG 1000000 0\n"
    assert len(text) == 47
    with pytest.raises(CorruptFileError) as exc:
        read_set(_write(tmp_path, text))
    assert str(exc.value) == f"graph 1, node count must be at most {MAX_NODES}, got 1000000"
    _, (g,) = read_set(_write(tmp_path, text.replace("1000000", str(MAX_NODES))))
    assert (g.n, g.m) == (MAX_NODES, 0)


def test_a_token_past_the_int_digit_limit_is_corrupt(tmp_path):
    text = HEADER + "COUNT 1\nG 3 2\n1 2 7\n2 3 " + "9" * 5000 + "\n"
    with pytest.raises(CorruptFileError, match="^graph 1, arc 2: weight is not a canonical"):
        read_set(_write(tmp_path, text))
    # the first bad line is named, as the line-by-line reference names it,
    # even when a later line is bad too
    text = HEADER + "COUNT 1\nG 3 2\n1 2 " + "9" * 5000 + "\n2 3 +1\n"
    with pytest.raises(CorruptFileError, match="^graph 1, arc 1: weight is not a canonical"):
        read_set(_write(tmp_path, text))


def test_reading_a_large_record_costs_a_small_multiple_of_its_text(tmp_path):
    # one record of 50000 arcs, 0.49 MB of text; matching it with a
    # backtracking regular expression took 30.8 MB
    g = draw_graph(1000, 50000, RngStream(16), 9)
    path = tmp_path / "large.bkset"
    write_set([g], GenSpec(1000, 1000, 50000, 50000, 1, 16, 9), path)
    (_, (back,)), _, peak = traced(read_set, path)
    assert peak < 16 * 2**20
    assert back == g


@pytest.fixture(scope="module")
def valid_record(tmp_path_factory):
    """A file of one record of 10**5 arcs (n=1000, 0.98 MB of text), what
    reading it returns and the traced peak of that read, measured once for
    every test that checks or compares to it."""
    valid = tmp_path_factory.mktemp("valid") / "valid.bkset"
    write_set([large_record()], GenSpec(1000, 1000, 10**5, 10**5, 1, 16, 9), valid)
    read, _, valid_peak = traced(read_set, valid)
    return valid, read, valid_peak


def test_reading_a_record_packs_its_columns_as_it_goes(valid_record):
    # each slice is packed into the record's columns, and the duplicate
    # check marks a 1 MB byte table; list columns and a set of pairs peaked
    # at 14.75 MiB
    _, (_, (back,)), peak = valid_record
    assert peak < 4 * 2**20
    assert back == large_record()


@pytest.mark.parametrize("slice_lines", [None, 2])
@pytest.mark.parametrize("big", [2**31, 2**63, 2**64, -(2**31) - 1])
@pytest.mark.parametrize(
    "field,reason",
    [
        (0, "node index out of range for n=3"),
        (1, "node index out of range for n=3"),
        (2, "weight must be an integer in [0, 1000000000]"),
    ],
    ids=["origin", "destination", "weight"],
)
def test_a_value_beyond_32_bits_names_its_arc(
    tmp_path, monkeypatch, slice_lines, big, field, reason
):
    # no Graph admits such a value, so the old texts are expected, never an
    # OverflowError from packing the record's columns
    if slice_lines:  # the bad line in a later slice than the first
        monkeypatch.setattr(setfile, "_SLICE", slice_lines)
    arc = [3, 2, 9]
    arc[field] = big
    lines = ["1 2 7", "2 3 5", "%d %d %d" % tuple(arc), "3 1 4"]
    cases = [
        (lines, f"graph 1, arc 3 ({arc[0]}, {arc[1]}, {arc[2]}): {reason}"),
        # a duplicate before it is the first broken arc
        (
            lines[:1] + ["1 2 8"] + lines[2:],
            "graph 1, arc 2 (1, 2, 8): duplicate ordered pair (1, 2)",
        ),
        # a line that is not an arc line is found before any arc is checked
        (lines[:3] + ["3 1 +4"], "graph 1, arc 4: weight is not a canonical decimal integer: '+4'"),
    ]
    for arc_lines, text in cases:
        path = _write(tmp_path, HEADER + "COUNT 1\nG 3 4\n" + "\n".join(arc_lines) + "\n")
        with pytest.raises(CorruptFileError) as exc:
            read_set(path)
        assert str(exc.value) == text
        assert _outcome(_line_by_line_read_set, path) == (CorruptFileError, text)


@pytest.mark.parametrize("bad_arc", [1, 10**5], ids=["first", "last"])
def test_a_record_refused_for_a_value_beyond_32_bits_costs_what_a_valid_one_does(
    tmp_path, valid_record, bad_arc
):
    # the valid record read once more with one weight set to 2**31. Reading
    # the rest of the refused record into list columns peaked at 7.5 (first)
    # and 8.2 MiB (last arc); the valid read peaks at 2.49 MiB.
    valid, _, valid_peak = valid_record
    lines = valid.read_bytes().split(b"\n")
    i, j, w = lines[3 + bad_arc].split(b" ")  # after BKSET, SPEC, COUNT and G lines
    lines[3 + bad_arc] = b"%s %s %d" % (i, j, 2**31)
    refused = _write_bytes(tmp_path, b"\n".join(lines))

    def refuse():
        with pytest.raises(CorruptFileError) as exc:
            read_set(refused)
        return exc

    exc, _, refused_peak = traced(refuse)
    assert str(exc.value) == (
        f"graph 1, arc {bad_arc} ({int(i)}, {int(j)}, {2**31}): "
        f"weight must be an integer in [0, {MAX_WEIGHT}]"
    )
    assert refused_peak < 1.1 * valid_peak, (refused_peak, valid_peak)


def _wide_record(r: int, m: int) -> Graph:
    """A record of m arc lines about as long as the format allows (nodes
    near MAX_NODES, weights near 10**9), so that a file reaches megabytes
    with few arcs."""
    n = MAX_NODES
    src = [n - k for k in range(m)]
    return Graph(n, src, [(i - 2 - r) % n + 1 for i in src], [10**9 - k for k in range(m)])


def test_reading_a_file_holds_its_graphs_and_one_slice(tmp_path):
    # 40 records, 2.2 MB of text. Holding the whole text and a record's
    # tokens cost 2.8 MB beyond the graphs, more for a larger file; one
    # slice of lines costs the same whatever the size of the file.
    graphs = [_wide_record(r, 2500) for r in range(40)]
    path = tmp_path / "wide.bkset"
    write_set(graphs, GenSpec(2, MAX_NODES, 1, 2500, 40, 3, 10**9), path)
    assert path.stat().st_size > 2 * 10**6
    (_, back), held, peak = traced(read_set, path)
    assert peak - held < 1.5 * 2**20
    assert back == graphs


def test_writing_a_large_record_holds_one_slice(tmp_path):
    # one record of 10**5 arcs, about 2.2 MB of text; formatting it whole
    # held a 3m-long list, its tuple and the record's text, 7.9 MB
    g = _wide_record(0, 10**5)
    path = tmp_path / "large.bkset"
    _, held, peak = traced(write_set, [g], GenSpec(2, MAX_NODES, 1, 10**5, 1, 3, 10**9), path)
    assert peak - held < 2**20
    assert read_set(path)[1] == [g]


#: Three lines, 35 bytes: a valid file with no records.
EMPTY_SET = b"BKSET 1\nSPEC 2 2 1 1 0 100\nCOUNT 0\n"


def _write_bytes(tmp_path, data: bytes):
    path = tmp_path / "edge.bkset"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize(
    "char", ["\u00e9", "\u20ac", "\U0001f600"], ids=["2-byte", "3-byte", "4-byte"]
)
def test_a_character_cut_by_a_chunk_edge_is_text(tmp_path, monkeypatch, char):
    monkeypatch.setattr(setfile, "_CHUNK", 16)
    code = char.encode()
    for before in range(1, len(code)):  # bytes of it in the chunk that ends at byte 48
        data = EMPTY_SET + b"x" * (48 - len(EMPTY_SET) - before) + code + b"\n"
        assert data[48 - before : 48 - before + len(code)] == code
        with pytest.raises(CorruptFileError) as exc:
            read_set(_write_bytes(tmp_path, data))
        assert str(exc.value) == "trailing data after the last record (line 4)"


@pytest.mark.parametrize(
    "tail",
    [
        b"y\xff\n",  # byte 48, the first of a chunk
        b"\xff\n",  # byte 47, the last of a chunk
        b"\xe2\n",  # a sequence the chunk edge cuts, then ended by LF
        b"\xf0\x9f\x98",  # a sequence the end of the file cuts
    ],
    ids=["first-of-chunk", "last-of-chunk", "cut-then-bad", "cut-by-eof"],
)
def test_a_bad_byte_at_a_chunk_edge_is_named_by_its_line(tmp_path, monkeypatch, tail):
    monkeypatch.setattr(setfile, "_CHUNK", 16)
    data = EMPTY_SET + b"x\n" * 6 + tail  # lines 4 to 9 fill bytes 35 to 46
    with pytest.raises(CorruptFileError, match="^line 10 is not UTF-8 text$"):
        read_set(_write_bytes(tmp_path, data))


@pytest.mark.parametrize(
    "data,msg",
    [
        (b"BKSET 1" + b"0" * 200 + b"\n", "unsupported BKSET version '1" + "0" * 200 + "'"),
        (b"BKSET " + b"1" * 200, "unsupported BKSET version '" + "1" * 200 + "'"),
        (b"BKSET " + b"1" * 200 + b" 1\n", "not a BKSET file"),
        (b"X" * 200, "not a BKSET file"),
        (b"BKSET 1" + b"x" * 200 + b"\xff", "not a BKSET file"),
    ],
    ids=["long-version", "long-version-no-lf", "long-with-space", "bad-header", "not-utf8"],
)
def test_a_first_line_longer_than_the_prefix_keeps_its_message(tmp_path, data, msg):
    assert len(data) > setfile._PREFIX
    with pytest.raises(UnsupportedFormatError) as exc:
        read_set(_write_bytes(tmp_path, data))
    assert str(exc.value) == msg


@pytest.mark.parametrize(
    "char,count", [("1", 4 * 2**20), ("\u20ac", 30000)], ids=["4-MiB", "3-byte-cut"]
)
def test_a_long_version_token_is_read_and_quoted_up_to_a_bound(tmp_path, char, count):
    # reading and quoting the whole of a 4 MiB token peaked at 16 MiB. The
    # bound cuts the second case inside a character, which is dropped.
    path = _write_bytes(tmp_path, b"BKSET " + (char * count).encode() + b"\n")
    bound, width = setfile._PREFIX - len("BKSET ") + setfile._CHUNK, len(char.encode())
    assert width * count > bound
    (kind, msg), _, peak = traced(_outcome, read_set, path)
    assert (kind, msg) == (
        UnsupportedFormatError, f"unsupported BKSET version {char * (bound // width)!r}"
    )
    assert peak < 2**20


@pytest.mark.parametrize(
    "text,msg", [("XKSET 1", "not a BKSET file"), ("BKSET 2", "version '2'")]
)
def test_unterminated_file_keeps_its_format_error(tmp_path, text, msg):
    with pytest.raises(UnsupportedFormatError, match=msg):
        read_set(_write(tmp_path, text))


def _raise_arc_error(line: str | None, at: str) -> NoReturn:
    """Raise the CorruptFileError for an arc line (None past the end of the
    file) that is not three canonical decimal integers."""
    if line is None:
        raise CorruptFileError(f"unexpected end of file while reading {at}")
    _int_fields(line, "", _ARC_FIELDS, at, f"{at}: expected 'i j w', got {line!r}")
    raise AssertionError(f"{at}: arc line {line!r} is well formed")


def _line_by_line_read_set(source):
    """The reader as it was before records were matched on the text: it
    splits the file into lines and checks one arc line at a time. Kept as
    the reference that read_set must agree with."""
    with open(source, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise UnsupportedFormatError("empty file is not a BKSET file")

    pos = 0

    def next_line(context):
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

    graphs = []
    for gi in range(1, count + 1):
        where = f"graph {gi}"
        g_tok = next_line(where).split(" ")
        if len(g_tok) != 3 or g_tok[0] != "G":
            raise CorruptFileError(f"{where}: malformed record header {lines[pos - 1]!r}")
        n = _as_int(g_tok[1], "node count", where)
        m = _as_int(g_tok[2], "arc count", where)
        if m < 0:
            raise CorruptFileError(f"{where}: negative arc count {m}")
        arcs = []
        for ai in range(1, m + 1):
            line = lines[pos] if pos < len(lines) else None
            try:
                i, j, w = map(int, line.split(" "))
            except (AttributeError, ValueError):  # no line, a wrong count or a non-int
                i = None
            if i is None or f"{i} {j} {w}" != line:
                _raise_arc_error(line, f"{where}, arc {ai}")
            pos += 1
            arcs.append((i, j, w))
        try:
            graphs.append(Graph(n, *zip(*arcs)))
        except MalformedGraphError as exc:
            raise CorruptFileError(f"{where}, {exc}") from None

    if pos != len(lines):
        raise CorruptFileError(f"trailing data after the last record (line {pos + 1})")
    return GenSpec(n1, n2, m1, m2, count, seed, weight_max), graphs


#: Text that the mutations insert: each is either outside the canonical
#: form (a sign, an underscore, a carriage return, a tab, a non-ASCII
#: digit, "-0") or changes a line's shape or value ("-", " ", "0", LF, a
#: letter).
_INSERTS = ["\r", "\t", "+", "_", "-", "-0", "\u0662", " ", "0", "\n", "x"]
_TRAILERS = ["extra\n", "\n", "1 2 3\n", "G 2 1\n1 2 3\n"]


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(9)
    if kind == 0:
        return text[:pos] + rng.choice(_INSERTS) + text[pos:]
    if kind == 1:
        return text[:pos] + text[pos + 1 :]
    if kind == 2:
        return text[:pos]
    if kind == 3:
        return "\n".join(lines[: k + 1] + lines[k:])
    if kind == 4:
        return "\n".join(lines[:k] + lines[k + 1 :])
    if kind == 5:
        return "\n".join(lines[:k] + [""] + lines[k:])
    if kind == 6:
        return text + rng.choice(_TRAILERS)
    # a sign on a token: a negative node or weight, or a non-canonical "-0"
    starts = [i for i, c in enumerate(text) if c.isdigit() and (i == 0 or text[i - 1] in " \n")]
    if not starts:
        return text + "-"
    i = rng.choice(starts)
    if kind == 7:
        return text[:i] + "-" + text[i:]
    end = i
    while end < len(text) and text[end].isdigit():
        end += 1
    return text[:i] + "-0" + text[end:]


def _mutated_corpus(path):
    """A fixed corpus: 30 small generated sets, with weights up to 1, 5 and
    100, and 100 texts one or two mutations away from each."""
    rng = random.Random(20091)
    corpus = []
    for weight_max in (1, 5, 100):
        for seed in range(10):
            spec = GenSpec(2, 5, 1, 8, 3, seed, weight_max)
            write_set(generate_set(spec), spec, path)
            text = path.read_text()
            corpus.append(text)
            for _ in range(100):
                mutated = _mutate(text, rng)
                if rng.random() < 0.3:
                    mutated = _mutate(mutated, rng)
                corpus.append(mutated)
    return corpus


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


def test_reader_agrees_with_the_line_by_line_reference(tmp_path):
    path = tmp_path / "m.bkset"
    read_ok = unterminated = 0
    messages = set()
    for text in _mutated_corpus(path):
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_line_by_line_read_set, path)
        got = _outcome(read_set, path)
        if text and not text.endswith("\n") and expected[0] is not UnsupportedFormatError:
            # the one intended difference: an unterminated last line is corrupt
            assert got == (CorruptFileError, "the final line feed is missing"), text
            unterminated += 1
            continue
        assert got == expected, text
        if isinstance(got[1], list):
            read_ok += 1
        else:
            messages.add(got[1])
    # the corpus reaches every kind of outcome, not only one
    assert read_ok > 50 and unterminated > 200 and len(messages) > 500


def test_slice_and_chunk_sizes_change_no_outcome(tmp_path, monkeypatch):
    # with 2-line slices and 5-byte chunks, records span many slices and
    # lines span chunk edges; every outcome stays what the default sizes give
    path = tmp_path / "m.bkset"
    corpus = _mutated_corpus(path)[::3]
    expected = []
    for text in corpus:
        path.write_bytes(text.encode("utf-8"))
        expected.append(_outcome(read_set, path))
    monkeypatch.setattr(setfile, "_SLICE", 2)
    monkeypatch.setattr(setfile, "_CHUNK", 5)
    for text, outcome in zip(corpus, expected):
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_set, path) == outcome, text
