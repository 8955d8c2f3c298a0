from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkroute import (
    MAX_NODES,
    CorruptFileError,
    GenSpec,
    Graph,
    MalformedGraphError,
    UnsupportedFormatError,
    generate_set,
    read_set,
    write_set,
)
from bkroute.setfile import MAGIC, VERSION, _as_int, _raise_arc_error

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


@pytest.mark.parametrize(
    "text,msg", [("XKSET 1", "not a BKSET file"), ("BKSET 2", "version '2'")]
)
def test_unterminated_file_keeps_its_format_error(tmp_path, text, msg):
    with pytest.raises(UnsupportedFormatError, match=msg):
        read_set(_write(tmp_path, text))


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
