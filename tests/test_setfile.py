from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkroute import (
    CorruptFileError,
    GenSpec,
    Graph,
    UnsupportedFormatError,
    generate_set,
    read_set,
    write_set,
)

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
    write_set([Graph(2, [(1, 2, 7)])], spec, path)
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
    ],
)
def test_corrupt_files_name_the_offending_record(tmp_path, body, msg):
    text = body if body.startswith("BKSET") else HEADER + body
    with pytest.raises(CorruptFileError, match=msg):
        read_set(_write(tmp_path, text))
