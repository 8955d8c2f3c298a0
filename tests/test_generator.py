from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkroute import (
    MAX_WEIGHT,
    GenSpec,
    RngStream,
    draw_graph,
    draw_spec_instance,
    generate_set,
    generate_set_detailed,
    max_arcs,
    write_set,
)


def test_genspec_accepts_sane_bounds():
    GenSpec(2, 4, 1, 5, 3, 1).validate()
    GenSpec(90, 90, 8010, 8010, 1, 2**64 - 1).validate()
    GenSpec(2, 4, 1, 5, 3, 1, MAX_WEIGHT).validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n1=1),
        dict(n1=5),  # lower node bound above the upper one
        dict(m1=0),
        dict(m1=9, m2=8),
        dict(count=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(weight_max=0),
        dict(weight_max=MAX_WEIGHT + 1),
        dict(weight_max=2**40),
        dict(weight_max=1.5),
        dict(n2=4.0),
        dict(seed=True),
    ],
)
def test_genspec_rejects_bad_bounds(kwargs):
    base = dict(n1=2, n2=4, m1=1, m2=5, count=3, seed=1)
    base.update(kwargs)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        GenSpec(**base).validate()


def test_uniform_int_is_deterministic_and_in_bounds():
    a = RngStream(99)
    b = RngStream(99)
    xs = [a.uniform_int(3, 17) for _ in range(500)]
    assert xs == [b.uniform_int(3, 17) for _ in range(500)]
    assert all(3 <= x <= 17 for x in xs)
    assert {3, 17} <= set(xs)


def test_equal_bounds_consume_no_randomness():
    a = RngStream(5)
    b = RngStream(5)
    for _ in range(100):
        assert a.uniform_int(42, 42) == 42
    assert a.uniform_int(0, 1000) == b.uniform_int(0, 1000)


def test_uniform_int_rejects_empty_range():
    with pytest.raises(ValueError):
        RngStream(0).uniform_int(5, 4)


def _reference_uniform_ints(bits, lo, hi, count):
    """count draws of the frozen scheme, one getrandbits call per draw."""
    span = hi - lo + 1
    out = []
    for _ in range(count):
        if span == 1:
            out.append(lo)
            continue
        k = (span - 1).bit_length()
        r = bits(k)
        while r >= span:
            r = bits(k)
        out.append(lo + r)
    return out


def _reference_sample(bits, pool_size, k):
    """The frozen partial Fisher-Yates over a list, one draw per step. The
    list is a dict read with .get(i, i): entries never swapped stay implicit,
    so pools far too large to hold as a list can be checked."""
    pool = {}
    for t in range(k):
        (r,) = _reference_uniform_ints(bits, t, pool_size - 1, 1)
        pool[t], pool[r] = pool.get(r, r), pool.get(t, t)
    return [pool.get(t, t) for t in range(k)]


SPANS = sorted(
    {1, 2, MAX_WEIGHT}
    | {2**k + d for k in (1, 16, 30, 31, 32) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("span", SPANS)
def test_bulk_uniform_ints_are_the_per_call_stream(span):
    """A run of uniform_int calls, the way draw_graph draws its weights, is
    the frozen per-call stream at spans of every word width."""
    for seed, lo, count in [(1, 1, 50), (2, -7, 1), (3, 10**12, 7), (4, 0, 0)]:
        rng, ref = RngStream(seed), random.Random(seed)
        assert [rng.uniform_int(lo, lo + span - 1) for _ in range(count)] == (
            _reference_uniform_ints(ref.getrandbits, lo, lo + span - 1, count)
        )
        # the next word matches too: nothing was drawn ahead
        assert rng._bits(32) == ref.getrandbits(32)


# weights stop at MAX_WEIGHT < 2**30; 2**29 + 1 is the 30-bit span that rejects most
@pytest.mark.parametrize("weight_max", [1, 2, 3, 2**16 - 1, 2**16 + 1, 2**29 + 1, MAX_WEIGHT])
def test_draw_graph_is_the_reference_stream(weight_max):
    # n=2 and n=10 with m=90 or more are full shuffles; m=200 is clamped
    for seed, n, m in [(1, 2, 0), (2, 2, 2), (3, 5, 7), (4, 10, 90), (5, 10, 200), (6, 90, 400)]:
        rng, ref = RngStream(seed), random.Random(seed)
        g = draw_graph(n, m, rng, weight_max)
        m = min(m, max_arcs(n))
        positions = _reference_sample(ref.getrandbits, max_arcs(n), m)
        weights = _reference_uniform_ints(ref.getrandbits, 1, weight_max, m)
        arcs = []
        for p, w in zip(positions, weights):
            i0, r = divmod(p, n - 1)
            arcs.append((i0 + 1, (r if r < i0 else r + 1) + 1, w))
        assert g.arcs == tuple(arcs)
        # the next word matches too: nothing was drawn ahead
        assert rng._bits(32) == ref.getrandbits(32)


@pytest.mark.parametrize(
    "pool_size,k",
    [(0, 0), (1, 0), (1, 1), (2, 2), (5, 0), (6, 6), (90, 25), (90, 90),
     (2**16 + 1, 40), (8010, 8010), (8010, 7800),
     (2**32 + 3, 8),  # the first 3 steps span over 2**32, the rest one word
     (70000 * 69999, 40)],
)
def test_bulk_sample_positions_is_the_list_fisher_yates(pool_size, k):
    for seed in (0, 1, 2**64 - 1):
        rng, ref = RngStream(seed), random.Random(seed)
        assert rng.sample_positions(pool_size, k) == _reference_sample(ref.getrandbits, pool_size, k)
        assert rng._bits(32) == ref.getrandbits(32)


def test_sample_positions_is_a_plain_sample():
    rng = RngStream(11)
    got = rng.sample_positions(90, 25)
    assert len(got) == 25
    assert len(set(got)) == 25
    assert all(0 <= p < 90 for p in got)
    assert sorted(rng.sample_positions(6, 6)) == list(range(6))


def test_sample_positions_rejects_oversampling():
    with pytest.raises(ValueError):
        RngStream(0).sample_positions(4, 5)


def test_draw_graph_shape_and_weights():
    g = draw_graph(10, 40, RngStream(3))
    assert g.n == 10
    assert g.m == 40
    pairs = [(a.i, a.j) for a in g.arcs]
    assert len(set(pairs)) == len(pairs)
    assert all(a.i != a.j for a in g.arcs)
    assert all(1 <= a.w <= 100 for a in g.arcs)


def test_draw_graph_clamps_to_complete():
    g = draw_graph(10, 800, RngStream(1))
    assert g.m == max_arcs(10) == 90
    g3 = draw_graph(3, 6, RngStream(2))
    assert sorted((a.i, a.j) for a in g3.arcs) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]


def test_weight_ceiling_is_honored():
    g = draw_graph(5, 20, RngStream(8), weight_max=1)
    assert {a.w for a in g.arcs} == {1}


def test_draw_spec_instance_with_fixed_bounds():
    spec = GenSpec(50, 50, 30, 30, 1, 0)
    assert draw_spec_instance(spec, RngStream(0)) == (50, 30)


def test_draw_spec_instance_stays_in_bounds():
    spec = GenSpec(10, 30, 1, 100, 1, 0)
    rng = RngStream(4)
    for _ in range(200):
        n, m = draw_spec_instance(spec, rng)
        assert 10 <= n <= 30
        assert 1 <= m <= 100


def test_generate_set_count_and_shape():
    out = generate_set(GenSpec(10, 10, 10, 10, 1000, 123))
    assert len(out) == 1000
    assert all(g.n == 10 and g.m == 10 for g in out)


def test_generate_set_is_deterministic():
    spec = GenSpec(2, 9, 1, 40, 60, 777)
    assert generate_set(spec) == generate_set(spec)


def test_generate_set_differs_across_seeds():
    a = generate_set(GenSpec(5, 5, 8, 8, 10, 1))
    b = generate_set(GenSpec(5, 5, 8, 8, 10, 2))
    assert a != b


def test_clamp_counter():
    built = generate_set_detailed(GenSpec(3, 3, 6, 10, 50, 9))
    assert all(g.m == 6 for g in built.graphs)
    # requests above 6 arcs cannot fit on 3 nodes and get clamped
    assert built.clamped == 42


def test_single_arc_positions_are_roughly_uniform():
    rng = RngStream(2024)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        g = draw_graph(3, 1, rng)
        counts[(g.arcs[0].i, g.arcs[0].j)] += 1
    assert len(counts) == 6
    for pair, c in counts.items():
        assert abs(c / draws - 1 / 6) <= 0.02, pair


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_generated_graphs_are_always_well_formed(seed):
    for g in generate_set(GenSpec(2, 6, 1, 40, 5, seed)):
        pairs = [(a.i, a.j) for a in g.arcs]
        assert len(set(pairs)) == len(pairs)
        assert all(1 <= a.i <= g.n and 1 <= a.j <= g.n and a.i != a.j for a in g.arcs)
        assert all(1 <= a.w <= 100 for a in g.arcs)
        assert g.m <= max_arcs(g.n)


# SHA-256 of each written set and its clamp count, recorded when the draw
# order was frozen. Between them they draw an m whose span is over 2**32,
# weight_max 1 (no weight draws), MAX_WEIGHT, and a pool over 2**32.
GOLDEN_SETS = [
    (GenSpec(10, 30, 1, 200, 50, 7), 4,
     "9cfb1b7983c74d9e9c6e5f398750604896f4be04ce2b8f5c8a617dce2784fa0c"),
    (GenSpec(70, 90, 1000, 8010, 4, 5, MAX_WEIGHT), 0,
     "2619209146714c607ac65b0ed561316bb411f8c400c5d2bdc042f8373a25c4e3"),
    (GenSpec(2, 3, 1, 10**12, 20, 2**64 - 1, 1), 20,
     "301aea5ae6828bda44eec29ef539c417b9025804ad45f745b234acd9a6e3424e"),
    (GenSpec(70000, 70000, 40, 40, 2, 3, MAX_WEIGHT), 0,
     "e80a7ab560bb3ec5c23126c014a89cc5880f4deb28dbfb8d2686f84074719afd"),
]


@pytest.mark.parametrize("spec,clamped,digest", GOLDEN_SETS)
def test_generated_set_digest_is_frozen(tmp_path, spec, clamped, digest):
    built = generate_set_detailed(spec)
    path = tmp_path / "set.bkset"
    write_set(built.graphs, spec, path)
    assert built.clamped == clamped
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
