"""Stochastic graph sets, reproducible bit for bit from a 64-bit seed.

The randomness scheme below is frozen: changing any detail silently
breaks previously written golden files, so treat it like a file format.
All draws consume a single MT19937 stream (``random.Random(seed)``),
exclusively through ``getrandbits``:

* ``uniform_int(lo, hi)`` draws ``(span - 1).bit_length()`` bits and
  rejects values >= span, where span = hi - lo + 1. Equal bounds
  consume no bits.
* Arc positions are a partial Fisher-Yates shuffle over the ordered-pair
  index space [0, n*(n-1)): step t swaps position t with position
  ``uniform_int(t, pool_size - 1)``, and positions 0..m-1 are kept, in
  that order. This is sampling without replacement, never rejection.
* Pair index p decodes as i0 = p // (n-1), r = p % (n-1),
  j0 = r if r < i0 else r + 1, yielding the 1-based arc (i0+1, j0+1).
* Per graph, in order: node count n, requested arc count m, every arc
  position, then each arc's weight via ``uniform_int(1, weight_max)``.
  Graphs of a set consume the stream sequentially.

``RngStream.uniform_int`` is the only code that reads the stream: every
draw above is one ``uniform_int`` call, and each try of a draw is one
``getrandbits(k)`` call.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import add, floordiv, ge, mod

from .graph import MAX_NODES, MAX_WEIGHT, Graph, max_arcs

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class GenSpec:
    """Generation parameters: node and arc count bounds, set size, seed.

    A requested arc count above n*(n-1) is legal and is clamped per graph
    at draw time.

    `validate` owns the rules of every field. `bench.run_grid` reaches its
    count and seed rules by validating a spec with the master seed, the
    integer rule `_check_int` also checks `TimingPolicy.repeats` and
    `draw_graph`'s m_requested, and the weight_max rule `_check_weight_max`
    also guards `draw_graph`. n2 is bounded by `graph.MAX_NODES`; one
    graph's node count rule is `graph.max_arcs`. The weight_max default is
    written only here; `draw_graph` and the CLI read it from this class.
    """

    n1: int
    n2: int
    m1: int
    m2: int
    count: int
    seed: int
    weight_max: int = 100

    def validate(self) -> None:
        for name, value in vars(self).items():
            _check_int(name, value)
        if not 2 <= self.n1 <= self.n2:
            raise ValueError(f"need 2 <= n1 <= n2, got {self.n1}..{self.n2}")
        if self.n2 > MAX_NODES:
            raise ValueError(f"n2 must be at most {MAX_NODES}, got {self.n2}")
        if not 1 <= self.m1 <= self.m2:
            raise ValueError(f"need 1 <= m1 <= m2, got {self.m1}..{self.m2}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        _check_weight_max(self.weight_max)


def _check_int(name: str, value: object) -> None:
    if type(value) is not int:  # bool and float are refused too
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_weight_max(weight_max: int) -> None:
    _check_int("weight_max", weight_max)
    if not 1 <= weight_max <= MAX_WEIGHT:
        raise ValueError(f"weight_max must be in [1, {MAX_WEIGHT}], got {weight_max}")


class RngStream:
    """Deterministic random stream. uniform_int is its one draw: every other
    draw is built on it, as the module docstring freezes."""

    def __init__(self, seed: int):
        self._bits = random.Random(seed).getrandbits

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both bounds inclusive."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            return lo
        k = (span - 1).bit_length()
        r = self._bits(k)
        while r >= span:
            r = self._bits(k)
        return lo + r

    def sample_positions(self, pool_size: int, k: int) -> list[int]:
        """k distinct values from range(pool_size), by partial Fisher-Yates
        that stores only the positions a swap wrote: memory grows with k."""
        if not 0 <= k <= pool_size:
            raise ValueError(f"cannot sample {k} of {pool_size}")
        moved: dict[int, int] = {}  # position -> value, once a swap wrote it
        get = moved.get
        picked: list[int] = []
        for t in range(k):  # step t swaps t with r drawn from [t, pool_size - 1]
            r = self.uniform_int(t, pool_size - 1)
            picked.append(get(r, r))
            moved[r] = get(t, t)
        return picked


def draw_graph(
    n: int, m_requested: int, rng: RngStream, weight_max: int = GenSpec.weight_max
) -> Graph:
    """One random graph on n nodes: min(m_requested, n*(n-1)) arcs sampled
    uniformly without replacement, weights uniform integers in 1..weight_max.

    n (by `graph.max_arcs`), m_requested (an int >= 0; 0 draws no arc) and
    weight_max (by GenSpec's rule) are checked before anything is drawn, so
    a bad value leaves the stream untouched.
    """
    _check_weight_max(weight_max)
    _check_int("m_requested", m_requested)
    if m_requested < 0:
        raise ValueError(f"m_requested must be >= 0, got {m_requested}")
    pool = max_arcs(n)
    m = min(m_requested, pool)
    positions = rng.sample_positions(pool, m)
    # 1-based decode of pair index p: i = p // (n-1) + 1, and with
    # r = p % (n-1) + 1, j = r if r < i else r + 1. Each column is packed
    # as a Graph holds it as soon as it is made (from a list: an array
    # converts each value of an iterator twice), and the lists are dropped
    # before the Graph checks its arcs.
    src = array("i", list(map(add, map(floordiv, positions, repeat(n - 1)), repeat(1))))
    r = list(map(add, map(mod, positions, repeat(n - 1)), repeat(1)))
    del positions
    dst = array("i", list(map(add, r, map(ge, r, src))))
    del r
    wt = array("i", [rng.uniform_int(1, weight_max) for _ in range(m)])
    return Graph(n, src, dst, wt)


@dataclass(frozen=True)
class GeneratedSet:
    graphs: list[Graph]
    #: how many graphs had their requested m clamped down to n*(n-1)
    clamped: int


def generate_set_detailed(spec: GenSpec) -> GeneratedSet:
    """Generate spec.count graphs plus the clamp counter; a pure function
    of spec."""
    spec.validate()
    rng = RngStream(spec.seed)
    graphs: list[Graph] = []
    clamped = 0
    for _ in range(spec.count):
        # m is drawn from m1..m2 whatever n is; draw_graph clamps it
        n = rng.uniform_int(spec.n1, spec.n2)
        m_requested = rng.uniform_int(spec.m1, spec.m2)
        g = draw_graph(n, m_requested, rng, spec.weight_max)
        if g.m < m_requested:
            clamped += 1
        graphs.append(g)
    return GeneratedSet(graphs, clamped)


def generate_set(spec: GenSpec) -> list[Graph]:
    """Generate spec.count graphs, deterministically from spec alone."""
    return generate_set_detailed(spec).graphs
