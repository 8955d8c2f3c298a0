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
from dataclasses import dataclass
from itertools import repeat
from operator import add, floordiv, ge, mod

from .graph import MAX_WEIGHT, Graph, max_arcs

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class GenSpec:
    """Generation parameters: node and arc count bounds, set size, seed.

    A requested arc count above n*(n-1) is legal and is clamped per graph
    at draw time.
    """

    n1: int
    n2: int
    m1: int
    m2: int
    count: int
    seed: int
    weight_max: int = 100

    def validate(self) -> None:
        for name, value in vars(self).items():  # bool and float are refused too
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.n1 <= self.n2:
            raise ValueError(f"need 2 <= n1 <= n2, got {self.n1}..{self.n2}")
        if not 1 <= self.m1 <= self.m2:
            raise ValueError(f"need 1 <= m1 <= m2, got {self.m1}..{self.m2}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not 1 <= self.weight_max <= MAX_WEIGHT:
            raise ValueError(f"weight_max must be in [1, {MAX_WEIGHT}], got {self.weight_max}")


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


def draw_graph(n: int, m_requested: int, rng: RngStream, weight_max: int = 100) -> Graph:
    """One random graph on n nodes: min(m_requested, n*(n-1)) arcs sampled
    uniformly without replacement, weights uniform integers in 1..weight_max."""
    pool = max_arcs(n)
    m = min(m_requested, pool)
    positions = rng.sample_positions(pool, m)
    # 1-based decode of pair index p: i = p // (n-1) + 1, and with
    # r = p % (n-1) + 1, j = r if r < i else r + 1
    src = tuple(map(add, map(floordiv, positions, repeat(n - 1)), repeat(1)))
    r = tuple(map(add, map(mod, positions, repeat(n - 1)), repeat(1)))
    dst = tuple(map(add, r, map(ge, r, src)))
    wt = [rng.uniform_int(1, weight_max) for _ in range(m)]
    return Graph.from_columns(n, src, dst, wt)


def draw_spec_instance(spec: GenSpec, rng: RngStream) -> tuple[int, int]:
    """Draw (n, requested m) for one graph. n comes first; m is clamped
    later, at draw time, so the stream layout never depends on n."""
    n = rng.uniform_int(spec.n1, spec.n2)
    m = rng.uniform_int(spec.m1, spec.m2)
    return n, m


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
        n, m_requested = draw_spec_instance(spec, rng)
        if m_requested > max_arcs(n):
            clamped += 1
        graphs.append(draw_graph(n, m_requested, rng, spec.weight_max))
    return GeneratedSet(graphs, clamped)


def generate_set(spec: GenSpec) -> list[Graph]:
    """Generate spec.count graphs, deterministically from spec alone."""
    return generate_set_detailed(spec).graphs
