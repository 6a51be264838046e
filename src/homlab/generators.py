"""Seeded instance generators.

All generators are pure functions of (parameters, seed): randomness comes
from the Philox counter-based bit generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream,))``, so outputs are
bit-exact across platforms and reruns.  One draw rule, in ``_coins``, serves
every random edge set: the candidate pairs (or r-subsets) take one 64-bit
word each in lexicographic order, and a candidate is an edge iff its word is
below floor(p * 2^64), p an exact rational.  ``_coins`` returns that rule as
a boolean coin mask, drawn and compared in numpy one fixed-size chunk of
words at a time.  The words are the raw Philox words of
``rng.bit_generator.random_raw``, the words that
``rng.integers(0, 2**64, dtype=np.uint64)`` returns, without its range
checks.  A random graph reads no candidate tuples: ``_coin_rows`` writes
the mask into an n x n boolean matrix at the candidate pairs above the
diagonal (every pair for G(n, p), the pairs across the split for the
random bipartite graph) and at their mirror images below it, so both
triangles hold it, and packs each row into one integer.
``random_uniform_hypergraph`` lists its r-subsets as tuples of vertex bits,
compresses them with the mask and sums each kept one into its edge mask;
the hypergraph builds its incidence rows from those masks once, and
``random_independent_set`` reads them.  A random tournament
is the orientation of G(n, 1/2): for u < v, u beats v iff {u, v} is an
edge.  An instance may have at most 2^24 candidate edges, one drawn word
each; a larger one raises CapabilityError before any candidate is
enumerated.  A complete multipartite graph and a random cograph draw no edge
coins and are held to the same cap on their C(n, 2) pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapabilityError, InputError, ParameterError
from .graphs import Graph, UniformHypergraph, _bits
from .tournaments import Tournament

__all__ = [
    "rng_for",
    "gnp",
    "OverlayArtifact",
    "overlay_construction",
    "complete_multipartite",
    "random_tournament",
    "random_cograph",
    "random_bipartite",
    "random_uniform_hypergraph",
    "perturb_edges",
    "random_independent_set",
]

_TWO64 = 1 << 64
_MAX_DRAWS = 1 << 24  # candidate edges per instance; gnp(1000) draws 499,500
_CHUNK = 1 << 16  # words drawn at once (512 KB); an 8 MB chunk stayed resident once freed


def rng_for(seed: int, stream: int | None = None) -> np.random.Generator:
    """Philox generator for (seed, stream); stream=None is the root stream.
    A negative seed, which numpy's SeedSequence refuses, is an input error."""
    if seed < 0:
        raise InputError(f"seed {seed} is negative")
    key = (stream,) if stream is not None else ()
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _check_draws(count: int) -> None:
    if count > _MAX_DRAWS:
        raise CapabilityError(f"{count} candidate edges exceed the cap of {_MAX_DRAWS} per instance")


def _coins(rng: np.random.Generator, count: int, p: Fraction) -> np.ndarray:
    """The coin mask of ``count`` candidates: one word each, in order, and
    True iff the word is below floor(p * 2^64).  The words are the bit
    generator's raw 64-bit words: over the full uint64 range numpy's bounded
    draw returns them unchanged.  They are drawn and compared ``_CHUNK`` at a
    time, which gives the same words as one draw and holds at most one chunk
    of them."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0,1]")
    _check_draws(count)
    if p == 1:  # floor(p * 2^64) = 2^64 does not fit in a uint64, and every word is below it
        return np.ones(count, dtype=bool)
    below = np.uint64(p.numerator * _TWO64 // p.denominator)
    coins = np.empty(count, dtype=bool)
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        np.less(rng.bit_generator.random_raw(size), below, out=coins[start:start + size])
    return coins


def _candidates(n: int, r: int) -> int:
    """The number of r-subsets of ``range(n)``."""
    if n < 0:
        raise InputError(f"vertex count n={n} is negative")
    return math.comb(n, r)


def _coin_rows(cand: np.ndarray, coins: np.ndarray) -> list[int]:
    """The adjacency rows of the graph whose edges are the pairs {u, v}
    allowed by the symmetric boolean matrix ``cand`` whose coins win.
    ``cand`` is cut in place to its entries (u, v) with u < v, the
    candidates; boolean indexing reads them in row-major order, which is
    lexicographic order, so each takes its coin in draw order.  The coins are
    written into both triangles, through the matrix and through its
    transpose, and each row, packed into bytes, is one vertex's row integer."""
    idx = np.arange(len(cand))
    cand &= idx[:, None] < idx
    m = np.zeros(cand.shape, dtype=bool)
    m[cand] = coins
    m.T[cand] = coins
    n, width = len(m), len(m) + 7 >> 3
    data = np.packbits(m, axis=1, bitorder="little").tobytes()
    del m  # before the row integers are made
    return [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(n)]


def gnp(n: int, p: Fraction, seed: int, stream: int | None = None) -> Graph:
    """Erdos-Renyi graph: each pair independently an edge with probability p."""
    # n, p and the draw cap are checked before any n x n matrix is built
    coins = _coins(rng_for(seed, stream), _candidates(n, 2), p)
    return Graph(n, _coin_rows(np.ones((n, n), dtype=bool), coins))


def random_tournament(n: int, seed: int, stream: int | None = None) -> Tournament:
    """The orientation of ``gnp(n, 1/2, seed, stream)``, checked only as a
    ``Tournament``: u < v beats v iff {u, v} is an edge, so gnp's row u with
    its bits below u flipped (it has no bit u) is u's out-row."""
    coins = _coins(rng_for(seed, stream), _candidates(n, 2), Fraction(1, 2))
    rows = _coin_rows(np.ones((n, n), dtype=bool), coins)
    return Tournament(n, tuple(row ^ (1 << u) - 1 for u, row in enumerate(rows)))


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    if any(s <= 0 for s in part_sizes):
        raise InputError("part sizes must be positive")
    _check_draws(math.comb(sum(part_sizes), 2))
    full = (1 << sum(part_sizes)) - 1
    rows: list[int] = []
    for size in part_sizes:
        rows += [full & ~(((1 << size) - 1) << len(rows))] * size
    return Graph(len(rows), rows)


def equitable_parts(n: int, s: int) -> list[list[int]]:
    """``s`` nonempty contiguous index blocks of ``range(n)`` with sizes
    differing by at most one; needs 1 <= s <= n."""
    if not 1 <= s <= n:
        raise ParameterError(f"need 1 <= s <= n parts, got s={s}, n={n}")
    base, extra = divmod(n, s)
    starts = [i * base + min(i, extra) for i in range(s + 1)]  # the first `extra` get one more
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


@dataclass(frozen=True)
class OverlayArtifact:
    """Sparse random base graph overlaid with all cross-part edges."""

    graph: Graph
    base: Graph
    parts: tuple[tuple[int, ...], ...]  # a partition of range(graph.n)
    base_density: Fraction  # target density of the base graph (2*eps)
    s: int
    _owner: tuple[int, ...] = field(init=False, repr=False, compare=False)  # vertex -> its part

    def __post_init__(self) -> None:
        if sorted(v for part in self.parts for v in part) != list(range(self.graph.n)):
            raise InputError(f"parts must partition the vertices 0..{self.graph.n - 1}")
        owner = {v: i for i, part in enumerate(self.parts) for v in part}
        object.__setattr__(self, "_owner", tuple(owner[v] for v in range(self.graph.n)))

    def part_of(self, v: int) -> int:
        """Index of the part holding vertex ``v``."""
        if not 0 <= v < len(self._owner):
            raise InputError(f"vertex {v} not in any part")
        return self._owner[v]


def overlay_construction(n: int, epsilon: Fraction, seed: int) -> OverlayArtifact:
    """Sample a base graph of density 2*eps, partition equitably into
    s = round(1/(5*eps)) parts, and add all cross-part edges."""
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError(f"epsilon={eps} outside (0, 1/2)")
    s = max(1, int(1 / (5 * eps) + Fraction(1, 2)))  # round half up
    parts = tuple(tuple(p) for p in equitable_parts(n, s))
    base = gnp(n, 2 * eps, seed, stream=0)
    cross = complete_multipartite([len(part) for part in parts])
    graph = Graph(n, [b | c for b, c in zip(base.masks, cross.masks)])
    return OverlayArtifact(graph=graph, base=base, parts=parts, base_density=2 * eps, s=s)


def random_cograph(n: int, seed: int, stream: int | None = None) -> Graph:
    """Random recursive union/join construction; guaranteed free of induced
    4-vertex paths."""
    if n < 1:
        raise InputError("n must be >= 1")
    _check_draws(math.comb(n, 2))
    rng = rng_for(seed, stream)

    def build(size: int) -> list[int]:
        # returns adjacency rows (bitmasks) for a cograph on `size` vertices
        if size == 1:
            return [0]
        split = int(rng.integers(1, size))
        join = bool(int(rng.integers(0, 2)))
        left = build(split)
        right = build(size - split)
        rows = list(left) + [row << split for row in right]
        if join:
            left_mask = (1 << split) - 1
            right_mask = ((1 << (size - split)) - 1) << split
            for v in range(split):
                rows[v] |= right_mask
            for v in range(split, size):
                rows[v] |= left_mask
        return rows

    return Graph(n, build(n))


def random_bipartite(n: int, p: Fraction, seed: int, stream: int | None = None) -> Graph:
    """Random balanced split plus cross edges at rate p; guaranteed bipartite."""
    if n < 1:
        raise InputError("n must be >= 1")
    count = (n + 1) // 2 * (n // 2)
    _check_draws(count)  # before the permutation, which is sized by n
    rng = rng_for(seed, stream)
    left = np.zeros(n, dtype=bool)
    left[rng.permutation(n)[: (n + 1) // 2]] = True
    coins = _coins(rng, count, p)
    return Graph(n, _coin_rows(left[:, None] != left, coins))


def random_uniform_hypergraph(r: int, n: int, p: Fraction, seed: int, stream: int | None = None):
    """Each r-subset independently an edge with probability p (lexicographic
    tuple order).  The r-subsets are listed as tuples of vertex bits, so a
    kept one is its edge mask as soon as it is summed."""
    if r < 2:
        raise InputError("uniformity r must be >= 2")
    coins = _coins(rng_for(seed, stream), _candidates(n, r), p)
    bits = [1 << v for v in range(n)]
    return UniformHypergraph(r, n, tuple(map(sum, itertools.compress(
        itertools.combinations(bits, r), coins.tolist()))))


def perturb_edges(g: Graph, flips: int, seed: int, stream: int | None = None) -> Graph:
    """Flip `flips` distinct uniformly chosen vertex pairs."""
    pairs = list(itertools.combinations(range(g.n), 2))
    if not 0 <= flips <= len(pairs):
        raise InputError(f"cannot flip {flips} of {len(pairs)} pairs")
    rows = list(g.masks)
    for i in rng_for(seed, stream).choice(len(pairs), size=flips, replace=False).tolist():
        u, v = pairs[i]  # distinct pairs, so the order of the flips does not matter
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(g.n, rows)


def random_independent_set(structure, seed: int, stream: int | None = None) -> frozenset[int]:
    """Greedy independent set over a random vertex order (graphs and uniform
    hypergraphs); useful as fingerprint input.  On the container view (see
    ``UniformHypergraph``), v is taken unless an edge through it (in rows[v])
    is killed by no vertex drawn after v and none passed over."""
    rows, kill = structure._container_rows()
    order = rng_for(seed, stream).permutation(structure.n).tolist()
    later = [0] * (len(order) + 1)  # later[i]: what order[i:] kill
    for i in range(len(order) - 1, -1, -1):
        later[i] = later[i + 1] | kill[order[i]]
    chosen = passed = 0
    for i, v in enumerate(order):
        if rows[v] & ~(later[i + 1] | passed):
            passed |= kill[v]
        else:
            chosen |= 1 << v
    return frozenset(_bits(chosen))
