"""Seeded instance generators.

All generators are pure functions of (parameters, seed): randomness comes
from the Philox counter-based bit generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream,))``, and each vertex
pair consumes the stream in lexicographic order, so outputs are bit-exact
across platforms and reruns.  Probabilities are exact rationals: a pair is
an edge iff its 64-bit draw is below floor(p * 2^64).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, ParameterError
from .graphs import Graph, UniformHypergraph
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


def rng_for(seed: int, stream: int | None = None) -> np.random.Generator:
    """Philox generator for (seed, stream); stream=None is the root stream."""
    key = (stream,) if stream is not None else ()
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _pair_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.integers(0, _TWO64, size=count, dtype=np.uint64)


def _threshold(p: Fraction) -> int:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0,1]")
    return (p.numerator * _TWO64) // p.denominator if p < 1 else _TWO64


def gnp(n: int, p: Fraction, seed: int, stream: int | None = None) -> Graph:
    """Erdos-Renyi graph: each pair independently an edge with probability p."""
    pairs = list(itertools.combinations(range(n), 2))
    draws = _pair_draws(rng_for(seed, stream), len(pairs))
    thr = _threshold(p)
    edges = [pair for pair, d in zip(pairs, draws) if int(d) < thr]
    return Graph.from_edges(n, edges)


def random_tournament(n: int, seed: int, stream: int | None = None) -> Tournament:
    """Each pair oriented by an independent fair coin."""
    pairs = list(itertools.combinations(range(n), 2))
    draws = _pair_draws(rng_for(seed, stream), len(pairs))
    out = [0] * n
    for (u, v), d in zip(pairs, draws):
        if int(d) < _TWO64 // 2:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return Tournament(n, tuple(out))


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    if any(s <= 0 for s in part_sizes):
        raise InputError("part sizes must be positive")
    n = sum(part_sizes)
    part_of = []
    for i, s in enumerate(part_sizes):
        part_of += [i] * s
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph.from_edges(n, edges)


def equitable_parts(n: int, s: int) -> list[list[int]]:
    """``s`` nonempty contiguous index blocks of ``range(n)`` with sizes
    differing by at most one; needs 1 <= s <= n."""
    if not 1 <= s <= n:
        raise ParameterError(f"need 1 <= s <= n parts, got s={s}, n={n}")
    base, extra = divmod(n, s)
    parts = []
    start = 0
    for i in range(s):
        size = base + (1 if i < extra else 0)
        parts.append(list(range(start, start + size)))
        start += size
    return parts


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
    inv = 1 / (5 * eps)
    s = max(1, int(inv + Fraction(1, 2)))  # round half up
    parts = tuple(tuple(p) for p in equitable_parts(n, s))
    cross = {
        (u, v)
        for i, pu in enumerate(parts)
        for j, pv in enumerate(parts)
        if i < j
        for u in pu
        for v in pv
    }
    base = gnp(n, 2 * eps, seed, stream=0)
    edges = set(base.edges()) | {(min(u, v), max(u, v)) for u, v in cross}
    graph = Graph.from_edges(n, edges)
    return OverlayArtifact(graph=graph, base=base, parts=parts, base_density=2 * eps, s=s)


def random_cograph(n: int, seed: int, stream: int | None = None) -> Graph:
    """Random recursive union/join construction; guaranteed free of induced
    4-vertex paths."""
    if n < 1:
        raise InputError("n must be >= 1")
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

    return Graph(n, tuple(build(n)))


def random_bipartite(n: int, p: Fraction, seed: int, stream: int | None = None) -> Graph:
    """Random balanced split plus cross edges at rate p; guaranteed bipartite."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = rng_for(seed, stream)
    perm = [int(v) for v in rng.permutation(n)]
    left = set(perm[: (n + 1) // 2])
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u in left) != (v in left)
    ]
    draws = _pair_draws(rng, len(pairs))
    thr = _threshold(p)
    return Graph.from_edges(n, [pair for pair, d in zip(pairs, draws) if int(d) < thr])


def random_uniform_hypergraph(r: int, n: int, p: Fraction, seed: int, stream: int | None = None):
    """Each r-subset independently an edge with probability p (lexicographic
    tuple order)."""
    tuples = list(itertools.combinations(range(n), r))
    draws = _pair_draws(rng_for(seed, stream), len(tuples))
    thr = _threshold(p)
    return UniformHypergraph.from_edges(r, n, [t for t, d in zip(tuples, draws) if int(d) < thr])


def perturb_edges(g: Graph, flips: int, seed: int, stream: int | None = None) -> Graph:
    """Flip `flips` distinct uniformly chosen vertex pairs."""
    pairs = list(itertools.combinations(range(g.n), 2))
    if flips > len(pairs):
        raise InputError(f"cannot flip {flips} of {len(pairs)} pairs")
    rng = rng_for(seed, stream)
    chosen = rng.choice(len(pairs), size=flips, replace=False)
    rows = list(g.masks)
    for idx in sorted(int(i) for i in chosen):
        u, v = pairs[idx]
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(g.n, tuple(rows))


def random_independent_set(structure, seed: int, stream: int | None = None) -> frozenset[int]:
    """Greedy independent set over a random vertex order (graphs and uniform
    hypergraphs); useful as fingerprint input."""
    from .containers import is_independent  # a top-level import would load mpmath in `construct`

    rng = rng_for(seed, stream)
    order = [int(v) for v in rng.permutation(structure.n)]
    chosen: set[int] = set()
    for v in order:
        if is_independent(structure, chosen | {v}):
            chosen.add(v)
    return frozenset(chosen)
