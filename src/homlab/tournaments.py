"""Tournaments: cyclic-triangle counting, exact distance to transitivity
(with a brute-force oracle), transitive-subtournament counting and the text
format, read once, header first, as :mod:`homlab.graphs` reads.  The sampled
triangle/distance scan is the ``triangle-scan`` experiment kind, built on
these kernels in :mod:`homlab.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import CapabilityError, ConsistencyError, InputError
from .graphs import _count_k_sets, _pack, _read_header, _transposed

__all__ = [
    "Tournament",
    "TransitivityWitness",
    "cyclic_triangle_count",
    "dist_to_transitive_exact",
    "dist_to_transitive_bruteforce",
    "count_transitive_subtournaments",
    "read_tournament",
    "write_tournament",
]


@dataclass(frozen=True)
class Tournament:
    """Complete orientation of K_n; bit u of out[v] set iff v beats u."""

    n: int
    out: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "out", tuple(self.out))
        if len(self.out) != self.n:
            raise InputError(f"need n={self.n} out-neighbor rows")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.out):
            if row & ~full or row >> v & 1:
                raise InputError(f"row {v} out of range or reflexive")
        x, t, width = _transposed(self.out)
        if (x ^ t).bit_count() != self.n * (self.n - 1):  # x ^ t holds only pairs u != v below n
            defect = x ^ t ^ int.from_bytes(_pack([full ^ 1 << v for v in range(self.n)], width), "little")
            u, v = divmod((defect & -defect).bit_length() - 1, width)  # symmetric: the first u < v
            raise InputError(f"pair ({u},{v}) must be oriented exactly one way")

    def beats(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)


@dataclass(frozen=True)
class TransitivityWitness:
    ordering: tuple[int, ...]
    reversals: int

    def validate(self, t: Tournament) -> None:
        if sorted(self.ordering) != list(range(t.n)):
            raise InputError("witness ordering is not a permutation")
        back = sum(
            1
            for i, u in enumerate(self.ordering)
            for v in self.ordering[i + 1 :]
            if t.beats(v, u)
        )
        if back != self.reversals:
            raise ConsistencyError(f"witness claims {self.reversals} reversals, found {back}")


def cyclic_triangle_count(t: Tournament) -> int:
    """Exact number of 3-subsets forming a directed cycle.

    Computed two independent ways and cross-asserted: by pairs, and by the
    out-degree identity C(n,3) - sum_v C(outdeg(v),2).  For each pair a < b
    the third vertices c > b that close a cycle are one AND and a popcount:
    ``out[b] & ~out[a]`` (b beats c, c beats a) when a beats b, else
    ``out[a] & ~out[b]`` (a beats c, c beats b).
    """
    n, out = t.n, t.out
    by_identity = math.comb(n, 3) - sum(math.comb(row.bit_count(), 2) for row in out)
    by_pairs = 0
    for a in range(n):
        row_a = out[a]
        for b in range(a + 1, n):
            row_b = out[b]
            if row_a >> b & 1:
                by_pairs += ((row_b & ~row_a) >> (b + 1)).bit_count()
            else:
                by_pairs += ((row_a & ~row_b) >> (b + 1)).bit_count()
    if by_pairs != by_identity:
        raise ConsistencyError(
            f"triangle pair count {by_pairs} != out-degree identity {by_identity}"
        )
    return by_pairs


_SUBSET_DP_N = 20


def _check_dp_size(n: int) -> None:
    """CapabilityError if :func:`dist_to_transitive_exact` refuses an
    n-vertex tournament; a caller that reads the tournament can check before
    reading it."""
    if n > _SUBSET_DP_N:
        raise CapabilityError(f"subset DP capped at n={_SUBSET_DP_N}, got {n}")


def dist_to_transitive_exact(t: Tournament) -> TransitivityWitness:
    """Minimum edge reversals to reach a transitive tournament, via the
    subset dynamic program (2^n states).

    Convention: the optimal ordering lists dominators first; appending v last
    to the subset S costs |{u in S\\{v} : v beats u}| reversals.  Each state
    walks its bits inline, lowest first, through a ``low bit -> (v, out[v])``
    table, and a strict ``<`` keeps the lowest v among equal costs, so the
    witness ordering is a function of the tournament alone.  Pinned by the
    ordering-search oracle ``dist_to_transitive_bruteforce``.
    """
    n = t.n
    _check_dp_size(n)
    if n == 0:
        return TransitivityWitness((), 0)
    size = 1 << n
    entry = {1 << v: (v, row) for v, row in enumerate(t.out)}
    dist = [0] * size
    choice = [0] * size
    for s in range(1, size):
        best = size  # above every cost: C(n, 2) < 2^n
        best_v = -1
        r = s
        while r:
            low = r & -r
            v, row = entry[low]
            rest = s ^ low
            cost = dist[rest] + (row & rest).bit_count()
            if cost < best:
                best = cost
                best_v = v
            r ^= low
        dist[s] = best
        choice[s] = best_v
    ordering = []
    s = size - 1
    while s:
        v = choice[s]
        ordering.append(v)
        s &= ~(1 << v)
    ordering.reverse()
    witness = TransitivityWitness(tuple(ordering), dist[size - 1])
    witness.validate(t)
    return witness


def dist_to_transitive_bruteforce(t: Tournament) -> int:
    """Branch and bound over orderings, built dominators first; the
    independent oracle for the subset DP (no table indexed by subsets).

    An ordering costs its back arcs, a later vertex beating an earlier one.
    Every completion of a prefix with vertex set ``placed`` pays the back
    arcs inside the prefix plus ``(out[v] & placed).bit_count()`` for each
    unplaced v, wherever v goes, so their sum is a lower bound.  Placing u
    next adds exactly the unplaced vertices that beat u, so the bound grows
    by ``(beaten_by[u] & rest).bit_count()`` and equals the cost once nothing
    is left.  The search starts from the incumbent ordering by descending
    out-degree (ties to the lower index) and cuts every branch whose bound
    reaches the best cost found.
    """
    n = t.n
    full = (1 << n) - 1
    beaten_by = [full & ~row & ~(1 << v) for v, row in enumerate(t.out)]
    order = sorted(range(n), key=lambda v: (-t.out[v].bit_count(), v))
    best = 0
    later = full
    for v in order:
        later &= ~(1 << v)
        best += (beaten_by[v] & later).bit_count()

    def rec(unplaced: int, bound: int) -> None:
        nonlocal best
        for v in order:
            if unplaced >> v & 1:
                rest = unplaced & ~(1 << v)
                b = bound + (beaten_by[v] & rest).bit_count()
                if b < best:
                    if rest:
                        rec(rest, b)
                    else:
                        best = b

    rec(full, 0)
    return best


def count_transitive_subtournaments(t: Tournament, k: int) -> int:
    """Exact number of k-subsets inducing a transitive subtournament; equals
    the independent k-set count of the cyclic-triple hypergraph.  A transitive
    set has one order in which each vertex beats all later ones, so it is
    picked once with each pick among the out-neighbors of the earlier ones."""
    if k < 0:
        raise InputError("k must be nonnegative")
    return _count_k_sets(t.out, k)


# ---------------------------------------------------------------------------
# text format: first line "n", then n rows of a 0/1 matrix (row v, column u
# == 1 iff v beats u).  Row v's digits are the binary digits of out[v] in
# reverse order, lowest bit first, as write_graph reads a row.


def write_tournament(t: Tournament) -> str:
    return "\n".join([str(t.n)] + [bin(row | 1 << t.n)[:2:-1] for row in t.out]) + "\n"


def read_tournament(lines: Iterable[str], check_n: Callable[[int], None] | None = None) -> Tournament:
    """The tournament of the lines of an "n" text file.  The header's n is
    checked against the readers' cap of 2^14 and then by ``check_n`` (a
    caller's cap, which raises) before any row is read, so a command can
    refuse a tournament above its cap without reading it."""
    lines = iter(lines)
    (n,) = _read_header(lines, "tournament", "n", check_n)
    out = []
    for row in filter(None, map(str.strip, lines)):
        if len(out) == n or len(row) != n or row.strip("01"):
            raise InputError("expected an n x n 0/1 matrix")
        out.append(int(row[::-1], 2))
    if len(out) != n:
        raise InputError("expected an n x n 0/1 matrix")
    return Tournament(n, out)
