"""Homogeneous and eps-homogeneous set computation.

Exact largest clique-or-independent-set (one branch and bound with greedy
coloring bounds over the adjacency and non-neighbour rows, which serves the
graph and, with the two swapped, its complement), homogeneous k-set
counting, the (t,k) subset property checker, the homogeneous-count lower
bound, and greedy-peel eps-homogeneous search.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapabilityError, InputError, ParameterError, VerificationError
from .graphs import Graph, _bits, _count_k_sets, _induced_p4s, edge_density, induced_subgraph

__all__ = [
    "HomogeneousWitness",
    "EpsHomogeneousWitness",
    "p4_free_family",
    "hom_exact",
    "max_clique",
    "count_homogeneous_k",
    "check_tk_property",
    "copy_count_threshold",
    "verify_count_lower_bound",
    "CountLowerBoundReport",
    "find_eps_homogeneous",
    "has_induced_p4",
]


@dataclass(frozen=True)
class HomogeneousWitness:
    vertices: frozenset[int]
    kind: str  # "clique" | "independent"

    def validate(self, g: Graph) -> None:
        vs = sorted(self.vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                edge = g.has_edge(u, v)
                if self.kind == "clique" and not edge:
                    raise VerificationError(f"claimed clique misses edge ({u},{v})")
                if self.kind == "independent" and edge:
                    raise VerificationError(f"claimed independent set has edge ({u},{v})")

    def to_json(self) -> str:
        return json.dumps(
            {"size": len(self.vertices), "kind": self.kind, "vertices": sorted(self.vertices)}
        )


@dataclass(frozen=True)
class EpsHomogeneousWitness:
    vertices: frozenset[int]
    side: str  # "sparse" | "dense"
    mode: str  # "density" | "degree"
    epsilon: Fraction

    def validate(self, g: Graph) -> None:
        s = len(self.vertices)
        sub = induced_subgraph(g, self.vertices)
        eps = Fraction(self.epsilon)
        if self.mode == "density":
            dens = edge_density(sub) if s >= 2 else Fraction(0)
            ok = dens <= eps if self.side == "sparse" else dens >= 1 - eps
        else:
            degs = [sub.degree(v) for v in range(sub.n)] or [0]
            if self.side == "sparse":
                ok = max(degs) <= eps * (s - 1)
            else:
                ok = min(degs) >= (1 - eps) * (s - 1)
        if not ok:
            raise VerificationError(
                f"witness fails its own invariant (mode={self.mode}, side={self.side})"
            )

    def to_json(self) -> str:
        return json.dumps(
            {
                "size": len(self.vertices),
                "side": self.side,
                "mode": self.mode,
                "vertices": sorted(self.vertices),
                "epsilon": str(self.epsilon),
                "validated": True,
            }
        )


def has_induced_p4(g: Graph) -> bool:
    """Whether ``g`` has an induced path on 4 vertices; the scan of
    :func:`count_induced_p4`, stopped at the first copy."""
    return next(_induced_p4s(g), None) is not None


def p4_free_family() -> Callable[[Graph], bool]:
    """Membership predicate of the P4-free graphs."""
    return lambda g: not has_induced_p4(g)


# ---------------------------------------------------------------------------
# exact maximum clique / homogeneous set


def max_clique(g: Graph) -> frozenset[int]:
    """Branch-and-bound maximum clique with greedy-coloring upper bounds.

    The search reads two row lists, the adjacency rows ``g.masks`` and the
    non-neighbour rows (see :func:`_non_rows`); :func:`hom_exact` runs the
    complement search on the same two lists, swapped.  Branching order is
    deterministic (ascending index within color classes), so the returned
    witness is reproducible.
    """
    if g.n == 0:
        return frozenset()
    # a single vertex is always a clique
    return _clique_above(g.masks, _non_rows(g), 1) or frozenset({0})


def _non_rows(g: Graph) -> list[int]:
    """Row v holds the vertices other than v that are not adjacent to v: the
    adjacency rows of the complement graph, in O(n) big-integer operations."""
    full = (1 << g.n) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(g.masks)]


def _clique_above(adj: Sequence[int], non: Sequence[int], bound: int) -> frozenset[int] | None:
    """The maximum clique :func:`max_clique`'s search finds first, if it has
    more than ``bound`` vertices; None if no clique has more.

    ``adj`` and ``non`` are the adjacency and non-neighbour rows of one graph
    (``non[v]`` excludes v itself); the largest independent set is the same
    search with the two lists swapped.  A higher bound prunes only subtrees
    that hold no clique larger than the best so far, so the search still
    meets the first maximum clique on the same path: the witness does not
    depend on the bound."""
    best_mask = 0
    best_size = bound

    def expand(rmask: int, rsize: int, p: int) -> None:
        nonlocal best_mask, best_size
        # greedy coloring of the candidates p: each class takes the lowest
        # vertex left, then the lowest vertex outside the neighbourhoods of
        # those taken.  Only a class whose color is above the floor can beat
        # the bound, so only those are listed, as (class mask, color).
        floor = best_size - rsize
        classes: list[tuple[int, int]] = []
        color = 0
        rest = p
        while rest:
            color += 1
            avail = taken = rest
            while avail:
                low = avail & -avail
                rest ^= low
                avail &= non[low.bit_length() - 1]
            if color > floor:
                classes.append((taken ^ rest, color))
        # branch from the last class down, highest vertex first in each
        for cls, color in reversed(classes):
            while cls:
                if rsize + color <= best_size:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                new_p = p & adj[v]
                if rsize >= best_size:
                    best_size = rsize + 1
                    best_mask = rmask | bit
                if new_p:
                    expand(rmask | bit, rsize + 1, new_p)
                p ^= bit

    expand(0, 0, (1 << len(adj)) - 1)
    return frozenset(_bits(best_mask)) if best_mask else None


_HOM_EXACT_N = 200


def _check_exact_size(n: int) -> None:
    """CapabilityError if :func:`hom_exact` refuses an n-vertex graph; a
    caller that reads the graph can check before reading it."""
    if n > _HOM_EXACT_N:
        raise CapabilityError(f"hom_exact capped at n={_HOM_EXACT_N}, got {n}")


def hom_exact(g: Graph) -> tuple[int, HomogeneousWitness]:
    """Exact size of the largest clique-or-independent-set, with witness.

    The independent side is :func:`max_clique`'s search with the adjacency
    and non-neighbour rows swapped, bounded by the clique found."""
    _check_exact_size(g.n)
    if g.n == 0:
        return 0, HomogeneousWitness(frozenset(), "clique")
    cl = max_clique(g)
    ind = _clique_above(_non_rows(g), g.masks, len(cl))  # only a larger set can win
    if ind is None:
        witness = HomogeneousWitness(cl, "clique")
    else:
        witness = HomogeneousWitness(ind, "independent")
    witness.validate(g)
    return len(witness.vertices), witness


def count_homogeneous_k(g: Graph, k: int) -> int:
    """Number of k-subsets inducing a clique plus those inducing an empty graph.

    For k >= 2 the two classes are disjoint.  Both are counted in ascending
    pick order: a clique picks among the neighbors above each pick, an
    independent set among the non-neighbors above it.
    """
    if k < 2:
        raise InputError("count_homogeneous_k needs k >= 2")
    above = [(1 << g.n) - (2 << v) for v in range(g.n)]
    cliques = _count_k_sets([a & row for a, row in zip(above, g.masks)], k)
    return cliques + _count_k_sets([a & ~row for a, row in zip(above, g.masks)], k)


# ---------------------------------------------------------------------------
# (t,k) subset property and the counting pipeline

_TK_EXHAUSTIVE_T = 6


def check_tk_property(family: Callable[[Graph], bool], t: int, k: int) -> tuple[bool, Graph | None]:
    """True iff every t-vertex member of the family has hom >= k.

    Exhaustive over all 2^C(t,2) labeled graphs, for t <= 6.
    """
    if t > _TK_EXHAUSTIVE_T:
        raise CapabilityError(f"t={t} exceeds exhaustive cap {_TK_EXHAUSTIVE_T}")
    pairs = list(itertools.combinations(range(t), 2))
    for code in range(1 << len(pairs)):
        g = Graph.from_edges(t, [p for i, p in enumerate(pairs) if code >> i & 1])
        if family(g) and hom_exact(g)[0] < k:
            return False, g
    return True, None


def copy_count_threshold(n: int, h: int, t: int) -> int:
    """floor(n^h / (2^(h+1) * t^(h-1))): admissible labeled induced-copy count
    for the homogeneous-count lower bound to apply."""
    if n < 2 * t:
        raise ParameterError(f"need n >= 2t, got n={n}, t={t}")
    return n**h // (2 ** (h + 1) * t ** (h - 1))


@dataclass(frozen=True)
class CountLowerBoundReport:
    n: int
    h: int
    t: int
    k: int
    embeddings: int
    threshold: int
    premise_ok: bool
    homogeneous_count: int
    lower_bound: Fraction
    ok: bool


def verify_count_lower_bound(
    g: Graph, h: Graph, t: int, k: int, embeddings: int
) -> CountLowerBoundReport:
    """Exact check that a graph with few induced h-copies has many homogeneous
    k-sets: count >= (1/2) * (n/(2t))^k.

    ``embeddings`` is the labeled induced-copy count of h in g, from a counter
    the caller ran (``count_induced_p4`` for h = P4).  The caller is also
    responsible for having established that every h-free graph has the (t,k)
    subset property.
    """
    threshold = copy_count_threshold(g.n, h.n, t)
    premise_ok = embeddings <= threshold
    count = count_homogeneous_k(g, k)
    bound = Fraction(1, 2) * Fraction(g.n, 2 * t) ** k
    return CountLowerBoundReport(
        n=g.n,
        h=h.n,
        t=t,
        k=k,
        embeddings=embeddings,
        threshold=threshold,
        premise_ok=premise_ok,
        homogeneous_count=count,
        lower_bound=bound,
        ok=premise_ok and count >= bound,
    )


# ---------------------------------------------------------------------------
# eps-homogeneous search


def _peel(g: Graph, eps: Fraction, mode: str, side: str, best: int) -> int:
    """The first (largest) vertex mask a greedy peel leaves, from all of V
    down, that has more than ``best`` vertices and satisfies the side's
    condition; 0 if there is none.  Each step deletes the vertex with the
    most neighbours in what remains (sparse side) or the fewest, i.e. the most
    in the complement (dense side), ties to the lower index (``min`` keeps the
    first of equal keys).  That vertex's degree is the largest (sparse) or
    smallest (dense) degree of the induced subgraph, which the degree
    condition reads, and deleting it lowers the inner edge count, which the
    density condition reads, by that degree."""
    s = g.n
    if s <= best:
        return 0
    sign = -1 if side == "sparse" else 1
    key = [sign * row.bit_count() for row in g.masks]  # signed degree in what remains
    inner = sign * sum(key) // 2  # edges inside what remains
    wmask = (1 << s) - 1
    while s > best:
        if s == 1:
            return wmask
        v = min(_bits(wmask), key=key.__getitem__)
        degree = sign * key[v]
        if mode == "density":
            value, scale = Fraction(inner, s * (s - 1) // 2), 1
        else:
            value, scale = degree, s - 1
        if (value <= eps * scale) if side == "sparse" else (value >= (1 - eps) * scale):
            return wmask
        wmask &= ~(1 << v)
        s -= 1
        inner -= degree
        for u in _bits(g.masks[v] & wmask):
            key[u] -= sign
    return 0


_HOM_EPS_N = 1000


def _check_eps_search_size(n: int) -> None:
    """CapabilityError if :func:`find_eps_homogeneous` refuses an n-vertex
    graph; a caller that builds the graph can check before building it."""
    if n > _HOM_EPS_N:
        raise CapabilityError(f"eps-homogeneous search capped at n={_HOM_EPS_N}, got {n}")


def find_eps_homogeneous(
    g: Graph, epsilon: Fraction, mode: str = "density"
) -> EpsHomogeneousWitness:
    """Largest found vertex set that is eps-sparse or eps-dense, for n <= 1000
    and 0 <= eps <= 1.

    Greedy peel on each side, sparse first: the first (largest) mask the peel
    leaves that satisfies the side's condition is that side's candidate, and
    the dense side must beat the sparse one strictly.  A peel stops at its
    candidate or once it is no larger than the best so far.  Each step takes
    O(n) big-integer popcounts.
    """
    _check_eps_search_size(g.n)
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    if mode not in ("density", "degree"):
        raise InputError(f"unknown mode {mode!r}")
    best, best_side = 0, "sparse"  # the empty set qualifies on either side
    for side in ("sparse", "dense"):
        smask = _peel(g, eps, mode, side, best.bit_count())
        if smask:
            best, best_side = smask, side
    witness = EpsHomogeneousWitness(
        vertices=frozenset(_bits(best)), side=best_side, mode=mode, epsilon=eps
    )
    if g.n:
        witness.validate(g)
    return witness
