"""Container bounds and fingerprint algorithms for independent-set counting.

Implements the r-uniform scythe procedure with co-degree-maximizing
orderings, whose r = 2 case is the graph max-degree fingerprint
(Kleitman-Winston style), the closed-form counting bounds, and the exact
enumeration oracle used to verify them at desk scale.

Both structures hand this layer one view, ``_container_rows()``: ``rows[v]``,
what a degree of v counts, and ``kill[v]``, what v clears when it leaves a
vertex set.  A graph's are its adjacency rows and single-vertex bits (vertex
masks), a hypergraph's its incidence rows twice (bit i set iff edge i passes
through v; edge masks).  ``_inside(kill, S)``, the complement of the kill rows
of the vertices outside S, is what lies wholly inside S, and deg_S(v) is the
popcount of ``rows[v] & _inside(kill, S)``.  Independence, the degree
precondition and the scythe are written once on this view; only the
precondition's threshold differs, as the graph and hypergraph statements do.

Conventions fixed here (fingerprints and reconstruction alike):

* ties in every degree / co-degree maximization break by ascending vertex
  index;
* the stopping conditions (segment budget reached, candidate set down to at
  most ``u`` vertices, fewer than r-1 fingerprinted vertices left among the
  candidates) are checked at round boundaries, where one round scans the
  current ordering up to the next fingerprinted vertex and extracts one
  segment.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import CapabilityError, ConsistencyError, InputError, ParameterError
from .graphs import Graph, UniformHypergraph, _bits, _mask
from .params import _BOUND_DIGITS, _BOUND_LIMIT, _power_text, minimal_ell

__all__ = [
    "ContainerParams",
    "FingerprintTrace",
    "minimal_ell",
    "count_independent_sets_exact",
    "kw_bound",
    "hypergraph_bound",
    "verify_degree_precondition",
    "kw_fingerprint",
    "scythe_fingerprint",
    "reconstruct_segments",
    "is_independent",
]

Structure = Union[Graph, UniformHypergraph]


@dataclass(frozen=True)
class ContainerParams:
    """(epsilon, u, ell, k) tuple for the container bounds."""

    epsilon: Fraction
    u: int
    ell: int
    k: int

    def __post_init__(self) -> None:
        eps = Fraction(self.epsilon)
        if not 0 < eps <= 1:
            raise ParameterError(f"epsilon={eps} outside (0,1]")
        if self.u < 1:
            raise ParameterError("u must be a positive integer")
        if self.ell < 0 or self.k < 0:
            raise ParameterError("ell and k must be nonnegative")
        object.__setattr__(self, "epsilon", eps)

    def check_for(self, n: int, r: int = 2) -> None:
        """Exact-rational validation of the bound-side invariants.  The shrinkage
        premise (1-eps)^ell * n <= u is ell >= minimal_ell; a value above u is
        printed by :func:`homlab.params._power_text`, a fraction past 128 bits as "~"."""
        if self.ell < minimal_ell(n, self.epsilon, self.u):
            value = _power_text(1 - self.epsilon, self.ell, n)
            raise ParameterError(f"(1-eps)^ell * n = {value} exceeds u={self.u}")
        if (r - 1) * self.ell > self.k:
            raise ParameterError(f"need (r-1)*ell <= k, got {(r - 1) * self.ell} > {self.k}")


@dataclass(frozen=True)
class FingerprintTrace:
    """Segments and final container of one fingerprint run.

    ``round_sizes`` records the candidate-set size at the start of each
    executed segment round plus the final size, so per-round shrinkage can be
    audited after the fact.
    """

    segments: tuple[tuple[int, ...], ...]
    container: frozenset[int]
    round_sizes: tuple[int, ...]

    @property
    def segment_union(self) -> frozenset[int]:
        return frozenset(v for seg in self.segments for v in seg)


# ---------------------------------------------------------------------------
# exact enumeration oracle


def _inside(kill: Sequence[int], smask: int) -> int:
    """What lies wholly inside the vertex set S: everything not killed by a
    vertex outside S (the bits above the rows included)."""
    out = 0
    rest = (1 << len(kill)) - 1 & ~smask
    while rest:  # _bits inline: a generator per subset costs more than the ORs
        low = rest & -rest
        out |= kill[low.bit_length() - 1]
        rest ^= low
    return ~out


def is_independent(structure: Structure, vertices: Iterable[int]) -> bool:
    """Whether no edge lies inside ``vertices``: no v in it has a degree in
    the set.  A vertex outside the range raises InputError."""
    vs = set(vertices)
    if not all(0 <= v < structure.n for v in vs):
        raise InputError("vertex set outside vertex range")
    smask = _mask(vs)
    rows, kill = structure._container_rows()
    inside = _inside(kill, smask)
    return not any(rows[v] & inside for v in _bits(smask))


_PRECONDITION_EXHAUSTIVE_N = 16


def _check_exhaustive(n: int) -> None:
    """Refuse a structure too large for the exhaustive count and degree check."""
    if n > _PRECONDITION_EXHAUSTIVE_N:
        raise CapabilityError(f"n={n} exceeds exhaustive cap {_PRECONDITION_EXHAUSTIVE_N}")


def count_independent_sets_exact(structure: Structure, k: int) -> int:
    """Exact number of k-subsets spanning no edge, counted on the subset
    lattice: bit S of a 2^n-bit integer stands for the vertex set with mask S.

    ``hit`` starts with the bit of every edge mask (a graph's edges as
    2-masks) and is closed upward one vertex i at a time: each set lacking i
    passes its bit to the set with i added.  It then holds exactly the sets
    that contain an edge, and the answer is the number of k-sets outside it.
    The k-sets are built by Pascal's rule, the j-sets of range(i + 1) being
    those of range(i) plus the (j-1)-sets of range(i) with i added.
    Exhaustive, for structures of at most 16 vertices."""
    if k < 0:
        raise InputError("k must be nonnegative")
    n = structure.n
    _check_exhaustive(n)
    if k > n:
        return 0
    seed = bytearray(max((1 << n) >> 3, 1))
    for e in structure.edge_masks:
        seed[e >> 3] |= 1 << (e & 7)
    hit = int.from_bytes(seed, "little")
    sized = [1] + [0] * k  # sized[j]: the j-sets of the vertices closed so far
    for i in range(n):
        step = 1 << i
        # the sets lacking i: 2^i ones every 2^(i+1) bits, doubled out to 2^n bits
        without, width = (1 << step) - 1, step << 1
        while width < 1 << n:
            without |= without << width
            width <<= 1
        hit |= (hit & without) << step
        for j in range(min(k, i + 1), 0, -1):
            sized[j] |= sized[j - 1] << step
    return (sized[k] & ~hit).bit_count()


# ---------------------------------------------------------------------------
# closed-form bounds


def kw_bound(n: int, params: ContainerParams, improved: bool = False) -> int:
    """Graph-case count bound C(n,ell)*C(u,k-ell), the r = 2 case of
    :func:`hypergraph_bound`.

    With ``improved=True`` returns the exact integer ceiling of
    2^ell * (u/n)^((ell-1)/2) * C(n,ell) * C(u,k-ell).
    """
    base = hypergraph_bound(n, 2, params)
    ell, u = params.ell, params.u
    if not improved or ell == 0:
        return base
    # the ceiling of value = sqrt(value^2) is the smallest c with c^2 >= ceil(value^2)
    sq = Fraction(2 ** (2 * ell) * base * base) * Fraction(u, n) ** (ell - 1)
    q = math.ceil(sq)
    return math.isqrt(q - 1) + 1 if q else 0


def _binomial(a: int, j: int) -> int:
    """C(a, j), refused when it has too many digits to print: C(a, j) >=
    2^min(j, a-j), so a large min(j, a-j) is refused before C(a, j) is formed."""
    if min(j, a - j) >= _BOUND_LIMIT.bit_length():
        raise CapabilityError(f"C({a}, {j}) has more than {_BOUND_DIGITS} digits")
    return math.comb(a, j)


def hypergraph_bound(n: int, r: int, params: ContainerParams) -> int:
    """r-uniform count bound C(n,(r-1)ell)*C(u,k-(r-1)ell); CapabilityError
    if it has too many decimal digits to print."""
    params.check_for(n, r=r)
    drop = (r - 1) * params.ell
    bound = _binomial(n, drop) * _binomial(params.u, params.k - drop)
    if bound >= _BOUND_LIMIT:
        raise CapabilityError(f"the count bound has more than {_BOUND_DIGITS} digits")
    return bound


# ---------------------------------------------------------------------------
# degree precondition


def _graph_needs(eps: Fraction, u: int, n: int) -> list[tuple[int, int]]:
    """(s, ceil(eps*s - 1)) for each s >= max(u, 1): the least max degree the
    graph statement asks of an s-set."""
    return [(s, math.ceil(eps * s - 1)) for s in range(max(u, 1), n + 1)]


def verify_degree_precondition(structure: Structure, epsilon: Fraction, u: int):
    """Check the minimum-max-degree hypothesis of the container bounds.

    Graph: every S with |S| >= u has max degree >= eps*|S| - 1 in the induced
    subgraph.  r-uniform hypergraph (exponent r-1 on the degree threshold):
    every S with |S| > u has max degree >= eps*(|S|-1)^(r-1).

    Returns (ok, witness) where witness is the first violating vertex set,
    by size and then lexicographically, or None.  Degrees are integers, so
    each size s is held to the integer threshold ceil(eps*s - 1), resp.
    ceil(eps*(s-1)^(r-1)), and a size whose threshold is at most 0 cannot
    fail.  Exhaustive, for structures of at most 16 vertices.

    Each s-set S is walked with its complement C, and what lies inside S is,
    as in ``_inside``, the complement of the OR of C's kill rows.  The s-sets come
    in lexicographic order, and the (n-s)-sets in reverse lexicographic order
    are their complements in the same order: S precedes S' iff the least
    vertex of the symmetric difference lies in S, and so in C' and not in C,
    which puts C' first.
    """
    eps = Fraction(epsilon)
    n = structure.n
    _check_exhaustive(n)
    rows, kill = structure._container_rows()
    if isinstance(structure, Graph):  # the one choice where the two statements differ
        needs = _graph_needs(eps, u, n)
    else:
        needs = [(s, math.ceil(eps * (s - 1) ** (structure.r - 1)))
                 for s in range(max(u + 1, 1), n + 1)]
    for size, need in needs:
        if need <= 0:
            continue
        outside = reversed(list(itertools.combinations(kill, n - size)))
        for combo, killed in zip(itertools.combinations(range(n), size), outside):
            inside = ~functools.reduce(operator.or_, killed, 0)
            if not any((rows[v] & inside).bit_count() >= need for v in combo):
                return False, frozenset(combo)
    return True, None


# ---------------------------------------------------------------------------
# fingerprint algorithms


def _check_independent(structure: Structure, vertices: Iterable[int]) -> int:
    vs = frozenset(vertices)
    if not is_independent(structure, vs):
        raise InputError("fingerprint set is not independent")
    return _mask(vs)


def _scythe_core(structure: Structure, marked: int, params: ContainerParams) -> FingerprintTrace:
    """The scythe, for every r.

    Each round picks the r-1 vertices of one segment.  Before each pick the
    edges still alive are held as their rests (the edge minus the segment so
    far), all inside the candidate set W; the vertices of W are scanned in
    the order of their co-degree, the number of rests through them, and each
    is taken out of W until a marked one is hit.  The last rests are then
    single vertices, which the segment spoils: they leave W as well.

    It reads the container view: ``rows[x]`` is what a co-degree of x counts
    and ``kill[x]`` what x clears when it leaves W.  ``inside`` holds what
    lies wholly in W and ``alive`` the live rests.  A vertex of W is never on
    the segment, so its co-degree is (rows[x] & alive).bit_count() and it is
    spoiled iff kill[x] & alive.

    On a hypergraph's view the masks are edge masks.  On a graph's they are
    vertex masks: for r = 2 the live rests before the marked pick are the
    edges inside W, a co-degree is the degree in G[W], and the marked pick's
    ``alive &= rows[v]`` leaves the neighbours in W that it spoils.
    """
    n, r = structure.n, structure.r
    rows, kill = structure._container_rows()
    inside = ~0
    w = (1 << n) - 1
    segments: list[tuple[int, ...]] = []
    round_sizes = []
    while (
        len(segments) < params.ell
        and w.bit_count() > params.u
        and (marked & w).bit_count() >= r - 1
    ):
        round_sizes.append(w.bit_count())
        alive, segment = inside, []
        while len(segment) < r - 1:
            top = -1
            for x in _bits(w):
                codegree = (rows[x] & alive).bit_count()
                if codegree > top:  # ties: lowest index
                    top, v = codegree, x
            bit = 1 << v
            w ^= bit
            inside &= ~kill[v]
            if marked & bit:
                marked ^= bit
                segment.append(v)
                alive &= rows[v]
            else:
                alive &= ~kill[v]
        for x in _bits(w):
            if kill[x] & alive:
                w ^= 1 << x
                inside &= ~kill[x]
        segments.append(tuple(segment))
    round_sizes.append(w.bit_count())
    return FingerprintTrace(
        segments=tuple(segments),
        container=frozenset(_bits(w)),
        round_sizes=tuple(round_sizes),
    )


def kw_fingerprint(g: Graph, independent: Iterable[int], params: ContainerParams) -> FingerprintTrace:
    """Graph fingerprint (Kleitman-Winston): the r = 2 case of the scythe.
    Each round scans the candidates in max-degree order, deleting them, up to
    the next fingerprinted vertex, which becomes a singleton segment and
    restricts the candidates to its non-neighbors."""
    return _scythe_core(g, _check_independent(g, independent), params)


def scythe_fingerprint(
    h: UniformHypergraph, independent: Iterable[int], params: ContainerParams
) -> FingerprintTrace:
    """r-uniform scythe: per round build the nested co-degree orderings,
    extract the next (r-1)-tuple segment of fingerprinted vertices, and delete
    the segment's spoiled neighborhood before recursing.  On a graph it is
    :func:`kw_fingerprint`."""
    return _scythe_core(h, _check_independent(h, independent), params)


def reconstruct_segments(
    structure: Structure, unordered_union: Iterable[int], params: ContainerParams
) -> tuple[tuple[int, ...], ...]:
    """Recover the ordered segment sequence from the unordered segment union
    by replaying the orderings; raises ConsistencyError if the replay cannot
    consume the whole union."""
    union = frozenset(unordered_union)
    # a vertex outside the range is never replayed, so it fails the check below
    trace = _scythe_core(structure, _mask(v for v in union if 0 <= v < structure.n), params)
    if trace.segment_union != union:
        raise ConsistencyError(
            f"replay consumed {sorted(trace.segment_union)} from union {sorted(union)}"
        )
    return trace.segments
