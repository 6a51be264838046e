"""Container bounds and fingerprint algorithms for independent-set counting.

Implements the r-uniform scythe procedure with co-degree-maximizing
orderings on edge masks, whose r = 2 case is the graph max-degree fingerprint
(Kleitman-Winston style), the closed-form counting bounds, and the exact
enumeration oracle used to verify them at desk scale.

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import CapabilityError, ConsistencyError, InputError, ParameterError
from .graphs import Graph, UniformHypergraph, _bits, _count_k_sets, _mask
from .params import _enclose, _enclose_at, _resolve_ceil

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
    "as_two_uniform",
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
        """Exact-rational validation of the bound-side invariants."""
        value = _size_above(n, self.epsilon, self.ell, self.u)
        if value is not None:
            raise ParameterError(f"(1-eps)^ell * n = {value} exceeds u={self.u}")
        if (r - 1) * self.ell > self.k:
            raise ParameterError(f"need (r-1)*ell <= k, got {(r - 1) * self.ell} > {self.k}")


def _exact_ell_limit(n: int) -> int:
    """Largest ell for which (1-eps)^ell * n is multiplied out exactly.

    (1-eps)^ell * n can equal an integer u only if the denominator of
    (1-eps)^ell, at least 2^ell, divides n; past n.bit_length() the two are
    never equal, so an enclosure of their ratio decides the comparison at
    some finite precision."""
    return max(64, n.bit_length())


def _size_above(n: int, eps: Fraction, ell: int, u: int) -> str | None:
    """(1-eps)^ell * n rendered if it exceeds u >= 1, else None.  Small
    powers are multiplied out exactly; for a larger ell the comparison is
    ell < minimal_ell(n, eps, u), and the value, then in (u, n], is rendered
    from an enclosure."""
    if ell <= _exact_ell_limit(n):
        value = (1 - eps) ** ell * n
        return str(value) if value > u else None
    if ell >= minimal_ell(n, eps, u):
        return None
    lo, _ = _enclose_at(128, lambda ctx, b, n: b**ell * n, 1 - eps, n)
    return f"~{float(lo):.12g}"


def minimal_ell(n: int, epsilon: Fraction, u: int) -> int:
    """Smallest ell with (1-eps)^ell * n <= u, in exact arithmetic.

    Small ell are found by multiplying out the powers; a larger ell is the
    ceiling of ln(n/u) / ln(1/(1-eps)), which an interval enclosure at
    doubling precision decides."""
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ParameterError(f"epsilon={eps} outside (0,1]")
    if n > u and (u < 0 or (u == 0 and eps < 1)):
        raise ParameterError(f"(1-eps)^ell * n stays above u={u} for every ell")
    if eps == 1:
        return int(n > u)
    value = Fraction(n)
    for ell in range(_exact_ell_limit(n) + 1):
        if value <= u:
            return ell
        value *= 1 - eps

    def log_ratio(ctx, q, b):
        return ctx.log(q) / ctx.log(b)

    return _resolve_ceil(lambda ctx: _enclose(ctx, log_ratio, Fraction(n, u), 1 / (1 - eps)))


@dataclass(frozen=True)
class FingerprintTrace:
    """Segments, final container, and removed vertices of one fingerprint run.

    ``round_sizes`` records the candidate-set size at the start of each
    executed segment round plus the final size, so per-round shrinkage can be
    audited after the fact.
    """

    segments: tuple[tuple[int, ...], ...]
    container: frozenset[int]
    removed: frozenset[int]
    round_sizes: tuple[int, ...]

    @property
    def segment_union(self) -> frozenset[int]:
        return frozenset(v for seg in self.segments for v in seg)


# ---------------------------------------------------------------------------
# exact enumeration oracle


def _degree_rows(structure: Structure) -> tuple[Sequence[int], Callable[[int], int]]:
    """``rows`` and ``live`` with deg_S(v) = (rows[v] & live(S)).bit_count()
    for a vertex mask S.  A graph's rows are its adjacency masks and live(S)
    is S; a hypergraph's rows are incident-edge masks (bit i for edge i) and
    live(S) masks the edges inside S, those meeting no vertex outside S."""
    if isinstance(structure, Graph):
        return structure.masks, lambda smask: smask
    rows = [0] * structure.n
    for i, e in enumerate(structure.edge_masks):
        for v in _bits(e):
            rows[v] |= 1 << i
    all_edges, all_vertices = (1 << structure.edge_count) - 1, (1 << structure.n) - 1

    def live(smask: int) -> int:
        inside = all_edges
        for v in _bits(all_vertices & ~smask):
            inside &= ~rows[v]
        return inside

    return rows, live


def is_independent(structure: Structure, vertices: Iterable[int]) -> bool:
    smask = _mask(vertices)
    if isinstance(structure, Graph):
        return all(structure.masks[v] & smask == 0 for v in _bits(smask))
    return all(e & ~smask for e in structure.edge_masks)


def count_independent_sets_exact(structure: Structure, k: int) -> int:
    """Exact number of k-subsets spanning no edge, picked in ascending order:
    a graph restricts each pick to the non-neighbors above it, a hypergraph
    to the vertices above it, with its edges kept from being wholly picked."""
    if k < 0:
        raise InputError("k must be nonnegative")
    above = [(1 << structure.n) - (2 << v) for v in range(structure.n)]
    if isinstance(structure, Graph):
        return _count_k_sets([a & ~row for a, row in zip(above, structure.masks)], k)
    return _count_k_sets(above, k, structure.edge_masks)


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
    q = -(-sq.numerator // sq.denominator)
    return math.isqrt(q - 1) + 1 if q else 0


def hypergraph_bound(n: int, r: int, params: ContainerParams) -> int:
    """r-uniform count bound C(n,(r-1)ell)*C(u,k-(r-1)ell)."""
    params.check_for(n, r=r)
    drop = (r - 1) * params.ell
    return math.comb(n, drop) * math.comb(params.u, params.k - drop)


# ---------------------------------------------------------------------------
# degree precondition


_PRECONDITION_EXHAUSTIVE_N = 16


def verify_degree_precondition(structure: Structure, epsilon: Fraction, u: int):
    """Check the minimum-max-degree hypothesis of the container bounds.

    Graph: every S with |S| >= u has max degree >= eps*|S| - 1 in the induced
    subgraph.  r-uniform hypergraph (exponent r-1 on the degree threshold):
    every S with |S| > u has max degree >= eps*(|S|-1)^(r-1).

    Returns (ok, witness) where witness is a violating vertex set or None.
    Exhaustive, for structures of at most 16 vertices.
    """
    eps = Fraction(epsilon)
    n = structure.n
    if n > _PRECONDITION_EXHAUSTIVE_N:
        raise CapabilityError(f"n={n} exceeds exhaustive cap {_PRECONDITION_EXHAUSTIVE_N}")
    is_graph = isinstance(structure, Graph)
    r = 2 if is_graph else structure.r
    rows, live = _degree_rows(structure)

    def holds(svertices: tuple[int, ...]) -> bool:
        s = len(svertices)
        inside = live(_mask(svertices))
        md = max((rows[v] & inside).bit_count() for v in svertices)
        if is_graph:
            return md >= eps * s - 1
        return md >= eps * (s - 1) ** (r - 1)

    for size in range(max(u if is_graph else u + 1, 1), n + 1):
        for combo in itertools.combinations(range(n), size):
            if not holds(combo):
                return False, frozenset(combo)
    return True, None


# ---------------------------------------------------------------------------
# fingerprint algorithms


def _check_independent(structure: Structure, vertices: Iterable[int]) -> int:
    vs = frozenset(vertices)
    if not all(0 <= v < structure.n for v in vs):
        raise InputError("fingerprint set outside vertex range")
    if not is_independent(structure, vs):
        raise InputError("fingerprint set is not independent")
    return _mask(vs)


def _scythe_core(structure: Structure, marked: int, params: ContainerParams) -> FingerprintTrace:
    """The scythe on edge masks, for every r (a graph's edges are 2-masks).

    Each round picks the r-1 vertices of one segment.  Before each pick the
    edges still alive are held as their rests (the edge minus the segment so
    far), all inside the candidate set W; the vertices of W are scanned in
    the order of their co-degree, the number of rests through them, and each
    is taken out of W until a marked one is hit.  The last rests are then
    single vertices, which the segment spoils: they leave W as well.
    """
    if isinstance(structure, Graph):
        r, edges = 2, [1 << u | 1 << v for u, v in structure.edges()]
    else:
        r, edges = structure.r, structure.edge_masks
    n = structure.n
    w = (1 << n) - 1
    segments: list[tuple[int, ...]] = []
    round_sizes = []
    while (
        len(segments) < params.ell
        and w.bit_count() > params.u
        and (marked & w).bit_count() >= r - 1
    ):
        round_sizes.append(w.bit_count())
        edges = [e for e in edges if not e & ~w]
        rests, segment = edges, []
        while len(segment) < r - 1:
            codegree = [0] * n
            for rest in rests:
                for v in _bits(rest):
                    codegree[v] += 1
            v = max(_bits(w), key=codegree.__getitem__)  # ties: lowest index
            bit = 1 << v
            w ^= bit
            if marked & bit:
                marked ^= bit
                segment.append(v)
                rests = [rest ^ bit for rest in rests if rest & bit]
            else:
                rests = [rest for rest in rests if not rest & bit]
        for rest in rests:
            w &= ~rest
        segments.append(tuple(segment))
    round_sizes.append(w.bit_count())
    used = _mask(v for seg in segments for v in seg)
    return FingerprintTrace(
        segments=tuple(segments),
        container=frozenset(_bits(w)),
        removed=frozenset(_bits((1 << n) - 1 & ~w & ~used)),
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


def as_two_uniform(g: Graph) -> UniformHypergraph:
    return UniformHypergraph.from_edges(2, g.n, g.edges())
