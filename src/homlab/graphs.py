"""Exact graph and uniform-hypergraph cores.

Graphs are immutable, stored as bitmask adjacency rows (bit ``u`` of
``masks[v]`` is set iff ``{u, v}`` is an edge).  All counts are exact Python
integers and all densities exact :class:`fractions.Fraction` values; floats
never enter a count.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .errors import CapabilityError, InputError

__all__ = [
    "Graph",
    "UniformHypergraph",
    "edge_density",
    "induced_subgraph",
    "count_induced_p4",
    "path_graph",
    "read_graph",
    "write_graph",
    "read_hypergraph",
]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` (the vertices of a vertex mask), ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices: Iterable[int]) -> int:
    """The vertex mask with bit ``v`` set for every ``v`` in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _count_k_sets(rows: Sequence[int], k: int) -> int:
    """Number of k-sets of ``range(len(rows))`` that can be picked one vertex
    at a time, each pick in ``rows`` of every earlier pick; callers choose
    rows that give each set one pick order."""

    def pick(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        if cand.bit_count() < need:
            return 0
        total = 0
        m = cand
        while m:
            low = m & -m
            m ^= low
            total += pick(cand & rows[low.bit_length() - 1], need - 1)
        return total

    return pick((1 << len(rows)) - 1, k) if k else 1


def _check_rows(n: int, masks: Sequence[int]) -> None:
    """Raise InputError unless there are n rows, each in [0, 2^n) and without
    its own loop bit."""
    if n < 0 or len(masks) != n:
        raise InputError(f"need exactly n={n} adjacency rows")
    for v, row in enumerate(masks):
        if row >> n:  # also every negative row
            raise InputError(f"row {v} references vertices outside [0,{n})")
        if row >> v & 1:
            raise InputError(f"loop at vertex {v}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``."""

    r: ClassVar[int] = 2
    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rows(self.n, self.masks)
        for v, row in enumerate(self.masks):
            for u in _bits(row):
                if not self.masks[u] >> v & 1:
                    raise InputError(f"asymmetric pair ({u},{v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad edge ({u},{v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def _symmetric(cls, n: int, masks: Sequence[int]) -> "Graph":
        """The graph with rows ``masks``, which the caller builds symmetric.
        The rows are checked as in ``__post_init__`` in O(n) big-integer
        operations; only the per-edge symmetry walk is skipped."""
        _check_rows(n, masks)
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "masks", tuple(masks))
        return g

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.masks) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, row in enumerate(self.masks):
            row >>= u + 1  # the neighbours above u, bit v - u - 1 for v
            while row:
                low = row & -row
                out.append((u, u + low.bit_length()))
                row ^= low
        return out

    @property
    def edge_masks(self) -> list[int]:
        return [1 << u | 1 << v for u, v in self.edges()]

    def _container_rows(self) -> tuple[Sequence[int], Sequence[int]]:
        return self.masks, [1 << v for v in range(self.n)]  # see UniformHypergraph

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()


@dataclass(frozen=True)
class UniformHypergraph:
    """r-uniform hypergraph on vertices ``0..n-1``, stored as the ascending
    tuple of its distinct edge masks (bit ``v`` set iff ``v`` is on the edge).

    Each vertex also has its incidence row, built once with the instance:
    bit i of ``_incidence[v]`` is set iff ``v`` is on ``edge_masks[i]``.  They
    follow from the edges, so equality and hashing skip them.  They are both
    the ``rows`` and the ``kill`` of ``_container_rows()``, the one view the
    container layer reads of a graph or a hypergraph: ``rows[v]`` is what a
    degree of v counts, ``kill[v]`` what v clears when it leaves a vertex set."""

    r: int
    n: int
    edge_masks: tuple[int, ...]
    _incidence: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.r < 2:
            raise InputError("uniformity r must be >= 2")
        if self.n < 0:
            raise InputError(f"vertex count n={self.n} is negative")
        masks = tuple(sorted(set(self.edge_masks)))
        # rows as bytes, so each edge costs r byte updates however many edges there are
        rows = [bytearray((len(masks) + 7) >> 3) for _ in range(self.n)]
        for i, e in enumerate(masks):
            if e >> self.n:
                raise InputError(f"edge mask {e} outside [0,{self.n})")
            if e.bit_count() != self.r:
                raise InputError(f"edge {list(_bits(e))} is not {self.r}-uniform")
            at, bit = i >> 3, 1 << (i & 7)
            while e:  # _bits inline: a generator per edge costs more than the row update
                low = e & -e
                rows[low.bit_length() - 1][at] |= bit
                e ^= low
        object.__setattr__(self, "edge_masks", masks)
        object.__setattr__(self, "_incidence", tuple(int.from_bytes(row, "little") for row in rows))

    @classmethod
    def from_edges(cls, r: int, n: int, edges: Iterable[Iterable[int]]) -> "UniformHypergraph":
        masks = []
        for e in map(tuple, edges):
            if not all(0 <= v < n for v in e):
                raise InputError(f"edge {sorted(e)} outside [0,{n})")
            masks.append(_mask(e))
        return cls(r, n, tuple(masks))

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Every edge as its ascending vertex tuple, in edge-mask order."""
        return tuple(tuple(_bits(e)) for e in self.edge_masks)

    @property
    def edge_count(self) -> int:
        return len(self.edge_masks)

    def _container_rows(self) -> tuple[Sequence[int], Sequence[int]]:
        return self._incidence, self._incidence


# ---------------------------------------------------------------------------
# densities and induced substructure


def edge_density(g: Graph) -> Fraction:
    """Exact |E| / C(n,2); requires n >= 2."""
    if g.n < 2:
        raise InputError(f"edge density undefined for n={g.n}")
    return Fraction(g.edge_count, math.comb(g.n, 2))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph relabeled 0..|S|-1 in ascending original order."""
    order = sorted(set(vertices))
    if order and not (0 <= order[0] and order[-1] < g.n):
        raise InputError(f"vertex set not within [0,{g.n})")
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * len(order)
    for v in order:
        for u in _bits(g.masks[v]):
            if u in pos:
                rows[pos[v]] |= 1 << pos[u]
    return Graph(len(order), tuple(rows))


# ---------------------------------------------------------------------------
# induced P4 counting


def _induced_p4s(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Each induced path a-b-c-d of ``g`` once, as the embedding whose middle
    pair ascends (b < c), ordered by b, then c, then a, then d.

    A middle edge {b, c} takes a from A = N(b) minus N[c] and d from
    D = N(c) minus N[b]; a-b-c-d is induced iff d is outside N[a].  After each
    middle edge the copies listed from the a side are checked against the same
    pairs counted again from the d side, sum over d in D of |A minus N[d]|."""
    masks = g.masks
    outside = [~(row | 1 << v) for v, row in enumerate(masks)]  # complement of N[v]
    for b, row_b in enumerate(masks):
        out_b = outside[b]
        above = row_b >> b + 1 << b + 1
        while above:
            low = above & -above
            above ^= low
            c = low.bit_length() - 1
            a_side = row_b & outside[c]
            d_side = masks[c] & out_b
            if not (a_side and d_side):
                continue
            found = 0
            rest = a_side
            while rest:
                low = rest & -rest
                rest ^= low
                a = low.bit_length() - 1
                free = d_side & outside[a]
                while free:
                    low = free & -free
                    free ^= low
                    found += 1
                    yield a, b, c, low.bit_length() - 1
            pairs = 0
            rest = d_side
            while rest:
                low = rest & -rest
                rest ^= low
                pairs += (a_side & outside[low.bit_length() - 1]).bit_count()
            if pairs != found:
                raise AssertionError(
                    f"middle edge ({b},{c}): {found} copies listed, {pairs} counted from the d side"
                )


def count_induced_p4(g: Graph) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """Fast exact induced-path-on-4-vertices count: (subsets, embeddings, copies).

    The scan visits each middle edge {b, c} once, with b < c, so it doubles as
    an exhaustive scan: ``copies`` lists one labeled embedding a-b-c-d per
    induced copy, the orientation whose middle pair ascends (not always the
    lexicographically first: the path 3-0-1-2 is listed as (3, 0, 1, 2)),
    ordered by b, then c, then a, then d.  Reversal maps the two embeddings of
    a copy onto each other, so embeddings = 2 * subsets.  Each middle edge's
    copies are cross-checked against the same pairs counted from the d side;
    a mismatch raises AssertionError.
    """
    copies = list(_induced_p4s(g))
    return len(copies), 2 * len(copies), copies


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# text formats: "n m" header then m lines "u v" (u < v, 0-based);
# hypergraphs: "r n m" then m lines of r ascending indices.

# Largest n (and r) a header may declare.  Every exact kernel caps far below
# it (hom_exact at n = 200); a larger header would only buy an allocation sized
# by n and a row validation quadratic in n.
_MAX_READ_N = 1 << 14


# Most digits, and largest decimal exponent, a rational's text may carry.
# Fraction multiplies a decimal exponent out, so "1e999999999" would build a
# billion-digit integer before any range check could run.
_MAX_RATIONAL_DIGITS = 1000


def _rational(value) -> Fraction:
    """``Fraction(value)`` for an option or config value, such as "1/128",
    "0.5" or "1e-3"; text Fraction cannot read, or with too many digits or
    too large an exponent, raises InputError."""
    if isinstance(value, str):
        try:
            exponent = abs(int(value.upper().partition("E")[2] or 0))
        except ValueError:
            exponent = 0  # no integer exponent: Fraction rejects the text below
        if max(exponent, sum(map(str.isdigit, value))) > _MAX_RATIONAL_DIGITS:
            raise InputError(f"rational {value[:40]!r} has more than {_MAX_RATIONAL_DIGITS} "
                             "digits or too large an exponent")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}") from exc


_PICKS = bytes.maketrans(b"01", b"\0\1")  # a binary digit string to 0/1 selectors


def write_graph(g: Graph) -> str:
    """The "n m" header, then one block per vertex u: a line "u v" for each
    neighbour v > u, ascending.  The neighbours are picked from the names
    above u by the reversed binary digits of the row above u."""
    names = [str(v) for v in range(g.n)]
    blocks = [f"{g.n} {g.edge_count}"]
    for u, row in enumerate(g.masks):
        above = row >> u + 1
        if above:
            prefix = names[u] + " "
            picks = bin(above)[:1:-1].encode().translate(_PICKS)
            blocks.append(prefix + ("\n" + prefix).join(itertools.compress(names[u + 1:], picks)))
    return "\n".join(blocks) + "\n"


# Every character str.splitlines breaks a line at.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _read_edge_file(
    text: str, what: str, header_size: int, check_n: Callable[[int], None] | None = None
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Header integers and edge lines of a text file.  The header's last field
    is the edge count m: exactly m edge lines must follow, all distinct.

    The header is read and its n checked, against ``_MAX_READ_N`` and then by
    ``check_n`` (a caller's cap, which raises), before any edge line is split."""
    text = text.lstrip()  # blank lines before the header
    if not text:
        raise InputError(f"empty {what} file")
    brk = _LINE_BREAK.search(text)
    head = text[: brk.start()] if brk else text
    try:
        header = [int(x) for x in head.split()]
    except ValueError as exc:
        raise InputError(f"malformed {what} file: {exc}") from exc
    if len(header) != header_size:
        raise InputError(f"{what} header needs {header_size} integers, got {len(header)}")
    if max(header[:-1]) > _MAX_READ_N:
        raise CapabilityError(f"{what} header field {max(header[:-1])} exceeds {_MAX_READ_N}")
    if check_n is not None:
        check_n(header[-2])
    try:
        edges = [tuple(int(x) for x in ln.split()) for ln in text[len(head):].splitlines()
                 if ln.strip()]
    except ValueError as exc:
        raise InputError(f"malformed {what} file: {exc}") from exc
    if len(edges) != header[-1]:
        raise InputError(f"expected {header[-1]} edge lines, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise InputError("duplicate edge line")
    return header, edges


def read_graph(text: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """The graph of an "n m" text file.  ``check_n``, if given, is called with
    the header's n before any edge line is read, so a command can refuse a
    graph above its cap without reading it."""
    (n, _), edges = _read_edge_file(text, "graph", 2, check_n)
    for e in edges:
        if len(e) != 2 or e[0] >= e[1]:
            raise InputError(f"edge line must be two integers u < v, got {e}")
    return Graph.from_edges(n, edges)


def read_hypergraph(text: str) -> UniformHypergraph:
    (r, n, _), edges = _read_edge_file(text, "hypergraph", 3)
    for e in edges:
        if len(e) != r or list(e) != sorted(set(e)):
            raise InputError(f"edge line must be {r} strictly ascending integers, got {e}")
    return UniformHypergraph.from_edges(r, n, edges)
