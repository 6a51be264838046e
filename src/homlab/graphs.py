"""Exact graph and uniform-hypergraph cores.

Graphs are immutable, stored as bitmask adjacency rows (bit ``u`` of
``masks[v]`` is set iff ``{u, v}`` is an edge).  All counts are exact Python
integers and all densities exact :class:`fractions.Fraction` values; floats
never enter a count.  The text readers read a file's lines once: the header
first, capped before any later line is read, then each line as it arrives, so
the first faulty line is the one named.  A line ends only at "\n", "\r\n" or "\r".
"""

from __future__ import annotations

import functools
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


def _pack(rows: Sequence[int], width: int) -> bytes:
    """A width x width bit matrix as bytes, row v (0 past the rows given) in
    bytes [v*width/8, (v + 1)*width/8), little-endian."""
    return b"".join([row.to_bytes(width >> 3, "little") for row in rows]).ljust(width * width >> 3, b"\0")


def _tile_swaps(nbytes: int, blocks: int) -> tuple[tuple[int, int], ...]:
    """The three delta swaps (d, mask) that transpose in place each 8 x 8 tile
    of a bit matrix of 8 * blocks rows of nbytes bytes, packed as by ``_pack``
    into one integer (Warren, Hacker's Delight 7-3): for s = 4, 2, 1, bit
    (v, u), at v * 8nbytes + u, with bit s of u set and of v clear trades
    places with (v + s, u - s), d = s(8nbytes - 1) places up."""
    return tuple((s * (8 * nbytes - 1), int.from_bytes(
        (bytes([cols]) * (nbytes * s) + bytes(nbytes * s)) * (4 // s * blocks), "little"))
        for s, cols in ((4, 0xF0), (2, 0xCC), (1, 0xAA)))


def _swap_tiles(x: int, swaps: tuple[tuple[int, int], ...]) -> int:
    """``x`` with each 8 x 8 tile transposed by the delta swaps of ``_tile_swaps``."""
    for d, m in swaps:
        y = ((x >> d) ^ x) & m
        x ^= y ^ (y << d)
    return x


@functools.cache
def _transpose_plan(width: int) -> tuple[tuple[slice, ...], tuple[tuple[int, int], ...]]:
    """How ``_transposed`` turns a width x width bit matrix, packed by ``_pack``,
    into its transpose.  First the slices: row 8j + k of the result gathers
    byte j of rows k, 8 + k, 16 + k, ..., so the 8 x 8 tile of bytes j of rows
    8i..8i+7 moves to bytes i of rows 8j..8j+7.  Then the swaps of
    ``_tile_swaps`` transpose each tile in place."""
    nbytes = width >> 3
    return (tuple(slice((i & 7) * nbytes + (i >> 3), None, width) for i in range(width)),
            _tile_swaps(nbytes, nbytes))


def _transposed(rows: Sequence[int]) -> tuple[int, int, int]:
    """(x, t, N): N the least multiple of 8, and at least 8, that is >= len(rows),
    x the rows packed by ``_pack`` into one integer, t x transposed as an N x N
    bit matrix."""
    width = max(8, len(rows) + 7 & -8)
    packed = _pack(rows, width)
    # plans are kept up to N = 256 (40 KB there); at n = 5793 one takes 13 MB
    slices, swaps = (_transpose_plan if width <= 256 else _transpose_plan.__wrapped__)(width)
    t = _swap_tiles(int.from_bytes(b"".join(map(packed.__getitem__, slices)), "little"), swaps)
    return int.from_bytes(packed, "little"), t, width


# Most bytes of edge words ``_incidence_rows`` transposes as one integer: the
# swaps run faster a cache-sized piece at a time than over the whole matrix.
_TILE_CHUNK = 1 << 17


def _incidence_rows(n: int, masks: Sequence[int]) -> tuple[int, ...]:
    """Row v of each vertex v of range(n): bit i set iff v is on ``masks[i]``.

    The masks are packed as the rows of an m x 8w bit matrix, w = ceil(n / 8)
    bytes a row, padded with zero rows to whole blocks of 8, and each 8 x 8
    tile is transposed in place (``_tile_swaps``), a chunk of blocks at a time.
    Byte j of mask 8t + k then holds vertex 8j + k's bits of masks 8t..8t+7,
    so row v is every 8w-th byte from byte (v & 7)w + (v >> 3)."""
    if not masks:
        return (0,) * n
    width = n + 7 >> 3
    step = 8 * width  # one block: the words of 8 masks
    blocks = len(masks) + 7 >> 3
    packed = b"".join([e.to_bytes(width, "little") for e in masks]).ljust(blocks * step, b"\0")
    chunk = max(1, min(blocks, _TILE_CHUNK // step)) * step
    swaps = _tile_swaps(width, chunk // step)
    pieces = []
    for at in range(0, len(packed), chunk):
        piece = packed[at:at + chunk]
        pieces.append(_swap_tiles(int.from_bytes(piece, "little"), swaps).to_bytes(len(piece), "little"))
    tiles = b"".join(pieces)
    return tuple(int.from_bytes(tiles[(v & 7) * width + (v >> 3)::step], "little") for v in range(n))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.  ``Graph(n, masks)``, its
    one constructor, stores the rows as a tuple and accepts n rows in [0, 2^n)
    without loop bits whose bit matrix is its own transpose (``_transposed``)."""

    r: ClassVar[int] = 2
    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n, masks = self.n, tuple(self.masks)
        object.__setattr__(self, "masks", masks)
        if n < 0 or len(masks) != n:
            raise InputError(f"need exactly n={n} adjacency rows")
        for v, row in enumerate(masks):
            if row >> n:  # also every negative row
                raise InputError(f"row {v} references vertices outside [0,{n})")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        x, t, width = _transposed(masks)
        if x != t:
            bad = x & ~t  # (v, u) without (u, v): the lowest is the first row's lowest
            v, u = divmod((bad & -bad).bit_length() - 1, width)
            raise InputError(f"asymmetric pair ({u},{v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * max(n, 0)  # a negative n is refused by the constructor, at any size
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad edge ({u},{v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

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

    Each vertex also has its incidence row, built once with the instance by
    one bit-matrix transpose of the edge masks (``_incidence_rows``): bit i of
    ``_incidence[v]`` is set iff ``v`` is on ``edge_masks[i]``.  They follow
    from the edges, so equality and hashing skip them.  They are both
    the ``rows`` and the ``kill`` of ``_container_rows()``, the one view the
    container layer reads of a graph or a hypergraph: ``rows[v]`` is what a
    degree of v counts, ``kill[v]`` what v clears when it leaves a vertex set."""

    r: int
    n: int
    edge_masks: tuple[int, ...]
    _incidence: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, n = self.r, self.n
        if r < 2:
            raise InputError("uniformity r must be >= 2")
        if n < 0:
            raise InputError(f"vertex count n={n} is negative")
        masks = tuple(sorted(set(self.edge_masks)))
        # range and arity over the whole tuple; the walk names the first faulty edge
        if masks and (masks[0] < 0 or masks[-1] >> n
                      or list(map(int.bit_count, masks)).count(r) != len(masks)):
            for e in masks:
                if e >> n:  # also every negative mask
                    raise InputError(f"edge mask {e} outside [0,{n})")
                if e.bit_count() != r:
                    raise InputError(f"edge {list(_bits(e))} is not {r}-uniform")
        object.__setattr__(self, "edge_masks", masks)
        object.__setattr__(self, "_incidence", _incidence_rows(n, masks))

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
    return Graph(len(order), rows)


def _non_rows(g: Graph) -> list[int]:
    """Row v holds the vertices other than v that are not adjacent to v: the
    adjacency rows of the complement graph, in O(n) big-integer operations."""
    full = (1 << g.n) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(g.masks)]


# ---------------------------------------------------------------------------
# induced P4 counting


def _p4_rows(g: Graph) -> Sequence[int]:
    """The rows the P4 scan reads: the complement's iff 2|E| > C(n, 2), else,
    a tie included, ``g``'s own; P4 is self-complementary (Seinsche 1974)."""
    return _non_rows(g) if 2 * g.edge_count > math.comb(g.n, 2) else g.masks


def _induced_p4s(masks: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Each induced path a-b-c-d of the rows ``masks`` once, as the embedding
    whose middle pair ascends (b < c), ordered by b, then c, then a, then d.

    A middle edge {b, c} takes a from A = N(b) minus N[c] and d from
    D = N(c) minus N[b]; a-b-c-d is induced iff d is outside N[a].  After each
    middle edge the copies listed from the a side are checked against the same
    pairs counted again from the d side, sum over d in D of |A minus N[d]|."""
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


def _p4_copies(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Each induced P4 of ``g`` once, as a labeled embedding of ``g``, in the
    order :func:`_induced_p4s` meets it on the side :func:`_p4_rows` picks;
    the complement's path x-y-z-w is ``g``'s z-x-w-y."""
    rows = _p4_rows(g)
    if rows is g.masks:
        return _induced_p4s(rows)
    return ((z, x, w, y) for x, y, z, w in _induced_p4s(rows))


def count_induced_p4(g: Graph) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """Fast exact induced-path-on-4-vertices count: (subsets, embeddings, copies).

    ``copies`` lists one labeled embedding a-b-c-d per induced copy, in scan
    order (:func:`_p4_copies`); reversal maps a copy's two embeddings onto each
    other, so embeddings = 2 * subsets.  A middle edge of the scanned side
    that fails its d-side cross-check raises AssertionError.
    """
    copies = list(_p4_copies(g))
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

# The one integer token the formats take: ASCII digits with an optional sign.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


# Most digits, and largest decimal exponent, a rational's text may carry.
# Fraction multiplies a decimal exponent out, so "1e999999999" would build a
# billion-digit integer before any range check could run.
_MAX_RATIONAL_DIGITS = 1000

# A run of what Fraction and int read as digits: any Unicode decimal digit, and "_".
_DIGIT_RUN = re.compile(r"[\d_]+")


def _int_text(text: str) -> int:
    """``int(text)`` for an option or config integer given as text, which must
    be ASCII ``[+-]?[0-9]+`` between blanks, as a file's tokens are; ValueError
    otherwise."""
    if not _INT_TOKEN.fullmatch(text.strip()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _rational(value) -> Fraction:
    """``Fraction(value)`` for an option or config value, such as "1/128",
    "0.5" or "1e-3"; text Fraction cannot read, with a digit run that is not
    ASCII ``[0-9]+``, or with too many digits or too large an exponent, raises
    InputError."""
    if isinstance(value, str):
        for run in _DIGIT_RUN.findall(value):
            if not _INT_TOKEN.fullmatch(run):
                raise InputError(f"bad rational {value[:40]!r}: digit run {run[:40]!r} is not ASCII 0-9")
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


def _graph_blocks(g: Graph) -> Iterator[str]:
    """The text of ``g`` block by block, each ending in a newline: the "n m"
    header, then one block per vertex u with a neighbour v > u, a line "u v"
    for each, ascending.  The neighbours are picked from the names above u
    by the reversed binary digits of the row above u."""
    names = [str(v) for v in range(g.n)]
    yield f"{g.n} {g.edge_count}\n"
    for u, row in enumerate(g.masks):
        above = row >> u + 1
        if above:
            prefix = names[u] + " "
            picks = bin(above)[:1:-1].encode().translate(_PICKS)
            yield prefix + ("\n" + prefix).join(itertools.compress(names[u + 1:], picks)) + "\n"


def write_graph(g: Graph) -> str:
    """The text of ``g``, the blocks of ``_graph_blocks`` joined."""
    return "".join(_graph_blocks(g))


def _read_header(lines: Iterator[str], what: str, fields: str,
                 check_n: Callable[[int], None] | None) -> tuple[int, ...]:
    """The integers of the first non-blank line of ``lines``, named by
    ``fields`` (as in "r n m").  Every field but the edge count m is a size
    capped at ``_MAX_READ_N``, and n is then passed to ``check_n`` (a caller's
    cap, which raises), all before any later line is taken."""
    words = next(filter(None, map(str.split, lines)), None)
    if words is None:
        raise InputError(f"empty {what} file")
    names = fields.split()
    header = _ints(words, what)
    if len(header) != len(names):
        raise InputError(f"{what} header needs {len(names)} integers, got {len(header)}")
    sizes = header[:-1] if names[-1] == "m" else header
    if max(sizes) > _MAX_READ_N:
        raise CapabilityError(f"{what} header field {max(sizes)} exceeds {_MAX_READ_N}")
    if check_n is not None:
        check_n(header[names.index("n")])
    return header


def _ints(words: list[str], what: str) -> tuple[int, ...]:
    """The integers of one line's tokens.  Each token must be ASCII
    ``[+-]?[0-9]+``: ``int`` alone also reads "0_3" and non-ASCII digits."""
    for word in words:
        if not _INT_TOKEN.fullmatch(word):  # named as int names a token it cannot read
            raise InputError(f"malformed {what} file: invalid literal for int() with base 10: "
                             f"{word!r:.200}")
    try:
        return tuple(map(int, words))
    except ValueError as exc:  # more digits than int converts
        raise InputError(f"malformed {what} file: {exc}") from exc


def _edge_lines(lines: Iterator[str], what: str, n: int, m: int) -> Iterator[tuple[int, ...]]:
    """The integers of each of the m non-blank lines left in ``lines``, as each
    arrives; a line past the m-th is refused, naming how many there are.  A
    token that names a vertex as ``str`` writes it is looked up in a table of
    the n names, which checks and reads it at once; a line with any other
    token is read by :func:`_ints`."""
    vertices = {str(v): v for v in range(n)}
    found = 0
    for found, words in enumerate(filter(None, map(str.split, lines)), 1):
        e = tuple(map(vertices.get, words))
        if None in e:
            e = _ints(words, what)
        if found > m:
            found += sum(1 for line in lines if line.strip())
            break
        yield e
    if found != m:
        raise InputError(f"expected {m} edge lines, found {found}")


def read_graph(lines: Iterable[str], check_n: Callable[[int], None] | None = None) -> Graph:
    """The graph of the lines of an "n m" text file.  ``check_n``, if given, is
    called with the header's n before any edge line is read, so a command can
    refuse a graph above its cap without reading it.  A duplicate edge line
    shows as fewer than m edges."""
    lines = iter(lines)
    n, m = _read_header(lines, "graph", "n m", check_n)
    rows = [0] * max(n, 0)  # a negative n is refused by the constructor, at any size
    for e in _edge_lines(lines, "graph", n, m):
        if len(e) != 2 or e[0] >= e[1]:
            raise InputError(f"edge line must be two integers u < v, got {e}")
        u, v = e
        if u < 0 or v >= n:
            raise InputError(f"bad edge ({u},{v}) for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    g = Graph(n, rows)
    if g.edge_count != m:
        raise InputError("duplicate edge line")
    return g


def read_hypergraph(lines: Iterable[str], check_n: Callable[[int], None] | None = None) -> UniformHypergraph:
    """The r-uniform hypergraph of the lines of an "r n m" text file, read as
    :func:`read_graph` reads a graph."""
    lines = iter(lines)
    r, n, m = _read_header(lines, "hypergraph", "r n m", check_n)
    masks = []
    for e in _edge_lines(lines, "hypergraph", n, m):
        if len(e) != r or list(e) != sorted(set(e)):
            raise InputError(f"edge line must be {r} strictly ascending integers, got {e}")
        if e[0] < 0 or e[-1] >= n:
            raise InputError(f"edge {list(e)} outside [0,{n})")
        masks.append(_mask(e))
    h = UniformHypergraph(r, n, masks)
    if h.edge_count != m:
        raise InputError("duplicate edge line")
    return h
