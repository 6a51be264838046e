"""The one validating constructor of ``Graph``, ``Tournament`` and
``UniformHypergraph``.

The exact error texts are pinned, and a per-edge and a per-pair walk are
the reference validators: every one-bit flip of a valid row set must be
accepted or refused as the walk does, with its text.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import InputError
from homlab.graphs import Graph, UniformHypergraph, _bits, _transposed
from homlab.tournaments import Tournament


def reference_graph_check(n, masks):
    """The per-edge walk: row count, range, loop bits, then each edge's mirror."""
    if n < 0 or len(masks) != n:
        raise InputError(f"need exactly n={n} adjacency rows")
    for v, row in enumerate(masks):
        if row >> n:
            raise InputError(f"row {v} references vertices outside [0,{n})")
        if row >> v & 1:
            raise InputError(f"loop at vertex {v}")
    for v, row in enumerate(masks):
        for u in _bits(row):
            if not masks[u] >> v & 1:
                raise InputError(f"asymmetric pair ({u},{v})")


def reference_tournament_check(n, out):
    """The C(n, 2) pair loop: row count, range and loop bits, then each pair u < v."""
    if len(out) != n:
        raise InputError(f"need n={n} out-neighbor rows")
    full = (1 << n) - 1
    for v, row in enumerate(out):
        if row & ~full or row >> v & 1:
            raise InputError(f"row {v} out of range or reflexive")
    for u in range(n):
        for v in range(u + 1, n):
            if (out[u] >> v & 1) == (out[v] >> u & 1):
                raise InputError(f"pair ({u},{v}) must be oriented exactly one way")


def reference_hypergraph_check(r, n, masks):
    """The per-edge walk over the distinct masks in ascending order: each
    edge's range, then its arity."""
    if r < 2:
        raise InputError("uniformity r must be >= 2")
    if n < 0:
        raise InputError(f"vertex count n={n} is negative")
    for e in sorted(set(masks)):
        if e >> n:
            raise InputError(f"edge mask {e} outside [0,{n})")
        if e.bit_count() != r:
            raise InputError(f"edge {list(_bits(e))} is not {r}-uniform")


def message(build, n, rows):
    """The InputError text ``build(n, rows)`` raises, or None if it builds."""
    try:
        build(n, rows)
    except InputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    ("n", "masks", "text"),
    [
        (3, (0b010, 0b000, 0b000), "asymmetric pair (1,0)"),
        # rows 1 and 2 both miss a mirror bit; the first row wins, then its lowest bit
        (4, (0b0000, 0b1100, 0b0001, 0b0000), "asymmetric pair (2,1)"),
        (4, (0b1000, 0b0100, 0b0000, 0b0001), "asymmetric pair (2,1)"),
        (3, (0b000, 0b010, 0b000), "loop at vertex 1"),
        (3, (0b1000, 0b000, 0b000), "row 0 references vertices outside [0,3)"),
        (3, (0b000, -2, 0b000), "row 1 references vertices outside [0,3)"),
        (3, (0b000, 0b000), "need exactly n=3 adjacency rows"),
        (-1, (), "need exactly n=-1 adjacency rows"),
        # range and loop come before any pair, as the walk checks them first
        (3, (0b010, 0b000, 0b100), "loop at vertex 2"),
        (3, (0b010, 0b1000, 0b000), "row 1 references vertices outside [0,3)"),
    ],
)
def test_graph_error_texts_are_pinned(n, masks, text):
    with pytest.raises(InputError) as exc:
        Graph(n, masks)
    assert str(exc.value) == text


@pytest.mark.parametrize(
    ("n", "out", "text"),
    [
        (2, (0b00, 0b00), "pair (0,1) must be oriented exactly one way"),
        (2, (0b10, 0b01), "pair (0,1) must be oriented exactly one way"),
        # 0 -> 1 and 0 -> 2 are fine; the first bad pair u < v is (1, 2)
        (3, (0b110, 0b100, 0b010), "pair (1,2) must be oriented exactly one way"),
        (4, (0b0010, 0b0000, 0b0011, 0b0101), "pair (1,3) must be oriented exactly one way"),
        (2, (0b11, 0b00), "row 0 out of range or reflexive"),
        (3, (0b000, 0b1000, 0b000), "row 1 out of range or reflexive"),
        (3, (0b000, 0b000, -1), "row 2 out of range or reflexive"),
        (3, (0b010, 0b100), "need n=3 out-neighbor rows"),
    ],
)
def test_tournament_error_texts_are_pinned(n, out, text):
    with pytest.raises(InputError) as exc:
        Tournament(n, out)
    assert str(exc.value) == text


@pytest.mark.parametrize(
    ("r", "n", "masks", "text"),
    [
        (1, 4, (), "uniformity r must be >= 2"),
        (3, -1, (), "vertex count n=-1 is negative"),
        (3, 4, (0b0111, -7), "edge mask -7 outside [0,4)"),
        (3, 4, (0b0111, 0b10011), "edge mask 19 outside [0,4)"),
        (3, 4, (0b0111, 0b0011), "edge [0, 1] is not 3-uniform"),
        (3, 4, (0b1111,), "edge [0, 1, 2, 3] is not 3-uniform"),
        (2, 0, (0,), "edge [] is not 2-uniform"),
        (2, 0, (0b11,), "edge mask 3 outside [0,0)"),
        # one mask at fault both ways: its range is checked first
        (3, 4, (0b10000,), "edge mask 16 outside [0,4)"),
        # the first faulty mask in ascending order is named, whichever fault it has
        (3, 4, (0b10111, 0b0011), "edge [0, 1] is not 3-uniform"),
        (3, 4, (0b0011, -1), "edge mask -1 outside [0,4)"),
        (3, 5, (0b11100, 0b1011, 0b0101, 0b100111), "edge [0, 2] is not 3-uniform"),
    ],
)
def test_hypergraph_error_texts_are_pinned(r, n, masks, text):
    with pytest.raises(InputError) as exc:
        UniformHypergraph(r, n, masks)
    assert str(exc.value) == text
    assert message(lambda n, masks: reference_hypergraph_check(r, n, masks), n, masks) == text


def test_hypergraph_duplicates_collapse_and_an_empty_one_builds():
    h = UniformHypergraph(3, 4, (0b1011, 0b0111, 0b1011, 0b0111))
    assert h.edge_masks == (0b0111, 0b1011) and h.edge_count == 2
    assert h._incidence == (0b11, 0b11, 0b01, 0b10)
    assert h == UniformHypergraph(3, 4, [0b0111, 0b1011])
    empty = UniformHypergraph(3, 0, ())
    assert empty.edge_masks == () and empty._incidence == ()


@given(r=st.integers(2, 5), n=st.integers(0, 17), data=st.data())
@settings(max_examples=300, deadline=None)
def test_hypergraph_masks_are_accepted_or_refused_as_the_walk_does(r, n, data):
    # any masks, in range or not, of any arity, negative ones included
    masks = data.draw(st.lists(st.integers(-(1 << n + 1), 1 << n + 1), max_size=12), label="masks")
    build = lambda n, masks: UniformHypergraph(r, n, masks)  # noqa: E731
    check = lambda n, masks: reference_hypergraph_check(r, n, masks)  # noqa: E731
    assert message(build, n, masks) == message(check, n, masks)


@pytest.mark.parametrize("build", [Graph, Tournament], ids=["graph", "tournament"])
def test_rows_given_as_a_list_build_the_equal_hashable_instance(build):
    rows = [0b110, 0b101, 0b011] if build is Graph else [0b010, 0b100, 0b001]
    listed, tupled = build(3, list(rows)), build(3, tuple(rows))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.masks if build is Graph else listed.out) is tuple


# The empty graph, and sizes at and next to multiples of 8, where the packed
# matrix's width N steps up (8, 16, 24, 64, 72).
SIZES = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65]


def picked_rows(n, pairs, both):
    """Rows from the bits of ``pairs``, one per pair u < v in lexicographic
    order: a set bit is the edge {u, v} (``both``) or u -> v, else no edge
    (``both``) or v -> u."""
    rows = [0] * n
    for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        if pairs >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= both << u
        elif not both:
            rows[v] |= 1 << u
    return rows


def one_bit_flips(n, rows, row_set):
    """Every row set one bit away from ``rows`` in a row of ``row_set``, at bits
    0..n (bit n is just out of range), and that row's complement, a negative row."""
    for v in row_set:
        for bit in range(n + 1):
            yield rows[:v] + [rows[v] ^ 1 << bit] + rows[v + 1:]
        yield rows[:v] + [~rows[v]] + rows[v + 1:]


@pytest.mark.parametrize("build, reference, both", [
    (Graph, reference_graph_check, True),
    (Tournament, reference_tournament_check, False),
], ids=["graph", "tournament"])
@pytest.mark.parametrize("n", SIZES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_every_one_bit_flip_is_accepted_or_refused_as_the_walk_does(build, reference, both, n, data):
    rows = picked_rows(n, data.draw(st.integers(0, 2 ** math.comb(n, 2) - 1)), both)
    assert message(build, n, rows) is None
    # every row up to n = 17; above, the first, the last and one drawn row
    row_set = range(n) if n <= 17 else {0, data.draw(st.integers(0, n - 1)), n - 1}
    for flipped in one_bit_flips(n, rows, row_set):
        assert message(build, n, flipped) == message(reference, n, flipped)


@pytest.mark.parametrize("n", [1, 8, 9, 100, 255, 256, 257, 300])
def test_transpose_matches_the_naive_transpose_with_and_without_a_kept_plan(n):
    # plans are kept up to N = 256 and built per call above; the rows are any
    # bits, neither symmetric nor oriented
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    x, t, width = _transposed(rows)
    assert width == max(8, -(-n // 8) * 8)
    full = (1 << width) - 1
    assert [x >> v * width & full for v in range(width)] == rows + [0] * (width - n)
    columns = [sum((row >> v & 1) << u for u, row in enumerate(rows)) for v in range(n)]
    assert [t >> v * width & full for v in range(width)] == columns + [0] * (width - n)
