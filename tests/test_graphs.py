import io
import itertools
import math
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlab.errors import InputError
from homlab.generators import gnp, overlay_construction
from homlab.graphs import (
    Graph,
    _bits,
    _non_rows,
    _p4_rows,
    UniformHypergraph,
    count_induced_p4,
    edge_density,
    induced_subgraph,
    path_graph,
    read_graph,
    read_hypergraph,
    write_graph,
)
from homlab.homogeneous import has_induced_p4

from graph_helpers import complement, complete_graph, cycle_graph, empty_graph, write_hypergraph

small_graphs = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.builds(
        Graph.from_edges,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=n * n,
        ),
    )
)


# The generic induced-copy counter, the oracle for count_induced_p4.


def automorphism_count(h: Graph) -> int:
    """|Aut(h)| by direct permutation scan (meant for |h| <= 8)."""
    count = 0
    for perm in itertools.permutations(range(h.n)):
        if all(
            h.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(h.n)
            for v in range(u + 1, h.n)
        ):
            count += 1
    return count


def _isomorphic_to(sub: Graph, h: Graph, h_degrees: Sequence[int]) -> bool:
    """Backtracking isomorphism test against a fixed pattern h (small h only)."""
    degs = sorted(sub.degree(v) for v in range(sub.n))
    if degs != sorted(h_degrees):
        return False
    used = [False] * sub.n

    def extend(i: int, image: list[int]) -> bool:
        if i == h.n:
            return True
        for cand in range(sub.n):
            if used[cand] or sub.degree(cand) != h_degrees[i]:
                continue
            if all(h.has_edge(i, j) == sub.has_edge(cand, image[j]) for j in range(i)):
                used[cand] = True
                image.append(cand)
                if extend(i + 1, image):
                    return True
                image.pop()
                used[cand] = False
        return False

    return extend(0, [])


def count_induced_copies(g: Graph, h: Graph) -> tuple[int, int]:
    """(subset count, labeled embedding count) of induced copies of h in g.

    The embedding count is subsets * |Aut(h)|, i.e. the number of injective
    maps preserving both adjacency and non-adjacency.
    """
    if h.n == 0:
        return 1, 1
    if h.n > g.n:
        return 0, 0
    h_edges = h.edge_count
    h_degrees = [h.degree(v) for v in range(h.n)]
    subsets = 0
    for combo in itertools.combinations(range(g.n), h.n):
        inner = 0
        for i, u in enumerate(combo):
            for v in combo[i + 1 :]:
                if g.masks[u] >> v & 1:
                    inner += 1
        if inner != h_edges:
            continue
        if _isomorphic_to(induced_subgraph(g, combo), h, h_degrees):
            subsets += 1
    return subsets, subsets * automorphism_count(h)


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(InputError):
        Graph(2, (2, 0))  # 0->1 set but not 1->0


def test_graph_validation_rejects_loops():
    with pytest.raises(InputError):
        Graph(2, (1, 2))


def test_edge_density_c5():
    assert edge_density(cycle_graph(5)) == Fraction(1, 2)


def test_edge_density_needs_two_vertices():
    with pytest.raises(InputError):
        edge_density(empty_graph(1))


def test_c5_minus_vertex_is_p4():
    sub = induced_subgraph(cycle_graph(5), [0, 1, 2, 3])
    assert sorted(sub.edges()) == sorted(path_graph(4).edges())


def test_induced_subgraph_relabels_ascending():
    g = Graph.from_edges(5, [(1, 4), (1, 3)])
    sub = induced_subgraph(g, [4, 1, 3])
    # 1 -> 0, 3 -> 1, 4 -> 2
    assert sorted(sub.edges()) == [(0, 1), (0, 2)]


@pytest.mark.parametrize(
    "g,count",
    [(path_graph(4), 2), (cycle_graph(5), 10), (complete_graph(4), 24), (empty_graph(3), 6)],
)
def test_automorphism_counts(g, count):
    assert automorphism_count(g) == count


def test_c5_contains_five_p4s():
    assert count_induced_copies(cycle_graph(5), path_graph(4)) == (5, 10)


def test_no_p4_in_complete_graph():
    assert count_induced_copies(complete_graph(6), path_graph(4)) == (0, 0)


@given(small_graphs)
@settings(max_examples=100, deadline=None)
def test_p4_fast_counter_matches_generic(g):
    subsets, embeddings, copies = count_induced_p4(g)
    assert (subsets, embeddings) == count_induced_copies(g, path_graph(4))
    assert len(copies) == subsets


def reference_p4(g):
    """The two-orientation scan the once-per-copy kernel replaced, kept verbatim
    as its oracle (same triple, same copy order)."""
    embeddings = 0
    copies: list[tuple[int, int, int, int]] = []
    for b in range(g.n):
        for c in _bits(g.masks[b]):
            a_side = g.masks[b] & ~g.masks[c] & ~(1 << c)
            d_side = g.masks[c] & ~g.masks[b] & ~(1 << b)
            if not a_side or not d_side:
                continue
            for a in _bits(a_side):
                free = d_side & ~g.masks[a] & ~(1 << a)
                embeddings += free.bit_count()
                if b < c:
                    copies.extend((a, b, c, d) for d in _bits(free))
    if embeddings % 2:
        raise AssertionError("labeled path-embedding count must be even")
    return embeddings // 2, embeddings, copies


def canonical(copies):
    """The copies as a multiset of paths, each in its lexicographically first
    orientation: what count_induced_p4 promises on either scan side."""
    return sorted(min(c, c[::-1]) for c in copies)


def assert_p4_scan_matches_reference(g):
    subsets, embeddings, copies = count_induced_p4(g)
    ref_subsets, ref_embeddings, ref_copies = reference_p4(g)
    assert (subsets, embeddings) == (ref_subsets, ref_embeddings)
    assert canonical(copies) == canonical(ref_copies)
    if _p4_rows(g) is g.masks:  # g's own scan: the reference's list, order included
        assert copies == ref_copies
    for a, b, c, d in copies:
        assert len({a, b, c, d}) == 4
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert not (g.has_edge(a, c) or g.has_edge(b, d) or g.has_edge(a, d))


graphs_up_to_14 = st.integers(min_value=0, max_value=14).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda keep: Graph.from_edges(
            n, [e for e, k in zip(itertools.combinations(range(n), 2), keep) if k]
        )
    )
)


@given(graphs_up_to_14)
@settings(max_examples=300, deadline=None)
def test_p4_scan_matches_reference_on_small_graphs(g):
    assert_p4_scan_matches_reference(g)


@given(graphs_up_to_14)
@settings(max_examples=200, deadline=None)
def test_has_induced_p4_stops_on_the_same_scan(g):
    assert has_induced_p4(g) == (count_induced_p4(g)[0] > 0)


@pytest.mark.parametrize("n", range(15))
def test_p4_scan_matches_reference_on_empty_and_complete_graphs(n):
    for g in (empty_graph(n), complete_graph(n)):
        assert_p4_scan_matches_reference(g)
        assert count_induced_p4(g) == (0, 0, [])


@pytest.mark.parametrize("n", [40, 80])
@pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(1, 10)])
def test_p4_scan_matches_reference_on_overlays(n, eps):
    for seed in range(3):
        assert_p4_scan_matches_reference(overlay_construction(n, eps, seed).graph)


def test_p4_scan_matches_reference_on_sparse_random_graphs():
    for seed in range(50):
        assert_p4_scan_matches_reference(gnp(40, Fraction(1, 20), seed))


def test_p4_scan_lists_the_orientation_whose_middle_pair_ascends():
    g = Graph.from_edges(4, [(3, 0), (0, 1), (1, 2)])
    assert count_induced_p4(g) == (1, 2, [(3, 0, 1, 2)])


def test_p4_scan_cross_checks_each_middle_edge_from_the_d_side():
    # rows that skip Graph validation: vertex 0 sees 3 but 3 does not see 0, so
    # the a side (row of a = 0) finds no copy on the middle edge (1, 2) while the
    # d side (row of d = 3) counts one
    g = object.__new__(Graph)
    object.__setattr__(g, "n", 4)
    object.__setattr__(g, "masks", (0b1010, 0b0101, 0b1010, 0b0100))
    with pytest.raises(AssertionError, match="d side"):
        count_induced_p4(g)


# The scan runs on the complement when 2|E| > C(n, 2): the tests below pin that
# side against the same oracles, the tie rule, and the d-side check there.

dense_graphs_up_to_14 = st.integers(min_value=0, max_value=14).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda draws: Graph.from_edges(  # each pair is an edge with probability 3/4
            n, [e for e, k in zip(itertools.combinations(range(n), 2), draws) if k]
        )
    )
)


def scans_complement(g):
    return _p4_rows(g) is not g.masks


@given(dense_graphs_up_to_14)
@settings(max_examples=200, deadline=None)
def test_p4_scan_on_dense_graphs_matches_reference_and_generic_counter(g):
    assert_p4_scan_matches_reference(g)
    subsets, embeddings, _ = count_induced_p4(g)
    assert (subsets, embeddings) == count_induced_copies(g, path_graph(4))
    assert has_induced_p4(g) == (subsets > 0)


def test_p4_scan_matches_reference_on_dense_random_graphs():
    for seed in range(20):
        g = gnp(40, Fraction(9, 10), seed)
        assert scans_complement(g)
        assert_p4_scan_matches_reference(g)
        if seed < 3:
            assert count_induced_p4(g)[:2] == count_induced_copies(g, path_graph(4))


@pytest.mark.parametrize("n", [4, 5, 8, 9, 12, 13])
def test_p4_scan_reads_g_at_half_the_pairs_and_the_complement_above(n):
    pairs = list(itertools.combinations(range(n), 2))
    for seed in range(5):
        order = pairs[seed:] + pairs[:seed]  # a different half per seed
        tie = Graph.from_edges(n, order[: len(pairs) // 2])
        above = Graph.from_edges(n, order[: len(pairs) // 2 + 1])
        assert 2 * tie.edge_count == math.comb(n, 2) and _p4_rows(tie) is tie.masks
        assert _p4_rows(above) == _non_rows(above)
        assert_p4_scan_matches_reference(tie)
        assert_p4_scan_matches_reference(above)


def test_p4_scan_cross_checks_the_complement_from_its_d_side():
    # rows that skip Graph validation, with 11 of the 15 pairs set: vertices 4
    # and 5 see every vertex, and on 0-3 the complement's rows are those of the
    # d side test above, where 0 sees 3 but 3 does not see 0
    g = object.__new__(Graph)
    object.__setattr__(g, "n", 6)
    object.__setattr__(g, "masks", (0b110100, 0b111000, 0b110001, 0b110011, 0b101111, 0b011111))
    assert scans_complement(g)
    assert list(_p4_rows(g)) == [0b1010, 0b0101, 0b1010, 0b0100, 0, 0]
    with pytest.raises(AssertionError, match="d side"):
        count_induced_p4(g)


def as_g_copy(x, y, z, w):
    """The complement's path x-y-z-w as the graph's path z-x-w-y."""
    return z, x, w, y


def assert_complement_copies_map_onto_the_graphs(g):
    h = complement(g)
    subsets, embeddings, copies = count_induced_p4(g)
    h_subsets, h_embeddings, h_copies = count_induced_p4(h)
    assert (h_subsets, h_embeddings) == (subsets, embeddings)
    assert canonical(as_g_copy(*copy) for copy in h_copies) == canonical(copies)
    # off a tie exactly one of the two scans reads the other's rows, and its
    # list is the other's mapped one, order included
    if scans_complement(g):
        assert copies == [as_g_copy(*copy) for copy in h_copies]
    if scans_complement(h):
        assert h_copies == [as_g_copy(*copy) for copy in copies]


@given(graphs_up_to_14)
@settings(max_examples=200, deadline=None)
def test_complement_copies_map_one_to_one_onto_the_graphs(g):
    assert_complement_copies_map_onto_the_graphs(g)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(9, 10)])
def test_complement_copies_map_one_to_one_onto_the_graphs_at_n_60(p):
    for seed in range(3):
        assert_complement_copies_map_onto_the_graphs(gnp(60, p, seed))


@given(small_graphs)
@settings(max_examples=100, deadline=None)
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(small_graphs)
@settings(max_examples=100, deadline=None)
def test_complement_edge_partition(g):
    assert g.edge_count + complement(g).edge_count == math.comb(g.n, 2)


@given(small_graphs)
@settings(max_examples=100, deadline=None)
def test_graph_text_roundtrip(g):
    assert read_graph(io.StringIO(write_graph(g), newline=None)) == g


def reference_write_graph(g):
    """The writer as it was before its row blocks: one f-string per edge,
    kept verbatim."""
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# graphs of 0 to 40 vertices, sparse enough to leave isolated vertices
any_size_graphs = st.integers(0, 40).flatmap(
    lambda n: st.builds(
        Graph.from_edges,
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                 max_size=3 * n) if n >= 2 else st.just([]),
    )
)


@given(any_size_graphs)
@example(empty_graph(0))
@example(empty_graph(1))
@example(complete_graph(9))
@example(Graph.from_edges(6, [(1, 4)]))
@settings(max_examples=200, deadline=None)
def test_writer_matches_its_reference(g):
    assert write_graph(g) == reference_write_graph(g)


@given(any_size_graphs)
@settings(max_examples=100, deadline=None)
def test_graph_from_symmetric_rows_equals_the_validated_graph(g):
    assert Graph(g.n, list(g.masks)) == g


def test_graph_from_symmetric_rows_rejects_loops_bits_at_or_above_n_and_a_wrong_row_count():
    assert Graph(3, [0b110, 0b101, 0b011]) == complete_graph(3)
    for masks in ([0b001, 0, 0],  # a loop bit
                  [0, 0, 0b100],  # the last vertex's loop bit
                  [0b1000, 0, 0],  # at n
                  [0, 0b10100, 0],  # above n
                  [-2, 0, 0],  # negative
                  [0b10, 0b01],  # too few rows
                  [0, 0, 0, 0]):  # too many
        with pytest.raises(InputError):
            Graph(3, masks)
    with pytest.raises(InputError):
        Graph(-1, [])


def test_graph_text_format_shape():
    text = write_graph(path_graph(3))
    lines = text.strip().splitlines()
    assert lines[0] == "3 2"
    assert lines[1:] == ["0 1", "1 2"]


def test_read_graph_rejects_bad_header():
    with pytest.raises(InputError):
        read_graph(io.StringIO("not a graph\n", newline=None))
    # three integers on an edge line, a duplicate edge, a line past m
    for text in ("2 1\n0 1 2\n", "3 2\n0 1\n0 1\n", "3 1\n0 1\n1 2\n"):
        with pytest.raises(InputError):
            read_graph(io.StringIO(text, newline=None))


@pytest.mark.parametrize("text", ["-5 0\n", "-99999999999999999999990 0\n"])
def test_read_graph_rejects_a_negative_n_of_any_size(text):
    # a list of -10^22 rows cannot be sized: that raised OverflowError
    with pytest.raises(InputError, match="need exactly n="):
        read_graph(io.StringIO(text, newline=None))


def test_hypergraph_roundtrip():
    h = UniformHypergraph.from_edges(3, 6, [(0, 1, 2), (1, 3, 5)])
    assert read_hypergraph(io.StringIO(write_hypergraph(h), newline=None)) == h


def test_read_hypergraph_rejects_malformed_lines():
    # too few / too many integers on an edge line, a duplicate edge, a line
    # past m, a negative vertex count
    bad = ("3 4 1\n0 1\n", "3 4 1\n0 1 2 3\n", "3 4 2\n0 1 2\n0 1 2\n", "3 4 1\n0 1 2\n1 2 3\n",
           "3 -1 0\n")
    for text in bad:
        with pytest.raises(InputError):
            read_hypergraph(io.StringIO(text, newline=None))


def test_hypergraph_text_is_sorted_by_vertex_tuple():
    # edge-mask order puts {0,2,3} (mask 13) before {0,1,4} (mask 19)
    h = UniformHypergraph.from_edges(3, 5, [(0, 2, 3), (0, 1, 4)])
    assert write_hypergraph(h) == "3 5 2\n0 1 4\n0 2 3\n"
    assert h.edges == ((0, 2, 3), (0, 1, 4))


@given(st.sampled_from([2, 3, 4]), st.integers(0, 14), st.data())
@settings(max_examples=200, deadline=None)
def test_incidence_rows_match_their_definition(r, n, data):
    candidates = [sum(1 << v for v in e) for e in itertools.combinations(range(n), r)]
    masks = data.draw(st.lists(st.sampled_from(candidates), max_size=60) if candidates
                      else st.just([]), label="masks")  # in any order, with repeats
    h = UniformHypergraph(r, n, tuple(masks))
    assert len(h._incidence) == n
    for v in range(n):
        assert h._incidence[v] == sum(1 << i for i, e in enumerate(h.edge_masks) if e >> v & 1)


def test_hypergraph_rejects_wrong_arity():
    with pytest.raises(InputError):
        UniformHypergraph.from_edges(3, 6, [(0, 1)])


def test_degree_and_edge_count():
    g = cycle_graph(6)
    assert g.edge_count == 6
    assert all(g.degree(v) == 2 for v in range(6))
