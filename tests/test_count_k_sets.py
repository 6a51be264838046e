"""The library's k-set counts against the kernels they replaced.

Each reference below is one of the counting kernels the library used before:
a `combinations` scan for hypergraph independent sets, the
degree-distinctness scan for transitive subtournaments, and for homogeneous
triples both the neighbourhood-intersection triangle loop and the two-sided
pick count, which Goodman's degree identity replaced at k = 3 (every other
k still runs on the pick counter).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.containers import count_independent_sets_exact
from homlab.generators import gnp, perturb_edges, random_cograph, random_tournament
from homlab.graphs import Graph, UniformHypergraph, _bits, _count_k_sets, _mask
from homlab.homogeneous import count_homogeneous_k
from homlab.tournaments import count_transitive_subtournaments


def independent_sets_by_scan(h: UniformHypergraph, k: int) -> int:
    """k-subsets that contain no edge mask, by scanning every k-subset."""
    return sum(
        all(e & ~_mask(combo) for e in h.edge_masks)
        for combo in itertools.combinations(range(h.n), k)
    )


def transitive_sets_by_scan(t, k: int) -> int:
    """k-subsets whose restricted out-degrees are pairwise distinct, which is
    exactly when the subtournament is transitive."""
    total = 0
    for combo in itertools.combinations(range(t.n), k):
        smask = _mask(combo)
        degs = [(t.out[v] & smask).bit_count() for v in combo]
        total += len(set(degs)) == k
    return total


def homogeneous_triples_by_triangles(g) -> int:
    """Triangles of g plus triangles of its complement, by intersecting the
    neighbourhoods above each vertex."""
    masks, full = g.masks, (1 << g.n) - 1
    comp = [~masks[v] & full & ~(1 << v) for v in range(g.n)]
    total = 0
    for u in range(g.n):
        above = full & ~((1 << (u + 1)) - 1)
        for rows in (masks, comp):
            for v in _bits(rows[u] & above):
                total += (rows[u] & rows[v] & above & ~((1 << (v + 1)) - 1)).bit_count()
    return total


def homogeneous_by_pick_count(g, k: int) -> int:
    """Cliques plus independent sets on the shared pick counter: a clique
    picks among the neighbours above each pick, an independent set among
    the non-neighbours above it."""
    above = [(1 << g.n) - (2 << v) for v in range(g.n)]
    cliques = _count_k_sets([a & row for a, row in zip(above, g.masks)], k)
    return cliques + _count_k_sets([a & ~row for a, row in zip(above, g.masks)], k)


def assert_triples_agree(g) -> None:
    count = count_homogeneous_k(g, 3)
    assert count == homogeneous_by_pick_count(g, 3) == homogeneous_triples_by_triangles(g)


@st.composite
def hypergraph_and_k(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 12))
    combos = list(itertools.combinations(range(n), r))
    edges = draw(st.sets(st.sampled_from(combos))) if combos else set()
    return UniformHypergraph.from_edges(r, n, edges), draw(st.integers(0, n + 1))


@given(hypergraph_and_k())
@settings(max_examples=300, deadline=None)
def test_hypergraph_independent_sets_match_the_scan(case):
    h, k = case
    assert count_independent_sets_exact(h, k) == independent_sets_by_scan(h, k)


@given(st.integers(0, 13), st.data())
@settings(max_examples=200, deadline=None)
def test_graph_count_equals_its_two_uniform_count(n, data):
    g = gnp(n, Fraction(data.draw(st.integers(0, 8)), 8), data.draw(st.integers(0, 10**6)))
    k = data.draw(st.integers(0, n + 1))
    h = UniformHypergraph.from_edges(2, g.n, g.edges())
    assert count_independent_sets_exact(g, k) == count_independent_sets_exact(h, k)


@given(st.integers(0, 12), st.integers(0, 10**6), st.data())
@settings(max_examples=200, deadline=None)
def test_transitive_subtournaments_match_the_degree_scan(n, seed, data):
    t = random_tournament(n, seed)
    k = data.draw(st.integers(0, n + 1))
    assert count_transitive_subtournaments(t, k) == transitive_sets_by_scan(t, k)


@given(st.integers(0, 40), st.integers(0, 8), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_homogeneous_triples_match_the_triangle_loop(n, p8, seed):
    assert_triples_agree(gnp(n, Fraction(p8, 8), seed))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_homogeneous_triples_on_perturbed_cographs(seed):
    assert_triples_agree(perturb_edges(random_cograph(40, seed), 32, seed, stream=1))


@pytest.mark.parametrize("n", range(7))
def test_homogeneous_triples_on_every_small_graph(n):
    """Every labelled graph on n <= 6 vertices, one edge subset at a time."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        rows = [0] * n
        for i in _bits(chosen):
            u, v = pairs[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        assert_triples_agree(Graph(n, rows))


def test_homogeneous_triples_on_a_large_random_graph():
    assert_triples_agree(gnp(200, Fraction(1, 2), 5))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_fewer_than_three_vertices_have_no_homogeneous_triple(n):
    for g in (Graph(n, [0] * n), gnp(n, Fraction(1), 0)):
        assert count_homogeneous_k(g, 3) == 0
