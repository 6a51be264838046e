"""The pick-and-restrict k-set counter against the scans it replaced.

Each reference below is one of the counting kernels the library used before
the counter: a `combinations` scan for hypergraph independent sets, the
degree-distinctness scan for transitive subtournaments, and the
neighbourhood-intersection triangle loop for homogeneous triples.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.containers import count_independent_sets_exact
from homlab.generators import gnp, perturb_edges, random_cograph, random_tournament
from homlab.graphs import UniformHypergraph, _bits, _mask
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
    g = gnp(n, Fraction(p8, 8), seed)
    assert count_homogeneous_k(g, 3) == homogeneous_triples_by_triangles(g)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_homogeneous_triples_on_perturbed_cographs(seed):
    g = perturb_edges(random_cograph(40, seed), 32, seed, stream=1)
    assert count_homogeneous_k(g, 3) == homogeneous_triples_by_triangles(g)
