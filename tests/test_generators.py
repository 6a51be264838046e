import dataclasses
import itertools
import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import InputError, ParameterError
from homlab.generators import (
    complete_multipartite,
    equitable_parts,
    gnp,
    overlay_construction,
    perturb_edges,
    random_bipartite,
    random_cograph,
    random_independent_set,
    random_tournament,
    random_uniform_hypergraph,
)
from homlab.graphs import complete_graph, count_induced_p4, edge_density, empty_graph
from homlab.homogeneous import has_induced_p4
from homlab.tournaments import cyclic_triangle_count


def test_gnp_extremes():
    assert gnp(6, Fraction(0), seed=1) == empty_graph(6)
    assert gnp(6, Fraction(1), seed=1) == complete_graph(6)


def test_gnp_deterministic():
    assert gnp(30, Fraction(1, 3), seed=9) == gnp(30, Fraction(1, 3), seed=9)
    assert gnp(30, Fraction(1, 3), seed=9) != gnp(30, Fraction(1, 3), seed=10)


def test_gnp_streams_are_independent():
    assert gnp(20, Fraction(1, 2), 5, stream=0) != gnp(20, Fraction(1, 2), 5, stream=1)


def test_gnp_edge_count_statistics():
    n, p = 1000, Fraction(1, 2)
    m = math.comb(n, 2)
    sigma = math.sqrt(m * 0.25)
    for seed in range(20):
        count = gnp(n, p, seed).edge_count
        assert abs(count - m / 2) < 4 * sigma


def test_tournament_triangle_statistics():
    n = 20
    mean = math.comb(n, 3) / 4
    sigma = math.sqrt(math.comb(n, 3) * 3 / 16)  # upper bound on the true variance
    values = [cyclic_triangle_count(random_tournament(n, seed)) for seed in range(20)]
    assert all(abs(v - mean) < 4 * sigma for v in values)
    assert statistics.pstdev(values) > 0


def test_equitable_parts():
    parts = equitable_parts(10, 3)
    sizes = sorted(len(p) for p in parts)
    assert sizes == [3, 3, 4]
    assert sorted(v for p in parts for v in p) == list(range(10))


def test_multipartite_extremes():
    assert complete_multipartite([5]) == empty_graph(5)
    assert complete_multipartite([1] * 5) == complete_graph(5)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_multipartite_density_formula(sizes):
    g = complete_multipartite(sizes)
    n = sum(sizes)
    if n < 2:
        return
    expected = Fraction(n * n - sum(s * s for s in sizes), n * (n - 1))
    assert edge_density(g) == expected


def test_multipartite_rejects_empty_part():
    with pytest.raises(InputError):
        complete_multipartite([2, 0])


# ---------------------------------------------------------------------------
# overlay construction


def test_overlay_part_count_example():
    art = overlay_construction(100, Fraction(1, 20), seed=0)
    assert art.s == 4
    assert len(art.parts) == 4


def test_overlay_invariants():
    art = overlay_construction(60, Fraction(1, 10), seed=2)
    sizes = sorted(len(p) for p in art.parts)
    assert max(sizes) - min(sizes) <= 1
    for pu, pv in itertools.combinations(art.parts, 2):
        for u in pu:
            for v in pv:
                assert art.graph.has_edge(u, v)
    # only-added-edges: base is an edge subgraph of the overlay
    for u, v in art.base.edges():
        assert art.graph.has_edge(u, v)
    assert art.base_density == Fraction(1, 5)


def test_overlay_p4s_confined_to_parts():
    art = overlay_construction(80, Fraction(1, 10), seed=4)
    _, _, copies = count_induced_p4(art.graph)
    assert copies, "expected some induced four-vertex paths in the base"
    assert all(len({art.part_of(v) for v in c}) == 1 for c in copies)


@pytest.mark.parametrize(
    "n, eps", [(40, Fraction(1, 20)), (41, Fraction(1, 10)), (3, Fraction(1, 5))]
)
def test_overlay_part_of_matches_a_linear_search(n, eps):
    art = overlay_construction(n, eps, seed=0)
    for v in range(n):
        assert art.part_of(v) == next(i for i, part in enumerate(art.parts) if v in part)
    for v in (-1, n):
        with pytest.raises(InputError):
            art.part_of(v)


def test_overlay_artifact_parts_must_partition_the_vertices():
    art = overlay_construction(10, Fraction(1, 10), seed=0)
    first, second = art.parts
    for parts in ((first,), (first, second + (10,)), (first + (0,), second)):
        with pytest.raises(InputError):
            dataclasses.replace(art, parts=parts)


def test_overlay_rejects_bad_epsilon():
    with pytest.raises(ParameterError):
        overlay_construction(50, Fraction(3, 4), seed=0)


def test_overlay_rejects_too_few_vertices():
    with pytest.raises(ParameterError):
        overlay_construction(2, Fraction(1, 20), seed=0)


# ---------------------------------------------------------------------------
# structured families


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_cographs_have_no_induced_p4(n, seed):
    assert not has_induced_p4(random_cograph(n, seed))


def _two_colorable(g):
    color = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in range(g.n):
                if g.has_edge(v, u):
                    if color[u] is None:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
    return True


@given(st.integers(1, 14), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_bipartite_has_no_odd_cycle(n, seed):
    assert _two_colorable(random_bipartite(n, Fraction(1, 2), seed))


def test_cograph_hom_floor():
    from homlab.homogeneous import hom_exact

    for n in range(2, 13):
        for seed in range(5):
            g = random_cograph(n, seed)
            assert hom_exact(g)[0] >= math.isqrt(n - 1) + 1  # ceil(sqrt(n))


# ---------------------------------------------------------------------------
# perturbation, hypergraphs, independent sets


def test_perturb_flips_exact_count():
    g = empty_graph(10)
    flipped = perturb_edges(g, 7, seed=3)
    assert flipped.edge_count == 7


def test_perturb_is_involution_with_same_seed():
    g = gnp(10, Fraction(1, 2), seed=0)
    once = perturb_edges(g, 5, seed=8)
    twice = perturb_edges(once, 5, seed=8)
    assert twice == g


def test_perturb_rejects_overbudget():
    with pytest.raises(InputError):
        perturb_edges(empty_graph(4), 7, seed=0)


def test_uniform_hypergraph_determinism_and_arity():
    h = random_uniform_hypergraph(3, 9, Fraction(1, 4), seed=5)
    assert h == random_uniform_hypergraph(3, 9, Fraction(1, 4), seed=5)
    assert all(len(e) == 3 for e in h.edges)


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_random_independent_set_is_independent_and_maximal(n, seed):
    from homlab.containers import is_independent

    g = gnp(n, Fraction(1, 2), seed)
    iset = random_independent_set(g, seed)
    assert is_independent(g, iset)
    for v in set(range(n)) - iset:
        assert not is_independent(g, iset | {v})
