import itertools
import math
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import CapabilityError, InputError, ParameterError, VerificationError
from homlab.generators import complete_multipartite, gnp, random_bipartite, random_cograph
from homlab.graphs import (
    Graph,
    _bits,
    _mask,
    complement,
    count_induced_p4,
    path_graph,
)
from homlab.homogeneous import (
    EpsHomogeneousWitness,
    check_tk_property,
    copy_count_threshold,
    count_homogeneous_k,
    find_eps_homogeneous,
    has_induced_p4,
    hom_exact,
    max_clique,
    p4_free_family,
    verify_count_lower_bound,
)

from graph_helpers import complete_graph, cycle_graph, empty_graph


def all_graphs_family() -> Callable[[Graph], bool]:
    """Membership predicate of all graphs."""
    return lambda g: True


def _condition(g: Graph, smask: int, eps: Fraction, mode: str, side: str) -> bool:
    s = smask.bit_count()
    if s <= 1:
        return True
    if mode == "density":
        inner = sum((g.masks[v] & smask).bit_count() for v in _bits(smask)) // 2
        dens = Fraction(inner, math.comb(s, 2))
        return dens <= eps if side == "sparse" else dens >= 1 - eps
    degs = [(g.masks[v] & smask).bit_count() for v in _bits(smask)]
    if side == "sparse":
        return max(degs) <= eps * (s - 1)
    return min(degs) >= (1 - eps) * (s - 1)


def reference_exact_eps_homogeneous(
    g: Graph, epsilon: Fraction, mode: str = "density"
) -> EpsHomogeneousWitness:
    """Largest eps-sparse or eps-dense vertex set, by enumerating all subsets
    (n <= 20); the oracle for the greedy peel of ``find_eps_homogeneous``."""
    eps = Fraction(epsilon)
    best: tuple[int, int, str] | None = None  # (size, mask, side)

    def consider(smask: int, side: str) -> None:
        nonlocal best
        size = smask.bit_count()
        if (best is None or size > best[0]) and _condition(g, smask, eps, mode, side):
            best = (size, smask, side)

    if g.n > 20:
        raise CapabilityError("exact eps-homogeneous search capped at n=20")
    for smask in range(1 << g.n):
        consider(smask, "sparse")
        consider(smask, "dense")
    if best is None:
        best = (1, 1 if g.n else 0, "sparse")
    witness = EpsHomogeneousWitness(
        vertices=frozenset(_bits(best[1])), side=best[2], mode=mode, epsilon=eps
    )
    if g.n:
        witness.validate(g)
    return witness


def reference_greedy_eps_homogeneous(
    g: Graph, epsilon: Fraction, mode: str = "density"
) -> EpsHomogeneousWitness:
    """The greedy peel ``find_eps_homogeneous`` replaced, kept verbatim: it
    peels the max-degree vertex of g (sparse side) and of the complement graph
    (dense side), rebuilding the vertex mask from a set at every step, and
    checks every suffix of both orders."""
    eps = Fraction(epsilon)
    best: tuple[int, int, str] | None = None  # (size, mask, side)

    def peel_order(host: Graph) -> list[int]:
        w = set(range(host.n))
        order = []
        while w:
            wmask = _mask(w)
            v = min(w, key=lambda x: (-(host.masks[x] & wmask).bit_count(), x))
            order.append(v)
            w.discard(v)
        return order

    def consider(smask: int, side: str) -> None:
        nonlocal best
        size = smask.bit_count()
        if (best is None or size > best[0]) and _condition(g, smask, eps, mode, side):
            best = (size, smask, side)

    for side, host in (("sparse", g), ("dense", complement(g))):
        order = peel_order(host)
        smask = _mask(range(g.n))
        for v in order + [None]:  # check every suffix including the full set
            consider(smask, side)
            if v is None:
                break
            smask &= ~(1 << v)
    return EpsHomogeneousWitness(
        vertices=frozenset(_bits(best[1])), side=best[2], mode=mode, epsilon=eps
    )


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# exact hom


def test_hom_c5():
    size, witness = hom_exact(cycle_graph(5))
    assert size == 2
    witness.validate(cycle_graph(5))


def test_hom_petersen():
    size, witness = hom_exact(petersen())
    assert size == 4
    assert witness.kind == "independent"


def test_hom_extremes():
    assert hom_exact(complete_graph(7))[0] == 7
    assert hom_exact(empty_graph(7))[0] == 7


def test_witness_json_schema():
    import json

    _, witness = hom_exact(cycle_graph(5))
    doc = json.loads(witness.to_json())
    assert set(doc) == {"size", "kind", "vertices"}
    assert doc["vertices"] == sorted(doc["vertices"])


@given(st.integers(1, 9), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_max_clique_is_maximum(n, seed):
    g = gnp(n, Fraction(1, 2), seed)
    clique = max_clique(g)
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(sorted(clique), 2))
    best = max(
        (
            len(c)
            for k in range(n, 0, -1)
            for c in itertools.combinations(range(n), k)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2))
        ),
        default=0,
    )
    assert len(clique) == best


def reference_max_clique(g):
    """The clique search as it was before the incumbent and the colour cut,
    kept verbatim: a single vertex as the first incumbent, every coloured
    vertex recorded."""
    n, masks = g.n, g.masks
    if n == 0:
        return frozenset()
    best_mask = 1  # single vertex is always a clique
    best_size = 1

    def color_sort(p):
        order = []
        color = 0
        rest = p
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                rest &= ~(1 << v)
                avail &= ~masks[v] & ~(1 << v)
        return order

    def expand(rmask, rsize, p):
        nonlocal best_mask, best_size
        order = color_sort(p)
        for v, color in reversed(order):
            if rsize + color <= best_size:
                return
            new_r = rmask | (1 << v)
            new_p = p & masks[v]
            if rsize + 1 > best_size:
                best_size = rsize + 1
                best_mask = new_r
            if new_p:
                expand(new_r, rsize + 1, new_p)
            p &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return frozenset(_bits(best_mask))


def reference_hom(g):
    """(size, vertices, kind) of hom_exact from two unbounded reference searches."""
    cl, ind = reference_max_clique(g), reference_max_clique(complement(g))
    if len(cl) >= len(ind):
        return len(cl), cl, "clique"
    return len(ind), ind, "independent"


def _hom(g):
    size, witness = hom_exact(g)
    return size, witness.vertices, witness.kind


@given(st.integers(0, 30), st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]),
       st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_clique_search_keeps_the_reference_witness(n, p, seed):
    g = gnp(n, p, seed)
    assert max_clique(g) == reference_max_clique(g)
    assert _hom(g) == reference_hom(g)


@pytest.mark.parametrize("n", [1, 2, 7, 20, 40, 60])
@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
def test_clique_search_keeps_the_reference_witness_on_seeded_gnp(n, p):
    for seed in range(3):
        g = gnp(n, p, seed)
        assert max_clique(g) == reference_max_clique(g)
        assert _hom(g) == reference_hom(g)


# ---------------------------------------------------------------------------
# homogeneous k-set counting


def brute_count(g, k):
    total = 0
    for combo in itertools.combinations(range(g.n), k):
        inner = sum(1 for u, v in itertools.combinations(combo, 2) if g.has_edge(u, v))
        if inner == 0 or inner == k * (k - 1) // 2:
            total += 1
    return total


@given(st.integers(2, 9), st.integers(2, 5), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_count_homogeneous_matches_bruteforce(n, k, seed):
    g = gnp(n, Fraction(1, 2), seed)
    assert count_homogeneous_k(g, k) == brute_count(g, k)


def test_count_homogeneous_rejects_small_k():
    with pytest.raises(InputError):
        count_homogeneous_k(cycle_graph(5), 1)


# ---------------------------------------------------------------------------
# (t,k) property and the counting pipeline


def test_p4_free_five_sets_contain_triangles_or_coindependent():
    ok, counterexample = check_tk_property(p4_free_family(), 5, 3)
    assert ok and counterexample is None


def test_tk_property_fails_without_the_p4_restriction():
    ok, counterexample = check_tk_property(all_graphs_family(), 5, 3)
    assert not ok
    assert hom_exact(counterexample)[0] < 3  # C5 is the canonical witness


def test_copy_threshold_example():
    assert copy_count_threshold(40, 4, 5) == 640


def test_copy_threshold_needs_room():
    with pytest.raises(ParameterError):
        copy_count_threshold(8, 4, 5)


def test_count_lower_bound_report_on_sparse_graph():
    g = gnp(40, Fraction(1, 20), seed=7)
    embeddings = count_induced_p4(g)[1]
    report = verify_count_lower_bound(g, path_graph(4), t=5, k=3, embeddings=embeddings)
    assert report.threshold == 640
    assert report.lower_bound == Fraction(32)
    if report.premise_ok:
        assert report.ok


# ---------------------------------------------------------------------------
# eps-homogeneous search


def test_multipartite_dense_side_is_whole_set():
    g = complete_multipartite([2, 2, 2, 2])
    witness = find_eps_homogeneous(g, Fraction(3, 10))
    assert witness.side == "dense"
    assert witness.vertices == frozenset(range(8))


def test_empty_graph_sparse_side():
    witness = find_eps_homogeneous(empty_graph(6), Fraction(1, 10))
    assert witness.side == "sparse" and len(witness.vertices) == 6


@given(st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_greedy_never_beats_exact_and_validates(n, seed):
    g = gnp(n, Fraction(1, 2), seed)
    eps = Fraction(1, 4)
    greedy = find_eps_homogeneous(g, eps)
    exact = reference_exact_eps_homogeneous(g, eps)
    assert len(greedy.vertices) <= len(exact.vertices)
    greedy.validate(g)
    exact.validate(g)


def test_degree_mode_is_stricter_than_density():
    g = gnp(14, Fraction(1, 2), seed=11)
    eps = Fraction(1, 4)
    degree = reference_exact_eps_homogeneous(g, eps, mode="degree")
    density = reference_exact_eps_homogeneous(g, eps, mode="density")
    assert len(degree.vertices) <= len(density.vertices)


_PEEL_GRAPHS = st.one_of(
    st.builds(lambda n, p, seed: gnp(n, Fraction(p, 10), seed),
              st.integers(0, 40), st.integers(0, 10), st.integers(0, 10**6)),
    st.builds(random_cograph, st.integers(1, 40), st.integers(0, 10**6)),
    st.builds(lambda n, seed: random_bipartite(n, Fraction(1, 2), seed),
              st.integers(2, 40), st.integers(0, 10**6)),
)


@given(_PEEL_GRAPHS, st.sampled_from([0, Fraction(1, 16), Fraction(1, 4), Fraction(1, 2), 1]),
       st.sampled_from(["density", "degree"]))
@settings(max_examples=150, deadline=None)
def test_greedy_peel_matches_the_complement_graph_peel(g, eps, mode):
    assert find_eps_homogeneous(g, eps, mode) == reference_greedy_eps_homogeneous(g, eps, mode)


@pytest.mark.parametrize("eps", [Fraction(-1, 2), Fraction(-1, 10**9), Fraction(1001, 1000)])
def test_eps_search_outside_0_to_1_is_refused(eps):
    with pytest.raises(ParameterError):
        find_eps_homogeneous(path_graph(3), eps)


def test_eps_search_above_the_cap_is_refused():
    with pytest.raises(CapabilityError):
        find_eps_homogeneous(empty_graph(1001), Fraction(1, 4))


def test_witness_self_validation_catches_lies():
    with pytest.raises(VerificationError):
        EpsHomogeneousWitness(
            vertices=frozenset(range(5)), side="sparse", mode="density", epsilon=Fraction(1, 10)
        ).validate(complete_graph(5))


def test_has_induced_p4():
    assert has_induced_p4(path_graph(4))
    assert not has_induced_p4(complete_graph(5))
    assert not has_induced_p4(random_cograph(10, seed=1))
