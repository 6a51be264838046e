import dataclasses
import io
import itertools
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import generators
from homlab.errors import CapabilityError, InputError, ParameterError
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
    rng_for,
)
from homlab.graphs import (
    Graph,
    UniformHypergraph,
    count_induced_p4,
    edge_density,
    induced_subgraph,
    read_hypergraph,
)
from homlab.homogeneous import has_induced_p4
from homlab.tournaments import Tournament, cyclic_triangle_count

from graph_helpers import complete_graph, edge_sets, empty_graph, spans_no_edge, write_hypergraph
from test_constructors import message, one_bit_flips, reference_graph_check


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
    with pytest.raises(InputError, match="cannot flip 7 of 6 pairs"):
        perturb_edges(empty_graph(4), 7, seed=0)


def perturb_by_pair_list(g, flips, seed, stream=None):
    """The flips read off a list of every pair in lexicographic order."""
    pairs = list(itertools.combinations(range(g.n), 2))
    rows = list(g.masks)
    for i in rng_for(seed, stream).choice(len(pairs), size=flips, replace=False).tolist():
        u, v = pairs[i]
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(g.n, rows)


@given(st.integers(0, 30), st.integers(0, 8), st.integers(0, 10**6), st.data())
@settings(max_examples=200, deadline=None)
def test_perturb_matches_the_pair_list(n, p8, seed, data):
    g = gnp(n, Fraction(p8, 8), seed)
    flips = data.draw(st.integers(0, math.comb(n, 2)))
    stream = data.draw(st.none() | st.integers(0, 3))
    assert perturb_edges(g, flips, seed, stream) == perturb_by_pair_list(g, flips, seed, stream)


def test_perturb_lists_no_pairs():
    # the 4,498,500 pairs at n = 3000 took 287 MB as a list of tuples; the
    # graph's own rows and their validation take about 11 MB
    g = empty_graph(3000)
    tracemalloc.start()
    try:
        flipped = perturb_edges(g, 1000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flipped.edge_count == 1000
    assert peak < 1 << 24


def test_uniform_hypergraph_determinism_and_arity():
    h = random_uniform_hypergraph(3, 9, Fraction(1, 4), seed=5)
    assert h == random_uniform_hypergraph(3, 9, Fraction(1, 4), seed=5)
    assert all(len(e) == 3 for e in h.edges)


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_random_independent_set_is_independent_and_maximal(n, seed):
    g = gnp(n, Fraction(1, 2), seed)
    edges = edge_sets(g)
    iset = random_independent_set(g, seed)
    assert spans_no_edge(edges, iset)
    for v in set(range(n)) - iset:
        assert not spans_no_edge(edges, iset | {v})


# ---------------------------------------------------------------------------
# references: the generators as they were before one draw helper served them
# all (each with its own pair list and compare loop), kept verbatim apart from
# the two inlined draw helpers; the generators must match them bit for bit

_TWO64 = 1 << 64


def reference_gnp(n, p, seed, stream=None):
    pairs = list(itertools.combinations(range(n), 2))
    draws = rng_for(seed, stream).integers(0, _TWO64, size=len(pairs), dtype=np.uint64)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0,1]")
    thr = (p.numerator * _TWO64) // p.denominator if p < 1 else _TWO64
    edges = [pair for pair, d in zip(pairs, draws) if int(d) < thr]
    return Graph.from_edges(n, edges)


def reference_random_tournament(n, seed, stream=None):
    pairs = list(itertools.combinations(range(n), 2))
    draws = rng_for(seed, stream).integers(0, _TWO64, size=len(pairs), dtype=np.uint64)
    out = [0] * n
    for (u, v), d in zip(pairs, draws):
        if int(d) < _TWO64 // 2:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return Tournament(n, tuple(out))


def reference_complete_multipartite(part_sizes):
    if any(s <= 0 for s in part_sizes):
        raise InputError("part sizes must be positive")
    n = sum(part_sizes)
    part_of = []
    for i, s in enumerate(part_sizes):
        part_of += [i] * s
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph.from_edges(n, edges)


def reference_equitable_parts(n, s):
    if not 1 <= s <= n:
        raise ParameterError(f"need 1 <= s <= n parts, got s={s}, n={n}")
    base, extra = divmod(n, s)
    parts = []
    start = 0
    for i in range(s):
        size = base + (1 if i < extra else 0)
        parts.append(list(range(start, start + size)))
        start += size
    return parts


def reference_overlay_construction(n, epsilon, seed):
    """(graph, base, parts, s) of the overlay construction."""
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError(f"epsilon={eps} outside (0, 1/2)")
    inv = 1 / (5 * eps)
    s = max(1, int(inv + Fraction(1, 2)))  # round half up
    parts = tuple(tuple(p) for p in reference_equitable_parts(n, s))
    cross = {
        (u, v)
        for i, pu in enumerate(parts)
        for j, pv in enumerate(parts)
        if i < j
        for u in pu
        for v in pv
    }
    base = reference_gnp(n, 2 * eps, seed, stream=0)
    edges = set(base.edges()) | {(min(u, v), max(u, v)) for u, v in cross}
    graph = Graph.from_edges(n, edges)
    return graph, base, parts, s


def reference_random_bipartite(n, p, seed, stream=None):
    if n < 1:
        raise InputError("n must be >= 1")
    rng = rng_for(seed, stream)
    perm = [int(v) for v in rng.permutation(n)]
    left = set(perm[: (n + 1) // 2])
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u in left) != (v in left)
    ]
    draws = rng.integers(0, _TWO64, size=len(pairs), dtype=np.uint64)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0,1]")
    thr = (p.numerator * _TWO64) // p.denominator if p < 1 else _TWO64
    return Graph.from_edges(n, [pair for pair, d in zip(pairs, draws) if int(d) < thr])


def reference_random_uniform_hypergraph(r, n, p, seed, stream=None):
    tuples = list(itertools.combinations(range(n), r))
    draws = rng_for(seed, stream).integers(0, _TWO64, size=len(tuples), dtype=np.uint64)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0,1]")
    thr = (p.numerator * _TWO64) // p.denominator if p < 1 else _TWO64
    return UniformHypergraph.from_edges(r, n, [t for t, d in zip(tuples, draws) if int(d) < thr])


_EDGE_PROBABILITIES = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(1, _TWO64), 1 - Fraction(1, _TWO64)]
) | st.builds(lambda a, b: Fraction(min(a, b), max(a, b, 1)), st.integers(0, 10**6),
              st.integers(0, 10**6))


@given(n=st.integers(0, 14), p=_EDGE_PROBABILITIES, seed=st.integers(0, 2**32 - 1),
       stream=st.none() | st.integers(0, 10**6), r=st.sampled_from([2, 3, 4]))
@settings(max_examples=200, deadline=None)
def test_generators_match_their_references(n, p, seed, stream, r):
    assert gnp(n, p, seed, stream) == reference_gnp(n, p, seed, stream)
    assert random_tournament(n, seed, stream) == reference_random_tournament(n, seed, stream)
    assert (random_uniform_hypergraph(r, n, p, seed, stream)
            == reference_random_uniform_hypergraph(r, n, p, seed, stream))
    if n >= 1:
        assert random_bipartite(n, p, seed, stream) == reference_random_bipartite(n, p, seed, stream)


@pytest.mark.parametrize("n, generator, reference", [
    pytest.param(n, generator, reference, id=f"{n}{suffix}")
    for suffix, generator, reference in (("", gnp, reference_gnp),
                                         ("-bipartite", random_bipartite, reference_random_bipartite))
    for n in (40, 100)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gnp_matches_its_reference_at_larger_n(n, seed, generator, reference):
    for p in (Fraction(1, 20), Fraction(1, 2), Fraction(9, 10)):
        assert generator(n, p, seed, stream=seed) == reference(n, p, seed, stream=seed)


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1)])
def test_gnp_rows_match_their_reference_at_the_extremes(n, p):
    assert gnp(n, p, 3).masks == reference_gnp(n, p, 3).masks


def test_gnp_at_the_draw_cap_is_quick_and_small():
    # C(5793, 2) = 16,776,528 draws, just under the 2^24 cap; run alone so
    # the peak resident set is this draw's
    code = ("import resource\n"
            "from fractions import Fraction\n"
            "from homlab.generators import gnp\n"
            "g = gnp(5793, Fraction(1, 2), 0)\n"
            "assert g.n == 5793 and g.edge_count > 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(generators.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    wall = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert wall < 10
    assert int(done.stdout) < 500 * 1024  # ru_maxrss is in KiB on Linux


def test_bipartite_at_the_draw_cap_is_quick_and_small():
    # 4096 * 4096 = 2^24 cross pairs, the cap; run alone like the gnp case
    code = ("import resource\n"
            "from fractions import Fraction\n"
            "from homlab.generators import random_bipartite\n"
            "g = random_bipartite(8192, Fraction(1, 2), 0)\n"
            "assert g.n == 8192 and g.edge_count > 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(generators.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    wall = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert wall < 10
    assert int(done.stdout) < 500 * 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize("n", [10, 40, 150])
@pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)])
def test_overlay_matches_its_reference(n, eps):
    for seed in range(3):
        art = overlay_construction(n, eps, seed)
        assert (art.graph, art.base, art.parts, art.s) == reference_overlay_construction(n, eps, seed)


@pytest.mark.parametrize("sizes", [[], [1], [4], [1, 1], [2, 3], [3, 1, 2], [5, 5, 5], [1, 7, 1, 2]])
def test_complete_multipartite_matches_its_reference(sizes):
    assert complete_multipartite(sizes) == reference_complete_multipartite(sizes)


def test_equitable_parts_match_their_reference():
    for n in range(1, 40):
        for s in range(1, n + 1):
            assert equitable_parts(n, s) == reference_equitable_parts(n, s)


_GENERATOR_CALLS = {
    "gnp": lambda n, p: gnp(n, p, 0),
    "tournament": lambda n, p: random_tournament(n, 0),
    "bipartite": lambda n, p: random_bipartite(n, p, 0),
    "hypergraph": lambda n, p: random_uniform_hypergraph(3, n, p, 0),
    "cograph": lambda n, p: random_cograph(n, 0),
    "overlay": lambda n, p: overlay_construction(n, p, 0),
}


@pytest.mark.parametrize("kind", sorted(_GENERATOR_CALLS))
def test_generators_reject_negative_n(kind):
    with pytest.raises(InputError):
        _GENERATOR_CALLS[kind](-1, Fraction(1, 10))


@pytest.mark.parametrize("kind", ["gnp", "bipartite", "hypergraph"])
@pytest.mark.parametrize("p", [Fraction(-1, 3), Fraction(-1, _TWO64), 1 + Fraction(1, _TWO64), 2])
def test_generators_reject_probabilities_outside_0_1(kind, p):
    with pytest.raises(InputError):
        _GENERATOR_CALLS[kind](6, p)


def test_perturb_rejects_negative_flips():
    with pytest.raises(InputError):
        perturb_edges(empty_graph(4), -1, seed=0)


class _Words:
    """Stands in for a generator whose bit generator draws the given 64-bit words."""

    def __init__(self, words):
        self.words = words
        self.bit_generator = self

    def random_raw(self, size):
        assert size == len(self.words)
        return np.array(self.words, dtype=np.uint64)


def test_a_candidate_is_kept_iff_its_word_is_below_floor_p_times_2_64():
    floor = _TWO64 // 3
    words = _Words([0, floor - 1, floor, floor + 1, _TWO64 - 1])
    assert generators._coins(words, 5, Fraction(1, 3)).tolist() == [True, True, False, False, False]
    assert generators._coins(words, 5, Fraction(0)).tolist() == [False] * 5
    assert generators._coins(words, 5, Fraction(1)).tolist() == [True] * 5
    assert generators._coins(words, 5, 1 - Fraction(1, _TWO64)).tolist() == [True] * 4 + [False]


@pytest.mark.parametrize("count", [0, 1, generators._CHUNK - 1, generators._CHUNK,
                                   generators._CHUNK + 1])
def test_coin_words_are_the_words_of_a_full_range_bounded_draw(count):
    # the raw Philox words _coins compares are the words integers(0, 2^64)
    # returns, and they leave the stream where that draw leaves it
    for seed, stream in [(0, None), (1, 0), (2**40 + 3, 5)]:
        for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
            rng, ref = rng_for(seed, stream), rng_for(seed, stream)
            coins = generators._coins(rng, count, p)
            below = p.numerator * _TWO64 // p.denominator
            if p == 1:  # no word is drawn: every word is below 2^64
                expected = [True] * count
            else:
                expected = [w < below for w in ref.integers(0, _TWO64, count, dtype=np.uint64).tolist()]
            assert coins.tolist() == expected
            assert rng.permutation(13).tolist() == ref.permutation(13).tolist()


def test_draw_cap_is_checked_per_instance(monkeypatch):
    monkeypatch.setattr(generators, "_MAX_DRAWS", 10)
    assert gnp(5, Fraction(1, 2), 0) == reference_gnp(5, Fraction(1, 2), 0)  # C(5, 2) = 10 draws
    assert random_tournament(5, 0) == reference_random_tournament(5, 0)
    assert random_bipartite(6, Fraction(1, 2), 0) == reference_random_bipartite(6, Fraction(1, 2), 0)
    h = random_uniform_hypergraph(3, 5, Fraction(1, 2), 0)  # C(5, 3) = 10 draws
    assert h == reference_random_uniform_hypergraph(3, 5, Fraction(1, 2), 0)
    for too_many in (lambda: gnp(6, Fraction(1, 2), 0),  # 15 draws
                     lambda: random_tournament(6, 0),
                     lambda: random_bipartite(7, Fraction(1, 2), 0),  # 4 * 3 = 12 draws
                     lambda: random_uniform_hypergraph(3, 6, Fraction(1, 2), 0),  # 20 draws
                     lambda: overlay_construction(6, Fraction(1, 10), 0)):
        with pytest.raises(CapabilityError):
            too_many()


def test_chunked_draws_give_the_words_of_one_draw(monkeypatch):
    monkeypatch.setattr(generators, "_CHUNK", 7)  # many chunks and a short last one
    for seed in range(3):
        for p in (Fraction(1, 20), Fraction(1, 2), Fraction(9, 10)):
            assert gnp(30, p, seed) == reference_gnp(30, p, seed)
            assert random_bipartite(31, p, seed) == reference_random_bipartite(31, p, seed)
            assert (random_uniform_hypergraph(3, 12, p, seed)
                    == reference_random_uniform_hypergraph(3, 12, p, seed))


@pytest.mark.parametrize("tile", [8, 13, 64])
def test_tiled_mirror_matches_the_references(monkeypatch, tile):
    # many tiles on each side, the last one partial but for n = 40 at tile 8;
    # at tile 64, n = 40 is one partial tile and n = 100 one full and one partial
    monkeypatch.setattr(generators, "_TILE", tile)
    for n in (40, 100):
        for p in (Fraction(1, 20), Fraction(1, 2), Fraction(9, 10)):
            assert gnp(n, p, 1, stream=n) == reference_gnp(n, p, 1, stream=n)
            assert random_bipartite(n, p, 1, stream=n) == reference_random_bipartite(n, p, 1, stream=n)
        assert random_tournament(n, 1) == reference_random_tournament(n, 1)


@pytest.mark.parametrize("r", [-1, 0, 1])
def test_hypergraph_uniformity_below_2_is_refused_before_any_draw(monkeypatch, r):
    drawn = []
    monkeypatch.setattr(generators, "_coins", lambda *args: drawn.append(args))
    with pytest.raises(InputError):
        random_uniform_hypergraph(r, 6, Fraction(1, 2), 0)
    assert drawn == []


@given(r=st.sampled_from([2, 3, 4]), n=st.integers(0, 14), p=_EDGE_PROBABILITIES,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_generated_hypergraph_equals_its_text_read_back(r, n, p, seed):
    h = random_uniform_hypergraph(r, n, p, seed)
    back = read_hypergraph(io.StringIO(write_hypergraph(h), newline=None))
    assert back == h and hash(back) == hash(h)
    assert back._incidence == h._incidence


def test_draw_cap_is_checked_before_anything_is_enumerated():
    with pytest.raises(CapabilityError):  # 1.3e15 triples: enumerating them would never end
        random_uniform_hypergraph(3, 200_000, Fraction(1, 2), 0)
    with pytest.raises(CapabilityError):  # and the split would be a permutation of 10^12
        random_bipartite(10**12, Fraction(1, 2), 0)


def reference_random_independent_set(structure, seed, stream=None):
    """The greedy set as it was before its chosen and blocked masks: one
    independence check of the whole set per vertex, kept verbatim apart from
    the check, now independence by its definition."""
    edges = edge_sets(structure)
    rng = rng_for(seed, stream)
    order = [int(v) for v in rng.permutation(structure.n)]
    chosen: set[int] = set()
    for v in order:
        if spans_no_edge(edges, chosen | {v}):
            chosen.add(v)
    return frozenset(chosen)


@given(kind=st.sampled_from(["graph", 2, 3, 4]), n=st.integers(0, 14), p=_EDGE_PROBABILITIES,
       seed=st.integers(0, 2**32 - 1), stream=st.none() | st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_random_independent_set_matches_its_reference(kind, n, p, seed, stream):
    if kind == "graph":
        structure = gnp(n, p, seed)
    else:
        structure = random_uniform_hypergraph(kind, n, p, seed)
    expected = reference_random_independent_set(structure, seed, stream)
    assert random_independent_set(structure, seed, stream) == expected


# Every library builder hands its rows to Graph(n, masks), the one validating
# constructor.  The per-edge reference walk must accept each builder's rows, and
# the constructor must refuse each one-bit flip of them as the walk does.
_sizes, _seeds, _rates = st.integers(0, 9), st.integers(0, 10**6), st.integers(0, 8)


@st.composite
def _from_edges(draw):
    n = draw(st.integers(2, 9))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph.from_edges(n, draw(st.lists(pair, max_size=20)))


@st.composite
def _perturbed(draw):
    g = gnp(draw(_sizes), Fraction(draw(_rates), 8), draw(_seeds))
    return perturb_edges(g, draw(st.integers(0, math.comb(g.n, 2))), draw(_seeds))


BUILT = {
    "from_edges": _from_edges(),
    "induced_subgraph": st.builds(
        lambda n, seed, keep: induced_subgraph(gnp(n, Fraction(1, 2), seed),
                                               [v for v in range(n) if keep >> v & 1]),
        _sizes, _seeds, st.integers(0, 2**9 - 1)),
    "complete_multipartite": st.lists(st.integers(1, 4), max_size=4).map(complete_multipartite),
    "overlay_construction": st.builds(
        lambda n, q, seed: overlay_construction(n, Fraction(1, q), seed).graph,
        st.integers(2, 9), st.integers(3, 12), _seeds),
    "random_cograph": st.builds(random_cograph, st.integers(1, 9), _seeds),
    "perturb_edges": _perturbed(),
    "gnp": st.builds(lambda n, a, seed: gnp(n, Fraction(a, 8), seed), _sizes, _rates, _seeds),
    "random_bipartite": st.builds(lambda n, a, seed: random_bipartite(n, Fraction(a, 8), seed),
                                  st.integers(1, 9), _rates, _seeds),
}


@pytest.mark.parametrize("builder", sorted(BUILT))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_library_builders_make_rows_the_walking_constructor_accepts(builder, data):
    g = data.draw(BUILT[builder])
    rows = list(g.masks)
    assert message(reference_graph_check, g.n, rows) is None
    for flipped in one_bit_flips(g.n, rows, range(g.n)):
        assert message(Graph, g.n, flipped) == message(reference_graph_check, g.n, flipped)
