import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.containers import count_independent_sets_exact
from homlab.errors import CapabilityError, ConsistencyError, InputError
from homlab.generators import random_tournament
from homlab.graphs import UniformHypergraph, _bits
from homlab.tournaments import (
    _SUBSET_DP_N,
    Tournament,
    TransitivityWitness,
    count_transitive_subtournaments,
    cyclic_triangle_count,
    dist_to_transitive_bruteforce,
    dist_to_transitive_exact,
    read_tournament,
    write_tournament,
)

from graph_helpers import outdegree, reversed_tournament


def transitive_tournament(n: int) -> Tournament:
    # vertex v beats every u > v
    full = (1 << n) - 1
    return Tournament(n, tuple(full & ~((1 << (v + 1)) - 1) for v in range(n)))


# The cyclic-triple hypergraph, the oracle for count_transitive_subtournaments.
def triangle_hypergraph(t: Tournament) -> UniformHypergraph:
    """3-uniform hypergraph whose edges are exactly the cyclic triples."""
    edges = []
    for a, b, c in itertools.combinations(range(t.n), 3):
        if t.beats(a, b) == t.beats(b, c) == t.beats(c, a):
            edges.append((a, b, c))
    h = UniformHypergraph.from_edges(3, t.n, edges)
    if h.edge_count != cyclic_triangle_count(t):
        raise ConsistencyError("triangle hypergraph edge count mismatch")
    return h


def three_cycle():
    return Tournament(3, (0b010, 0b100, 0b001))


def test_validation_rejects_unoriented_pair():
    with pytest.raises(InputError):
        Tournament(2, (0, 0))


def test_validation_rejects_self_loop():
    with pytest.raises(InputError):
        Tournament(2, (0b11, 0b00))


def test_transitive_tournament_has_no_triangles():
    for n in range(1, 9):
        assert cyclic_triangle_count(transitive_tournament(n)) == 0
        assert dist_to_transitive_exact(transitive_tournament(n)).reversals == 0


def test_three_cycle_basics():
    t = three_cycle()
    assert cyclic_triangle_count(t) == 1
    assert dist_to_transitive_exact(t).reversals == 1


@given(st.integers(1, 8), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_dp_distance_matches_bruteforce(n, seed):
    t = random_tournament(n, seed)
    witness = dist_to_transitive_exact(t)
    assert witness.reversals == dist_to_transitive_bruteforce(t)
    witness.validate(t)


@given(st.integers(3, 16), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_triangle_count_identity(n, seed):
    t = random_tournament(n, seed)
    # the counter cross-asserts enumeration against the out-degree identity
    tri = cyclic_triangle_count(t)
    assert 0 <= tri <= math.comb(n, 3)
    assert cyclic_triangle_count(reversed_tournament(t)) == tri


@given(st.integers(3, 10), st.integers(2, 5), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_transitive_subtournaments_are_hypergraph_independent_sets(n, k, seed):
    t = random_tournament(n, seed)
    h = triangle_hypergraph(t)
    assert count_transitive_subtournaments(t, k) == count_independent_sets_exact(h, k)


@given(st.integers(3, 12), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_triangle_identity_for_triples(n, seed):
    t = random_tournament(n, seed)
    assert count_transitive_subtournaments(t, 3) == math.comb(n, 3) - cyclic_triangle_count(t)


def test_transitive_count_bruteforce_pin():
    t = random_tournament(7, seed=42)
    for k in range(8):
        brute = 0
        for combo in itertools.combinations(range(7), k):
            sub_ok = True
            for a, b, c in itertools.combinations(combo, 3):
                x, y, z = t.beats(a, b), t.beats(b, c), t.beats(c, a)
                if x == y == z:
                    sub_ok = False
                    break
            brute += sub_ok
        assert count_transitive_subtournaments(t, k) == brute


def test_witness_validation_catches_wrong_claim():
    with pytest.raises(ConsistencyError):
        TransitivityWitness((0, 1, 2), reversals=0).validate(three_cycle())


def test_dp_capability_cap():
    with pytest.raises(CapabilityError):
        dist_to_transitive_exact(random_tournament(22, seed=0))


@given(st.integers(1, 10), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_text_roundtrip(n, seed):
    t = random_tournament(n, seed)
    assert read_tournament(io.StringIO(write_tournament(t), newline=None)) == t


@pytest.mark.parametrize("text", ["0\n", "1\n0\n"])
def test_text_roundtrip_at_zero_and_one_vertex(text):
    assert write_tournament(read_tournament(io.StringIO(text, newline=None))) == text


@pytest.mark.parametrize("text, message", [
    ("3 4\n", "tournament header needs 1 integers, got 2"),
    ("x\n", "malformed tournament file: "),
    (" \n\t\n", "empty tournament file"),
])
def test_read_rejects_bad_header(text, message):
    with pytest.raises(InputError, match=message):
        read_tournament(io.StringIO(text, newline=None))


def test_read_caps_the_header_before_the_rows():
    with pytest.raises(CapabilityError, match="tournament header field 16385 exceeds 16384"):
        read_tournament(io.StringIO("16385\nnot a row\n", newline=None))


def test_read_rejects_bad_matrix():
    with pytest.raises(InputError):
        read_tournament(io.StringIO("2\n01\n", newline=None))
    # a character other than 0/1, a row past n
    for text in ("2\n0a\n10\n", "2\n01\n00\n10\n"):
        with pytest.raises(InputError):
            read_tournament(io.StringIO(text, newline=None))


# The kernels as they were before the pruned ordering search, the inline-bit
# DP and the pair-popcount triangle count; the new kernels must return the
# same values and the same witness orderings.


def reference_cyclic_triangle_count(t: Tournament) -> int:
    """Exact number of 3-subsets forming a directed cycle.

    Computed two independent ways (triple enumeration and the out-degree
    identity C(n,3) - sum_v C(outdeg(v),2)) and cross-asserted.
    """
    by_identity = math.comb(t.n, 3) - sum(math.comb(outdegree(t, v), 2) for v in range(t.n))
    by_enum = 0
    for a, b, c in itertools.combinations(range(t.n), 3):
        x = t.beats(a, b)
        y = t.beats(b, c)
        z = t.beats(c, a)
        if x == y == z:
            by_enum += 1
    if by_enum != by_identity:
        raise ConsistencyError(
            f"triangle enumeration {by_enum} != out-degree identity {by_identity}"
        )
    return by_enum


def reference_dist_to_transitive_exact(t: Tournament) -> TransitivityWitness:
    """Minimum edge reversals to reach a transitive tournament, via the
    subset dynamic program (2^n states).

    Convention: the optimal ordering lists dominators first; appending v last
    to the subset S costs |{u in S\\{v} : v beats u}| reversals.  Pinned by
    the permutation brute-force oracle.
    """
    n = t.n
    if n > _SUBSET_DP_N:
        raise CapabilityError(f"subset DP capped at n={_SUBSET_DP_N}, got {n}")
    if n == 0:
        return TransitivityWitness((), 0)
    size = 1 << n
    dist = [0] * size
    choice = [0] * size
    for s in range(1, size):
        best = None
        best_v = -1
        for v in _bits(s):
            rest = s & ~(1 << v)
            cost = dist[rest] + (t.out[v] & rest).bit_count()
            if best is None or cost < best or (cost == best and v < best_v):
                best = cost
                best_v = v
        dist[s] = best
        choice[s] = best_v
    ordering = []
    s = size - 1
    while s:
        v = choice[s]
        ordering.append(v)
        s &= ~(1 << v)
    ordering.reverse()
    witness = TransitivityWitness(tuple(ordering), dist[size - 1])
    witness.validate(t)
    return witness


def reference_dist_to_transitive_bruteforce(t: Tournament) -> int:
    """Exhaustive search over orderings (with running-cost pruning); the
    independent oracle for the subset DP."""
    n = t.n
    best = math.comb(n, 2) + 1

    def rec(placed_mask: int, cost: int) -> None:
        nonlocal best
        if cost >= best:
            return
        if placed_mask == (1 << n) - 1:
            best = cost
            return
        for v in range(n):
            if placed_mask >> v & 1:
                continue
            # v placed next: reversals against later vertices it loses to are
            # counted when those are placed; placing v now costs the edges
            # v -> already-placed (v beats someone earlier in the ordering)
            rec(placed_mask | (1 << v), cost + (t.out[v] & placed_mask).bit_count())

    rec(0, 0)
    return best


@st.composite
def tournaments(draw, max_n):
    """Any tournament on 0..max_n vertices, one coin per pair."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    wins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    out = [0] * n
    for (u, v), u_wins in zip(pairs, wins):
        if u_wins:
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u
    return Tournament(n, tuple(out))


def rotational_tournament(n: int) -> Tournament:
    """The regular tournament on odd n: v beats the next (n - 1) / 2 vertices mod n."""
    return Tournament(n, tuple(sum(1 << (v + i) % n for i in range(1, n // 2 + 1))
                               for v in range(n)))


@given(tournaments(12))
@settings(max_examples=200, deadline=None)
def test_dp_and_triangles_match_their_references(t):
    assert dist_to_transitive_exact(t) == reference_dist_to_transitive_exact(t)
    assert cyclic_triangle_count(t) == reference_cyclic_triangle_count(t)


@given(tournaments(9))
@settings(max_examples=150, deadline=None)
def test_ordering_search_matches_its_reference(t):
    bf = dist_to_transitive_bruteforce(t)
    assert bf == reference_dist_to_transitive_bruteforce(t)
    assert bf == dist_to_transitive_exact(t).reversals


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
@pytest.mark.parametrize("kind", ["transitive", "reversed", "rotational"])
def test_kernels_match_their_references_where_ties_abound(kind, n):
    t = {"transitive": transitive_tournament, "rotational": rotational_tournament,
         "reversed": lambda n: reversed_tournament(transitive_tournament(n))}[kind](n)
    witness = dist_to_transitive_exact(t)
    assert witness == reference_dist_to_transitive_exact(t)
    assert cyclic_triangle_count(t) == reference_cyclic_triangle_count(t)
    if n <= 9:
        assert dist_to_transitive_bruteforce(t) == reference_dist_to_transitive_bruteforce(t)
        assert dist_to_transitive_bruteforce(t) == witness.reversals


def test_triangle_count_cross_assert_catches_rows_that_are_not_a_tournament():
    # 0 -> 1, 1 -> 2 and 2 -> 1 both ways: the pair count sees the cycle
    # 0 -> 1 -> 2 -> 0 although 2 does not beat 0, the identity does not
    t = object.__new__(Tournament)
    object.__setattr__(t, "n", 3)
    object.__setattr__(t, "out", (0b010, 0b101, 0b010))
    with pytest.raises(ConsistencyError):
        cyclic_triangle_count(t)
