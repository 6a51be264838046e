import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.containers import count_independent_sets_exact
from homlab.errors import CapabilityError, ConsistencyError, InputError
from homlab.generators import random_tournament
from homlab.tournaments import (
    Tournament,
    TransitivityWitness,
    count_transitive_subtournaments,
    cyclic_triangle_count,
    dist_to_transitive_bruteforce,
    dist_to_transitive_exact,
    is_eps_transitive,
    read_tournament,
    transitive_tournament,
    triangle_distance_scan,
    triangle_hypergraph,
    write_tournament,
)


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
    assert not is_eps_transitive(t, Fraction(1, 4))
    assert is_eps_transitive(t, Fraction(1, 3))


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
    assert cyclic_triangle_count(t.reversed()) == tri


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


def test_scan_report_shape():
    report = triangle_distance_scan(6, 20, seed=5)
    assert len(report.points) == 20
    assert report.worst_ratio is not None and report.worst_ratio > 0


def test_scan_cap():
    with pytest.raises(CapabilityError):
        triangle_distance_scan(13, 1, seed=0)


@given(st.integers(1, 10), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_text_roundtrip(n, seed):
    t = random_tournament(n, seed)
    assert read_tournament(write_tournament(t)) == t


def test_read_rejects_bad_matrix():
    with pytest.raises(InputError):
        read_tournament("2\n01\n")
    # a character other than 0/1, a row past n
    for text in ("2\n0a\n10\n", "2\n01\n00\n10\n"):
        with pytest.raises(InputError):
            read_tournament(text)
