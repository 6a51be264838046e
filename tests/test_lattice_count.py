"""The subset-lattice independent-set count against the pick counter it
replaced, its n <= 16 cap, and one count-versus-bound check that a wrong
count can fail.

``reference_pick_count`` is the counter ``count_independent_sets_exact``
used before the lattice, kept verbatim: graphs pick among the non-neighbours
above the last pick, hypergraphs among all vertices above it, with each edge
carried as its rest.
"""

import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.containers import (
    ContainerParams,
    count_independent_sets_exact,
    hypergraph_bound,
    minimal_ell,
    verify_degree_precondition,
)
from homlab.errors import CapabilityError, InputError
from homlab.generators import gnp, random_uniform_hypergraph
from homlab.graphs import Graph, UniformHypergraph

from cli_helpers import invoke
from graph_helpers import complete_graph, write_hypergraph


def _count_k_sets(rows, k, edges=()):
    def pick(cand, need, rests):
        if need == 1:
            return cand.bit_count()
        if cand.bit_count() < need:
            return 0
        total = 0
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nxt = cand & rows[v]
            if rests:
                rests_v = [rest & ~low for rest in rests]
                for rest in rests_v:
                    if not rest & (rest - 1):
                        nxt &= ~rest
                rests_v = [rest for rest in rests_v if not rest & ~nxt]
            else:
                rests_v = rests
            total += pick(nxt, need - 1, rests_v)
        return total

    return pick((1 << len(rows)) - 1, k, list(edges)) if k else 1


def reference_pick_count(structure, k):
    if k < 0:
        raise InputError("k must be nonnegative")
    above = [(1 << structure.n) - (2 << v) for v in range(structure.n)]
    if isinstance(structure, Graph):
        return _count_k_sets([a & ~row for a, row in zip(above, structure.masks)], k)
    return _count_k_sets(above, k, structure.edge_masks)


@given(st.sampled_from(["graph", 2, 3, 4]), st.integers(0, 16), st.integers(0, 8),
       st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_lattice_count_equals_the_pick_count_at_every_k(kind, n, p8, seed):
    p = Fraction(p8, 8)
    s = gnp(n, p, seed) if kind == "graph" else random_uniform_hypergraph(kind, n, p, seed)
    for k in range(n + 2):
        assert count_independent_sets_exact(s, k) == reference_pick_count(s, k), k


@pytest.mark.parametrize("structure", [Graph(3, (0, 0, 0)), UniformHypergraph(3, 3, (7,))])
def test_negative_k_is_an_input_error(structure):
    with pytest.raises(InputError):
        count_independent_sets_exact(structure, -1)


# At n = 24 a lattice integer would take 2 MB, so the peak shows the refusal
# comes before anything is sized by n.
@pytest.mark.parametrize("n", [17, 24])
@pytest.mark.parametrize("kind", ["graph", "hypergraph"])
def test_count_above_the_cap_is_refused_before_any_allocation(kind, n):
    structure = complete_graph(n) if kind == "graph" else UniformHypergraph(3, n, (7, 7 << 3))
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match=f"n={n} exceeds exhaustive cap 16"):
            count_independent_sets_exact(structure, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _k14_without_k8():
    """K_14^(3) minus the 56 triples inside {0..7}: 308 edges, and {0..7}
    is its one independent 8-set."""
    edges = [e for e in itertools.combinations(range(14), 3) if max(e) >= 8]
    return UniformHypergraph.from_edges(3, 14, edges)


def test_a_bound_below_c_n_k_holds_the_count():
    # the bound is below C(14, 8) = 3003, so a count that ignored the edges fails it
    h = _k14_without_k8()
    eps, u = Fraction(7, 16), 8
    assert h.edge_count == 308
    assert verify_degree_precondition(h, eps, u) == (True, None)
    ell = minimal_ell(14, eps, u)
    assert ell == 1
    bound = hypergraph_bound(14, 3, ContainerParams(eps, u=u, ell=ell, k=8))
    assert bound == 2548
    assert count_independent_sets_exact(h, 8) == 1
    assert [count_independent_sets_exact(h, k) for k in range(10)] == [
        1, 14, 91, 56, 70, 56, 28, 8, 1, 0]


def test_containers_verify_on_the_tight_count(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(write_hypergraph(_k14_without_k8()))
    result = invoke(["containers", "verify", str(path),
                     "--eps", "7/16", "--u", "8", "--k", "8"])
    assert result.exit_code == 0, (result.output, result.exception)
    assert json.loads(result.stdout) == {
        "n": 14, "r": 3, "eps": "7/16", "u": 8, "ell": 1, "k": 8, "precondition": True,
        "precondition_witness": None, "exact_count": 1, "bound": 2548, "ok": True}
