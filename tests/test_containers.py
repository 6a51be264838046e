import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlab.containers import (
    _PRECONDITION_EXHAUSTIVE_N,
    ContainerParams,
    FingerprintTrace,
    _scythe_core,
    count_independent_sets_exact,
    hypergraph_bound,
    is_independent,
    kw_bound,
    kw_fingerprint,
    minimal_ell,
    reconstruct_segments,
    scythe_fingerprint,
    verify_degree_precondition,
)
from homlab.errors import CapabilityError, ConsistencyError, InputError, ParameterError
from homlab.generators import gnp, random_independent_set, random_uniform_hypergraph
from homlab.graphs import (
    Graph,
    UniformHypergraph,
    _bits,
    _mask,
    path_graph,
)

from graph_helpers import complete_graph, cycle_graph, edge_sets, empty_graph, spans_no_edge


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if code >> i & 1])


def as_two_uniform(g: Graph) -> UniformHypergraph:
    return UniformHypergraph.from_edges(2, g.n, g.edges())


# ---------------------------------------------------------------------------
# parameters and bounds


def test_minimal_ell_examples():
    assert minimal_ell(10, Fraction(1, 2), 3) == 2
    assert minimal_ell(10, Fraction(1), 1) == 1
    assert minimal_ell(4, Fraction(1, 2), 4) == 0
    with pytest.raises(ParameterError):
        minimal_ell(3, Fraction(1, 3), 0)  # (2/3)^ell * 3 never reaches 0


def stepping_ell(n, eps, u, limit=None):
    """minimal_ell's definition, one exact step of ell at a time in Fractions;
    None if more than ``limit`` steps would be needed."""
    ell, value = 0, Fraction(n)
    while value > u:
        if ell == limit:
            return None
        value *= 1 - eps
        ell += 1
    return ell


_RATIONALS = st.builds(Fraction, st.integers(-10, 10**12), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 10**6) | _RATIONALS,
    u=st.integers(1, 10**6),
    q=st.integers(2, 64),
    data=st.data(),
)
@example(n=Fraction(7, 3), u=2, q=5, data=None)  # eps = 1: one step reaches 0
def test_minimal_ell_equals_the_stepping_loop(n, u, q, data):
    eps = Fraction(data.draw(st.integers(1, q)) if data else q, q)  # eps = 1 included
    assert minimal_ell(n, eps, u) == stepping_ell(n, eps, u)


@settings(max_examples=200, deadline=None)
@given(n=_RATIONALS, u=st.sampled_from([-2, -1, 0]), q=st.integers(2, 64), data=st.data())
@example(n=Fraction(5, 2), u=0, q=3, data=None)  # eps = 1 reaches u = 0 in one step
@example(n=Fraction(-1, 2), u=-1, q=3, data=None)  # and never reaches u = -1
def test_minimal_ell_with_u_at_most_0_steps_or_refuses(n, u, q, data):
    # for u <= 0 a value above u stays above it after two steps, then for ever:
    # (1-eps)^ell * n only nears 0, and reaches it only at eps = 1
    eps = Fraction(data.draw(st.integers(1, q)) if data else q, q)
    expected = stepping_ell(n, eps, u, limit=2)
    if expected is None:
        with pytest.raises(ParameterError, match=rf"^\(1-eps\)\^ell \* n stays above u={u} for every ell$"):
            minimal_ell(n, eps, u)
    else:
        assert minimal_ell(n, eps, u) == expected


@settings(max_examples=200, deadline=None)
@given(
    j=st.integers(0, 200),
    u=st.integers(1, 50),
    q=st.integers(2, 12),
    scale=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2)]),
    data=st.data(),
)
@example(j=64, u=1, q=2, scale=Fraction(1), data=None)
@example(j=65, u=1, q=2, scale=Fraction(1), data=None)
@example(j=65, u=3, q=10, scale=Fraction(1, 2), data=None)  # the chain's 1/delta = 2/(1-eps)^j
def test_minimal_ell_at_and_beside_exact_ties(j, u, q, scale, data):
    # n = u * scale / (1-eps)^j; at scale 1, (1-eps)^j * n = u exactly
    one_minus = Fraction(data.draw(st.integers(1, q - 1)) if data else 1, q)
    n = u * scale / one_minus**j
    ell = minimal_ell(n, 1 - one_minus, u)
    assert ell == stepping_ell(n, 1 - one_minus, u)
    if scale == 1:
        assert ell == j


def test_minimal_ell_with_a_high_power_of_q_in_n_is_quick():
    # 1024^23293 / 3 holds q^23293: no step of ell past 64 is multiplied out
    n, eps = Fraction(1024**23293, 3), Fraction(1, 1024)
    with mpmath.workdps(60):
        expected = int(mpmath.ceil((23293 * mpmath.log(1024) - mpmath.log(3))
                                   / -mpmath.log(1 - mpmath.mpf(1) / 1024)))
    assert minimal_ell(n, eps, 1) == expected == 165_247_823


def test_minimal_ell_past_the_exact_steps():
    # (1-eps)^ell * n hits u exactly past the 64 integer steps, so q^ell divides
    # n (q the denominator of 1-eps), and the one exact power at ell decides
    assert minimal_ell(2**100, Fraction(1, 2), 1) == 100
    assert minimal_ell(3**70, Fraction(2, 3), 1) == 70
    assert minimal_ell(3**70, Fraction(2, 3), 2) == 70
    eps = Fraction(1, 100)
    assert minimal_ell(10**6, eps, 1) == 1375 == stepping_ell(10**6, eps, 1)
    # ceil(ln 3 / -ln(1 - 10^-9)), far beyond any stepping
    assert minimal_ell(3, Fraction(1, 10**9), 1) == 1098612289
    with pytest.raises(ParameterError):
        minimal_ell(0, Fraction(1, 2), -1)  # (1/2)^ell * 0 never drops below -1


@settings(max_examples=100, deadline=None)
@given(
    j=st.integers(0, 100),
    c=st.integers(1, 50),
    d=st.integers(1, 50),
    u=st.integers(1, 50),
    q=st.integers(2, 8),
    p=st.integers(1, 7),
)
@example(j=100, c=3, d=1, u=3, q=2, p=1)  # 3 * 2^100 * 2^-100 = u
@example(j=90, c=5, d=1, u=5, q=6, p=1)  # 5 * 6^90 * 6^-90 = u, a composite q
def test_minimal_ell_on_rationals_with_ties_past_the_exact_steps(j, c, d, u, q, p):
    # n = q^j * c / d: (1-eps)^ell * n may equal u at an ell beyond 64
    eps = 1 - Fraction(min(p, q - 1), q)
    n = Fraction(q**j * c, d)
    assert minimal_ell(n, eps, u) == stepping_ell(n, eps, u)


def test_minimal_ell_at_the_exponent_limit_returns():
    # 1/(1 - 10^-1000) has no power that divides 2^3370, so 64 exact steps are taken
    with mpmath.workdps(2100):
        expected = int(mpmath.ceil(3370 * mpmath.log(2) / -mpmath.log(1 - mpmath.mpf(10) ** -1000)))
    assert minimal_ell(2**3370, Fraction(1, 10**1000), 1) == expected


def test_minimal_ell_and_the_shrinkage_check_at_a_tiny_epsilon():
    # at 128 bits 1/(1 - 10^-300) encloses 1, so ln 3 / ln(1/(1-eps)) has infinite
    # ends; an enclosure of them must not read as [0, 0]
    eps = Fraction(1, 10**300)
    with mpmath.workdps(800):
        expected = int(mpmath.ceil(mpmath.log(3) / -mpmath.log(1 - mpmath.mpf(10) ** -300)))
    assert minimal_ell(3, eps, 1) == expected
    ContainerParams(eps, u=1, ell=expected, k=expected).check_for(3)
    with pytest.raises(ParameterError, match=r"= ~1\.73205080757 exceeds"):  # 3^(1/2)
        ContainerParams(eps, u=1, ell=expected // 2, k=expected).check_for(3)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 10**4),
    u=st.integers(1, 10**4),
    ell=st.integers(0, 600),
    q=st.integers(2, 200),
    data=st.data(),
)
def test_shrinkage_check_agrees_with_the_exact_power(n, u, ell, q, data):
    eps = Fraction(data.draw(st.integers(1, q - 1)), q)
    params = ContainerParams(eps, u=u, ell=ell, k=ell)
    if (1 - eps) ** ell * n > u:
        with pytest.raises(ParameterError, match="exceeds u="):
            params.check_for(n)
    else:
        params.check_for(n)


@pytest.mark.parametrize("n, u, eps", [(10**4, 1, "1/100"), (10**6, 3, "1/50"), (3, 1, "1/1000")])
def test_shrinkage_check_flips_at_minimal_ell_past_the_exact_steps(n, u, eps):
    eps = Fraction(eps)
    ell = stepping_ell(n, eps, u)
    assert ell > 64
    ContainerParams(eps, u=u, ell=ell, k=ell).check_for(n)
    with pytest.raises(ParameterError, match="= ~"):
        ContainerParams(eps, u=u, ell=ell - 1, k=ell).check_for(n)


def test_shrinkage_check_prints_a_long_fraction_as_a_float_within_the_exact_steps():
    # (999/1000)^20 * 10^4 takes 387 bits, although ell = 20 is within the exact steps
    with pytest.raises(ParameterError, match=r"= ~9801\.8886483 exceeds u=1$"):
        ContainerParams(Fraction(1, 1000), u=1, ell=20, k=20).check_for(10**4)


def test_params_reject_shrinkage_violation():
    with pytest.raises(ParameterError):
        ContainerParams(Fraction(1, 2), u=1, ell=1, k=2).check_for(10)


def test_params_reject_ell_above_k():
    with pytest.raises(ParameterError):
        ContainerParams(Fraction(1, 2), u=3, ell=2, k=1).check_for(10)


def test_kw_bound_example():
    params = ContainerParams(Fraction(1, 2), u=3, ell=2, k=4)
    assert kw_bound(10, params) == math.comb(10, 2) * math.comb(3, 2)  # 135


def test_improved_bound_is_exact_ceiling():
    params = ContainerParams(Fraction(1, 2), u=3, ell=2, k=4)
    value = kw_bound(10, params, improved=True)
    # 2^2 * sqrt(3/10) * 135, ceiling
    sq = Fraction(16 * 135 * 135) * Fraction(3, 10)
    assert (value - 1) ** 2 < sq <= value**2


def test_hypergraph_bound_formula():
    params = ContainerParams(Fraction(1, 2), u=5, ell=1, k=4)
    assert hypergraph_bound(9, 3, params) == math.comb(9, 2) * math.comb(5, 2)


# ---------------------------------------------------------------------------
# exact counting oracle


def test_is_count_on_c5():
    assert count_independent_sets_exact(cycle_graph(5), 2) == 5
    assert count_independent_sets_exact(cycle_graph(5), 0) == 1
    assert count_independent_sets_exact(complete_graph(5), 2) == 0
    assert count_independent_sets_exact(empty_graph(5), 3) == 10


@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**15 - 1))
@settings(max_examples=150, deadline=None)
def test_is_count_matches_bruteforce(n, k, code):
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if code >> i & 1])
    edges = edge_sets(g)
    brute = sum(
        1 for combo in itertools.combinations(range(n), k) if spans_no_edge(edges, combo)
    )
    assert count_independent_sets_exact(g, k) == brute


# ---------------------------------------------------------------------------
# independence


@pytest.mark.parametrize(
    "structure, vertices",
    [(empty_graph(5), [5]), (empty_graph(5), [-1]),
     (UniformHypergraph.from_edges(3, 5, [(0, 1, 2)]), [7])],
    ids=["graph-above", "graph-negative", "hypergraph-above"],
)
def test_is_independent_rejects_vertices_outside_the_range(structure, vertices):
    with pytest.raises(InputError):
        is_independent(structure, vertices)


@given(kind=st.sampled_from(["graph", 2, 3, 4]), n=st.integers(0, 12),
       p=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
       seed=st.integers(0, 10**6), data=st.data())
@settings(max_examples=200, deadline=None)
def test_is_independent_matches_its_definition(kind, n, p, seed, data):
    structure = gnp(n, p, seed) if kind == "graph" else random_uniform_hypergraph(kind, n, p, seed)
    edges = edge_sets(structure)
    for _ in range(8):
        smask = data.draw(st.integers(0, (1 << n) - 1), label="S")
        assert is_independent(structure, _bits(smask)) == spans_no_edge(edges, _bits(smask))


# ---------------------------------------------------------------------------
# the container view: a graph and its 2-uniform hypergraph


@given(n=st.integers(0, 10), p=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
       seed=st.integers(0, 10**6), stream=st.none() | st.integers(0, 3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_graph_and_its_two_uniform_hypergraph_look_alike_to_the_container_layer(
    n, p, seed, stream, data
):
    # the degree precondition is left out: the graph and hypergraph statements
    # ask different degrees of the same set, so the two may rightly disagree
    g = gnp(n, p, seed)
    h = as_two_uniform(g)
    for k in range(n + 2):
        assert count_independent_sets_exact(g, k) == count_independent_sets_exact(h, k), k
    if n <= 8:
        for smask in range(1 << n):
            assert is_independent(g, _bits(smask)) == is_independent(h, _bits(smask)), smask
    assert random_independent_set(g, seed, stream) == random_independent_set(h, seed, stream)
    marked = data.draw(st.integers(0, (1 << n) - 1), label="marked")
    params = ContainerParams(Fraction(1, 2), u=data.draw(st.integers(1, max(1, n)), label="u"),
                             ell=data.draw(st.integers(0, n), label="ell"), k=n)
    assert _scythe_core(g, marked, params) == _scythe_core(h, marked, params)


# ---------------------------------------------------------------------------
# degree precondition


def test_precondition_on_complete_graph():
    ok, witness = verify_degree_precondition(complete_graph(6), Fraction(1), 2)
    assert ok and witness is None


def test_precondition_fails_on_empty_graph():
    ok, witness = verify_degree_precondition(empty_graph(6), Fraction(1), 2)
    assert not ok
    assert witness is not None and len(witness) >= 2


def test_precondition_uniform_variant_threshold():
    # single edge on 4 vertices: S of size 4 > u=3 has max degree 1 < (1/2)*3^2
    h = random_uniform_hypergraph(3, 4, Fraction(0), seed=0)
    h = type(h).from_edges(3, 4, [(0, 1, 2)])
    ok, witness = verify_degree_precondition(h, Fraction(1, 2), 3)
    assert not ok and witness == frozenset(range(4))


# ---------------------------------------------------------------------------
# soundness at desk scale (the scalar pin for the vectorized sweep)


@pytest.mark.parametrize("n", [4, 5])
def test_bound_sound_exhaustively_small(n):
    eps_grid = [Fraction(1, 2), Fraction(1)]
    for g in all_graphs(n):
        for eps in eps_grid:
            for u in range(1, n + 1):
                ok, _ = verify_degree_precondition(g, eps, u)
                if not ok:
                    continue
                ell = minimal_ell(n, eps, u)
                for k in range(ell, n + 1):
                    params = ContainerParams(eps, u=u, ell=ell, k=k)
                    assert count_independent_sets_exact(g, k) <= kw_bound(n, params)
                    # the sharper bound has no proof; report loudly if it breaks
                    improved = kw_bound(n, params, improved=True)
                    assert count_independent_sets_exact(g, k) <= improved, (
                        f"improved bound violated: n={n} eps={eps} u={u} k={k} "
                        f"graph={g.masks}"
                    )


# ---------------------------------------------------------------------------
# fingerprints


def _trace_params(n, eps, u, k=None):
    ell = minimal_ell(n, eps, u)
    return ContainerParams(eps, u=u, ell=ell, k=k if k is not None else max(2 * ell, n))


def test_k6_fingerprint_trace():
    g = complete_graph(6)
    trace = kw_fingerprint(g, {3}, _trace_params(6, Fraction(1), 1))
    assert trace.segments == ((3,),)
    assert trace.container == frozenset()
    assert frozenset(range(6)) - trace.container - trace.segment_union == {0, 1, 2, 4, 5}


def test_fingerprint_rejects_dependent_set():
    from homlab.errors import InputError

    with pytest.raises(InputError):
        kw_fingerprint(cycle_graph(5), {0, 1}, _trace_params(5, Fraction(1, 2), 2))


@given(st.integers(5, 11), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_graph_fingerprint_roundtrip(n, seed):
    g = gnp(n, Fraction(1, 2), seed)
    iset = random_independent_set(g, seed, stream=1)
    params = _trace_params(n, Fraction(1, 2), max(1, n // 2))
    trace = kw_fingerprint(g, iset, params)
    assert iset <= trace.segment_union | trace.container
    assert reconstruct_segments(g, trace.segment_union, params) == trace.segments


@given(st.integers(6, 10), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_scythe_roundtrip_three_uniform(n, seed):
    h = random_uniform_hypergraph(3, n, Fraction(3, 10), seed)
    iset = random_independent_set(h, seed, stream=1)
    params = _trace_params(n, Fraction(1, 4), max(1, n // 2))
    trace = scythe_fingerprint(h, iset, params)
    assert iset <= trace.segment_union | trace.container
    assert reconstruct_segments(h, trace.segment_union, params) == trace.segments


@given(st.integers(5, 10), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_scythe_r2_matches_graph_fingerprint(n, seed):
    g = gnp(n, Fraction(1, 2), seed)
    iset = random_independent_set(g, seed, stream=2)
    params = _trace_params(n, Fraction(1, 2), max(1, n // 2))
    kw_trace = kw_fingerprint(g, iset, params)
    scythe_trace = scythe_fingerprint(as_two_uniform(g), iset, params)
    assert scythe_trace.segments == kw_trace.segments
    assert scythe_trace.container == kw_trace.container


@pytest.mark.parametrize("seed", range(5))
def test_graph_scythe_never_lists_the_edges(monkeypatch, seed):
    g = gnp(14, Fraction(3, 10), seed)
    iset = random_independent_set(g, seed, stream=1)
    params = ContainerParams(Fraction(1, 2), u=1, ell=14, k=14)  # runs until the set runs out
    expected = _reference_scythe(as_two_uniform(g), iset, params)

    def listed(self):
        raise AssertionError("Graph.edges called")

    monkeypatch.setattr(Graph, "edges", listed)
    trace = kw_fingerprint(g, iset, params)
    assert trace == expected
    assert reconstruct_segments(g, trace.segment_union, params) == trace.segments


def test_reconstruction_rejects_impossible_union():
    # in K6 the first segment wipes out every other vertex, so a two-element
    # union can never be replayed in full
    with pytest.raises(ConsistencyError):
        reconstruct_segments(
            complete_graph(6), {3, 5}, ContainerParams(Fraction(1), u=1, ell=2, k=6)
        )
    # in P5 the first segment {1} spoils its neighbor 0, which is left unreplayed
    with pytest.raises(ConsistencyError):
        reconstruct_segments(
            path_graph(5), {0, 1}, ContainerParams(Fraction(1, 2), u=1, ell=5, k=5)
        )


def _reference_scythe(h, marked, params):
    """The scythe on frozensets, straight from its definition: every pick
    rescans all edges for the co-degrees of J + {v} inside W."""
    edges = frozenset(frozenset(e) for e in h.edges)
    w = set(range(h.n))
    rem = set(marked)
    segments = []
    round_sizes = []
    while len(segments) < params.ell and len(w) > params.u and len(rem & w) >= h.r - 1:
        round_sizes.append(len(w))
        j = frozenset()
        segment = []
        while len(segment) < h.r - 1:
            deg = dict.fromkeys(w, 0)
            for e in edges:
                if j <= e and e - j <= w:
                    for v in e - j:
                        deg[v] += 1
            v = min(w, key=lambda x: (-deg[x], x))
            w.discard(v)
            if v in rem:
                rem.discard(v)
                segment.append(v)
                j = frozenset(segment)
        w -= {v for v in w if j | {v} in edges}
        segments.append(tuple(segment))
    round_sizes.append(len(w))
    return FingerprintTrace(
        segments=tuple(segments),
        container=frozenset(w),
        round_sizes=tuple(round_sizes),
    )


@given(
    st.sampled_from([2, 3, 4]),
    st.integers(5, 10),
    st.sampled_from([Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)]),
    st.sampled_from([Fraction(1, 4), Fraction(1, 2)]),
    st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_mask_scythe_matches_frozenset_reference(r, n, p, eps, seed):
    h = random_uniform_hypergraph(r, n, p, seed)
    iset = random_independent_set(h, seed, stream=1)
    params = _trace_params(n, eps, max(1, n // 2))
    trace = scythe_fingerprint(h, iset, params)
    assert trace == _reference_scythe(h, iset, params)
    if r == 2:
        g = Graph.from_edges(n, h.edges)
        assert kw_fingerprint(g, iset, params) == trace
    union = trace.segment_union
    replay = _scythe_core(h, sum(1 << v for v in union), params)
    assert replay == _reference_scythe(h, union, params)
    assert reconstruct_segments(h, union, params) == replay.segments


@given(st.integers(5, 11), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_trace_round_sizes_shrink(n, seed):
    g = gnp(n, Fraction(1, 2), seed)
    iset = random_independent_set(g, seed, stream=3)
    trace = kw_fingerprint(g, iset, _trace_params(n, Fraction(1, 2), max(1, n // 2)))
    sizes = trace.round_sizes
    assert all(sizes[i + 1] < sizes[i] for i in range(len(sizes) - 1))


# ---------------------------------------------------------------------------
# references: the precondition check as it was before its integer thresholds
# (one Fraction compare per subset) and the degree rows it read, kept verbatim
# apart from the renamed call; the checker must return the same (ok, witness)
# pair


def reference_degree_rows(structure):
    if isinstance(structure, Graph):
        return structure.masks, lambda smask: smask
    rows = [0] * structure.n
    for i, e in enumerate(structure.edge_masks):
        for v in _bits(e):
            rows[v] |= 1 << i
    all_edges, all_vertices = (1 << structure.edge_count) - 1, (1 << structure.n) - 1

    def live(smask: int) -> int:
        inside = all_edges
        for v in _bits(all_vertices & ~smask):
            inside &= ~rows[v]
        return inside

    return rows, live


def reference_verify_degree_precondition(structure, epsilon, u):
    eps = Fraction(epsilon)
    n = structure.n
    if n > _PRECONDITION_EXHAUSTIVE_N:
        raise CapabilityError(f"n={n} exceeds exhaustive cap {_PRECONDITION_EXHAUSTIVE_N}")
    is_graph = isinstance(structure, Graph)
    r = 2 if is_graph else structure.r
    rows, live = reference_degree_rows(structure)

    def holds(svertices: tuple[int, ...]) -> bool:
        s = len(svertices)
        inside = live(_mask(svertices))
        md = max((rows[v] & inside).bit_count() for v in svertices)
        if is_graph:
            return md >= eps * s - 1
        return md >= eps * (s - 1) ** (r - 1)

    for size in range(max(u if is_graph else u + 1, 1), n + 1):
        for combo in itertools.combinations(range(n), size):
            if not holds(combo):
                return False, frozenset(combo)
    return True, None


_EDGE_RATES = st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
                               Fraction(3, 4), Fraction(1)])


def _structure(kind, n, p, seed):
    """A seeded graph (kind "graph") or r-uniform hypergraph (kind r)."""
    if kind == "graph":
        return gnp(n, p, seed)
    return random_uniform_hypergraph(kind, n, p, seed)


@given(
    kind=st.sampled_from(["graph", 2, 3, 4]),
    n=st.integers(0, 14),
    p=_EDGE_RATES,
    eps=st.sampled_from([Fraction(1, 16), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_precondition_matches_its_fraction_reference(kind, n, p, eps, seed, data):
    structure = _structure(kind, n, p, seed)
    u = data.draw(st.integers(-1, n + 1), label="u")
    expected = reference_verify_degree_precondition(structure, eps, u)
    assert verify_degree_precondition(structure, eps, u) == expected


@pytest.mark.parametrize("n", range(9))
def test_set_order_is_the_reverse_order_of_the_complements(n):
    # the checker lists each size's sets through their complements: the s-sets
    # in lexicographic order are the complements of the (n - s)-sets in reverse
    # lexicographic order
    for size in range(n + 1):
        complements = reversed(list(itertools.combinations(range(n), n - size)))
        assert [tuple(v for v in range(n) if v not in c) for c in complements] == list(
            itertools.combinations(range(n), size))


@pytest.mark.parametrize(("kind", "n", "p", "eps", "seed", "u", "witness"), [
    ("graph", 7, Fraction(1, 4), Fraction(1, 4), 2, 0, {0, 1, 3, 4, 6}),
    ("graph", 9, Fraction(1, 4), Fraction(1, 2), 3, 8, {0, 1, 2, 4, 5, 6, 7, 8}),
    (3, 7, Fraction(1, 4), Fraction(1, 8), 0, 4, {1, 2, 4, 5, 6}),
    (3, 8, Fraction(1, 4), Fraction(1, 8), 1, 5, {0, 1, 2, 4, 5, 7}),
])
def test_seeded_violations_name_the_reference_witness(kind, n, p, eps, seed, u, witness):
    # each witness is a later set of its size than the first, at sizes 5, 6 and 8
    structure = _structure(kind, n, p, seed)
    expected = reference_verify_degree_precondition(structure, eps, u)
    assert expected == (False, frozenset(witness))
    assert verify_degree_precondition(structure, eps, u) == expected


@given(
    kind=st.sampled_from(["graph", 2, 3, 4]),
    n=st.integers(0, 14),
    p=_EDGE_RATES,
    seed=st.integers(0, 10**6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_mask_scythe_matches_frozenset_reference_on_any_marked_set(kind, n, p, seed, data):
    structure = _structure(kind, n, p, seed)
    marked = data.draw(st.integers(0, (1 << n) - 1), label="marked")
    drawn = ContainerParams(Fraction(1, 2), u=data.draw(st.integers(1, max(1, n)), label="u"),
                            ell=data.draw(st.integers(0, n), label="ell"), k=n)
    longest = ContainerParams(Fraction(1, 2), u=1, ell=n, k=n)  # runs on until marked runs out
    h = as_two_uniform(structure) if kind == "graph" else structure
    for params in (drawn, longest):
        assert _scythe_core(structure, marked, params) == _reference_scythe(h, _bits(marked), params)
