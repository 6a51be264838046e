"""Acceptance suite: one test per release gate, each at its stated tolerance.

Every gate exercises the public API end to end with exact oracles at desk
scale; random instances are seeded and the whole module is deterministic.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from homlab.containers import (
    ContainerParams,
    count_independent_sets_exact,
    hypergraph_bound,
    kw_fingerprint,
    minimal_ell,
    reconstruct_segments,
    scythe_fingerprint,
    verify_degree_precondition,
)
from homlab.experiments import (
    ExperimentConfig,
    emit_report,
    exhaustive_graph_container_check,
    run_experiment,
    spot_check_vectorized,
)
from homlab.generators import (
    gnp,
    overlay_construction,
    perturb_edges,
    random_cograph,
    random_independent_set,
    random_tournament,
    random_uniform_hypergraph,
)
from homlab.graphs import count_induced_p4, path_graph
from homlab.homogeneous import (
    check_tk_property,
    count_homogeneous_k,
    hom_exact,
    p4_free_family,
    verify_count_lower_bound,
)
from homlab.params import compute_params, verify_inequality_chain
from homlab.tournaments import (
    count_transitive_subtournaments,
    cyclic_triangle_count,
    dist_to_transitive_bruteforce,
    dist_to_transitive_exact,
)


def test_graph_container_soundness_exhaustive_seven_vertices():
    """All 2^21 labeled 7-vertex graphs x full parameter grid: whenever the
    degree precondition holds, the exact count respects the closed-form bound.
    Zero violations; vectorized tables pinned against the scalar oracles."""
    eps_grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    u_grid = list(range(1, 8))
    k_grid = list(range(8))
    summaries = exhaustive_graph_container_check(7, eps_grid, u_grid, k_grid)
    assert summaries, "grid produced no valid parameter combos"
    violations = [s for s in summaries if s.violations]
    assert not violations, violations
    # the sharper bound is unproven; surface any counterexample loudly
    improved_violations = [s for s in summaries if s.improved_bound_violations]
    assert not improved_violations, improved_violations
    # pin the vectorized machinery against the scalar oracles on sampled codes
    spot_check_vectorized(
        7,
        [Fraction(1, 2)],
        [3, 5],
        [0, 1, (1 << 21) - 1, 123456, 987654, 2**20 + 3, 777777],
    )


def test_hypergraph_container_soundness_with_shrinkage():
    """>= 1000 qualifying seeded 3-uniform instances on 8..12 vertices: exact
    count <= bound and every fingerprint trace shrinks by (1-eps) per round.
    At n <= 12 the count check cannot fail (k = 2*ell makes the bound C(n, k),
    and k > n on many rows); the checks that bite are the shrinkage and the
    containment of each independent set in its segments plus container."""
    config = ExperimentConfig(
        kind="hypergraph-container-sample",
        grid={"n": [8, 9, 10, 11, 12], "p": ["7/10", "17/20"], "eps": ["1/16", "1/8"], "count": 11},
        seeds=(0, 1, 2, 3, 4),
    )
    rows = run_experiment(config, workers=4)
    assert len(rows) >= 1000, f"only {len(rows)} instances passed the precondition"
    bad = [r for r in rows if r.verdict != "ok"]
    assert not bad, bad[:5]
    assert all(dict(r.measures)["shrinkage_ok"] for r in rows)


def test_fingerprint_roundtrip_ten_thousand_pairs():
    """10^4 seeded (structure, independent set) pairs round-trip: the set is
    covered by segments + container and the ordered segment sequence is
    recoverable from its unordered union.  100% success required."""
    successes = 0
    for i in range(7000):
        n = 10 + i % 5
        g = gnp(n, Fraction(1, 2), seed=i)
        iset = random_independent_set(g, seed=i, stream=1)
        eps, u = Fraction(1, 2), n // 2
        params = ContainerParams(eps, u=u, ell=minimal_ell(n, eps, u), k=n)
        trace = kw_fingerprint(g, iset, params)
        assert iset <= trace.segment_union | trace.container
        assert reconstruct_segments(g, trace.segment_union, params) == trace.segments
        successes += 1
    for i in range(3000):
        n = 9 + i % 3
        h = random_uniform_hypergraph(3, n, Fraction(3, 10), seed=i)
        iset = random_independent_set(h, seed=i, stream=1)
        eps, u = Fraction(1, 4), n // 2
        ell = minimal_ell(n, eps, u)
        params = ContainerParams(eps, u=u, ell=ell, k=2 * ell + 2)
        trace = scythe_fingerprint(h, iset, params)
        assert iset <= trace.segment_union | trace.container
        assert reconstruct_segments(h, trace.segment_union, params) == trace.segments
        successes += 1
    assert successes == 10**4


def test_sparse_p4_graphs_have_many_homogeneous_triples():
    """Exhaustive (t=5, k=3) subset property for P4-free graphs, then 100
    seeded 40-vertex graphs under the copy threshold each carry >= 32
    homogeneous triples."""
    ok, counterexample = check_tk_property(p4_free_family(), 5, 3)
    assert ok and counterexample is None

    qualifying = 0
    seed = 0
    while qualifying < 100:
        g = gnp(40, Fraction(1, 20), seed=seed)
        seed += 1
        embeddings = count_induced_p4(g)[1]
        if embeddings > 640:
            continue
        report = verify_count_lower_bound(g, path_graph(4), t=5, k=3, embeddings=embeddings)
        assert report.threshold == 640
        assert report.premise_ok
        assert report.lower_bound == Fraction(32)
        assert report.homogeneous_count >= 32
        assert report.ok
        qualifying += 1
    assert seed <= 200, "sparse instance supply was unexpectedly thin"


def test_perturbed_cographs_keep_many_homogeneous_triples():
    """50 seeded 40-vertex cographs, each perturbed by 32 <= n^2/10 flips
    (closeness to the P4-free family certified by construction): homogeneous
    triple count stays >= (1/2)(n/10)^3 = 32."""
    n, t, k = 40, 5, 3
    flips = (n * n // (2 * t)) // t  # 32, inside the 1/t-closeness budget
    assert flips <= n * n // (2 * t)
    bound = Fraction(1, 2) * Fraction(n, 2 * t) ** k
    for seed in range(50):
        base = random_cograph(n, seed)
        g = perturb_edges(base, flips, seed, stream=1)
        assert count_homogeneous_k(g, k) >= bound


def test_overlay_construction_confines_and_bounds_p4s():
    """eps in {1/20, 1/10}, n = 150, 5 seeds: every induced P4 stays inside
    one part (exact scan) and embeddings respect the calibrated regression
    bound 1000 * eps^6 * n^4 (max observed ratio 681; see the calibration
    script)."""
    n = 150
    for eps in (Fraction(1, 20), Fraction(1, 10)):
        for seed in range(5):
            art = overlay_construction(n, eps, seed)
            _, embeddings, copies = count_induced_p4(art.graph)
            assert all(len({art.part_of(v) for v in c}) == 1 for c in copies)
            assert embeddings <= 1000 * eps**6 * n**4, (
                f"eps={eps} seed={seed}: {embeddings} vs {float(1000 * eps**6 * n**4):.0f}"
            )


def test_tournament_distance_and_triangle_exactness():
    """10^3 DP-vs-bruteforce distance agreements (n <= 8); 10^3 triangle
    identity instances (n <= 30); transitive-triple identity always."""
    for i in range(1000):
        n = 4 + i % 5
        t = random_tournament(n, seed=i)
        assert dist_to_transitive_exact(t).reversals == dist_to_transitive_bruteforce(t)
    for i in range(1000):
        n = 5 + i % 26
        t = random_tournament(n, seed=10**6 + i)
        tri = cyclic_triangle_count(t)  # internally cross-asserts the identity
        assert count_transitive_subtournaments(t, 3) == math.comb(n, 3) - tri


def test_random_graph_homogeneous_sets_stay_logarithmic():
    """hom of G(128, 1/2) stays <= 16 = 2*log2(128) + 2 slack on 5 fixed
    seeds (finite-n spot check of the almost-sure logarithmic behavior)."""
    for seed in range(5):
        size, witness = hom_exact(gnp(128, Fraction(1, 2), seed))
        witness.validate(gnp(128, Fraction(1, 2), seed))
        assert size <= 16


def test_parameter_chain_presets_exact_and_deterministic():
    """f = 2, eps in {1/128, 1/256, 1/512}: all four chain inequalities pass
    in exact arithmetic; results bit-identical across reruns and threads."""
    f = Fraction(2)
    for den in (128, 256, 512):
        eps = Fraction(1, den)
        params = compute_params("graph", eps, f)
        report = verify_inequality_chain(params, h=4)
        assert report.all_passed, [c for c in report.checks if not c.passed]
        reruns = [compute_params("graph", eps, f) for _ in range(3)]
        assert all(r == params for r in reruns)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda _: compute_params("graph", eps, f), range(4)))
        assert all(r == params for r in threaded)


def test_reports_are_byte_identical_across_reruns_and_workers():
    """Any config rerun with any worker count emits byte-identical CSV."""
    configs = [
        ExperimentConfig(
            kind="hypergraph-container-sample",
            grid={"n": [8, 9], "p": ["4/5"], "eps": ["1/8"], "count": 3},
            seeds=(0, 1, 2),
        ),
        ExperimentConfig(kind="triangle-scan", grid={"m": 6, "samples": 10}, seeds=(0, 1)),
        ExperimentConfig(
            kind="eps-homog-curve",
            generator={"kind": "bipartite"},
            grid={"n": 30, "eps": ["1/4", "1/8"]},
            seeds=(0, 1),
        ),
    ]
    for config in configs:
        baseline = emit_report(run_experiment(config, workers=1))
        for workers in (1, 2, 4):
            assert emit_report(run_experiment(config, workers=workers)) == baseline
