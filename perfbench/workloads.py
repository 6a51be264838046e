"""The three workloads: their inputs, timed tasks, CLI calls and checks.

A workload is built from the run's seed alone.  Its timed tasks call homlab's
public functions and keep what they return; the checks afterwards compare
those results with `oracles`, which never calls homlab.  Every task runs the
same operations in every round, so a round's outputs must equal the first
round's.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

F = Fraction
MALFORMED_FAULT = (
    "graphs.read_graph: an edge line '0 1 2' unpacks into u, v outside the try "
    "(src/homlab/graphs.py:310), so a bare ValueError escapes and `homlab hom` "
    "prints a traceback and exits 1 instead of 2"
)

# Sizes per scale.  "full" is what BENCHMARK.json runs; "tiny" only proves
# that every path runs (tests).
SIZES = {
    "full": dict(
        exhaustive_n=7, sweep_configs=10, sweep_seeds=2, sweep_count=2, rt_graph=4000, rt_hyper=1750,
        overlay_n=150, sparse=400, cographs=200, hom_n=(128, 160, 180, 200), bf=240,
        dp_n=(15, 16), tri=200, gnp_cli_n=1000, probes=9,
    ),
    "tiny": dict(
        exhaustive_n=5, sweep_configs=1, sweep_seeds=2, sweep_count=1, rt_graph=20, rt_hyper=10,
        overlay_n=40, sparse=5, cographs=5, hom_n=(30,), bf=10,
        dp_n=(9,), tri=10, gnp_cli_n=60, probes=1,
    ),
}
EPS_GRID = [F(1, 4), F(1, 2), F(1)]
# Tasks whose time goes to passes over large numpy arrays; they are scaled by
# an array reference rather than the pure-Python one.
ARRAY_TASKS = {"exhaustive"}
# Tasks that run homlab's worker threads.  Each of their calls is scaled by
# references timed right before and right after it on every CPU, never while
# the workers run; so these tasks are made of calls of half a second or less.
POOL_TASKS = {"sweep"}


@dataclass
class Call:
    """One CLI subprocess: `label` names the subcommand for cli.<label>.ms;
    `check` names how its output is re-validated; `fault` marks the call that
    is expected to fail today."""

    label: str
    argv: list[str]
    check: str
    out_file: str | None = None
    expect_code: int = 0
    fault: str | None = None
    meta: dict = field(default_factory=dict)


class Ops:
    """Counts attempted and failed operations; a failing operation yields None."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing homlab call is a result, not a crash
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(10**9) for _ in range(count)]


# ---------------------------------------------------------------------------
# container-soundness


def container_inputs(seed: int, workdir, size: dict) -> dict:
    from homlab.experiments import ExperimentConfig

    rng = random.Random(seed)
    n = size["exhaustive_n"]
    m = n * (n - 1) // 2
    sweep = [
        ExperimentConfig(
            kind="hypergraph-container-sample",
            grid={"n": [8, 9, 10, 11, 12], "p": ["7/10", "17/20"], "eps": ["1/16", "1/8"],
                  "count": size["sweep_count"]},
            seeds=tuple(_seeds(rng, size["sweep_seeds"])),
        )
        for _ in range(size["sweep_configs"])
    ]
    return {
        "n": n,
        "spot_codes": [0, 1, (1 << m) - 1] + [rng.randrange(1 << m) for _ in range(4)],
        "sweep": sweep,
        "rt_graph": [(b, 10 + i % 5) for i, b in enumerate(_seeds(rng, size["rt_graph"]))],
        "rt_hyper": [(b, 9 + i % 3) for i, b in enumerate(_seeds(rng, size["rt_hyper"]))],
        "check_seed": rng.randrange(10**9),
    }


def task_exhaustive(ops: Ops, inp: dict) -> dict:
    from homlab.experiments import exhaustive_graph_container_check, spot_check_vectorized

    n = inp["n"]
    return {
        "full": ops(exhaustive_graph_container_check, n, EPS_GRID, range(1, n + 1), range(n + 1)),
        "small": ops(exhaustive_graph_container_check, n - 1, EPS_GRID, range(1, n), range(n)),
        "spot": ops(spot_check_vectorized, n, [F(1, 2)], [3, 5], inp["spot_codes"]),
    }


def task_sweep(ops: Ops, inp: dict) -> dict:
    from homlab.experiments import emit_report, run_experiment

    csvs = []
    for config in inp["sweep"]:
        rows = ops(run_experiment, config, workers=2)
        csvs.append(ops(emit_report, rows) if rows is not None else None)
    return {"csv": csvs}


def _graph_roundtrip(seed: int, n: int):
    from homlab.containers import (ContainerParams, kw_fingerprint, minimal_ell,
                                   reconstruct_segments)
    from homlab.generators import gnp, random_independent_set

    g = gnp(n, F(1, 2), seed=seed)
    iset = random_independent_set(g, seed=seed, stream=1)
    eps, u = F(1, 2), n // 2
    params = ContainerParams(eps, u=u, ell=minimal_ell(n, eps, u), k=n)
    trace = kw_fingerprint(g, iset, params)
    return g, iset, params, trace, reconstruct_segments(g, trace.segment_union, params)


def _hyper_roundtrip(seed: int, n: int):
    from homlab.containers import (ContainerParams, minimal_ell, reconstruct_segments,
                                   scythe_fingerprint)
    from homlab.generators import random_independent_set, random_uniform_hypergraph

    h = random_uniform_hypergraph(3, n, F(3, 10), seed=seed)
    iset = random_independent_set(h, seed=seed, stream=1)
    eps, u = F(1, 4), n // 2
    ell = minimal_ell(n, eps, u)
    params = ContainerParams(eps, u=u, ell=ell, k=2 * ell + 2)
    trace = scythe_fingerprint(h, iset, params)
    return h, iset, params, trace, reconstruct_segments(h, trace.segment_union, params)


def task_roundtrip(ops: Ops, inp: dict) -> dict:
    return {
        "graph": [ops(_graph_roundtrip, s, n) for s, n in inp["rt_graph"]],
        "hyper": [ops(_hyper_roundtrip, s, n) for s, n in inp["rt_hyper"]],
    }


def check_container(inp: dict, out: dict) -> list[str]:
    from homlab.experiments import emit_report, run_experiment

    bad = []
    ex = out["exhaustive"]
    n = inp["n"]
    if ex["small"] is not None:
        got = [(s.n, s.epsilon, s.u, s.k, s.ell, s.bound, s.instances_checked, s.violations,
                s.improved_bound_violations) for s in ex["small"]]
        if got != oracles.exhaustive_summaries(n - 1, EPS_GRID, range(1, n), range(n)):
            bad.append(f"exhaustive n={n - 1}: summaries differ from brute-force enumeration")
    if ex["full"] is not None:
        keys = [(e, u, k) for e in EPS_GRID for u in range(1, n + 1) for k in range(n + 1)
                if oracles.minimal_ell(n, e, u) <= k]
        if [(s.epsilon, s.u, s.k) for s in ex["full"]] != keys:
            bad.append(f"exhaustive n={n}: wrong parameter combos")
        for s in ex["full"]:
            ell = oracles.minimal_ell(n, s.epsilon, s.u)
            if s.violations or s.improved_bound_violations:
                bad.append(f"exhaustive n={n}: violation at eps={s.epsilon} u={s.u} k={s.k}")
            if s.ell != ell or s.bound != oracles.graph_bounds(n, s.u, ell, s.k)[0]:
                bad.append(f"exhaustive n={n}: ell/bound wrong at eps={s.epsilon} u={s.u} k={s.k}")
            if not 0 <= s.instances_checked <= 1 << (n * (n - 1) // 2):
                bad.append(f"exhaustive n={n}: impossible instance count {s.instances_checked}")
    rng = random.Random(inp["check_seed"])
    for config, csv_text in zip(inp["sweep"], out["sweep"]["csv"]):
        if csv_text is None:
            continue
        if emit_report(run_experiment(config, workers=1)) != csv_text:
            bad.append("sweep: CSV differs between workers=1 and workers=2")
        bad += check_hyper_csv(config, csv_text, rng, 3)
    for item in out["roundtrip"]["graph"] + out["roundtrip"]["hyper"]:
        if item is not None:
            bad += check_roundtrip(*item)
    return bad


def hyper_attempts(config) -> list[tuple]:
    """Every (n, p, eps, seed, stream) the hypergraph sweep draws, in its order."""
    grid = config.grid
    out = []
    for seed in config.seeds:
        stream = 0
        for n in grid["n"]:
            for p in grid["p"]:
                for eps in grid["eps"]:
                    for _ in range(int(grid["count"])):
                        out.append((n, F(p), F(eps), seed, stream))
                        stream += 1
    return out


def check_hyper_csv(config, csv_text: str, rng: random.Random, samples: int) -> list[str]:
    """Each sampled attempt appears as a row iff the benchmark's own degree
    precondition holds, and then its count, bound and ell are recomputed."""
    from homlab.generators import random_uniform_hypergraph

    bad = []
    rows = {r["instance_id"]: r for r in csv.DictReader(io.StringIO(csv_text))}
    if any(r["verdict"] != "ok" for r in rows.values()):
        bad.append("hypergraph sweep: a row is not ok")
    attempts = hyper_attempts(config)
    for n, p, eps, seed, stream in rng.sample(attempts, min(samples, len(attempts))):
        ident = f"n{n}-p{p}-eps{eps}-s{seed}-i{stream}"
        h = random_uniform_hypergraph(3, n, p, seed, stream=stream)
        edges = [tuple(sorted(e)) for e in h.edges]
        u = n - 3
        qualifies = oracles.degree_precondition(n, 3, edges, eps, u)
        row = rows.get(ident)
        if qualifies != (row is not None):
            bad.append(f"hypergraph sweep: {ident} qualifies={qualifies} but row present={row is not None}")
            continue
        if row is None:
            continue
        ell = oracles.minimal_ell(n, eps, u)
        k = 2 * ell
        want = {"ell": ell, "k": k, "u": u, "edges": len(edges),
                "bound": oracles.count_bound(n, 3, u, ell, k),
                "exact_count": oracles.count_independent(n, edges, k)}
        for key, value in want.items():
            if int(row[key]) != value:
                bad.append(f"hypergraph sweep: {ident} {key}={row[key]}, expected {value}")
    return bad


def check_roundtrip(structure, iset, params, trace, rebuilt) -> list[str]:
    from homlab.graphs import Graph

    n = structure.n
    if isinstance(structure, Graph):
        r, edges = 2, oracles.graph_edges(n, structure.masks)
    else:
        r, edges = structure.r, [tuple(e) for e in structure.edges]
    what = f"round trip r={r} n={n}"
    if any(set(e) <= iset for e in edges):
        return [f"{what}: the fingerprinted set is not independent"]
    if not iset <= trace.segment_union | trace.container:
        return [f"{what}: the set escapes segments + container"]
    if rebuilt != trace.segments:
        return [f"{what}: reconstruct_segments differs from the segments"]
    sizes = trace.round_sizes
    shrinks = all(sizes[i + 1] <= (1 - params.epsilon) * sizes[i] for i in range(len(sizes) - 1))
    # shrinkage is a consequence of the degree precondition, not of every input
    if not shrinks and oracles.degree_precondition(n, r, edges, params.epsilon, params.u):
        return [f"{what}: a round shrank by less than (1-eps) under the precondition"]
    return []


# ---------------------------------------------------------------------------
# exact-kernels


def kernel_inputs(seed: int, workdir, size: dict) -> dict:
    rng = random.Random(seed)
    n = size["overlay_n"]
    return {
        "overlay": [(n, eps, rng.randrange(10**9)) for eps in (F(1, 20), F(1, 10))],
        "sparse": _seeds(rng, size["sparse"]),
        "cographs": _seeds(rng, size["cographs"]),
        "hom": [(n_, rng.randrange(10**9)) for n_ in size["hom_n"]],
        "bf": [(4 + i % 5, s) for i, s in enumerate(_seeds(rng, size["bf"]))],
        "dp": [(n_, rng.randrange(10**9)) for n_ in size["dp_n"]],
        "tri": [(5 + i % 26, s) for i, s in enumerate(_seeds(rng, size["tri"]))],
        "check_seed": rng.randrange(10**9),
    }


def _overlay(n: int, eps: Fraction, seed: int):
    from homlab.generators import overlay_construction
    from homlab.graphs import count_induced_p4

    art = overlay_construction(n, eps, seed)
    subsets, embeddings, copies = count_induced_p4(art.graph)
    confined = all(len({art.part_of(v) for v in c}) == 1 for c in copies)
    return art, subsets, embeddings, confined


def task_overlay(ops: Ops, inp: dict) -> dict:
    return {"items": [ops(_overlay, *args) for args in inp["overlay"]]}


def _sparse(seed: int):
    from homlab.generators import gnp
    from homlab.graphs import count_induced_p4, path_graph
    from homlab.homogeneous import verify_count_lower_bound

    g = gnp(40, F(1, 20), seed=seed)
    embeddings = count_induced_p4(g)[1]
    return g, verify_count_lower_bound(g, path_graph(4), t=5, k=3, embeddings=embeddings)


def _cograph(seed: int):
    from homlab.generators import perturb_edges, random_cograph
    from homlab.homogeneous import count_homogeneous_k

    base = random_cograph(40, seed)
    g = perturb_edges(base, 32, seed, stream=1)
    return base, g, count_homogeneous_k(g, 3)


def _hom(n: int, seed: int):
    from homlab.generators import gnp
    from homlab.homogeneous import hom_exact

    g = gnp(n, F(1, 2), seed)
    return g, hom_exact(g)


def task_homogeneous(ops: Ops, inp: dict) -> dict:
    from homlab.homogeneous import check_tk_property, p4_free_family

    return {
        "tk": ops(check_tk_property, p4_free_family(), 5, 3),
        "sparse": [ops(_sparse, s) for s in inp["sparse"]],
        "cographs": [ops(_cograph, s) for s in inp["cographs"]],
        "hom": [ops(_hom, n, s) for n, s in inp["hom"]],
    }


def _dp_vs_bruteforce(n: int, seed: int):
    from homlab.generators import random_tournament
    from homlab.tournaments import dist_to_transitive_bruteforce, dist_to_transitive_exact

    t = random_tournament(n, seed=seed)
    return t, dist_to_transitive_exact(t), dist_to_transitive_bruteforce(t)


def _dp(n: int, seed: int):
    from homlab.generators import random_tournament
    from homlab.tournaments import dist_to_transitive_exact

    t = random_tournament(n, seed=seed)
    return t, dist_to_transitive_exact(t)


def _triangles(n: int, seed: int):
    from homlab.generators import random_tournament
    from homlab.tournaments import count_transitive_subtournaments, cyclic_triangle_count

    t = random_tournament(n, seed=seed)
    return t, cyclic_triangle_count(t), count_transitive_subtournaments(t, 3)


def task_tournament(ops: Ops, inp: dict) -> dict:
    return {
        "bf": [ops(_dp_vs_bruteforce, n, s) for n, s in inp["bf"]],
        "dp": [ops(_dp, n, s) for n, s in inp["dp"]],
        "tri": [ops(_triangles, n, s) for n, s in inp["tri"]],
    }


def check_kernels(inp: dict, out: dict) -> list[str]:
    import math

    bad = []
    rng = random.Random(inp["check_seed"])
    for item in out["overlay"]["items"]:
        if item is None:
            continue
        art, subsets, embeddings, confined = item
        g = art.graph
        per_part = 0
        for part in art.parts:
            rows = [_restrict(g.masks[v], part) for v in part]
            per_part += oracles.count_p4(len(part), rows)
        part_of = {v: i for i, part in enumerate(art.parts) for v in part}
        cross_ok = all(g.masks[u] >> v & 1 for u in range(g.n) for v in range(u + 1, g.n)
                       if part_of[u] != part_of[v])
        if not cross_ok or sorted(part_of) != list(range(g.n)):
            bad.append("overlay: parts do not cover the graph or a cross-part pair is missing")
        if subsets != per_part or embeddings != 2 * subsets or not confined:
            bad.append(f"overlay: P4 count {subsets} (audit {confined}) but {per_part} inside parts")
    hom_out = out["homogeneous"]
    if hom_out["tk"] is not None and (hom_out["tk"] != (True, None)
                                      or not oracles.tk_property_p4_free(5, 3)):
        bad.append(f"check_tk_property returned {hom_out['tk']}")
    for item in hom_out["sparse"]:
        if item is None:
            continue
        g, rep = item
        p4 = oracles.count_p4(g.n, g.masks)
        threshold = g.n**4 // (2**5 * 5**3)
        lower = F(1, 2) * F(g.n, 10) ** 3
        count = oracles.count_homogeneous_triples(g.n, g.masks)
        if (rep.embeddings, rep.threshold, rep.premise_ok, rep.homogeneous_count,
                rep.lower_bound, rep.ok) != (2 * p4, threshold, 2 * p4 <= threshold, count,
                                             lower, 2 * p4 <= threshold and count >= lower):
            bad.append(f"count pipeline: report {rep} disagrees with recomputation")
    for item in hom_out["cographs"]:
        if item is None:
            continue
        base, g, count = item
        flips = sum((a ^ b).bit_count() for a, b in zip(base.masks, g.masks)) // 2
        if oracles.count_p4(base.n, base.masks) or flips != 32:
            bad.append("perturbed cograph: base has a P4 or flips != 32")
        if count != oracles.count_homogeneous_triples(g.n, g.masks):
            bad.append(f"count_homogeneous_k {count} differs from itertools count")
    for item in hom_out["hom"]:
        if item is None:
            continue
        g, (size, witness) = item
        bad += _check_hom(g.n, list(g.masks), size, witness.kind, witness.vertices, f"hom_exact n={g.n}")
    tour = out["tournament"]
    small = [x for x in tour["bf"] if x is not None]
    for t, w, bf in small:
        if w.reversals != bf or oracles.back_arcs(t.out, w.ordering) != w.reversals:
            bad.append(f"tournament n={t.n}: DP {w.reversals}, brute force {bf}, witness disagrees")
    for t, w, bf in rng.sample(small, min(8, len(small))):
        if t.n <= 7 and oracles.brute_distance(t.n, t.out) != bf:
            bad.append(f"tournament n={t.n}: permutation search disagrees with {bf}")
    for item in tour["dp"]:
        if item is None:
            continue
        t, w = item
        bad += _check_ordering(t.n, list(t.out), w.ordering, w.reversals, f"DP n={t.n}")
    for item in tour["tri"]:
        if item is None:
            continue
        t, tri, trans = item
        own = oracles.cyclic_triangles(t.n, t.out)
        if tri != own or trans != math.comb(t.n, 3) - own:
            bad.append(f"triangles n={t.n}: {tri}/{trans} vs own {own}")
    return bad


def _restrict(row: int, part) -> int:
    return sum(1 << i for i, v in enumerate(part) if row >> v & 1)


def _check_hom(n, rows, size, kind, vertices, what) -> list[str]:
    vs = sorted(vertices)
    if len(vs) != size or kind not in ("clique", "independent") or \
            not oracles.is_clique(rows, vs, clique=kind == "clique"):
        return [f"{what}: witness {kind} {vs} is not a homogeneous set of size {size}"]
    if size != oracles.hom_number(n, rows):
        return [f"{what}: size {size} differs from networkx's clique numbers"]
    return []


def _check_ordering(n, out, ordering, dist, what) -> list[str]:
    if sorted(ordering) != list(range(n)):
        return [f"{what}: witness is not an ordering of the vertices"]
    if oracles.back_arcs(out, ordering) != dist:
        return [f"{what}: witness has {oracles.back_arcs(out, ordering)} back arcs, reported {dist}"]
    if not oracles.locally_optimal(out, ordering):
        return [f"{what}: moving one vertex improves the witness, so {dist} is not minimal"]
    if n <= 7 and oracles.brute_distance(n, out) != dist:
        return [f"{what}: permutation search disagrees with {dist}"]
    return []


# ---------------------------------------------------------------------------
# cli-session


def cli_inputs(seed: int, workdir, size: dict) -> dict:
    rng = random.Random(seed)
    gnp_seed, tour_seed = rng.randrange(10**9), rng.randrange(10**9)
    scan = {"kind": "triangle-scan", "grid": {"m": 6, "samples": 20}, "seeds": _seeds(rng, 2)}
    (workdir / "g.txt").write_text(oracles.random_graph_text(100, 1, 2, rng))
    (workdir / "g14.txt").write_text(oracles.random_graph_text(14, 1, 2, rng))
    (workdir / "t.txt").write_text(oracles.random_tournament_text(15, rng))
    (workdir / "scan.json").write_text(json.dumps(scan))
    (workdir / "bad.txt").write_text("3 1\n0 1 2\n")
    n = size["gnp_cli_n"]
    return {
        "calls": [
            Call("construct", ["--seed", str(gnp_seed), "--out", str(workdir / "gnp.txt"),
                               "construct", "--kind", "gnp", "--n", str(n), "--p", "1/2"],
                 "construct-gnp", out_file=str(workdir / "gnp.txt"),
                 meta={"n": n, "seed": gnp_seed}),
            Call("construct", ["--seed", str(tour_seed), "construct", "--kind", "tournament",
                               "--n", "16"], "construct-tournament", meta={"n": 16, "seed": tour_seed}),
            Call("hom", ["hom", str(workdir / "g.txt")], "hom"),
            Call("containers_verify", ["containers", "verify", str(workdir / "g14.txt"),
                                       "--eps", "1/2", "--u", "7", "--k", "4"], "verify"),
            Call("tournament_dist", ["tournament", "dist", str(workdir / "t.txt")], "dist"),
            Call("params", ["params", "--eps", "1/128", "--f", "2"], "params",
                 meta={"eps": "1/128", "f": 2, "h": 4}),
            Call("experiment_run", ["experiment", "run", str(workdir / "scan.json")],
                 "experiment-scan", meta={"config": scan}),
            Call("hom", ["hom", str(workdir / "bad.txt")], "none", expect_code=2,
                 fault=MALFORMED_FAULT),
        ],
    }


def check_call(call: Call, stdout: str, file_text: str | None, argv_files: dict) -> list[str]:
    """Re-validate one CLI call's output against its input file."""
    from homlab.experiments import ExperimentConfig, emit_report, run_experiment

    what = f"cli {' '.join(call.argv[-6:])}"
    kind = call.check
    if kind == "hom":
        n, rows = oracles.parse_graph(argv_files[call.argv[-1]])
        doc = json.loads(stdout)
        return _check_hom(n, rows, doc["size"], doc["kind"], doc["vertices"], what)
    if kind == "dist":
        n, out = oracles.parse_tournament(argv_files[call.argv[-1]])
        doc = json.loads(stdout)
        bad = _check_ordering(n, out, doc["ordering"], doc["dist"], what)
        if doc["cyclic_triangles"] != oracles.cyclic_triangles(n, out) or doc["n"] != n:
            bad.append(f"{what}: cyclic triangle count differs from enumeration")
        return bad
    if kind == "verify":
        return _check_verify(call, json.loads(stdout), argv_files[call.argv[2]], what)
    if kind == "params":
        doc = json.loads(stdout)
        want = oracles.theorem_params(F(call.meta["eps"]), call.meta["f"], call.meta["h"])
        got = {"k": doc["k"], "inv_delta": int(doc["inv_delta"]), "t": doc["t"],
               "ell": doc["ell"], "chain": [c["passed"] for c in doc["chain"]]}
        if got != want or doc["all_passed"] != all(want["chain"]):
            return [f"{what}: {got} differs from recomputation {want}"]
        return []
    if kind == "construct-gnp":
        from homlab.generators import gnp
        from homlab.graphs import write_graph

        n, _rows = oracles.parse_graph(file_text)
        if n != call.meta["n"] or file_text != write_graph(gnp(n, F(1, 2), call.meta["seed"])):
            return [f"{what}: file differs from the library's gnp"]
        return []
    if kind == "construct-tournament":
        from homlab.generators import random_tournament
        from homlab.tournaments import write_tournament

        n, _out = oracles.parse_tournament(stdout)
        if n != call.meta["n"] or stdout != write_tournament(random_tournament(n, call.meta["seed"])):
            return [f"{what}: output differs from the library's random_tournament"]
        return []
    if kind == "experiment-scan":
        config = ExperimentConfig.from_json(json.dumps(call.meta["config"]))
        bad = []
        if stdout != emit_report(run_experiment(config, workers=2)):
            bad.append(f"{what}: CSV differs from an in-process run with 2 workers")
        return bad + _check_scan(config, stdout)
    return []


def _check_verify(call: Call, doc: dict, text: str, what: str) -> list[str]:
    n, rows = oracles.parse_graph(text)
    r, edges = 2, oracles.graph_edges(n, rows)
    eps = F(call.argv[call.argv.index("--eps") + 1])
    u = int(call.argv[call.argv.index("--u") + 1])
    k = int(call.argv[call.argv.index("--k") + 1])
    ell = oracles.minimal_ell(n, eps, u)
    bound = oracles.count_bound(n, r, u, ell, k)
    pre = oracles.degree_precondition(n, r, edges, eps, u)
    exact = oracles.count_independent(n, edges, k)
    want = {"n": n, "r": r, "eps": str(eps), "u": u, "ell": ell, "k": k, "precondition": pre,
            "exact_count": exact, "bound": bound, "ok": (not pre) or exact <= bound}
    got = {key: doc[key] for key in want}
    if got != want:
        return [f"{what}: {got} differs from recomputation {want}"]
    witness = doc["precondition_witness"]
    if witness is not None and oracles.max_degree_in(n, edges, witness) >= eps * len(witness) - 1:
        return [f"{what}: the precondition witness does not violate the precondition"]
    return []


def _check_scan(config, text: str) -> list[str]:
    import math

    from homlab.generators import random_tournament

    bad = []
    m = int(config.grid["m"])
    rows = list(csv.DictReader(io.StringIO(text)))
    for seed in config.seeds:
        worst = None
        for i in range(int(config.grid["samples"])):
            row = next((r for r in rows if r["instance_id"] == f"m{m}-s{seed}-i{i}"), None)
            t = random_tournament(m, seed=seed, stream=i)
            tri = oracles.cyclic_triangles(m, t.out)
            dist = oracles.brute_distance(m, t.out)
            ratio = F(dist, math.comb(m, 2)) ** 2 * m**3 / tri if tri else None
            if ratio is not None and (worst is None or ratio > worst):
                worst = ratio
            want = (str(tri), str(dist), "" if ratio is None else f"{ratio.numerator}/{ratio.denominator}")
            if row is None or (row["triangles"], row["dist"], row["ratio"]) != want:
                bad.append(f"triangle scan m{m}-s{seed}-i{i}: {row} vs {want}")
        summary = next((r for r in rows if r["instance_id"] == f"m{m}-s{seed}-summary"), None)
        want_worst = "" if worst is None else f"{worst.numerator}/{worst.denominator}"
        if summary is None or summary["worst_ratio"] != want_worst:
            bad.append(f"triangle scan seed {seed}: worst ratio {summary} vs {want_worst}")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    tasks: tuple  # (task name, function)
    check: object


WORKLOADS = {
    "container-soundness": Workload(
        "container-soundness", container_inputs,
        (("exhaustive", task_exhaustive), ("sweep", task_sweep), ("roundtrip", task_roundtrip)),
        check_container),
    "exact-kernels": Workload(
        "exact-kernels", kernel_inputs,
        (("overlay", task_overlay), ("homogeneous", task_homogeneous),
         ("tournament", task_tournament)),
        check_kernels),
    "cli-session": Workload("cli-session", cli_inputs, (), lambda inp, out: []),
}
