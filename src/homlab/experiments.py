"""Experiment configs, the sweep runner, and deterministic report emission.

A config is a plain JSON document; rerunning an identical config (any worker
count) produces byte-identical CSV/JSON output.  Exact rationals are rendered
as "p/q"; display floats use 12 significant digits.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import containers, generators, graphs, homogeneous, tournaments
from .containers import ContainerParams, minimal_ell
from .errors import CapabilityError, ConsistencyError, InputError
from .graphs import Graph, _int_text, _rational, path_graph

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "emit_report",
    "render_value",
    "exhaustive_graph_container_check",
    "spot_check_vectorized",
    "ComboSummary",
]


# ---------------------------------------------------------------------------
# config and rows


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: ``kind`` names its row builder, ``generator`` and
    ``grid`` hold the builder's options, ``seeds`` lists distinct non-negative
    seeds whose rows are concatenated in order (none: seed 0 alone), and
    ``out`` names the report file ``homlab experiment run`` writes when no
    ``--out`` is given (none: stdout).  The shape is checked once, here: each
    grid and generator key is one the kind declares, and each declared key,
    given or defaulted, is cast the way the builder takes it; a config that
    breaks it raises InputError."""

    kind: str
    generator: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    seeds: tuple[int, ...] = ()
    out: str | None = None
    _options: dict[str, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise InputError(f"unknown experiment kind {self.kind!r}; known: {sorted(_KINDS)}")
        if not (isinstance(self.generator, dict) and isinstance(self.grid, dict)):
            raise InputError("config fields 'generator' and 'grid' must be objects")
        spec = _KINDS[self.kind]
        options = {}
        for what, doc, keys in (("generator", self.generator, spec.generator),
                                ("grid", self.grid, spec.grid)):
            _reject_unknown(f"{self.kind} {what}", doc, keys)
            for key, (cast, default) in keys.items():
                value = doc.get(key, default)
                try:  # an absent key without a default is derived by the builder
                    options[key] = cast(value) if key in doc or default is not None else None
                except (InputError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                    raise InputError(f"{what} key {key!r}: cannot read {value!r}: {exc}") from exc
        seeds = self.seeds
        if not (
            isinstance(seeds, (list, tuple))
            and all(type(s) is int and s >= 0 for s in seeds)
            and len(set(seeds)) == len(seeds)
        ):
            raise InputError(f"config 'seeds' must list distinct non-negative integers: {seeds!r}")
        if seeds and not spec.seeded:
            raise InputError(f"{self.kind} checks every graph and takes no seeds")
        if not (self.out is None or isinstance(self.out, str)):
            raise InputError(f"config 'out' must be a path or null, got {self.out!r}")
        object.__setattr__(self, "seeds", tuple(seeds))
        object.__setattr__(self, "_options", options)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InputError("config must be a JSON object with a 'kind' field")
        _reject_unknown("config", doc, [f.name for f in fields(cls) if f.init])
        return cls(**doc)


def _reject_unknown(what: str, doc: dict, known: Iterable[str]) -> None:
    """A key no reader reads would change nothing, so it is an error."""
    unknown = sorted(map(str, set(doc) - set(known)))
    if unknown:
        raise InputError(f"unknown {what} keys {unknown}; known: {sorted(known)}")


def _list_of(cast: Callable[[Any], Any]) -> Callable[[Any], list]:
    """Cast of a JSON list whose items each go through ``cast``."""
    def cast_list(value: Any) -> list:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return [cast(item) for item in value]
    return cast_list


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    instance: str
    params: tuple[tuple[str, Any], ...]
    measures: tuple[tuple[str, Any], ...]
    verdict: str

    def as_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"experiment": self.experiment, "instance_id": self.instance}
        d.update(self.params)
        d.update(self.measures)
        d["verdict"] = self.verdict
        return d


def render_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_report(rows: Iterable[ReportRow], format: str = "csv") -> str:
    rows = list(rows)
    if format == "csv":
        columns: list[str] = ["experiment", "instance_id"]
        for row in rows:
            for key, _ in row.params + row.measures:
                if key not in columns:
                    columns.append(key)
        if "verdict" not in columns:
            columns.append("verdict")
        lines = [",".join(columns)]
        for row in rows:
            d = row.as_dict()
            lines.append(",".join(render_value(d[c]) if c in d else "" for c in columns))
        text = "\n".join(lines) + "\n"
    elif format == "json":
        rendered = [{k: render_value(v) for k, v in row.as_dict().items()} for row in rows]
        text = json.dumps(rendered, indent=2) + "\n"
    else:
        raise InputError(f"unknown report format {format!r}")
    return text


# ---------------------------------------------------------------------------
# exhaustive vectorized sweep over all labeled graphs on n <= 7 vertices


@dataclass(frozen=True)
class ComboSummary:
    n: int
    epsilon: Fraction
    u: int
    k: int
    ell: int
    bound: int
    instances_checked: int  # graphs passing the degree precondition
    violations: int
    improved_bound_violations: int


_BLOCK = 1 << 16  # codes per pass: a pass's rows and buffers stay in cache


def _check_sweep_n(n: int) -> None:
    if n < 0:
        raise InputError(f"exhaustive sweep needs n >= 0, got {n}")
    if n > 7:
        raise CapabilityError("exhaustive sweep capped at n=7 (2^21 graphs)")


def _table_blocks(n: int, codes: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per-graph tables over edge-set codes (bit b of a code is the b-th pair
    of ``range(n)`` in lexicographic order): all 2^C(n,2) codes in order by
    default, else the given ones, one block of at most ``_BLOCK`` codes at a
    time.  Each block yields ``counts`` and ``low``, two (n+1, width) uint8
    views of buffers that the next block overwrites, column i belonging to
    the block's i-th code: counts[k] is the number of independent k-sets,
    low[s] (s >= 1) the minimum over all s-sets S of the maximum degree of
    G[S].  One pass over the 2^n vertex subsets S yields both: deg_S(v) is
    the popcount of v's adjacency row masked by S, and S is independent
    exactly when the maximum is 0.  Counts fit in uint8 since C(7, k) <= 35."""
    total = 1 << n * (n - 1) // 2 if codes is None else len(codes)
    size = min(total, _BLOCK)
    counts_buf = np.empty((n + 1, size), dtype=np.uint8)
    low_buf = np.empty((n + 1, size), dtype=np.uint8)
    block_codes = np.arange(size, dtype=np.uint32)  # the default codes, moved on a block at a time
    for start in range(0, total, _BLOCK):
        width = min(total - start, _BLOCK)
        if codes is None:
            block = block_codes[:width]
        else:
            block = codes[start:start + width]
        counts, low = counts_buf[:, :width], low_buf[:, :width]
        counts.fill(0)
        counts[0] = 1
        low.fill(np.iinfo(np.uint8).max)
        _fill_tables(n, block, counts, low)
        yield counts, low
        block_codes += np.uint32(_BLOCK)


def _vectorized_tables(n: int, codes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The tables of :func:`_table_blocks` over all of its codes, the blocks
    joined: two (n+1, len(codes)) uint8 arrays."""
    _check_sweep_n(n)
    width = 1 << n * (n - 1) // 2 if codes is None else len(codes)
    counts = np.empty((n + 1, width), dtype=np.uint8)
    low = np.empty((n + 1, width), dtype=np.uint8)
    for i, (block_counts, block_low) in enumerate(_table_blocks(n, codes)):
        columns = slice(i * _BLOCK, i * _BLOCK + block_counts.shape[1])
        counts[:, columns] = block_counts
        low[:, columns] = block_low
    return counts, low


def _fill_tables(n: int, codes: np.ndarray, counts: np.ndarray, low: np.ndarray) -> None:
    """Add the independent sets of each code's graph into ``counts`` and
    lower ``low`` to its per-size minima of the maximum degree, in place."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = np.zeros((n, len(codes)), dtype=np.uint8)
    bit = np.empty(len(codes), dtype=np.uint8)
    for b, (u, v) in enumerate(pairs):
        np.bitwise_and(codes >> np.uint32(b), 1, out=bit, casting="unsafe")
        adj[u] |= bit << np.uint8(v)
        adj[v] |= bit << np.uint8(u)
    maxdeg = np.empty(len(codes), dtype=np.uint8)
    deg = np.empty(len(codes), dtype=np.uint8)
    indep = np.empty(len(codes), dtype=bool)
    for smask in range(1, 1 << n):
        svertices = [v for v in range(n) if smask >> v & 1]
        s = np.uint8(smask)
        np.bitwise_count(np.bitwise_and(adj[svertices[0]], s, out=maxdeg), out=maxdeg)
        for v in svertices[1:]:
            np.bitwise_count(np.bitwise_and(adj[v], s, out=deg), out=deg)
            np.maximum(maxdeg, deg, out=maxdeg)
        size = len(svertices)
        counts[size] += np.equal(maxdeg, 0, out=indep)
        np.minimum(low[size], maxdeg, out=low[size])


def _precondition_ok(low: np.ndarray, n: int, eps: Fraction, u: int) -> np.ndarray:
    """Per-graph degree precondition from the per-size minima ``low`` of
    :func:`_table_blocks`: every S with |S| >= u has max degree at least
    eps*|S| - 1, i.e. low[s] >= need for each (s, need) of ``_graph_needs``."""
    ok = np.ones(low.shape[1], dtype=bool)
    for s, need in containers._graph_needs(eps, u, n):
        ok &= low[s] >= need  # always true where need <= 0
    return ok


def exhaustive_graph_container_check(
    n: int, eps_values: Iterable[Fraction], u_values: Iterable[int], k_values: Iterable[int]
) -> list[ComboSummary]:
    """Container soundness over ALL 2^C(n,2) labeled graphs on n vertices.

    ell is always the minimal value with (1-eps)^ell * n <= u.  Parameter
    combos where that ell exceeds k are skipped (invalid for the graph
    bound).  Each combo's ell and both bounds are computed first, in grid
    order; the tables of :func:`_table_blocks` are then reduced one block at
    a time into per-(eps, u) instance counts and per-(eps, u, k) violation
    counts, so no table of all 2^C(n,2) graphs is held: at n = 7 on gate 1's
    grid the traced peak is 3.1 MB, against 42.8 MB for the whole tables.
    One precondition array serves every (eps, u) with the same positive
    per-size thresholds.  The vectorized primitives are cross-checked
    against the scalar oracles by `spot_check_vectorized`.
    """
    _check_sweep_n(n)  # before the values: a capped n lists none of them
    eps_values, u_values, k_values = list(eps_values), list(u_values), list(k_values)
    combos = []  # (eps, u, ell, k, bound, improved bound, positive needs), in grid order
    for eps in eps_values:
        for u in u_values:
            needs = tuple((s, need) for s, need in containers._graph_needs(eps, u, n) if need > 0)
            ell = minimal_ell(n, eps, u)
            for k in k_values:
                if ell > k:
                    continue
                params = ContainerParams(eps, u=u, ell=ell, k=k)
                combos.append((eps, u, ell, k, containers.kw_bound(n, params),
                               containers.kw_bound(n, params, improved=True), needs))
    tallies = [[0, 0, 0] for _ in combos]  # instances checked, violations of each bound

    def exceeding(counts: np.ndarray, ok: np.ndarray, k: int, bound: int) -> int:
        # no graph has more than C(n, k) independent k-sets (none for k > n)
        if bound >= math.comb(n, k):
            return 0
        return int(np.count_nonzero(ok & (counts[k] > bound)))

    for counts, low in _table_blocks(n) if combos else ():
        oks = {}  # one precondition array, and its count, per distinct needs
        for (eps, u, _, k, bound, improved, needs), tally in zip(combos, tallies):
            if needs not in oks:
                ok = _precondition_ok(low, n, eps, u)
                oks[needs] = ok, int(np.count_nonzero(ok))
            ok, checked = oks[needs]
            tally[0] += checked
            tally[1] += exceeding(counts, ok, k, bound)
            tally[2] += exceeding(counts, ok, k, improved)
    return [
        ComboSummary(n=n, epsilon=eps, u=u, k=k, ell=ell, bound=bound, instances_checked=checked,
                     violations=viol, improved_bound_violations=viol_improved)
        for (eps, u, ell, k, bound, _, _), (checked, viol, viol_improved) in zip(combos, tallies)
    ]


def spot_check_vectorized(
    n: int, eps_values: list[Fraction], u_values: list[int], codes: Iterable[int]
) -> None:
    """Cross-check the vectorized sweep's per-graph tables against the scalar
    oracles on specific edge-set codes; raises ConsistencyError on any
    disagreement.  The tables are built by the sweep's own kernel on just
    these codes, and every entry (the IS count for each k, the degree
    precondition for each (eps, u)) is compared."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    codes = list(codes)
    if not all(0 <= code < 1 << len(pairs) for code in codes):
        raise InputError(f"edge-set codes for n={n} lie in [0, 2^{len(pairs)})")
    counts, low = _vectorized_tables(n, np.array(codes, dtype=np.uint32))
    ok = {(eps, u): _precondition_ok(low, n, eps, u) for eps in eps_values for u in u_values}
    for i, code in enumerate(codes):
        g = Graph.from_edges(n, [p for j, p in enumerate(pairs) if code >> j & 1])
        for k in range(n + 1):
            exact = containers.count_independent_sets_exact(g, k)
            if exact != int(counts[k][i]):
                raise ConsistencyError(
                    f"IS count mismatch at code={code}, k={k}: "
                    f"scalar {exact} vs vectorized {int(counts[k][i])}"
                )
        for eps in eps_values:
            for u in u_values:
                scalar_ok, _ = containers.verify_degree_precondition(g, eps, u)
                if scalar_ok != bool(ok[(eps, u)][i]):
                    raise ConsistencyError(
                        f"degree precondition mismatch at code={code}, eps={eps}, u={u}"
                    )


# ---------------------------------------------------------------------------
# experiment kinds: each builds the rows of one seed


def _rows_graph_container_exhaustive(experiment: str, seed: int, *, n: int, eps: list[Fraction],
                                     u: list[int] | None,
                                     k: list[int] | None) -> Iterator[ReportRow]:
    u_values = range(1, n + 1) if u is None else u
    k_values = range(n + 1) if k is None else k
    for s in exhaustive_graph_container_check(n, eps, u_values, k_values):
        yield ReportRow(
            experiment=experiment,
            instance=f"n{s.n}-eps{s.epsilon}-u{s.u}-k{s.k}",
            params=(
                ("n", s.n), ("r", 2), ("eps", s.epsilon), ("u", s.u), ("ell", s.ell), ("k", s.k)
            ),
            measures=(
                ("instances_checked", s.instances_checked),
                ("bound", s.bound),
                ("violations", s.violations),
                ("improved_bound_violations", s.improved_bound_violations),
            ),
            verdict="ok" if s.violations == 0 else "VIOLATION",
        )


def _rows_hypergraph_container_sample(experiment: str, seed: int, *, n: list[int],
                                      p: list[Fraction], eps: list[Fraction],
                                      count: int) -> Iterator[ReportRow]:
    """r=3 container-soundness instances, one stream per attempt; an instance
    failing the degree precondition does not qualify and yields no row."""
    r = 3
    attempts = itertools.product(n, p, eps, range(count))
    for stream, (n, p, eps, _) in enumerate(attempts):  # one attempt's n, p and eps
        h = generators.random_uniform_hypergraph(r, n, p, seed, stream=stream)
        u = n - 3
        if not containers.verify_degree_precondition(h, eps, u)[0]:
            continue
        ell = minimal_ell(n, eps, u)
        k = 2 * ell
        params = ContainerParams(eps, u=u, ell=ell, k=k)
        bound = containers.hypergraph_bound(n, r, params)
        exact = containers.count_independent_sets_exact(h, k)
        i_set = generators.random_independent_set(h, seed, stream=stream + 10**6)
        trace = containers.scythe_fingerprint(h, i_set, params)
        sizes = trace.round_sizes
        shrink_ok = all(after <= (1 - eps) * before for before, after in zip(sizes, sizes[1:]))
        contain_ok = i_set <= trace.segment_union | trace.container
        ok = exact <= bound and shrink_ok and contain_ok
        yield ReportRow(
            experiment=experiment,
            instance=f"n{n}-p{p}-eps{eps}-s{seed}-i{stream}",
            params=(("n", n), ("r", r), ("eps", eps), ("u", u), ("ell", ell), ("k", k)),
            measures=(
                ("edges", h.edge_count),
                ("exact_count", exact),
                ("bound", bound),
                ("shrinkage_ok", shrink_ok),
                ("containment_ok", contain_ok),
                ("ok", ok),
            ),
            verdict="ok" if ok else "VIOLATION",
        )


def _rows_homog_count_pipeline(experiment: str, seed: int, *, n: int, p: Fraction, t: int, k: int,
                               count: int) -> Iterator[ReportRow]:
    for i in range(count):
        g = generators.gnp(n, p, seed, stream=i)
        embeddings = graphs.count_induced_p4(g)[1]
        report = homogeneous.verify_count_lower_bound(g, path_graph(4), t, k, embeddings=embeddings)
        yield ReportRow(
            experiment=experiment,
            instance=f"n{n}-p{p}-s{seed}-i{i}",
            params=(("n", n), ("p", p), ("t", t), ("k", k)),
            measures=(
                ("embeddings", report.embeddings),
                ("threshold", report.threshold),
                ("premise_ok", report.premise_ok),
                ("homogeneous_count", report.homogeneous_count),
                ("lower_bound", report.lower_bound),
            ),
            verdict="ok" if report.ok else ("premise" if not report.premise_ok else "VIOLATION"),
        )


def _rows_closeness_pipeline(experiment: str, seed: int, *, n: int, t: int, k: int,
                             flips: int | None, count: int) -> Iterator[ReportRow]:
    closeness_budget = n * n // (2 * t)
    if flips is None:
        flips = closeness_budget // t
    bound = Fraction(1, 2) * Fraction(n, 2 * t) ** k
    for i in range(count):
        base = generators.random_cograph(n, seed, stream=i)
        g = generators.perturb_edges(base, flips, seed, stream=i + 10**6)
        hom_count = homogeneous.count_homogeneous_k(g, k)
        ok = flips <= closeness_budget and hom_count >= bound
        yield ReportRow(
            experiment=experiment,
            instance=f"n{n}-s{seed}-i{i}",
            params=(("n", n), ("t", t), ("k", k), ("flips", flips)),
            measures=(
                ("closeness_budget", closeness_budget),
                ("homogeneous_count", hom_count),
                ("lower_bound", bound),
            ),
            verdict="ok" if ok else "VIOLATION",
        )


def _rows_overlay_audit(experiment: str, seed: int, *, n: int, eps: list[Fraction],
                        embedding_constant: int) -> Iterator[ReportRow]:
    """Induced P4s of the overlay construction: all inside one part, and at
    most embedding_constant * eps^6 * n^4 embeddings.  The default constant
    1000 is the calibrated regression bound (scripts/overlay_calibration.py;
    the worst observed ratio at n = 150 is 681)."""
    for epsilon in eps:
        art = generators.overlay_construction(n, epsilon, seed)
        subsets, embeddings, copies = graphs.count_induced_p4(art.graph)
        within = all(len({art.part_of(v) for v in copy}) == 1 for copy in copies)
        limit = embedding_constant * epsilon**6 * n**4
        ok = within and embeddings <= limit
        yield ReportRow(
            experiment=experiment,
            instance=f"n{n}-eps{epsilon}-s{seed}",
            params=(("n", n), ("eps", epsilon), ("s", art.s)),
            measures=(
                ("p4_subsets", subsets),
                ("p4_embeddings", embeddings),
                ("embedding_limit", limit),
                ("all_within_part", within),
            ),
            verdict="ok" if ok else "VIOLATION",
        )


def _rows_eps_homog_curve(experiment: str, seed: int, *, kind: str, n: int, p: Fraction,
                          eps: list[Fraction]) -> Iterator[ReportRow]:
    homogeneous._check_eps_search_size(n)  # before the graph is drawn
    if kind == "bipartite":
        g = generators.random_bipartite(n, p, seed)
    elif kind == "cograph":
        g = generators.random_cograph(n, seed)
    else:
        g = generators.gnp(n, p, seed)
    for epsilon in eps:
        witness = homogeneous.find_eps_homogeneous(g, epsilon, mode="density")
        yield ReportRow(
            experiment=experiment,
            instance=f"{kind}-n{n}-eps{epsilon}-s{seed}",
            params=(("generator", kind), ("n", n), ("eps", epsilon)),
            measures=(
                ("witness_size", len(witness.vertices)),
                ("witness_side", witness.side),
                ("size_over_eps_n", Fraction(len(witness.vertices)) / (epsilon * n)),
            ),
            verdict="ok",
        )


_SCAN_STATES = 1 << 24  # DP states per scan, the size of the per-instance draw cap


def _rows_triangle_scan(experiment: str, seed: int, *, m: int, samples: int) -> Iterator[ReportRow]:
    """Cyclic triangles and exact distance to transitivity of seeded random
    tournaments on m vertices, and the largest observed
    (dist/C(m,2))^2 * m^3 / triangles.  Report-only: no constant is asserted."""
    if m > 12:
        raise CapabilityError("exact distances in the scan are capped at m=12")
    if samples << max(m, 0) > _SCAN_STATES:  # a negative m fails in the generator
        raise CapabilityError(
            f"{samples} samples of 2^{m} DP states exceed the cap of {_SCAN_STATES}"
        )
    worst: Fraction | str = ""  # an empty cell until a sample has a cyclic triangle
    for i in range(samples):
        t = generators.random_tournament(m, seed=seed, stream=i)
        tri = tournaments.cyclic_triangle_count(t)
        dist = tournaments.dist_to_transitive_exact(t).reversals
        ratio = Fraction(dist, math.comb(m, 2)) ** 2 * m**3 / tri if tri else ""
        if tri:
            worst = ratio if worst == "" else max(worst, ratio)
        yield ReportRow(
            experiment=experiment,
            instance=f"m{m}-s{seed}-i{i}",
            params=(("m", m), ("seed", seed)),
            measures=(("triangles", tri), ("dist", dist), ("ratio", ratio)),
            verdict="ok",
        )
    yield ReportRow(
        experiment=experiment,
        instance=f"m{m}-s{seed}-summary",
        params=(("m", m), ("seed", seed)),
        measures=(("worst_ratio", worst),),
        verdict="ok",
    )


_Cast = Callable[[Any], Any]


class _Kind(NamedTuple):
    """An experiment kind: ``rows(experiment, seed, **options)`` builds one
    seed's rows, and each grid and generator key maps to its cast and its
    default, a JSON value cast like a given one (None: the builder derives it
    from the other keys)."""

    rows: Callable[..., Iterator[ReportRow]]
    grid: dict[str, tuple[_Cast, Any]]
    generator: dict[str, tuple[_Cast, Any]] = {}
    seeded: bool = True  # False: the kind checks every graph and takes no seeds


def _sign_checked(cast: _Cast, zero: bool) -> _Cast:
    """``cast`` of a grid value that must be at least 0 (``zero``), such as a
    count, or above 0, as one a builder divides by (at least 1 for an int)."""
    def cast_sign_checked(value: Any) -> Any:
        number = cast(value)
        if number < 0 or number == 0 and not zero:
            raise ValueError("must be non-negative" if zero else "must be positive")
        return number
    return cast_sign_checked


def _int(value: Any) -> int:
    """``int(value)``, refusing a boolean and a fractional number, which
    ``int`` would take as 0 or 1 and truncate; text is read by ``_int_text``."""
    number = _int_text(value) if isinstance(value, str) else int(value)
    if isinstance(value, bool) or isinstance(value, float) and number != value:
        raise ValueError("not an integer")
    return number


def _generator_kind(value: Any) -> str:
    if value not in ("bipartite", "cograph", "gnp"):
        raise InputError(f"unknown generator kind {value!r}")
    return value


_INTS, _RATIONALS = _list_of(_int), _list_of(_rational)
_POSITIVE, _NON_NEGATIVE = _sign_checked(_int, zero=False), _sign_checked(_int, zero=True)

_KINDS: dict[str, _Kind] = {
    "graph-container-exhaustive": _Kind(
        _rows_graph_container_exhaustive,
        {"n": (_int, 7), "eps": (_RATIONALS, ["1/4", "1/2", "1"]), "u": (_INTS, None),
         "k": (_INTS, None)},
        seeded=False),
    "hypergraph-container-sample": _Kind(
        _rows_hypergraph_container_sample,
        {"n": (_INTS, [8, 9, 10, 11, 12]), "p": (_RATIONALS, ["4/5"]),
         "eps": (_RATIONALS, ["1/8"]), "count": (_NON_NEGATIVE, 10)}),
    "homog-count-pipeline": _Kind(
        _rows_homog_count_pipeline,
        {"n": (_int, 40), "p": (_rational, "1/20"), "t": (_POSITIVE, 5), "k": (_int, 3),
         "count": (_NON_NEGATIVE, 10)}),
    "closeness-pipeline": _Kind(
        _rows_closeness_pipeline,
        {"n": (_int, 40), "t": (_POSITIVE, 5), "k": (_int, 3), "flips": (_int, None),
         "count": (_NON_NEGATIVE, 10)}),
    "overlay-audit": _Kind(
        _rows_overlay_audit,
        {"n": (_int, 150), "eps": (_RATIONALS, ["1/20", "1/10"]),
         "embedding_constant": (_NON_NEGATIVE, 1000)}),
    "eps-homog-curve": _Kind(
        _rows_eps_homog_curve,
        {"n": (_POSITIVE, 60), "p": (_rational, "1/2"),
         "eps": (_list_of(_sign_checked(_rational, zero=False)), ["1/4", "1/8", "1/16"])},
        generator={"kind": (_generator_kind, "bipartite")}),
    "triangle-scan": _Kind(_rows_triangle_scan, {"m": (_int, 9), "samples": (_NON_NEGATIVE, 100)}),
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ReportRow]:
    """Run one experiment: the rows of each seed (seed 0 when there are none)
    concatenated in seed order, so identical configs give identical rows at
    any worker count.

    Per-seed work units run in parallel when workers > 1; a unit's capability
    error becomes one row with verdict "error:capability" instead of aborting."""
    builder = _KINDS[config.kind].rows

    def unit(seed: int) -> list[ReportRow]:
        try:
            return list(builder(config.kind, seed, **config._options))
        except CapabilityError as exc:
            return [
                ReportRow(
                    experiment=config.kind,
                    instance=f"seed{seed}",
                    params=(("seed", seed),),
                    measures=(("error", str(exc)),),
                    verdict="error:capability",
                )
            ]

    seeds = config.seeds or (0,)
    if workers > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(unit, seeds))
    else:
        chunks = map(unit, seeds)
    return [row for chunk in chunks for row in chunk]  # seed order, not completion order
