"""Independent oracles for the benchmark's checks.

Nothing here calls homlab: every count is recomputed by plain enumeration
(itertools, or numpy broadcasting over all subsets), so a check holds for any
seed and fails only when homlab's answer is wrong.  Functions take plain
data (vertex count plus adjacency bitmask rows, edge lists) and return plain
data.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# input files written by the benchmark itself


def random_graph_text(n: int, num: int, den: int, rng) -> str:
    """G(n, num/den) from the benchmark's own RNG, in homlab's graph format."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randrange(den) < num]
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def random_tournament_text(n: int, rng) -> str:
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(2):
                out[u][v] = 1
            else:
                out[v][u] = 1
    return "\n".join([str(n)] + ["".join(map(str, row)) for row in out]) + "\n"


def parse_graph(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmask rows); raises ValueError on any malformation."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = (int(x) for x in lines[0])
    if len(lines) != m + 1:
        raise ValueError(f"header says {m} edges, file has {len(lines) - 1} lines")
    rows = [0] * n
    seen = set()
    for parts in lines[1:]:
        u, v = (int(x) for x in parts)
        if not 0 <= u < v < n or (u, v) in seen:
            raise ValueError(f"bad or repeated edge {u} {v}")
        seen.add((u, v))
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, rows


def parse_tournament(text: str) -> tuple[int, list[int]]:
    """(n, out-neighbour bitmask rows); row v, column u is 1 iff v beats u."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0])
    rows = lines[1:]
    if len(rows) != n or any(len(r) != n or set(r) - {"0", "1"} for r in rows):
        raise ValueError("expected an n x n 0/1 matrix")
    out = [sum(1 << u for u, ch in enumerate(r) if ch == "1") for r in rows]
    for u in range(n):
        if out[u] >> u & 1:
            raise ValueError(f"vertex {u} beats itself")
        for v in range(u + 1, n):
            if (out[u] >> v & 1) == (out[v] >> u & 1):
                raise ValueError(f"pair {u} {v} not oriented exactly once")
    return n, out


# ---------------------------------------------------------------------------
# graphs


def adjacency_matrix(n: int, rows) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.uint8)
    for v, row in enumerate(rows):
        for u in range(n):
            if row >> u & 1:
                a[v, u] = 1
    return a


@lru_cache(maxsize=8)
def _combos(n: int, k: int) -> np.ndarray:
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)),
        dtype=np.int16,
        count=k * math.comb(n, k),
    )
    return flat.reshape(-1, k)


def count_p4(n: int, rows) -> int:
    """Induced P4 count: 4-subsets with 3 edges and every degree 1 or 2."""
    if n < 4:
        return 0
    a = adjacency_matrix(n, rows)
    c = _combos(n, 4)
    deg = np.zeros((len(c), 4), dtype=np.uint8)
    for i, j in itertools.combinations(range(4), 2):
        e = a[c[:, i], c[:, j]]
        deg[:, i] += e
        deg[:, j] += e
    edges = deg.sum(axis=1) // 2
    return int(((edges == 3) & (deg.min(axis=1) >= 1) & (deg.max(axis=1) <= 2)).sum())


def count_homogeneous_triples(n: int, rows) -> int:
    """3-subsets inducing a triangle or no edge at all."""
    if n < 3:
        return 0
    a = adjacency_matrix(n, rows)
    c = _combos(n, 3)
    e = a[c[:, 0], c[:, 1]].astype(np.int8) + a[c[:, 0], c[:, 2]] + a[c[:, 1], c[:, 2]]
    return int(((e == 0) | (e == 3)).sum())


def is_clique(rows, vertices, clique: bool = True) -> bool:
    vs = sorted(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if bool(rows[u] >> v & 1) != clique:
                return False
    return True


def hom_number(n: int, rows) -> int:
    """Largest clique or independent set, from networkx's exact clique search
    on the graph and on its complement."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1)
    if n == 0:
        return 0
    return max(
        nx.max_weight_clique(g, weight=None)[1],
        nx.max_weight_clique(nx.complement(g), weight=None)[1],
    )


def brute_hom(n: int, rows) -> int:
    best = 0
    for mask in range(1 << n):
        vs = [v for v in range(n) if mask >> v & 1]
        if len(vs) > best and (is_clique(rows, vs) or is_clique(rows, vs, clique=False)):
            best = len(vs)
    return best


def tk_property_p4_free(t: int, k: int) -> bool:
    """Every P4-free labeled graph on t vertices has hom >= k (exhaustive)."""
    pairs = list(itertools.combinations(range(t), 2))
    for code in range(1 << len(pairs)):
        rows = [0] * t
        for b, (u, v) in enumerate(pairs):
            if code >> b & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if count_p4(t, rows) == 0 and brute_hom(t, rows) < k:
            return False
    return True


# ---------------------------------------------------------------------------
# containers


def minimal_ell(n: int, eps: Fraction, u: int) -> int:
    ell = 0
    while n * (1 - eps) ** ell > u:
        ell += 1
    return ell


def graph_bounds(n: int, u: int, ell: int, k: int) -> tuple[int, int]:
    """C(n,ell)*C(u,k-ell), and the ceiling of 2^ell (u/n)^((ell-1)/2) times it
    (the plain value when ell = 0)."""
    base = math.comb(n, ell) * math.comb(u, k - ell)
    if ell == 0:
        return base, base
    square = Fraction(4**ell * base * base) * Fraction(u, n) ** (ell - 1)
    c = math.isqrt(square.numerator // square.denominator)
    while c * c * square.denominator < square.numerator:
        c += 1
    return base, c


def count_bound(n: int, r: int, u: int, ell: int, k: int) -> int:
    """C(n,(r-1)ell) * C(u, k-(r-1)ell), the container counting bound."""
    drop = (r - 1) * ell
    return math.comb(n, drop) * math.comb(u, k - drop)


def exhaustive_summaries(n, eps_values, u_values, k_values) -> list[tuple]:
    """Container soundness over every labeled graph on n vertices, by
    broadcasting over (graph code, vertex subset).  One tuple
    (n, eps, u, k, ell, bound, checked, violations, improved_violations)
    per combo with ell <= k, in the order homlab's sweep uses."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    codes = np.arange(1 << len(pairs), dtype=np.uint32)[:, None]
    subsets = np.arange(1 << n, dtype=np.uint32)[None, :]
    size = np.array([bin(s).count("1") for s in range(1 << n)])
    popcount = np.array([bin(i).count("1") for i in range(1 << n)], dtype=np.uint8)
    maxdeg = np.zeros((codes.shape[0], 1 << n), dtype=np.uint8)
    for v in range(n):
        row = np.zeros(codes.shape[0], dtype=np.uint32)
        for b, (x, y) in enumerate(pairs):
            if v in (x, y):
                other = y if v == x else x
                row |= ((codes[:, 0] >> b) & 1) << other
        member = ((subsets >> v) & 1).astype(bool)
        deg = popcount[(row[:, None] & subsets)]
        np.maximum(maxdeg, np.where(member, deg, 0).astype(np.uint8), out=maxdeg)
    independent = maxdeg == 0
    counts = [independent[:, size == k].sum(axis=1) for k in range(n + 1)]
    out = []
    for eps in eps_values:
        for u in u_values:
            need = np.array([math.ceil(eps * s - 1) for s in range(n + 1)])[size]
            relevant = (size >= max(u, 1))[None, :]
            ok = ((maxdeg >= need[None, :]) | ~relevant).all(axis=1)
            checked = int(ok.sum())
            ell = minimal_ell(n, eps, u)
            for k in k_values:
                if ell > k:
                    continue
                bound, improved = graph_bounds(n, u, ell, k)
                out.append((
                    n, eps, u, k, ell, bound, checked,
                    int((ok & (counts[k] > bound)).sum()),
                    int((ok & (counts[k] > improved)).sum()),
                ))
    return out


def count_independent(n: int, edges, k: int) -> int:
    """k-subsets containing no edge (edges as vertex tuples, any uniformity)."""
    masks = [sum(1 << v for v in e) for e in edges]
    total = 0
    for combo in itertools.combinations(range(n), k):
        s = sum(1 << v for v in combo)
        if all(m & s != m for m in masks):
            total += 1
    return total


def max_degree_in(n: int, edges, subset) -> int:
    s = set(subset)
    deg = dict.fromkeys(s, 0)
    for e in edges:
        if s.issuperset(e):
            for v in e:
                deg[v] += 1
    return max(deg.values())


def degree_precondition(n: int, r: int, edges, eps: Fraction, u: int) -> bool:
    """Graph form (r = 2): every S with |S| >= u has max degree >= eps|S| - 1.
    Uniform form (r >= 3): every S with |S| > u has max degree >= eps(|S|-1)^(r-1)."""
    lower = u if r == 2 else u + 1
    for size in range(max(lower, 1), n + 1):
        need = eps * size - 1 if r == 2 else eps * (size - 1) ** (r - 1)
        for combo in itertools.combinations(range(n), size):
            if max_degree_in(n, edges, combo) < need:
                return False
    return True


def graph_edges(n: int, rows) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]


# ---------------------------------------------------------------------------
# tournaments


def back_arcs(out, ordering) -> int:
    """Arcs pointing from a later vertex of the ordering to an earlier one."""
    return sum(1 for i, u in enumerate(ordering) for v in ordering[i + 1 :] if out[v] >> u & 1)


def locally_optimal(out, ordering) -> bool:
    """No single vertex moved to another position lowers the back-arc count,
    which every optimal ordering satisfies."""
    order = list(ordering)
    for i, v in enumerate(order):
        rest = order[:i] + order[i + 1 :]
        cost = sum(1 for w in rest if out[w] >> v & 1)  # v placed first
        costs = [cost]
        for w in rest:  # v moves past w
            cost += (out[v] >> w & 1) - (out[w] >> v & 1)
            costs.append(cost)
        if min(costs) < costs[i]:
            return False
    return True


def brute_distance(n: int, out) -> int:
    return min(back_arcs(out, p) for p in itertools.permutations(range(n)))


def cyclic_triangles(n: int, out) -> int:
    total = 0
    for a, b, c in itertools.combinations(range(n), 3):
        ab, bc, ca = out[a] >> b & 1, out[b] >> c & 1, out[c] >> a & 1
        if ab == bc == ca:
            total += 1
    return total


# ---------------------------------------------------------------------------
# parameters (f constant), at 60 significant digits


def theorem_params(eps: Fraction, f: int, h: int) -> dict:
    """k, 1/delta, t, ell of the graph variant for a constant integer growth
    value f, plus the four chain verdicts."""
    import mpmath

    with mpmath.workdps(60):
        inv = mpmath.mpf(eps.denominator) / eps.numerator
        k = 200 * _ceil_checked(inv * mpmath.log(inv) ** 4)
        inv_delta = 16 * k ** (f - 1)
        t = k**f
        ell = _ceil_checked(inv * mpmath.log(inv_delta))
        budget_ok = mpmath.mpf(k) / ell >= mpmath.log(inv_delta)
    delta = Fraction(1, inv_delta)
    chain = [
        (1 - eps) ** ell <= delta,
        bool(budget_ok),
        1 / delta > Fraction(15 * t, k),
        (delta / k) ** (h - 1) < Fraction(1, 2 ** (h + 1) * t ** (h - 1)),
    ]
    return {"k": k, "inv_delta": inv_delta, "t": t, "ell": ell, "chain": chain}


def _ceil_checked(x) -> int:
    import mpmath

    if abs(x - mpmath.nint(x)) < mpmath.mpf(10) ** -40:
        raise ValueError("value too close to an integer to recompute its ceiling")
    return int(mpmath.ceil(x))
