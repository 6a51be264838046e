"""Small named graphs, the complement graph, the hypergraph writer and
independence by definition, which only the tests use."""

from homlab.graphs import Graph, UniformHypergraph


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(~row & full & ~(1 << v) for v, row in enumerate(g.masks)))


def write_hypergraph(h: UniformHypergraph) -> str:
    lines = [f"{h.r} {h.n} {h.edge_count}"]
    lines += [" ".join(map(str, e)) for e in sorted(h.edges)]
    return "\n".join(lines) + "\n"


def edge_sets(structure) -> list[frozenset[int]]:
    """The edges of a graph or a uniform hypergraph as vertex sets, read from
    their edge lists alone."""
    edges = structure.edges() if isinstance(structure, Graph) else structure.edges
    return [frozenset(e) for e in edges]


def spans_no_edge(edges, vertices) -> bool:
    """Independence by its definition: no edge of ``edges`` (see
    :func:`edge_sets`) has all its vertices in ``vertices``."""
    chosen = frozenset(vertices)
    return not any(e <= chosen for e in edges)
