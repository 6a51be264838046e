"""Small named graphs and the hypergraph writer, which only the tests use."""

from homlab.graphs import Graph, UniformHypergraph


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def write_hypergraph(h: UniformHypergraph) -> str:
    lines = [f"{h.r} {h.n} {h.edge_count}"]
    lines += [" ".join(map(str, e)) for e in sorted(h.edges)]
    return "\n".join(lines) + "\n"
