"""Command-line interface.

Subcommands: construct, hom, containers verify, tournament dist, params,
experiment run.  Exit codes: 0 success, 1 verification/assertion failure,
2 input error, 3 capability/resource limit.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click

from . import graphs, homogeneous, tournaments
from .errors import CapabilityError, HomlabError, InputError, VerificationError
from .graphs import _rational


def _exit_code(exc: HomlabError) -> int:
    if isinstance(exc, InputError):  # ParameterError included
        return 2
    if isinstance(exc, CapabilityError):
        return 3
    return 1  # VerificationError, ConsistencyError


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to ``out`` through a temporary file beside
    it, moved into place once written, so a failed write leaves the old file
    whole.  A path that exists but is no regular file, such as /dev/stdout,
    is written in place."""
    if not out:
        click.echo(text, nl=not text.endswith("\n"))
        return
    try:
        if os.path.exists(out) and not os.path.isfile(out):
            with open(out, "w") as fh:
                fh.write(text)
            return
        target = os.path.realpath(out)  # a symlink is written through, not replaced
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


class _Group(click.Group):
    """Click group whose command errors, and memory exhaustion, map onto the
    documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HomlabError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code(exc))
        except MemoryError as exc:  # a resource limit, like a CapabilityError
            click.echo(f"error: out of memory {exc}".rstrip(), err=True)
            sys.exit(3)


@click.group(cls=_Group)
@click.option("--seed", type=int, default=0, show_default=True, help="Root RNG seed.")
@click.option("--threads", type=int, default=1, show_default=True, help="Worker count.")
@click.option("--out", type=str, default=None, help="Write output to this path.")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
@click.pass_context
def main(ctx, seed, threads, out, fmt):
    """Exact-combinatorics lab: containers, homogeneous sets, tournaments."""
    ctx.obj = {"seed": seed, "threads": threads, "out": out, "format": fmt}


@main.command()
@click.option("--kind", required=True,
              type=click.Choice(["gnp", "overlay", "multipartite", "tournament",
                                 "cograph", "bipartite"]))
@click.option("--n", type=int, required=True)
@click.option("--eps", type=str, default=None, help="Rational, e.g. 1/20.")
@click.option("--p", type=str, default=None, help="Edge probability, rational.")
@click.option("--parts", type=int, default=2, show_default=True,
              help="Part count for multipartite.")
@click.pass_obj
def construct(obj, kind, n, eps, p, parts):
    """Generate a seeded instance and print it in text format."""
    from . import generators

    seed = obj["seed"]
    if kind == "gnp":
        g = generators.gnp(n, _rational(p or "1/2"), seed)
        _emit(graphs.write_graph(g), obj["out"])
    elif kind == "overlay":
        if eps is None:
            raise InputError("overlay construction needs --eps")
        art = generators.overlay_construction(n, _rational(eps), seed)
        _emit(graphs.write_graph(art.graph), obj["out"])
    elif kind == "multipartite":
        sizes = [len(block) for block in generators.equitable_parts(n, parts)]
        _emit(graphs.write_graph(generators.complete_multipartite(sizes)), obj["out"])
    elif kind == "tournament":
        _emit(tournaments.write_tournament(generators.random_tournament(n, seed)), obj["out"])
    elif kind == "cograph":
        _emit(graphs.write_graph(generators.random_cograph(n, seed)), obj["out"])
    else:
        _emit(graphs.write_graph(generators.random_bipartite(n, _rational(p or "1/2"), seed)), obj["out"])


@main.command()
@click.argument("graph_file", type=str)
@click.option("--eps", type=str, default=None,
              help="Search for an eps-homogeneous set instead of exact hom.")
@click.option("--mode", type=click.Choice(["density", "degree"]), default="density",
              show_default=True)
@click.pass_obj
def hom(obj, graph_file, eps, mode):
    """Largest homogeneous (or eps-homogeneous) set of a graph file."""
    g = graphs.read_graph(_read_file(graph_file))
    if eps is None:
        size, witness = homogeneous.hom_exact(g)
        _emit(witness.to_json() + "\n", obj["out"])
    else:
        witness = homogeneous.find_eps_homogeneous(g, _rational(eps), mode=mode)
        _emit(witness.to_json() + "\n", obj["out"])


@main.group(name="containers")
def containers_group():
    """Container bound operations."""


@containers_group.command()
@click.argument("structure_file", type=str)
@click.option("--eps", type=str, required=True)
@click.option("--u", "u_val", type=int, required=True)
@click.option("--k", "k_val", type=int, required=True)
@click.option("--ell", type=int, default=None, help="Defaults to the minimal valid ell.")
@click.pass_obj
def verify(obj, structure_file, eps, u_val, k_val, ell):
    """Verify the degree precondition and count bound on a graph or
    hypergraph file; exits 1 if the exact count exceeds the bound."""
    from . import containers

    text = _read_file(structure_file)
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    # graph header is "n m", hypergraph header is "r n m"
    if len(first.split()) == 3:
        structure = graphs.read_hypergraph(text)
    else:
        structure = graphs.read_graph(text)
    epsilon = _rational(eps)
    n = structure.n
    if ell is None:
        ell = containers.minimal_ell(n, epsilon, u_val)
    cp = containers.ContainerParams(epsilon, u=u_val, ell=ell, k=k_val)
    bound = containers.hypergraph_bound(n, structure.r, cp)  # checks cp before the precondition scan
    ok_pre, witness = containers.verify_degree_precondition(structure, epsilon, u_val)
    exact = containers.count_independent_sets_exact(structure, k_val)
    result = {
        "n": n,
        "r": structure.r,
        "eps": str(epsilon),
        "u": u_val,
        "ell": ell,
        "k": k_val,
        "precondition": ok_pre,
        "precondition_witness": sorted(witness) if witness else None,
        "exact_count": exact,
        "bound": bound,
        "ok": (not ok_pre) or exact <= bound,
    }
    _emit(json.dumps(result, indent=2) + "\n", obj["out"])
    if not result["ok"]:
        raise VerificationError(f"exact count {exact} exceeds bound {bound}")


@main.group()
def tournament():
    """Tournament operations."""


@tournament.command()
@click.argument("tournament_file", type=str)
@click.pass_obj
def dist(obj, tournament_file):
    """Exact minimum edge reversals to transitivity, with witness ordering."""
    t = tournaments.read_tournament(_read_file(tournament_file))
    witness = tournaments.dist_to_transitive_exact(t)
    _emit(
        json.dumps(
            {
                "n": t.n,
                "dist": witness.reversals,
                "ordering": list(witness.ordering),
                "cyclic_triangles": tournaments.cyclic_triangle_count(t),
            },
            indent=2,
        )
        + "\n",
        obj["out"],
    )


@main.command("params")
@click.option("--variant", type=click.Choice(["graph", "uniform", "tournament"]),
              default="graph", show_default=True)
@click.option("--eps", type=str, required=True)
@click.option("--f", "f_value", type=str, default="2", show_default=True,
              help="Constant growth value f(k).")
@click.option("--h", "h_val", type=int, default=4, show_default=True,
              help="Pattern order for the chain check.")
@click.option("--improved-k", is_flag=True, help="Use the sharper log^2 k-formula.")
@click.option("--check/--no-check", default=True, show_default=True,
              help="Also verify the inequality chain.")
@click.pass_obj
def params_cmd(obj, variant, eps, f_value, h_val, improved_k, check):
    """Compute exact theorem parameters and verify the inequality chain."""
    from . import params as params_mod

    f = params_mod.GrowthFunction.constant(_rational(f_value))
    p = params_mod.compute_params(variant, _rational(eps), f, improved_k=improved_k)
    doc = {
        "variant": p.variant,
        "eps": str(p.epsilon),
        "k": p.k,
        "inv_delta": str(1 / p.delta),
        "t": p.t,
        "ell": p.ell,
        "f_of_k": str(p.f_of_k),
    }
    if check:
        report = params_mod.verify_inequality_chain(p, h_val)
        doc["chain"] = [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed}
            for c in report.checks
        ]
        doc["all_passed"] = report.all_passed
    _emit(json.dumps(doc, indent=2) + "\n", obj["out"])
    if check and not doc["all_passed"]:
        raise VerificationError("inequality chain failed")


@main.group()
def experiment():
    """Experiment runner."""


@experiment.command()
@click.argument("config_file", type=str)
@click.pass_obj
def run(obj, config_file):
    """Run an ExperimentConfig JSON file and emit its report."""
    from .experiments import ExperimentConfig, emit_report, run_experiment

    config = ExperimentConfig.from_json(_read_file(config_file))
    rows = run_experiment(config, workers=obj["threads"])
    _emit(emit_report(rows, format=obj["format"]), obj["out"] or config.out)
    bad = [r for r in rows if r.verdict.startswith("VIOLATION")]
    if bad:
        raise VerificationError(f"{len(bad)} rows reported violations")


if __name__ == "__main__":
    main()
