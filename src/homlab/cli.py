"""Command-line interface, on argparse.

Subcommands: construct, hom, containers verify, tournament dist, params,
experiment run.  Exit codes: 0 success, 1 verification/assertion failure,
2 input error (a usage error too), 3 capability/resource limit.  Each command
imports the library modules it runs, so a call loads only what it uses.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, TextIO

from . import graphs
from .errors import CapabilityError, HomlabError, InputError, VerificationError
from .graphs import _rational


def _exit_code(exc: HomlabError) -> int:
    if isinstance(exc, InputError):  # ParameterError included
        return 2
    if isinstance(exc, CapabilityError):
        return 3
    return 1  # VerificationError, ConsistencyError


def _int_option(text: str) -> int:
    """An integer option, read by :func:`graphs._int_text`."""
    try:
        return graphs._int_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Print ``text``, a string or blocks of one written as they come, to the
    current ``sys.stdout``, or write it to ``out`` through a temporary file
    beside it, moved into place once written, so a failed write leaves the old
    file whole (stdout keeps what was printed).  A path that exists but is no
    regular file, such as /dev/stdout, is written in place.  A string printed
    gets a trailing newline if it lacks one."""
    if isinstance(text, str):
        text = [text] if out or text.endswith("\n") else [text, "\n"]
    if not out:
        sys.stdout.writelines(text)
        return
    try:
        if os.path.exists(out) and not os.path.isfile(out):
            with open(out, "w") as fh:
                fh.writelines(text)
            return
        target = os.path.realpath(out)  # a symlink is written through, not replaced
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.writelines(text)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


@contextlib.contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """The file at ``path``, open as UTF-8 text; an OSError or
    UnicodeDecodeError while it is opened or read is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def construct(opts: argparse.Namespace) -> None:
    """Generate a seeded instance and print it in text format."""
    from . import generators

    kind, n, seed, out = opts.kind, opts.n, opts.seed, opts.out
    if kind == "tournament":
        from . import tournaments
        _emit(tournaments._tournament_blocks(generators.random_tournament(n, seed)), out)
        return
    if kind == "gnp":
        g = generators.gnp(n, _rational(opts.p or "1/2"), seed)
    elif kind == "overlay":
        if opts.eps is None:
            raise InputError("overlay construction needs --eps")
        g = generators.overlay_construction(n, _rational(opts.eps), seed).graph
    elif kind == "multipartite":
        sizes = [len(block) for block in generators.equitable_parts(n, opts.parts)]
        g = generators.complete_multipartite(sizes)
    elif kind == "cograph":
        g = generators.random_cograph(n, seed)
    else:
        g = generators.random_bipartite(n, _rational(opts.p or "1/2"), seed)
    _emit(graphs._graph_blocks(g), out)


def hom(opts: argparse.Namespace) -> None:
    """Largest homogeneous (or eps-homogeneous) set of a graph file."""
    from . import homogeneous

    # the search's cap is checked on the header, before the edge lines are read
    check_n = homogeneous._check_exact_size if opts.eps is None else homogeneous._check_eps_search_size
    with _opened(opts.graph_file) as fh:
        g = graphs.read_graph(fh, check_n)
    if opts.eps is None:
        _, witness = homogeneous.hom_exact(g)
    else:
        witness = homogeneous.find_eps_homogeneous(g, _rational(opts.eps), mode=opts.mode)
    _emit(witness.to_json() + "\n", opts.out)


def verify(opts: argparse.Namespace) -> None:
    """Verify the degree precondition and count bound on a graph or
    hypergraph file; exits 1 if the exact count exceeds the bound."""
    from . import containers

    epsilon = _rational(opts.eps)
    with _opened(opts.structure_file) as fh:
        # a graph's header is "n m", a hypergraph's "r n m"; the reader checks the cap on it
        head = next(filter(str.strip, fh), "")
        read = graphs.read_hypergraph if len(head.split()) == 3 else graphs.read_graph
        structure = read(itertools.chain([head], fh), containers._check_exhaustive)
    n = structure.n
    ell = containers.minimal_ell(n, epsilon, opts.u) if opts.ell is None else opts.ell
    cp = containers.ContainerParams(epsilon, u=opts.u, ell=ell, k=opts.k)
    bound = containers.hypergraph_bound(n, structure.r, cp)  # checks cp before the precondition scan
    ok_pre, witness = containers.verify_degree_precondition(structure, epsilon, opts.u)
    exact = containers.count_independent_sets_exact(structure, opts.k)
    result = {
        "n": n,
        "r": structure.r,
        "eps": str(epsilon),
        "u": opts.u,
        "ell": ell,
        "k": opts.k,
        "precondition": ok_pre,
        "precondition_witness": sorted(witness) if witness else None,
        "exact_count": exact,
        "bound": bound,
        "ok": (not ok_pre) or exact <= bound,
    }
    _emit(json.dumps(result, indent=2) + "\n", opts.out)
    if not result["ok"]:
        raise VerificationError(f"exact count {exact} exceeds bound {bound}")


def dist(opts: argparse.Namespace) -> None:
    """Exact minimum edge reversals to transitivity, with witness ordering."""
    from . import tournaments

    # the subset DP's cap is checked on the header, before the rows are read
    with _opened(opts.tournament_file) as fh:
        t = tournaments.read_tournament(fh, tournaments._check_dp_size)
    witness = tournaments.dist_to_transitive_exact(t)
    doc = {"n": t.n, "dist": witness.reversals, "ordering": list(witness.ordering),
           "cyclic_triangles": tournaments.cyclic_triangle_count(t)}
    _emit(json.dumps(doc, indent=2) + "\n", opts.out)


def params_cmd(opts: argparse.Namespace) -> None:
    """Compute exact theorem parameters and verify the inequality chain."""
    from . import params as params_mod

    f = _rational(opts.f)
    p = params_mod.compute_params(opts.variant, _rational(opts.eps), f, improved_k=opts.improved_k)
    doc = {
        "variant": p.variant,
        "eps": str(p.epsilon),
        "k": p.k,
        "inv_delta": str(1 / p.delta),
        "t": p.t,
        "ell": p.ell,
        "f_of_k": str(p.f_of_k),
    }
    if opts.check:
        report = params_mod.verify_inequality_chain(p, opts.h)
        doc["chain"] = [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed}
            for c in report.checks
        ]
        doc["all_passed"] = report.all_passed
    _emit(json.dumps(doc, indent=2) + "\n", opts.out)
    if opts.check and not doc["all_passed"]:
        raise VerificationError("inequality chain failed")


def run(opts: argparse.Namespace) -> None:
    """Run an ExperimentConfig JSON file and emit its report."""
    from .experiments import ExperimentConfig, emit_report, run_experiment

    with _opened(opts.config_file) as fh:
        config = ExperimentConfig.from_json(fh.read())
    rows = run_experiment(config, workers=opts.threads)
    _emit(emit_report(rows, format=opts.fmt), opts.out or config.out)
    bad = [r for r in rows if r.verdict.startswith("VIOLATION")]
    if bad:
        raise VerificationError(f"{len(bad)} rows reported violations")


def _parser(prog: str) -> tuple[argparse.ArgumentParser, set[str], set[str]]:
    """The argument parser, which takes no abbreviated option name, the names
    of the options that take a value, and the names of the (sub)commands."""
    valued, names = set(), set()
    style = {"allow_abbrev": False, "formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    def option(parser, name, **kwargs):
        valued.add(name)
        parser.add_argument(name, **kwargs)

    def command(subparsers, name, func):
        """A subcommand that runs ``func(opts)``, described by its docstring."""
        names.add(name)
        parser = subparsers.add_parser(name, help=func.__doc__, description=func.__doc__, **style)
        parser.set_defaults(func=func)
        return parser

    def group(subparsers, name, description):
        names.add(name)
        parser = subparsers.add_parser(name, help=description, description=description, **style)
        return parser.add_subparsers(required=True, metavar="COMMAND")

    root = argparse.ArgumentParser(prog=prog, description="Exact-combinatorics lab: containers, "
                                   "homogeneous sets, tournaments.", **style)
    option(root, "--seed", type=_int_option, default=0, help="Root RNG seed.")
    option(root, "--threads", type=_int_option, default=1, help="Worker count.")
    option(root, "--out", help="Write output to this path.")
    option(root, "--format", dest="fmt", choices=["csv", "json"], default="csv", help="Report format.")
    commands = root.add_subparsers(required=True, metavar="COMMAND")

    p = command(commands, "construct", construct)
    option(p, "--kind", required=True,
           choices=["gnp", "overlay", "multipartite", "tournament", "cograph", "bipartite"])
    option(p, "--n", type=_int_option, required=True)
    option(p, "--eps", help="Rational, e.g. 1/20.")
    option(p, "--p", help="Edge probability, rational.")
    option(p, "--parts", type=_int_option, default=2, help="Part count for multipartite.")

    p = command(commands, "hom", hom)
    p.add_argument("graph_file")
    option(p, "--eps", help="Search for an eps-homogeneous set instead of exact hom.")
    option(p, "--mode", choices=["density", "degree"], default="density", help="Rule for --eps.")

    p = command(group(commands, "containers", "Container bound operations."), "verify", verify)
    p.add_argument("structure_file")
    option(p, "--eps", required=True)
    option(p, "--u", type=_int_option, required=True)
    option(p, "--k", type=_int_option, required=True)
    option(p, "--ell", type=_int_option, help="Defaults to the minimal valid ell.")

    p = command(group(commands, "tournament", "Tournament operations."), "dist", dist)
    p.add_argument("tournament_file")

    p = command(commands, "params", params_cmd)
    option(p, "--variant", choices=["graph", "uniform", "tournament"], default="graph",
           help="Theorem variant.")
    option(p, "--eps", required=True)
    option(p, "--f", default="2", help="Constant growth value f(k).")
    option(p, "--h", type=_int_option, default=4, help="Pattern order for the chain check.")
    p.add_argument("--improved-k", action="store_true", help="Use the sharper log^2 k-formula.")
    p.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                   help="Also verify the inequality chain.")

    p = command(group(commands, "experiment", "Experiment runner."), "run", run)
    p.add_argument("config_file")
    return root, valued, names


def _join_values(args: list[str], valued: set[str], names: set[str]) -> list[str]:
    """``args`` with each value-taking option joined to the next word as
    ``--opt=word``, so a value may start with "-" (``--eps -1/2``).  A ``--``
    ends its command's options: one that is last or comes before a command
    name ends none and is dropped; any other is kept, with the words after it."""
    joined, i = [], 0
    while i < len(args):
        word = args[i]
        if word == "--" and i + 1 < len(args) and args[i + 1] not in names:
            break
        if word in valued and i + 1 < len(args) and args[i + 1] != "--":
            i += 1
            joined.append(f"{word}={args[i]}")
        elif word != "--":
            joined.append(word)
        i += 1
    return joined + args[i:]


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line (default ``sys.argv[1:]``): a library error exits
    with its class's code, memory exhaustion with 3, a usage error with 2."""
    parser, valued, names = _parser(prog_name or "homlab")
    words = _join_values(sys.argv[1:] if args is None else list(args), valued, names)
    for word in words:  # argparse would take the word after an unknown root option for the command
        if word in names:
            break
        if word.startswith("-") and word.partition("=")[0] not in valued | {"-h", "--help"}:
            parser.error(f"unrecognized arguments: {word}")
    opts = parser.parse_args(words)
    try:
        opts.func(opts)
    except HomlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(_exit_code(exc))
    except MemoryError as exc:  # a resource limit, like a CapabilityError
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
