"""Fuzzing of the text readers and of the CLI exit-code contract: arbitrary
text, and well-formed files with a few random edits, may only be rejected with
InputError (exit 2) or CapabilityError (exit 3); an experiment config with one
top-level field replaced by arbitrary JSON runs or exits 2; `params` and
`hom --eps` end in a documented exit code, never a traceback."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import CapabilityError, InputError
from homlab.generators import gnp, random_tournament, random_uniform_hypergraph
from homlab.graphs import read_graph, read_hypergraph, write_graph
from homlab.tournaments import read_tournament, write_tournament

from cli_helpers import invoke
from graph_helpers import write_hypergraph

_EDITS = ["", "0", "1", "7", " ", "\n", "-", "x", "1/2", "99999999999"]


@st.composite
def _edited(draw, write):
    """A well-formed file of a small seeded instance with up to three edits."""
    text = write(draw(st.integers(0, 8)), draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_EDITS)) + text[i + draw(st.integers(0, 1)):]
    return text


_GARBAGE = st.text(max_size=40)
GRAPH_FILES = _GARBAGE | _edited(lambda n, seed: write_graph(gnp(n, Fraction(1, 2), seed)))
HYPERGRAPH_FILES = _GARBAGE | _edited(
    lambda n, seed: write_hypergraph(random_uniform_hypergraph(3, n, Fraction(1, 3), seed))
)
TOURNAMENT_FILES = _GARBAGE | _edited(lambda n, seed: write_tournament(random_tournament(n, seed)))


@pytest.mark.parametrize(
    "reader, files",
    [(read_graph, GRAPH_FILES), (read_hypergraph, HYPERGRAPH_FILES),
     (read_tournament, TOURNAMENT_FILES)],
    ids=["graph", "hypergraph", "tournament"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_readers_raise_only_input_or_capability_errors(reader, files, data):
    try:
        reader(io.StringIO(data.draw(files), newline=None))
    except (InputError, CapabilityError):
        pass


@pytest.mark.parametrize(
    "command, files",
    [(["hom"], GRAPH_FILES),
     (["containers", "verify"], GRAPH_FILES | HYPERGRAPH_FILES),
     (["tournament", "dist"], TOURNAMENT_FILES)],
    ids=["hom", "containers-verify", "tournament-dist"],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cli_exits_0_2_or_3_on_fuzzed_files(tmp_path_factory, command, files, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text(data.draw(files))
    args = command + [str(path)]
    if command[0] == "containers":
        args += ["--eps", data.draw(st.sampled_from(["1/3", "1/2", "1"])),
                 "--u", str(data.draw(st.integers(0, 4))), "--k", str(data.draw(st.integers(0, 6)))]
    result = invoke(args)
    assert result.exit_code in (0, 2, 3), (result.output, result.exception)


# Object keys leave out the grid fields of the triangle scan below (m, samples):
# they size the work, and a large one asks for a long run, not a malformed config.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8).filter(lambda k: k not in ("m", "samples")), inner,
                      max_size=4),
    max_leaves=8,
)


@given(field=st.sampled_from(["kind", "generator", "grid", "seeds", "out"]), value=_JSON)
@settings(max_examples=60, deadline=None)
def test_experiment_run_exits_0_or_2_on_fuzzed_configs(tmp_path_factory, field, value):
    document = {"kind": "triangle-scan", "generator": {}, "grid": {"m": 4, "samples": 2},
                "seeds": [0], "out": None, field: value}
    workdir = tmp_path_factory.mktemp("config")
    (workdir / "cfg.json").write_text(json.dumps(document))
    # --out takes precedence over the config's out, which is then only checked
    args = ["--out", str(workdir / "report.csv"), "experiment", "run", str(workdir / "cfg.json")]
    result = invoke(args)
    assert result.exit_code in (0, 2), (document, result.output, result.exception)


_RATIONAL_TEXT = st.text(max_size=8) | st.builds(
    lambda a, b: f"{a}/{b}", st.integers(-3, 50), st.integers(-1, 50)
)


@given(kind=st.sampled_from(["gnp", "overlay", "multipartite", "tournament", "cograph",
                             "bipartite"]),
       n=st.integers(-3, 40), p=st.none() | _RATIONAL_TEXT, eps=st.none() | _RATIONAL_TEXT,
       parts=st.integers(-2, 42), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_construct_exits_0_2_or_3(kind, n, p, eps, parts, seed):
    args = ["--seed", str(seed), "construct", "--kind", kind, "--n", str(n),
            "--parts", str(parts)]
    args += ["--p", p] if p is not None else []
    args += ["--eps", eps] if eps is not None else []
    result = invoke(args)
    assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)


@given(variant=st.sampled_from(["graph", "uniform", "tournament"]),
       eps=st.sampled_from(["1/128", "1/200", "1/50", "0", "-1/2", "x"]),
       f=st.sampled_from(["2", "5/2", "1", "x"]), h=st.integers(-3, 8))
@settings(max_examples=60, deadline=None)
def test_params_exits_0_1_2_or_3(variant, eps, f, h):
    args = ["params", "--variant", variant, "--eps", eps, "--f", f, "--h", str(h)]
    result = invoke(args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.output, result.exception)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)


@given(eps=_RATIONAL_TEXT | st.builds(lambda a, b: f"-{a}/{b}", st.integers(0, 50),
                                     st.integers(1, 50)),
       mode=st.sampled_from(["density", "degree"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hom_eps_exits_0_2_or_3(tmp_path_factory, eps, mode, seed):
    path = tmp_path_factory.mktemp("hom") / "g.txt"
    path.write_text(write_graph(gnp(8, Fraction(1, 2), seed)))
    result = invoke(["hom", str(path), "--eps", eps, "--mode", mode])
    assert result.exit_code in (0, 2, 3), (eps, result.output, result.exception)
