import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import homlab
from homlab.errors import InputError
from homlab.generators import gnp, random_uniform_hypergraph
from homlab.graphs import _rational, read_graph, write_graph
from homlab.tournaments import read_tournament

import cli_helpers
from graph_helpers import complete_graph, write_hypergraph


def invoke(*args):
    return cli_helpers.invoke(args)


def test_construct_gnp_writes_graph_format(tmp_path):
    out = tmp_path / "g.txt"
    result = invoke("--seed", "5", "--out", str(out), "construct", "--kind", "gnp",
                    "--n", "12", "--p", "1/3")
    assert result.exit_code == 0
    g = read_graph(io.StringIO(out.read_text(), newline=None))
    assert g.n == 12


def test_construct_is_seed_deterministic():
    a = invoke("--seed", "7", "construct", "--kind", "gnp", "--n", "10")
    b = invoke("--seed", "7", "construct", "--kind", "gnp", "--n", "10")
    c = invoke("--seed", "8", "construct", "--kind", "gnp", "--n", "10")
    assert a.output == b.output != c.output


def test_construct_tournament_and_dist(tmp_path):
    out = tmp_path / "t.txt"
    assert invoke("--seed", "3", "--out", str(out), "construct", "--kind", "tournament",
                  "--n", "8").exit_code == 0
    t = read_tournament(io.StringIO(out.read_text(), newline=None))
    result = invoke("tournament", "dist", str(out))
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["n"] == t.n == 8
    assert doc["dist"] >= 0 and len(doc["ordering"]) == 8


def test_tournament_dist_names_the_first_unoriented_pair_and_exits_2(tmp_path):
    # 0 -> 1 and 2 -> 1, but neither 0 -> 2 nor 2 -> 0
    path = tmp_path / "t.txt"
    path.write_text("3\n010\n000\n010\n")
    result = invoke("tournament", "dist", str(path))
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == ("", "error: pair (0,2) must be oriented exactly one way\n")


@pytest.mark.parametrize("parts", ["-1", "0", "6"])
def test_construct_multipartite_rejects_part_counts_outside_1_to_n(parts):
    result = invoke("construct", "--kind", "multipartite", "--n", "5", "--parts", parts)
    assert result.exit_code == 2, (result.output, result.exception)


def test_construct_multipartite_with_n_parts_is_the_complete_graph():
    result = invoke("construct", "--kind", "multipartite", "--n", "5", "--parts", "5")
    assert result.exit_code == 0
    assert read_graph(io.StringIO(result.output, newline=None)) == complete_graph(5)


def test_construct_overlay_requires_eps():
    result = invoke("construct", "--kind", "overlay", "--n", "50")
    assert result.exit_code == 2


def test_hom_exact_and_eps_mode(tmp_path):
    out = tmp_path / "g.txt"
    invoke("--seed", "1", "--out", str(out), "construct", "--kind", "gnp", "--n", "15")
    exact = invoke("hom", str(out))
    assert exact.exit_code == 0
    doc = json.loads(exact.output)
    assert doc["kind"] in ("clique", "independent")
    eps = invoke("hom", str(out), "--eps", "1/4", "--mode", "degree")
    assert eps.exit_code == 0
    assert json.loads(eps.output)["validated"] is True


def test_hom_missing_file_is_input_error():
    assert invoke("hom", "does-not-exist.txt").exit_code == 2


def test_oversized_headers_exit_3(tmp_path):
    graph = tmp_path / "g.txt"
    for header in ("3000000 0", "100000000000 0"):
        graph.write_text(header + "\n")
        assert invoke("hom", str(graph)).exit_code == 3
    hyper = tmp_path / "h.txt"
    hyper.write_text("3 100000000000 0\n")
    result = invoke("containers", "verify", str(hyper), "--eps", "1/2", "--u", "2", "--k", "3")
    assert result.exit_code == 3


def test_containers_verify_ok(tmp_path):
    out = tmp_path / "g.txt"
    invoke("--seed", "2", "--out", str(out), "construct", "--kind", "gnp", "--n", "10")
    result = invoke("containers", "verify", str(out), "--eps", "1/2", "--u", "4", "--k", "5")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ok"] is True
    assert doc["exact_count"] <= doc["bound"] or not doc["precondition"]


def test_containers_verify_bad_params_exit_2(tmp_path):
    out = tmp_path / "g.txt"
    invoke("--seed", "2", "--out", str(out), "construct", "--kind", "gnp", "--n", "10")
    # ell forced too small for the shrinkage requirement
    result = invoke("containers", "verify", str(out), "--eps", "1/2", "--u", "1",
                    "--k", "2", "--ell", "1")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "options, message",
    [
        (["--eps", "1/1000000000", "--u", "1", "--k", "3"], "got 1098612289 > 3"),
        (["--eps", "1/3", "--u", "1", "--k", "3", "--ell", "100000000"], "got 100000000 > 3"),
        (["--eps", "1/1000000000", "--u", "1", "--k", "3", "--ell", "100000000"],
         "= ~2.71451225397 exceeds u=1"),
    ],
)
def test_containers_verify_decides_huge_ell_within_seconds(tmp_path, options, message):
    # a fresh process, so a hang fails on the timeout instead of stalling the suite
    empty = tmp_path / "empty.txt"
    empty.write_text("3 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "containers", "verify", str(empty), *options],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert result.returncode == 2
    assert message in result.stderr


def test_params_chain_json():
    result = invoke("params", "--eps", "1/128")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["all_passed"] is True
    assert len(doc["chain"]) == 4


def test_params_out_of_range_exit_2():
    assert invoke("params", "--eps", "1/2").exit_code == 2


@pytest.mark.parametrize("kind, code", [("gnp", 2), ("bipartite", 2), ("cograph", 2), ("overlay", 2),
                                        ("tournament", 2), ("multipartite", 0)])
def test_construct_with_a_negative_seed(kind, code):
    # multipartite draws nothing, so its seed is never read
    result = invoke("--seed", "-1", "construct", "--kind", kind, "--n", "5", "--eps", "1/4")
    assert result.exit_code == code, (result.output, result.exception)
    if code:
        assert result.stderr == "error: seed -1 is negative\n"


def test_experiment_run_csv_and_violation_exit(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "triangle-scan", "grid": {"m": 5, "samples": 3},
                               "seeds": [0]}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("experiment,instance_id")

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert invoke("experiment", "run", str(bad)).exit_code == 2


def test_experiment_exhaustive_k_above_n_has_no_violations(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "graph-container-exhaustive",
                               "grid": {"n": 4, "eps": ["1/2"], "u": [2], "k": [5]}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0, result.output
    header, row = result.output.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["k"] == "5"
    assert fields["violations"] == fields["improved_bound_violations"] == "0"


def test_experiment_threads_flag_identical_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "hypergraph-container-sample",
                               "grid": {"n": [8], "p": ["4/5"], "eps": ["1/8"], "count": 2},
                               "seeds": [0, 1]}))
    one = invoke("--threads", "1", "experiment", "run", str(cfg))
    four = invoke("--threads", "4", "experiment", "run", str(cfg))
    assert one.exit_code == four.exit_code == 0
    assert one.output == four.output


_TRIANGLE_SCAN = {"kind": "triangle-scan", "grid": {"m": 4, "samples": 2}, "seeds": [0]}


@pytest.mark.parametrize(
    "document",
    [
        {**_TRIANGLE_SCAN, "seeds": 5},
        {**_TRIANGLE_SCAN, "seeds": ["a"]},
        {**_TRIANGLE_SCAN, "seeds": [-1]},
        {**_TRIANGLE_SCAN, "seeds": [True]},
        {**_TRIANGLE_SCAN, "seeds": [0, 0]},
        {**_TRIANGLE_SCAN, "grid": [1]},
        {**_TRIANGLE_SCAN, "generator": "gnp"},
        {**_TRIANGLE_SCAN, "kind": []},
        {**_TRIANGLE_SCAN, "kind": "no-such-kind"},
        {**_TRIANGLE_SCAN, "out": 1},
        5,
        [_TRIANGLE_SCAN],
        {"kind": "graph-container-exhaustive", "grid": {"n": 4}, "seeds": [0, 1, 2]},
        {"kind": "triangle-scan", "grid": {"m": "x"}},
        {"kind": "overlay-audit", "grid": {"eps": "1/10"}},
        {"kind": "triangle-scan", "grid": {"m": 4, "samples": 1}, "seed": [3]},
        {"kind": "triangle-scan", "grid": {"m": 2.5, "samples": True}},
        {"kind": "triangle-scan", "grid": {"m": 2.5}},
        {"kind": "triangle-scan", "grid": {"samples": True}},
        {"kind": "graph-container-exhaustive", "grid": {"n": 3, "u": [1, 1.5]}},
        {"kind": "graph-container-exhaustive", "grid": {"n": 3, "k": [False]}},
        {"kind": "homog-count-pipeline", "grid": {"count": -1}},
        {"kind": "closeness-pipeline", "grid": {"count": -1}},
        {"kind": "hypergraph-container-sample", "grid": {"count": -2}},
        {"kind": "triangle-scan", "grid": {"samples": -3}},
        {"kind": "overlay-audit", "grid": {"n": 20, "embedding_constant": -1}},
    ],
    ids=["seeds-int", "seeds-str", "seeds-negative", "seeds-bool", "seeds-repeated", "grid-list",
         "generator-str", "kind-list", "kind-unknown", "out-int", "bare-int", "list",
         "exhaustive-with-seeds", "grid-value-not-int", "grid-eps-not-a-list", "key-misspelt",
         "grid-int-fractional-and-bool", "grid-int-fractional", "grid-int-bool",
         "grid-int-list-fractional", "grid-int-list-bool", "homog-count-negative",
         "closeness-count-negative", "hypergraph-count-negative", "samples-negative",
         "embedding-constant-negative"],
)
def test_experiment_run_rejects_malformed_configs(tmp_path, document):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output.startswith("error: ")


def test_experiment_run_reads_integral_floats_and_integer_text_as_ints(tmp_path):
    outputs = []
    for grid in ({"m": 4, "samples": 2}, {"m": 4.0, "samples": "2"}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "triangle-scan", "grid": grid}))
        result = invoke("experiment", "run", str(cfg))
        assert result.exit_code == 0, (result.output, result.exception)
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["closeness-pipeline", "homog-count-pipeline"])
@pytest.mark.parametrize("t", [0, -1])
def test_experiment_run_rejects_non_positive_t(tmp_path, kind, t):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, "grid": {"t": t, "count": 1}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output.startswith("error: grid key 't'")


@pytest.mark.parametrize("kind, key", [("homog-count-pipeline", "count"),
                                       ("closeness-pipeline", "count"),
                                       ("hypergraph-container-sample", "count"),
                                       ("triangle-scan", "samples")])
def test_experiment_run_names_a_negative_count_and_runs_zero(tmp_path, kind, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, "grid": {key: -1}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output.startswith(f"error: grid key '{key}'")
    cfg.write_text(json.dumps({"kind": kind, "grid": {key: 0}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0, (result.output, result.exception)


def test_experiment_run_writes_the_config_out_path(tmp_path):
    report = tmp_path / "report.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_TRIANGLE_SCAN, "out": str(report)}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0 and result.output == ""
    assert report.read_text().startswith("experiment,instance_id,m,seed")


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--kind", "gnp", "--n", "5"],
        ["hom", "{graph}"],
        ["containers", "verify", "{graph}", "--eps", "1/2", "--u", "2", "--k", "3"],
        ["tournament", "dist", "{tournament}"],
        ["params", "--eps", "1/128"],
        ["experiment", "run", "{config}"],
    ],
    ids=["construct", "hom", "containers-verify", "tournament-dist", "params", "experiment-run"],
)
def test_unwritable_out_path_exits_2(tmp_path, args):
    files = {"graph": tmp_path / "g.txt", "tournament": tmp_path / "t.txt",
             "config": tmp_path / "cfg.json"}
    files["graph"].write_text("4 2\n0 1\n2 3\n")
    files["tournament"].write_text("3\n010\n001\n100\n")
    files["config"].write_text(json.dumps(_TRIANGLE_SCAN))
    unwritable = tmp_path / "no-such-dir" / "out.txt"
    argv = ["--out", str(unwritable)] + [a.format(**files) for a in args]
    result = invoke(*argv)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "cannot write" in result.output


# Runs a command (or only imports) in a fresh interpreter, then prints which of
# the heavy dependencies it loaded.
_LOADED_MODULES = """
import json, sys
try:
    if sys.argv[1:]:
        from homlab.cli import main
        main(sys.argv[1:])
    else:
        import homlab.graphs, homlab.homogeneous, homlab.tournaments
finally:
    print(json.dumps(sorted(m for m in ("numpy", "mpmath") if m in sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["hom", "{graph}"], []),
        (["tournament", "dist", "{tournament}"], []),
        (["params", "--eps", "1/128"], ["mpmath"]),
        ([], []),
    ],
    ids=["hom", "tournament-dist", "params", "import-pure-python-modules"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, loaded):
    files = {"graph": tmp_path / "g.txt", "tournament": tmp_path / "t.txt"}
    files["graph"].write_text("4 2\n0 1\n2 3\n")
    files["tournament"].write_text("3\n010\n001\n100\n")
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *(a.format(**files) for a in args)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stderr.splitlines()[-1]) == loaded


# Runs one command in a fresh interpreter, then prints which of click and the
# homlab modules that only some commands use it loaded.
_LOADED_HOMLAB = """
import json, sys
from homlab.cli import main
try:
    main(sys.argv[1:])
finally:
    watched = ("click", "homlab.homogeneous", "homlab.tournaments")
    print(json.dumps([m for m in watched if m in sys.modules]), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "args, absent",
    [
        (["construct", "--kind", "gnp", "--n", "5"], ["click", "homlab.homogeneous"]),
        (["hom", "{graph}"], ["click", "homlab.tournaments"]),
        (["containers", "verify", "{graph}", "--eps", "1/2", "--u", "2", "--k", "3"],
         ["click", "homlab.homogeneous", "homlab.tournaments"]),
        (["tournament", "dist", "{tournament}"], ["click", "homlab.homogeneous"]),
        (["params", "--eps", "1/128"], ["click", "homlab.homogeneous", "homlab.tournaments"]),
        (["experiment", "run", "{config}"], ["click"]),
    ],
    ids=["construct", "hom", "containers-verify", "tournament-dist", "params", "experiment-run"],
)
def test_each_command_loads_no_click_and_only_the_homlab_modules_it_runs(tmp_path, args, absent):
    files = {"graph": tmp_path / "g.txt", "tournament": tmp_path / "t.txt",
             "config": tmp_path / "cfg.json"}
    files["graph"].write_text("4 2\n0 1\n2 3\n")
    files["tournament"].write_text("3\n010\n001\n100\n")
    files["config"].write_text(json.dumps(_TRIANGLE_SCAN))
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_HOMLAB, *(a.format(**files) for a in args)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert not set(json.loads(result.stderr.splitlines()[-1])) & set(absent)


def test_experiment_run_rejects_negative_flips(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "closeness-pipeline", "grid": {"flips": -5, "count": 1}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output.startswith("error: ")


def test_construct_above_the_draw_cap_exits_3_at_once():
    start = time.monotonic()
    result = invoke("construct", "--kind", "gnp", "--n", "5794")  # C(5794, 2) > 2^24 draws
    assert result.exit_code == 3, (result.output, result.exception)
    assert result.output.startswith("error: ")
    assert time.monotonic() - start < 2


def test_experiment_instance_above_the_draw_cap_is_a_capability_row(tmp_path):
    cfg = tmp_path / "cfg.json"  # C(2000, 3) = 1.33e9 triples, never enumerated
    cfg.write_text(json.dumps({"kind": "hypergraph-container-sample",
                               "grid": {"n": [2000], "count": 1}}))
    start = time.monotonic()
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0, (result.output, result.exception)
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(",error:capability")
    assert time.monotonic() - start < 2


# The first 16 hex digits of the SHA-256 of `homlab --seed 11 construct ...`,
# pinned across commits: a change to any generator's draws shows here.
@pytest.mark.parametrize(
    "args, digest",
    [
        ("gnp --n 40 --p 1/3", "b28a7c35690e6c68"),
        ("overlay --n 60 --eps 1/20", "a5f41ba0834a5cc2"),
        ("multipartite --n 7", "43e62f4f8a71957c"),
        ("multipartite --n 7 --parts 3", "6b792d81f1343ff3"),
        ("multipartite --n 7 --parts 7", "51ac8588af7eae34"),
        ("tournament --n 12", "c05871e19fdf7e07"),
        ("cograph --n 30", "dd21ab268217b560"),
        ("bipartite --n 30 --p 2/3", "54b8f73f1ca6cddd"),
    ],
)
def test_construct_output_is_pinned(args, digest):
    result = invoke("--seed", "11", "construct", "--kind", *args.split())
    assert result.exit_code == 0, (result.output, result.exception)
    assert hashlib.sha256(result.stdout_bytes).hexdigest()[:16] == digest


# The first 16 hex digits of the SHA-256 of `homlab params --eps 1/128`, with
# its exit code, pinned across commits: every parameter and chain line shows here.
@pytest.mark.parametrize(
    "options, code, digest",
    [
        ("--variant graph", 0, "494102e95eb9fcc2"),
        ("--variant graph --improved-k", 0, "faa66268dc3cfb0a"),
        ("--variant uniform", 0, "37f8ab2236ce34bd"),
        ("--variant uniform --improved-k", 0, "52286399b51fb1ab"),
        ("--variant tournament", 0, "ba83d18654ab04c2"),
        ("--variant tournament --improved-k", 1, "cca46ee67de5d5b5"),  # check (ii) fails
    ],
)
def test_params_output_is_pinned(options, code, digest):
    result = invoke("params", "--eps", "1/128", *options.split())
    assert result.exit_code == code, (result.output, result.exception)
    assert hashlib.sha256(result.stdout_bytes).hexdigest()[:16] == digest


# The same for `homlab hom --eps 1/4` on `homlab --seed 11 construct --kind gnp --n 40`.
@pytest.mark.parametrize("mode, digest", [("density", "6cf7512d1cb02e8a"),
                                          ("degree", "19b545d2002a3e8b")])
def test_hom_eps_output_is_pinned(tmp_path, mode, digest):
    path = tmp_path / "g.txt"
    assert invoke("--seed", "11", "--out", str(path), "construct", "--kind", "gnp",
                  "--n", "40").exit_code == 0
    result = invoke("hom", str(path), "--eps", "1/4", "--mode", mode)
    assert result.exit_code == 0, (result.output, result.exception)
    assert hashlib.sha256(result.stdout_bytes).hexdigest()[:16] == digest


def _run_cli(*args, preexec_fn=None):
    """``homlab`` in a fresh process, so a hang fails on the timeout instead of
    stalling the suite; returns the result and its wall time.  ``preexec_fn``
    runs in the child before it starts, to set its resource limits."""
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}  # one BLAS thread: its buffers count against RLIMIT_AS
    start = time.monotonic()
    result = subprocess.run([sys.executable, "-m", "homlab.cli", *args], capture_output=True,
                            text=True, timeout=10, env=env, preexec_fn=preexec_fn)
    return result, time.monotonic() - start


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))


def test_memory_exhaustion_exits_3_with_one_error_line():
    # the draw-cap G(n, 1/2) needs more than 300 MB of address space
    result, _ = _run_cli("construct", "--kind", "gnp", "--n", "5793",
                         preexec_fn=_limit_address_space)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG


@pytest.mark.parametrize(
    "text, options",
    [("5793 8000000\n0 1\n0 2\n", ["--eps", "1/4"]),  # n above the eps search's 1000
     ("201 1\n0 1\n", [])],  # n above the exact search's 200
)
def test_hom_refuses_on_the_header_before_the_edge_lines(tmp_path, text, options):
    # the first file's edge count does not match its header: a reader that got
    # past the header would exit 2, so exit 3 shows the cap was checked first
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    result, seconds = _run_cli("hom", str(graph), *options)
    assert result.returncode == 3, result.stderr
    assert "capped at n=" in result.stderr
    assert seconds < 0.5


@pytest.mark.parametrize(
    "command, text",
    [(["containers", "verify", "--eps", "1/2", "--u", "4", "--k", "8"], "17 100000\n0 1\n"),
     (["containers", "verify", "--eps", "1/2", "--u", "4", "--k", "8"], "3 17 100000\n0 1 2\n"),
     (["tournament", "dist"], "21\n" + "01" * 10 + "0\n")],
    ids=["containers-verify-graph", "containers-verify-hypergraph", "tournament-dist"],
)
def test_capped_commands_refuse_on_the_header_before_the_rows(tmp_path, command, text):
    # no body matches its header (n = 17 with 1 of 100000 edge lines, n = 21
    # with 1 of 21 rows): a reader that got past the header would exit 2, so
    # exit 3 shows the command's cap was checked first
    path = tmp_path / "input.txt"
    path.write_text(text)
    result, seconds = _run_cli(*command, str(path))
    assert result.returncode == 3, result.stderr
    assert "cap" in result.stderr
    assert seconds < 0.5


# Runs the command line argv[1:] as a child and prints its exit code and the
# children's peak RSS in KiB (ru_maxrss on Linux).
_PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _exit_code_and_peak_kib(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(homlab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "homlab.cli",
                           *args], capture_output=True, text=True, timeout=20, env=env, check=True)
    code, peak = done.stdout.split()
    return int(code), int(peak)


def test_refusing_a_large_file_costs_only_its_header(tmp_path):
    # the same refusal of n = 5793 on a 3-line file and on one with a 22 MB
    # body: the reader stops at the header, so the body adds nothing to the peak
    small, large = tmp_path / "small.txt", tmp_path / "large.txt"
    small.write_text("5793 2\n0 1\n0 2\n")
    with open(large, "w") as fh:
        fh.write("5793 5500000\n")
        for _ in range(55):
            fh.write("0 1\n" * 100_000)
    assert large.stat().st_size > 20 << 20
    (small_code, small_kib), (large_code, large_kib) = (
        _exit_code_and_peak_kib("hom", str(path), "--eps", "1/4") for path in (small, large))
    assert small_code == large_code == 3
    assert large_kib - small_kib < 10 << 10, (small_kib, large_kib)


@pytest.mark.parametrize(
    "command",
    [["hom"], ["containers", "verify", "--eps", "1/2", "--u", "4", "--k", "5"],
     ["tournament", "dist"], ["experiment", "run"]],
    ids=["hom", "containers-verify", "tournament-dist", "experiment-run"],
)
def test_an_undecodable_file_exits_2_with_one_error_line(tmp_path, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\n")
    result = invoke(*command, str(path))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot read {path}: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("text", ["3 1\n0 \u0661\n", "0_3 1\n0 1\n"], ids=["digit", "underscore"])
def test_hom_refuses_a_token_int_alone_would_read(tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    result = invoke("hom", str(path))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.stdout == ""
    assert result.stderr.startswith("error: malformed graph file: invalid literal for int()")


def test_failed_out_write_leaves_the_old_file_whole(tmp_path):
    old = tmp_path / "old.txt"
    old.write_bytes(b"old bytes\n")
    result, _ = _run_cli("--out", str(old), "construct", "--kind", "gnp", "--n", "200",
                         preexec_fn=_limit_file_size)
    assert result.returncode == 2, result.stderr
    assert old.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["old.txt"]  # no temporary file left behind


def test_out_writes_a_path_that_is_no_regular_file_in_place():
    # /dev/stdout is the pipe to this test, which a file moved into place would miss
    result, _ = _run_cli("--seed", "1", "--out", "/dev/stdout", "construct", "--kind", "gnp",
                         "--n", "4")
    assert result.returncode == 0, result.stderr
    assert result.stdout == write_graph(gnp(4, Fraction(1, 2), 1))


def test_out_writes_through_a_symlink(tmp_path):
    (tmp_path / "g.txt").write_text("old\n")
    (tmp_path / "link.txt").symlink_to("g.txt")
    assert invoke("--seed", "1", "--out", str(tmp_path / "link.txt"), "construct", "--kind",
                  "gnp", "--n", "4").exit_code == 0
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "g.txt").read_text() == write_graph(gnp(4, Fraction(1, 2), 1))


@pytest.mark.parametrize("p", ["1e999999999", "1e-999999999", "1e9_999_999_99", "1" * 2000])
def test_construct_refuses_a_huge_rational_at_once(p):
    result, seconds = _run_cli("construct", "--kind", "gnp", "--n", "5", "--p", p)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert seconds < 2


def test_experiment_config_with_a_huge_rational_exits_2_at_once(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "eps-homog-curve", "grid": {"p": "1e999999999"}}))
    result, seconds = _run_cli("experiment", "run", str(cfg))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: grid key 'p'")
    assert seconds < 2


@pytest.mark.parametrize("text, value", [("1/128", Fraction(1, 128)), ("0.5", Fraction(1, 2)),
                                         ("1e-3", Fraction(1, 1000)), (" -2E+2 ", Fraction(-200)),
                                         ("1_000e1_0", Fraction(10**13)),
                                         ("1e1000", Fraction(10**1000))])
def test_rationals_parse_to_their_fraction(text, value):
    assert _rational(text) == value == Fraction(text)


@pytest.mark.parametrize("text", ["1/0", "abc", "1e", "1e1001", "0." + "0" * 1000 + "1"])
def test_unreadable_or_oversized_rationals_are_input_errors(text):
    with pytest.raises(InputError):
        _rational(text)


def test_params_decides_a_tiny_epsilon_within_seconds():
    result, seconds = _run_cli("params", "--eps", "1e-50")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert [c["passed"] for c in doc["chain"]] == [True] * 4
    assert seconds < 2


@pytest.mark.parametrize("variant", ["graph", "uniform", "tournament"])
@pytest.mark.parametrize("eps", ["1e-25", "1e-50", "1e-300"])
def test_params_at_a_tiny_epsilon_finishes(variant, eps):
    # at 128 bits (1-eps)^ell has a binary exponent far past 2^20; for the
    # tournament variant it lies below 2^(-10^27) at any precision
    result, seconds = _run_cli("params", "--variant", variant, "--eps", eps)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["all_passed"]
    assert (doc["chain"][0]["lhs"] == "(1-eps)^ell = ~0") == (variant == "tournament")
    assert seconds < 5


# Full SHA-256 of `homlab params` stdout at the rational parser's exponent limit
# and at the largest pattern order, pinned from the tree that formed every
# power of the chain exactly (h = 4096 and 16384 print alike: both powers are ~0).
@pytest.mark.parametrize("args, digest", [
    ("--eps 1e-1000", "768301b23715db807be29524b32225b8bd830d789d8ee271a545feeb643f5b1d"),
    ("--variant uniform --eps 1e-1000",
     "faa62e860d0f7a393a2863adb51a48ad96b1f8d984d60ba34eea296ffe3160f6"),
    ("--variant tournament --eps 1e-1000",
     "f63bf574cd1f032c27be00ebc0ee72e6d29cf31179b0521479b2d04467cf1038"),
    ("--eps 1e-300 --h 4096", "2f4002e23515c80f67bcc4bb19966f1a42d558dc529ffe18b4959baf2a815c89"),
    ("--eps 1e-300 --h 16384", "2f4002e23515c80f67bcc4bb19966f1a42d558dc529ffe18b4959baf2a815c89"),
], ids=["graph", "uniform", "tournament", "h4096", "h16384"])
def test_params_at_extreme_inputs_is_pinned_and_fast(args, digest):
    result, seconds = _run_cli("params", *args.split())
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
    assert seconds < 2


def test_params_prints_a_value_beyond_the_float_range():
    # 15t/k = 15 k^(3/2) is about 10^471
    result, _ = _run_cli("params", "--eps", "1e-300", "--f", "5/2")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    with mpmath.workdps(40):
        expected = mpmath.nstr(mpmath.mpf(15 * doc["t"]) / doc["k"], 12)
    assert expected == "4.60954345036e+471"
    assert doc["chain"][2]["rhs"] == f"15t/k = ~{expected}"


def test_params_with_too_many_digits_exits_3():
    # 1/delta = 16 k^19 and t = k^20 have about 5900 and 6200 digits
    result, seconds = _run_cli("params", "--eps", "1e-300", "--f", "20", "--no-check")
    assert result.returncode == 3, result.stderr
    assert result.stderr == "error: 1/delta or t has more than 4300 digits\n"
    assert seconds < 2


def test_an_unknown_option_before_the_command_is_named():
    result = invoke("--se", "1", "construct", "--kind", "gnp", "--n", "5")
    assert result.exit_code == 2
    assert "unrecognized arguments: --se" in result.stderr
    assert "invalid choice" not in result.stderr


def test_hom_eps_above_the_cap_exits_3_at_once(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("16384 0\n")
    result, seconds = _run_cli("hom", str(path), "--eps", "1/4")
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ")
    assert seconds < 2


def test_construct_multipartite_above_the_cap_exits_3_at_once():
    result, seconds = _run_cli("construct", "--kind", "multipartite", "--n", "20000")
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ")
    assert seconds < 2


def test_construct_cograph_above_the_cap_exits_3_at_once():
    result, seconds = _run_cli("construct", "--kind", "cograph", "--n", "8000")
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ")
    assert seconds < 2


@pytest.mark.parametrize("options, code", [
    ("--u 20000 --k 10000", 3),  # a bound of 6019 digits, formed and refused
    ("--u 100000000 --k 50000000", 3),  # refused before C(10^8, 5*10^7) is formed
    ("--u 5000 --k 2500", 0),  # a bound of 1503 digits, printed
])
def test_containers_verify_refuses_a_bound_too_long_to_print(tmp_path, options, code):
    path = tmp_path / "g.txt"
    path.write_text("3 0\n")
    result, seconds = _run_cli("containers", "verify", str(path), "--eps", "1/2", *options.split())
    assert result.returncode == code, result.stderr
    assert code == 0 or result.stderr.startswith("error: ")
    assert seconds < 2


@pytest.mark.parametrize("document", [
    {"kind": "graph-container-exhaustive", "grid": {"n": 3, "u": [20000], "k": [10000]}},
    {"kind": "eps-homog-curve", "grid": {"n": 5000}},
    {"kind": "eps-homog-curve", "generator": {"kind": "cograph"}, "grid": {"n": 5000}},
], ids=["unprintable-bound", "eps-curve-gnp-above-1000", "eps-curve-cograph-above-1000"])
def test_experiment_above_a_cap_is_a_capability_row_at_once(tmp_path, document):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    result, seconds = _run_cli("experiment", "run", str(cfg))
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header == "experiment,instance_id,seed,error,verdict"
    assert len(rows) == 1 and rows[0].endswith(",error:capability")
    assert seconds < 2


# The first 16 hex digits of the SHA-256 of `homlab containers verify` on
# seeded inputs, pinned across commits: the precondition's verdict and first
# witness, the count and the bound all show here.
@pytest.mark.parametrize(
    "structure, options, digest",
    [
        ("graph 12 1/2 1", "--eps 1/2 --u 4 --k 5", "7a1e2fa4f7f7c727"),  # witness [0, 4, 10, 11]
        ("graph 14 7/10 2", "--eps 1/4 --u 6 --k 6", "8e74c2375a5c4eec"),
        ("3 10 4/5 4", "--eps 1/3 --u 6 --k 6", "848db7a7e749cb2f"),  # witness [0, 1, 3, 4, 5, 6, 9]
        ("3 10 4/5 4", "--eps 1/4 --u 6 --k 8", "c76e959675836b21"),
    ],
)
def test_containers_verify_output_is_pinned(tmp_path, structure, options, digest):
    kind, n, p, seed = structure.split()
    path = tmp_path / "s.txt"
    if kind == "graph":
        path.write_text(write_graph(gnp(int(n), Fraction(p), int(seed))))
    else:
        path.write_text(write_hypergraph(
            random_uniform_hypergraph(int(kind), int(n), Fraction(p), int(seed))))
    result = invoke("containers", "verify", str(path), *options.split())
    assert result.exit_code == 0, (result.output, result.exception)
    assert hashlib.sha256(result.stdout_bytes).hexdigest()[:16] == digest


# The first 16 hex digits of the SHA-256 of `homlab tournament dist` on the
# output of `homlab --seed 11 construct --kind tournament --n N`, pinned across
# commits: the printed ordering, and with it the DP's lowest-v tie rule, shows here.
@pytest.mark.parametrize("n, digest", [(8, "9d6f631950e09bf1"), (12, "b9c85419676a75e7"),
                                       (16, "31b0e8e7b56a4e75")])
def test_tournament_dist_output_is_pinned(tmp_path, n, digest):
    path = tmp_path / "t.txt"
    assert invoke("--seed", "11", "--out", str(path), "construct", "--kind", "tournament",
                  "--n", str(n)).exit_code == 0
    result = invoke("tournament", "dist", str(path))
    assert result.exit_code == 0, (result.output, result.exception)
    assert hashlib.sha256(result.stdout_bytes).hexdigest()[:16] == digest


def test_triangle_scan_report_is_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "triangle-scan", "grid": {"m": 9, "samples": 20},
                               "seeds": [0, 1]}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0, (result.output, result.exception)
    assert hashlib.sha256(result.stdout_bytes).hexdigest()[:16] == "75be2ce6bd8c10b2"


def test_triangle_scan_above_the_state_cap_is_a_capability_row_at_once(tmp_path):
    cfg = tmp_path / "cfg.json"  # 10^9 samples of 2^12 DP states, never drawn
    cfg.write_text(json.dumps({"kind": "triangle-scan", "grid": {"m": 12, "samples": 10**9}}))
    result, seconds = _run_cli("experiment", "run", str(cfg))
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(",error:capability")
    assert seconds < 2


@pytest.mark.parametrize("m", [0, 1, 2])
def test_triangle_scan_without_triangles_leaves_the_ratios_empty(tmp_path, m):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "triangle-scan", "grid": {"m": m, "samples": 3}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0, (result.output, result.exception)
    header, *rows = result.output.splitlines()
    assert header == "experiment,instance_id,m,seed,triangles,dist,ratio,worst_ratio,verdict"
    assert rows == [f"triangle-scan,m{m}-s0-i{i},{m},0,0,0,,,ok" for i in range(3)] + [
        f"triangle-scan,m{m}-s0-summary,{m},0,,,,,ok"]


@pytest.mark.parametrize("h, code", [("0", 2), ("-3", 2), ("16385", 3), ("1000000", 3)])
def test_params_pattern_order_outside_1_to_2_14_exits_at_once(h, code):
    result, seconds = _run_cli("params", "--eps", "1/128", "--h", h)
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith("error: pattern order h")
    assert seconds < 2


@pytest.mark.parametrize("h, code", [("1", 1), ("2", 0), ("16384", 0)])
def test_params_pattern_order_inside_the_range_runs_the_chain(h, code):
    result = invoke("params", "--eps", "1/128", "--h", h)
    assert result.exit_code == code, (result.output, result.exception)
    assert len(json.loads(result.stdout)["chain"]) == 4


@pytest.mark.parametrize("eps", ["-1/2", "-1", "3/2"])
def test_hom_eps_outside_0_to_1_exits_2_at_once(tmp_path, eps):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 1\n")
    result, seconds = _run_cli("hom", str(path), "--eps", eps)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: eps must lie in [0, 1]")
    assert seconds < 2


@pytest.mark.parametrize("document", [
    {"kind": "eps-homog-curve", "grid": {"n": 10, "eps": ["-1/2"]}},
    {"kind": "graph-container-exhaustive", "grid": {"n": -1}},
], ids=["eps-homog-curve-negative-eps", "graph-container-exhaustive-negative-n"])
def test_experiment_out_of_range_grid_values_exit_2_at_once(tmp_path, document):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    result, seconds = _run_cli("experiment", "run", str(cfg))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert seconds < 2


@pytest.mark.parametrize("document, key", [
    ({"kind": "eps-homog-curve", "generator": {"kind": "gnp"}, "grid": {"n": 0}}, "n"),
    ({"kind": "eps-homog-curve", "grid": {"n": 10, "eps": ["0"]}}, "eps"),
], ids=["gnp-at-n0", "eps-0"])
def test_eps_homog_curve_without_a_positive_n_or_eps_exits_2(tmp_path, document, key):
    # size_over_eps_n divides by eps * n
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output.startswith(f"error: grid key {key!r}")


def test_experiment_exhaustive_at_n0_is_an_empty_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "graph-container-exhaustive", "grid": {"n": 0}}))
    result = invoke("experiment", "run", str(cfg))
    assert result.exit_code == 0, (result.output, result.exception)
    assert result.output == "experiment,instance_id,verdict\n"
