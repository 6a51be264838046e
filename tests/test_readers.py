"""The exact error of each text reader on each file with one fault: every
such file that test_graphs, test_tournaments and the golden CLI corpus use,
and one per remaining message.  Each text is the one the readers gave when
they still read a whole string; streaming the lines changed none of them.

Two rules are the stream's own: in a file with two line faults the first in
file order wins, and a line ends only at "\\n", "\\r\\n" or "\\r"."""

import io

import pytest

from homlab.containers import _check_exhaustive
from homlab.errors import CapabilityError, InputError
from homlab.graphs import Graph, UniformHypergraph, read_graph, read_hypergraph
from homlab.homogeneous import _check_eps_search_size, _check_exact_size
from homlab.tournaments import Tournament, _check_dp_size, read_tournament

FAULTS = [
    # test_graphs
    (read_graph, "not a graph\n", None, InputError,
     "malformed graph file: invalid literal for int() with base 10: 'not'"),
    (read_graph, "2 1\n0 1 2\n", None, InputError,
     "edge line must be two integers u < v, got (0, 1, 2)"),
    (read_graph, "3 2\n0 1\n0 1\n", None, InputError, "duplicate edge line"),
    (read_graph, "3 1\n0 1\n1 2\n", None, InputError, "expected 1 edge lines, found 2"),
    (read_graph, "-5 0\n", None, InputError, "need exactly n=-5 adjacency rows"),
    (read_graph, "-99999999999999999999990 0\n", None, InputError,
     "need exactly n=-99999999999999999999990 adjacency rows"),
    (read_hypergraph, "3 4 1\n0 1\n", None, InputError,
     "edge line must be 3 strictly ascending integers, got (0, 1)"),
    (read_hypergraph, "3 4 1\n0 1 2 3\n", None, InputError,
     "edge line must be 3 strictly ascending integers, got (0, 1, 2, 3)"),
    (read_hypergraph, "3 4 2\n0 1 2\n0 1 2\n", None, InputError, "duplicate edge line"),
    (read_hypergraph, "3 4 1\n0 1 2\n1 2 3\n", None, InputError, "expected 1 edge lines, found 2"),
    (read_hypergraph, "3 -1 0\n", None, InputError, "vertex count n=-1 is negative"),
    # test_tournaments
    (read_tournament, "3 4\n", None, InputError, "tournament header needs 1 integers, got 2"),
    (read_tournament, "x\n", None, InputError,
     "malformed tournament file: invalid literal for int() with base 10: 'x'"),
    (read_tournament, " \n\t\n", None, InputError, "empty tournament file"),
    (read_tournament, "16385\nnot a row\n", None, CapabilityError,
     "tournament header field 16385 exceeds 16384"),
    (read_tournament, "2\n01\n", None, InputError, "expected an n x n 0/1 matrix"),
    (read_tournament, "2\n0a\n10\n", None, InputError, "expected an n x n 0/1 matrix"),
    (read_tournament, "2\n01\n00\n10\n", None, InputError, "expected an n x n 0/1 matrix"),
    # the golden corpus, with the cap its command checks
    (read_graph, "3 1\n0 1 2\n", None, InputError,
     "edge line must be two integers u < v, got (0, 1, 2)"),
    (read_graph, "201 0\n", _check_exact_size, CapabilityError, "hom_exact capped at n=200, got 201"),
    (read_graph, "1001 0\n", _check_eps_search_size, CapabilityError,
     "eps-homogeneous search capped at n=1000, got 1001"),
    (read_graph, "17 0\n", _check_exhaustive, CapabilityError, "n=17 exceeds exhaustive cap 16"),
    (read_tournament, "3\n010\n001\n", None, InputError, "expected an n x n 0/1 matrix"),
    (read_tournament, "21\n", _check_dp_size, CapabilityError, "subset DP capped at n=20, got 21"),
    # every other message
    (read_graph, "", None, InputError, "empty graph file"),
    (read_graph, "3\n", None, InputError, "graph header needs 2 integers, got 1"),
    (read_graph, "16385 0\n", None, CapabilityError, "graph header field 16385 exceeds 16384"),
    (read_graph, "3 1\n0 3\n", None, InputError, "bad edge (0,3) for n=3"),
    (read_graph, "3 1\n-1 2\n", None, InputError, "bad edge (-1,2) for n=3"),
    (read_graph, "3 1\n2 1\n", None, InputError, "edge line must be two integers u < v, got (2, 1)"),
    (read_graph, "3 2\n0 1\n", None, InputError, "expected 2 edge lines, found 1"),
    (read_graph, "3 1\n0 x\n", None, InputError,
     "malformed graph file: invalid literal for int() with base 10: 'x'"),
    (read_graph, "-5 1\n0 1\n", None, InputError, "bad edge (0,1) for n=-5"),
    (read_graph, "3 1\n0 1\nx\n", None, InputError,  # a line past m is read before it is counted
     "malformed graph file: invalid literal for int() with base 10: 'x'"),
    (read_hypergraph, "3 4 1\n0 2 1\n", None, InputError,
     "edge line must be 3 strictly ascending integers, got (0, 2, 1)"),
    (read_hypergraph, "3 4 1\n0 1 4\n", None, InputError, "edge [0, 1, 4] outside [0,4)"),
    (read_hypergraph, "1 4 0\n", None, InputError, "uniformity r must be >= 2"),
    (read_hypergraph, "16385 4 0\n", None, CapabilityError,
     "hypergraph header field 16385 exceeds 16384"),
    (read_hypergraph, "3 17 0\n", _check_exhaustive, CapabilityError,
     "n=17 exceeds exhaustive cap 16"),
    (read_hypergraph, "3 4\n", None, InputError, "hypergraph header needs 3 integers, got 2"),
    (read_hypergraph, "3 4 1\n0 1 y\n", None, InputError,
     "malformed hypergraph file: invalid literal for int() with base 10: 'y'"),
    (read_tournament, "3\n010\n000\n010\n", None, InputError,
     "pair (0,2) must be oriented exactly one way"),
    (read_tournament, "2\n11\n00\n", None, InputError, "row 0 out of range or reflexive"),
    (read_tournament, "2\n010\n10\n", None, InputError, "expected an n x n 0/1 matrix"),
]

# Two line faults: the first in file order is the one named.
FIRST_FAULT_WINS = [
    (read_graph, "3 2\n0 1 2\nx y\n", None, InputError,
     "edge line must be two integers u < v, got (0, 1, 2)"),
    (read_graph, "3 1\n0 1\n1 2\nx\n", None, InputError, "expected 1 edge lines, found 3"),
    (read_hypergraph, "3 4 2\n0 1 4\n0 1 y\n", None, InputError, "edge [0, 1, 4] outside [0,4)"),
]

# Each integer token is ASCII [+-]?[0-9]+; int() alone would also read these.
MALFORMED = "malformed {} file: invalid literal for int() with base 10: {!r}"
STRICT_TOKENS = [
    (read_graph, "0_3 1\n0 1\n", None, InputError, MALFORMED.format("graph", "0_3")),
    (read_graph, "3 1\n0 \u0661\n", None, InputError, MALFORMED.format("graph", "\u0661")),
    (read_graph, "3 1\n0 \uff11\n", None, InputError, MALFORMED.format("graph", "\uff11")),
    (read_graph, "\ufeff2 1\n0 1\n", None, InputError, MALFORMED.format("graph", "\ufeff2")),
    (read_graph, "3 1\n\u0661 x\n", None, InputError, MALFORMED.format("graph", "\u0661")),
    (read_hypergraph, "3 4 1\n0 1_0 2\n", None, InputError,
     MALFORMED.format("hypergraph", "1_0")),
    (read_hypergraph, "3 \uff14 0\n", None, InputError, MALFORMED.format("hypergraph", "\uff14")),
    (read_hypergraph, "3 4 1\n0 1 \u0663\n", None, InputError,
     MALFORMED.format("hypergraph", "\u0663")),
    (read_tournament, "1_0\n", None, InputError, MALFORMED.format("tournament", "1_0")),
    (read_tournament, "\uff12\n01\n00\n", None, InputError,
     MALFORMED.format("tournament", "\uff12")),
    (read_tournament, "\ufeff2\n01\n00\n", None, InputError,
     MALFORMED.format("tournament", "\ufeff2")),
]

# A form feed ends no line (nor do "\v", "\x1c"-"\x1e", "\x85", "\u2028" and
# "\u2029", where str.splitlines would break), so this header holds four integers.
NON_BREAK = [
    (read_graph, "2 1\f0 1\n", None, InputError, "graph header needs 2 integers, got 4"),
]


def lines(text):
    """``text`` split into lines as an open text file splits them."""
    return io.StringIO(text, newline=None)


@pytest.mark.parametrize("reader, text, check_n, error, message",
                         FAULTS + FIRST_FAULT_WINS + STRICT_TOKENS + NON_BREAK)
def test_reader_names_the_fault(reader, text, check_n, error, message):
    with pytest.raises(error) as info:
        reader(lines(text), check_n)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_each_line_end_reads_the_same_structure(end):
    assert read_graph(lines(f"3 2{end}0 1{end}{end}1 2{end}")) == Graph(3, [0b010, 0b101, 0b010])
    assert read_hypergraph(lines(f"3 4 1{end}0 1 3{end}")) == UniformHypergraph(3, 4, [0b1011])
    assert read_tournament(lines(f"2{end}01{end}00{end}")) == Tournament(2, [0b10, 0b00])


def test_signs_leading_zeros_and_in_line_blanks_still_read():
    # "\x85" and "\u2028" end no line but do part tokens
    assert read_graph(lines("3 1\n+0 002\n")) == Graph(3, [0b100, 0b000, 0b001])
    assert read_graph(lines("2\x851\n0\u20281\n")) == Graph(2, [0b10, 0b01])
    assert read_hypergraph(lines("3 4 1\n0 +1 03\n")) == UniformHypergraph(3, 4, [0b1011])
    assert read_tournament(lines("+2\n01\n00\n")) == Tournament(2, [0b10, 0b00])
