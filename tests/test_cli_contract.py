"""The CLI contract, checked on generated argv: every call of `cli.main`
either writes JSON to stdout and exits 0, 2 or 3, or writes a JSON error to
stderr and exits 1.  It never raises.

Inputs stay small (graphs of at most 10 vertices, short vertex lists, small
counts) and carry no decimal exponents: `Fraction` parses a string such as
"1e999999999" by building the full integer, which does not finish.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings, strategies as st

from indsat.cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from indsat.constructions import FAMILIES
from indsat.graphs import Graph, emit_graph6

SCHEMA = json.loads(Path("src/indsat/schema.json").read_text())
MISSING_FILE = "no-such-directory/graphs.g6"


@st.composite
def small_graph6(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return emit_graph6(Graph.from_edges(n, edges))


# graph6 bytes plus characters outside its range; no digits, so random text
# never spells a large named graph such as K9999.
_JUNK = st.text(alphabet=st.sampled_from("?@ABCKPW_`o~{}!\"#*é \n"), max_size=6)

# Valid values are drawn more often than malformed ones, so that most argv
# get past parsing to the command itself.
GRAPH_SPECS = st.one_of(
    small_graph6(), small_graph6(),
    st.builds(lambda kind, n: f"{kind}{n}", st.sampled_from("PCK"), st.integers(0, 10)),
    st.sampled_from(["bull", "icosahedron_complement", "", "-x", ">>graph6<<Bw"]),
    _JUNK)

# A few fixed rationals, in the spellings JSON and Fraction accept.
_NUMBERS = st.one_of(st.integers(-5, 5), st.sampled_from([0.5, 1.7, -2.25, 1e400]))
_STRINGS = st.text(alphabet=st.sampled_from("0123456789/-. x"), max_size=5)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["kind", "vertices", "tag", "p"]), inner, max_size=3),
    max_leaves=12)

ORACLE_KINDS = st.sampled_from(["torero", "up_right", "rational_geometric", "z3_agree",
                                "grid_clique:2", "grid_clique:0", "grid_clique:x",
                                "grid_clique:1:2", "bogus"])
_RATIONALS = st.one_of(st.integers(-1, 2), st.builds(
    lambda a, b: f"{a}/{a + b}", st.integers(1, 5), st.integers(1, 5)))
_INTS = st.integers(-2, 2)


def _window(kind, vertex):
    return st.lists(vertex, min_size=2, max_size=6, unique_by=json.dumps).map(
        lambda vertices: ["oracle", "--kind", kind, "--vertices", json.dumps(vertices)])


# Vertex lists in each kind's format, with an occasional float or boolean.
ORACLE_WINDOWS = st.one_of(
    _window("torero", _RATIONALS), _window("rational_geometric", _RATIONALS),
    _window("up_right", st.lists(_RATIONALS, min_size=2, max_size=2)),
    _window("grid_clique:2", st.lists(_INTS | st.just(1.5), min_size=2, max_size=2)),
    _window("z3_agree", st.tuples(st.lists(_INTS, min_size=3, max_size=3),
                                  st.integers(0, 2) | st.just(True))))
ORACLE_SPECS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.builds(lambda tag, p, vertices: json.dumps(
        {"kind": {"tag": tag, "p": p}, "vertices": vertices}),
        st.sampled_from(["torero", "grid_clique", "z3_agree", "up_right"]),
        st.one_of(st.integers(-1, 3), st.booleans(), st.just(1.5)),
        st.lists(JSON_VALUES, max_size=5)),
    st.sampled_from(["", "[", "{\"vertices\": []}", MISSING_FILE]))

COUNTS = st.one_of(st.integers(0, 3).map(str), st.integers(0, 3).map(str),
                   st.integers(0, 3).map(str), st.sampled_from(["-1", "x", "1.5", ""]))
PAIRS = st.one_of(
    st.builds(lambda u, v: f"{u},{v}", st.integers(0, 4), st.integers(0, 4)),
    st.builds(lambda u, v: f"{u},{v}", st.integers(-1, 11), st.integers(-1, 11)),
    st.sampled_from(["", "0", "0,1,2", "a,b", "0;1", " 0 , 1 "]))


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda chunks: [command] + sum(chunks, []))


ARGV = st.one_of(
    _argv("classify", st.one_of(GRAPH_SPECS.map(lambda s: ["--g6", s]),
                                st.just(["--input", MISSING_FILE]))),
    _argv("cores", GRAPH_SPECS.map(lambda s: ["--g6", s]),
          _opt("--kind", st.sampled_from(["two", "three", "one_one", "three_star",
                                          "two_edge", "two_nonedge", "kl:1,2",
                                          "kl:-1,0", "kl:x", "kl:1", "bogus"]))),
    _argv("gatekeepers", GRAPH_SPECS.map(lambda s: ["--g6", s])),
    _argv("verify", GRAPH_SPECS.map(lambda s: ["--g6", s]),
          GRAPH_SPECS.map(lambda s: ["--h", s]), _opt("--pair", PAIRS),
          _opt("--k", COUNTS), _opt("--trials", COUNTS), _opt("--seed", COUNTS)),
    st.builds(lambda seed, h, family, m, steps: [
        "prefix", "--g6", seed, "--h", h, "--strategy", family, "--m", m,
        "--steps", steps],
        st.sampled_from(["P2", "P3", "P4"]) | small_graph6(max_n=4),
        st.sampled_from(["P4", "C5", "Dr[", "D]o", "D}o", "bull"]) | small_graph6(max_n=6),
        st.sampled_from(FAMILIES), st.integers(1, 3).map(str),
        st.integers(0, 3).map(str)),
    _argv("prefix", GRAPH_SPECS.map(lambda s: ["--g6", s]),
          GRAPH_SPECS.map(lambda s: ["--h", s]), _opt("--steps", COUNTS),
          _opt("--m", COUNTS),
          _opt("--strategy", st.sampled_from([*FAMILIES, "bogus"]))),
    ORACLE_WINDOWS,
    _argv("oracle", _opt("--kind", ORACLE_KINDS), ORACLE_SPECS.map(
        lambda s: ["--vertices", s])),
    st.just(["classify", "--out", "no-such-directory/out.json", "--g6", "P4"]))


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == EXIT_USAGE:
        assert out == ""
        assert set(json.loads(err)) == {"error"}
    else:
        assert code in (EXIT_OK, EXIT_INCOMPLETE, EXIT_VERIFY_FAILED), code
        assert err == ""
        jsonschema.validate(json.loads(out), SCHEMA)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_every_call_writes_json_or_a_json_error(argv):
    check_contract(argv)


@settings(max_examples=60, deadline=None)
@given(st.lists(GRAPH_SPECS, max_size=4))
def test_batch_classify_writes_json_or_a_json_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "graphs.g6"
        f.write_text("\n".join(lines))
        check_contract(["classify", "--input", str(f)])
