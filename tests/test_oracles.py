import ast
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from indsat import oracles
from indsat.graphs import find_induced, path_graph
from indsat.oracles import (RATIONAL_GEOMETRIC_KIND,
                            TORERO_KIND, UP_RIGHT_KIND, Z3_AGREE_KIND,
                            compare_to_pi, fraction_to_str, grid_clique,
                            kind_from_flag, kind_from_json, oracle_adjacent,
                            oracle_window, pi_bounds,
                            vertex_from_json, vertex_to_json)
from oracles_naive import naive_oracle_adjacent, naive_oracle_window

mpmath.mp.dps = 60
_PI = mpmath.pi


def _frac(a, b=1):
    return Fraction(a, b)


ALL_KINDS = (TORERO_KIND, UP_RIGHT_KIND, RATIONAL_GEOMETRIC_KIND, grid_clique(2),
             grid_clique(3), Z3_AGREE_KIND)


def _vertices(kind):
    """A hypothesis strategy for the vertices of `kind`."""
    rational = st.fractions(min_value=-10, max_value=10, max_denominator=50)
    coordinate = st.integers(-3, 3)
    if kind == TORERO_KIND:
        return st.fractions(min_value=0, max_value=1, max_denominator=50).filter(
            lambda q: 0 < q < 1)
    if kind == UP_RIGHT_KIND:
        return st.tuples(rational, rational)
    if kind == RATIONAL_GEOMETRIC_KIND:
        return rational
    if kind == Z3_AGREE_KIND:
        return st.tuples(st.tuples(coordinate, coordinate, coordinate), st.integers(0, 2))
    return st.tuples(*[coordinate] * kind.p)


_DISTINCT_PAIRS = st.one_of(
    *[st.tuples(st.just(kind), _vertices(kind), _vertices(kind)) for kind in ALL_KINDS]
).filter(lambda pair: pair[1] != pair[2])


class TestPi:
    def test_bounds_bracket_pi(self):
        # Depth 6 is about 180 digits; compare well above that precision.
        with mpmath.workdps(300):
            for depth in range(7):
                lo, hi = pi_bounds(depth)
                assert mpmath.mpf(lo.numerator) / lo.denominator < mpmath.pi
                assert mpmath.mpf(hi.numerator) / hi.denominator > mpmath.pi

    def test_bounds_nest(self):
        lo0, hi0 = pi_bounds(0)
        lo1, hi1 = pi_bounds(1)
        assert lo0 <= lo1 < hi1 <= hi0
        assert Fraction(333, 106) in (lo1, hi1) or lo1 >= Fraction(333, 106)

    def test_compare_examples(self):
        assert compare_to_pi(_frac(3)) == -1
        assert compare_to_pi(_frac(4)) == 1
        assert compare_to_pi(Fraction(355, 113)) == 1
        assert compare_to_pi(Fraction(333, 106)) == -1
        assert compare_to_pi(Fraction(103993, 33102)) == -1

    @given(st.fractions(min_value=0, max_value=10))
    @settings(max_examples=300, deadline=None)
    def test_compare_against_mpmath(self, q):
        want = -1 if mpmath.mpf(q.numerator) / q.denominator < _PI else 1
        assert compare_to_pi(q) == want


class TestAdjacency:
    def test_up_right_examples(self):
        z = (_frac(0), _frac(0))
        assert oracle_adjacent(UP_RIGHT_KIND, z, (_frac(1), _frac(0)))
        assert not oracle_adjacent(UP_RIGHT_KIND, z, (_frac(0), _frac(1)))

    def test_rational_geometric_examples(self):
        assert oracle_adjacent(RATIONAL_GEOMETRIC_KIND, _frac(0), _frac(3))
        assert not oracle_adjacent(RATIONAL_GEOMETRIC_KIND, _frac(0), _frac(4))

    def test_z3_examples(self):
        a = ((0, 1, 3), 0)
        assert oracle_adjacent(Z3_AGREE_KIND, a, ((0, 1, 1), 0))
        assert not oracle_adjacent(Z3_AGREE_KIND, a, ((3, 0, 2), 0))
        # Clones of the same point are adjacent.
        assert oracle_adjacent(Z3_AGREE_KIND, ((1, 0, 1), 0), ((1, 0, 1), 1))

    def test_grid_examples(self):
        k = grid_clique(2)
        assert oracle_adjacent(k, (0, 0), (5, 0))
        assert not oracle_adjacent(k, (0, 0), (1, 1))

    def test_torero(self):
        assert oracle_adjacent(TORERO_KIND, _frac(3, 5), _frac(1, 2))
        assert not oracle_adjacent(TORERO_KIND, _frac(2, 5), _frac(1, 2))

    def test_kind_checking(self):
        with pytest.raises(ValueError):
            oracle_adjacent(TORERO_KIND, _frac(3, 2), _frac(1, 2))  # outside (0,1)
        with pytest.raises(ValueError):
            oracle_adjacent(UP_RIGHT_KIND, _frac(1, 2), _frac(1, 3))
        with pytest.raises(ValueError):
            oracle_adjacent(TORERO_KIND, _frac(1, 2), _frac(1, 2))  # not distinct

    def test_up_right_seeded_pairs_match_reference(self):
        # Every 5th pair shares its second coordinate (b = 0: adjacent) and
        # every 7th its first (a = 0: not adjacent).
        rng = random.Random(5)
        draw = lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        for i in range(500):
            u, v = (draw(), draw()), (draw(), draw())
            if i % 5 == 0:
                v = (v[0], u[1])
            if i % 7 == 0:
                v = (u[0], v[1])
            if u == v:
                continue
            assert oracle_adjacent(UP_RIGHT_KIND, u, v) == \
                naive_oracle_adjacent(UP_RIGHT_KIND, u, v), (u, v)

    @given(_DISTINCT_PAIRS)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_equal_to_reference(self, pair):
        kind, u, v = pair
        forward = oracle_adjacent(kind, u, v)
        assert forward == oracle_adjacent(kind, v, u)
        assert forward == naive_oracle_adjacent(kind, u, v)


class TestWindows:
    def test_torero_window_p4_free_seeded(self):
        from indsat.verifier import sample_window
        rng = random.Random(424)
        p4 = path_graph(4)
        for _ in range(200):
            vals = sample_window(TORERO_KIND, rng.randint(2, 10), rng)
            window, _ = oracle_window(TORERO_KIND, vals)
            assert find_induced(window, p4) is None

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            oracle_window(TORERO_KIND, [_frac(1, 2), _frac(1, 2)])

    @pytest.mark.parametrize("kind, vertex", [(TORERO_KIND, _frac(5)),
                                              (grid_clique(2), (1,))])
    def test_one_vertex_window_is_checked(self, kind, vertex):
        # No pair is decided, so only the window itself can reject the vertex.
        with pytest.raises(ValueError):
            oracle_window(kind, [vertex])

    @pytest.mark.parametrize("kind, vertex, message", [
        (RATIONAL_GEOMETRIC_KIND, 1.5, "rational-geometric vertex must be a rational"),
        (RATIONAL_GEOMETRIC_KIND, "1/2", "rational-geometric vertex must be a rational"),
        (Z3_AGREE_KIND, ((0, 0, 0), -1), r"z3 vertex must be \(\(i,j,k\), clone>=0\)"),
        (Z3_AGREE_KIND, ((0, 0), 0), r"z3 vertex must be \(\(i,j,k\), clone>=0\)")])
    def test_window_names_the_vertex_form(self, kind, vertex, message):
        with pytest.raises(ValueError, match=message):
            oracle_window(kind, [vertex])

    def test_up_right_window_is_permutation_graph_seeded(self):
        from indsat.recognizers import is_permutation_graph
        from indsat.verifier import sample_window
        rng = random.Random(77)
        for _ in range(60):
            vals = sample_window(UP_RIGHT_KIND, rng.randint(2, 8), rng)
            window, _ = oracle_window(UP_RIGHT_KIND, vals)
            assert is_permutation_graph(window) is not None


# Convergents of pi and of sqrt(2), and the enclosures of pi that window pairs meet.
PI_NEIGHBORS = [Fraction(22, 7), Fraction(333, 106), Fraction(355, 113),
                Fraction(103993, 33102), *pi_bounds(0), *pi_bounds(1)]
SQRT2_NEIGHBORS = [Fraction(99, 70), Fraction(140, 99), Fraction(577, 408),
                   Fraction(665857, 470832)]


def _construct_verify_mix(seed):
    """Windows drawn the way the construct-verify benchmark draws them:
    sizes 2-10 in turn, 504 per kind."""
    from indsat.verifier import sample_window
    rng = random.Random(seed)
    return [(kind, sample_window(kind, 2 + i % 9, rng))
            for kind in ALL_KINDS for i in range(504)]


def _assert_same_as_naive(kind, vertices):
    window, labels = oracle_window(kind, vertices)
    assert labels == tuple(vertices)
    assert window == naive_oracle_window(kind, list(vertices)), (kind, vertices)


def _coprime_denominators(count, digits):
    """`count` pairwise-coprime integers of `digits` digits, found greedily."""
    out, product, c = [], 1, 10 ** (digits - 1)
    while len(out) < count:
        c += 1
        if math.gcd(c, product) == 1:
            out.append(c)
            product *= c
    return out


class TestWindowDifferential:
    """`oracle_window` decides pairs on integers; `naive_oracle_window` decides
    each pair from its construction, with pi and sqrt(2) from mpmath."""

    def test_construct_verify_mix(self):
        for kind, vertices in _construct_verify_mix(2016):
            _assert_same_as_naive(kind, vertices)

    def test_torero_sums_at_one(self):
        rng = random.Random(3)
        for _ in range(200):
            halves = {Fraction(rng.randint(1, d - 1), d) for d in rng.sample(range(2, 40), 4)}
            vertices = sorted(halves | {1 - q for q in halves})
            _assert_same_as_naive(TORERO_KIND, vertices)

    def test_rational_geometric_differences_next_to_pi(self):
        rng = random.Random(11)
        for _ in range(300):
            base = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
            vertices = {base}
            for c in rng.sample(PI_NEIGHBORS, 3):
                vertices |= {base + c, base - c, base + c + Fraction(1, 10 ** 9)}
            _assert_same_as_naive(RATIONAL_GEOMETRIC_KIND, sorted(vertices))

    def test_up_right_slopes_next_to_sqrt2(self):
        rng = random.Random(13)
        for _ in range(300):
            q0 = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            r0 = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            vertices = {(q0, r0)}
            for slope in rng.sample(SQRT2_NEIGHBORS, 2):
                step = Fraction(rng.randint(1, 20), rng.randint(1, 20))
                # Differences a, b with a/b next to sqrt(2), in all four signs.
                for sq, sr in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    vertices.add((q0 + sq * slope.numerator * step,
                                  r0 + sr * slope.denominator * step))
            _assert_same_as_naive(UP_RIGHT_KIND, sorted(vertices))

    def test_up_right_equal_coordinates(self):
        rng = random.Random(17)
        for _ in range(300):
            qs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            rs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            vertices = {(q, r) for q in qs for r in rs}
            _assert_same_as_naive(UP_RIGHT_KIND, sorted(vertices))

    def test_thirty_digit_denominators(self):
        rng = random.Random(19)
        big = lambda: rng.randint(10 ** 29, 10 ** 30)
        for _ in range(100):
            size = rng.randint(2, 10)
            torero = {Fraction(rng.randint(1, d - 1), d) for d in (big() for _ in range(size))}
            geometric = {Fraction(rng.randint(-8 * d, 8 * d), d)
                         for d in (big() for _ in range(size))}
            up_right = {(Fraction(rng.randint(-8 * d, 8 * d), d),
                         Fraction(rng.randint(-8 * e, 8 * e), e))
                        for d, e in ((big(), big()) for _ in range(size))}
            _assert_same_as_naive(TORERO_KIND, sorted(torero))
            _assert_same_as_naive(RATIONAL_GEOMETRIC_KIND, sorted(geometric))
            _assert_same_as_naive(UP_RIGHT_KIND, sorted(up_right))


class TestWindowCost:
    def test_each_vertex_is_checked_once(self, monkeypatch):
        calls = []
        check = oracles._check_vertex
        monkeypatch.setattr(oracles, "_check_vertex",
                            lambda kind, v: calls.append(v) or check(kind, v))
        mix = _construct_verify_mix(7)
        for kind, vertices in mix:
            oracle_window(kind, vertices)
        assert len(calls) == sum(len(vertices) for _, vertices in mix)

    def test_up_right_with_coprime_200_digit_denominators(self):
        # A window-wide common denominator would have 24,000 digits here.
        rng = random.Random(23)
        dens = _coprime_denominators(120, 200)
        vertices = [(Fraction(rng.randint(-8 * d, 8 * d), d),
                     Fraction(rng.randint(-8 * e, 8 * e), e))
                    for d, e in zip(dens[::2], dens[1::2])]
        start = time.perf_counter()
        window, _ = oracle_window(UP_RIGHT_KIND, vertices)
        assert time.perf_counter() - start < 3.0
        assert window.n == 60

    def test_rational_geometric_with_800_digit_denominators(self):
        # pi * D to the unit would need pi to 2,400 digits here.
        rng = random.Random(29)
        dens = _coprime_denominators(3, 800)
        vertices = [Fraction(rng.randint(-8 * d, 8 * d), d) for d in dens]
        start = time.perf_counter()
        window, _ = oracle_window(RATIONAL_GEOMETRIC_KIND, vertices)
        assert time.perf_counter() - start < 0.5
        assert window == naive_oracle_window(RATIONAL_GEOMETRIC_KIND, vertices)


class TestSerialization:
    def test_fraction_strings(self):
        assert fraction_to_str(_frac(-3, 7)) == "-3/7"

    def test_vertex_round_trip(self):
        cases = [(UP_RIGHT_KIND, (_frac(1, 2), _frac(-3, 4))),
                 (TORERO_KIND, _frac(2, 5)),
                 (RATIONAL_GEOMETRIC_KIND, _frac(22, 7)),
                 (grid_clique(3), (1, -2, 0)),
                 (Z3_AGREE_KIND, ((0, 1, 3), 2))]
        for kind, v in cases:
            assert vertex_from_json(kind, vertex_to_json(kind, v)) == v

    def test_floats_refused_decimals_exact(self):
        # A plain json.loads hands over binary floats; 0.1 is not 1/10.  A
        # Decimal is refused too: Fraction would expand its exponent in full.
        for kind, data in ((TORERO_KIND, 0.1), (RATIONAL_GEOMETRIC_KIND, 1e-300),
                           (UP_RIGHT_KIND, ["1/2", 0.5]), (TORERO_KIND, Decimal("0.1")),
                           (UP_RIGHT_KIND, [Decimal("0.5"), 3])):
            with pytest.raises(ValueError, match="need decimal text"):
                vertex_from_json(kind, data)
        assert vertex_from_json(TORERO_KIND, "0.1") == _frac(1, 10)
        assert vertex_from_json(UP_RIGHT_KIND, ["0.5", 3]) == (_frac(1, 2), 3)

    @pytest.mark.parametrize("kind, data, message", [
        (UP_RIGHT_KIND, ["1/2"], "up-and-right vertex must be a rational pair"),
        (UP_RIGHT_KIND, [[1], 2], "need rationals here"),
        (TORERO_KIND, ["1/2"], "torero vertex must be a rational"),
        (TORERO_KIND, None, "need rationals here"),
        (RATIONAL_GEOMETRIC_KIND, [1, 2], "rational-geometric vertex must be a rational"),
        (grid_clique(2), 5, "grid vertex must be a 2-tuple of ints"),
        (Z3_AGREE_KIND, 5, "z3 vertex must be"),
        (Z3_AGREE_KIND, [[0, 0, 0]], "z3 vertex must be"),
        (Z3_AGREE_KIND, [5, 0], "z3 vertex must be")])
    def test_wrong_shapes_name_the_vertex_form(self, kind, data, message):
        with pytest.raises(ValueError, match=message):
            vertex_from_json(kind, data)

    def test_decimal_with_huge_exponent_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="need decimal text"):
            vertex_from_json(RATIONAL_GEOMETRIC_KIND, Decimal("1E+999999999"))
        assert time.perf_counter() - start < 1.0


class TestKindSpellings:
    def test_flag_and_json_forms_name_the_same_kinds(self):
        assert kind_from_flag("torero") == kind_from_json({"tag": "torero"}) == TORERO_KIND
        assert (kind_from_flag("grid_clique:2") == kind_from_json({"tag": "grid_clique", "p": 2})
                == grid_clique(2))

    @pytest.mark.parametrize("text", ["grid_clique:x", "grid_clique:", "a:b:c",
                                      "grid_clique:2:3", "torero:1.5"])
    def test_malformed_flag_is_named_with_its_form(self, text):
        with pytest.raises(ValueError, match="is not tag or tag:p") as exc:
            kind_from_flag(text)
        assert repr(text) in str(exc.value)

    def test_flag_tags_are_checked(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            kind_from_flag("bogus")
        with pytest.raises(ValueError, match="grid dimension"):
            kind_from_flag("grid_clique:0")

    @pytest.mark.parametrize("make", [lambda: kind_from_flag("torero:5"),
                                      lambda: kind_from_json({"tag": "torero", "p": 7}),
                                      lambda: kind_from_flag("z3_agree:-1"),
                                      lambda: oracles.OracleKind(oracles.UP_RIGHT, 2)])
    def test_parameter_is_grid_clique_only(self, make):
        with pytest.raises(ValueError, match="takes no parameter"):
            make()

    def test_json_form_is_an_object(self):
        # kind_from_json reads only {"tag": ..., "p": ...}, never a flag spelling.
        with pytest.raises(TypeError):
            kind_from_json("torero")


def test_naive_oracles_import_only_shared_types():
    # The reference oracles may share plain data types with the library, but
    # no code path that they check.
    allowed = {"Graph", "EXHAUSTIVE_PAIRSET_LIMIT", "PairFixedResult"}
    tree = ast.parse(Path(__file__).with_name("oracles_naive.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "indsat" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "indsat":
            assert {a.name for a in node.names} <= allowed, node.module
