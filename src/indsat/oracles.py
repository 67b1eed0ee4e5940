"""Exact adjacency oracles for the five explicit infinite constructions.

Vertices are symbolic (rationals, rational pairs, integer tuples); adjacency
is decided exactly, never through floating point.  Each kind has one rule,
`_window_rule`, which decides the pairs of a window on integers:
- torero and rational-geometric values are put over one common denominator
  D, so u + v > 1 becomes U + V > D, and |U - V| is compared with
  floor(lo D) and ceil(hi D) for the coarsest enclosure (lo, hi) of pi; only
  a difference between the two goes to `compare_to_pi`, which tightens
  rational enclosures from Machin's formula until one side is certain (any
  rational differs from pi, so every comparison decides);
- up-and-right pairs compare a^2 with 2 b^2, cross-multiplied over the
  pair's own denominators (a window-wide one grows with the window);
- grid and Z^3 pairs compare coordinates.
`oracle_window` checks each vertex once; `oracle_adjacent` decides a
window of two vertices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence, Union

from .graphs import Graph

UP_RIGHT = "up_right"
TORERO = "torero"
RATIONAL_GEOMETRIC = "rational_geometric"
GRID_CLIQUE = "grid_clique"
Z3_AGREE = "z3_agree"


@dataclass(frozen=True)
class OracleKind:
    tag: str
    p: int = 0  # grid dimension, used by GRID_CLIQUE only

    def __post_init__(self):
        if self.tag not in (UP_RIGHT, TORERO, RATIONAL_GEOMETRIC, GRID_CLIQUE, Z3_AGREE):
            raise ValueError(f"unknown oracle kind {self.tag!r}")
        if self.tag == GRID_CLIQUE and self.p < 1:
            raise ValueError("grid dimension must be at least 1")
        if self.tag != GRID_CLIQUE and self.p:
            raise ValueError(f"oracle kind {self.tag!r} takes no parameter, got p={self.p}")


def grid_clique(p: int) -> OracleKind:
    return OracleKind(GRID_CLIQUE, p)


UP_RIGHT_KIND = OracleKind(UP_RIGHT)
TORERO_KIND = OracleKind(TORERO)
RATIONAL_GEOMETRIC_KIND = OracleKind(RATIONAL_GEOMETRIC)
Z3_AGREE_KIND = OracleKind(Z3_AGREE)

# Vertex payloads per kind:
#   up_right            (Fraction, Fraction)
#   torero              Fraction in (0, 1)
#   rational_geometric  Fraction
#   grid_clique(p)      tuple of p ints
#   z3_agree            ((i, j, k), clone_index)
OracleVertex = Union[Fraction, tuple]


def _atan_inverse_bounds(x: int, terms: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) around atan(1/x): the partial sums of the alternating series
    after an even number of terms (below) and one term more (above)."""
    total = Fraction(0)
    for k in range(terms):
        total += Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
    return total, total + Fraction(1, (2 * terms + 1) * x ** (2 * terms + 1))


@functools.lru_cache(maxsize=None)
def pi_bounds(depth: int = 3) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo < pi < hi; deeper means tighter.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239) with 2 * 2**depth
    series terms per arctangent.  The enclosures nest, because the brackets
    of an alternating series with decreasing terms do; depth 1 already lies
    inside [333/106, 355/113].
    """
    lo5, hi5 = _atan_inverse_bounds(5, 2 << depth)
    lo239, hi239 = _atan_inverse_bounds(239, 2 << depth)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def compare_to_pi(q: Fraction) -> int:
    """-1 if q < pi, +1 if q > pi.  Exact: the enclosure of pi tightens until
    it excludes q, which always happens because rational q never equals pi."""
    q = Fraction(q)
    depth = 0
    while True:
        lo, hi = pi_bounds(depth)
        if q <= lo:
            return -1
        if q >= hi:
            return 1
        depth += 1


def _bad_vertex(kind: OracleKind, v) -> ValueError:
    form = {UP_RIGHT: "up-and-right vertex must be a rational pair",
            TORERO: "torero vertex must be a rational in (0,1)",
            RATIONAL_GEOMETRIC: "rational-geometric vertex must be a rational",
            GRID_CLIQUE: f"grid vertex must be a {kind.p}-tuple of ints",
            Z3_AGREE: "z3 vertex must be ((i,j,k), clone>=0)"}[kind.tag]
    return ValueError(f"{form}, got {v!r}")


def _check_vertex(kind: OracleKind, v: OracleVertex) -> None:
    tag = kind.tag
    if tag == UP_RIGHT:
        ok = isinstance(v, tuple) and len(v) == 2 and all(isinstance(c, Fraction) for c in v)
    elif tag == TORERO:
        ok = isinstance(v, Fraction) and 0 < v < 1
    elif tag == RATIONAL_GEOMETRIC:
        ok = isinstance(v, Fraction)
    elif tag == GRID_CLIQUE:
        ok = (isinstance(v, tuple) and len(v) == kind.p
              and all(isinstance(c, int) for c in v))
    else:  # Z3_AGREE
        ok = (isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int)
              and v[1] >= 0 and isinstance(v[0], tuple) and len(v[0]) == 3
              and all(isinstance(c, int) for c in v[0]))
    if not ok:
        raise _bad_vertex(kind, v)


def oracle_adjacent(kind: OracleKind, u: OracleVertex, v: OracleVertex) -> bool:
    """Exact adjacency decision for two distinct vertices of the same kind."""
    return oracle_window(kind, (u, v))[0].has_edge(0, 1)


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator D of the values and each value times D."""
    d = math.lcm(*(q.denominator for q in values))
    return d, [q.numerator * (d // q.denominator) for q in values]


def _window_rule(kind: OracleKind, vertices: tuple):
    """Adjacency of window positions i < j: the one rule of each kind."""
    tag = kind.tag
    if tag == TORERO:
        d, scaled = _scaled(vertices)
        return lambda i, j: scaled[i] + scaled[j] > d
    if tag == RATIONAL_GEOMETRIC:
        d, scaled = _scaled(vertices)
        lo, hi = pi_bounds(0)
        near = lo.numerator * d // lo.denominator  # floor(lo D): closer is adjacent
        far = -(-hi.numerator * d // hi.denominator)  # ceil(hi D): farther is not

        def rule(i, j):
            gap = abs(scaled[i] - scaled[j])
            return gap <= near or gap < far and compare_to_pi(Fraction(gap, d)) < 0
        return rule
    if tag == UP_RIGHT:
        # u and v are adjacent when they lie in the same strict order under
        # both linear forms q + r sqrt(2) and q - r sqrt(2), that is when
        # a + b sqrt(2) and a - b sqrt(2) share a sign, for a = q_u - q_v and
        # b = r_u - r_v.  That holds iff |a| > |b| sqrt(2), i.e. a^2 > 2 b^2:
        # for b = 0 distinct vertices have a != 0, and for b != 0 equality is
        # impossible, as sqrt(2) is irrational.  Over the pair's own
        # denominators: (A dr_u dr_v)^2 > 2 (B dq_u dq_v)^2.
        parts = [(q.numerator, q.denominator, r.numerator, r.denominator)
                 for q, r in vertices]

        def rule(i, j):
            nq, dq, nr, dr = parts[i]
            mq, eq, mr, er = parts[j]
            a, b = nq * eq - mq * dq, nr * er - mr * dr
            return (a * dr * er) ** 2 > 2 * (b * dq * eq) ** 2
        return rule
    if tag == GRID_CLIQUE:  # exactly one coordinate differs
        return lambda i, j: sum(a != b for a, b in zip(vertices[i], vertices[j])) == 1
    # Z3_AGREE: at least one coordinate agrees; clones of one point share all three.
    return lambda i, j: any(a == b for a, b in zip(vertices[i][0], vertices[j][0]))


def oracle_window(kind: OracleKind,
                  vertices: Sequence[OracleVertex]) -> tuple[Graph, tuple[OracleVertex, ...]]:
    """Finite induced sample: graph plus the vertex labeling, index-aligned."""
    vertices = tuple(vertices)
    for v in vertices:
        _check_vertex(kind, v)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate oracle vertices in window")
    n = len(vertices)
    adjacent = _window_rule(kind, vertices)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adjacent(i, j)]
    return Graph.from_edges(n, edges), vertices


# --- JSON serialization of oracle vertices ---------------------------------


def fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def vertex_to_json(kind: OracleKind, v: OracleVertex):
    tag = kind.tag
    if tag == UP_RIGHT:
        return [fraction_to_str(v[0]), fraction_to_str(v[1])]
    if tag in (TORERO, RATIONAL_GEOMETRIC):
        return fraction_to_str(v)
    if tag == GRID_CLIQUE:
        return list(v)
    return [list(v[0]), v[1]]


def _from_json(data, cast):
    # A float is already binary (0.1 is 3602879701896397/2**55), and Fraction
    # expands the exponent of a Decimal or of decimal text in full.
    if cast is Fraction and isinstance(data, (float, Decimal)):
        raise ValueError(f"oracle rationals need decimal text, not {data!r}")
    # bool subclasses int, but a JSON true is neither a coordinate nor a rational.
    if isinstance(data, bool) or not isinstance(data, int if cast is int else (int, str)):
        want = "JSON integers" if cast is int else "rationals"
        raise ValueError(f"oracle specs need {want} here, got {data!r}")
    if isinstance(data, str) and "e" in data.lower():
        raise ValueError(f"oracle rationals take no exponent, got {data!r}")
    return cast(data)


def vertex_from_json(kind: OracleKind, data) -> OracleVertex:
    """The vertex a JSON value spells; a value of the wrong shape gets the
    message `oracle_window` gives for a wrong vertex."""
    tag, pair = kind.tag, isinstance(data, list) and len(data) == 2
    if tag == UP_RIGHT and pair:
        return (_from_json(data[0], Fraction), _from_json(data[1], Fraction))
    if tag in (TORERO, RATIONAL_GEOMETRIC) and not isinstance(data, (list, dict)):
        return _from_json(data, Fraction)
    if tag == GRID_CLIQUE and isinstance(data, list):
        return tuple(_from_json(c, int) for c in data)
    if tag == Z3_AGREE and pair and isinstance(data[0], list):
        return (tuple(_from_json(c, int) for c in data[0]), _from_json(data[1], int))
    raise _bad_vertex(kind, data)


def kind_from_json(data: dict) -> OracleKind:
    return OracleKind(data["tag"], _from_json(data.get("p", 0), int))


def kind_from_flag(text: str) -> OracleKind:
    """The kind a command-line spelling names: a tag ("torero") or a tag with
    an integer parameter ("grid_clique:2"); `kind_from_json` reads the JSON form."""
    tag, colon, p = text.partition(":")
    try:
        p = int(p) if colon else 0
    except ValueError:
        raise ValueError(f"oracle kind {text!r} is not tag or tag:p with an integer p") from None
    return OracleKind(tag, p)
