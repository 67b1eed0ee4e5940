"""Exact adjacency oracles for the five explicit infinite constructions.

Vertices are symbolic (rationals, rational pairs, integer tuples); adjacency
is decided exactly, never through floating point.  sqrt(2) comparisons go
through quadratic-field sign computation, and pi comparisons through nested
rational enclosures from Machin's formula, tightened until one side is
certain (any rational input differs from pi, so every comparison decides).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


def quad_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(2) for rational a, b, decided by comparing a^2 with 2 b^2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: |a| vs |b|*sqrt(2), i.e. a^2 vs 2 b^2, never equal
    # for rational a, b not both zero (sqrt(2) is irrational).
    bigger_rational = a * a > 2 * b * b
    if a > 0:
        return 1 if bigger_rational else -1
    return -1 if bigger_rational else 1


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


def _check_vertex(kind: OracleKind, v: OracleVertex) -> None:
    tag = kind.tag
    if tag == UP_RIGHT:
        if not (isinstance(v, tuple) and len(v) == 2
                and all(isinstance(c, Fraction) for c in v)):
            raise ValueError(f"up-and-right vertex must be a rational pair, got {v!r}")
    elif tag == TORERO:
        if not isinstance(v, Fraction) or not 0 < v < 1:
            raise ValueError(f"torero vertex must be a rational in (0,1), got {v!r}")
    elif tag == RATIONAL_GEOMETRIC:
        if not isinstance(v, Fraction):
            raise ValueError(f"rational-geometric vertex must be a rational, got {v!r}")
    elif tag == GRID_CLIQUE:
        if not (isinstance(v, tuple) and len(v) == kind.p
                and all(isinstance(c, int) for c in v)):
            raise ValueError(f"grid vertex must be a {kind.p}-tuple of ints, got {v!r}")
    else:  # Z3_AGREE
        ok = (isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int)
              and v[1] >= 0 and isinstance(v[0], tuple) and len(v[0]) == 3
              and all(isinstance(c, int) for c in v[0]))
        if not ok:
            raise ValueError(f"z3 vertex must be ((i,j,k), clone>=0), got {v!r}")


def oracle_adjacent(kind: OracleKind, u: OracleVertex, v: OracleVertex) -> bool:
    """Exact adjacency decision for two distinct vertices of the same kind."""
    _check_vertex(kind, u)
    _check_vertex(kind, v)
    if u == v:
        raise ValueError("oracle_adjacent needs two distinct vertices")
    tag = kind.tag
    if tag == UP_RIGHT:
        (q, r), (s, t) = u, v
        plus = quad_sign(q - s, r - t)
        minus = quad_sign(q - s, t - r)
        # Same strict order under both linear forms means "up and right".
        return plus == minus
    if tag == TORERO:
        return u + v > 1
    if tag == RATIONAL_GEOMETRIC:
        return compare_to_pi(abs(u - v)) < 0
    if tag == GRID_CLIQUE:
        return sum(1 for a, b in zip(u, v) if a != b) == 1
    # Z3_AGREE: clones of one point form a clique; distinct points are
    # adjacent when they agree in at least one coordinate.
    pu, pv = u[0], v[0]
    if pu == pv:
        return True
    return any(a == b for a, b in zip(pu, pv))


def oracle_window(kind: OracleKind,
                  vertices: Sequence[OracleVertex]) -> tuple[Graph, tuple[OracleVertex, ...]]:
    """Finite induced sample: graph plus the vertex labeling, index-aligned."""
    vertices = tuple(vertices)
    for v in vertices:
        _check_vertex(kind, v)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate oracle vertices in window")
    n = len(vertices)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if oracle_adjacent(kind, vertices[i], vertices[j])]
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
    # bool subclasses int, but a JSON true is neither a coordinate nor a rational.
    if isinstance(data, bool) or cast is int and type(data) is not int:
        want = "JSON integers" if cast is int else "rationals"
        raise ValueError(f"oracle specs need {want} here, got {data!r}")
    return cast(data)


def vertex_from_json(kind: OracleKind, data) -> OracleVertex:
    tag = kind.tag
    if tag == UP_RIGHT:
        return (_from_json(data[0], Fraction), _from_json(data[1], Fraction))
    if tag in (TORERO, RATIONAL_GEOMETRIC):
        return _from_json(data, Fraction)
    if tag == GRID_CLIQUE:
        return tuple(_from_json(c, int) for c in data)
    return (tuple(_from_json(c, int) for c in data[0]), _from_json(data[1], int))


def kind_to_json(kind: OracleKind) -> dict:
    out = {"tag": kind.tag}
    if kind.tag == GRID_CLIQUE:
        out["p"] = kind.p
    return out


def kind_from_json(data: dict) -> OracleKind:
    return OracleKind(data["tag"], _from_json(data.get("p", 0), int))
