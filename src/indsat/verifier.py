"""Saturation and freeness checks on finite graphs and oracle windows.

"Fixed" is undecidable at desk scale; pair_fixed_check is bounded evidence
and says so in its report.  The witness replays re-derive their coordinates
by constraint search over rational intervals instead of trusting any
hand-picked sketch values, with exact arithmetic throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .graphs import Graph, bull_graph, clique_cover_at_most, find_induced
from .oracles import (GRID_CLIQUE, RATIONAL_GEOMETRIC, RATIONAL_GEOMETRIC_KIND,
                      TORERO, TORERO_KIND, UP_RIGHT, Z3_AGREE, Z3_AGREE_KIND,
                      OracleKind, compare_to_pi, oracle_window)

EXHAUSTIVE_PAIRSET_LIMIT = 300_000


def is_free(g: Graph, h: Graph) -> bool:
    """True iff g contains no induced copy of h."""
    return find_induced(g, h) is None


def _pairs_twins_first(g: Graph) -> list[tuple[int, int]]:
    """All vertex pairs, twin pairs first.  Twin pairs are the canonical
    saturation failures (perturbing twins never creates a twin-free pattern),
    so scanning them first makes the reported failing pair the meaningful one."""
    twin, rest = [], []
    for u, v in combinations(range(g.n), 2):
        closed_u = g.adj[u] | 1 << u
        closed_v = g.adj[v] | 1 << v
        if g.adj[u] == g.adj[v] or closed_u == closed_v:
            twin.append((u, v))
        else:
            rest.append((u, v))
    return twin + rest


def induced_saturated(g: Graph, h: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """Is g h-free with every single perturbation creating an induced h?

    Returns (verdict, first failing pair or None); twin pairs are scanned
    first.  A graph that is not h-free reports (False, None).
    """
    if g.n < 2:
        return False, None
    if not is_free(g, h):
        return False, None
    for pair in _pairs_twins_first(g):
        if find_induced(g.toggled(*pair), h) is None:
            return False, pair
    return True, None


@dataclass(frozen=True)
class PairFixedResult:
    status: str  # "pass" | "fail"
    witness: Optional[tuple[tuple[int, int], ...]]  # perturbed pairs incl. the target
    adversary_budget: int
    trials: int
    seed: int
    sets_checked: int
    exhaustive_size: int  # adversary-set sizes covered exhaustively

    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"status": self.status,
                "witness": [list(p) for p in self.witness] if self.witness else None,
                "adversary_budget": self.adversary_budget,
                "trials": self.trials, "seed": self.seed,
                "sets_checked": self.sets_checked,
                "exhaustive_size": self.exhaustive_size,
                "note": "bounded evidence, not a proof of fixedness"}


def pair_fixed_check(g: Graph, h: Graph, pair: tuple[int, int],
                     adversary_budget: int = 0, trials: int = 0,
                     seed: int = 0) -> PairFixedResult:
    """Bounded adversarial check that perturbing `pair` always creates h.

    Perturbs the pair together with extra pair sets: all sets of size up to
    min(budget, 2) exhaustively (when feasible), plus `trials` seeded random
    sets of size up to the budget.  FAIL means some perturbed graph is h-free.
    """
    u, v = pair
    if not (0 <= u < g.n and 0 <= v < g.n and u != v):
        raise ValueError(f"pair {pair} not in graph")
    if adversary_budget < 0 or trials < 0:
        raise ValueError(f"adversary_budget ({adversary_budget}) and trials "
                         f"({trials}) must be non-negative")
    target = g.toggled(u, v)
    others = ([p for p in combinations(range(g.n), 2) if set(p) != {u, v}]
              if adversary_budget >= 1 else [])

    def run(extra: Sequence[tuple[int, int]]) -> Optional[tuple]:
        perturbed = target
        for a, b in extra:
            perturbed = perturbed.toggled(a, b)
        if find_induced(perturbed, h) is None:
            return ((u, v),) + tuple(extra)
        return None

    sets_checked = 0
    exhaustive_size = 0
    for size in range(0, min(adversary_budget, 2) + 1):
        if math.comb(len(others), size) > EXHAUSTIVE_PAIRSET_LIMIT:
            break
        for extra in combinations(others, size):
            sets_checked += 1
            witness = run(extra)
            if witness is not None:
                return PairFixedResult("fail", witness, adversary_budget, trials,
                                       seed, sets_checked, exhaustive_size)
        exhaustive_size = size
    rng = random.Random(seed)
    if adversary_budget >= 1 and others:
        for _ in range(trials):
            size = rng.randint(1, adversary_budget)
            extra = tuple(rng.sample(others, min(size, len(others))))
            sets_checked += 1
            witness = run(extra)
            if witness is not None:
                return PairFixedResult("fail", witness, adversary_budget, trials,
                                       seed, sets_checked, exhaustive_size)
    return PairFixedResult("pass", None, adversary_budget, trials, seed,
                           sets_checked, exhaustive_size)


# ---------------------------------------------------------------------------
# Seeded random windows for the oracle property suites.


def _random_fraction(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(lo * den + 1, hi * den - 1)
    return Fraction(num, den)


def sample_window(kind: OracleKind, size: int, rng: random.Random):
    """Distinct random oracle vertices of the requested kind."""
    seen = set()
    out = []
    while len(out) < size:
        tag = kind.tag
        if tag == TORERO:
            v = _random_fraction(rng, 0, 1, 60)
        elif tag == RATIONAL_GEOMETRIC:
            v = _random_fraction(rng, -12, 12, 8)
        elif tag == UP_RIGHT:
            v = (_random_fraction(rng, -8, 8, 12), _random_fraction(rng, -8, 8, 12))
        elif tag == GRID_CLIQUE:
            v = tuple(rng.randint(-4, 4) for _ in range(kind.p))
        elif tag == Z3_AGREE:
            v = (tuple(rng.randint(-3, 3) for _ in range(3)), rng.randint(0, 2))
        else:
            raise ValueError(tag)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def neighborhood_two_clique_cover(g: Graph, v: int) -> bool:
    """Can N(v) be covered by two cliques?"""
    return clique_cover_at_most(g, g.neighbors(v), 2)


def max_independent_in_neighborhood(g: Graph, v: int) -> int:
    nbrs = g.neighbors(v)
    sub = g.induced(nbrs)
    best = 0
    for r in range(sub.n, 0, -1):
        for pick in combinations(range(sub.n), r):
            if all(not sub.has_edge(a, b) for a, b in combinations(pick, 2)):
                return r
    return best


# ---------------------------------------------------------------------------
# Witness replays.


@dataclass
class ReplayReport:
    scenarios: list[dict] = field(default_factory=list)

    def add(self, name: str, passed: bool, **details) -> None:
        self.scenarios.append({"scenario": name, "passed": passed, **details})

    def all_passed(self) -> bool:
        return all(s["passed"] for s in self.scenarios)

    def to_json(self) -> dict:
        return {"all_passed": self.all_passed(), "scenarios": self.scenarios}


# The target of the agreement-graph replays; vertex i of the pattern is the
# i-th labeled point of each stored scenario.
FINAL_GRAPH_EDGES = [(0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6),
                     (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]


def final_graph_pattern() -> Graph:
    return Graph.from_edges(7, FINAL_GRAPH_EDGES)


_Z3_SCENARIOS = [
    # (name, points in pattern-label order, (pattern u, pattern v) perturbed)
    ("z3_delete_two_agreements",
     [((0, 1, 3), 0), ((0, 1, 1), 0), ((3, 0, 2), 0), ((2, 2, 0), 0),
      ((1, 0, 1), 0), ((1, 1, 0), 0), ((0, 0, 0), 0)], (0, 1)),
    ("z3_delete_one_agreement",
     [((3, 3, 0), 0), ((1, 2, 0), 0), ((2, 0, 3), 0), ((0, 1, 2), 0),
      ((1, 0, 1), 0), ((1, 1, 0), 0), ((0, 0, 0), 0)], (0, 1)),
    ("z3_add_nonedge",
     [((4, 1, 3), 0), ((3, 3, 0), 0), ((0, 2, 2), 0), ((1, 0, 1), 0),
      ((2, 2, 0), 0), ((1, 1, 0), 0), ((0, 0, 0), 0)], (0, 6)),
    ("z3_delete_clone_edge",
     [((1, 0, 1), 0), ((3, 3, 0), 0), ((0, 2, 2), 0), ((1, 0, 1), 1),
      ((2, 2, 0), 0), ((1, 1, 0), 0), ((0, 0, 0), 0)], (0, 3)),
]


def replay_z3(report: ReplayReport) -> None:
    pattern = final_graph_pattern()
    for name, points, (pu, pv) in _Z3_SCENARIOS:
        window, _ = oracle_window(Z3_AGREE_KIND, points)
        perturbed = window.toggled(pu, pv)
        found = None
        for anchors in ({pu: pu, pv: pv}, {pu: pv, pv: pu}):
            try:
                found = find_induced(perturbed, pattern, anchors)
            except ValueError:
                found = None
            if found:
                break
        report.add(name, found is not None,
                   perturbed_pair=[pu, pv],
                   embedding=list(found) if found else None)


def _mid(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def torero_delete_witness() -> tuple[list[Fraction], tuple[int, int], dict[int, int]]:
    """Recompute the bull witness for an edge deletion by interval search.

    Returns (window values, window pair to delete, anchors pattern->index).
    The bull pattern is the triangle 0,1,2 with pendants 3-0 and 4-1; the
    deleted edge plays pendant-4-to-triangle-0.
    """
    b, x = Fraction(2, 5), Fraction(9, 10)  # edge: b + x > 1, b < x
    y = _mid(max(b, 1 - b), x)              # b < y < x with b + y > 1
    a = _mid(1 - x, 1 - y)                  # a + y < 1 < a + x
    z = _mid(1 - y, 1 - b)                  # z + b < 1 < z + y
    values = [x, y, z, a, b]
    if len(set(values)) != 5:
        raise AssertionError("degenerate interval choice")
    return values, (0, 4), {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def torero_add_witness() -> tuple[list[Fraction], tuple[int, int], dict[int, int]]:
    """Bull witness for an edge addition: the new edge is the pendant 4-1."""
    b, y = Fraction(1, 10), Fraction(3, 10)   # non-edge: b + y < 1
    z = _mid(1 - y, 1 - b)                    # y + z > 1, z + b < 1
    x = _mid(max(Fraction(4, 5), z), 1 - b)   # x + y > 1, x + b < 1, x > 1 - a bound
    a = _mid(1 - x, 1 - z)                    # a + x > 1, a + z < 1 (so a + y < 1 too)
    values = [x, y, z, a, b]
    if len(set(values)) != 5:
        raise AssertionError("degenerate interval choice")
    return values, (1, 4), {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def replay_torero(report: ReplayReport) -> None:
    pattern = bull_graph()
    for name, (values, pair, anchors) in (
            ("torero_delete_edge", torero_delete_witness()),
            ("torero_add_edge", torero_add_witness())):
        window, _ = oracle_window(TORERO_KIND, values)
        perturbed = window.toggled(*pair)
        found = find_induced(perturbed, pattern, anchors)
        report.add(name, found is not None,
                   window=[f"{v.numerator}/{v.denominator}" for v in values],
                   perturbed_pair=list(pair),
                   embedding=list(found) if found else None)


# Rational-geometric replays: generic constraint search over a rational pool.


def _rg_pool(r: Fraction, step: Fraction) -> list[Fraction]:
    """Grid pool inside the radius-3*pi window around {0, r}; 355/113 serves
    as the rational upper proxy for pi when clipping."""
    lo_bound = -3 * Fraction(355, 113)
    hi_bound = r + 3 * Fraction(355, 113)
    k = int(lo_bound / step) - 1
    pool = []
    while k * step <= hi_bound:
        val = k * step
        if lo_bound <= val:
            pool.append(val)
        k += 1
    return pool


# Deleted edges are tried at these spans (all below pi), added non-edges at
# spans above pi; a span too close to pi leaves no room for the witness.
_RG_DELETE_SPANS = (Fraction(2), Fraction(3, 2), Fraction(5, 2), Fraction(1))
_RG_ADD_SPANS = (Fraction(4), Fraction(9, 2), Fraction(7, 2), Fraction(5))
_RG_STEP = Fraction(1, 8)  # every span above is a multiple of it


def rational_geometric_witness(pattern: Graph, add: bool,
                               ) -> Optional[tuple[list[Fraction], tuple[int, int], dict[int, int]]]:
    """Search a rational witness window for one perturbation scenario.

    The perturbed pair sits at 0 and r (r < pi for a deletion, r > pi for an
    addition); the remaining pattern vertices are assigned eighth-integer
    rationals by backtracking against exact oracle adjacency.
    """
    for r in (_RG_ADD_SPANS if add else _RG_DELETE_SPANS):
        found = _rg_witness_at(pattern, add, r)
        if found is not None:
            return found
    return None


def _rg_host(r: Fraction) -> tuple[list[Fraction], Graph]:
    """The grid pool (0 and r first) and its rational-geometric graph with
    the pair {0, r} perturbed.

    Every pool value is a multiple of _RG_STEP, so adjacency depends only on
    the grid distance d, and compare_to_pi runs once per distinct d.
    """
    pool_vals = [Fraction(0), r]
    pool_vals += [v for v in _rg_pool(r, _RG_STEP) if v not in pool_vals]
    ticks = [int(v / _RG_STEP) for v in pool_vals]
    near: dict[int, bool] = {}  # grid distance -> distance below pi
    npool = len(pool_vals)
    masks = [0] * npool  # host adjacency after the perturbation, as bitmasks
    for i in range(npool):
        ti = ticks[i]
        for j in range(i + 1, npool):
            d = abs(ti - ticks[j])
            adj = near.get(d)
            if adj is None:
                adj = near[d] = compare_to_pi(d * _RG_STEP) < 0
            if i == 0 and j == 1:
                adj = not adj
            if adj:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return pool_vals, Graph(npool, masks)


def _rg_witness_at(pattern: Graph, add: bool, r: Fraction):
    pool_vals, host = _rg_host(r)
    for pu in range(pattern.n):
        for pv in range(pattern.n):
            # The pattern pair landing on (0, r) must have the perturbed status.
            if pu == pv or pattern.has_edge(pu, pv) != add:
                continue
            found = find_induced(host, pattern, {pu: 0, pv: 1})
            if found is not None:
                values = [pool_vals[i] for i in found]
                return values, (pu, pv), {p: p for p in range(pattern.n)}
    return None


def replay_rational_geometric(report: ReplayReport, patterns: dict[str, Graph]) -> None:
    for gname, pattern in patterns.items():
        for add in (False, True):
            name = f"rational_geometric_{'add' if add else 'delete'}_{gname}"
            found = rational_geometric_witness(pattern, add)
            if found is None:
                report.add(name, False, reason="no witness window found")
                continue
            values, pair, anchors = found
            window, _ = oracle_window(RATIONAL_GEOMETRIC_KIND, values)
            perturbed = window.toggled(*pair)
            emb = find_induced(perturbed, pattern, anchors)
            report.add(name, emb is not None,
                       window=[f"{v.numerator}/{v.denominator}" for v in values],
                       perturbed_pair=list(pair),
                       embedding=list(emb) if emb else None)


def replay_construction_witnesses() -> ReplayReport:
    """Re-derive and verify the catalogued perturbation witnesses."""
    from .classifier import special_base_graphs

    report = ReplayReport()
    replay_z3(report)
    replay_torero(report)
    replay_rational_geometric(report, special_base_graphs("rational_geometric"))
    return report
