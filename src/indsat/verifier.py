"""Saturation and freeness checks on finite graphs and oracle windows.

"Fixed" is undecidable at desk scale; pair_fixed_check is bounded evidence
and says so in its report.  The construction witnesses (z3 agreement,
torero and rational-geometric) are stored as finite oracle windows.  How a
window was found does not matter: every replay checks, with exact
arithmetic, that perturbing the witness pair turns the window into the
pattern itself.

Perturbed graphs are searched locally, by this lemma: if g is h-free and g'
is g with a set T of pairs toggled, every induced h in g' contains both ends
of some pair in T, since an induced h containing no pair of T would already
be induced in g.  So the search for h in g' is anchored at each pair of T,
against each pattern pair of the same adjacency in both alignments, and it
misses exactly when g' is h-free.

Freeness is decided on a twin-reduced host, by this lemma: if u and v are
true twins in g (N[u] = N[v]) and h has no true twins, then g is h-free iff
g - v is.  An induced h through both u and v would make them twins in h, and
a copy through v but not u stays induced when v is swapped for u.  The same
holds for false twins (N(u) = N(v)).  Twins stay twins in every induced
subgraph that keeps both, so any number of twins can go at once as long as
a twin of each stays.

Most adversary sets of pair_fixed_check need no search, by this survival
lemma: if X is an induced h in g' and no pair of a set T lies inside V(X),
then X is still induced in g' with T toggled, so that graph contains h.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .graphs import (Graph, clique_cover_at_most, colored_fragment_occurs, find_induced,
                     parse_graph6, twins)
from .oracles import (GRID_CLIQUE, RATIONAL_GEOMETRIC, RATIONAL_GEOMETRIC_KIND,
                      TORERO, TORERO_KIND, UP_RIGHT, Z3_AGREE_KIND,
                      OracleKind, fraction_to_str, oracle_window)

EXHAUSTIVE_PAIRSET_LIMIT = 300_000


def is_free(g: Graph, h: Graph) -> bool:
    """True iff g contains no induced copy of h.

    Searches g with its twins of each kind h lacks deleted (the twin lemma
    above); the kind is the bit a vertex adds to its own row, 0 for false
    twins and 1 for true twins."""
    kinds = [bit for bit in (0, 1)
             if len({row | bit << v for v, row in enumerate(h.adj)}) == h.n]
    full = (1 << g.n) - 1
    live, before = full, None
    while kinds and live != before:
        before = live
        for bit in kinds:
            mask, seen = live, set()
            for v in range(g.n):
                if mask >> v & 1:
                    key = g.adj[v] & mask | bit << v
                    if key in seen:
                        live ^= 1 << v
                    else:
                        seen.add(key)
    host = g if live == full else g.induced([v for v in range(g.n) if live >> v & 1])
    return find_induced(host, h) is None


def _creates_h(h: Graph, perturbed: Graph, pairs: tuple[tuple[int, int], ...]) -> int:
    """Vertex mask of an induced h in `perturbed` through both ends of some
    pair in `pairs`, or 0.  When `perturbed` is an h-free graph with `pairs`
    toggled, 0 means exactly "perturbed is h-free" (the locality lemma above)."""
    for pair, h_pair in product(pairs, combinations(range(h.n), 2)):
        if (found := colored_fragment_occurs(perturbed, pair, h, h_pair)) is not None:
            return sum(1 << w for w in found)
    return 0


def _saturation_scan(g: Graph, h: Graph) -> tuple[bool, bool, Optional[tuple], int]:
    """(g is induced-saturated for h, g is h-free, first failing pair or None,
    pairs perturbed).  No pair is perturbed when g contains h.  Twin pairs go
    first: they are the canonical saturation failures (perturbing twins never
    creates a twin-free pattern), so the failing pair reported is the
    meaningful one."""
    if not is_free(g, h):
        return False, False, None, 0
    twin = {(u, v) for u in range(g.n) for kind in twins(g, u) for v in kind if u < v}
    pairs = sorted(combinations(range(g.n), 2), key=lambda pair: pair not in twin)
    for checked, pair in enumerate(pairs, 1):
        if not _creates_h(h, g.toggled(*pair), (pair,)):
            return False, True, pair, checked
    return g.n >= 2, True, None, len(pairs)


def induced_saturated(g: Graph, h: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """Is g h-free with every single perturbation creating an induced h?

    Returns (verdict, first failing pair or None); twin pairs are scanned
    first.  A graph that is not h-free reports (False, None).
    """
    saturated, _, failing, _ = _saturation_scan(g, h)
    return saturated, failing


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

    Sets with no pair inside the copy of h found for the empty set create h
    by the survival lemma above, and are counted without a search.
    """
    u, v = pair
    target = g.toggled(u, v)  # rejects a pair out of range or with equal ends
    if adversary_budget < 0 or trials < 0:
        raise ValueError(f"adversary_budget ({adversary_budget}) and trials "
                         f"({trials}) must be non-negative")
    others = ([p for p in combinations(range(g.n), 2) if set(p) != {u, v}]
              if adversary_budget >= 1 else [])
    exhaustive_size = 0

    def adversary_sets():
        """All sets of each size up to min(budget, 2) while they fit the limit,
        then the seeded trial sets; exhaustive_size trails the sizes done."""
        nonlocal exhaustive_size
        for size in range(0, min(adversary_budget, 2) + 1):
            if math.comb(len(others), size) > EXHAUSTIVE_PAIRSET_LIMIT:
                break
            yield from combinations(others, size)
            exhaustive_size = size
        if adversary_budget >= 1 and others:
            rng = random.Random(seed)
            for _ in range(trials):
                size = rng.randint(1, adversary_budget)
                yield tuple(rng.sample(others, min(size, len(others))))

    sets_checked = 0
    g_free = None  # is_free(g, h), computed on the first anchored miss
    kept = 0  # vertex mask of the copy of h in target, from the empty set
    for extra in adversary_sets():
        sets_checked += 1
        if kept and not any(kept >> a & kept >> b & 1 for a, b in extra):
            continue
        perturbed = target
        for a, b in extra:
            perturbed = perturbed.toggled(a, b)
        found = _creates_h(h, perturbed, ((u, v),) + extra)
        kept = kept if extra else found  # only the empty set's copy carries over
        if found:
            continue
        if g_free is None:
            g_free = is_free(g, h)
        # On an h-free g the anchored miss is exact; otherwise search it all.
        if g_free or is_free(perturbed, h):
            return PairFixedResult("fail", ((u, v),) + extra, adversary_budget, trials,
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
        else:  # Z3_AGREE
            v = (tuple(rng.randint(-3, 3) for _ in range(3)), rng.randint(0, 2))
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
    for r in range(sub.n, 0, -1):
        for pick in combinations(range(sub.n), r):
            if all(not sub.has_edge(a, b) for a, b in combinations(pick, 2)):
                return r
    return 0


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

# Torero and rational-geometric windows, each in pattern-label order.  They
# were found by interval arithmetic on the bull's constraints and by an
# anchored search over eighth-integer points; the replay alone certifies them.
_BULL = "D{O"  # bull_graph(): triangle 0,1,2 with pendants 3-0 and 4-1
_WINDOW_SCENARIOS = [
    # (name, oracle kind, pattern graph6, window, (pattern u, pattern v) perturbed)
    ("torero_delete_edge", TORERO_KIND, _BULL,
     ("9/10", "3/4", "17/40", "7/40", "2/5"), (0, 4)),
    ("torero_add_edge", TORERO_KIND, _BULL,
     ("17/20", "3/10", "4/5", "7/40", "1/10"), (1, 4)),
    ("rational_geometric_delete_E?qw", RATIONAL_GEOMETRIC_KIND, "E?qw",
     ("-33/8", "-59/8", "0/1", "2/1", "-17/4", "-9/8"), (2, 3)),
    ("rational_geometric_add_E?qw", RATIONAL_GEOMETRIC_KIND, "E?qw",
     ("13/2", "39/4", "0/1", "13/4", "53/8", "4/1"), (2, 5)),
    ("rational_geometric_delete_F?rLw", RATIONAL_GEOMETRIC_KIND, "F?rLw",
     ("-4/1", "-29/4", "0/1", "2/1", "-17/4", "-33/8", "-9/8"), (2, 3)),
    ("rational_geometric_add_F?rLw", RATIONAL_GEOMETRIC_KIND, "F?rLw",
     ("13/2", "39/4", "0/1", "13/4", "53/8", "27/4", "4/1"), (2, 6)),
    ("rational_geometric_delete_F?S|w", RATIONAL_GEOMETRIC_KIND, "F?S|w",
     ("0/1", "17/2", "2/1", "21/4", "43/8", "13/4", "9/4"), (0, 2)),
    ("rational_geometric_add_F?S|w", RATIONAL_GEOMETRIC_KIND, "F?S|w",
     ("0/1", "39/4", "13/4", "13/2", "53/8", "7/2", "4/1"), (0, 6)),
]


def _replay(report: ReplayReport, name: str, kind: OracleKind, values: list,
            pair: tuple[int, int], pattern: Graph, **details) -> None:
    """Window vertex i plays pattern vertex i, so the witness holds exactly
    when perturbing `pair` in the window gives the pattern itself."""
    window, _ = oracle_window(kind, values)
    passed = window.toggled(*pair) == pattern
    report.add(name, passed, **details, perturbed_pair=list(pair),
               embedding=list(range(pattern.n)) if passed else None)


def replay_construction_witnesses() -> ReplayReport:
    """Replay every stored perturbation witness with exact oracle adjacency."""
    report = ReplayReport()
    for name, points, pair in _Z3_SCENARIOS:
        _replay(report, name, Z3_AGREE_KIND, points, pair, final_graph_pattern())
    for name, kind, pattern, window, pair in _WINDOW_SCENARIOS:
        values = [Fraction(v) for v in window]
        _replay(report, name, kind, values, pair, parse_graph6(pattern),
                window=[fraction_to_str(v) for v in values])
    return report
