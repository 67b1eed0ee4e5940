"""Structural pattern tests feeding the classifier.

Permutation-graph recognition is deliberately brute force: backtracking over
the vertex ordering with incremental consistency pruning.  Inputs stay at or
below 13 vertices, and an exhaustive search is easier to trust and test than
a decomposition-based recognizer.

`close_to_permutation` tries toggles only inside a minimal obstruction.
Permutation graphs are closed under induced subgraphs, so when G[S] is not
one, no toggle of a pair without both ends in S can make G one.  S is shrunk
from V in one pass, dropping each vertex whose removal leaves G[S] no
permutation graph; no vertex of the S left can then be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, bull_graph, components_within, is_isomorphic,
                     is_k_connected, path_graph)

PERMUTATION_BUDGET = 13

TRIVIAL_NONE = "none"
TRIVIAL_CLIQUE = "clique"
TRIVIAL_INDEPENDENT = "independent"
TRIVIAL_BOTH = "both"  # zero or one vertex: vacuously clique and independent


class BudgetError(ValueError):
    """Input exceeds the search budget of a brute-force recognizer."""


def classify_trivial(g: Graph) -> str:
    if g.n <= 1:
        return TRIVIAL_BOTH
    m = g.edge_count()
    if m == g.n * (g.n - 1) // 2:
        return TRIVIAL_CLIQUE
    if m == 0:
        return TRIVIAL_INDEPENDENT
    return TRIVIAL_NONE


def is_forest(g: Graph) -> bool:
    return g.edge_count() == g.n - len(components_within(g, (1 << g.n) - 1))


def forest_unique_max(g: Graph) -> Optional[tuple[int, int]]:
    """(center, d) when g is a forest whose maximum degree d > 1 is attained once."""
    if g.n == 0 or not is_forest(g):
        return None
    degrees = [g.degree(v) for v in range(g.n)]
    d = max(degrees)
    if d <= 1 or degrees.count(d) != 1:
        return None
    return degrees.index(d), d


def match_k2p_k11p(g: Graph) -> Optional[tuple[str, int]]:
    """Recognize K_{2,p} (p >= 3) or K_{1,1,p} (p >= 2) up to isomorphism."""
    n = g.n
    p = n - 2
    if p < 2:
        return None
    small = [v for v in range(n) if g.degree(v) == 2]
    if len(small) != p:
        return None
    # The p-side must be independent; the two remaining vertices must cover it.
    big = [v for v in range(n) if v not in small]
    if len(big) != 2:
        return None
    u, v = big
    for a in small:
        if not (g.has_edge(a, u) and g.has_edge(a, v)):
            return None
        for b in small:
            if a < b and g.has_edge(a, b):
                return None
    if g.has_edge(u, v):
        # Apexes must be universal for K_{1,1,p}.
        if g.degree(u) == n - 1 and g.degree(v) == n - 1:
            return ("k11p", p)
        return None
    if p >= 3 and g.degree(u) == p and g.degree(v) == p:
        return ("k2p", p)
    return None


def is_bull_or_p4(g: Graph) -> bool:
    return is_isomorphic(g, path_graph(4)) or is_isomorphic(g, bull_graph())


def is_3conn_nonclique(g: Graph) -> bool:
    return classify_trivial(g) == TRIVIAL_NONE and is_k_connected(g, 3)


# ---------------------------------------------------------------------------
# Permutation graphs.  A graph is a permutation graph when its vertices admit
# an ordering v_0..v_{n-1} and a permutation sigma such that, for i < j, the
# edge v_iv_j is present exactly when sigma(i) < sigma(j).


@dataclass(frozen=True)
class PermutationWitness:
    ordering: tuple[int, ...]
    sigma: tuple[int, ...]


def check_permutation_witness(g: Graph, w: PermutationWitness) -> bool:
    n = g.n
    if sorted(w.ordering) != list(range(n)) or sorted(w.sigma) != list(range(n)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if g.has_edge(w.ordering[i], w.ordering[j]) != (w.sigma[i] < w.sigma[j]):
                return False
    return True


def is_permutation_graph(g: Graph) -> Optional[PermutationWitness]:
    """Search for a permutation representation; None when there is none.

    Once a prefix of the ordering is placed, the second order on the placed
    vertices is forced (edge means "same relative order", non-edge means
    "opposite"), so the search only has to find an ordering whose forced
    second order stays consistent.  Each new vertex either slots into the
    forced order or the branch dies.
    """
    n = g.n
    if n > PERMUTATION_BUDGET:
        raise BudgetError(f"permutation search budget is {PERMUTATION_BUDGET} vertices, got {n}")
    if n == 0:
        return PermutationWitness((), ())

    adj = g.adj
    placed: list[int] = []      # ordering prefix
    second: list[int] = []      # the forced second order, bottom to top

    def insert_position(w: int) -> Optional[int]:
        # Vertices below w in the second order must be exactly the placed
        # vertices adjacent to w, i.e. the adjacency pattern along `second`
        # must read True* False*.
        aw = adj[w]
        m = len(second)
        pos = 0
        while pos < m and aw >> second[pos] & 1:
            pos += 1
        for i in range(pos + 1, m):
            if aw >> second[i] & 1:
                return None
        return pos

    def backtrack(placed_mask: int) -> bool:
        if len(placed) == n:
            return True
        # A vertex with no valid slot now can never get one: later insertions
        # only subdivide the already-forced order.  Fail the branch outright.
        options = []
        for w in range(n):
            if placed_mask >> w & 1:
                continue
            pos = insert_position(w)
            if pos is None:
                return False
            options.append((w, pos))
        for w, pos in options:
            placed.append(w)
            second.insert(pos, w)
            if backtrack(placed_mask | 1 << w):
                return True
            placed.pop()
            second.pop(pos)
        return False

    if not backtrack(0):
        return None
    rank = {v: r for r, v in enumerate(second)}
    return PermutationWitness(tuple(placed), tuple(rank[v] for v in placed))


def close_to_permutation(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Witness (edge, non-edge) when g is not a permutation graph but one
    deletion and one addition each yield permutation graphs.

    The witness is the first edge and the first non-edge, in `g.edges()` and
    `g.non_edges()` order, whose toggle gives a permutation graph; only pairs
    inside an obstruction are tried.  Permutation graphs are closed under
    induced subgraphs, so if G[S] is not one, toggling a pair without both
    ends in S leaves G[S], and the result is no permutation graph either.
    S is shrunk from V in one pass, dropping v whenever G[S - v] is still
    no permutation graph.  The result is minimal: a kept v had G[S' - v] a
    permutation graph for some S' containing the final S, and so G[S - v]
    is one too.  The pairs skipped fail anyway, so the witness is the one a
    scan of every pair finds.
    """
    if g.n > PERMUTATION_BUDGET:
        raise BudgetError(f"permutation search budget is {PERMUTATION_BUDGET} vertices, got {g.n}")
    if is_permutation_graph(g) is not None:
        return None
    inside = list(range(g.n))
    for v in range(g.n):
        rest = [w for w in inside if w != v]
        if is_permutation_graph(g.induced(rest)) is None:
            inside = rest
    mask = sum(1 << v for v in inside)

    def first_fix(pairs):
        for u, v in pairs:
            if (mask >> u & 1 and mask >> v & 1
                    and is_permutation_graph(g.toggled(u, v)) is not None):
                return u, v
        return None

    edge_witness = first_fix(g.edges())
    if edge_witness is None:
        return None
    nonedge_witness = first_fix(g.non_edges())
    return None if nonedge_witness is None else (edge_witness, nonedge_witness)
