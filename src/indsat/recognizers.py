"""Structural pattern tests feeding the classifier.

Permutation graphs are recognized without search, by the lemma of Pnueli,
Lempel and Even (1971): G is a permutation graph iff G and its complement
are both comparability graphs.  Each transitive orientation comes from
Golumbic's TRO (Algorithmic Graph Theory and Perfect Graphs, 1980,
Algorithm 5.1) on the edges E_i not yet oriented: take any edge of E_i, grow
its implication class by Gamma-forcing inside E_i (a->b forces a->c when
ac is in E_i and bc is not, and c->b when cb is in E_i and ca is not), fail
if the class meets its own reverse, else add the class to the orientation
and remove it from E_i.

Realizer rule.  With T a transitive orientation of G and C one of its
complement, T + C and T + C^-1 are linear orders: a directed triangle has
two consecutive arcs from T or two from C, and transitivity closes them the
other way.  `ordering` lists the vertices by in-degree in T + C, and
`sigma[i]` is the in-degree of `ordering[i]` in T + C^-1.  A pair i < j is
then in the same order in both exactly when its arc is in T, that is, when
it is an edge.

`close_to_permutation` tries toggles only inside an obstruction.
Permutation graphs are closed under induced subgraphs, so when G[S] is not
one, no toggle of a pair without both ends in S can make G one.  Gamma-chain
lemma: whether arc ab forces arc ac or cb depends only on the adjacency
among a, b and c, so a forcing chain from an arc to its reverse, with vertex
set S, is also a chain in G[S], and G[S] is then no comparability graph.
`_gamma_chain` finds one in a single breadth-first pass over the whole edge
set (not TRO's shrinking E_i, whose membership is not local to S), in G or
else in its complement, once `_orientations` has said no.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (Graph, _bits, bull_graph, complete_multipartite, components_within,
                     is_isomorphic, is_k_connected, path_graph)

TRIVIAL_NONE = "none"
TRIVIAL_CLIQUE = "clique"
TRIVIAL_INDEPENDENT = "independent"
TRIVIAL_BOTH = "both"  # zero or one vertex: vacuously clique and independent


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
    p, m = g.n - 2, g.edge_count()
    # K_{2,p} has 2p edges and K_{1,1,p} one more; most graphs fail here.
    if p >= 3 and m == 2 * p and is_isomorphic(g, complete_multipartite(2, p)):
        return ("k2p", p)
    if p >= 2 and m == 2 * p + 1 and is_isomorphic(g, complete_multipartite(1, 1, p)):
        return ("k11p", p)
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


def _transitive_orientation(rows) -> Optional[list[int]]:
    """Out-rows of a transitive orientation of the graph with adjacency
    `rows`, or None when it has none (TRO, see the module docstring)."""
    n = len(rows)
    left = list(rows)  # E_i: the edges not yet oriented
    out = [0] * n
    for x in range(n):
        while left[x]:
            y = (left[x] & -left[x]).bit_length() - 1
            # The implication class of x->y in E_i, as out-rows and in-rows,
            # and the mask of the vertices it touches.
            cls_out, cls_in = [0] * n, [0] * n
            cls_out[x], cls_in[y] = 1 << y, 1 << x
            touched = 1 << x | 1 << y
            stack = [(x, y)]
            while stack:
                a, b = stack.pop()
                heads = left[a] & ~left[b] & ~(1 << b) & ~cls_out[a]
                tails = left[b] & ~left[a] & ~(1 << a) & ~cls_in[b]
                if heads & cls_in[a] or tails & cls_out[b]:
                    return None
                cls_out[a] |= heads
                cls_in[b] |= tails
                touched |= heads | tails
                while heads:
                    c = (heads & -heads).bit_length() - 1
                    heads &= heads - 1
                    cls_in[c] |= 1 << a
                    stack.append((a, c))
                while tails:
                    c = (tails & -tails).bit_length() - 1
                    tails &= tails - 1
                    cls_out[c] |= 1 << b
                    stack.append((c, b))
            while touched:
                v = (touched & -touched).bit_length() - 1
                touched &= touched - 1
                out[v] |= cls_out[v]
                left[v] &= ~(cls_out[v] | cls_in[v])
    return out


def _orientations(g: Graph, mask: int) -> Optional[tuple[list[int], list[int]]]:
    """Transitive orientations (T, C) of g[mask] and of its complement, as
    out-rows empty outside the mask (no subgraph is built), or None when
    g[mask] is no permutation graph."""
    rows = [row & mask if mask >> v & 1 else 0 for v, row in enumerate(g.adj)]
    t = _transitive_orientation(rows)
    if t is None:
        return None
    c = _transitive_orientation(
        [(row ^ mask) & ~(1 << v) if mask >> v & 1 else 0 for v, row in enumerate(rows)])
    return None if c is None else (t, c)


def is_permutation_graph(g: Graph) -> Optional[PermutationWitness]:
    """A realizer of g read off transitive orientations of g and its
    complement (see the module docstring); None when either has none."""
    n, adj = g.n, g.adj
    found = _orientations(g, (1 << n) - 1)
    if found is None:
        return None
    t, c = found
    ordering = [0] * n
    for v in range(n):  # out-degree in the tournament T + C is n - 1 - in-degree
        ordering[n - 1 - t[v].bit_count() - c[v].bit_count()] = v
    return PermutationWitness(tuple(ordering), tuple(
        adj[v].bit_count() - t[v].bit_count() + c[v].bit_count() for v in ordering))


def _gamma_chain(rows) -> Optional[int]:
    """Vertex mask of a Gamma-forcing chain from an arc to its reverse in the
    graph with adjacency `rows`, or None when it is a comparability graph.

    Implication classes grow over the whole edge set, breadth-first, so each
    arc's chain back to its class's first arc is a shortest one; `reach`
    maps an arc to the vertex mask of that chain."""
    n = len(rows)
    left = list(rows)  # the arcs of no class grown so far, as out-rows
    for x in range(n):
        while left[x]:
            y = (left[x] & -left[x]).bit_length() - 1
            cls_out, cls_in = [0] * n, [0] * n
            cls_out[x], cls_in[y] = 1 << y, 1 << x
            reach = {(x, y): 1 << x | 1 << y}
            queue = [(x, y)]
            for a, b in queue:
                path = reach[a, b]
                for c in _bits(rows[a] & ~rows[b] & ~(1 << b) & ~cls_out[a]):
                    if cls_in[a] >> c & 1:  # a->c forced, c->a in the class
                        return path | reach[c, a] | 1 << c
                    cls_out[a] |= 1 << c
                    cls_in[c] |= 1 << a
                    reach[a, c] = path | 1 << c
                    queue.append((a, c))
                for c in _bits(rows[b] & ~rows[a] & ~(1 << a) & ~cls_in[b]):
                    if cls_out[b] >> c & 1:  # c->b forced, b->c in the class
                        return path | reach[b, c] | 1 << c
                    cls_out[c] |= 1 << b
                    cls_in[b] |= 1 << c
                    reach[c, b] = path | 1 << c
                    queue.append((c, b))
            for v in range(n):  # the class and its reverse are done
                left[v] &= ~(cls_out[v] | cls_in[v])
    return None


def close_to_permutation(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Witness (edge, non-edge) when g is not a permutation graph but one
    deletion and one addition each yield permutation graphs.

    The witness is the first edge and the first non-edge, in `g.edges()` and
    `g.non_edges()` order, whose toggle gives a permutation graph.  Only
    pairs inside the vertex set S of a Gamma chain of G, or else of its
    complement, are tried: forcing depends only on the three vertices of a
    step, so G[S] is no permutation graph, and a toggle without both ends in
    S leaves G[S] as it is.  The pairs skipped fail anyway, so the witness is
    the one a scan of every pair finds.  When G[S] is a chordless cycle on
    k >= 7 vertices no non-edge helps: a chord inside S leaves an induced
    cycle on at least 5 vertices, which is no permutation graph.
    """
    full = (1 << g.n) - 1
    if _orientations(g, full) is not None:
        return None
    mask = _gamma_chain(g.adj)
    if mask is None:
        mask = _gamma_chain([(row ^ full) & ~(1 << v) for v, row in enumerate(g.adj)])
    if (mask.bit_count() >= 7
            and all((g.adj[v] & mask).bit_count() == 2 for v in _bits(mask))
            and len(components_within(g, mask)) == 1):
        return None

    def first_fix(pairs):
        for u, v in pairs:
            if (mask >> u & 1 and mask >> v & 1
                    and _orientations(g.toggled(u, v), full) is not None):
                return u, v
        return None

    edge_witness = first_fix(g.edges())
    if edge_witness is None:
        return None
    nonedge_witness = first_fix(g.non_edges())
    return None if nonedge_witness is None else (edge_witness, nonedge_witness)
