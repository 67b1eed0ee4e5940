"""Independent brute-force oracles the fast implementations are tested against.

Everything here is written definition-first (permutations, set arithmetic,
dict adjacency) and stays independent of the bitset code paths it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from indsat.graphs import Graph
from indsat.oracles import compare_to_pi
from indsat.verifier import _rg_pool


def naive_find_induced(host: Graph, pattern: Graph, anchors=None):
    """Try every injection pattern -> host extending the `anchors` dict;
    return one induced embedding."""
    anchors = anchors or {}
    free = [p for p in range(pattern.n) if p not in anchors]
    spare = [v for v in range(host.n) if v not in anchors.values()]
    for picked in permutations(spare, len(free)):
        where = {**anchors, **dict(zip(free, picked))}
        image = tuple(where[p] for p in range(pattern.n))
        if all(pattern.has_edge(p, q) == host.has_edge(image[p], image[q])
               for p, q in combinations(range(pattern.n), 2)):
            return image
    return None


def _adjacency_sets(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in range(g.n)}


def naive_components(g: Graph, removed: set[int]) -> list[set[int]]:
    adj = _adjacency_sets(g)
    left = set(range(g.n)) - removed
    comps = []
    while left:
        start = left.pop()
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in left:
                    left.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def naive_is_connected(g: Graph) -> bool:
    return g.n > 0 and len(naive_components(g, set())) == 1


def naive_2cuts(g: Graph) -> set[tuple[int, int]]:
    out = set()
    for u, v in combinations(range(g.n), 2):
        if len(naive_components(g, {u, v})) >= 2:
            out.add((u, v))
    return out


def naive_k_connected(g: Graph, k: int) -> bool:
    if g.n < k + 1:
        return False
    for size in range(k):
        for cut in combinations(range(g.n), size):
            if len(naive_components(g, set(cut))) != 1:
                return False
    return True


def naive_has_3conn_subset(g: Graph) -> bool:
    """Try vertex subsets in decreasing size for a 3-connected induced
    subgraph on at least 5 vertices."""
    for size in range(g.n, 4, -1):
        for subset in combinations(range(g.n), size):
            if naive_k_connected(g.induced(list(subset)), 3):
                return True
    return False


def naive_has_cycle(g: Graph) -> bool:
    adj = _adjacency_sets(g)
    seen: set[int] = set()
    for root in range(g.n):
        if root in seen:
            continue
        stack = [(root, -1)]
        seen.add(root)
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:
                    continue
                if w in seen:
                    return True
                seen.add(w)
                stack.append((w, v))
    return False


def naive_clique_cover_at_most(g: Graph, vertices, budget: int) -> bool:
    """Try every labeling of `vertices` by `budget` labels; a cover exists
    when some labeling makes each label class a clique."""
    for labels in product(range(budget), repeat=len(vertices)):
        if all(labels[i] != labels[j] or g.has_edge(vertices[i], vertices[j])
               for i, j in combinations(range(len(vertices)), 2)):
            return True
    return False


def naive_twins(g: Graph, v: int) -> tuple[list[int], list[int]]:
    adj = _adjacency_sets(g)
    true_twins = [u for u in range(g.n)
                  if u != v and adj[u] | {u} == adj[v] | {v}]
    false_twins = [u for u in range(g.n) if u != v and adj[u] == adj[v]]
    return true_twins, false_twins


def naive_is_permutation_graph(g: Graph) -> bool:
    """Definitional double loop over (ordering, sigma); exponential, n <= 6."""
    n = g.n
    if n <= 1:
        return True
    vertices = list(range(n))
    for ordering in permutations(vertices):
        for sigma in permutations(range(n)):
            if all(g.has_edge(ordering[i], ordering[j]) == (sigma[i] < sigma[j])
                   for i in range(n) for j in range(i + 1, n)):
                return True
    return False


def naive_rg_host(r: Fraction) -> tuple[list[Fraction], list[int]]:
    """Pool values and adjacency masks of the rational-geometric witness
    host for span r: one exact pi comparison per vertex pair, then the pair
    {0, r} perturbed."""
    pool_vals = [Fraction(0), r]
    pool_vals += [v for v in _rg_pool(r, Fraction(1, 8)) if v not in pool_vals]
    npool = len(pool_vals)
    masks = [0] * npool
    for i in range(npool):
        for j in range(i + 1, npool):
            adj = compare_to_pi(abs(pool_vals[i] - pool_vals[j])) < 0
            if i == 0 and j == 1:
                adj = not adj
            if adj:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return pool_vals, masks


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def naive_gatekeeper(h: Graph, pair: tuple[int, int], kind: str) -> bool:
    """Is `pair` (an "edge" or a "nonedge" of h, per `kind`) a gatekeeper?

    By definition: no marked fragment h[C + {u,v}], for a 2-cut {u,v} of h
    and a component C of h - {u,v}, embeds induced in h with `pair` deleted
    (edge) or added (non-edge), red pair {u,v} landing on `pair` in either
    order.  Every 2-cut is tried: one whose status differs from the
    perturbed pair's cannot land there, and the embedding check says so.
    """
    x, y = sorted(pair)
    edges = set(h.edges())
    host = Graph.from_edges(h.n, edges - {(x, y)} if kind == "edge" else edges | {(x, y)})
    for u, v in naive_2cuts(h):
        for comp in naive_components(h, {u, v}):
            vertices = sorted(comp) + [u, v]
            fragment = Graph.from_edges(len(vertices), [
                (i, j) for i, j in combinations(range(len(vertices)), 2)
                if h.has_edge(vertices[i], vertices[j])])
            red_u, red_v = len(vertices) - 2, len(vertices) - 1
            for anchors in ({red_u: x, red_v: y}, {red_u: y, red_v: x}):
                if naive_find_induced(host, fragment, anchors) is not None:
                    return False
    return True
