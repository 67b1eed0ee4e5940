"""Independent brute-force oracles the fast implementations are tested against.

Everything here is written definition-first (permutations, set arithmetic,
dict adjacency) and stays independent of the bitset code paths it checks.
The oracle constructions are decided from their definitions too, with pi and
sqrt(2) evaluated by mpmath rather than through `indsat.oracles`, and
`naive_classify` composes the decision pipeline from these oracles, cores
found as largest rule-free vertex sets, and networkx.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import mpmath
import networkx as nx

from indsat.graphs import Graph
from indsat.verifier import EXHAUSTIVE_PAIRSET_LIMIT, PairFixedResult


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


def naive_first_cut(g: Graph, allowed: set[int], k: int):
    """The first vertex set of size < k whose removal disconnects g[allowed]:
    sizes in increasing order, each in `combinations` order over the sorted
    `allowed`.  None when no such set exists."""
    outside = set(range(g.n)) - set(allowed)
    for size in range(k):
        for cut in combinations(sorted(allowed), size):
            if len(naive_components(g, outside | set(cut))) != 1:
                return set(cut)
    return None


def naive_has_3conn_subset(g: Graph) -> bool:
    """Try vertex subsets in decreasing size for a 3-connected induced
    subgraph on at least 5 vertices."""
    for size in range(g.n, 4, -1):
        for subset in combinations(range(g.n), size):
            if naive_k_connected(g.induced(list(subset)), 3):
                return True
    return False


@lru_cache(maxsize=None)
def naive_shortcut_free(a_size: int) -> tuple:
    """The structure12 configurations on |A| = a_size (each a tuple of
    12 - a_size missed pairs, in `combinations_with_replacement` order) in
    which no three missed pairs leave three A-vertices outside all of them,
    that is, with no induced K_{3,3}."""
    pairs = list(combinations(range(a_size), 2))
    return tuple(missed for missed in combinations_with_replacement(pairs, 12 - a_size)
                 if all(a_size - len(set(x) | set(y) | set(z)) < 3
                        for x, y, z in combinations(missed, 3)))


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


def naive_induced_saturated(g: Graph, h: Graph):
    """induced_saturated by definition: every perturbed graph is searched
    whole.  Pairs with a twin come first, each group in lexicographic order."""
    if g.n < 2 or naive_find_induced(g, h) is not None:
        return False, None
    pairs = list(combinations(range(g.n), 2))
    twin_pairs = [(u, v) for u, v in pairs if any(v in kind for kind in naive_twins(g, u))]
    for pair in twin_pairs + [p for p in pairs if p not in twin_pairs]:
        if naive_find_induced(g.toggled(*pair), h) is None:
            return False, pair
    return True, None


def naive_pair_fixed_check(g: Graph, h: Graph, pair: tuple[int, int],
                           adversary_budget: int = 0, trials: int = 0,
                           seed: int = 0) -> PairFixedResult:
    """pair_fixed_check by definition: the same adversary sets in the same
    order, each perturbed graph searched whole."""
    u, v = pair
    others = ([p for p in combinations(range(g.n), 2) if p != (min(pair), max(pair))]
              if adversary_budget >= 1 else [])
    sets = []  # (extra pairs, sizes covered exhaustively before them)
    done = 0
    for size in range(min(adversary_budget, 2) + 1):
        if comb(len(others), size) > EXHAUSTIVE_PAIRSET_LIMIT:
            break
        sets += [(extra, done) for extra in combinations(others, size)]
        done = size
    if adversary_budget >= 1 and others:
        rng = random.Random(seed)
        for _ in range(trials):
            size = rng.randint(1, adversary_budget)
            sets.append((tuple(rng.sample(others, min(size, len(others)))), done))
    for checked, (extra, before) in enumerate(sets, 1):
        perturbed = g
        for a, b in ((u, v),) + extra:
            perturbed = perturbed.toggled(a, b)
        if naive_find_induced(perturbed, h) is None:
            return PairFixedResult("fail", ((u, v),) + extra, adversary_budget, trials,
                                   seed, checked, before)
    return PairFixedResult("pass", None, adversary_budget, trials, seed, len(sets), done)


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


def naive_permutation_realizer(rows):
    """(ordering, sigma) of the graph with adjacency bitmask rows `rows`, or
    None: backtracking over the vertex ordering, exponential in the worst case.

    Once a prefix of the ordering is placed, the second order on the placed
    vertices is forced (edge means "same relative order", non-edge means
    "opposite"), so each new vertex either slots into the forced order or the
    branch dies.  A vertex with no slot now never gets one, since later
    insertions only subdivide the forced order."""
    n = len(rows)
    placed, second = [], []  # the ordering prefix, the forced second order

    def slot(w):
        # The placed neighbors of w must be exactly a bottom segment of `second`.
        pos = 0
        while pos < len(second) and rows[w] >> second[pos] & 1:
            pos += 1
        if any(rows[w] >> u & 1 for u in second[pos + 1:]):
            return None
        return pos

    def extend():
        if len(placed) == n:
            return True
        options = []
        for w in range(n):
            if w not in placed:
                pos = slot(w)
                if pos is None:
                    return False
                options.append((w, pos))
        for w, pos in options:
            placed.append(w)
            second.insert(pos, w)
            if extend():
                return True
            placed.pop()
            second.pop(pos)
        return False

    if not extend():
        return None
    return tuple(placed), tuple(second.index(v) for v in placed)


def naive_close_to_permutation(g: Graph, is_permutation):
    """(edge, non-edge) from a scan of every edge, then every non-edge, in
    `g.edges()` / `g.non_edges()` order: the first of each whose toggle
    `is_permutation` accepts, when g itself is rejected.  The recognizer is
    passed in, so this module imports none."""
    if is_permutation(g):
        return None
    edge = next((e for e in g.edges() if is_permutation(g.toggled(*e))), None)
    if edge is None:
        return None
    nonedge = next((f for f in g.non_edges() if is_permutation(g.toggled(*f))), None)
    return None if nonedge is None else (edge, nonedge)


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(rng, n: int) -> Graph:
    """Random recursive tree: vertex i > 0 hangs from a uniform earlier one."""
    return Graph.from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


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


def naive_blowup_graph(h: Graph, pair: tuple[int, int], mode: str,
                       m: int) -> tuple[Graph, tuple[int, int]]:
    """The pair blow-up from an edge list, classes numbered in h's order: the
    pair is perturbed and every other vertex becomes m clones (a clique in
    clique mode, independent otherwise) inheriting the perturbed adjacency.
    Returns the graph and the pair's images."""
    u, v = pair
    perturbed = h.toggled(u, v)
    classes = {}
    nxt = 0
    for w in range(h.n):
        size = 1 if w in (u, v) else m
        classes[w] = range(nxt, nxt + size)
        nxt += size
    edges = []
    for w in range(h.n):
        if w not in (u, v) and mode == "clique":
            edges.extend(combinations(classes[w], 2))
        for w2 in range(w + 1, h.n):
            if perturbed.has_edge(w, w2):
                edges.extend((a, b) for a in classes[w] for b in classes[w2])
    return Graph.from_edges(nxt, edges), (classes[u][0], classes[v][0])


def naive_glue(g: Graph, g2: Graph, a, a2) -> Graph:
    """Glue g2 onto g identifying a2[i] with a[i]: the other vertices of g2
    follow g's in g2's order, and the edges are both edge lists mapped."""
    if len(a) != len(a2):
        raise ValueError("glue lists must have equal length")
    if len(set(a)) != len(a) or len(set(a2)) != len(a2):
        raise ValueError("glue lists must not repeat vertices")
    rest = [w for w in range(g2.n) if w not in a2]
    image = {**dict(zip(a2, a)), **{w: g.n + i for i, w in enumerate(rest)}}
    edges = g.edges() + [(image[w], image[w2]) for w, w2 in g2.edges()]
    return Graph.from_edges(g.n + len(rest), edges)


@lru_cache(maxsize=None)
def _constants(digits: int):
    """pi, sqrt(2) and 10**(10 - digits) to `digits` digits."""
    with mpmath.workdps(digits):
        return +mpmath.pi, mpmath.sqrt(2), mpmath.mpf(10) ** (10 - digits)


def _signs(values, scale) -> list[int]:
    """Signs of the nonzero reals `values(pi, sqrt2)`, computed in mpmath at
    30 digits, then 60, 120, ... until every |x| > scale * 10**(10 - digits),
    far above the rounding error of terms no larger than `scale`."""
    digits = 30
    while True:
        with mpmath.workdps(digits):
            pi, root2, tiny = _constants(digits)
            xs = values(pi, root2)
            least = scale * tiny
            if all(abs(x) > least for x in xs):
                return [1 if x > 0 else -1 for x in xs]
        digits *= 2


def _real(q):
    return mpmath.mpf(q.numerator) / q.denominator


def naive_oracle_adjacent(kind, u, v) -> bool:
    """Adjacency of two distinct vertices, read off each construction."""
    if kind.tag == "torero":  # rationals in (0, 1) summing to more than 1
        return u + v > 1
    if kind.tag == "rational_geometric":  # rationals closer than pi
        gap = abs(u - v)
        return _signs(lambda pi, _: [_real(gap) - pi], 1 + gap) == [-1]
    if kind.tag == "up_right":
        # Up and right in the plane with axes q + r sqrt(2) and q - r sqrt(2);
        # for b = 0 both are a, which distinct vertices make nonzero.
        a, b = u[0] - v[0], u[1] - v[1]

        def forms(_, root2):
            x, y = _real(a), _real(b) * root2
            return [x + y, x - y]
        plus, minus = _signs(forms, 1 + abs(a) + 2 * abs(b))
        return plus == minus
    if kind.tag == "grid_clique":  # exactly one coordinate differs
        return sum(a != b for a, b in zip(u, v)) == 1
    # z3_agree: at least one of the three coordinates agrees.
    return any(a == b for a, b in zip(u[0], v[0]))


def naive_oracle_window(kind, vertices) -> Graph:
    """The window graph with every pair decided by `naive_oracle_adjacent`."""
    return Graph.from_edges(len(vertices), [
        (i, j) for i, j in combinations(range(len(vertices)), 2)
        if naive_oracle_adjacent(kind, vertices[i], vertices[j])])


# ---------------------------------------------------------------------------
# The decision pipeline by definition.  Case names and the special table are
# spelled out again, so that no classifier code is imported.  The table lists
# all five circulating graph6 keys; F?q|w comes last, so F?rLw complemented
# matches it first, as in the library's four-key table.

_SPECIAL_KEYS = (("E?qw", "special_rational_geometric"),
                 ("F?rLw", "special_rational_geometric"),
                 ("F?S|w", "special_rational_geometric"),
                 ("F?q~w", "special_z3"),
                 ("F?q|w", "special_rational_geometric"))


def _nx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _complement(g: Graph) -> Graph:
    return Graph.from_edges(g.n, [(u, v) for u, v in combinations(range(g.n), 2)
                                  if not g.has_edge(u, v)])


def _induced(g: Graph, vertices) -> Graph:
    return Graph.from_edges(len(vertices), [
        (i, j) for i, j in combinations(range(len(vertices)), 2)
        if g.has_edge(vertices[i], vertices[j])])


# Per core kind: the least degree and the least non-degree a vertex may keep.
# The 2-edge- and 2-non-edge-cores also drop a degree-2 vertex whose two
# neighbours are adjacent (resp. non-adjacent); the 3*-core also drops a pair
# with at most two neighbours outside it.
_FLOORS = {"two": (2, 0), "three": (3, 0), "one_one": (1, 1), "three_star": (3, 0),
           "two_edge": (2, 0), "two_nonedge": (2, 0)}


def _rule_free(g: Graph, subset, kind: str) -> bool:
    """Does no removal rule of the core `kind` fire on g[subset]?"""
    nbrs = {v: {w for w in subset if g.has_edge(v, w)} for v in subset}
    least_degree, least_nondegree = _FLOORS[kind]
    for v in subset:
        degree = len(nbrs[v])
        if degree < least_degree or len(subset) - 1 - degree < least_nondegree:
            return False
        if kind in ("two_edge", "two_nonedge") and degree == 2:
            a, b = nbrs[v]
            if g.has_edge(a, b) == (kind == "two_edge"):
                return False
    return kind != "three_star" or all(
        len(nbrs[u] | nbrs[v] | {u, v}) > 4 for u, v in combinations(subset, 2))


def naive_core(g: Graph, kind: str) -> Graph:
    """The core of the given kind (a key of `_FLOORS`) as the largest vertex
    set on which no rule fires, relabelled in vertex order.  No rule fires
    more as the set grows (degrees and non-degrees grow, and a vertex of
    degree 2 in the larger set had the same two neighbours in the smaller
    one), so these sets are closed under union and the largest is unique:
    it is what any peeling order leaves."""
    for size in range(g.n, -1, -1):
        for subset in combinations(range(g.n), size):
            if _rule_free(g, subset, kind):
                return _induced(g, subset)
    raise AssertionError("the empty set is rule-free")


def _isomorphic(g: Graph, other) -> bool:
    return nx.is_isomorphic(_nx(g), other)


def naive_has_fixing_operation(g: Graph) -> bool:
    """Has the 2-connected non-complete g an edge and a non-edge that are
    gatekeepers and admit a blow-up mode (clique when neither end has a true
    twin, else independent when neither has a false twin)?"""
    if not naive_k_connected(g, 2) or len(g.edges()) == g.n * (g.n - 1) // 2:
        return False

    def has_mode(pair) -> bool:
        (true_u, false_u), (true_v, false_v) = naive_twins(g, pair[0]), naive_twins(g, pair[1])
        return not (true_u or true_v) or not (false_u or false_v)
    return all(any(has_mode(pair) and naive_gatekeeper(g, pair, kind) for pair in pairs)
               for kind, pairs in (("edge", g.edges()), ("nonedge", g.non_edges())))


_BULL = nx.Graph([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])


def _first_case(g: Graph):
    """The first case that fires on one orientation, in the library's order,
    or None."""
    degrees = [d for _, d in _nx(g).degree()]
    if nx.is_forest(_nx(g)) and max(degrees) > 1 and degrees.count(max(degrees)) == 1:
        return "forest_unique_max"
    two = naive_core(g, "two")
    p = two.n - 2
    if p >= 3 and _isomorphic(two, nx.complete_multipartite_graph(2, p)):
        return "core_k2p"
    if p >= 2 and _isomorphic(two, nx.complete_multipartite_graph(1, 1, p)):
        return "core_k11p"
    for kind in ("three", "three_star"):
        c = naive_core(g, kind)
        if 0 < len(c.edges()) < c.n * (c.n - 1) // 2 and naive_k_connected(c, 3):
            return "core_3conn"
    c = naive_core(g, "one_one")
    if _isomorphic(c, nx.path_graph(4)) or _isomorphic(c, _BULL):
        return "core_11_bull_p4"
    if naive_close_to_permutation(g, lambda x: naive_permutation_realizer(x.adj) is not None):
        return "close_to_permutation"
    if any(naive_has_fixing_operation(naive_core(g, kind))
           for kind in ("two", "three", "two_edge", "two_nonedge")):
        return "core_gatekeeper"
    return None


def naive_classify(h: Graph) -> tuple[str, bool]:
    """(case, complemented) of `indsat.classifier.classify`, by definition:
    trivial graphs, then the first case on h and then on its complement,
    then the special table, direct before complemented for each key."""
    m = len(h.edges())
    if h.n <= 1 or m in (0, h.n * (h.n - 1) // 2):
        return "not_applicable_trivial", False
    for complemented, g in ((False, h), (True, _complement(h))):
        case = _first_case(g)
        if case is not None:
            return case, complemented
    for key, case in _SPECIAL_KEYS:
        for complemented, g in ((False, h), (True, _complement(h))):
            if _isomorphic(g, nx.from_graph6_bytes(key.encode())):
                return case, complemented
    return ("theorem_violation" if h.n >= 12 else "unclassified"), False
