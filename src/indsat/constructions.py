"""Finite-prefix builders: pair blow-ups, the fixing operations and the
scheduled fix sequence.  Every graph here grows by appended blocks
(`_add_block`), so earlier vertices keep their labels.

Infinite ingredients (infinite cliques, independent sets, trees) are
truncated to m clones per class; prefix growth is capped at 64 vertices and
reports overflow instead of growing unboundedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gatekeeper import (CLIQUE_MODE, INDEP_MODE, GatekeeperResult,
                         has_fixing_operation)
from .graphs import Graph, _bits, clique_cover_at_most, find_induced
from .recognizers import match_k2p_k11p


# Prefix budget: the desk-scale cap on every graph this module constructs.
MAX_VERTICES = 64


class CapacityError(ValueError):
    """The requested prefix would exceed MAX_VERTICES."""


class PreconditionError(ValueError):
    """A fixing-strategy precondition does not hold."""


# Ledger labels of the fixing operations.
TWIN_DUPLICATE = "twin_duplicate"
GATEKEEPER_GLUE = "gatekeeper_glue"
K2P_EDGE = "k2p_edge"
K2P_NONEDGE = "k2p_nonedge"
K11P_EDGE = "k11p_edge"
K11P_NONEDGE = "k11p_nonedge"

# Strategy families of fix_pair and schedule_fixes, with the labels of their
# (edge, non-edge) variants; the pair's status picks the variant.
_LABELS = {"twin": (TWIN_DUPLICATE, TWIN_DUPLICATE),
           "gatekeeper": (GATEKEEPER_GLUE, GATEKEEPER_GLUE),
           "k2p": (K2P_EDGE, K2P_NONEDGE),
           "k11p": (K11P_EDGE, K11P_NONEDGE)}
FAMILIES = tuple(_LABELS)


# ---------------------------------------------------------------------------
# Pair blow-ups H_{uv->c} / H_{uv->s}, truncated to m clones per class.


def blowup_graph(h: Graph, pair: tuple[int, int], mode: str, m: int) -> Graph:
    """Perturb the pair, then replace every other vertex by m clones forming
    a clique (clique mode) or independent set, inheriting class adjacency.
    The pair's images are vertices 0 and 1, the clones follow in h's order."""
    u, v = pair
    if u == v:
        raise ValueError("pair vertices must be distinct")
    if mode not in (CLIQUE_MODE, INDEP_MODE):
        raise ValueError(f"bad mode {mode!r}")
    if m < 1:
        raise ValueError("truncation m must be at least 1")
    perturbed_pair = Graph.from_edges(2, [] if h.has_edge(u, v) else [(0, 1)])
    return _glue_blowup(perturbed_pair, (0, 1), h, pair, mode, m)


# ---------------------------------------------------------------------------
# Scheduling state.  Pairs are labeled (i, j): generation i is the graph in
# which the pair first appeared, j its rank among that generation's new
# pairs.  Priority follows a fixed enumeration of N x N whose initial segment
# runs (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(3,3),(1,3),(2,3),...: shell k
# (pairs with max = k) is walked column-before-row for even k and
# row-before-column for odd k.


def priority_position(i: int, j: int) -> int:
    if i < 1 or j < 1:
        raise ValueError("generation indices are 1-based")
    k = max(i, j)
    base = (k - 1) * (k - 1)
    if k == 1:
        return base
    if k % 2 == 0:
        if j == k and i < k:
            return base + i - 1
        return base + (k - 1) + (j - 1)
    if i == k:
        return base + j - 1
    return base + k + (i - 1)


@dataclass(frozen=True)
class QueueEntry:
    i: int
    j: int
    pair: tuple[int, int]

    @property
    def position(self) -> int:
        return priority_position(self.i, self.j)


@dataclass(frozen=True)
class FixRecord:
    pair: tuple[int, int]
    strategy: str
    generation: int  # generation of the graph the fix produced

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "strategy": self.strategy,
                "generation": self.generation}


@dataclass(frozen=True)
class PrefixState:
    graph: Graph
    m: int
    generation: int
    queue: tuple[QueueEntry, ...]
    fixed_ledger: tuple[FixRecord, ...]

    def fixed_pairs(self) -> set[tuple[int, int]]:
        return {rec.pair for rec in self.fixed_ledger}

    def next_unfixed(self) -> Optional[QueueEntry]:
        fixed = self.fixed_pairs()
        live = [e for e in self.queue if e.pair not in fixed]
        if not live:
            return None
        return min(live, key=lambda e: e.position)


def initial_state(seed: Graph, m: int) -> PrefixState:
    if m < 1:
        raise ValueError(f"truncation m must be at least 1, got {m}")
    pairs = [(u, v) for u in range(seed.n) for v in range(u + 1, seed.n)]
    queue = tuple(QueueEntry(1, j + 1, p) for j, p in enumerate(pairs))
    return PrefixState(graph=seed, m=m, generation=1,
                       queue=queue, fixed_ledger=())


def _advance(state: PrefixState, new_graph: Graph, pair: tuple[int, int],
             strategy: str) -> PrefixState:
    old_n = state.graph.n
    for v in range(old_n):
        if new_graph.adj[v] & ((1 << old_n) - 1) != state.graph.adj[v]:
            raise AssertionError("fix must keep the previous graph induced")
    gen = state.generation + 1
    new_pairs = [(u, v) for u in range(new_graph.n) for v in range(u + 1, new_graph.n)
                 if v >= old_n]
    entries = tuple(QueueEntry(gen, j + 1, p) for j, p in enumerate(sorted(new_pairs)))
    ledger = state.fixed_ledger + (FixRecord(pair, strategy, gen),)
    return PrefixState(graph=new_graph, m=state.m,
                       generation=gen, queue=state.queue + entries,
                       fixed_ledger=ledger)


# ---------------------------------------------------------------------------
# The fixing operations.


def _grow(g: Graph, new_rows: list[int]) -> Graph:
    """Extend g by new vertices; new_rows[i] is the neighborhood bitmask of
    new vertex g.n + i among the vertices before it."""
    n = g.n + len(new_rows)
    if n > MAX_VERTICES:
        raise CapacityError(f"graph would have {n} vertices")
    rows = list(g.adj)
    for mask in new_rows:
        v = len(rows)
        if mask >> v:  # also catches a negative mask
            raise ValueError(f"new vertex {v} may only see vertices before it")
        rows.append(mask)
        for w in _bits(mask):
            rows[w] |= 1 << v
    return Graph._derived(n, rows)


def _twin_duplicate(g: Graph, pair: tuple[int, int]) -> Graph:
    """Twin duplication: false twins fix an edge, true twins a non-edge."""
    x, y = pair
    if g.has_edge(x, y):
        g1 = _grow(g, [g.adj[x]])                    # x' with N(x') = N(x)
        return _grow(g1, [g1.adj[y]])                # y' with N(y') = N(y), sees x'
    g1 = _grow(g, [g.adj[x] | 1 << x])               # x' true twin, adjacent to x
    return _grow(g1, [g1.adj[y] | 1 << y])


def _mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def _add_block(g: Graph, size: int, attach_mask: int, clique: bool) -> tuple[Graph, list[int]]:
    base = g.n
    rows = []
    for idx in range(size):
        mask = attach_mask
        if clique:
            for prev in range(idx):
                mask |= 1 << (base + prev)
        rows.append(mask)
    return _grow(g, rows), list(range(base, base + size))


def _glue_blowup(g: Graph, at: tuple[int, int], h: Graph, pair: tuple[int, int],
                 mode: str, m: int) -> Graph:
    """Append the m-clone blow-up of h perturbed at `pair` onto g, with the
    pair's images identified with the vertices `at` of g (whose status must
    match the perturbed pair).  Each other vertex of h, in h's order, becomes
    one block that sees the images of its perturbed neighbors placed so far."""
    perturbed = h.toggled(*pair)
    image = {pair[0]: 1 << at[0], pair[1]: 1 << at[1]}
    for w in range(h.n):
        if w not in image:
            attach = 0
            for nb in perturbed.neighbors(w):
                attach |= image.get(nb, 0)
            g, block = _add_block(g, m, attach, clique=mode == CLIQUE_MODE)
            image[w] = _mask(block)
    return g


def _gatekeeper_fix(g: Graph, pair: tuple[int, int], h: Graph, m: int,
                    gatekeepers: Optional[GatekeeperResult]) -> Graph:
    """Glue a blown-up copy of h, perturbed at a gatekeeper pair of the
    opposite status, onto the pair being fixed."""
    is_edge = g.has_edge(*pair)
    if gatekeepers is None:
        gatekeepers = has_fixing_operation(h)
    # Deleting an edge must re-create h with a non-edge of h landing on the
    # pair, so an edge fix consumes h's non-edge gatekeeper; dually for edges.
    if is_edge:
        hpair, mode = gatekeepers.nonedge_witness, gatekeepers.nonedge_mode
    else:
        hpair, mode = gatekeepers.edge_witness, gatekeepers.edge_mode
    if hpair is None:
        raise PreconditionError(
            f"h has no {'non-edge' if is_edge else 'edge'} gatekeeper to fix this pair")
    return _glue_blowup(g, pair, h, hpair, mode, m)


def _k2p_fix(g: Graph, pair: tuple[int, int], p: int, m: int, edge: bool) -> Graph:
    x, y = pair
    if edge:
        # Independent set joined to both endpoints (a K_{1,1,m} gluing).
        return _add_block(g, m, _mask([x, y]), clique=False)[0]
    # Clique W sees x; cliques W_1..W_{p-1} each see y and all of W.
    g1, w_block = _add_block(g, m, _mask([x]), clique=True)
    for _ in range(p - 1):
        g1, _block = _add_block(g1, m, _mask([y]) | _mask(w_block), clique=True)
    return g1


def _k11p_edge_fix(g: Graph, pair: tuple[int, int], p: int, m: int) -> Graph:
    x, y = pair
    common = [w for w in range(g.n) if g.has_edge(x, w) and g.has_edge(y, w)]
    if not clique_cover_at_most(g, common, p - 2):
        raise PreconditionError(f"common neighbors {common} of pair {pair} "
                                f"not coverable by {p - 2} cliques")
    # Tree with root of degree 1 and inner degree p-1, cut after two levels
    # and blown into m-cliques; the root's blow-up is the glued pair itself,
    # so its one child block sees x and y, and p-2 blocks below see that one.
    g1, t_block = _add_block(g, m, _mask([x, y]), clique=True)
    for _child in range(p - 2):
        g1 = _add_block(g1, m, _mask(t_block), clique=True)[0]
    return g1


def fix_pair(state: PrefixState, pair: tuple[int, int], family: str, h: Graph,
             gatekeepers: Optional[GatekeeperResult] = None) -> PrefixState:
    """Apply one fixing operation of the family to a pair of the current
    prefix graph; the pair's status picks the edge or non-edge variant.

    For k2p and k11p, h must be the core pattern itself (its p is read off by
    the recognizer).  The pair joins the fixed ledger under the variant's
    label; checking the fix is the verifier's job.
    """
    g = state.graph
    x, y = pair
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"pair {pair} not in the current graph")
    if family not in _LABELS:
        raise ValueError(f"unknown strategy family {family!r}; pick one of {FAMILIES}")
    is_edge = g.has_edge(x, y)

    if family == "twin":
        new_graph = _twin_duplicate(g, pair)
    elif family == "gatekeeper":
        new_graph = _gatekeeper_fix(g, pair, h, state.m, gatekeepers)
    else:
        match = match_k2p_k11p(h)
        if match is None or match[0] != family:
            shape = "K_{2,p}" if family == "k2p" else "K_{1,1,p}"
            raise PreconditionError(
                f"{family.upper()} strategies need h to be a {shape} pattern")
        if family == "k2p":
            # Deleting an edge fixed here leaves its ends with m common,
            # mutually independent neighbours: an induced K_{2,m}, which
            # contains K_{2,p} only when m >= p.
            if state.m < match[1]:
                raise PreconditionError(
                    f"K_{{2,p}} strategies need m >= p = {match[1]}, got m = {state.m}")
            new_graph = _k2p_fix(g, pair, match[1], state.m, edge=is_edge)
        elif is_edge:
            new_graph = _k11p_edge_fix(g, pair, match[1], state.m)
        else:
            new_graph = _add_block(g, state.m, _mask(pair), clique=False)[0]
    return _advance(state, new_graph, pair, _LABELS[family][not is_edge])


# ---------------------------------------------------------------------------
# Scheduled fixing.


def schedule_fixes(seed: Graph, h: Graph, steps: int, m: int,
                   family: str) -> list[PrefixState]:
    """Run the scheduled fixing loop: at each step fix the highest-priority
    unfixed pair.  Returns seed state plus one state per completed step;
    stops early (without error) if the vertex cap is reached."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if seed.n < 2:
        raise ValueError("seed needs at least two vertices to have a pair")
    if find_induced(seed, h) is not None:
        raise PreconditionError("seed must avoid the pattern being fixed against")
    gatekeepers = has_fixing_operation(h) if family == "gatekeeper" else None
    states = [initial_state(seed, m)]
    for _ in range(steps):
        state = states[-1]
        entry = state.next_unfixed()
        if entry is None:
            break
        try:
            states.append(fix_pair(state, entry.pair, family, h,
                                   gatekeepers=gatekeepers))
        except CapacityError:
            break
    return states

