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

from .gatekeeper import CLIQUE_MODE, INDEP_MODE, has_fixing_operation
from .graphs import Graph, _bits, clique_cover_at_most
from .recognizers import match_k2p_k11p
from .verifier import is_free


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
    h._check_pair(u, v)
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
    position: int  # priority_position(i, j), computed once by _queue_entries


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
    queue: tuple[QueueEntry, ...]  # in priority order
    fixed_ledger: tuple[FixRecord, ...]

    def next_unfixed(self) -> Optional[QueueEntry]:
        fixed = {rec.pair for rec in self.fixed_ledger}
        return next((e for e in self.queue if e.pair not in fixed), None)


def _queue_entries(gen: int, n: int, old_n: int) -> tuple[QueueEntry, ...]:
    """Generation gen's queue entries: the pairs of an n-vertex graph with an
    endpoint at old_n or later, ranked in lexicographic order."""
    pairs = [(u, v) for u in range(n) for v in range(max(u + 1, old_n), n)]
    return tuple(QueueEntry(gen, j, p, priority_position(gen, j))
                 for j, p in enumerate(pairs, start=1))


def initial_state(seed: Graph, m: int) -> PrefixState:
    if m < 1:
        raise ValueError(f"truncation m must be at least 1, got {m}")
    return PrefixState(graph=seed, m=m, generation=1,
                       queue=_queue_entries(1, seed.n, 0), fixed_ledger=())


def _advance(state: PrefixState, new_graph: Graph, pair: tuple[int, int],
             strategy: str) -> PrefixState:
    gen = state.generation + 1
    entries = _queue_entries(gen, new_graph.n, state.graph.n)
    ledger = state.fixed_ledger + (FixRecord(pair, strategy, gen),)
    return PrefixState(graph=new_graph, m=state.m, generation=gen, fixed_ledger=ledger,
                       queue=tuple(sorted(state.queue + entries, key=lambda e: e.position)))


# ---------------------------------------------------------------------------
# The fixing operations.


def _add_block(g: Graph, size: int, attach: int, clique: bool) -> tuple[Graph, int]:
    """Append `size` new vertices that each see the vertex mask `attach` of g
    and, in a clique block, one another; returns the graph and the block's
    vertex mask.  The only way this module grows a graph."""
    n = g.n + size
    if n > MAX_VERTICES:
        raise CapacityError(f"graph would have {n} vertices")
    if attach >> g.n:  # also catches a negative mask
        raise ValueError(f"new vertex {g.n} may only see vertices before it")
    block = (1 << n) - (1 << g.n)
    rows = list(g.adj)
    for w in _bits(attach):
        rows[w] |= block
    rows += [attach | (block & ~(1 << v) if clique else 0) for v in range(g.n, n)]
    return Graph._derived(n, rows), block


def _twin_duplicate(g: Graph, pair: tuple[int, int]) -> Graph:
    """Twin duplication: false twins fix an edge, true twins a non-edge.
    x' is added first, so y' sees x' exactly when y sees x."""
    x, y = pair
    true_twins = not g.has_edge(x, y)
    g1, _ = _add_block(g, 1, g.adj[x] | true_twins << x, clique=False)
    return _add_block(g1, 1, g1.adj[y] | true_twins << y, clique=False)[0]


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
            g, image[w] = _add_block(g, m, attach, clique=mode == CLIQUE_MODE)
    return g


def _gatekeeper_fix(g: Graph, pair: tuple[int, int], h: Graph, m: int) -> Graph:
    """Glue a blown-up copy of h, perturbed at a gatekeeper pair of the
    opposite status, onto the pair being fixed."""
    is_edge = g.has_edge(*pair)
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


def _k2p_fix(g: Graph, pair: tuple[int, int], p: int, m: int) -> Graph:
    """K_{2,p} non-edge fix: clique W sees x, cliques W_1..W_{p-1} see y and W."""
    x, y = pair
    g1, w_block = _add_block(g, m, 1 << x, clique=True)
    for _ in range(p - 1):
        g1, _ = _add_block(g1, m, 1 << y | w_block, clique=True)
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
    g1, t_block = _add_block(g, m, 1 << x | 1 << y, clique=True)
    for _child in range(p - 2):
        g1, _ = _add_block(g1, m, t_block, clique=True)
    return g1


def fix_pair(state: PrefixState, pair: tuple[int, int], family: str,
             h: Graph) -> PrefixState:
    """Apply one fixing operation of the family to a pair of the current
    prefix graph; the pair's status picks the edge or non-edge variant.

    For k2p and k11p, h must be the core pattern itself (its p is read off by
    the recognizer).  The pair joins the fixed ledger under the variant's
    label, as (min, max) however it is given; checking the fix is the
    verifier's job.
    """
    g = state.graph
    x, y = sorted(pair)
    pair = (x, y)
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"pair {pair} not in the current graph")
    if family not in _LABELS:
        raise ValueError(f"unknown strategy family {family!r}; pick one of {FAMILIES}")
    is_edge = g.has_edge(x, y)

    if family == "twin":
        new_graph = _twin_duplicate(g, pair)
    elif family == "gatekeeper":
        new_graph = _gatekeeper_fix(g, pair, h, state.m)
    else:
        match = match_k2p_k11p(h)
        if match is None or match[0] != family:
            shape = "K_{2,p}" if family == "k2p" else "K_{1,1,p}"
            raise PreconditionError(
                f"{family.upper()} strategies need h to be a {shape} pattern")
        # Deleting an edge fixed by k2p leaves its ends with m common,
        # mutually independent neighbours: an induced K_{2,m}, which
        # contains K_{2,p} only when m >= p.
        if family == "k2p" and state.m < match[1]:
            raise PreconditionError(
                f"K_{{2,p}} strategies need m >= p = {match[1]}, got m = {state.m}")
        if is_edge == (family == "k2p"):
            # K_{2,p} edge fix and K_{1,1,p} non-edge fix: m independent
            # vertices that see both ends of the pair.
            new_graph = _add_block(g, state.m, 1 << x | 1 << y, clique=False)[0]
        elif is_edge:
            new_graph = _k11p_edge_fix(g, pair, match[1], state.m)
        else:
            new_graph = _k2p_fix(g, pair, match[1], state.m)
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
    if not is_free(seed, h):
        raise PreconditionError("seed must avoid the pattern being fixed against")
    states = [initial_state(seed, m)]
    for _ in range(steps):
        state = states[-1]
        # Never None: each fix appends a vertex, whose pairs join the queue unfixed.
        entry = state.next_unfixed()
        try:
            states.append(fix_pair(state, entry.pair, family, h))
        except CapacityError:
            break
    return states

