"""Finite simple graphs stored as bitset adjacency rows (Python ints, so the
vertex count is unbounded; only construction prefixes are capped, in
`constructions`).

This is the kernel every other module builds on: graph6 I/O, complementation,
induced-embedding search (plain, anchored and colored), connectivity and
2-cut enumeration (`_cuts` yields small separators; `_disconnected` tests
a batch of candidates, of any sizes, in one packed breadth-first search),
clique covers and twin detection.  All values are immutable after
construction and every operation is a pure function, so graphs can be
shared freely between threads or worker processes.

Validation happens once, where data enters from outside: `Graph(...)`
checks every row (O(n^2)); `Graph.from_edges` checks each edge and
`parse_graph6` each byte, and both write both bits of every pair.  Graphs
derived from a graph -- `toggled`, `induced` and `complement` -- check only
their arguments, as each maps symmetric loop-free rows to such rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Mapping, Optional, Sequence

# graph6 uses printable ASCII 63..126; a single header byte covers n <= 62.
_G6_HEADER = b">>graph6<<"
_G6_MAX_SHORT = 62
# Around a graph6 value; unlike str.strip(), it keeps \x1c-\x1f and non-ASCII.
ASCII_WHITESPACE = " \t\n\r\v\f"
_G6_WHITESPACE = ASCII_WHITESPACE.encode("ascii")


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple graph: vertex count `n` plus one neighbor bitmask per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has a neighbor bit >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                    raise ValueError(f"asymmetric adjacency at pair ({u},{v})")
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _derived(cls, n: int, rows: Sequence[int]) -> "Graph":
        """Wrap rows derived from a validated graph, skipping the O(n^2) checks."""
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._derived(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        # Hot path: plain comparisons and `== 1` (not bool()) keep the check cheap.
        if u < 0 or v < 0 or u >= self.n or v >= self.n:
            raise ValueError(f"pair ({u},{v}) out of range for n={self.n}")
        return self.adj[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if self.adj[u] >> v & 1]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def non_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if not self.adj[u] >> v & 1]

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        return _bits(self.adj[v])

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"the two ends of pair ({u}, {v}) must differ")
        self._check_vertex(u)
        self._check_vertex(v)

    def toggled(self, u: int, v: int) -> "Graph":
        """New graph with the pair {u,v} perturbed (edge deleted or added)."""
        self._check_pair(u, v)
        rows = list(self.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph._derived(self.n, rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; result vertex i corresponds to vertices[i]."""
        mask, n = 0, self.n
        for v in vertices:
            if not 0 <= v < n:
                self._check_vertex(v)  # raises
            mask |= 1 << v
        if mask.bit_count() != len(vertices):
            raise ValueError("duplicate vertices")
        # Column j is set in the rows of vertices[j]'s neighbors inside the
        # mask, so the work is one step per vertex and per edge kept.
        pos = {v: i for i, v in enumerate(vertices)}
        adj = self.adj
        rows = [0] * len(vertices)
        for j, w in enumerate(vertices):
            column = 1 << j
            inside = adj[w] & mask
            while inside:
                low = inside & -inside
                rows[pos[low.bit_length() - 1]] |= column
                inside ^= low
        return Graph._derived(len(vertices), rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        if self.n <= _G6_MAX_SHORT:
            return f"Graph({emit_graph6(self)!r})"
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# graph6 (McKay's format): header byte n+63, then the upper triangle read
# column-major -- (0,1),(0,2),(1,2),(0,3),... -- packed into 6-bit groups,
# each emitted as byte group+63.


def parse_graph6(text: "str | bytes") -> Graph:
    """Decode one graph6 value; ignores ASCII whitespace around it and
    tolerates the ``>>graph6<<`` header prefix.  Error offsets count from the
    start of `text`, the dropped whitespace and header included."""
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character", exc.start) from None
    end = len(data.rstrip(_G6_WHITESPACE))
    start = len(data) - len(data.lstrip(_G6_WHITESPACE))
    if data.startswith(_G6_HEADER, start, end):
        start += len(_G6_HEADER)
    if start >= end:
        raise Graph6Error("empty graph6 string", start)
    if data[start] == 126:  # long-form vertex count (63 <= n <= 258047)
        if end - start < 4 or data[start + 1] == 126:
            raise Graph6Error("unsupported or truncated long-form header", start)
        n = 0
        for i in range(start + 1, start + 4):
            if not 63 <= data[i] <= 126:
                raise Graph6Error("corrupt long-form header byte", i)
            n = n << 6 | (data[i] - 63)
        body_start = start + 4
    else:
        if not 63 <= data[start] <= 126:
            raise Graph6Error("header byte outside graph6 range", start)
        n = data[start] - 63
        body_start = start + 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[body_start:end]
    if len(body) < nbytes:
        raise Graph6Error("truncated bit body", body_start + len(body))
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after bit body", body_start + nbytes)
    for k, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise Graph6Error("body byte outside graph6 range", body_start + k)
    padding = 6 * nbytes - nbits
    if padding and (body[-1] - 63) & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits", body_start + nbytes - 1)
    # Pairs in the order _graph6_body writes them; zip stops before the padding.
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    bits = (byte - 63 >> shift & 1 for byte in body for shift in range(5, -1, -1))
    rows = [0] * n
    for (u, v), bit in zip(pairs, bits):
        if bit:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph._derived(n, rows)


def emit_graph6(g: Graph) -> str:
    """Encode as graph6, with the four-byte header above 62 vertices;
    round-trips bit-exactly through parse_graph6."""
    if g.n <= _G6_MAX_SHORT:
        return chr(g.n + 63) + _graph6_body(g)
    if g.n > 258047:
        raise ValueError(f"graph6 four-byte header supports n <= 258047, got {g.n}")
    header = chr(126) + "".join(chr((g.n >> shift & 0x3F) + 63)
                                for shift in (12, 6, 0))
    return header + _graph6_body(g)


def _graph6_body(g: Graph) -> str:
    out = []
    group = 0
    filled = 0
    for v in range(1, g.n):
        for u in range(v):
            group = group << 1 | (g.adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group, filled = 0, 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._derived(g.n, [(~g.adj[v]) & full & ~(1 << v) for v in range(g.n)])


# ---------------------------------------------------------------------------
# Induced-embedding search.  Exhaustive backtracking; completeness is the
# contract, speed is a courtesy.  Pattern vertices are placed in
# `search_order`, which `find_induced` plans itself and memoises by pattern
# rows and anchored vertices, and host candidates are pruned with bitmask
# intersections.

# Orders `_order` keeps: one classify pass over the classes on <= 8 vertices
# meets 2,397 keys; the bound keeps larger patterns and n = 9 runs flat.
_ORDERS_KEPT = 4096


def search_order(pattern: Graph, anchored: Iterable[int]) -> tuple[int, ...]:
    """Pattern vertices anchored first, in increasing order, then greedily
    by (adjacency to the ordered prefix, degree), the lowest index on ties."""
    padj = pattern.adj
    order = sorted(anchored)
    placed = sum(1 << p for p in order)
    remaining = set(range(pattern.n)) - set(order)
    while remaining:
        nxt = max(remaining,
                  key=lambda p: ((padj[p] & placed).bit_count(), padj[p].bit_count(), -p))
        order.append(nxt)
        placed |= 1 << nxt
        remaining.discard(nxt)
    return tuple(order)


@lru_cache(maxsize=_ORDERS_KEPT)
def _order(rows: tuple[int, ...], anchored: tuple[int, ...]) -> tuple[int, ...]:
    """`search_order`, memoised on rows: a tuple hashes in C, a `Graph` in Python."""
    return search_order(Graph._derived(len(rows), rows), anchored)


def find_induced(host: Graph, pattern: Graph,
                 anchors: Optional[Mapping[int, int]] = None) -> Optional[tuple[int, ...]]:
    """Find an induced embedding of `pattern` in `host` extending `anchors`.

    Returns a tuple `m` with m[p] = host vertex for pattern vertex p, or None
    if no induced embedding exists.  Anchors must be injective and consistent
    with pattern adjacency among themselves.  The embedding returned is the
    first in `search_order(pattern, anchors)`.
    """
    np_, nh = pattern.n, host.n
    anchors = dict(anchors) if anchors else {}
    if anchors:
        if len(set(anchors.values())) != len(anchors):
            raise ValueError("anchors are not injective")
        for p, u in anchors.items():
            if not (0 <= p < np_ and 0 <= u < nh):
                raise ValueError(f"anchor {p}->{u} out of range")
        for p, q in combinations(anchors, 2):
            if pattern.has_edge(p, q) != host.has_edge(anchors[p], anchors[q]):
                raise ValueError(f"anchors {p},{q} are inconsistent with pattern adjacency")
    if np_ > nh:
        return None
    # Between equal orders an embedding is an isomorphism, so degrees must match.
    if np_ == nh and pattern.degree_sequence() != host.degree_sequence():
        return None
    if np_ == 0:
        return ()

    order = _order(pattern.adj, tuple(sorted(anchors)))
    padj = pattern.adj
    hadj = host.adj
    full = (1 << nh) - 1
    # Depth-first without recursion.  Entering depth d computes the host
    # candidates of pattern vertex order[d]; untried[d] keeps those not yet
    # tried, lowest bit first, and used[d] the host vertices taken above d.
    assign = [-1] * np_
    untried = [0] * np_
    used = [0] * np_
    depth = taken = 0
    while True:
        p = order[depth]
        cand = full & ~taken
        if p in anchors:
            cand &= 1 << anchors[p]
        for q in order[:depth]:
            if padj[p] >> q & 1:
                cand &= hadj[assign[q]]
            else:
                cand &= ~hadj[assign[q]]
        used[depth] = taken
        while not cand:  # backtrack to the deepest depth with a candidate left
            depth -= 1
            if depth < 0:
                return None
            cand = untried[depth]
        low = cand & -cand
        untried[depth] = cand ^ low
        assign[order[depth]] = low.bit_length() - 1
        taken = used[depth] | low
        depth += 1
        if depth == np_:
            return tuple(assign)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism via induced-embedding search (adequate at desk scale)."""
    # An injective induced embedding between equal-size graphs is a bijection.
    return g.n == h.n and find_induced(g, h) is not None


# ---------------------------------------------------------------------------
# Colored fragment search (the red-pair machinery of the gatekeeper check).


def colored_fragment_occurs(host: Graph, host_pair: tuple[int, int],
                            fragment: Graph, fragment_pair: tuple[int, int]
                            ) -> Optional[tuple[int, ...]]:
    """An induced embedding of `fragment` in `host`, red pair on red pair, or None.

    Both orientations of the red-pair alignment are tried; they share one
    memoised search order.  Pairs of different status (edge vs non-edge)
    cannot align, so that yields None.
    """
    hu, hv = host_pair
    fu, fv = fragment_pair
    host._check_pair(hu, hv)
    fragment._check_pair(fu, fv)
    if host.has_edge(hu, hv) != fragment.has_edge(fu, fv):
        return None
    for anchors in ({fu: hu, fv: hv}, {fu: hv, fv: hu}):
        if (found := find_induced(host, fragment, anchors)) is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Connectivity, cuts, clique covers, twins.


def components_within(g: Graph, allowed: int) -> list[int]:
    """Vertex masks of the components of g[allowed], by lowest vertex."""
    adj = g.adj
    out = []
    todo = allowed
    while todo:
        seen = frontier = todo & -todo
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & todo & ~seen
            seen |= frontier
        out.append(seen)
        todo &= ~seen
    return out


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff |V| >= k+1 and no vertex set of size <= k-1 disconnects g."""
    if k < 1:
        raise ValueError("k must be positive")
    return g.n >= k + 1 and next(_cuts(g, (1 << g.n) - 1, k), None) is None


_PACK_BITS = 4096  # widest int one packed search builds; see `_cuts`


def _disconnected(g: Graph, allowed: int, cuts: Sequence[int]) -> int:
    """Nonzero in block i exactly when removing cuts[i] disconnects g[allowed].

    One breadth-first search runs for every cut at once, packed into one int:
    block i, bits n*i .. n*i + n - 1 with n = g.n, holds the vertex set
    rest_i = allowed & ~cuts[i], which must not be empty.  `ones` has bit 0
    of every block set.  Subtracting it clears the lowest bit of each
    nonempty block and sets the bits below it, without a borrow across
    blocks, so `rests & ~(rests - ones)` is the lowest vertex of every rest:
    the start of its search.  `frontier >> v & ones` marks the blocks whose
    frontier holds v, and multiplying it by adj[v] (below 2^n, so no carry
    crosses a block) adds v's neighbors to exactly those blocks.  A round
    visits only the v in some block's frontier: OR-ing the frontier with
    itself shifted by 1, 2, 4, ... blocks folds every block into block 0.
    When the frontier dies, a block's reached set equals its rest iff that
    rest is connected, so the result is `seen ^ rests`.
    """
    n, adj = g.n, g.adj
    packed = 0
    for cut in reversed(cuts):
        packed = packed << n | cut
    block = (1 << n) - 1
    ones = ((1 << n * len(cuts)) - 1) // block
    rests = allowed * ones & ~packed
    seen = frontier = rests & ~(rests - ones)
    folds = [n << i for i in range((len(cuts) - 1).bit_length())]
    while frontier:
        live = frontier
        for shift in folds:
            live |= live >> shift
        grown = 0
        for v in _bits(live & block):
            grown |= (frontier >> v & ones) * adj[v]
        frontier = grown & rests & ~seen
        seen |= frontier
    return seen ^ rests


def _cuts(g: Graph, allowed: int, k: int) -> Iterator[int]:
    """Every vertex mask of size < k whose removal disconnects g[allowed].

    Masks come by size, then in `combinations` order, so the empty mask
    comes first when g[allowed] is itself disconnected.  They are tested in
    chunks of at most _PACK_BITS bits (one mask when g.n is wider), each one
    packed search (`_disconnected`), so memory stays flat in n and a caller
    that stops at the first cut stops the searches there.  Callers pass at
    least k + 1 vertices, so every removal leaves two or more behind.
    """
    n = g.n
    singles = [1 << v for v in _bits(allowed)]
    masks = chain.from_iterable(map(sum, combinations(singles, size)) for size in range(k))
    while chunk := list(islice(masks, max(1, _PACK_BITS // n))):
        split = _disconnected(g, allowed, chunk)
        while split:  # jump to the lowest split block, then clear it and those below
            block = ((split & -split).bit_length() - 1) // n
            yield chunk[block]
            split &= -1 << (block + 1) * n


def enumerate_2cuts(g: Graph) -> list[tuple[tuple[int, int], bool, list[list[int]]]]:
    """All pairs whose removal disconnects g, with the remaining components.

    Returns (pair, is_edge, components) triples in `combinations` order;
    complete, as `_cuts` tests all C(n,2) pairs.  Input must be connected
    with n >= 4.
    """
    if g.n < 4:
        raise ValueError("enumerate_2cuts requires n >= 4")
    full = (1 << g.n) - 1
    out = []
    for cut in _cuts(g, full, 3):
        if not cut:
            raise ValueError("enumerate_2cuts requires a connected graph")
        if cut.bit_count() == 2:
            u, v = (cut & -cut).bit_length() - 1, cut.bit_length() - 1
            out.append(((u, v), g.has_edge(u, v),
                        [_bits(c) for c in components_within(g, full & ~cut)]))
    return out


def clique_cover_at_most(g: Graph, vertices: Sequence[int], budget: int) -> bool:
    """Can g[vertices] be covered by at most `budget` cliques?  Equivalent to
    coloring the complement of g[vertices] with `budget` colors."""
    # Depth-first without recursion, trying the cliques open in order, then a new one.
    cliques: list[int] = []  # vertex mask of each clique opened so far
    chosen = [-1] * len(vertices)  # clique of vertices[i], -1 before its first try
    i = 0
    while 0 <= i < len(vertices):
        v, c = vertices[i], chosen[i]
        if c >= 0:  # leave the clique tried last, closing it if v opened it
            cliques[c] &= ~(1 << v)
            if not cliques[c]:
                cliques.pop()
        c += 1
        while c < len(cliques) and cliques[c] & ~g.adj[v]:
            c += 1
        if c == len(cliques) < budget:
            cliques.append(0)
        if c < len(cliques):
            cliques[c] |= 1 << v
            chosen[i], i = c, i + 1
        else:
            chosen[i], i = -1, i - 1
    return i >= 0


def twins(g: Graph, v: int) -> tuple[list[int], list[int]]:
    """(true twins, false twins) of v: vertices u != v with N[u]=N[v] / N(u)=N(v)."""
    g._check_vertex(v)
    closed_v = g.adj[v] | 1 << v
    true_twins, false_twins = [], []
    for u in range(g.n):
        if u == v:
            continue
        if (g.adj[u] | 1 << u) == closed_v:
            true_twins.append(u)
        if g.adj[u] == g.adj[v]:
            false_twins.append(u)
    return true_twins, false_twins


# ---------------------------------------------------------------------------
# Named graphs used throughout the classifier and tests.


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(*sizes: int) -> Graph:
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if part[u] != part[v]])


def bull_graph() -> Graph:
    # Triangle 0,1,2 with pendants 3-0 and 4-1.
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def icosahedron_graph() -> Graph:
    top, bottom = 0, 11
    edges = [(top, i) for i in range(1, 6)] + [(bottom, i) for i in range(6, 11)]
    edges += [(i, 1 + i % 5) for i in range(1, 6)]
    edges += [(5 + i, 6 + i % 5) for i in range(1, 6)]
    for i in range(1, 6):
        edges += [(i, 5 + i), (i, 6 + i % 5)]
    return Graph.from_edges(12, edges)


def icosahedron_complement() -> Graph:
    return complement(icosahedron_graph())
