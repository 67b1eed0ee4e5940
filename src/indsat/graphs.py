"""Finite simple graphs stored as bitset adjacency rows (Python ints, so the
vertex count is unbounded; only construction prefixes are capped, in
`constructions`).

This is the kernel every other module builds on: graph6 I/O, complementation,
induced-embedding search (plain, anchored and colored), connectivity, 2-cut
enumeration, clique covers and twin detection.  All values are immutable
after construction and every operation is a pure function, so graphs can be
shared freely between threads or worker processes.

Validation happens once, where rows enter from outside: `Graph(...)`,
`Graph.from_edges` and `parse_graph6` check every row (O(n^2)).  Graphs
derived from an existing graph -- `toggled`, `induced` and `complement` --
check only their own arguments and inherit validity, since each maps a
symmetric loop-free row set to another one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

# graph6 uses printable ASCII 63..126; a single header byte covers n <= 62.
_G6_HEADER = b">>graph6<<"
_G6_MAX_SHORT = 62


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
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

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

    def toggled(self, u: int, v: int) -> "Graph":
        """New graph with the pair {u,v} perturbed (edge deleted or added)."""
        if u == v:
            raise ValueError("cannot perturb a vertex with itself")
        self._check_vertex(u)
        self._check_vertex(v)
        rows = list(self.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph._derived(self.n, rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; result vertex i corresponds to vertices[i]."""
        for v in vertices:
            self._check_vertex(v)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertices")
        pos = {v: i for i, v in enumerate(vertices)}
        rows = [0] * len(vertices)
        for i, v in enumerate(vertices):
            for w in _bits(self.adj[v]):
                if w in pos:
                    rows[i] |= 1 << pos[w]
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
    """Decode one graph6 value; tolerates the ``>>graph6<<`` header prefix."""
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    if data[0] == 126:  # long-form vertex count (63 <= n <= 258047)
        if len(data) < 4 or data[1] == 126:
            raise Graph6Error("unsupported or truncated long-form header", 0)
        n = 0
        for i in range(1, 4):
            if not 63 <= data[i] <= 126:
                raise Graph6Error("corrupt long-form header byte", i)
            n = n << 6 | (data[i] - 63)
        body_start = 4
    else:
        if not 63 <= data[0] <= 126:
            raise Graph6Error("header byte outside graph6 range", 0)
        n = data[0] - 63
        body_start = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[body_start:]
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
    return Graph(n, rows)


def emit_graph6(g: Graph) -> str:
    """Encode with a single-byte header; round-trips bit-exactly through parse_graph6."""
    if g.n > _G6_MAX_SHORT:
        raise ValueError(f"graph6 short form supports n <= {_G6_MAX_SHORT}, got {g.n}")
    return chr(g.n + 63) + _graph6_body(g)


def graph6_label(g: Graph) -> str:
    """graph6 for any supported size, using the long-form header above 62."""
    if g.n <= _G6_MAX_SHORT:
        return emit_graph6(g)
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
# contract, speed is a courtesy.  Pattern vertices are ordered anchors-first,
# then greedily by (adjacency to the ordered prefix, degree), and host
# candidates are pruned with bitmask intersections.


def find_induced(host: Graph, pattern: Graph,
                 anchors: Optional[Mapping[int, int]] = None) -> Optional[tuple[int, ...]]:
    """Find an induced embedding of `pattern` in `host` extending `anchors`.

    Returns a tuple `m` with m[p] = host vertex for pattern vertex p, or None
    if no induced embedding exists.  Anchors must be injective and consistent
    with pattern adjacency among themselves.
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
    if np_ == 0:
        return ()

    padj = pattern.adj
    order = sorted(anchors)
    placed = sum(1 << p for p in order)
    remaining = set(range(np_)) - set(order)
    while remaining:
        nxt = max(remaining,
                  key=lambda p: ((padj[p] & placed).bit_count(), padj[p].bit_count(), -p))
        order.append(nxt)
        placed |= 1 << nxt
        remaining.discard(nxt)

    hadj = host.adj
    full = (1 << nh) - 1
    assign = [-1] * np_

    def backtrack(depth: int, used: int) -> bool:
        if depth == np_:
            return True
        p = order[depth]
        cand = full & ~used
        if p in anchors:
            cand &= 1 << anchors[p]
        for q in order[:depth]:
            if padj[p] >> q & 1:
                cand &= hadj[assign[q]]
            else:
                cand &= ~hadj[assign[q]]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            assign[p] = v
            if backtrack(depth + 1, used | low):
                return True
        assign[p] = -1
        return False

    if backtrack(0, 0):
        return tuple(assign)
    return None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism via induced-embedding search (adequate at desk scale)."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    # An injective induced embedding between equal-size graphs is a bijection.
    return find_induced(g, h) is not None


# ---------------------------------------------------------------------------
# Colored fragment search (the red-pair machinery of the gatekeeper check).


def colored_fragment_occurs(host: Graph, host_pair: tuple[int, int],
                            fragment: Graph, fragment_pair: tuple[int, int]) -> bool:
    """Does `fragment` embed induced in `host` with red pair on red pair?

    Both orientations of the red-pair alignment are tried.  Pairs of
    different status (edge vs non-edge) cannot align, so that yields False.
    """
    hu, hv = host_pair
    fu, fv = fragment_pair
    if hu == hv or fu == fv:
        raise ValueError("red pair vertices must be distinct")
    if host.has_edge(hu, hv) != fragment.has_edge(fu, fv):
        return False
    for anchors in ({fu: hu, fv: hv}, {fu: hv, fv: hu}):
        if find_induced(host, fragment, anchors) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# Connectivity, cuts, clique covers, twins.


def is_connected(g: Graph) -> bool:
    return _connected_within(g, (1 << g.n) - 1)


def _component_mask(g: Graph, start: int, allowed: int) -> int:
    """Bitmask of the component of `start` inside the vertex set `allowed`."""
    adj = g.adj
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def _connected_within(g: Graph, allowed: int) -> bool:
    if allowed == 0:
        return False
    start = (allowed & -allowed).bit_length() - 1
    return _component_mask(g, start, allowed) == allowed


def components_within(g: Graph, allowed: int) -> list[list[int]]:
    out = []
    todo = allowed
    while todo:
        start = (todo & -todo).bit_length() - 1
        comp = _component_mask(g, start, todo)
        out.append(_bits(comp))
        todo &= ~comp
    return out


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff |V| >= k+1 and no vertex set of size <= k-1 disconnects g."""
    if k < 1:
        raise ValueError("k must be positive")
    return _k_connected_within(g, (1 << g.n) - 1, k)


def _k_connected_within(g: Graph, allowed: int, k: int) -> bool:
    """is_k_connected for the subgraph induced by the vertex mask `allowed`."""
    return allowed.bit_count() >= k + 1 and _separator(g, allowed, k) is None


def _separator(g: Graph, allowed: int, k: int) -> Optional[int]:
    """First vertex mask of size < k whose removal disconnects g[allowed], or None.

    Masks are tried by size, then in `combinations` order, so the empty mask
    comes back when g[allowed] is itself disconnected.  Callers pass at
    least k + 1 vertices, so every removal leaves two or more behind.
    """
    singles = [1 << v for v in _bits(allowed)]
    for size in range(k):
        for cut in combinations(singles, size):
            mask = sum(cut)
            if not _connected_within(g, allowed & ~mask):
                return mask
    return None


def enumerate_2cuts(g: Graph) -> list[tuple[tuple[int, int], bool, list[list[int]]]]:
    """All pairs whose removal disconnects g, with the remaining components.

    Returns (pair, is_edge, components) triples; complete by brute force over
    all C(n,2) pairs.  Input must be connected with n >= 4.
    """
    if not is_connected(g):
        raise ValueError("enumerate_2cuts requires a connected graph")
    if g.n < 4:
        raise ValueError("enumerate_2cuts requires n >= 4")
    full = (1 << g.n) - 1
    out = []
    for u, v in combinations(range(g.n), 2):
        comps = components_within(g, full & ~(1 << u) & ~(1 << v))
        if len(comps) > 1:
            out.append(((u, v), g.has_edge(u, v), comps))
    return out


def clique_cover_at_most(g: Graph, vertices: Sequence[int], budget: int) -> bool:
    """Can g[vertices] be covered by at most `budget` cliques?  Equivalent to
    coloring the complement of g[vertices] with `budget` colors."""
    cliques: list[int] = []  # vertex mask of each clique opened so far

    def place(i: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        for c, members in enumerate(cliques):
            if members & ~g.adj[v] == 0:
                cliques[c] = members | 1 << v
                if place(i + 1):
                    return True
                cliques[c] = members
        if len(cliques) < budget:
            cliques.append(1 << v)
            if place(i + 1):
                return True
            cliques.pop()
        return False

    return place(0)


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
