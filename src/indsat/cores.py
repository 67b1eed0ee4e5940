"""Core reductions: (k,l)-core, 2-/3-core, 3*-core, (1,1)-core, 2-edge-core,
2-non-edge-core.

Each reduction iteratively removes vertices (or, for the 3*-core, vertex
pairs) until no rule fires.  The firing order is pinned: the single-vertex
rule fires on the lowest-index eligible vertex first; if none is eligible the
pair rule fires on the lexicographically least eligible pair.  Deterministic
traces make cores replayable inside certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graphs import Graph, _bits, emit_graph6, parse_graph6


_TAGS = ("kl", "three_star", "two_edge", "two_nonedge")


@dataclass(frozen=True)
class CoreKind:
    """Selector for one of the reduction rule families.

    tag "kl" uses the (k, l) thresholds; the other tags ignore them.
    """

    tag: str  # "kl" | "three_star" | "two_edge" | "two_nonedge"
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown core tag {self.tag!r}")
        if self.k < 0 or self.l < 0:
            raise ValueError("k and l must be non-negative")
        # Hash once, from ints only, so the value is the same in every process.
        object.__setattr__(self, "_hash", hash((_TAGS.index(self.tag), self.k, self.l)))

    def __hash__(self) -> int:
        return self._hash


def kl_core(k: int, l: int) -> CoreKind:
    return CoreKind("kl", k, l)


TWO = kl_core(2, 0)
THREE = kl_core(3, 0)
ONE_ONE = kl_core(1, 1)
THREE_STAR = CoreKind("three_star")
TWO_EDGE = CoreKind("two_edge")
TWO_NONEDGE = CoreKind("two_nonedge")

_NAMED = {"two": TWO, "three": THREE, "one_one": ONE_ONE,
          "three_star": THREE_STAR, "two_edge": TWO_EDGE,
          "two_nonedge": TWO_NONEDGE}
_NAMES = {kind: name for name, kind in _NAMED.items()}


def named_core(name: str) -> CoreKind:
    """Look up a core kind by its wire name ("two", "three", "kl:2,1", ...)."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("kl:"):
        k, _, l = name[3:].partition(",")
        try:
            return kl_core(int(k), int(l))
        except ValueError:
            raise ValueError(f"core kind {name!r} is not kl:k,l with integers k, l >= 0") from None
    raise ValueError(f"unknown core kind {name!r}")


def core_name(kind: CoreKind) -> str:
    return _NAMES.get(kind) or f"kl:{kind.k},{kind.l}"


@dataclass(frozen=True)
class CoreResult:
    """Core graph plus the removal trace that rebuilds the input.

    `vertices[i]` is the original label of core vertex i; `trace` lists the
    removals in firing order as (removed vertices, rule); `source` is the
    peeled graph.
    """

    graph: Graph
    vertices: tuple[int, ...]
    trace: tuple[tuple[tuple[int, ...], str], ...]
    source: Graph

    def to_json(self) -> dict:
        """The serialized trace: each removal also stores its attachment, the
        removed vertices' neighbours still present once the cluster is gone,
        and whether a removed pair is adjacent.  `rebuild` replays it."""
        g, trace = self.source, []
        present = (1 << g.n) - 1
        for vertices, rule in self.trace:
            for v in vertices:
                present &= ~(1 << v)
            trace.append({"vertices": list(vertices),
                          "attachment": {str(v): list(_bits(g.adj[v] & present))
                                         for v in vertices},
                          "internal_edge": len(vertices) == 2 and g.has_edge(*vertices),
                          "rule": rule})
        return {"core": emit_graph6(self.graph), "core_vertices": list(self.vertices),
                "trace": trace}


def _removals(g: Graph, present: int, kind: CoreKind) -> Iterator[tuple[tuple[int, ...], str]]:
    """Every cluster a rule of `kind` removes from g[present], with the rule,
    in the pinned firing order: single vertices by index, then (3*-core only)
    pairs in lexicographic order.  `core` removes the first one each step."""
    adj, tag, k, l = g.adj, kind.tag, kind.k, kind.l
    last = present.bit_count() - 1  # degree plus non-degree of every vertex
    todo = present
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        row = adj[v] & present
        deg = row.bit_count()
        if tag == "kl":
            rule = "degree" if deg < k else "nondegree" if last - deg < l else None
        elif tag == "three_star":
            rule = "degree" if deg <= 2 else None
        # 2-edge-core and 2-non-edge-core: degree < 2 always goes; a degree-2
        # vertex goes when its two neighbors are adjacent (resp. non-adjacent).
        elif deg < 2:
            rule = "degree"
        elif deg > 2:
            rule = None
        elif adj[(row & -row).bit_length() - 1] & row:  # the two neighbors are adjacent
            rule = "triangle" if tag == "two_edge" else None
        else:
            rule = "open_path" if tag == "two_nonedge" else None
        if rule:
            yield (v,), rule
    if tag == "three_star":
        for u, v in combinations(_bits(present), 2):
            if ((adj[u] | adj[v] | 1 << u | 1 << v) & present).bit_count() <= 4:
                yield (u, v), "pair"


def core(g: Graph, kind: CoreKind) -> CoreResult:
    """Reduce g to its core of the given kind, recording a replayable trace."""
    present = (1 << g.n) - 1
    trace = []
    while (removal := next(_removals(g, present, kind), None)) is not None:
        trace.append(removal)
        for v in removal[0]:
            present &= ~(1 << v)
    vertices = tuple(_bits(present))
    return CoreResult(graph=g.induced(vertices) if trace else g, vertices=vertices,
                      trace=tuple(trace), source=g)


def _placed(present: int, v: int, n: int) -> int:
    """The vertex mask `present` plus v, which must be a new vertex of 0..n-1."""
    if not 0 <= v < n:
        raise ValueError(f"trace names vertex {v}, outside 0..{n - 1}")
    if present >> v & 1:
        raise ValueError(f"trace replays vertex {v} twice")
    return present | 1 << v


def rebuild(serialized: dict, n: int) -> Graph:
    """Replay a serialized trace in reverse: a `CoreResult.to_json()` dict, or
    a certificate witness carrying its `core`, `core_vertices` and `trace`.
    Returns the n-vertex graph the core was peeled from."""
    labels, rows, present = serialized["core_vertices"], [0] * n, 0
    core_rows = parse_graph6(serialized["core"]).adj
    if len(labels) != len(core_rows):
        raise ValueError("core_vertices must name each core vertex once")
    for u, row in zip(labels, core_rows):
        present = _placed(present, u, n)
        rows[u] = sum(1 << labels[j] for j in _bits(row))
    for cluster in reversed(serialized["trace"]):
        vertices = cluster["vertices"]
        for v in vertices:
            present = _placed(present, v, n)
        for v in vertices:
            for w in cluster["attachment"][str(v)]:
                if not present >> w & 1:
                    raise ValueError(f"attachment {v}->{w} targets an absent vertex")
                rows[v] |= 1 << w
                rows[w] |= 1 << v
        if cluster["internal_edge"]:
            u, v = vertices
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if present != (1 << n) - 1:
        raise ValueError("trace does not account for all vertices")
    return Graph(n, rows)
