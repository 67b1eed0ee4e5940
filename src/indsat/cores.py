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

from .graphs import Graph, _bits, emit_graph6


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
class RemovedCluster:
    """One removal step: the vertices taken out, with enough context to undo it.

    `attachment` maps each removed vertex (original label) to the neighbors it
    had, at removal time, outside the cluster.  `internal_edge` records the
    adjacency inside a removed pair.
    """

    vertices: tuple[int, ...]
    attachment: dict[int, tuple[int, ...]]
    internal_edge: bool
    rule: str

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "attachment": {str(v): list(ns) for v, ns in self.attachment.items()},
                "internal_edge": self.internal_edge,
                "rule": self.rule}


@dataclass(frozen=True)
class CoreResult:
    """Core graph plus the data needed to reconstruct the input.

    `vertices[i]` is the original label of core vertex i; `trace` lists the
    removed clusters in firing order.
    """

    graph: Graph
    vertices: tuple[int, ...]
    trace: tuple[RemovedCluster, ...]

    def to_json(self) -> dict:
        return {"core": emit_graph6(self.graph), "core_vertices": list(self.vertices),
                "trace": [c.to_json() for c in self.trace]}


def _removals(g: Graph, present: int, kind: CoreKind) -> Iterator[RemovedCluster]:
    """Every cluster a rule of `kind` removes from g[present], in the pinned
    firing order: single vertices by index, then (3*-core only) pairs in
    lexicographic order.  `core` removes the first one each step."""
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
            yield RemovedCluster(vertices=(v,), attachment={v: tuple(_bits(row))},
                                 internal_edge=False, rule=rule)
    if tag == "three_star":
        for u, v in combinations(_bits(present), 2):
            if ((adj[u] | adj[v] | 1 << u | 1 << v) & present).bit_count() <= 4:
                rest = present & ~(1 << u) & ~(1 << v)
                yield RemovedCluster(
                    vertices=(u, v),
                    attachment={u: tuple(_bits(adj[u] & rest)),
                                v: tuple(_bits(adj[v] & rest))},
                    internal_edge=g.has_edge(u, v),
                    rule="pair")


def core(g: Graph, kind: CoreKind) -> CoreResult:
    """Reduce g to its core of the given kind, recording a replayable trace."""
    present = (1 << g.n) - 1
    trace: list[RemovedCluster] = []
    while (cluster := next(_removals(g, present, kind), None)) is not None:
        trace.append(cluster)
        for v in cluster.vertices:
            present &= ~(1 << v)
    vertices = tuple(_bits(present))
    return CoreResult(graph=g.induced(vertices) if trace else g, vertices=vertices,
                      trace=tuple(trace))


def rebuild(result: CoreResult, n: int) -> Graph:
    """Replay the trace in reverse; returns the original n-vertex graph."""
    present = 0
    for v in result.vertices:
        present |= 1 << v
    rows = [0] * n
    cg = result.graph
    for i, u in enumerate(result.vertices):
        for j in _bits(cg.adj[i]):
            rows[u] |= 1 << result.vertices[j]
    for cluster in reversed(result.trace):
        for v in cluster.vertices:
            if present >> v & 1:
                raise ValueError(f"trace replays vertex {v} twice")
            present |= 1 << v
        for v in cluster.vertices:
            for w in cluster.attachment[v]:
                if not present >> w & 1:
                    raise ValueError(f"attachment {v}->{w} targets an absent vertex")
                rows[v] |= 1 << w
                rows[w] |= 1 << v
        if len(cluster.vertices) == 2 and cluster.internal_edge:
            u, v = cluster.vertices
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if present != (1 << n) - 1:
        raise ValueError("trace does not account for all vertices")
    return Graph(n, rows)
