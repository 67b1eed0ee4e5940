"""Search for fixing operations in a 2-connected graph via gatekeeper pairs.

An edge e = xy of h is a gatekeeper when gluing h - e onto a non-edge of any
h-free graph keeps it h-free.  A copy of h straddling the glued pair would
have to cross a non-edge 2-cut of h, so it suffices to check that no marked
fragment h[C + {u,v}] (C a component of h - {u,v}, red pair {u,v}) embeds in
h - e with the red pair landing on {x,y}.  Non-edges are dual: edge-2-cuts
and h + e as the host.

Before a pair is accepted, its endpoints must admit a blow-up mode (clique
when neither has a true twin, independent when neither has a false twin), so
the gluing can later be upgraded to infinite blow-ups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graphs import (Graph, colored_fragment_occurs, enumerate_2cuts,
                     is_k_connected, twins)

# Gatekeeper kinds: the status of the candidate pair in h.
EDGE = "edge"
NONEDGE = "nonedge"

CLIQUE_MODE = "clique"
INDEP_MODE = "independent"

# Per-pair failure reasons.
NOT_2CONNECTED = "not_2connected"
COMPLETE_GRAPH = "complete_graph"
TWIN_CONFLICT = "twin_conflict"
FRAGMENT_FOUND = "fragment_found"


def blowup_mode(h: Graph, pair: tuple[int, int]) -> Optional[str]:
    """Blow-up mode that keeps the perturbed graph h-free, if either applies.

    Clique mode is safe when neither endpoint has a true twin; otherwise
    independent mode is safe when neither has a false twin.
    """
    u, v = pair
    if u == v:
        raise ValueError("pair vertices must be distinct")
    (true_u, false_u), (true_v, false_v) = twins(h, u), twins(h, v)
    if not true_u and not true_v:
        return CLIQUE_MODE
    if not false_u and not false_v:
        return INDEP_MODE
    return None


@dataclass(frozen=True)
class PairDiagnostic:
    pair: tuple[int, int]
    reason: str
    cut: Optional[tuple[int, int]] = None
    component: Optional[tuple[int, ...]] = None

    def to_json(self) -> dict:
        out: dict = {"pair": list(self.pair), "reason": self.reason}
        if self.cut is not None:
            out["cut"] = list(self.cut)
        if self.component is not None:
            out["component"] = list(self.component)
        return out


@dataclass(frozen=True)
class GatekeeperResult:
    edge_witness: Optional[tuple[int, int]]
    nonedge_witness: Optional[tuple[int, int]]
    edge_mode: Optional[str] = None
    nonedge_mode: Optional[str] = None
    diagnostics: tuple[PairDiagnostic, ...] = field(default=())

    def both(self) -> bool:
        return self.edge_witness is not None and self.nonedge_witness is not None

    def to_json(self) -> dict:
        return {
            "edge_witness": list(self.edge_witness) if self.edge_witness else None,
            "nonedge_witness": list(self.nonedge_witness) if self.nonedge_witness else None,
            "edge_mode": self.edge_mode,
            "nonedge_mode": self.nonedge_mode,
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def _fragments(h: Graph) -> dict[str, list]:
    """(cut, component, h[component + cut]) triples per candidate kind, in
    cut-enumeration then component order.  Only cuts that could carry a
    straddling copy count: non-edge 2-cuts for an edge candidate (the glued
    pair is a non-edge of the host), edge 2-cuts for a non-edge candidate."""
    out: dict[str, list] = {EDGE: [], NONEDGE: []}
    for (u, v), is_edge, comps in enumerate_2cuts(h):
        out[NONEDGE if is_edge else EDGE].extend(
            ((u, v), comp, h.induced(comp + [u, v])) for comp in comps)
    return out


def _first_fragment(h: Graph, pair: tuple[int, int], fragments: list
                    ) -> Optional[tuple[tuple[int, int], tuple[int, ...]]]:
    """First (cut, component) whose marked fragment embeds in the perturbed h;
    the fragment's red pair is its last two vertices."""
    host = h.toggled(*pair)
    for cut, comp, frag in fragments:
        if colored_fragment_occurs(host, pair, frag, (len(comp), len(comp) + 1)):
            return cut, tuple(comp)
    return None


def check_gatekeeper(h: Graph, pair: tuple[int, int], kind: str) -> bool:
    """Is `pair` a gatekeeper of the given kind in the 2-connected graph h?"""
    if kind not in (EDGE, NONEDGE):
        raise ValueError(f"bad kind {kind!r}")
    if not is_k_connected(h, 2):
        raise ValueError("check_gatekeeper requires a 2-connected graph")
    if h.edge_count() == h.n * (h.n - 1) // 2:
        raise ValueError("check_gatekeeper requires a non-complete graph")
    if h.has_edge(*pair) != (kind == EDGE):
        raise ValueError("pair status does not match kind")
    return _first_fragment(h, pair, _fragments(h)[kind]) is None


def has_fixing_operation(h: Graph) -> GatekeeperResult:
    """Look for an edge and a non-edge that support a fixing operation.

    Scanning stops at the first witness per kind, so diagnostics are complete
    only when the corresponding witness is absent.
    """
    diags: list[PairDiagnostic] = []
    all_pairs = [(u, v) for u in range(h.n) for v in range(u + 1, h.n)]
    if not is_k_connected(h, 2):
        return GatekeeperResult(None, None, diagnostics=tuple(
            PairDiagnostic(p, NOT_2CONNECTED) for p in all_pairs))
    if h.edge_count() == h.n * (h.n - 1) // 2:
        return GatekeeperResult(None, None, diagnostics=tuple(
            PairDiagnostic(p, COMPLETE_GRAPH) for p in all_pairs))

    fragments = _fragments(h)
    witness = {EDGE: None, NONEDGE: None}
    mode_of = {EDGE: None, NONEDGE: None}
    for kind, pairs in ((EDGE, h.edges()), (NONEDGE, h.non_edges())):
        for pair in pairs:
            mode = blowup_mode(h, pair)
            if mode is None:
                diags.append(PairDiagnostic(pair, TWIN_CONFLICT))
                continue
            found = _first_fragment(h, pair, fragments[kind])
            if found is None:
                witness[kind] = pair
                mode_of[kind] = mode
                break
            cut, comp = found
            diags.append(PairDiagnostic(pair, FRAGMENT_FOUND, cut=cut, component=comp))
    return GatekeeperResult(edge_witness=witness[EDGE],
                            nonedge_witness=witness[NONEDGE],
                            edge_mode=mode_of[EDGE],
                            nonedge_mode=mode_of[NONEDGE],
                            diagnostics=tuple(diags))


__all__ = [
    "EDGE", "NONEDGE", "CLIQUE_MODE", "INDEP_MODE", "NOT_2CONNECTED",
    "COMPLETE_GRAPH", "TWIN_CONFLICT", "FRAGMENT_FOUND", "PairDiagnostic",
    "GatekeeperResult", "blowup_mode", "check_gatekeeper", "has_fixing_operation",
]
