"""The decision pipeline: which construction applies to a graph H.

Checks run on H first and then on its complement, in a fixed order (trivial;
forest with unique maximum degree; 2-core K_{2,p} / K_{1,1,p}; 3-core or
3*-core 3-connected non-clique; (1,1)-core bull or P4; close to a
permutation graph; gatekeeper fixing operations on four cores), followed by
an isomorphism match against the eight special graphs.  The first hit wins,
which makes certificates deterministic.

The special table stores both seven-vertex spellings F?q|w and F?rLw that
circulate for the third rational-geometric graph, so membership is decided
by isomorphism (complements included) rather than by trusting either label.
The two spellings turn out to be complements of each other.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Optional, Sequence

from . import cores
from .gatekeeper import (EDGE, NONEDGE, blowup_mode, check_gatekeeper,
                         has_fixing_operation)
from .graphs import (Graph, Graph6Error, _component_mask, _separator, complement,
                     graph6_label, is_isomorphic, parse_graph6)
from .recognizers import (PERMUTATION_BUDGET, TRIVIAL_NONE, classify_trivial,
                          close_to_permutation, forest_unique_max, is_bull_or_p4,
                          is_permutation_graph, is_3conn_nonclique, match_k2p_k11p)

NOT_APPLICABLE_TRIVIAL = "not_applicable_trivial"
FOREST_UNIQUE_MAX = "forest_unique_max"
CORE_K2P = "core_k2p"
CORE_K11P = "core_k11p"
CORE_3CONN = "core_3conn"
CORE_11_BULL_P4 = "core_11_bull_p4"
CLOSE_TO_PERMUTATION = "close_to_permutation"
CORE_GATEKEEPER = "core_gatekeeper"
SPECIAL_RATIONAL_GEOMETRIC = "special_rational_geometric"
SPECIAL_Z3 = "special_z3"
THEOREM_VIOLATION = "theorem_violation"
UNCLASSIFIED = "unclassified"

GATEKEEPER_CORE_ORDER = ("two", "three", "two_edge", "two_nonedge")

# The eight special graphs are stored through five base spellings; complements
# are matched by flag rather than stored separately.  The seven-vertex
# spellings F?rLw and F?q|w are complements of each other and denote the same
# complement-closed entry; F?rLw comes first because the replay witnesses
# exist for that orientation.
_SPECIAL_TABLE = (
    ("E?qw", SPECIAL_RATIONAL_GEOMETRIC),
    ("F?rLw", SPECIAL_RATIONAL_GEOMETRIC),
    ("F?S|w", SPECIAL_RATIONAL_GEOMETRIC),
    ("F?q~w", SPECIAL_Z3),
    ("F?q|w", SPECIAL_RATIONAL_GEOMETRIC),
)

# The spellings whose direct orientation embeds in its construction after a
# perturbation; the replay suites run over these.
REPLAY_GRAPHS = ("E?qw", "F?rLw", "F?S|w")


# (key, case, graph, complement of graph), parsed once at import.
_SPECIAL_GRAPHS = tuple((key, case, parse_graph6(key), complement(parse_graph6(key)))
                        for key, case in _SPECIAL_TABLE)


def special_base_graphs(tag: str = "") -> dict[str, Graph]:
    """Parsed replay-orientation special graphs, optionally filtered by
    construction tag ("rational_geometric" or "z3")."""
    return {key: g for key, case, g, _ in _SPECIAL_GRAPHS
            if (key in REPLAY_GRAPHS or key == "F?q~w") and case.endswith(tag)}


def special_table(h: Graph) -> Optional[tuple[str, str, bool]]:
    """(key, case, complemented) if h is one of the special graphs."""
    for key, case, base, base_complement in _SPECIAL_GRAPHS:
        if is_isomorphic(h, base):
            return key, case, False
        if is_isomorphic(h, base_complement):
            return key, case, True
    return None


@dataclass(frozen=True)
class Certificate:
    input: str  # graph6 of the classified graph
    case: str
    complemented: bool
    witness: dict
    timings: Optional[dict] = None

    def to_json(self, with_timings: bool = True) -> dict:
        out = {"input": self.input, "case": self.case,
               "complemented": self.complemented, "witness": self.witness}
        if with_timings and self.timings is not None:
            out["timings"] = self.timings
        return out


def _core_witness(result: cores.CoreResult, kind_name: str) -> dict:
    return {"core_kind": kind_name,
            "core": graph6_label(result.graph),
            "core_vertices": list(result.vertices),
            "trace": [c.to_json() for c in result.trace]}


def _first_case(target: Graph) -> Optional[tuple[str, dict]]:
    """Run the ordered checks on one orientation; (case, witness) on a hit."""
    hit = forest_unique_max(target)
    if hit is not None:
        center, degree = hit
        return FOREST_UNIQUE_MAX, {"center": center, "max_degree": degree}

    core2 = cores.core(target, cores.TWO)
    match = match_k2p_k11p(core2.graph)
    if match is not None:
        shape, p = match
        witness = _core_witness(core2, "two")
        witness["p"] = p
        return (CORE_K2P if shape == "k2p" else CORE_K11P), witness

    core3 = cores.core(target, cores.THREE)
    if is_3conn_nonclique(core3.graph):
        return CORE_3CONN, _core_witness(core3, "three")
    core3s = cores.core(target, cores.THREE_STAR)
    if is_3conn_nonclique(core3s.graph):
        return CORE_3CONN, _core_witness(core3s, "three_star")

    core11 = cores.core(target, cores.ONE_ONE)
    if is_bull_or_p4(core11.graph):
        witness = _core_witness(core11, "one_one")
        witness["shape"] = "p4" if core11.graph.n == 4 else "bull"
        return CORE_11_BULL_P4, witness

    if target.n <= PERMUTATION_BUDGET:
        ctp = close_to_permutation(target)
        if ctp is not None:
            edge, nonedge = ctp
            return CLOSE_TO_PERMUTATION, {"delete_edge": list(edge),
                                          "add_nonedge": list(nonedge)}

    core_cache = {"two": core2, "three": core3}
    for kind_name in GATEKEEPER_CORE_ORDER:
        if kind_name in core_cache:
            ck = core_cache[kind_name]
        else:
            ck = cores.core(target, cores.named_core(kind_name))
        gk = has_fixing_operation(ck.graph)
        if gk.both():
            witness = _core_witness(ck, kind_name)
            witness.update({"edge_witness": list(gk.edge_witness),
                            "nonedge_witness": list(gk.nonedge_witness),
                            "edge_mode": gk.edge_mode,
                            "nonedge_mode": gk.nonedge_mode})
            return CORE_GATEKEEPER, witness
    return None


def classify(h: Graph) -> Certificate:
    """Certificate naming the first construction that applies to h.

    Graphs on at least 12 vertices must land in one of the first four cases
    for one orientation; a fall-through there is reported as a theorem
    violation (expected never).
    """
    if h.n == 0:
        raise ValueError("classify needs at least one vertex")
    started = time.perf_counter()
    g6 = graph6_label(h)

    def done(case: str, complemented: bool, witness: dict) -> Certificate:
        timings = {"seconds": time.perf_counter() - started}
        return Certificate(g6, case, complemented, witness, timings)

    triv = classify_trivial(h)
    if triv != TRIVIAL_NONE:
        witness = {"kind": triv}
        if h.n <= 2:
            witness["degenerate"] = True
        return done(NOT_APPLICABLE_TRIVIAL, False, witness)

    for complemented, target in ((False, h), (True, complement(h))):
        hit = _first_case(target)
        if hit is not None:
            return done(hit[0], complemented, hit[1])

    special = special_table(h)
    if special is not None:
        key, case, complemented = special
        return done(case, complemented, {"table_key": key})

    if h.n >= 12:
        return done(THEOREM_VIOLATION, False,
                    {"note": "no structural case fired on either orientation"})
    return done(UNCLASSIFIED, False, {})


def replay_certificate(cert: Certificate) -> bool:
    """Re-run the named recognizer on the stored witness; True if it agrees."""
    h = parse_graph6(cert.input)
    target = complement(h) if cert.complemented else h
    case, witness = cert.case, cert.witness
    if case == NOT_APPLICABLE_TRIVIAL:
        return classify_trivial(h) == witness["kind"]
    if case == FOREST_UNIQUE_MAX:
        return forest_unique_max(target) == (witness["center"], witness["max_degree"])
    if case in (CORE_K2P, CORE_K11P, CORE_3CONN, CORE_11_BULL_P4, CORE_GATEKEEPER):
        kind = cores.named_core(witness["core_kind"])
        result = cores.core(target, kind)
        if graph6_label(result.graph) != witness["core"]:
            return False
        if cores.rebuild(result, target.n) != target:
            return False
        cg = result.graph
        if case in (CORE_K2P, CORE_K11P):
            shape = "k2p" if case == CORE_K2P else "k11p"
            return match_k2p_k11p(cg) == (shape, witness["p"])
        if case == CORE_3CONN:
            return is_3conn_nonclique(cg)
        if case == CORE_11_BULL_P4:
            return is_bull_or_p4(cg)
        edge = tuple(witness["edge_witness"])
        nonedge = tuple(witness["nonedge_witness"])
        return (blowup_mode(cg, edge) is not None
                and blowup_mode(cg, nonedge) is not None
                and check_gatekeeper(cg, edge, EDGE)
                and check_gatekeeper(cg, nonedge, NONEDGE))
    if case == CLOSE_TO_PERMUTATION:
        edge = tuple(witness["delete_edge"])
        nonedge = tuple(witness["add_nonedge"])
        return (is_permutation_graph(target) is None
                and target.has_edge(*edge)
                and not target.has_edge(*nonedge)
                and is_permutation_graph(target.toggled(*edge)) is not None
                and is_permutation_graph(target.toggled(*nonedge)) is not None)
    if case in (SPECIAL_RATIONAL_GEOMETRIC, SPECIAL_Z3):
        base = parse_graph6(witness["table_key"])
        return is_isomorphic(target, base)
    return case in (THEOREM_VIOLATION, UNCLASSIFIED)


# ---------------------------------------------------------------------------
# Sweep over an externally generated canonical graph6 stream.


@dataclass
class SweepReport:
    n_max: int
    totals: dict = field(default_factory=dict)
    unclassified: list = field(default_factory=list)  # graph6 strings
    errors: list = field(default_factory=list)        # (line number, message)
    graphs_processed: int = 0

    def ok(self) -> bool:
        return not self.unclassified

    def to_json(self) -> dict:
        return {"n_max": self.n_max,
                "totals": dict(sorted(self.totals.items())),
                "unclassified": list(self.unclassified),
                "errors": [[ln, msg] for ln, msg in self.errors],
                "graphs_processed": self.graphs_processed,
                "ok": self.ok()}


def _sweep_line(job: tuple[int, str, int]) -> tuple[int, str, str, str]:
    """Worker: (lineno, line, n_max) -> (lineno, status, case, payload)."""
    lineno, line, n_max = job
    try:
        g = parse_graph6(line)
    except Graph6Error as exc:
        return lineno, "error", "", str(exc)
    if g.n > n_max:
        return lineno, "error", "", f"graph on {g.n} vertices exceeds nmax {n_max}"
    cert = classify(g)
    if cert.case in (UNCLASSIFIED, THEOREM_VIOLATION):
        return lineno, "unclassified", cert.case, cert.input
    return lineno, "ok", cert.case, cert.input


def sweep(lines: Iterable[str], n_max: int, workers: int = 1) -> SweepReport:
    """Classify every graph6 line; totals are invariant under worker count
    and line order.  Malformed lines are reported and the sweep continues."""
    jobs = [(lineno, line.strip(), n_max)
            for lineno, line in enumerate(lines, start=1) if line.strip()]
    report = SweepReport(n_max=n_max)
    if workers <= 1:
        results = map(_sweep_line, jobs)
    else:
        import multiprocessing

        pool = multiprocessing.Pool(workers)
        try:
            results = pool.map(_sweep_line, jobs, chunksize=64)
        finally:
            pool.close()
            pool.join()
    for lineno, status, case, payload in results:
        if status == "error":
            report.errors.append((lineno, payload))
            continue
        report.graphs_processed += 1
        report.totals[case] = report.totals.get(case, 0) + 1
        if status == "unclassified":
            report.unclassified.append(payload)
    report.errors.sort()
    report.unclassified.sort()
    return report


# ---------------------------------------------------------------------------
# The 12-vertex bipartite structure check.


@dataclass
class StructureReport:
    configurations: int = 0
    shapes: dict = field(default_factory=dict)  # "|A|x|B|" -> count
    k33_shortcuts: int = 0
    subset_searches: int = 0
    counterexamples: list = field(default_factory=list)
    all_passed: bool = True

    def to_json(self) -> dict:
        return {"configurations": self.configurations,
                "shapes": dict(sorted(self.shapes.items())),
                "k33_shortcuts": self.k33_shortcuts,
                "subset_searches": self.subset_searches,
                "counterexamples": self.counterexamples,
                "all_passed": self.all_passed}


def _bipartite_graph(a_size: int, missed: Sequence[tuple[int, int]]) -> Graph:
    """A-vertices 0..a_size-1; B-vertex i misses exactly missed[i] in A."""
    edges = []
    for i, miss in enumerate(missed):
        b = a_size + i
        for a in range(a_size):
            if a not in miss:
                edges.append((a, b))
    return Graph.from_edges(a_size + len(missed), edges)


def _has_3conn_subset(g: Graph) -> bool:
    """Does g have a 3-connected induced subgraph on at least 5 vertices?"""
    return _3conn_within(g, (1 << g.n) - 1)


def _3conn_within(g: Graph, allowed: int) -> bool:
    """_has_3conn_subset for g[allowed].

    A 3-connected H has minimum degree >= 3, so H lies in the 3-core of
    g[allowed].  If that core has a separator S of at most 2 vertices, H - S
    is still connected, so H lies in C + S for one component C of core - S;
    each such piece is smaller than the core, so the recursion ends.
    """
    adj = g.adj
    peeled = True
    while peeled:
        peeled = False
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & allowed).bit_count() < 3:
                allowed ^= low
                peeled = True
    if allowed.bit_count() < 5:
        return False
    cut = _separator(g, allowed, 3)
    if cut is None:
        return True
    rest = allowed & ~cut
    while rest:
        piece = _component_mask(g, (rest & -rest).bit_length() - 1, rest)
        if _3conn_within(g, piece | cut):
            return True
        rest &= ~piece
    return False


def structure_check_12(progress: bool = False) -> StructureReport:
    """Every split |A|+|B| = 12 (|A| >= 5, |B| >= 3) with each B-vertex
    missing exactly two A-vertices, B-side multisets reduced by symmetry,
    must contain a 3-connected induced subgraph on at least 5 vertices."""
    report = StructureReport()
    for a_size in range(9, 4, -1):
        b_size = 12 - a_size
        shape = f"{a_size}x{b_size}"
        pairs = list(combinations(range(a_size), 2))
        pair_masks = {pair: 1 << pair[0] | 1 << pair[1] for pair in pairs}
        shape_count = 0
        for missed in combinations_with_replacement(pairs, b_size):
            shape_count += 1
            report.configurations += 1
            # Three B-vertices whose missed pairs leave 3 full A-vertices give
            # an induced K_{3,3}, which is 3-connected on 6 vertices.
            masks = [pair_masks[pair] for pair in missed]
            for x, y, z in combinations(masks, 3):
                if (x | y | z).bit_count() <= a_size - 3:
                    report.k33_shortcuts += 1
                    break
            else:
                report.subset_searches += 1
                if not _has_3conn_subset(_bipartite_graph(a_size, missed)):
                    report.all_passed = False
                    report.counterexamples.append(
                        {"a_size": a_size, "missed": [list(p) for p in missed]})
        report.shapes[shape] = shape_count
        if progress:
            print(f"structure12: shape {shape} done ({shape_count} configurations)",
                  file=sys.stderr)
    return report
